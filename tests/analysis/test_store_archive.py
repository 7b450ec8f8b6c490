"""Store replication: ``export_archive`` / ``import_archive`` semantics.

The archive closes the PR 2 follow-up ("replicate a store across machines"):
a tarball of the sharded object layout that any other root can import, with
the same schema negotiation as the read path — an import only ever *adds*
knowledge, never rolls an entry back to an older envelope version, and a
hostile archive cannot write outside the store's own entry slots.
"""

from __future__ import annotations

import io
import json
import tarfile

import pytest

from repro.analysis import AnalysisConfig, Analyzer, BoundStore, result_key
from repro.analysis.store import STORE_SCHEMA
from repro.polybench import get_kernel

KERNELS = ["gemm", "atax"]


@pytest.fixture
def populated_store(tmp_path):
    store = BoundStore(tmp_path / "source")
    analyzer = Analyzer(AnalysisConfig(max_depth=0), store=store)
    for name in KERNELS:
        analyzer.analyze(get_kernel(name).program)
    return store


def result_keys(analyzer_config=None):
    config = analyzer_config or AnalysisConfig(max_depth=0)
    return {name: result_key(get_kernel(name).program, config) for name in KERNELS}


class TestRoundTrip:
    def test_export_import_replicates_results_and_tasks(self, tmp_path, populated_store):
        archive = tmp_path / "replica.tar.gz"
        exported = populated_store.export_archive(archive)
        assert exported == len(populated_store) > 0

        replica = BoundStore(tmp_path / "replica")
        imported, skipped = replica.import_archive(archive)
        assert imported == exported
        assert skipped == 0

        source_stats = populated_store.stats()
        replica_stats = replica.stats()
        assert replica_stats.kinds == source_stats.kinds
        for name, key in result_keys().items():
            restored = replica.get(key)
            assert restored is not None
            assert restored.program_name == get_kernel(name).program.name

    def test_second_import_is_a_no_op(self, tmp_path, populated_store):
        archive = tmp_path / "replica.tar.gz"
        exported = populated_store.export_archive(archive)
        replica = BoundStore(tmp_path / "replica")
        replica.import_archive(archive)
        imported, skipped = replica.import_archive(archive)
        assert imported == 0
        assert skipped == exported

    def test_export_overwrites_in_place(self, tmp_path, populated_store):
        archive = tmp_path / "replica.tar.gz"
        populated_store.export_archive(archive)
        count = populated_store.export_archive(archive)
        assert count > 0
        with tarfile.open(archive) as tar:  # replaced atomically, still readable
            assert len(tar.getmembers()) == count


class TestSimulationEntries:
    """PR 6: ``simulation`` kind entries replicate like results and tasks."""

    SIM_KEY = "c" * 64 + "-sim"
    SIM_PAYLOAD = {
        "shape": [2, 2, 1], "policy": "opt", "capacity": 16,
        "simulated": True, "used_fallback": False,
        "loads": 123, "evictions": 45, "operations": 216, "flops": 432,
    }

    def test_export_import_round_trips_simulations(self, tmp_path, populated_store):
        populated_store.put_simulation(self.SIM_KEY, self.SIM_PAYLOAD)
        assert populated_store.stats().kinds.get("simulation") == 1

        archive = tmp_path / "replica.tar.gz"
        exported = populated_store.export_archive(archive)
        replica = BoundStore(tmp_path / "replica")
        imported, skipped = replica.import_archive(archive)
        assert (imported, skipped) == (exported, 0)

        assert replica.get_simulation(self.SIM_KEY, dict) == self.SIM_PAYLOAD
        assert replica.stats().kinds.get("simulation") == 1

    def test_cache_stats_cli_lists_simulation_kind(self, tmp_path, populated_store, capsys):
        from repro.__main__ import main

        populated_store.put_simulation(self.SIM_KEY, self.SIM_PAYLOAD)
        assert main(["cache", "stats", "--root", str(populated_store.root)]) == 0
        output = capsys.readouterr().out
        assert "simulation" in output


class TestSchemaNegotiation:
    def test_never_overwrites_newer_entry(self, tmp_path, populated_store):
        archive = tmp_path / "replica.tar.gz"
        populated_store.export_archive(archive)

        replica = BoundStore(tmp_path / "replica")
        key = next(iter(result_keys().values()))
        # A future library version already owns this slot in the replica.
        newer_path = replica.path_for(key)
        newer_path.parent.mkdir(parents=True, exist_ok=True)
        newer_payload = {"store_schema": STORE_SCHEMA + 5, "key": key, "future": True}
        newer_path.write_text(json.dumps(newer_payload))

        imported, skipped = replica.import_archive(archive)
        assert skipped >= 1
        assert json.loads(newer_path.read_text()) == newer_payload

    def test_entries_from_a_newer_library_are_skipped(self, tmp_path):
        """An archive exported by a newer library version must not poison
        this library's store: it could neither read such entries nor ever
        replace them (put refuses newer slots), so import skips them."""
        key = "a" * 64 + "-" + "b" * 16
        archive = tmp_path / "future.tar.gz"
        payload = json.dumps({"store_schema": STORE_SCHEMA + 1, "key": key}).encode()
        with tarfile.open(archive, "w:gz") as tar:
            info = tarfile.TarInfo(f"objects/{key[:2]}/{key}.json")
            info.size = len(payload)
            tar.addfile(info, io.BytesIO(payload))

        store = BoundStore(tmp_path / "store")
        imported, skipped = store.import_archive(archive)
        assert (imported, skipped) == (0, 1)
        assert not store.path_for(key).exists()

    def test_older_entry_is_upgraded(self, tmp_path, populated_store):
        archive = tmp_path / "replica.tar.gz"
        populated_store.export_archive(archive)

        replica = BoundStore(tmp_path / "replica")
        key = next(iter(result_keys().values()))
        stale_path = replica.path_for(key)
        stale_path.parent.mkdir(parents=True, exist_ok=True)
        # A schema-0 bare payload (no envelope) loses to the
        # archived schema-1 envelope.
        stale_path.write_text(json.dumps({"legacy": True}))

        replica.import_archive(archive)
        assert json.loads(stale_path.read_text()).get("store_schema") == STORE_SCHEMA


class TestHostileArchives:
    def _tar_with(self, tmp_path, members: dict[str, bytes]):
        archive = tmp_path / "hostile.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for name, data in members.items():
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        return archive

    def test_traversal_and_foreign_members_are_skipped(self, tmp_path):
        key = "0" * 64 + "-" + "1" * 16
        archive = self._tar_with(
            tmp_path,
            {
                "../evil.json": b"{}",
                "objects/zz/not-a-key.json": b"{}",
                "objects/00/readme.txt": b"hello",
                f"objects/{key[:2]}/{key}.json": b"not json at all",
            },
        )
        store = BoundStore(tmp_path / "store")
        imported, skipped = store.import_archive(archive)
        assert imported == 0
        assert skipped == 4
        assert len(store) == 0
        assert not (tmp_path / "evil.json").exists()

    def test_member_shard_dir_is_ignored_for_placement(self, tmp_path, populated_store):
        """Entries land at path_for(key) regardless of the shard directory
        the archive claims — a mismatched shard cannot scatter files."""
        key = next(iter(result_keys().values()))
        payload = json.dumps({"store_schema": STORE_SCHEMA, "kind": "task", "key": key,
                              "task_result": {"sub_bounds": [], "log": []}}).encode()
        wrong_shard = "ff" if key[:2] != "ff" else "00"
        archive = self._tar_with(
            tmp_path, {f"objects/{wrong_shard}/{key}.json": payload}
        )
        store = BoundStore(tmp_path / "store")
        imported, skipped = store.import_archive(archive)
        assert (imported, skipped) == (1, 0)
        assert store.path_for(key).exists()

    def test_unreadable_archive_raises_cleanly(self, tmp_path):
        bogus = tmp_path / "bogus.tar.gz"
        bogus.write_bytes(b"this is not a tarball")
        store = BoundStore(tmp_path / "store")
        with pytest.raises(tarfile.ReadError):
            store.import_archive(bogus)


class TestCLI:
    def test_cache_export_import_roundtrip(self, tmp_path, populated_store, capsys):
        from repro.__main__ import main

        archive = tmp_path / "cli.tar.gz"
        assert main(["cache", "export", str(archive), "--root", str(populated_store.root)]) == 0
        replica_root = tmp_path / "cli-replica"
        assert main(["cache", "import", str(archive), "--root", str(replica_root)]) == 0
        output = capsys.readouterr().out
        assert "packed" in output and "imported" in output

        replica = BoundStore(replica_root)
        assert len(replica) == len(populated_store)

    def test_cache_import_bad_archive_exits_with_message(self, tmp_path):
        from repro.__main__ import main

        bogus = tmp_path / "bogus.tar.gz"
        bogus.write_bytes(b"nope")
        with pytest.raises(SystemExit, match="cannot read archive"):
            main(["cache", "import", str(bogus), "--root", str(tmp_path / "root")])
