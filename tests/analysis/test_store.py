"""Tests for the content-addressed persistent bound store.

Covers the acceptance properties of the store subsystem: sharded layout and
key addressing, the ``$REPRO_STORE`` environment override, schema-version
negotiation (envelope-less entries are misses, newer entries never corrupted),
corrupted/truncated entries as misses, LRU-by-atime eviction under a size
budget, survival under concurrent writer processes, and the CLI maintenance
subcommands (``python -m repro cache {stats,gc,clear}``).
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import os
import sys
import tarfile
import time
from pathlib import Path

import pytest
import sympy

from repro.__main__ import main as cli_main
from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    derivation_count,
    parse_size,
    reset_derivation_count,
    result_key,
)
from repro.analysis.store import STORE_SCHEMA, default_store_root
from repro.core.bounds import IOBoundResult
from repro.sets import sym


def make_result(name: str = "prog", value: int = 1) -> IOBoundResult:
    """A small, fully valid result (cheap to build, no derivation needed)."""
    n = sym("N")
    expr = sympy.Integer(value) * n
    return IOBoundResult(
        program_name=name,
        parameters=("N",),
        expression=expr,
        smooth=expr,
        asymptotic=expr,
        input_size=n,
        total_flops=2 * n,
        sub_bounds=[],
        log=[f"value={value}"],
    )


KEY = "aa" + "0" * 62 + "-cafebabecafebabe"


class TestLayoutAndRoundtrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = BoundStore(tmp_path)
        result = make_result("gemm-like", 3)
        path = store.put(KEY, result)
        assert path == tmp_path / "objects" / KEY[:2] / f"{KEY}.json"
        assert path.exists()
        loaded = store.get(KEY)
        assert loaded is not None
        assert loaded.program_name == "gemm-like"
        assert loaded.smooth == result.smooth

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        store = BoundStore(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(16)]
        for i, key in enumerate(keys):
            store.put(key, make_result(f"p{i}", i + 1))
        shards = {p.parent.name for p in (tmp_path / "objects").glob("*/*.json")}
        assert shards == {key[:2] for key in keys}
        assert len(store) == 16

    def test_write_lands_after_its_shard_is_removed_behind_the_store(self, tmp_path):
        store = BoundStore(tmp_path)
        store.put(KEY, make_result("first", 1))
        shard = tmp_path / "objects" / KEY[:2]
        for entry in shard.iterdir():
            entry.unlink()
        shard.rmdir()
        second = KEY[:2] + "1" * 62
        path = store.put(second, make_result("second", 2))
        assert path == shard / f"{second}.json" and path.exists()
        assert store.get(second).program_name == "second"
        assert store.get(KEY) is None

    def test_a_made_shard_is_not_made_again(self, tmp_path, monkeypatch):
        store = BoundStore(tmp_path)
        for shard in ("00", "01"):
            store.put(shard + "f" * 62, make_result(shard))
        made = []
        mkdir = Path.mkdir

        def recording(self, *args, **kwargs):
            made.append(self.name)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", recording)
        for i in range(4):
            store.put(f"{i % 2:02x}" + f"{i:x}" * 62, make_result(f"p{i}", i + 1))
        store.put("02" + "f" * 62, make_result("new shard"))
        assert made == ["02"]
        assert len(store) == 7

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = BoundStore(tmp_path)
        assert store.get(KEY) is None
        stats = store.stats()
        assert stats.misses == 1 and stats.hits == 0


class TestEnvironmentOverride:
    def test_repro_store_env_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "shared"))
        assert default_store_root() == tmp_path / "shared"
        store = BoundStore()
        store.put(KEY, make_result())
        assert (tmp_path / "shared" / "objects" / KEY[:2] / f"{KEY}.json").exists()

    def test_default_root_without_env_is_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        root = default_store_root()
        assert root.name == "repro" and root.parent.name == ".cache"

    def test_budget_env_is_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BUDGET", "2K")
        assert BoundStore(tmp_path).size_budget == 2048

    def test_parse_size_units(self):
        assert parse_size(4096) == 4096
        assert parse_size("4096") == 4096
        assert parse_size("64M") == 64 * 1024**2
        assert parse_size("1.5K") == 1536
        assert parse_size("2GiB") == 2 * 1024**3
        assert parse_size(None) is None
        with pytest.raises(ValueError):
            parse_size("lots")


class TestSchemaNegotiation:
    def test_envelope_less_entry_is_a_miss(self, tmp_path):
        # A bare IOBoundResult.to_dict() payload carries no store_schema.
        store = BoundStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(make_result("bare", 7).to_dict()))
        assert store.get(KEY) is None
        assert store.misses == 1

    @pytest.mark.parametrize(
        "kind, body_field, getter",
        [
            ("result", "result", "get"),
            ("task", "task_result", "get_task"),
            ("search", "search", "get_search"),
            ("simulation", "simulation", "get_simulation"),
        ],
    )
    def test_every_entry_kind_needs_the_current_schema(
        self, tmp_path, kind, body_field, getter
    ):
        """One envelope rule for every kind: an entry without the current
        store_schema is a miss on read and is skipped on archive import."""
        body = make_result().to_dict() if kind == "result" else {"x": 1}
        entry = {"kind": kind, "key": KEY, body_field: body}
        store = BoundStore(tmp_path / "store")
        # Task, search and simulation reads take their kind's decoder.
        decoders = () if kind == "result" else (dict,)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry))
        assert getattr(store, getter)(KEY, *decoders) is None
        path.write_text(json.dumps({"store_schema": STORE_SCHEMA, **entry}))
        assert getattr(store, getter)(KEY, *decoders) is not None  # control: otherwise valid

        archive = tmp_path / "legacy.tar.gz"
        data = json.dumps(entry).encode()
        with tarfile.open(archive, "w:gz") as tar:
            member = tarfile.TarInfo(f"objects/{KEY[:2]}/{KEY}.json")
            member.size = len(data)
            tar.addfile(member, io.BytesIO(data))
        replica = BoundStore(tmp_path / "replica")
        assert replica.import_archive(archive) == (0, 1)
        assert not replica.path_for(KEY).exists()

    def test_root_level_flat_file_is_not_an_entry(self, tmp_path):
        (tmp_path / f"{KEY}.json").write_text(json.dumps(make_result("flat", 7).to_dict()))
        store = BoundStore(tmp_path)
        assert store.get(KEY) is None
        assert not store.contains(KEY)
        assert not store.path_for(KEY).exists()

    def test_newer_schema_entry_is_a_miss(self, tmp_path):
        store = BoundStore(tmp_path)
        store.path_for(KEY).parent.mkdir(parents=True)
        store.path_for(KEY).write_text(
            json.dumps({"store_schema": STORE_SCHEMA + 1, "payload": "from the future"})
        )
        assert store.get(KEY) is None

    def test_newer_schema_entry_is_never_overwritten(self, tmp_path):
        store = BoundStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        future = {"store_schema": STORE_SCHEMA + 1, "payload": "from the future"}
        path.write_text(json.dumps(future))
        assert store.put(KEY, make_result()) is None
        assert json.loads(path.read_text()) == future

    @pytest.mark.parametrize(
        "content",
        [
            "",                                  # truncated to nothing
            '{"store_schema": 1, "result": ',    # truncated mid-write
            "{ not json at all",                 # garbage
            '"a json string, not an object"',    # wrong JSON shape
            '{"store_schema": 1, "result": {"program_name": "x"}}',  # missing fields
            "[1, 2, 3]",                         # wrong container
        ],
    )
    def test_corrupted_entries_are_misses(self, tmp_path, content):
        store = BoundStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(content)
        assert store.get(KEY) is None

    def test_corrupted_entry_is_replaced_by_fresh_put(self, tmp_path):
        store = BoundStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert store.get(KEY) is None
        store.put(KEY, make_result("fresh"))
        assert store.get(KEY).program_name == "fresh"


class TestSharedWarmResults:
    def test_unchanged_entry_returns_the_same_result(self, tmp_path):
        store = BoundStore(tmp_path)
        store.put(KEY, make_result("shared", 2))
        first = store.get(KEY)
        assert store.get(KEY) is first
        # Another store over the same root decodes its own copy, equal in value.
        other = BoundStore(tmp_path).get(KEY)
        assert other is not first and other.to_dict() == first.to_dict()
        assert store.hits == 2 and store.misses == 0

    def test_rewritten_entry_is_decoded_again(self, tmp_path):
        store = BoundStore(tmp_path)
        store.put(KEY, make_result("old", 1))
        old = store.get(KEY)
        store.put(KEY, make_result("new", 2))
        new = store.get(KEY)
        assert new is not old and new.program_name == "new"

    def test_kept_result_never_hides_a_corrupted_or_removed_entry(self, tmp_path):
        store = BoundStore(tmp_path)
        store.put(KEY, make_result())
        assert store.get(KEY) is not None
        path = store.path_for(KEY)
        path.write_text("{ not json")
        assert store.get(KEY) is None
        path.unlink()
        assert store.get(KEY) is None
        assert store.hits == 1 and store.misses == 2

    def test_kept_result_is_not_served_as_another_kind(self, tmp_path):
        store = BoundStore(tmp_path)
        store.put(KEY, make_result())
        assert store.get(KEY) is not None
        assert store.get_search(KEY, dict) is None
        assert store.hits == 1 and store.misses == 1

    def test_kept_results_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.analysis.store.DECODED_RESULTS", 2)
        store = BoundStore(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, make_result(f"p{i}", i + 1))
        first = store.get(keys[0])
        store.get(keys[1])
        store.get(keys[2])  # drops keys[0], the least recently read
        assert len(store._decoded) == 2
        again = store.get(keys[0])
        assert again is not first and again.to_dict() == first.to_dict()

    def test_threads_sharing_one_store_read_every_entry_right(self, tmp_path, monkeypatch):
        # More readers than kept results: every read evicts or re-decodes.
        monkeypatch.setattr("repro.analysis.store.DECODED_RESULTS", 2)
        store = BoundStore(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(5)]
        expected = {}
        for i, key in enumerate(keys):
            store.put(key, make_result(f"p{i}", i + 1))
            expected[key] = make_result(f"p{i}", i + 1).to_dict()

        def reader(offset: int) -> int:
            wrong = 0
            for round_ in range(60):
                key = keys[(offset + round_) % len(keys)]
                wrong += store.get(key).to_dict() != expected[key]
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(reader, offset) for offset in range(8)]
                wrong = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [0] * 8
        assert store.hits == 8 * 60 and store.misses == 0
        assert len(store._decoded) <= 2


class TestReadOnlyStore:
    def test_put_degrades_to_noop_when_root_is_unwritable(self, tmp_path, monkeypatch):
        store = BoundStore(tmp_path)

        def denied(*args, **kwargs):
            raise PermissionError("read-only store root")

        monkeypatch.setattr("repro.analysis.store.tempfile.mkstemp", denied)
        assert store.put(KEY, make_result()) is None  # no exception escapes


class TestEvictionAndMaintenance:
    def _fill(self, store: BoundStore, count: int) -> list[str]:
        keys = [f"{i:02x}" + "f" * 62 for i in range(count)]
        now = time.time()
        for i, key in enumerate(keys):
            path = store.put(key, make_result(f"p{i}", i + 1))
            # Spread access times one minute apart, oldest first, so the LRU
            # order is unambiguous regardless of filesystem atime behavior.
            os.utime(path, (now - 60 * (count - i), now - 60 * (count - i)))
        return keys

    def test_gc_enforces_size_budget_evicting_lru_first(self, tmp_path):
        store = BoundStore(tmp_path)
        keys = self._fill(store, 10)
        entry_size = store.path_for(keys[0]).stat().st_size
        budget = int(entry_size * 4.5)  # room for 4 entries
        evicted = store.gc(budget)
        assert evicted == 6
        stats = store.stats()
        assert stats.entries == 4
        assert stats.total_bytes <= budget
        # The oldest-atime entries went first; the most recent four survive.
        survivors = {p.stem for p in (tmp_path / "objects").glob("*/*.json")}
        assert survivors == set(keys[-4:])

    def test_recently_read_entries_survive_gc(self, tmp_path):
        store = BoundStore(tmp_path)
        keys = self._fill(store, 6)
        assert store.get(keys[0]) is not None  # hit bumps atime
        entry_size = store.path_for(keys[0]).stat().st_size
        store.gc(int(entry_size * 2.5))
        survivors = {p.stem for p in (tmp_path / "objects").glob("*/*.json")}
        assert keys[0] in survivors

    def test_gc_without_budget_is_noop(self, tmp_path):
        store = BoundStore(tmp_path)
        self._fill(store, 3)
        assert store.gc() == 0
        assert len(store) == 3

    def test_put_triggers_gc_when_budget_configured(self, tmp_path):
        entry_size = None
        probe = BoundStore(tmp_path / "probe")
        entry_size = probe.put("aa" + "0" * 62, make_result()).stat().st_size
        store = BoundStore(tmp_path, size_budget=entry_size * 3)
        self._fill(store, 8)
        assert len(store) <= 3

    def test_clear_removes_sharded_entries_only(self, tmp_path):
        store = BoundStore(tmp_path)
        self._fill(store, 3)
        (tmp_path / f"{KEY}.json").write_text("{}")          # key-named root file
        (tmp_path / "bounds.json").write_text("{}")          # unrelated export
        removed = store.clear()
        assert removed == 3
        assert len(store) == 0
        assert (tmp_path / f"{KEY}.json").exists()           # never touched
        assert (tmp_path / "bounds.json").exists()           # never touched

    def test_stats_reports_layout_and_schemas(self, tmp_path):
        store = BoundStore(tmp_path, size_budget="1G")
        self._fill(store, 5)
        bad = store.path_for("ee" + "0" * 62)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        stats = store.stats()
        assert stats.entries == 6
        assert stats.total_bytes > 0
        assert stats.size_budget == 1024**3
        assert stats.schema_versions.get(STORE_SCHEMA) == 5
        assert stats.schema_versions.get(-1) == 1  # the unreadable probe
        payload = stats.to_dict()
        assert payload["entries"] == 6 and payload["session"]["writes"] == 5


# -- concurrency ---------------------------------------------------------------

WRITER_COUNT = 8
WRITES_PER_PROCESS = 25


def _hammer_store(args: tuple[str, int]) -> int:
    """Worker: interleave puts and gets against one shared store.

    Every process rewrites the same contended key plus a private key range,
    reading back as it goes — any torn write would surface as a parse error
    (a miss) on a key the process just wrote.
    """
    root, seed = args
    store = BoundStore(root)
    contended = "cc" + "0" * 62
    ok = 0
    for i in range(WRITES_PER_PROCESS):
        store.put(contended, make_result("contended", seed * 1000 + i))
        private = f"{seed:02x}" + "b" * 60 + f"{i:02x}"
        store.put(private, make_result(f"private-{seed}", i))
        if store.get(private) is not None:
            ok += 1
        store.get(contended)  # may be any writer's value, never torn
    return ok


class TestConcurrentWriters:
    def test_store_survives_eight_concurrent_writers(self, tmp_path):
        root = str(tmp_path)
        with concurrent.futures.ProcessPoolExecutor(max_workers=WRITER_COUNT) as pool:
            results = list(
                pool.map(_hammer_store, [(root, seed) for seed in range(WRITER_COUNT)])
            )
        # Every process read back each of its own private writes.
        assert results == [WRITES_PER_PROCESS] * WRITER_COUNT

        # No corrupted entries anywhere in the store: every file parses and
        # decodes into a valid result.
        store = BoundStore(root)
        entries = list((tmp_path / "objects").glob("*/*.json"))
        assert len(entries) == WRITER_COUNT * WRITES_PER_PROCESS + 1
        for path in entries:
            payload = json.loads(path.read_text())
            assert payload["store_schema"] == STORE_SCHEMA
            assert store.get(path.stem) is not None
        # No stray temp files left behind.
        assert not list((tmp_path / "objects").glob("*/*.tmp"))


# -- integration with the Analyzer and the CLI ---------------------------------

class TestAnalyzerIntegration:
    def test_fresh_process_equivalent_warm_analyzer_derives_nothing(self, tmp_path):
        from repro.polybench import get_kernel

        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        cold = Analyzer(config, store=BoundStore(tmp_path)).analyze(program)

        # A brand-new Analyzer + store instance simulates a process restart.
        reset_derivation_count()
        warm = Analyzer(config, store=BoundStore(tmp_path)).analyze(program)
        assert derivation_count() == 0
        assert warm.smooth == cold.smooth
        assert warm.asymptotic == cold.asymptotic

    def test_cache_key_embeds_the_derivation_semantics_version(self, monkeypatch):
        from repro.analysis import analyzer as analyzer_module
        from repro.polybench import get_kernel

        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        before = result_key(program, config)
        monkeypatch.setattr(analyzer_module, "DERIVATION_VERSION", 999)
        after = result_key(program, config)
        # Changed semantics -> changed key: stale warm results are unreachable.
        assert before != after

    def test_pre_bump_warm_store_rederives(self, tmp_path, monkeypatch):
        """A store populated under the previous DERIVATION_VERSION must not
        serve those entries after the bump: the key changes, the lookup
        misses, and the kernel is re-derived with current semantics."""
        from repro.analysis import analyzer as analyzer_module
        from repro.analysis.store import DERIVATION_VERSION
        from repro.polybench import get_kernel

        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        store = BoundStore(tmp_path)

        # Populate the store as the previous library version would have.
        # (Scoped context: a bare monkeypatch.undo() would also revert the
        # autouse store-env isolation fixture's patches.)
        with monkeypatch.context() as patch:
            patch.setattr(
                analyzer_module, "DERIVATION_VERSION", DERIVATION_VERSION - 1
            )
            stale_key = result_key(program, config)
            store.put(stale_key, make_result("gemm", value=123))

        reset_derivation_count()
        result = Analyzer(config, store=store).analyze(program)
        assert derivation_count() == 1, "stale pre-bump entry must not be served"
        assert result.log, "a fresh derivation carries its log"
        # Both generations coexist on disk under distinct keys.
        assert store.contains(stale_key)
        assert store.contains(result_key(program, config))

    def test_store_path_becomes_a_bound_store(self, tmp_path):
        explicit = BoundStore(tmp_path / "explicit")
        assert Analyzer(store=explicit).store is explicit
        for root in (tmp_path / "path", str(tmp_path / "text")):
            store = Analyzer(store=root).store
            assert isinstance(store, BoundStore)
            assert store.root == tmp_path / Path(root).name
        assert Analyzer(AnalysisConfig()).store is None


class TestUndecodableEntriesAreMisses:
    """An entry whose body does not decode is a miss, never a hit: the
    session hit counts printed by `repro suite` and reported by `serve`'s
    stats event must match the work that was really reused."""

    def test_undecodable_task_entry_is_a_miss(self, tmp_path):
        from repro.analysis import plan_program, reset_task_derivation_count, task_derivation_count
        from repro.polybench import get_kernel

        program = get_kernel("atax").program
        config = AnalysisConfig(max_depth=0)
        Analyzer(config, store=BoundStore(tmp_path)).analyze(program)
        plan = plan_program(program, config)
        assert len(plan.tasks) == 2

        store = BoundStore(tmp_path)
        path = store.path_for(plan.task_key(plan.tasks[0]))
        entry = json.loads(path.read_text())
        entry["task_result"]["sub_bounds"] = [{"bogus": 1}]
        path.write_text(json.dumps(entry))
        store.path_for(result_key(program, config)).unlink()

        reset_task_derivation_count()
        Analyzer(config, store=store).analyze(program)
        assert task_derivation_count() == 1
        # The result entry and the undecodable task miss; one task hits.
        assert (store.hits, store.misses) == (1, 2)

    def test_undecodable_simulation_entry_is_a_miss(self, tmp_path):
        from repro.polybench import get_kernel
        from repro.upper import reset_simulation_count, search_upper_bounds, simulation_count

        job = (get_kernel("gemm").program, {"Ni": 4, "Nj": 4, "Nk": 4})
        options = dict(cache_words=16, max_candidates=4)
        (cold,) = search_upper_bounds([job], store=BoundStore(tmp_path), **options)
        # Without its outcome entry the search reads its per-tile cells.
        for outcome in tmp_path.glob("objects/*/*-search.json"):
            outcome.unlink()

        store = BoundStore(tmp_path)
        path = sorted(tmp_path.glob("objects/*/*-sim.json"))[0]
        entry = json.loads(path.read_text())
        del entry["simulation"]["shape"]
        path.write_text(json.dumps(entry))

        reset_simulation_count()
        (warm,) = search_upper_bounds([job], store=store, **options)
        assert simulation_count() == 1
        # The removed outcome entry and the undecodable cell miss; every
        # other cell hits.
        assert (store.hits, store.misses) == (len(cold.simulations) - 1, 2)
        assert warm.to_dict() == cold.to_dict()


class TestSearchOutcomeEntries:
    """A tiling search's whole outcome is one ``kind="search"`` entry, read
    through the same shared decoded cache as bound results."""

    OPTIONS = dict(cache_words=16, max_candidates=4)

    @staticmethod
    def job():
        from repro.polybench import get_kernel

        return get_kernel("gemm").program, {"Ni": 4, "Nj": 4, "Nk": 4}

    def test_two_warm_reads_return_the_same_outcome(self, tmp_path):
        from repro.upper import search_upper_bounds

        search_upper_bounds([self.job()], store=BoundStore(tmp_path), **self.OPTIONS)
        store = BoundStore(tmp_path)
        (first,) = search_upper_bounds([self.job()], store=store, **self.OPTIONS)
        (second,) = search_upper_bounds([self.job()], store=store, **self.OPTIONS)
        assert first is second
        assert (store.hits, store.misses) == (2, 0)

    def test_corrupt_outcome_entry_falls_back_to_the_cells(self, tmp_path):
        from repro.upper import reset_simulation_count, search_upper_bounds, simulation_count

        (cold,) = search_upper_bounds([self.job()], store=BoundStore(tmp_path), **self.OPTIONS)
        (path,) = tmp_path.glob("objects/*/*-search.json")
        entry = json.loads(path.read_text())
        del entry["search"]["cache_words"]
        path.write_text(json.dumps(entry))

        store = BoundStore(tmp_path)
        reset_simulation_count()
        (warm,) = search_upper_bounds([self.job()], store=store, **self.OPTIONS)
        assert simulation_count() == 0
        # The outcome misses; every cell hits; the outcome is written afresh.
        assert (store.hits, store.misses) == (len(cold.simulations), 1)
        assert warm.to_dict() == cold.to_dict()
        assert "cache_words" in json.loads(path.read_text())["search"]

    def test_archive_round_trips_an_outcome_entry(self, tmp_path):
        from repro.upper import UpperBoundResult, search_upper_bounds

        source = BoundStore(tmp_path / "source")
        (cold,) = search_upper_bounds([self.job()], store=source, **self.OPTIONS)
        (path,) = source.objects_dir.glob("*/*-search.json")
        archive = tmp_path / "replica.tar.gz"
        source.export_archive(archive)

        replica = BoundStore(tmp_path / "replica")
        imported, skipped = replica.import_archive(archive)
        assert (imported, skipped) == (len(source), 0)
        key = path.stem
        assert replica.path_for(key).read_bytes() == path.read_bytes()
        assert replica.get_search(key, UpperBoundResult.from_dict).to_dict() == cold.to_dict()


class TestCacheCLI:
    def test_suite_is_warm_on_second_cli_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert cli_main(["suite", "--kernels", "gemm", "atax"]) == 0
        cold_out = capsys.readouterr().out
        assert "derivations: 2" in cold_out

        assert cli_main(["suite", "--kernels", "gemm", "atax"]) == 0
        warm_out = capsys.readouterr().out
        assert "derivations: 0" in warm_out
        assert "store hits: 2" in warm_out

    def test_no_cache_flag_disables_the_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert cli_main(["suite", "--kernels", "atax", "--no-cache"]) == 0
        assert "store disabled" in capsys.readouterr().out
        assert not (tmp_path / "objects").exists()

    def test_cache_stats_gc_clear_subcommands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        store = BoundStore(tmp_path)
        for i in range(4):
            store.put(f"{i:02x}" + "d" * 62, make_result(f"p{i}"))

        assert cli_main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries     : 4" in out

        assert cli_main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 4

        entry_size = store.path_for("00" + "d" * 62).stat().st_size
        assert cli_main(["cache", "gc", "--budget", str(entry_size * 2)]) == 0
        assert "evicted" in capsys.readouterr().out
        assert len(store) <= 2

        assert cli_main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert len(store) == 0

    def test_cache_gc_without_budget_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)
        with pytest.raises(SystemExit):
            cli_main(["cache", "gc"])
