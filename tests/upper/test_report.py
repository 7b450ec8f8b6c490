"""The tightness report and its CLI: sandwich rows, warm reruns, JSON."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.analysis import AnalysisConfig, Analyzer, BoundStore, SerialExecutor
from repro.polybench import get_kernel
from repro.upper import TightnessReport, search_upper_bounds, tightness_report

GEMM_SMALL = ["--instance", "Ni=6", "Nj=6", "Nk=6"]


def small_gemm_report(store):
    return tightness_report(
        ["gemm"],
        cache_words=16,
        instance={"Ni": 6, "Nj": 6, "Nk": 6},
        store=store,
        max_candidates=8,
    )


class SideWorkExecutor(SerialExecutor):
    """Serial executor whose first ``submit`` also does unrelated work:
    derives atax and searches one atax tiling, both without a store, the
    way a concurrent request sharing the process would."""

    def __init__(self):
        self.side_work_done = False

    def submit(self, fn, item):
        if not self.side_work_done:
            self.side_work_done = True
            atax = get_kernel("atax").program
            Analyzer(AnalysisConfig(max_depth=0)).analyze(atax)
            search_upper_bounds([(atax, {"M": 4, "N": 4})], cache_words=16, max_candidates=2)
        return super().submit(fn, item)


class TestTightnessReport:
    def test_row_is_a_valid_sandwich(self, tmp_path):
        report = small_gemm_report(BoundStore(tmp_path / "store"))
        assert report.cache_words == 16
        (row,) = report.rows
        assert row.kernel == "gemm"
        assert row.error is None
        assert row.lower_value > 0
        assert row.upper_loads is not None
        # The sandwich: a legal pebble game can never beat the lower bound.
        assert row.lower_value <= row.upper_loads
        assert row.tightness is not None and row.tightness >= 1.0
        assert row.best is not None and row.best.simulated
        # Achieved OI is routed through SimulationResult.operational_intensity
        # with the registry's per-statement flops (gemm: 2 per MAC).
        assert row.achieved_oi == pytest.approx(row.best.flops / row.best.loads)
        assert row.best.flops == 2 * row.best.operations

    def test_report_counts_work_and_warm_rerun_is_free(self, tmp_path):
        store = BoundStore(tmp_path / "store")
        cold = small_gemm_report(store)
        assert cold.derivations == 1
        assert cold.simulations == len(cold.rows[0].upper.simulations)

        warm = small_gemm_report(store)
        assert warm.derivations == 0
        assert warm.simulations == 0
        assert warm.rows[0].to_dict() == cold.rows[0].to_dict()

    def test_report_counts_only_its_own_work(self):
        executor = SideWorkExecutor()
        report = tightness_report(
            ["gemm"],
            cache_words=16,
            instance={"Ni": 6, "Nj": 6, "Nk": 6},
            store=None,
            executor=executor,
            max_candidates=8,
        )
        assert executor.side_work_done
        assert report.derivations == 1
        assert report.simulations == len(report.rows[0].upper.simulations)

    def test_document_round_trip(self, tmp_path):
        report = small_gemm_report(BoundStore(tmp_path / "store"))
        document = report.to_dict()
        assert document["schema"] == 1
        reloaded = TightnessReport.from_dict(document)
        assert reloaded.to_dict() == document

    def test_format_table_lists_every_column(self, tmp_path):
        report = small_gemm_report(BoundStore(tmp_path / "store"))
        table = report.format_table()
        for column in ("kernel", "Q_low@inst", "Q_up (loads)", "tile", "tightness"):
            assert column in table
        assert "gemm" in table


class TestReportCLI:
    def test_text_output_prints_row_and_summary(self, tmp_path, capsys):
        assert main([
            "report", "gemm", "--cache-words", "16", "--max-candidates", "8",
            *GEMM_SMALL, "--cache-dir", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out
        assert "tightness" in out
        assert "derivations: 1" in out
        assert "simulations:" in out

    def test_json_output_and_warm_rerun_zero_work(self, tmp_path, capsys):
        args = [
            "report", "gemm", "--cache-words", "16", "--max-candidates", "8",
            *GEMM_SMALL, "--cache-dir", str(tmp_path / "store"), "--json",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["derivations"] == 1
        assert cold["simulations"] > 0
        (row,) = cold["rows"]
        assert row["lower_value"] <= row["upper_loads"]
        assert row["tightness"] >= 1.0
        assert row["tile_shape"] is not None

        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["derivations"] == 0
        assert warm["simulations"] == 0
        assert warm["rows"] == cold["rows"]

    def test_unknown_kernel_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "nope", "--cache-dir", str(tmp_path / "store")])

    def test_no_cache_disables_the_store(self, tmp_path, capsys):
        assert main([
            "report", "gemm", "--cache-words", "16", "--max-candidates", "8",
            *GEMM_SMALL, "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "root:" not in out  # no store summary without a store


class TestAcceptance:
    """The issue's acceptance command, exactly as specified."""

    def test_report_gemm_jacobi2d_cache_64(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([
            "report", "gemm", "jacobi-2d", "--cache-words", "64",
            "--cache-dir", store_dir,
        ]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any(line.startswith("gemm") for line in lines)
        assert any(line.startswith("jacobi-2d") for line in lines)
        assert "tightness" in lines[0]

        # Warm JSON rerun: zero derivations, zero simulations, and every
        # kernel's simulated upper bound at least the evaluated lower bound.
        assert main([
            "report", "gemm", "jacobi-2d", "--cache-words", "64",
            "--cache-dir", store_dir, "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["derivations"] == 0
        assert document["simulations"] == 0
        assert [row["kernel"] for row in document["rows"]] == ["gemm", "jacobi-2d"]
        for row in document["rows"]:
            assert row["error"] is None
            assert row["lower_value"] <= row["upper_loads"]
            assert row["tightness"] is not None
            assert row["tile_shape"] is not None


class TestSizesBelowOne:
    @pytest.mark.parametrize(
        "sizes, name",
        [({"cache_words": 0}, "cache_words"), ({"max_candidates": -3}, "max_candidates"),
         ({"target": 0}, "target")],
        ids=["cache-words", "max-candidates", "target"],
    )
    def test_raises_before_any_derivation(self, sizes, name, tmp_path, monkeypatch):
        import repro.upper.report

        def no_derivation(*args, **kwargs):
            raise AssertionError("a bad size must be refused before deriving")

        monkeypatch.setattr(repro.upper.report, "analyze_suite_stream", no_derivation)
        store = BoundStore(tmp_path / "store")
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            tightness_report(["gemm"], store=store, **sizes)
        assert len(store) == 0

    @pytest.mark.parametrize(
        "instance, message",
        [({"Ni": -3, "Nj": 4, "Nk": 4}, "Ni must be >= 1, got -3"),
         ({"Ni": 0}, "Ni must be >= 1, got 0"),
         ({"Ni": 2.7}, "Ni must be an integer, got 2.7"),
         ({"Ni": True}, "Ni must be an integer, got True")],
        ids=["negative", "zero", "float", "bool"],
    )
    def test_bad_instance_value_raises_before_any_work(
        self, instance, message, tmp_path, monkeypatch
    ):
        import repro.upper.report

        def no_work(*args, **kwargs):
            raise AssertionError("a bad instance value must be refused before any work")

        monkeypatch.setattr(repro.upper.report, "analyze_suite_stream", no_work)
        monkeypatch.setattr(repro.upper.report, "search_upper_bounds", no_work)
        store = BoundStore(tmp_path / "store")
        with pytest.raises(ValueError, match=message):
            tightness_report(["gemm"], store=store, instance=instance)
        assert len(store) == 0
