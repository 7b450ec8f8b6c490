"""CLI surface: machine-readable kernel listing and the streaming suite.

Complements the subprocess smoke tests in CI: these run ``main`` in-process
and assert the contracts service clients and shell pipelines rely on.
"""

from __future__ import annotations

import io
import json
import signal
import sys

import pytest

from repro.__main__ import main
from repro.analysis import load_results
from repro.polybench import all_kernels, kernel_names


class TestKernelsJson:
    def test_document_lists_every_kernel_with_discovery_fields(self, capsys):
        assert main(["kernels", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == 1
        entries = document["kernels"]
        assert [entry["name"] for entry in entries] == kernel_names()
        for entry, spec in zip(entries, all_kernels()):
            assert entry["category"] == spec.category
            assert entry["max_depth"] == spec.max_depth
            assert entry["parameters"] == list(spec.program.params)
            assert entry["large_instance"] == dict(spec.large_instance)
            assert entry["paper_oi_upper"] == spec.paper_oi_upper

    def test_plain_listing_unchanged(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "max_depth=" in out


class TestSuiteStreaming:
    def test_rows_print_before_summary_and_json_is_request_ordered(
        self, tmp_path, capsys
    ):
        json_path = tmp_path / "bounds.json"
        assert main([
            "suite", "--kernels", "durbin", "gemm", "--max-depth", "0",
            "--cache-dir", str(tmp_path / "store"), "--json", str(json_path),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()

        header = next(i for i, line in enumerate(lines) if line.startswith("kernel"))
        summary = next(i for i, line in enumerate(lines) if line.startswith("derivations:"))
        rows = [line.split()[0] for line in lines[header + 2 : summary]]
        # Streaming contract: result rows appear (in completion order)
        # before the end-of-run summary, not after it.
        assert sorted(rows) == ["durbin", "gemm"]

        results = load_results(json_path)
        # The persisted document follows the *request* order regardless of
        # the completion order printed above.
        assert list(results) == ["durbin", "gemm"]

    def test_duplicate_kernel_requests_keep_the_pre_streaming_shape(
        self, tmp_path, capsys
    ):
        """`--kernels gemm gemm` derives once but reports one result per
        requested kernel, exactly as the barrier-era CLI did."""
        json_path = tmp_path / "bounds.json"
        assert main([
            "suite", "--kernels", "gemm", "gemm", "--max-depth", "0",
            "--cache-dir", str(tmp_path / "store"), "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 results" in out
        assert list(load_results(json_path)) == ["gemm"]  # document keys by name

    def test_warm_run_reports_zero_derivations(self, tmp_path, capsys):
        args = [
            "suite", "--kernels", "gemm", "--max-depth", "0",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "derivations: 0" in capsys.readouterr().out


class TestAnalyzeMatchesSuite:
    def test_analyze_json_equals_the_suite_entry(self, tmp_path, capsys):
        """`analyze` runs through the suite driver with the same overrides,
        so its document is the suite document's entry for that kernel."""
        overrides = ["--no-cache", "--max-depth", "0", "--gamma", "0.5"]
        a_path, s_path = tmp_path / "a.json", tmp_path / "s.json"
        assert main(["analyze", "atax", *overrides, "--json", str(a_path)]) == 0
        assert main([
            "suite", "--kernels", "atax", *overrides, "--json", str(s_path),
        ]) == 0
        capsys.readouterr()
        analyzed = json.loads(a_path.read_text())
        suite = json.loads(s_path.read_text())
        assert analyzed == suite["results"]["atax"]


class TestProfile:
    def test_table_reports_wall_time_and_subsystems(self, capsys):
        assert main(["profile", "--kernels", "gemm"]) == 0
        out = capsys.readouterr().out
        assert "cold derivation of 1 kernel(s)" in out
        assert "(set backend: int, count backend: " in out
        assert "linalg" in out and "wall" in out
        assert "memo cache" in out

    def test_json_document_shape(self, capsys):
        assert main(["profile", "--kernels", "gemm", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kernels"] == ["gemm"]
        assert document["wall_s"] > 0
        assert document["backend"] == "int"
        assert "memo" not in document
        names = [entry["name"] for entry in document["subsystems"]]
        assert "linalg" in names
        assert any(cache["name"] == "linalg.closure" for cache in document["caches"])

    def test_output_file_receives_the_table(self, tmp_path, capsys):
        report = tmp_path / "profile.txt"
        assert main(["profile", "--kernels", "gemm", "--output", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert "cold derivation" in text and "subsystem" in text

    def test_unknown_kernel_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--kernels", "nonexistent-kernel"])


class TestServeArgs:
    def test_serve_is_registered_with_defaults(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port is None
        assert args.host == "127.0.0.1"
        assert args.executor is None and args.jobs == 1

    @pytest.mark.parametrize(
        "flags, executor",
        [([], {"name": "process", "jobs": 1}), (["--executor", "serial"], {"name": "serial", "jobs": 1})],
        ids=["default", "serial"],
    )
    def test_serve_runs_one_process_worker_unless_told_otherwise(
        self, flags, executor, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"stats": true}\n'))
        sigterm = signal.getsignal(signal.SIGTERM)
        try:
            assert main(["serve", "--no-cache", *flags]) == 0
        finally:
            signal.signal(signal.SIGTERM, sigterm)
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [event["event"] for event in events] == ["hello", "stats"]
        assert events[1]["executor"] == executor

    def test_serve_loads_the_decoder_before_starting_its_executor(self, tmp_path):
        """After ``serve``'s start-up, decoding a stored result imports
        nothing, and the lazy sympy import a first decode would make was
        already loaded when the executor started (and so forked its
        workers)."""
        import os
        import subprocess

        from repro.polybench import analyze_suite

        [gemm] = analyze_suite(["gemm"], store=None, executor="serial")
        stored = tmp_path / "gemm.json"
        stored.write_text(json.dumps(gemm.result.to_dict()))
        script = (
            "import json, sys\n"
            "from repro.__main__ import main\n"
            "from repro.analysis.executor import SerialExecutor\n"
            "loaded = {}\n"
            "def start(self):\n"
            "    loaded['modules'] = set(sys.modules)\n"
            "SerialExecutor.start = start\n"
            "assert main(['serve', '--no-cache', '--executor', 'serial']) == 0\n"
            "from repro.core.bounds import IOBoundResult\n"
            "with open(sys.argv[1]) as stream:\n"
            "    document = json.load(stream)\n"
            "before = set(sys.modules)\n"
            "IOBoundResult.from_dict(document)\n"
            "print(json.dumps({'added': sorted(set(sys.modules) - before),\n"
            "                  'tensor': 'sympy.tensor.tensor' in loaded['modules']}))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        run = subprocess.run(
            [sys.executable, "-c", script, str(stored)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == {"added": [], "tensor": True}

    def test_serve_rejects_unknown_executor(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "fibers"])


class TestRemovedWavefrontFlags:
    """The symbolic wavefront check has no CLI switch: the old flags are
    argparse errors (exit code 2), never silently accepted."""

    @pytest.mark.parametrize("command", ["analyze", "suite"])
    @pytest.mark.parametrize(
        "flags",
        [["--wavefront-validation", "concrete"], ["--no-validate-wavefront"]],
    )
    def test_flag_is_rejected(self, command, flags, capsys):
        argv = [command, "durbin", *flags] if command == "analyze" else [command, *flags]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-cache"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUnknownStrategy:
    @pytest.mark.parametrize(
        "argv", [["suite", "--kernels", "gemm"], ["analyze", "gemm"]], ids=["suite", "analyze"]
    )
    def test_exits_two_before_planning(self, argv, monkeypatch, capsys):
        import repro.analysis.analyzer

        def no_planning(*args, **kwargs):
            raise AssertionError("a bad strategy name must fail at the config")

        monkeypatch.setattr(repro.analysis.analyzer, "plan_program", no_planning)
        assert main([*argv, "--no-cache", "--strategies", "bogus"]) == 2
        assert "error: unknown strategy 'bogus'" in capsys.readouterr().err


class TestBadSuiteOverrides:
    @pytest.mark.parametrize(
        "flags",
        [["--strategies", "bogus"], ["--gamma", "3"], ["--strategies", "wavefront", "wavefront"]],
        ids=["strategy", "gamma", "repeated-strategy"],
    )
    def test_exit_two_with_nothing_on_stdout(self, flags, capsys):
        """The overrides are checked before the table header is printed."""
        assert main(["suite", "--kernels", "gemm", "--no-cache", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestJobsBelowOne:
    """A worker count below one is a user error (exit code 2, nothing on
    stdout) on every command that takes ``--jobs``, never a silent clamp to
    one worker."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--kernels", "gemm", "--max-depth", "0", "--no-cache"],
            ["analyze", "gemm", "--max-depth", "0", "--no-cache"],
            ["report", "gemm", "--no-cache"],
            ["fuzz", "--seeds", "1", "--oracle", "store"],
            ["serve", "--no-cache"],
        ],
        ids=["suite", "analyze", "report", "fuzz", "serve"],
    )
    def test_jobs_below_one_exits_two(self, argv, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", jobs])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --jobs: must be >= 1, got {jobs}" in err


class TestNumericFlagsBelowOne:
    """Sizes and counts take one positive-integer type: a bad value exits 2
    while parsing, before any derivation, simulation or output."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["report", "gemm"], "--max-candidates", "0"),
            (["report", "gemm"], "--max-candidates", "-3"),
            (["report", "gemm"], "--cache-words", "0"),
            (["report", "gemm"], "--instance-target", "0"),
            (["suite", "--kernels", "gemm"], "--jobs", "0"),
        ],
        ids=["max-candidates-0", "max-candidates-negative", "cache-words", "instance-target",
             "suite-jobs"],
    )
    def test_exits_two_with_nothing_on_stdout(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-cache", flag, value])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must be >= 1, got {value}" in err

    def test_a_non_integer_is_named(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "gemm", "--no-cache", "--cache-words", "lots"])
        assert excinfo.value.code == 2
        assert "argument --cache-words: invalid positive_int value: 'lots'" in (
            capsys.readouterr().err
        )


class TestInstanceValues:
    """``--instance`` values follow the positive-integer rule, and a report
    refuses a parameter that none of its kernels has: exit code 2, an
    ``error:`` line, nothing on stdout and no derivation."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "gemm"],
            ["suite", "--kernels", "gemm"],
            ["report", "gemm"],
        ],
        ids=["analyze", "suite", "report"],
    )
    @pytest.mark.parametrize(
        "value, message",
        [("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
         ("2.7", "must be an integer, got '2.7'")],
        ids=["zero", "negative", "float"],
    )
    def test_bad_value_exits_two(self, argv, value, message, monkeypatch, capsys):
        import repro.analysis.analyzer

        def no_planning(*args, **kwargs):
            raise AssertionError("a bad instance value must fail before planning")

        monkeypatch.setattr(repro.analysis.analyzer, "plan_program", no_planning)
        assert main([*argv, "--no-cache", "--instance", f"Ni={value}", "Nj=4", "Nk=4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: instance value of Ni {message}\n"

    def test_report_refuses_a_parameter_no_kernel_has(self, monkeypatch, capsys):
        import repro.analysis.analyzer

        def no_planning(*args, **kwargs):
            raise AssertionError("an unknown instance name must fail before planning")

        monkeypatch.setattr(repro.analysis.analyzer, "plan_program", no_planning)
        assert main(["report", "gemm", "atax", "--no-cache", "--instance", "N=4", "T=3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no selected kernel has the parameter(s) ['T']\n"
