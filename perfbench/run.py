"""The repo's benchmark: four workloads of the IOLB engine, end to end and per layer.

    python3 perfbench/run.py --workload derive-cold --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every workload runs in fresh interpreters
(``perfbench/worker.py``) with ``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``;
scratch files go under ``.perfbench/`` and are removed afterwards, except the
Chrome trace of a traced run (``.perfbench/traces/``).  The workloads and why
each was chosen are described in ``perfbench/workloads.py``.

``--trace 0`` prints the end-to-end metrics.  Every time in them is rescaled
to a reference host speed by the in-process probe of ``perfbench/hostclock.py``
(the raw times are in ``meta``), because this box's own speed moves by up to
1.6x from one stretch of seconds or minutes to the next:

* ``setup_s`` -- fresh interpreter to ready (imports, registry, store open;
  for serve-mixed, until the server prints ``serving on``), median of three
  start-ups, one before and two after the workload;
* ``wall_s`` -- the cold phase of the workload;
* ``warm_p50_ms`` / ``warm_p90_ms`` -- warm latency over >= 100 samples (the
  count is in ``meta``);
* ``peak_rss_mb`` -- peak RSS of the process doing the work;
* ``tightness_geomean`` -- geometric mean of a reference bound over the
  derived lower bound (lower is tighter): simulated Q_up / Q_low for
  report-cold (the report rows) and fuzz-wide (the sandwich oracle's check);
  derived OI_up / published Table 1 OI_up, i.e. the published lower bound
  over ours, for derive-cold and serve-mixed, which simulate nothing.

``--trace 1`` runs the workload untraced, then again with the span wrappers
of ``perfbench/spans.py`` installed, and prints the per-layer metrics.

The line before the last is a JSON ``meta`` object: run metadata, the
deterministic work counts (which must repeat exactly for a seed; if times
spread while they stay equal, the host caused the spread), a host-speed probe
before and after the run (recorded, not gated), failure details and, traced,
the cross-check against ``repro.perf``.  The last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from serverctl import HERE, ROOT, server_command, start_server, stop_server

SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("derive-cold", "report-cold", "serve-mixed", "fuzz-wide")
#: Start-ups per run, split before and after the workload: the host's speed
#: changes from one few-second stretch to the next, so one burst of start-ups
#: would sample only one stretch.
SETUP_BEFORE, SETUP_AFTER = 1, 2
PROBE_REPEATS = 5
#: Subsystems ``repro.perf`` times, and the outside-in layer covering each.
PERF_LAYERS = {
    "fm": "sets.fm",
    "counting": "sets.count",
    "rel-closure": "rel.closure",
    "pebble-sim": "pebble.sim",
    "linalg": "linalg.closure",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_STORE", None)
    return env


def probe() -> float:
    """Host speed: median time of a fixed pure-Python loop (not gated)."""
    times = []
    for _ in range(PROBE_REPEATS):
        begin = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def _worker(*args: str, extra: tuple = ()) -> list[str]:
    return [sys.executable, *extra, str(HERE / "worker.py"), *args]


def setup_times(workload: str, work: Path, env: dict, count: int) -> list[tuple]:
    """``(seconds, host speed)`` from a fresh interpreter to ready, for ``count``
    start-ups."""
    times = []
    work.mkdir(parents=True, exist_ok=True)
    for _ in range(count):
        store = Path(tempfile.mkdtemp(prefix="setup-store-", dir=work))
        if workload == "serve-mixed":
            proc, _port, ready, speed = start_server(server_command(store, False, work), env)
            stop_server(proc)
            times.append((ready, speed))
            continue
        begin = time.perf_counter()
        proc = subprocess.Popen(_worker("setup", "--store", str(store)), env=env,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - begin
        proc.wait()
        word, _, speed = line.partition(" ")
        if word != "ready" or proc.returncode:
            raise RuntimeError("setup worker failed")
        times.append((ready, float(speed)))
    return times


def import_times(work: Path, env: dict) -> dict:
    """``-X importtime`` of one start-up: sympy, and repro without sympy."""
    proc = subprocess.run(
        _worker("setup", "--store", str(work / "importtime-store"), extra=("-X", "importtime")),
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    sympy_us = repro_us = 0
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")
    for line in proc.stderr.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        _self_us, cumulative, indent, name = match.groups()
        if name == "sympy":
            sympy_us = int(cumulative)
        elif not indent and (name == "repro" or name.startswith("repro.")):
            repro_us += int(cumulative)
    return {"setup.import_sympy_s": sympy_us / 1e6,
            "setup.import_repro_s": max(repro_us - sympy_us, 0) / 1e6}


def run_worker(workload: str, seed: int, seconds: float, traced: bool, work: Path,
               env: dict) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        _worker("run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(traced)), "--work", str(work)),
        env=env, cwd=ROOT, check=True, timeout=170, stdout=sys.stderr)
    return json.loads((work / "result.json").read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(result: dict, setup_s: float) -> dict:
    warm = result["warm_ms"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (result["wall_s"], "s"),
        "warm_p50_ms": (statistics.median(warm), "ms"),
        "warm_p90_ms": (percentile(warm, 90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "tightness_geomean": (result["tightness_geomean"], "ratio"),
    }


def per_layer(workload: str, untraced: dict, traced: dict, imports: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run, plus span counts per layer and the
    cross-check of span self times against ``repro.perf`` exclusive times."""
    report = traced["server"]["layers"] if workload == "serve-mixed" else traced["layers"]
    layers = report["summary"]["layers"]
    counts = report["summary"]["counts"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})

    caches = {c["name"]: c for c in report["perf"]["caches"]}

    def hit_ratio(prefixes: tuple) -> float:
        hits = sum(c["hits"] for n, c in caches.items() if n.startswith(prefixes))
        misses = sum(c["misses"] for n, c in caches.items() if n.startswith(prefixes))
        return hits / (hits + misses) if hits + misses else 0.0

    get = layer("analysis.store.get")
    sim = layer("pebble.sim")
    attempted = counts.get("upper.search.simulations", 0)
    threads = report["summary"]["threads"]
    if workload == "serve-mixed":
        # The cold request's handler thread is the one with the most self time.
        thread_self = max(threads.values(), default=0.0)
        window = traced["wall_raw_s"]
    else:
        thread_self = threads.get(traced["main_thread"], 0.0)
        window = traced["window_s"]
    waits = traced.get("warm_wait_ms") or [0.0]
    metrics = {
        "linalg.closure.calls": layer("linalg.closure")["calls"],
        "linalg.closure.self_s": layer("linalg.closure")["self_s"],
        "linalg.closure.max_ms": layer("linalg.closure")["max_s"] * 1000.0,
        "linalg.closure.timeouts": counts.get("linalg.closure.timeouts", 0),
        "linalg.subspace.ops": counts.get("linalg.subspace.ops", 0),
        "sets.fm.calls": layer("sets.fm")["calls"],
        "sets.fm.self_s": layer("sets.fm")["self_s"],
        "sets.count.calls": layer("sets.count")["calls"],
        "sets.count.self_s": layer("sets.count")["self_s"],
        "sets.memo.hit_ratio": hit_ratio(("sets.", "counting.")),
        "linalg.memo.hit_ratio": hit_ratio(("linalg.",)),
        "rel.closure.calls": layer("rel.closure")["calls"],
        "rel.closure.self_s": layer("rel.closure")["self_s"],
        "core.kpartition.self_s": layer("core.kpartition")["self_s"],
        "core.wavefront.self_s": layer("core.wavefront")["self_s"],
        "core.bounds.self_s": layer("core.bounds")["self_s"],
        "analysis.plan.self_s": layer("analysis.plan")["self_s"],
        "analysis.scheduler.self_s": layer("analysis.scheduler")["self_s"],
        "analysis.store.get.calls": get["calls"],
        "analysis.store.get.self_s": get["self_s"],
        "analysis.store.get.hit_ratio":
            counts.get("analysis.store.get.hits", 0) / get["calls"] if get["calls"] else 0.0,
        "analysis.store.put.calls": layer("analysis.store.put")["calls"],
        "analysis.store.put.self_s": layer("analysis.store.put")["self_s"],
        "service.warm.wait_ms": statistics.median(waits),
        "service.request.self_s": layer("service.request")["self_s"],
        "ir.cdag.expand.calls": layer("ir.cdag.expand")["calls"],
        "ir.cdag.expand.self_s": layer("ir.cdag.expand")["self_s"],
        "ir.cdag.expand.vertices": counts.get("ir.cdag.expand.vertices", 0),
        "pebble.schedule.self_s": layer("pebble.schedule")["self_s"],
        "pebble.sim.calls": sim["calls"],
        "pebble.sim.self_s": sim["self_s"],
        "pebble.sim.ops": counts.get("pebble.sim.ops", 0),
        "pebble.sim.us_per_op":
            sim["total_s"] * 1e6 / counts["pebble.sim.ops"] if counts.get("pebble.sim.ops") else 0.0,
        "upper.search.simulations": counts.get("upper.search.simulations", 0),
        "upper.search.useful_ratio":
            counts.get("upper.search.simulated", 0) / attempted if attempted else 0.0,
        "fuzz.generate.self_s": layer("fuzz.generate")["self_s"],
    }
    for oracle in ("executors", "backends", "store", "sandwich", "counting"):
        metrics[f"fuzz.oracle.{oracle}.self_s"] = layer(f"fuzz.oracle.{oracle}")["self_s"]
    metrics.update(imports)
    metrics["unattributed_s"] = window - thread_self
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    perf_times = {t["name"]: t for t in report["perf"]["subsystems"]}
    crosscheck = {}
    for subsystem, name in PERF_LAYERS.items():
        ours = layer(name)["self_s"]
        theirs = perf_times.get(subsystem, {}).get("exclusive_s", 0.0)
        if subsystem == "counting":
            theirs += perf_times.get("counting-sum", {}).get("exclusive_s", 0.0)
        crosscheck[subsystem] = {"spans_self_s": ours, "perf_exclusive_s": theirs,
                                 "gap_s": ours - theirs}
    span_calls = {name: entry["calls"] for name, entry in layers.items()}
    return metrics, {"span_calls": span_calls, "crosscheck": crosscheck}


def metadata(workload: str, seed: int, env: dict) -> dict:
    """Run metadata; library versions and backends come from the worker."""
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass  # a checkout without git: the source digest identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the IOLB engine.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    run_dir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    meta = metadata(args.workload, args.seed, env)
    try:
        meta["probe_before_s"] = probe()
        setups = setup_times(args.workload, run_dir, env, SETUP_BEFORE)
        runs = [run_worker(args.workload, args.seed, args.seconds, False,
                           run_dir / "untraced", env)]
        if args.trace:
            runs.append(run_worker(args.workload, args.seed, args.seconds, True,
                                   run_dir / "traced", env))
            metrics, details = per_layer(args.workload, *runs, import_times(run_dir, env))
            meta.update(details)
            meta["trace_file"] = keep_trace(run_dir / "traced" / "trace.json",
                                            f"{args.workload}-{args.seed}.json")
        setups += setup_times(args.workload, run_dir, env, SETUP_AFTER)
        setup_s = statistics.median(ready * speed for ready, speed in setups)
        meta["probe_after_s"] = probe()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = runs[-1]
    meta.update(result["versions"])
    meta["warm_samples"] = len(result["warm_ms"])
    if "warm_behind_cold" in result:
        meta["warm_behind_cold"] = result["warm_behind_cold"]
    meta["setup_samples"] = [{"raw_s": ready, "host_speed": speed} for ready, speed in setups]
    meta["wall_raw_s"] = result["wall_raw_s"]
    meta["warm_raw_p50_ms"] = statistics.median(result["warm_raw_ms"])
    meta["worker_s"] = [run["worker_s"] for run in runs]
    meta["counts"] = result["counts"]
    meta["failures"] = [failure for run in runs for failure in run["failures"]]
    if args.trace:
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in end_to_end(result, setup_s).items()}
    failed = len(meta["failures"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": out}))
    return 0


def keep_trace(path: Path, name: str) -> str:
    """Copy a run's Chrome trace out of its scratch directory; return where."""
    traces = SCRATCH / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(path, traces / name)
    return str((traces / name).relative_to(ROOT))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("us_per_op", "us")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
