"""Self-check of the benchmark: counts repeat, wrappers cover, spans agree with repro.perf.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

Runs each workload (default: all four) traced twice with one seed and asserts:

* every per-layer count is identical between the two runs (calls,
  ``linalg.subspace.ops``, simulations, ``pebble.sim.ops``, CDAG vertices,
  store gets and hits), and so are the untraced run's work counts -- if times
  spread while these stay equal, the host caused the spread;
* ``linalg.closure.timeouts == 0``: the lattice closure's 2 s wall-clock
  deadline makes bounds depend on the host, so a run that hits it is flagged;
* every wrapper records at least one span on the workloads it drives
  (:data:`DRIVES`), and ``ir.cdag.expand`` / ``pebble.sim`` record none on
  derive-cold;
* outside-in self times agree with ``repro.perf`` exclusive times, for the
  subsystems the program times itself, within the tracing overhead;
* no run reports a failed operation.

Exits non-zero, listing every violation, if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from serverctl import HERE, ROOT

WORKLOADS = ("derive-cold", "report-cold", "serve-mixed", "fuzz-wide")

#: Per-layer counts that must repeat exactly for a seed.
COUNTS = (
    "linalg.closure.calls", "linalg.closure.timeouts", "linalg.subspace.ops", "sets.fm.calls",
    "sets.count.calls", "rel.closure.calls", "analysis.store.get.calls",
    "analysis.store.get.hit_ratio", "analysis.store.put.calls", "ir.cdag.expand.calls",
    "ir.cdag.expand.vertices", "pebble.sim.calls", "pebble.sim.ops",
    "upper.search.simulations", "upper.search.useful_ratio",
)

#: Span layer -> workloads on which it must record at least one span.
DRIVES = {
    "linalg.closure": ("derive-cold", "serve-mixed"),
    "sets.fm": ("derive-cold", "fuzz-wide"),
    "sets.count": ("derive-cold", "fuzz-wide"),
    "rel.closure": ("fuzz-wide",),
    "core.kpartition": ("derive-cold",),
    "core.wavefront": ("derive-cold",),
    "core.bounds": ("derive-cold",),
    "analysis.plan": ("derive-cold", "serve-mixed"),
    "analysis.scheduler": ("derive-cold", "serve-mixed"),
    "analysis.store.get": ("derive-cold", "serve-mixed"),
    "analysis.store.put": ("derive-cold", "serve-mixed"),
    "service.request": ("serve-mixed",),
    "ir.cdag.expand": ("report-cold",),
    "pebble.schedule": ("report-cold",),
    "pebble.sim": ("report-cold",),
    "upper.search": ("report-cold",),
    "fuzz.generate": ("fuzz-wide",),
    "fuzz.oracle.executors": ("fuzz-wide",),
    "fuzz.oracle.backends": ("fuzz-wide",),
    "fuzz.oracle.store": ("fuzz-wide",),
    "fuzz.oracle.sandwich": ("fuzz-wide",),
    "fuzz.oracle.counting": ("fuzz-wide",),
}

#: Layers that must record no span on a workload.
NEVER = {"derive-cold": ("ir.cdag.expand", "pebble.sim")}

#: Floor of the cross-check tolerance (timer resolution and wrapper cost).
MIN_TOLERANCE_S = 0.05


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check(workload: str, seed: int, seconds: int) -> list[str]:
    problems = []
    (meta1, out1), (meta2, out2) = (traced_run(workload, seed, seconds) for _ in range(2))
    for name in COUNTS:
        first, second = out1["metrics"][name]["value"], out2["metrics"][name]["value"]
        if first != second:
            problems.append(f"{name} differs between runs: {first} vs {second}")
    if meta1["counts"] != meta2["counts"]:
        problems.append(f"work counts differ: {meta1['counts']} vs {meta2['counts']}")
    for meta, out in ((meta1, out1), (meta2, out2)):
        if out["metrics"]["linalg.closure.timeouts"]["value"]:
            problems.append("a lattice closure hit its wall-clock deadline")
        if out["failed"]:
            problems.append(f"failed operations: {meta['failures']}")
    spans = meta1["span_calls"]
    for layer, workloads in DRIVES.items():
        if workload in workloads and not spans.get(layer):
            problems.append(f"wrapper {layer} recorded no span")
    for layer in NEVER.get(workload, ()):
        if spans.get(layer):
            problems.append(f"{layer} recorded {spans[layer]} spans")
    tolerance = max(abs(out1["metrics"]["trace.overhead_s"]["value"]), MIN_TOLERANCE_S)
    for subsystem, entry in meta1["crosscheck"].items():
        if abs(entry["gap_s"]) > tolerance:
            problems.append(
                f"{subsystem}: span self time {entry['spans_self_s']:.3f}s vs repro.perf "
                f"exclusive {entry['perf_exclusive_s']:.3f}s (tolerance {tolerance:.3f}s)")
    figures = {name: out1["metrics"][name]["value"] for name in ("unattributed_s", "trace.overhead_s")}
    figures.update({f"gap.{k}": round(v["gap_s"], 4) for k, v in meta1["crosscheck"].items()})
    print(f"{workload}: {json.dumps(figures)}", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"default: {WORKLOADS}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args(argv)
    if set(args.workloads) - set(WORKLOADS):
        parser.error(f"unknown workloads {sorted(set(args.workloads) - set(WORKLOADS))}")
    failed = False
    for workload in args.workloads or WORKLOADS:
        problems = check(workload, args.seed, args.seconds)
        failed = failed or bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}", flush=True)
        for problem in problems:
            print(f"  - {problem}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
