"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs each workload ``--runs`` times untraced, each with another seed, and
prints per metric the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound and
a third of it.  The host-speed probe and the work counts of every run are
printed too, so a spread can be told apart from a change in the work done.
Raw results are appended as JSON lines to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from serverctl import HERE, ROOT


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"default: {names}")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if set(args.workloads) - set(names):
        parser.error(f"unknown workloads {sorted(set(args.workloads) - set(names))}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        counts = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            begin = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
            meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
            with log.open("a") as stream:
                stream.write(json.dumps({"meta": meta, "result": result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            counts.add(json.dumps(meta["counts"], sort_keys=True))
            print(f"{workload} seed {seed}: {time.perf_counter() - begin:.1f}s "
                  f"correct={result['correct']} "
                  f"probe {meta['probe_before_s']:.4f}/{meta['probe_after_s']:.4f}s "
                  + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
                  flush=True)
        print(f"{workload}: {len(counts)} distinct work-count sets over {args.runs} seeds")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            ok = share < bounds[name] / 3 or name == "setup_s"
            steady = steady and ok
            print(f"  {name:<18} median {median:<12.5g} IQR/median {share:7.2%}  "
                  f"bound {bounds[name]:.0%} (third {bounds[name] / 3:.1%}) "
                  f"{'ok' if ok else 'SPREAD'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
