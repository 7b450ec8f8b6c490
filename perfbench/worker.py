"""Fresh-interpreter entry points of the benchmark (started by ``run.py``).

``worker.py setup --store DIR``
    Import the public surface, load the kernel registry, open a store, print
    ``ready SPEED``: what a user pays before the first request, and the host
    speed meanwhile (see ``hostclock.py``).
``worker.py run --workload NAME --seed N --seconds S --trace 0|1 --work DIR``
    Run one workload and write its JSON result to ``DIR/result.json`` (and,
    traced, the Chrome trace to ``DIR/trace.json``).
``worker.py server --store DIR --work DIR --trace 0|1``
    ``repro serve --port 0``, printing ``host-speed SPEED`` (of its start-up)
    to stderr first and writing its host-clock ticks to
    ``DIR/server-ticks.json`` on shutdown.  Traced, the span wrappers are
    installed: when ``DIR/window`` appears it starts recording, zeroes the
    ``repro.perf`` counters and answers ``DIR/window.ack``; on shutdown it
    writes ``DIR/server.json`` and ``DIR/trace.json``.

Every command runs the host clock of ``hostclock.py`` from its start.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from hostclock import WINDOW_S, HostClock


def _setup(args, clock: HostClock) -> int:
    import repro.fuzz  # noqa: F401
    import repro.service  # noqa: F401
    import repro.upper  # noqa: F401
    from repro.analysis import BoundStore
    from repro.polybench import kernel_names

    kernel_names()
    BoundStore(args.store).stats(quick=True)
    print(f"ready {clock.speed(clock.ticks[0][0], time.perf_counter())}", flush=True)
    return 0


def _versions() -> dict:
    """Library versions and the set and count backends in effect."""
    import numpy
    import sympy
    from repro.sets.backend import get_backend
    from repro.sets.counting import count_backend

    return {"numpy": numpy.__version__, "sympy": sympy.__version__,
            "set_backend": get_backend().name, "count_backend": count_backend()}


def _layer_report(recorder, perf_snapshot: dict) -> dict:
    return {"summary": recorder.summary(), "perf": perf_snapshot}


def _host_times(out: dict, clock: HostClock) -> None:
    """Turn the workload's intervals into raw and host-speed-rescaled times."""
    begin, end = out.pop("cold")
    out["wall_raw_s"] = end - begin
    out["wall_s"] = clock.host_s(begin, end)
    warm = out.pop("warm")
    out["warm_raw_ms"] = [(end - begin) * 1000.0 for begin, end in warm]
    out["warm_ms"] = [clock.host_s(begin, end, WINDOW_S) * 1000.0 for begin, end in warm]


def _run(args, clock: HostClock) -> int:
    import spans
    from workloads import WORKLOADS

    work = Path(args.work)
    in_process = args.workload != "serve-mixed"
    recorder = spans.Recorder(f"{args.workload}-{args.seed}") if args.trace else None
    if recorder and in_process:
        spans.install(recorder)
    begin = time.perf_counter()
    out = WORKLOADS[args.workload](args.seed, args.seconds, recorder, work)
    clock.stop()
    # serve-mixed works in the server: its clock judges the host there.
    _host_times(out, clock if in_process else HostClock.load(work / "server-ticks.json"))
    out["worker_s"] = time.perf_counter() - begin
    out["main_thread"] = str(threading.get_ident())
    out["versions"] = _versions()
    if recorder and in_process:
        out["layers"] = _layer_report(recorder, out["perf"])  # repro.perf at phase end
        recorder.write_trace(str(work / "trace.json"))
    (work / "result.json").write_text(json.dumps(out))
    return 0


def _server(args, clock: HostClock) -> int:
    import spans
    from repro import perf
    from repro.__main__ import main

    work = Path(args.work)
    recorder = spans.Recorder("serve-mixed")
    if args.trace:
        spans.install(recorder)

        def watch_window() -> None:
            while not (work / "window").exists():
                time.sleep(0.01)
            perf.reset()
            recorder.start()
            (work / "window.ack").write_text("ok")

        threading.Thread(target=watch_window, daemon=True).start()
    speed = clock.speed(clock.ticks[0][0], time.perf_counter())
    print(f"host-speed {speed}", file=sys.stderr, flush=True)
    code = main(["serve", "--port", "0", "--cache-dir", args.store])
    clock.stop()
    clock.save(work / "server-ticks.json")
    if args.trace:
        recorder.stop()
        layers = _layer_report(recorder, perf.snapshot().to_dict())
        (work / "server.json").write_text(json.dumps({"layers": layers}))
        recorder.write_trace(str(work / "trace.json"))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    setup = commands.add_parser("setup")
    setup.add_argument("--store", required=True)
    run = commands.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--work", required=True)
    server = commands.add_parser("server")
    server.add_argument("--store", required=True)
    server.add_argument("--work", required=True)
    server.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clock = HostClock().start()
    handler = {"setup": _setup, "run": _run, "server": _server}[args.command]
    try:
        return handler(args, clock)
    finally:
        clock.stop()  # a SIGALRM during interpreter shutdown would kill the process


if __name__ == "__main__":
    sys.exit(main())
