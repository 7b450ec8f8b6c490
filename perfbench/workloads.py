"""The four benchmark workloads, each run in a fresh interpreter by ``worker.py``.

Every workload takes the workload seed, times a cold phase (``wall_s``) and a
warm phase (``warm_ms`` samples), checks every output against a reference
that does not come from the run under test, and returns plain JSON.  Work runs
on the serial executor so load stays within the two cores of a small box.

Why each workload
-----------------
``derive-cold``
    29 PolyBench kernels (all but adi, see ``SKIPPED``) derived cold into a
    fresh private store, then warm passes of ``Analyzer.analyze`` over the
    same store.  The subspace lattice closure does about 65% of the work and
    ``repro.ir`` / ``repro.pebble`` do none: a lattice or set-algebra change
    shows here, a cache-simulator change must not.
``report-cold``
    ``tightness_report`` for gemm, jacobi-2d, atax, lu and seidel-2d at S=64,
    in a fresh store, then warm one-kernel reruns that read many small
    ``kind="simulation"`` entries.  The pebble simulator, CDAG expansion and
    tiling dominate; linalg is a few percent.  The simulator rewrite shows
    here and nowhere else.  gemm is simulated at 8x8x8 (the other kernels at
    the default edge 12) so the cold report fits a run; durbin is left out
    because its row fails the sandwich check (Q_low 12 > Q_up 11 at N=12).
``serve-mixed``
    One ``python -m repro serve --port 0`` process with its default executor
    and a private store pre-filled with the 26 non-stencil kernels.  One client
    opens two connections: a cold request for heat-3d and jacobi-2d on the
    first, and warm one-kernel requests in a closed loop (each sent after the
    previous ``done``) on the second while the cold request runs, and on
    until at least 100 have been answered.  Warm store reads beside cold derivation writes in one process
    under the GIL: the "warm behind cold" promise of the service, scheduler
    and store.
``fuzz-wide``
    ``run_campaign`` over the wide profile with every oracle, serially, then a
    warm ``Analyzer.analyze`` pass over the campaign's programs.  FM
    elimination and ``repro.rel`` closure do the work on many distinct small
    programs with little memo reuse, while linalg does almost none: the
    opposite input mix to derive-cold.  The case set is fixed (generator
    seeds 0-7) and the workload seed only permutes its order, because one case
    costs between 0.1 s and 3.5 s: a seed-chosen window would make ``wall_s``
    measure the seed, not the code.

The seed permutes kernel (or case) order in every workload.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import socket
import threading
import time
from pathlib import Path

import sympy

from repro import perf
from repro.analysis import AnalysisConfig, Analyzer, BoundStore, derivation_count
from repro.core.bounds import IOBoundResult
from repro.ir.cdag import expand_count
from repro.polybench import analyze_suite, get_kernel, kernel_names
from repro.sets import sym
from repro.upper import tightness_report
from repro.upper.search import simulation_count

import spans
from serverctl import ROOT, server_command, start_server, stop_server

GOLDEN = ROOT / "tests" / "polybench" / "golden_bounds.json"

#: Warm samples of a traced run (and the floor of an untraced one): at least
#: 100, so at least 10 lie beyond p90.
MIN_WARM = 100
#: derive-cold's warm passes: its 29 kernels differ up to 20x in warm cost,
#: so its p90 needs more samples than MIN_WARM to settle.
DERIVE_WARM_PASSES = 8
#: Cache size of the report's sandwich.
CACHE_WORDS = 64
REPORT_KERNELS = ["gemm", "jacobi-2d", "atax", "lu", "seidel-2d"]
REPORT_INSTANCE = {"Ni": 8, "Nj": 8, "Nk": 8}
#: Left out of every workload so a run fits its time budget: adi alone is a
#: 4.3 s cold derivation on a 2-core box.
SKIPPED = ["adi"]
STENCILS = ["heat-3d", "adi", "jacobi-2d", "fdtd-2d"]
#: ~12 s of derivation beside the warm loop: most of the >= 100 warm round
#: trips are sent while it runs (``meta`` reports how many).
SERVE_COLD = ["heat-3d", "jacobi-2d"]
FUZZ_SEEDS = range(8)
#: Cache size at which derived and published OI_up are compared.
PAPER_S = 1024


def _permuted(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# -- references -------------------------------------------------------------------


class Golden:
    """The checked-in golden bounds, read (never written) and compared symbolically."""

    def __init__(self):
        self.doc = json.loads(GOLDEN.read_text())

    def mismatch(self, name: str, result: IOBoundResult) -> str | None:
        expected = self.doc.get(name)
        if expected is None:
            return f"{name}: no golden entry"
        local = {p: sym(p) for p in [*result.parameters, "S"]}
        local["sqrt"] = sympy.sqrt
        for field, actual in (("asymptotic", result.asymptotic),
                              ("oi_upper", result.oi_upper_bound())):
            want = sympy.sympify(expected[field], locals=local)
            difference = sympy.expand(actual - want)
            if difference != 0 and sympy.simplify(difference) != 0:
                return f"{name}: {field} {actual} != golden {expected[field]}"
        return None


def _paper_ratio(name: str, result: IOBoundResult) -> float:
    """Derived OI_up over the published OI_up at the LARGE instance: the
    published lower bound over ours (lower is tighter)."""
    spec = get_kernel(name)
    point = {**spec.large_instance, "S": PAPER_S}
    paper = spec.paper_oi_upper_expr().subs({sym(k): v for k, v in point.items()})
    return result.evaluate_oi_upper(point) / float(paper)


def _geomean(values) -> float:
    """Geometric mean; ``fsum`` rounds exactly, so any order gives the same bits."""
    logs = [math.log(v) for v in values]
    return math.exp(math.fsum(logs) / len(logs))


# -- shared plumbing --------------------------------------------------------------


def _counts() -> dict:
    """Deterministic work counts of this process, for repeat checks."""
    snap = perf.snapshot()
    return {
        "perf_calls": {t.name: t.calls for t in snap.timings},
        "derivations": derivation_count(),
        "simulations": simulation_count(),
        "cdag_expansions": expand_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_loop(sample, count: int, period: int, until: float | None) -> list[tuple]:
    """Run ``sample(i)`` in whole passes of ``period``: at least ``count``
    samples, and on until ``until`` if given.  Returns each sample's interval."""
    intervals = []
    i = 0
    while (i < count or i % period
           or (until is not None and time.perf_counter() < until)):
        begin = time.perf_counter()
        sample(i)
        intervals.append((begin, time.perf_counter()))
        i += 1
    return intervals


class Phase:
    """The measured phase: ``perf`` counters zeroed, spans recorded when traced."""

    def __init__(self, recorder: "spans.Recorder | None", seconds: float):
        self.recorder = recorder
        self.seconds = seconds

    def __enter__(self):
        perf.reset()
        self.begin = self.recorder.start() if self.recorder else time.perf_counter()
        # Untraced runs fill the rest of the run with warm samples; traced
        # runs take exactly MIN_WARM so every count repeats.
        self.until = None if self.recorder else self.begin + self.seconds
        return self

    def cold_done(self) -> None:
        """End of the cold phase: record its interval and its work counts."""
        self.cold = (self.begin, time.perf_counter())
        self.counts = _counts()

    def __exit__(self, *exc):
        self.end = self.recorder.stop() if self.recorder else time.perf_counter()
        self.snapshot = perf.snapshot()


def _result(phase: Phase, warm: list[tuple], attempted: int, failures: list[str],
            tightness: float) -> dict:
    """A workload's result; ``worker.py`` turns the intervals into times."""
    return {
        "cold": phase.cold,
        "warm": warm,
        "window_s": phase.end - phase.begin,
        "attempted": attempted,
        "failures": failures,
        "tightness_geomean": tightness,
        "peak_rss_mb": _peak_rss_mb(),
        "counts": phase.counts,
        "perf": phase.snapshot.to_dict(),
    }


# -- the workloads ----------------------------------------------------------------


def derive_cold(seed: int, seconds: float, recorder: "spans.Recorder | None", work: Path) -> dict:
    names = _permuted([name for name in kernel_names() if name not in SKIPPED], seed)
    store = BoundStore(work / "store")
    specs = [get_kernel(name) for name in names]
    analyzers = [Analyzer(AnalysisConfig(max_depth=spec.max_depth), store=store) for spec in specs]
    last = {}

    def warm(i: int) -> None:
        spec = specs[i % len(specs)]
        last[spec.name] = analyzers[i % len(specs)].analyze(spec.program)

    with Phase(recorder, seconds) as phase:
        cold = analyze_suite(names, store=store, executor="serial")
        phase.cold_done()
        samples = _warm_loop(warm, DERIVE_WARM_PASSES * len(specs), len(specs), phase.until)

    golden = Golden()
    failures = [m for a in cold if (m := golden.mismatch(a.spec.name, a.result))]
    for analysis in cold:
        if last[analysis.spec.name].to_dict() != analysis.result.to_dict():
            failures.append(f"{analysis.spec.name}: warm result differs from cold")
    tightness = _geomean(_paper_ratio(a.spec.name, a.result) for a in cold)
    return _result(phase, samples, len(cold) + len(samples), failures, tightness)


def report_cold(seed: int, seconds: float, recorder: "spans.Recorder | None", work: Path) -> dict:
    names = _permuted(REPORT_KERNELS, seed)
    store = BoundStore(work / "store")
    options = dict(cache_words=CACHE_WORDS, instance=REPORT_INSTANCE, store=store,
                   executor="serial")
    warm_reports = []

    def warm(i: int) -> None:
        warm_reports.append(tightness_report([names[i % len(names)]], **options))

    with Phase(recorder, seconds) as phase:
        report = tightness_report(names, **options)
        phase.cold_done()
        samples = _warm_loop(warm, MIN_WARM, len(names), phase.until)

    failures = []
    for row in report.rows:
        if row.error is not None or row.upper_loads is None:
            failures.append(f"{row.kernel}: {row.error or 'no simulated upper bound'}")
        elif row.lower_value > row.upper_loads:
            failures.append(f"{row.kernel}: Q_low {row.lower_value} > Q_up {row.upper_loads}")
    cold_rows = {row.kernel: row.to_dict() for row in report.rows}
    for rerun in warm_reports:
        row = rerun.rows[0]
        if rerun.derivations or rerun.simulations or row.to_dict() != cold_rows[row.kernel]:
            failures.append(f"{row.kernel}: warm rerun did work or changed the row")
    tightness = _geomean(row.tightness for row in report.rows if row.tightness)
    return _result(phase, samples, len(report.rows) + len(samples), failures, tightness)


def fuzz_wide(seed: int, seconds: float, recorder: "spans.Recorder | None", work: Path) -> dict:
    from repro.fuzz import run_campaign
    from repro.fuzz.generator import random_program

    order = _permuted(FUZZ_SEEDS, seed)
    store = BoundStore(work / "store")
    analyzer = Analyzer(AnalysisConfig(max_depth=1), store=store)
    programs = [random_program(case, "wide") for case in order]
    results = []

    def warm(i: int) -> None:
        results.append((i % len(programs), analyzer.analyze(programs[i % len(programs)])))

    with Phase(recorder, seconds) as phase:
        campaign = run_campaign(order, profile="wide", executor="serial")
        phase.cold_done()
        cold = [analyzer.analyze(program) for program in programs]  # fills the store
        samples = _warm_loop(warm, MIN_WARM, len(programs), phase.until)

    failures = [f"seed {v['seed']} {v['oracle']}: {v['details']}"
                for v in campaign.verdicts if not v["ok"]]
    for index, result in results:
        if result.to_dict() != cold[index].to_dict():
            failures.append(f"seed {order[index]}: warm result differs from cold")
    tightness = _geomean(_sandwich_ratio(p, r) for p, r in zip(programs, cold))
    return _result(phase, samples, len(campaign.verdicts) + len(samples), failures, tightness)


def _sandwich_ratio(program, result: IOBoundResult) -> float:
    """Simulated loads over the lower bound, as the fuzz ``sandwich`` oracle checks it."""
    import warnings

    from repro.fuzz.generator import resolve_profile
    from repro.fuzz.oracles import _sandwich_capacity
    from repro.ir.cdag import CDAG
    from repro.pebble import TilingFallbackWarning, lexicographic_schedule, simulate_schedule

    instance = resolve_profile("wide").instance_dicts()[0]
    cdag = CDAG.expand(program, instance)
    capacity = _sandwich_capacity(cdag)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TilingFallbackWarning)
        schedule = list(lexicographic_schedule(cdag, warn=False))
    upper = min(simulate_schedule(cdag, schedule, capacity, policy=p).loads for p in ("lru", "opt"))
    return max(upper, 1) / max(result.evaluate({**instance, "S": capacity}), 1.0)


# -- serve-mixed: this process is the client ----------------------------------------


class Connection:
    """One JSON-lines connection to ``repro serve``."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.stream = self.sock.makefile("rwb")
        hello = self.read()
        if hello.get("event") != "hello":
            raise ConnectionError(f"expected a hello event, got {hello}")

    def send(self, request: dict) -> None:
        self.stream.write((json.dumps(request) + "\n").encode())
        self.stream.flush()

    def read(self) -> dict:
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, request: dict) -> tuple[list[dict], dict]:
        """Send one request; return its result events and its terminal event."""
        self.send(request)
        results = []
        while True:
            event = self.read()
            if event["event"] == "result":
                results.append(event)
            else:
                return results, event

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def serve_mixed(seed: int, seconds: float, recorder: "spans.Recorder | None", work: Path) -> dict:
    names = _permuted(kernel_names(), seed)
    cold_names = [name for name in names if name in SERVE_COLD]
    warm_names = [name for name in names if name not in STENCILS]
    golden = Golden()
    failures: list[str] = []
    attempted = 0

    derivations = {"prefill": 0, "cold": 0, "warm": 0}

    def check(results: list[dict], terminal: dict, expected: list[str]) -> None:
        nonlocal attempted
        attempted += 1
        if terminal["event"] != "done":
            failures.append(f"request failed: {terminal}")
            return
        got = {event["kernel"]: event["result"] for event in results}
        for name in expected:
            if name not in got:
                failures.append(f"{name}: missing result")
            elif (m := golden.mismatch(name, IOBoundResult.from_dict(got[name]))):
                failures.append(m)

    # The traced server records its own spans: here ``recorder`` only says
    # whether this run is traced.
    traced = recorder is not None
    proc, port, _ready, _speed = start_server(server_command(work / "store", traced, work),
                                              dict(os.environ))
    try:
        prefill = Connection(port)
        results, terminal = prefill.request({"id": "prefill", "kernels": warm_names})
        check(results, terminal, warm_names)
        derivations["prefill"] = terminal.get("derivations", 0)
        prefill.close()
        if traced:  # the traced server zeroes its spans and counters now
            (work / "window").write_text("start")
            while not (work / "window.ack").exists():
                time.sleep(0.01)

        cold_conn, warm_conn = Connection(port), Connection(port)
        cold_state: dict = {}

        def read_cold() -> None:
            cold_state["events"] = [], None
            events = []
            while True:
                event = cold_conn.read()
                if event["event"] == "result":
                    events.append(event)
                    continue
                cold_state["done_at"] = time.perf_counter()
                cold_state["events"] = events, event
                return

        begin = time.perf_counter()
        cold_conn.send({"id": "cold", "kernels": cold_names})
        reader = threading.Thread(target=read_cold)
        reader.start()
        samples, waits, warm_checks = [], [], []
        i = 0
        # Closed loop: the next warm request goes out after the previous
        # `done`.  Untraced runs keep going while the cold request runs;
        # traced runs send exactly MIN_WARM so every count repeats.
        while i < MIN_WARM or (not traced and reader.is_alive()):
            name = warm_names[i % len(warm_names)]
            sent = time.perf_counter()
            results, terminal = warm_conn.request({"id": i, "kernels": [name]})
            samples.append((sent, time.perf_counter()))
            rtt = (samples[-1][1] - sent) * 1000.0
            if terminal["event"] == "done":
                waits.append(rtt - terminal["elapsed_ms"])
                derivations["warm"] += terminal["derivations"]
            warm_checks.append((results, terminal, name))
            i += 1
        reader.join()
        cold_conn.close()
        warm_conn.close()
    finally:
        peak = stop_server(proc)

    check(*cold_state["events"], cold_names)
    derivations["cold"] = cold_state["events"][1].get("derivations", 0)
    seen = set()
    for results, terminal, name in warm_checks:
        if name in seen:  # the golden check is symbolic: once per kernel
            attempted += 1
            if terminal["event"] != "done" or len(results) != 1:
                failures.append(f"{name}: warm request failed: {terminal}")
            continue
        seen.add(name)
        check(results, terminal, [name])
    done_at = cold_state["done_at"]
    out = {
        "cold": (begin, done_at),
        "warm": samples,
        "warm_behind_cold": sum(1 for sent, _ in samples if sent < done_at),
        "warm_wait_ms": waits,
        "attempted": attempted,
        "failures": failures,
        "tightness_geomean": _geomean(
            _paper_ratio(event["kernel"], IOBoundResult.from_dict(event["result"]))
            for event in cold_state["events"][0]),
        "peak_rss_mb": peak,
        "counts": {"derivations": derivations},
    }
    if traced:
        out["server"] = json.loads((work / "server.json").read_text())
    return out


WORKLOADS = {
    "derive-cold": derive_cold,
    "report-cold": report_cold,
    "serve-mixed": serve_mixed,
    "fuzz-wide": fuzz_wide,
}
