"""Command-line interface: ``python -m repro`` (or the ``repro`` entry point).

Subcommands
-----------
``analyze <kernel>``
    Derive the I/O lower bound for one PolyBench kernel and print (or dump as
    JSON) the resulting formulae.  It runs the same suite driver as
    ``suite``, for one kernel, so both commands give the same result.

``suite [--kernels ...] [--executor thread --jobs N] --json out.json``
    Run the derivation over the PolyBench suite through the event-driven
    streaming scheduler (:func:`repro.polybench.analyze_suite_stream`) and
    persist every result as a reloadable JSON document.  All kernels'
    derivation tasks flow through one shared executor (``--jobs 8``
    schedules the whole suite's tasks in a single work queue), and each
    kernel's table row prints **the moment its derivation completes** —
    early bounds appear while later kernels are still running.  The JSON
    document is written in request order and is byte-identical across
    executors and schedulers.

``report [kernels...] [--cache-words S] [--json]``
    The tightness sandwich (Sec. 8.2 / Table 2): derive each kernel's
    parametric lower bound, run the tiling search of :mod:`repro.upper` on a
    small instance to obtain the best *simulated* upper bound (a legal
    red-white pebble game), and print both with the winning tile shape and
    the tightness ratio ``Q_up / Q_low``.  Both sides memoise through the
    shared store, so a warm rerun performs 0 derivations and 0 simulations.

``serve [--port N]``
    Long-lived JSON-lines analysis service (see :mod:`repro.service`):
    requests in, streamed results out, over stdin/stdout or TCP.  The TCP
    server is concurrent (one thread per connection, all connections
    sharing one store and one executor pool, by default one worker process
    so that cold derivations run off the server's GIL); Ctrl-C stops
    accepting and drains in-flight requests before exiting.  A
    ``{"stats": true}`` request reports uptime, in-flight requests, the
    executor and store statistics.

``profile [--kernels ...] [--json] [--output FILE]``
    Cold in-process derivation of the suite with wall-time attributed to the
    set-algebra subsystems (:mod:`repro.perf`): prints the share of linear
    algebra, Fourier-Motzkin, counting, closure and pebble simulation, plus
    memo-cache hit rates.  Runs serially in-process (workers would keep
    their own counters) and starts from cleared caches, so the numbers are
    reproducible cold-path attributions.

``kernels [--json]``
    List the registered PolyBench kernels (``--json`` emits the
    machine-readable registry document service clients discover workloads
    from).

``fuzz [--seeds N] [--profile small|wide|deep] [--oracle NAME ...]``
    Differential fuzzing (see :mod:`repro.fuzz`): generate seeded random
    affine programs and check each against the soundness oracles
    (executors, backends, store, sandwich, counting).  Failures are shrunk
    to minimal reproductions and, with ``--corpus DIR``, written as
    replayable JSON entries; ``--replay FILE`` re-runs one entry and exits
    non-zero while the divergence still reproduces.

``cache {stats,gc,clear,export,import}``
    Maintain the shared persistent bound store (``$REPRO_STORE`` or
    ``~/.cache/repro``): show layout/usage statistics, evict
    least-recently-used entries down to a size budget, drop everything, or
    replicate the store across machines via ``export``/``import`` tarballs
    (import negotiates schema versions and never overwrites newer entries).

All derivation knobs map onto :class:`repro.analysis.AnalysisConfig` fields:
``analyze`` and ``suite`` start from each kernel's registered wavefront
depth and apply the options given on the command line over it.
``analyze`` and ``suite`` memoise through the shared bound store by default,
so a warm second run performs zero derivations; ``--no-cache`` opts out and
``--cache-dir`` redirects to a private store root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tarfile
from typing import Sequence

import sympy

from .analysis import AnalysisConfig, BoundStore, StreamCounters, save_results
from .analysis.executor import EXECUTOR_NAMES
from .polybench import all_kernels, analyze_suite, analyze_suite_stream, get_kernel, kernel_names
from .upper import tightness_report


def _parse_instance(pairs: Sequence[str]) -> dict[str, int] | None:
    """Parse repeated ``NAME=VALUE`` arguments into an instance mapping.

    Each value follows the :func:`positive_int` rule.
    """
    if not pairs:
        return None
    instance = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise argparse.ArgumentTypeError(
                f"instance entries must look like NAME=VALUE, got {pair!r}"
            )
        try:
            instance[name] = positive_int(value)
        except ValueError:
            message = f"must be an integer, got {value!r}"
            raise argparse.ArgumentTypeError(f"instance value of {name} {message}") from None
        except argparse.ArgumentTypeError as error:
            raise argparse.ArgumentTypeError(f"instance value of {name} {error}") from None
    return instance


def positive_int(text: str) -> int:
    """An argparse type for counts and sizes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("analysis configuration")
    group.add_argument(
        "--max-depth", type=int, default=None,
        help="wavefront parametrisation depth (default: the kernel's registered depth)",
    )
    group.add_argument("--gamma", type=float, default=None,
                       help="path domain-coverage threshold in [0, 1]")
    group.add_argument(
        "--strategies", nargs="+", default=None, metavar="NAME",
        help="strategies to run, in order (default: kpartition wavefront)",
    )
    group.add_argument(
        "--instance", nargs="*", default=(), metavar="NAME=VALUE",
        help="heuristic ranking instance overrides (e.g. Ni=1000 S=512)",
    )


def _add_run_arguments(
    parser: argparse.ArgumentParser,
    executor_help: str = "task executor: serial (default), thread (one shared "
                         "thread pool), or process (worker processes); unset "
                         "picks process when --jobs > 1",
) -> None:
    """How a command runs: its executor, worker count and bound store."""
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None, help=executor_help,
    )
    group.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="parallel workers for the task executor (threads or processes, "
             "depending on --executor)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="bound store root (default: $REPRO_STORE or ~/.cache/repro)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent bound store for this run",
    )


def _kernels_or_exit(requested: Sequence[str] | None) -> list[str]:
    """The requested kernels (default: the whole suite); an unknown name exits."""
    names = list(requested) if requested else kernel_names()
    unknown = sorted(set(names) - set(kernel_names()))
    if unknown:
        raise SystemExit(f"unknown kernels: {unknown}; see `python -m repro kernels`")
    return names


def _store_for(args: argparse.Namespace) -> BoundStore | None:
    """The bound store a CLI run memoises through (None with ``--no-cache``)."""
    if args.no_cache:
        return None
    return BoundStore(args.cache_dir)  # None root -> $REPRO_STORE / ~/.cache/repro


def _config_overrides(args: argparse.Namespace) -> dict:
    """The :class:`~repro.analysis.AnalysisConfig` fields set on the command line.

    The suite drivers apply them over each kernel's registered depth.  They
    are checked here, by building a config from them, so that a bad value
    fails before a command prints anything.
    """
    overrides: dict = {"instance": _parse_instance(args.instance)}
    if args.max_depth is not None:
        overrides["max_depth"] = args.max_depth
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.strategies is not None:
        overrides["strategies"] = tuple(args.strategies)
    AnalysisConfig(**overrides)
    return overrides


def _cmd_analyze(args: argparse.Namespace) -> int:
    [analysis] = analyze_suite(
        _kernels_or_exit([args.kernel]),
        store=_store_for(args),
        executor=args.executor,
        n_jobs=args.jobs,
        **_config_overrides(args),
    )
    result = analysis.result

    if args.json is not None:
        payload = json.dumps(result.to_dict(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as stream:
                stream.write(payload)
            print(f"wrote {args.json}")
        return 0

    print(f"kernel           : {result.program_name}")
    print(f"parameters       : {', '.join(result.parameters)}")
    print(f"input size       : {result.input_size}")
    print(f"total flops      : {result.total_flops}")
    print(f"Q_low (complete) : {result.expression}")
    print(f"Q_low (leading)  : {result.asymptotic}")
    print(f"OI upper bound   : {result.oi_upper_bound()}")
    if args.verbose:
        print("derivation log:")
        for line in result.log:
            print(f"  * {line[:160]}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    names = _kernels_or_exit(args.kernels)
    overrides = _config_overrides(args)
    store = _store_for(args)
    # This run's own work, not a delta of the process-wide counters.
    counters = StreamCounters()

    # Rows stream in completion order: the scheduler fires each kernel's
    # combine as its last task lands, so early bounds print while later
    # kernels are still deriving.
    print(f"{'kernel':<16} {'Q_low (asymptotic)':<40} {'OI_up'}")
    print("-" * 72)
    analyses = {}
    for analysis in analyze_suite_stream(
        names,
        n_jobs=args.jobs,
        executor=args.executor,
        store=store,
        counters=counters,
        **overrides,
    ):
        analyses[analysis.spec.name] = analysis
        result = analysis.result
        print(
            f"{result.program_name:<16} {sympy.sstr(result.asymptotic):<40} "
            f"{sympy.sstr(result.oi_upper_bound())}",
            flush=True,
        )

    derived = counters.derivations
    if store is not None:
        # Session counters only — stats() would scan the whole store on disk.
        print(f"derivations: {derived} (store hits: {store.hits}, root: {store.root})")
    else:
        print(f"derivations: {derived} (store disabled)")

    if args.json is not None:
        # The document is collected in *request* order (duplicates included,
        # matching the pre-streaming CLI shape), independent of the
        # completion order above — byte-identical across executors.
        results = [analyses[name].result for name in names]
        save_results(results, args.json)
        print(f"wrote {len(results)} results to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from . import perf
    from .sets import memo as sets_memo
    from .sets.backend import get_backend
    from .sets.counting import count_backend

    names = _kernels_or_exit(args.kernels)

    # A cold, serial, in-process run: no persistent store, no worker
    # processes (process-pool workers keep their own counters, which would
    # leave the attribution table empty — see repro.perf).
    perf.reset()
    sets_memo.clear_all()
    start = time.perf_counter()
    analyze_suite(names, store=None, executor="serial")
    wall = time.perf_counter() - start
    snapshot = perf.snapshot()
    backend = get_backend().name
    counting = count_backend()

    if args.json:
        payload = {
            "kernels": list(names),
            "wall_s": wall,
            "backend": backend,
            "count_backend": counting,
            **snapshot.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0

    header = (
        f"cold derivation of {len(names)} kernel(s) in {wall:.2f}s "
        f"(set backend: {backend}, count backend: {counting})"
    )
    table = snapshot.format_table(wall)
    print(header)
    print()
    print(table)
    if args.output is not None:
        with open(args.output, "w") as stream:
            stream.write(header + "\n\n" + table + "\n")
        print(f"\nwrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    names = _kernels_or_exit(args.kernels)
    instance = _parse_instance(args.instance) or {}
    unknown = sorted(set(instance) - {p for n in names for p in get_kernel(n).program.params})
    if unknown:
        raise ValueError(f"no selected kernel has the parameter(s) {unknown}")

    store = _store_for(args)
    report = tightness_report(
        names,
        cache_words=args.cache_words,
        instance=instance,
        store=store,
        executor=args.executor,
        n_jobs=args.jobs,
        max_candidates=args.max_candidates,
        target=args.instance_target,
    )

    if args.json:
        # Pure JSON on stdout: the document embeds the work counters
        # (derivations/simulations), so CI warm-rerun checks parse stdout only.
        print(json.dumps(report.to_dict(), indent=2))
        return 0

    print(report.format_table())
    print()
    summary = (
        f"cache words: {report.cache_words}; "
        f"derivations: {report.derivations}, simulations: {report.simulations}"
    )
    if store is not None:
        summary += f" (store hits: {store.hits}, root: {store.root})"
    print(summary)
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        # The machine-readable registry: what a `repro serve` client needs to
        # discover workloads (names for requests, parameters to instantiate,
        # paper reference data for display) without scraping text output.
        entries = [
            {
                "name": spec.name,
                "category": spec.category,
                "max_depth": spec.max_depth,
                "parameters": list(spec.program.params),
                "large_instance": dict(spec.large_instance),
                "paper_oi_upper": spec.paper_oi_upper,
                "paper_oi_manual": spec.paper_oi_manual,
                "paper_input_size": spec.paper_input_size,
                "paper_ops": spec.paper_ops,
                "notes": spec.notes,
            }
            for spec in all_kernels()
        ]
        print(json.dumps({"schema": 1, "kernels": entries}, indent=2))
        return 0
    for spec in all_kernels():
        print(f"{spec.name:<16} {spec.category:<14} max_depth={spec.max_depth}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.bounds import expr_from_text
    from .service import AnalysisService, ServiceServer

    with AnalysisService(
        store=_store_for(args), executor=args.executor or "process", n_jobs=args.jobs
    ) as service:
        # Fork the workers now, before any handler thread exists: no thread
        # can then hold a lock (the store's, a pool's) at the moment of the
        # fork, and after a first decode, whose sympy import no warm request
        # then pays.  SIGTERM drains like Ctrl-C, so workers are not orphaned.
        expr_from_text("Add(Symbol('N', integer=True), Integer(1))")
        service.executor.start()
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        if args.port is None:
            try:
                service.serve_stream(sys.stdin, sys.stdout)
            except KeyboardInterrupt:
                pass
            return 0
        with ServiceServer((args.host, args.port), service) as server:
            host, port = server.server_address[:2]
            print(
                f"serving on {host}:{port} "
                "(JSON-lines, thread per connection; Ctrl-C to stop)",
                file=sys.stderr,
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                # The `with` exits below: server_close() joins the
                # non-daemonic handler threads, so every in-flight request
                # finishes streaming before the pool is released.
                print("draining in-flight requests ...", file=sys.stderr)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import load_corpus_entry, replay_entry, run_campaign

    if getattr(args, "perf", False):
        from . import perf

        perf.reset()

    if args.replay is not None:
        entry = load_corpus_entry(args.replay)
        outcome = replay_entry(entry)
        if args.json:
            print(json.dumps({"replay": str(args.replay), **outcome.to_dict()}, indent=2))
        else:
            if not outcome.fingerprint_matches:
                print(
                    f"warning: regenerated program fingerprint {outcome.fingerprint} "
                    f"differs from the recorded {outcome.expected_fingerprint} "
                    "(generator drift: the entry may check a different program)",
                    file=sys.stderr,
                )
            state = "still reproduces" if outcome.reproduced else "no longer reproduces"
            print(f"{entry['oracle']} divergence of seed {entry['seed']} {state}")
            if outcome.reproduced:
                print(outcome.verdict.details)
        return 1 if outcome.reproduced else 0

    result = run_campaign(
        range(args.seed_start, args.seed_start + args.seeds),
        profile=args.profile,
        oracles=args.oracle or None,
        executor=args.executor,
        n_jobs=args.jobs,
        time_budget=args.time_budget,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        log=None if args.json else print,
    )
    if args.json:
        payload = result.to_dict()
        if getattr(args, "perf", False):
            from . import perf

            payload["perf"] = perf.snapshot().to_dict()
        print(json.dumps(payload, indent=2))
    else:
        cases, failures = len(result.completed), len(result.failures)
        tail = " (stopped early: time budget)" if result.stopped_early else ""
        print(
            f"{cases}/{len(result.seeds)} cases [{result.profile.name}], "
            f"{result.checks} checks across {len(result.oracles)} oracles, "
            f"{failures} failures in {result.elapsed:.1f}s{tail}"
        )
        for failure in result.failures:
            where = f" -> {failure.corpus_path}" if failure.corpus_path else ""
            print(
                f"  FAIL seed {failure.seed} {failure.oracle}: "
                f"{failure.verdict.details}{where}"
            )
    if getattr(args, "perf", False) and not args.json:
        from . import perf

        # Process-pool workers keep their own counters; the table reflects
        # in-process work (serial or thread campaigns attribute everything).
        print("\nper-subsystem attribution (this process):")
        print(perf.snapshot().format_table())
    return 0 if result.ok else 1


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    stats = BoundStore(args.root).stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2))
        return 0
    print(f"root        : {stats.root}")
    print(f"entries     : {stats.entries} (in {stats.shards} shards)")
    print(f"total bytes : {stats.total_bytes}")
    budget = "unbounded" if stats.size_budget is None else str(stats.size_budget)
    print(f"size budget : {budget}")
    for schema, count in sorted(stats.schema_versions.items()):
        label = "unreadable" if schema < 0 else f"schema {schema}"
        print(f"  {label:<11}: {count} entries")
    for kind, count in sorted(stats.kinds.items()):
        print(f"  kind {kind:<6}: {count} entries")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = BoundStore(args.root, size_budget=args.budget)
    if store.size_budget is None:
        raise SystemExit(
            "cache gc needs a size budget: pass --budget (e.g. --budget 64M) "
            "or set $REPRO_STORE_BUDGET"
        )
    evicted = store.gc()
    stats = store.stats()
    print(
        f"evicted {evicted} entries; {stats.entries} remain "
        f"({stats.total_bytes} bytes <= budget {store.size_budget})"
    )
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = BoundStore(args.root)
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_cache_export(args: argparse.Namespace) -> int:
    store = BoundStore(args.root)
    count = store.export_archive(args.archive)
    print(f"packed {count} entries from {store.root} into {args.archive}")
    return 0


def _cmd_cache_import(args: argparse.Namespace) -> int:
    store = BoundStore(args.root)
    try:
        imported, skipped = store.import_archive(args.archive)
    except (OSError, tarfile.ReadError) as error:
        raise SystemExit(f"cannot read archive {args.archive!r}: {error}")
    print(
        f"imported {imported} entries into {store.root} "
        f"({skipped} skipped: existing same-or-newer, or not store entries)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IOLB reproduction: derive parametric I/O lower bounds.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="analyze one PolyBench kernel")
    analyze.add_argument("kernel", help="kernel name (see `python -m repro kernels`)")
    analyze.add_argument("--json", default=None, metavar="FILE",
                         help="write the result as JSON to FILE ('-' for stdout)")
    analyze.add_argument("--verbose", action="store_true", help="print the derivation log")
    _add_config_arguments(analyze)
    _add_run_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    suite = commands.add_parser("suite", help="analyze many kernels, persist as JSON")
    suite.add_argument("--kernels", nargs="+", default=None, metavar="NAME",
                       help="kernel subset (default: the whole suite)")
    suite.add_argument("--json", default=None, metavar="FILE",
                       help="write all results as one JSON document")
    _add_config_arguments(suite)
    _add_run_arguments(suite)
    suite.set_defaults(handler=_cmd_suite)

    report = commands.add_parser(
        "report",
        help="tightness report: lower bound vs. best simulated upper bound",
    )
    report.add_argument(
        "kernels", nargs="*", metavar="KERNEL",
        help="kernels to report on (default: the whole suite)",
    )
    report.add_argument(
        "--cache-words", type=positive_int, default=64, metavar="S",
        help="fast-memory capacity in words for both sides of the sandwich "
             "(default: 64)",
    )
    report.add_argument(
        "--instance", nargs="*", default=(), metavar="NAME=VALUE",
        help="simulation instance overrides (applied where the parameter exists)",
    )
    report.add_argument(
        "--instance-target", type=positive_int, default=12, metavar="N",
        help="edge length LARGE instances are shrunk to before CDAG "
             "expansion (default: 12)",
    )
    report.add_argument(
        "--max-candidates", type=positive_int, default=64, metavar="N",
        help="tile shapes per kernel in the powers-of-two search wave "
             "(default: 64)",
    )
    report.add_argument("--json", action="store_true",
                        help="emit the report as a JSON document on stdout")
    _add_run_arguments(report)
    report.set_defaults(handler=_cmd_report)

    profile = commands.add_parser(
        "profile",
        help="cold in-process suite run with wall-time attribution by subsystem",
    )
    profile.add_argument(
        "--kernels", nargs="+", default=None, metavar="NAME",
        help="kernel subset (default: the whole suite)",
    )
    profile.add_argument("--json", action="store_true",
                         help="emit timings and memo counters as JSON on stdout")
    profile.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the attribution table to FILE",
    )
    profile.set_defaults(handler=_cmd_profile)

    kernels = commands.add_parser("kernels", help="list registered kernels")
    kernels.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable kernel registry (for service clients)",
    )
    kernels.set_defaults(handler=_cmd_kernels)

    serve = commands.add_parser(
        "serve",
        help="JSON-lines analysis service: requests in, streamed results out",
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="listen on TCP PORT (default: serve stdin/stdout; 0 picks a free port)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address for --port (default: 127.0.0.1)",
    )
    _add_run_arguments(
        serve,
        executor_help="task executor: process (default; --jobs worker processes, "
                      "started with the server, so cold derivations never hold "
                      "its GIL), serial (in the server process), or thread (one "
                      "shared thread pool)",
    )
    serve.set_defaults(handler=_cmd_serve)

    from .fuzz import PROFILES, oracle_names

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing: random affine programs vs soundness oracles",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="number of consecutive seeds to fuzz (default: 25)",
    )
    fuzz.add_argument(
        "--seed-start", type=int, default=0, metavar="K",
        help="first seed of the campaign (default: 0)",
    )
    fuzz.add_argument(
        "--profile", choices=sorted(PROFILES), default="small",
        help="generator size profile (default: small)",
    )
    fuzz.add_argument(
        "--oracle", action="append", choices=oracle_names(), metavar="NAME",
        help=f"oracle to run, repeatable (default: all of {', '.join(oracle_names())})",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="stop scheduling new cases after S seconds (completed cases kept)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write minimized failures as replayable JSON entries under DIR",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run one corpus entry: exit 1 while the divergence reproduces, "
             "0 once fixed",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="record failures without greedy statement/dependence/dimension "
             "deletion",
    )
    fuzz.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="campaign executor (default: serial; process parallelises across "
             "seeds)",
    )
    fuzz.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                      help="parallel workers for the campaign executor")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the campaign (or replay) result as JSON on stdout")
    fuzz.add_argument(
        "--perf", action="store_true",
        help="print (or embed in --json) the per-subsystem wall-time "
             "attribution of the campaign",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    cache = commands.add_parser("cache", help="maintain the persistent bound store")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    def _add_root_argument(subparser: argparse.ArgumentParser) -> None:
        # On each subparser (not the parent) so the natural spelling
        # `repro cache clear --root DIR` parses.
        subparser.add_argument(
            "--root", default=None, metavar="DIR",
            help="store root (default: $REPRO_STORE or ~/.cache/repro)",
        )

    cache_stats = cache_commands.add_parser("stats", help="show store usage statistics")
    _add_root_argument(cache_stats)
    cache_stats.add_argument("--json", action="store_true", help="emit JSON")
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    cache_gc = cache_commands.add_parser(
        "gc", help="evict least-recently-used entries down to a size budget"
    )
    _add_root_argument(cache_gc)
    cache_gc.add_argument(
        "--budget", default=None, metavar="SIZE",
        help="size budget, e.g. 4096, 64M, 1G (default: $REPRO_STORE_BUDGET)",
    )
    cache_gc.set_defaults(handler=_cmd_cache_gc)

    cache_clear = cache_commands.add_parser("clear", help="remove every store entry")
    _add_root_argument(cache_clear)
    cache_clear.set_defaults(handler=_cmd_cache_clear)

    cache_export = cache_commands.add_parser(
        "export", help="pack every store entry into a tarball (replication)"
    )
    cache_export.add_argument("archive", metavar="TAR", help="archive path to write")
    _add_root_argument(cache_export)
    cache_export.set_defaults(handler=_cmd_cache_export)

    cache_import = cache_commands.add_parser(
        "import",
        help="unpack an exported tarball into the store "
             "(never overwrites same-or-newer entries)",
    )
    cache_import.add_argument("archive", metavar="TAR", help="archive path to read")
    _add_root_argument(cache_import)
    cache_import.set_defaults(handler=_cmd_cache_import)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`): die quietly, and
        # point stdout at /dev/null so interpreter shutdown stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 120
    except (ValueError, KeyError, argparse.ArgumentTypeError) as error:
        # Configuration and lookup mistakes (bad gamma, unknown strategy,
        # malformed NAME=VALUE, ...) are user errors, not crashes: print the
        # message, not a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
