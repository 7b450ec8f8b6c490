"""JSON-lines analysis service: the long-lived front-end over the scheduler.

``python -m repro serve`` turns the analyzer into a service: it reads one
JSON **request** per line (stdin by default, or each TCP connection with
``--port``) and streams back one JSON **event** per line as the event-driven
scheduler (:mod:`repro.analysis.scheduler`) lands each kernel's bound — the
first result of a 30-kernel request arrives while the other 29 are still
deriving, and a warm request (result already in the
:class:`~repro.analysis.store.BoundStore`) turns around in well under a
millisecond of analysis work.

Request (one JSON object per line)::

    {"id": 7, "kernels": ["gemm", "atax"], "config": {"max_depth": 1}}

* ``id`` — opaque; echoed verbatim on every event of the request (``null``
  when omitted), so clients can multiplex.
* ``kernels`` — registered PolyBench kernel names (see
  ``python -m repro kernels --json``); omitted or ``null`` means the whole
  suite.
* ``config`` — optional :class:`~repro.analysis.AnalysisConfig` field
  overrides (``instance``, ``gamma``, ``max_depth``,
  ``max_subcdags_per_statement``, ``strategies``), applied on top of each
  kernel's registered defaults (the CLI ``suite`` flags).  How requests run
  is server-side state fixed at startup: the executor and its worker count
  (``--executor``/``--jobs``) and the bound store
  (``--cache-dir``/``--no-cache``).  Any other field is an ``error``.

A ``{"stats": true}`` request (optionally with an ``id``) is answered with
one ``stats`` event instead of results: service uptime, the number of
analysis requests currently in flight across **all** connections, totals
served, the executor (``{"name": ..., "jobs": ...}``), and a cheap store
snapshot (entry/byte counts from ``stat()`` plus this process's session
hit/miss/write counters — the store is never parsed entry-by-entry while
requests are running).

Events (streamed, in completion order)::

    {"id": 7, "event": "result", "kernel": "gemm", "elapsed_ms": 0.4,
     "result": { ... IOBoundResult.to_dict() ... }}
    {"id": 7, "event": "done", "results": 2, "derivations": 0,
     "elapsed_ms": 0.9}

The ``result`` payload is byte-compatible with the entries of the
``suite --json`` document (:mod:`repro.analysis.serialization`): collecting
the ``result`` events of a request and wrapping them with
``results_to_document`` reproduces that interchange format exactly, and
``IOBoundResult.from_dict`` reloads each one.  A malformed line, unknown
kernel or invalid config yields one terminal ``error`` event instead::

    {"id": null, "event": "error", "error": "..."}

Concurrency model
-----------------
The TCP front-end (:class:`ServiceServer`) serves **one thread per
connection**: a warm request on one connection turns around while a cold
30-kernel request is still deriving on another.  Requests *within* one
stream are still served sequentially (JSON-lines has no framing for
interleaved responses on a single byte stream) — clients that want
concurrent requests open concurrent connections.  All connections share ONE
:class:`AnalysisService`: one bound store and one executor, resolved when
the service starts (a pool executor starts its workers on the first task),
so every concurrent request's derivation tasks are multiplexed into the
same scheduler ready-queue machinery and worker pool rather than each
request spawning its own workers.

``python -m repro serve`` runs that executor as one **process worker** by
default (``--executor process --jobs 1``), forked before the server starts
its first handler thread.  A cold derivation then runs in the worker, and the
server process keeps only planning, store reads and writes, combining and
encoding: a warm request on another connection does not wait for a cold
derivation's Python to release the GIL.  If the worker dies, the requests
it was serving get one ``error`` event each, and the next request forks a
replacement.  The profiler's, the constraint intern table's and every memo
and program cache's lock start fresh in that child
(:func:`repro.perf.renew_lock_at_fork`), so a handler thread that held one
at the fork cannot leave it held there.  A warm request's reply is cheap
too: a stored result keeps its encoding
(:meth:`~repro.core.bounds.IOBoundResult.to_dict` is memoised and seeded at
decode), and sockets set ``TCP_NODELAY`` so a request's ``done`` line is
not held back by Nagle's algorithm waiting for the client's delayed ACK.  The library's :class:`AnalysisService` keeps the
serial default of every other entry point.

Because any number of requests can be deriving at once, per-request
accounting must never read the process-global
:func:`~repro.analysis.derivation_count` (two overlapping requests would
each report the combined total): every request carries its own
:class:`~repro.analysis.StreamCounters` through
:func:`~repro.polybench.analyze_suite_stream`, and its ``done`` event
reports exactly that stream's derivations.

Shutdown: :meth:`ServiceServer.server_close` (the ``with`` exit) stops
accepting connections and **drains** — handler threads are non-daemonic and
joined, so every in-flight request streams its remaining events before the
socket closes.  :meth:`AnalysisService.close` then releases the shared pool
exactly once, however many threads race it.  The server holds no
per-request state beyond the shared bound store, so restarting it is always
safe.
"""

from __future__ import annotations

import concurrent.futures
import json
import socketserver
import threading
import time
from typing import IO, Any, Iterable, Iterator

from .analysis import (
    AnalysisConfig,
    BoundStore,
    Executor,
    StreamCounters,
    lease_executor,
)
from .polybench import analyze_suite_stream, kernel_names

#: Version tag of the request/event protocol (bumped on breaking changes;
#: echoed by the ``hello`` event so clients can refuse a mismatch).  The
#: ``stats`` request/event pair is a backward-compatible addition: clients
#: that never send ``{"stats": true}`` never see the new event.  Version 2
#: refuses ``executor``, ``n_jobs`` and ``cache_dir`` in a request's
#: ``config``: the server fixes all three at startup.
PROTOCOL_VERSION = 2


class ServiceError(ValueError):
    """A malformed or unsatisfiable request (reported, never fatal)."""


class AnalysisService:
    """The transport-agnostic request handler behind ``repro serve``.

    One instance serves any number of requests — and, in socket mode, any
    number of **concurrent** connections: it owns the service-level shared
    state (the bound store, the executor every request runs on, and the
    in-flight/uptime bookkeeping behind the ``stats`` event), all guarded
    for concurrent handler threads.
    """

    def __init__(
        self,
        store: BoundStore | None = None,
        executor: "Executor | str | None" = None,
        n_jobs: int = 1,
    ):
        self.store = store
        # The one executor behind every request, leased here so a bad
        # worker count fails at startup.  A pool executor creates its pool
        # on first use; a live instance passed in stays the caller's to close.
        self.executor, self._release_executor = lease_executor(executor, n_jobs)
        # Request bookkeeping is touched from every connection's handler
        # thread.
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._in_flight = 0
        self._requests_served = 0

    def close(self) -> None:
        """Release the executor's pool if this service resolved it.

        Idempotent and thread-safe: executor ``close`` swaps the pool out
        under its own lock, so racing callers shut it down exactly once —
        the shutdown path calls this after the TCP server has drained its
        handler threads.
        """
        self._release_executor()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- service bookkeeping ----------------------------------------------------

    def _request_started(self) -> None:
        with self._lock:
            self._in_flight += 1
            self._requests_served += 1

    def _request_finished(self) -> None:
        with self._lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Analysis requests currently being served, across all connections."""
        with self._lock:
            return self._in_flight

    def stats_event(self, request_id: Any = None) -> dict[str, Any]:
        """The ``stats`` event payload: uptime, in-flight work, store snapshot."""
        with self._lock:
            in_flight = self._in_flight
            served = self._requests_served
        store_stats = None
        if self.store is not None:
            # quick=True: counts and bytes from stat() only — a monitoring
            # probe must not parse the whole store while requests run.
            snapshot = self.store.stats(quick=True)
            store_stats = {
                "root": snapshot.root,
                "entries": snapshot.entries,
                "total_bytes": snapshot.total_bytes,
                "hits": snapshot.hits,
                "misses": snapshot.misses,
                "writes": snapshot.writes,
            }
        return {
            "id": request_id,
            "event": "stats",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "in_flight": in_flight,
            "requests_served": served,
            "kernels": len(kernel_names()),
            "executor": {"name": self.executor.name, "jobs": self.executor.n_jobs},
            "store": store_stats,
        }

    # -- request handling -----------------------------------------------------

    def handle_request(self, line: str) -> Iterator[dict[str, Any]]:
        """Serve one request line, yielding protocol events as they happen."""
        started = time.perf_counter()
        request_id: Any = None

        def elapsed_ms() -> float:
            return round((time.perf_counter() - started) * 1000, 3)

        try:
            request = self._parse(line)
            request_id = request.get("id")
            if "stats" in request:
                yield self._validated_stats_event(request, request_id)
                return
            names, overrides = self._validate(request)
        except ServiceError as error:
            yield {"id": request_id, "event": "error", "error": str(error)}
            return

        # Per-request accounting: the process-global derivation_count()
        # aggregates over every concurrently-running request, so `done` must
        # report from a counter scoped to this request's stream alone.
        counters = StreamCounters()
        count = 0
        self._request_started()
        try:
            try:
                for analysis in analyze_suite_stream(
                    names,
                    store=self.store,
                    executor=self.executor,
                    counters=counters,
                    **overrides,
                ):
                    count += 1
                    yield {
                        "id": request_id,
                        "event": "result",
                        "kernel": analysis.spec.name,
                        "elapsed_ms": elapsed_ms(),
                        "result": analysis.result.to_dict(),
                    }
            except (ValueError, KeyError, TypeError) as error:
                # The request and its config were checked above, so an
                # error here comes from the derivation itself: report it and
                # move on to the next request rather than killing the server.
                message = error.args[0] if error.args else str(error)
                yield {"id": request_id, "event": "error", "error": str(message)}
                return
            except concurrent.futures.BrokenExecutor as error:
                # A worker died under this request; the executor replaces
                # its pool on the next submit, so later requests still run.
                yield {"id": request_id, "event": "error",
                       "error": f"a worker process died: {error}"}
                return
            yield {
                "id": request_id,
                "event": "done",
                "results": count,
                "derivations": counters.derivations,
                "elapsed_ms": elapsed_ms(),
            }
        finally:
            # Runs on normal completion AND on a consumer hanging up
            # mid-stream (generator close): in-flight never drifts.
            self._request_finished()

    def serve_lines(self, lines: Iterable[str]) -> Iterator[dict[str, Any]]:
        """Serve a whole stream of request lines (blank lines are ignored)."""
        yield {
            "event": "hello",
            "protocol": PROTOCOL_VERSION,
            "kernels": len(kernel_names()),
        }
        for line in lines:
            if not line.strip():
                continue
            yield from self.handle_request(line)

    def serve_stream(self, in_stream: IO[str], out_stream: IO[str]) -> None:
        """Pump ``in_stream`` requests into ``out_stream`` events until EOF.

        Every event is written as one line and flushed immediately — the
        streaming contract: a client piping requests in sees each result
        the moment its derivation lands, not when the batch ends.  A client
        that hangs up mid-stream (closed pipe, reset connection) ends the
        stream cleanly — same contract as the TCP handler, no traceback.
        """
        events = self.serve_lines(in_stream)
        try:
            for event in events:
                out_stream.write(json.dumps(event) + "\n")
                out_stream.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client hung up mid-stream: end cleanly, no traceback
        finally:
            # Explicitly unwind the generator chain so an abandoned
            # request's bookkeeping (in-flight count, executor ownership)
            # resolves now, not at garbage collection.
            events.close()

    # -- request parsing ------------------------------------------------------

    def _parse(self, line: str) -> dict[str, Any]:
        try:
            request = json.loads(line)
        except ValueError as error:
            raise ServiceError(f"request is not valid JSON: {error}") from None
        if not isinstance(request, dict):
            raise ServiceError(
                f"request must be a JSON object, got {type(request).__name__}"
            )
        return request

    def _validated_stats_event(
        self, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        """Validate a ``{"stats": true}`` request and build its reply."""
        unknown_keys = set(request) - {"id", "stats"}
        if unknown_keys:
            raise ServiceError(
                f'a stats request takes only "id": remove {sorted(unknown_keys)}'
            )
        if request["stats"] is not True:
            raise ServiceError('"stats" must be the JSON value true')
        return self.stats_event(request_id)

    def _validate(self, request: dict[str, Any]) -> tuple[list[str] | None, dict]:
        unknown_keys = set(request) - {"id", "kernels", "config"}
        if unknown_keys:
            raise ServiceError(f"unknown request keys: {sorted(unknown_keys)}")

        names = request.get("kernels")
        if names is not None:
            if not isinstance(names, list) or not all(
                isinstance(name, str) for name in names
            ):
                raise ServiceError('"kernels" must be a list of kernel names')
            unknown = sorted(set(names) - set(kernel_names()))
            if unknown:
                raise ServiceError(
                    f"unknown kernels: {unknown} (see `python -m repro kernels --json`)"
                )

        overrides = request.get("config") or {}
        if not isinstance(overrides, dict):
            raise ServiceError('"config" must be a JSON object of AnalysisConfig fields')
        try:
            # The config decoder rejects unknown fields (executor, n_jobs
            # and cache_dir among them) and checks every value, so a bad
            # request fails before any scheduling.
            config = AnalysisConfig.from_dict(overrides)
        except (TypeError, ValueError) as error:
            raise ServiceError(f"invalid config: {error}") from None
        return names, {name: getattr(config, name) for name in overrides}


class _TCPHandler(socketserver.StreamRequestHandler):
    # TCP_NODELAY: every event is one small write, and a request's second
    # one (``done`` after ``result``) must not wait for the client's delayed
    # ACK (Nagle, RFC 896, against delayed ACKs, RFC 1122: up to 40 ms).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        reader = (raw.decode("utf-8", errors="replace") for raw in self.rfile)
        events = service.serve_lines(reader)
        try:
            for event in events:
                self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-stream; nothing to clean up
        finally:
            # Unwind the abandoned request's bookkeeping (in-flight count)
            # immediately, not whenever the GC finalizes the generator.
            events.close()


class ServiceServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """Thread-per-connection TCP front-end around an :class:`AnalysisService`.

    Concurrent on purpose: a warm request turns around in sub-millisecond
    analysis time on one connection while a cold full-suite request is
    still streaming on another.  Requests *within* a connection stay
    sequential (JSON-lines has no response framing), and every connection's
    derivation tasks share the one service-owned executor pool — the
    parallelism budget is the pool, not the connection count.

    Shutdown semantics: handler threads are **non-daemonic** and
    ``server_close`` (the ``with`` exit) blocks until they finish, so
    stopping the server drains every in-flight request — each connected
    client receives its remaining ``result``/``done`` events — before the
    listening socket is torn down.  Close the shared
    :class:`AnalysisService` *after* the server, exactly as
    ``python -m repro serve`` does.  ``allow_reuse_address`` keeps quick
    restarts from tripping over ``TIME_WAIT``.
    """

    allow_reuse_address = True
    # Explicit (these are the ThreadingMixIn defaults, but they ARE the
    # drain-on-shutdown contract documented above): handler threads outlive
    # nothing — server_close() joins them all.
    daemon_threads = False
    block_on_close = True

    def __init__(self, address: tuple[str, int], service: AnalysisService):
        super().__init__(address, _TCPHandler)
        self.service = service
