"""The JSON-lines service front-end: protocol, streaming, warm turnaround.

``repro serve`` wraps the streaming scheduler in a request/event protocol
whose ``result`` payloads are byte-compatible with the ``suite --json``
interchange document.  These tests drive the transport-agnostic
:class:`~repro.service.AnalysisService` directly, plus one real TCP
round-trip through :class:`~repro.service.ServiceServer`.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import service as service_module
from repro.analysis import AnalysisConfig, Analyzer, BoundStore, ProcessExecutor
from repro.analysis.serialization import results_to_document
from repro.core.bounds import IOBoundResult
from repro.polybench import get_kernel, kernel_names
from repro.service import PROTOCOL_VERSION, AnalysisService, ServiceServer


def request_line(**fields) -> str:
    return json.dumps(fields)


def events_for(service: AnalysisService, *lines: str) -> list[dict]:
    return list(service.serve_lines(lines))


@pytest.fixture
def service(tmp_path) -> AnalysisService:
    return AnalysisService(store=BoundStore(tmp_path / "store"))


class TestProtocol:
    def test_hello_event_opens_every_stream(self, service):
        (hello,) = events_for(service)
        assert hello["event"] == "hello"
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["kernels"] == len(kernel_names())

    def test_request_streams_results_then_done(self, service):
        events = events_for(
            service,
            request_line(id=7, kernels=["gemm", "atax"], config={"max_depth": 0}),
        )
        kinds = [event["event"] for event in events]
        assert kinds == ["hello", "result", "result", "done"]
        for event in events[1:]:
            assert event["id"] == 7
        assert {event["kernel"] for event in events[1:3]} == {"gemm", "atax"}
        done = events[-1]
        assert done["results"] == 2
        assert done["derivations"] == 2
        assert done["elapsed_ms"] >= 0

    def test_result_payload_matches_suite_document_format(self, service):
        events = events_for(
            service, request_line(kernels=["gemm"], config={"max_depth": 0})
        )
        payload = events[1]["result"]
        # The event payload is exactly a suite-document entry: from_dict
        # reloads it, and wrapping it reproduces the interchange document.
        restored = IOBoundResult.from_dict(payload)
        expected = Analyzer(AnalysisConfig(max_depth=0)).analyze(
            get_kernel("gemm").program
        )
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )
        document = results_to_document([restored])
        assert document["results"]["gemm"] == payload

    def test_blank_lines_are_ignored(self, service):
        events = events_for(service, "", "   \n")
        assert [event["event"] for event in events] == ["hello"]

    def test_warm_request_serves_from_store_with_zero_derivations(self, service):
        first = events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))
        again = events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))
        assert first[-1]["derivations"] == 1
        assert again[-1]["derivations"] == 0
        assert json.dumps(again[1]["result"], sort_keys=True) == json.dumps(
            first[1]["result"], sort_keys=True
        )

    def test_sequential_requests_multiplex_by_id(self, service):
        events = events_for(
            service,
            request_line(id="a", kernels=["gemm"], config={"max_depth": 0}),
            request_line(id="b", kernels=["atax"], config={"max_depth": 0}),
        )
        by_id = {}
        for event in events[1:]:
            by_id.setdefault(event["id"], []).append(event["event"])
        assert by_id == {"a": ["result", "done"], "b": ["result", "done"]}


class TestErrors:
    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("{not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            (request_line(kernels=["nope"]), "unknown kernels"),
            (request_line(kernels="gemm"), "list of kernel names"),
            (request_line(bogus=1), "unknown request keys"),
            (request_line(kernels=["gemm"], config={"bogus": 1}), "unknown config fields"),
            # The removed wavefront-validation knobs are unknown fields now,
            # and so are the execution fields: the server fixes its executor,
            # worker count and store at startup (protocol 2).
            *(
                (request_line(kernels=["gemm"], config={field: value}), "unknown config fields")
                for field, value in (
                    ("wavefront_validation", "concrete"),
                    ("validate_wavefront", False),
                    ("wavefront_validation_instance", {"N": 4}),
                    ("executor", "serial"),
                    ("n_jobs", 2),
                    ("cache_dir", "/tmp/x"),
                )
            ),
            # The one-line request that used to fork a 12-process pool.
            (
                request_line(kernels=["gemm"], config={"executor": "process", "n_jobs": 12}),
                "unknown config fields",
            ),
            # Stats requests take no other keys and demand a literal true.
            (request_line(stats=True, kernels=["gemm"]), "stats request takes only"),
            (request_line(stats="yes"), "must be the JSON value true"),
            (request_line(kernels=["gemm"], config=[1]), "must be a JSON object"),
            (request_line(kernels=["gemm"], config={"gamma": 7}), "invalid config"),
            (
                request_line(kernels=["gemm"], config={"strategies": ["bogus"]}),
                "invalid config: unknown strategy 'bogus'",
            ),
            (
                request_line(kernels=["gemm"], config={"strategies": []}),
                "invalid config: strategies must name at least one strategy",
            ),
            # Instance values are positive ints: never truncated, never below 1.
            (
                request_line(kernels=["gemm"], config={"instance": {"Ni": 2.7}}),
                "invalid config: instance value of Ni must be an integer, got 2.7",
            ),
            (
                request_line(kernels=["gemm"], config={"instance": {"Ni": -5}}),
                "invalid config: instance value of Ni must be >= 1, got -5",
            ),
        ],
    )
    def test_bad_requests_yield_one_error_event(self, service, monkeypatch, line, fragment):
        import repro.analysis.executor

        resolved = []
        real = repro.analysis.executor.resolve_executor

        def spy(executor=None, n_jobs=1):
            resolved.append((executor, n_jobs))
            return real(executor, n_jobs)

        monkeypatch.setattr(repro.analysis.executor, "resolve_executor", spy)
        events = events_for(service, line)
        assert [event["event"] for event in events] == ["hello", "error"]
        assert fragment in events[1]["error"]
        assert resolved == [], "a refused request must not resolve an executor"

    def test_error_echoes_request_id_when_parseable(self, service):
        events = events_for(service, request_line(id=42, kernels=["nope"]))
        assert events[1]["id"] == 42

    def test_server_survives_errors_between_requests(self, service):
        events = events_for(
            service,
            request_line(kernels=["nope"]),
            request_line(kernels=["gemm"], config={"max_depth": 0}),
        )
        assert [event["event"] for event in events] == [
            "hello", "error", "result", "done",
        ]


class TestExecutorSharing:
    def test_shared_pool_is_reused_across_requests_and_closed_once(self, tmp_path):
        """Every request shares the one pool the server was started with —
        no per-request pool spawn — and close() releases it."""
        service = AnalysisService(
            store=BoundStore(tmp_path / "store"), executor="thread", n_jobs=2
        )
        assert service.executor.name == "thread"
        events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))
        pool = service.executor._pool
        assert pool is not None
        events_for(service, request_line(kernels=["atax"], config={"max_depth": 0}))
        assert service.executor._pool is pool, "pool must be reused"
        service.close()
        assert service.executor._pool is None
        service.close()  # idempotent

    def test_live_executor_instance_stays_callers(self, tmp_path):
        from repro.analysis import ThreadExecutor

        executor = ThreadExecutor(n_jobs=2)
        try:
            service = AnalysisService(
                store=BoundStore(tmp_path / "store"), executor=executor
            )
            assert service.executor is executor
            events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))
            pool = executor._pool
            service.close()  # must NOT close the caller's executor
            assert executor._pool is pool is not None
            assert executor.submit(lambda x: x + 1, 1).result() == 2
        finally:
            executor.close()


class TestStreamingOrder:
    def test_small_kernel_streams_before_big_one_lands(self, tmp_path):
        """Within one request, results arrive in completion order: the
        single-task kernel's event precedes the many-task kernel's even
        though the request listed the big one first."""
        service = AnalysisService(store=BoundStore(tmp_path / "store"))
        events = events_for(service, request_line(kernels=["durbin", "gemm"]))
        result_order = [event["kernel"] for event in events if event["event"] == "result"]
        assert result_order == ["gemm", "durbin"]


class TestTCP:
    def test_round_trip_over_a_real_socket(self, tmp_path):
        service = AnalysisService(store=BoundStore(tmp_path / "store"))
        with ServiceServer(("127.0.0.1", 0), service) as server:
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                with socket.create_connection((host, port), timeout=30) as conn:
                    conn.sendall(
                        (request_line(id=1, kernels=["gemm"], config={"max_depth": 0}) + "\n").encode()
                    )
                    conn.shutdown(socket.SHUT_WR)
                    stream = conn.makefile("r", encoding="utf-8")
                    events = [json.loads(line) for line in stream]
            finally:
                server.shutdown()
                thread.join(timeout=10)
        assert [event["event"] for event in events] == ["hello", "result", "done"]
        assert events[1]["kernel"] == "gemm"

    def test_accepted_connections_set_tcp_nodelay(self, monkeypatch):
        """A request's `done` line follows its `result` line at once: the
        server's side of the socket does not wait for the client's ACK."""
        nodelay = []
        handle = service_module._TCPHandler.handle

        def recording_handle(handler) -> None:
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handle(handler)

        monkeypatch.setattr(service_module._TCPHandler, "handle", recording_handle)
        with AnalysisService(store=None) as service:
            with ServiceServer(("127.0.0.1", 0), service) as server:
                thread = threading.Thread(target=server.serve_forever, daemon=True)
                thread.start()
                try:
                    client = _Client(*server.server_address[:2])
                    try:
                        assert client.read_event()["event"] == "hello"
                    finally:
                        client.close()
                finally:
                    server.shutdown()
                    thread.join(timeout=10)
        assert len(nodelay) == 1 and nodelay[0] != 0


class TestServeStream:
    def test_serve_stream_writes_one_json_line_per_event(self, service):
        import io

        out = io.StringIO()
        source = io.StringIO(request_line(kernels=["gemm"], config={"max_depth": 0}) + "\n")
        service.serve_stream(source, out)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["event"] for line in lines] == [
            "hello", "result", "done",
        ]

    @pytest.mark.parametrize("hangup", [BrokenPipeError, ConnectionResetError])
    def test_client_hangup_ends_the_stream_cleanly(self, service, hangup):
        """A closed stdout pipe (client died) must end serve_stream without
        a traceback, and the abandoned request's in-flight count must be
        unwound immediately."""
        import io

        class HangupStream(io.StringIO):
            def __init__(self, fail_after: int):
                super().__init__()
                self.writes_left = fail_after

            def write(self, text):
                if self.writes_left <= 0:
                    raise hangup("client went away")
                self.writes_left -= 1
                return super().write(text)

        source = io.StringIO(
            request_line(kernels=["gemm", "atax"], config={"max_depth": 0}) + "\n"
        )
        out = HangupStream(fail_after=2)  # hello + first result, then the pipe dies
        service.serve_stream(source, out)  # must not raise
        assert service.in_flight == 0
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [event["event"] for event in events] == ["hello", "result"]


class TestPerRequestAccounting:
    """The cross-request accounting bugfix: ``done`` events report the
    request's OWN derivations, not a delta of the process-global counter
    that every concurrent request also bumps."""

    def test_interleaved_requests_each_report_only_their_own_derivations(self, tmp_path):
        """Advance two request generators by hand so their derivations
        interleave deterministically.  The old global-delta accounting
        (``derivation_count() - derived_before``) would make the one-kernel
        request report all three derivations."""
        from repro.analysis import derivation_count

        service = AnalysisService(store=BoundStore(tmp_path / "store"))
        derived_before = derivation_count()
        one = service.handle_request(
            request_line(id="one", kernels=["gemm"], config={"max_depth": 0})
        )
        two = service.handle_request(
            request_line(id="two", kernels=["atax", "bicg"], config={"max_depth": 0})
        )
        # Interleave: request "two" derives both its kernels between request
        # "one"'s derivation and its done event.
        assert next(one)["event"] == "result"          # one derives gemm
        assert next(two)["event"] == "result"          # two derives atax
        assert next(two)["event"] == "result"          # two derives bicg
        done_two = next(two)
        done_one = next(one)
        assert done_two["event"] == "done" and done_one["event"] == "done"
        # Three derivations happened globally while "one" was in flight...
        assert derivation_count() - derived_before == 3
        # ...but each request reports only its own.
        assert done_one["derivations"] == 1
        assert done_two["derivations"] == 2
        service.close()

    def test_in_flight_is_unwound_when_a_client_abandons_mid_request(self, service):
        request = service.handle_request(
            request_line(kernels=["gemm", "atax"], config={"max_depth": 0})
        )
        assert next(request)["event"] == "result"
        assert service.in_flight == 1
        request.close()  # client hung up between results
        assert service.in_flight == 0


class TestStats:
    def test_stats_event_reports_service_and_store_state(self, service):
        events = events_for(
            service,
            request_line(kernels=["gemm"], config={"max_depth": 0}),
            request_line(id="probe", stats=True),
        )
        stats = events[-1]
        assert stats["event"] == "stats"
        assert stats["id"] == "probe"
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["uptime_s"] >= 0
        assert stats["in_flight"] == 0
        assert stats["requests_served"] == 1  # stats probes are not analysis requests
        assert stats["kernels"] == len(kernel_names())
        assert stats["executor"] == {"name": "serial", "jobs": 1}
        store = stats["store"]
        # A cold derivation persists the program bound plus task-level
        # sub-bounds; the quick snapshot sees every entry this session wrote.
        assert store["entries"] >= 1
        assert store["entries"] == store["writes"]
        assert store["total_bytes"] > 0
        assert store["misses"] >= 1

    def test_stats_without_a_store_reports_null(self):
        with AnalysisService(store=None) as service:
            events = events_for(service, request_line(stats=True))
            assert events[-1]["store"] is None


def _read_until(stream, kind: str) -> list[dict]:
    """Collect events from a socket line stream until `kind` (inclusive)."""
    events = []
    for line in stream:
        event = json.loads(line)
        events.append(event)
        if event["event"] == kind:
            return events
    raise AssertionError(f"stream ended before a {kind!r} event: {events}")


class _Client:
    """One interactive JSON-lines TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.conn = socket.create_connection((host, port), timeout=timeout)
        self.stream = self.conn.makefile("r", encoding="utf-8")

    def send(self, line: str) -> None:
        self.conn.sendall((line + "\n").encode("utf-8"))

    def read_event(self) -> dict:
        return json.loads(self.stream.readline())

    def read_until(self, kind: str) -> list[dict]:
        return _read_until(self.stream, kind)

    def close(self) -> None:
        self.stream.close()
        self.conn.close()


def _await_in_flight(client: "_Client", minimum: int, timeout: float = 30.0) -> dict:
    """Poll ``{"stats": true}`` until at least `minimum` requests are in
    flight; returns the satisfying stats event."""
    deadline = time.monotonic() + timeout
    while True:
        client.send(request_line(stats=True))
        stats = client.read_event()
        assert stats["event"] == "stats"
        if stats["in_flight"] >= minimum:
            return stats
        assert time.monotonic() < deadline, (
            f"no request became in-flight within {timeout}s: {stats}"
        )
        time.sleep(0.01)


class TestConcurrentTCP:
    # Disjoint single-derivation workloads, all <0.2s at max_depth 0.
    CHEAP = ["deriche", "gesummv", "mvt", "bicg", "trisolv", "gemm", "doitgen", "atax"]

    @pytest.fixture
    def server(self, tmp_path):
        service = AnalysisService(store=BoundStore(tmp_path / "store"))
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, service
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
            service.close()

    def test_four_clients_get_byte_identical_payloads_and_own_counts(
        self, server, tmp_path
    ):
        """4 concurrent connections x 2 requests each: every client receives
        exactly the payload a sequential run produces, and every done event
        counts only its own request's derivation."""
        tcp, service = server
        host, port = tcp.server_address[:2]
        # Sequential ground truth from an independent service + store.
        expected = {}
        with AnalysisService(store=BoundStore(tmp_path / "seq-store")) as sequential:
            for name in self.CHEAP:
                events = events_for(
                    sequential, request_line(kernels=[name], config={"max_depth": 0})
                )
                expected[name] = events[1]["result"]

        per_client = [self.CHEAP[i::4] for i in range(4)]  # 2 disjoint kernels each
        outputs: list[list[dict] | None] = [None] * 4
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def run_client(index: int) -> None:
            try:
                lines = "".join(
                    request_line(
                        id=f"c{index}r{request}",
                        kernels=[kernel],
                        config={"max_depth": 0},
                    )
                    + "\n"
                    for request, kernel in enumerate(per_client[index])
                )
                barrier.wait(timeout=30)
                with socket.create_connection((host, port), timeout=120) as conn:
                    conn.sendall(lines.encode("utf-8"))
                    conn.shutdown(socket.SHUT_WR)
                    stream = conn.makefile("r", encoding="utf-8")
                    outputs[index] = [json.loads(line) for line in stream]
            except BaseException as error:  # surfaced in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=run_client, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert all(output is not None for output in outputs)

        for index, events in enumerate(outputs):
            assert events[0]["event"] == "hello"
            body = events[1:]
            assert [event["event"] for event in body] == [
                "result", "done", "result", "done",
            ]
            for request, kernel in enumerate(per_client[index]):
                result, done = body[2 * request], body[2 * request + 1]
                assert result["id"] == f"c{index}r{request}"
                assert result["kernel"] == kernel
                assert json.dumps(result["result"], sort_keys=True) == json.dumps(
                    expected[kernel], sort_keys=True
                ), f"client {index} payload for {kernel} differs from sequential run"
                assert done["results"] == 1
                # THE bugfix: under the old global-delta accounting,
                # overlapping requests each reported their neighbours' work.
                assert done["derivations"] == 1, (
                    f"client {index} request {request} counted foreign derivations"
                )
        assert service.in_flight == 0

    def test_warm_request_completes_while_cold_request_is_in_flight(self, server):
        tcp, service = server
        host, port = tcp.server_address[:2]
        # Pre-warm gemm so the warm request is pure store traffic.
        events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))

        cold = _Client(host, port)
        warm = _Client(host, port)
        try:
            assert cold.read_event()["event"] == "hello"
            assert warm.read_event()["event"] == "hello"
            # jacobi-2d at depth 0 derives for seconds — a wide-open window.
            cold.send(request_line(id="cold", kernels=["jacobi-2d"], config={"max_depth": 0}))
            _await_in_flight(warm, minimum=1)

            warm.send(request_line(id="warm", kernels=["gemm"], config={"max_depth": 0}))
            warm_events = [warm.read_event(), warm.read_event()]
            assert [event["event"] for event in warm_events] == ["result", "done"]
            assert warm_events[1]["derivations"] == 0  # pure store hit

            # The cold request must still be running: the warm one was
            # served concurrently, not queued behind it.
            warm.send(request_line(stats=True))
            stats = warm.read_event()
            assert stats["in_flight"] >= 1, (
                "cold request finished before the warm turnaround — "
                "the server is serializing connections"
            )

            cold_events = cold.read_until("done")
            assert cold_events[-1]["id"] == "cold"
            assert cold_events[-1]["derivations"] == 1
        finally:
            warm.close()
            cold.close()

    def test_shutdown_drains_in_flight_requests(self, tmp_path):
        """server_close() while a request is streaming: the client still
        receives every remaining event, then the service pool closes once."""
        service = AnalysisService(store=BoundStore(tmp_path / "store"))
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        client = _Client(host, port)
        client.send(request_line(id="draining", kernels=["fdtd-2d"], config={"max_depth": 0}))
        # Half-close: the handler sees EOF after this one request, so the
        # drain has a definite end.
        client.conn.shutdown(socket.SHUT_WR)
        assert client.read_event()["event"] == "hello"

        probe = _Client(host, port)
        try:
            assert probe.read_event()["event"] == "hello"
            _await_in_flight(probe, minimum=1)
        finally:
            probe.close()

        closer = threading.Thread(target=lambda: (server.shutdown(), server.server_close()))
        closer.start()
        try:
            # The shutdown is in progress, yet the in-flight request streams
            # to completion.
            events = client.read_until("done")
            assert [event["event"] for event in events] == ["result", "done"]
            assert events[-1]["derivations"] == 1
        finally:
            client.close()
        closer.join(timeout=120)
        assert not closer.is_alive(), "server_close() failed to drain and return"
        thread.join(timeout=30)
        service.close()
        assert service.in_flight == 0


class TestSharedStateRaces:
    def test_lazy_pool_init_race_resolves_exactly_one_pool(self, monkeypatch):
        """Racing first submits on one shared executor must not each create
        a pool and leak all but one: widen the creation window and hammer
        it."""
        from repro.analysis import ThreadExecutor

        created = []

        def slow_pool(max_workers):
            time.sleep(0.05)  # widen the race window
            pool = concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)
            created.append(pool)
            return pool

        monkeypatch.setattr(ThreadExecutor, "_pool_factory", staticmethod(slow_pool))
        executor = ThreadExecutor(n_jobs=2)
        results: list[int] = []
        barrier = threading.Barrier(8)

        def first_submit(value: int) -> None:
            barrier.wait(timeout=30)
            results.append(executor.submit(abs, -value).result())

        threads = [threading.Thread(target=first_submit, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(created) == 1, "racing first submits leaked executor pools"
        assert sorted(results) == list(range(8))
        executor.close()

    def test_racing_closers_close_the_shared_pool_exactly_once(self, tmp_path):
        service = AnalysisService(
            store=BoundStore(tmp_path / "store"), executor="thread", n_jobs=2
        )
        events_for(service, request_line(kernels=["gemm"], config={"max_depth": 0}))
        pool = service.executor._pool
        shutdowns: list[int] = []
        original_shutdown = pool.shutdown
        pool.shutdown = lambda **kwargs: (shutdowns.append(1), original_shutdown(**kwargs))  # type: ignore[method-assign]
        barrier = threading.Barrier(6)

        def racer() -> None:
            barrier.wait(timeout=30)
            service.close()

        threads = [threading.Thread(target=racer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(shutdowns) == 1, "concurrent close() callers double-closed the pool"
        assert service.executor._pool is None


def _worker_pid(_item) -> int:
    return os.getpid()


def _wait_until_reaped(pid: int, timeout: float = 30.0) -> None:
    """A killed pool worker is reaped once its pool has marked itself broken."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, f"worker {pid} was never reaped"
        time.sleep(0.01)


class TestWorkerDeath:
    """A dead process worker costs the requests it was serving one `error`
    event each; the next request runs on a replacement worker."""

    GEMM = request_line(kernels=["gemm"], config={"max_depth": 0})

    def test_a_killed_idle_worker_is_replaced_by_the_next_request(self, tmp_path):
        with AnalysisService(store=BoundStore(tmp_path / "store"), executor="process") as service:
            service.executor.start()
            pid = service.executor.submit(_worker_pid, None).result()
            os.kill(pid, signal.SIGKILL)
            _wait_until_reaped(pid)

            events = events_for(service, self.GEMM, request_line(stats=True))
            assert [event["event"] for event in events] == ["hello", "result", "done", "stats"]
            assert events[2]["derivations"] == 1
            assert events[3]["executor"] == {"name": "process", "jobs": 1}
            assert service.executor.submit(_worker_pid, None).result() != pid

    def test_a_request_in_flight_gets_one_error_event(self, tmp_path):
        executor = ProcessExecutor(n_jobs=1)
        try:
            pid = executor.submit(_worker_pid, None).result()
            submit = executor.submit

            def submit_then_kill(fn, item):
                future = submit(fn, item)
                executor.submit = submit  # type: ignore[method-assign]
                os.kill(pid, signal.SIGKILL)
                return future

            executor.submit = submit_then_kill  # type: ignore[method-assign]
            with AnalysisService(store=BoundStore(tmp_path / "store"), executor=executor) as service:
                events = events_for(service, request_line(id=1, kernels=["gemm"]), self.GEMM)
                assert [event["event"] for event in events] == ["hello", "error", "result", "done"]
                assert events[1]["id"] == 1
                assert "worker process died" in events[1]["error"]
                assert events[3]["derivations"] == 1
                assert service.in_flight == 0
        finally:
            executor.close()


def _locks_a_handler_thread_can_hold() -> list:
    """The profiler's lock, the constraint intern table's, each memo cache's
    and each program cache's, read afresh from their owners."""
    from repro import perf
    from repro.analysis import plan
    from repro.sets import basic_set
    from repro.upper import search

    return [
        perf._lock,
        basic_set._intern_lock,
        *(cache._lock for cache in perf._caches.values()),
        plan._DFGS._lock,
        search._CDAGS._lock,
    ]


def _derive_gemm_after_fork(expected: str) -> int:
    """The forked child's check: exit code 0 if it derives gemm cold and then
    finds every one of those locks free."""
    from repro.sets import memo

    memo.clear_all()
    result = Analyzer(AnalysisConfig(max_depth=0)).analyze(get_kernel("gemm").program)
    if json.dumps(result.to_dict(), sort_keys=True) != expected:
        return 2
    locks = _locks_a_handler_thread_can_hold()
    return 0 if all(lock.acquire(timeout=5) for lock in locks) else 3


class TestForkWithHeldLocks:
    """A replacement process worker is forked while handler threads run; a
    lock one of them holds at that instant must not stay held in the child."""

    def test_child_forked_under_held_locks_still_derives_gemm(self):
        expected = json.dumps(
            Analyzer(AnalysisConfig(max_depth=0)).analyze(get_kernel("gemm").program).to_dict(),
            sort_keys=True,
        )
        held, release = threading.Event(), threading.Event()
        locks = _locks_a_handler_thread_can_hold()

        def hold() -> None:
            for lock in locks:
                lock.acquire()
            held.set()
            release.wait()
            for lock in reversed(locks):
                lock.release()

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=30)
            with warnings.catch_warnings():
                # Python 3.12 warns that forking a threaded process may deadlock.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = _derive_gemm_after_fork(expected)
                finally:
                    os._exit(code)
        finally:
            release.set()
            holder.join(timeout=30)

        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child blocked on a lock held at the fork")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="lists the server's worker through /proc",
)
def test_sigterm_drains_the_server_and_stops_its_worker():
    """`repro serve` forks its worker at startup; SIGTERM takes the Ctrl-C
    path (stop accepting, drain, close the pool), so no worker is orphaned."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
        env={**os.environ, "PYTHONPATH": src},
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert "serving on" in server.stderr.readline()
        children = Path(f"/proc/{server.pid}/task/{server.pid}/children").read_text().split()
        assert len(children) == 1, children
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        assert "draining" in server.stderr.read()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    _wait_until_reaped(int(children[0]))


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="lists the server's worker through /proc",
)
def test_sigkilled_server_leaves_no_worker_behind():
    """A server killed outright never closes its pool; its worker notices the
    parent is gone and exits instead of blocking on the call queue forever."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
        env={**os.environ, "PYTHONPATH": src},
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert "serving on" in server.stderr.readline()
        children = Path(f"/proc/{server.pid}/task/{server.pid}/children").read_text().split()
        assert len(children) == 1, children
    finally:
        server.kill()
        server.wait()
    worker = int(children[0])
    deadline = time.monotonic() + 10
    while _running(worker):
        if time.monotonic() > deadline:
            os.kill(worker, signal.SIGKILL)
            pytest.fail(f"worker {worker} outlived its SIGKILLed server")
        time.sleep(0.05)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie counts as gone:
    an orphan's reaper is not this test's process)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
