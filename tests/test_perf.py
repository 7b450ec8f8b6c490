"""Unit tests for the subsystem profiler (repro.perf)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def clean_counters():
    perf.reset()
    yield
    perf.reset()


def test_timed_counts_calls_and_time():
    @perf.timed("sets")
    def work():
        time.sleep(0.01)
        return 42

    assert work() == 42
    assert work() == 42
    timing = perf.snapshot().timing("sets")
    assert timing is not None
    assert timing.calls == 2
    assert timing.inclusive_s >= 0.02
    assert timing.exclusive_s == pytest.approx(timing.inclusive_s)


def test_reentrant_calls_are_not_double_counted():
    @perf.timed("counting")
    def inner():
        time.sleep(0.01)

    @perf.timed("counting")
    def outer():
        inner()
        inner()

    outer()
    timing = perf.snapshot().timing("counting")
    # One top-level entry owns the whole duration; the nested calls run
    # untimed, so they add neither calls nor time.
    assert timing.calls == 1
    assert timing.inclusive_s >= 0.02


def test_exclusive_time_credits_children_to_their_subsystem():
    @perf.timed("fm")
    def child():
        time.sleep(0.02)

    @perf.timed("counting")
    def parent():
        time.sleep(0.01)
        child()

    parent()
    snapshot = perf.snapshot()
    counting = snapshot.timing("counting")
    fm = snapshot.timing("fm")
    assert counting.inclusive_s >= 0.03
    # The child's time lands in fm's exclusive column, not counting's.
    assert counting.exclusive_s < counting.inclusive_s
    assert counting.exclusive_s == pytest.approx(counting.inclusive_s - fm.inclusive_s, abs=5e-3)
    assert fm.exclusive_s == pytest.approx(fm.inclusive_s)


def test_section_context_manager():
    with perf.section("pebble-sim"):
        time.sleep(0.01)
    with perf.section("pebble-sim"):
        with perf.section("pebble-sim"):  # reentrant: untimed
            pass
    timing = perf.snapshot().timing("pebble-sim")
    assert timing.calls == 2


def test_exceptions_still_record_time():
    @perf.timed("linalg")
    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        boom()
    assert perf.snapshot().timing("linalg").calls == 1


def test_threads_keep_independent_stacks():
    @perf.timed("sets")
    def work():
        time.sleep(0.01)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    timing = perf.snapshot().timing("sets")
    assert timing.calls == 4
    # Each thread's wall-time is counted in full (they overlap in real time).
    assert timing.inclusive_s >= 0.04


def test_reset_zeroes_timers_and_cache_counters():
    from repro.sets.memo import MemoCache

    cache = MemoCache("test.reset_probe", maxsize=4)
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)

    @perf.timed("fm")
    def work():
        pass

    work()
    perf.reset()
    snapshot = perf.snapshot()
    assert snapshot.timing("fm") is None
    probe = snapshot.cache("test.reset_probe")
    assert probe.hits == 0 and probe.misses == 0
    # reset clears counters, not entries: the cached value is still served.
    assert cache.get_or_compute("k", lambda: 2) == 1


def test_format_table_lists_subsystems_and_caches():
    from repro.sets.memo import MemoCache

    cache = MemoCache("test.table_probe", maxsize=4)
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)

    with perf.section("rel-closure"):
        pass
    table = perf.snapshot().format_table(wall_s=1.0)
    assert "rel-closure" in table
    assert "test.table_probe" in table
    assert "wall" in table
    assert "50.0%" in table  # the probe's hit rate


def test_snapshot_to_dict_roundtrips_fields():
    with perf.section("sets"):
        pass
    payload = perf.snapshot().to_dict()
    names = [entry["name"] for entry in payload["subsystems"]]
    assert "sets" in names
    assert all({"hits", "misses", "size", "hit_rate"} <= set(c) for c in payload["caches"])
