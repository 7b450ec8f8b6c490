"""Counting-backend differential benchmark: native Faulhaber vs sympy.

Two cold full-suite derivations in fresh subprocesses, identical except for
``REPRO_COUNT_BACKEND``: the reference leg sums lattice-point weights with
``sympy.summation``, the native leg with the closed-form Faulhaber engine in
:mod:`repro.sets.poly`.  Three guarantees are checked:

* **Byte-identical bounds** — asserted unconditionally.  The native engine
  is perf-only; every derived formula must ``sympy.sstr`` identically across
  the legs.
* **>= 2x counting speedup** — the counting *subsystem* (the exclusive time
  of the ``counting`` and ``counting-sum`` perf timers, i.e. the code the
  engine replaced) must be at least ``TARGET_COUNT_SPEEDUP`` times faster.
  Asserted only with >= 2 CPU cores (single-core containers are too
  contended for reliable timing); the measurement is reported always.
* **Machine-readable record** — ``benchmarks/out/BENCH_counting.json``
  carries both legs' wall/subsystem times and the speedups so CI can chart
  the trend, next to the Markdown table in ``BENCH_counting.md``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import OUTPUT_DIR, write_markdown_table

#: Minimum cold counting-subsystem speedup of the native closed-form engine
#: over the sympy reference on a machine with cores to spare.
TARGET_COUNT_SPEEDUP = 2.0

_CHILD_SNIPPET = """
import json, time
import sympy
from repro import perf
from repro.polybench.suite import analyze_suite
from repro.sets import memo
perf.reset()
memo.clear_all()
start = time.perf_counter()
analyses = analyze_suite(store=None, executor="serial")
wall = time.perf_counter() - start
snapshot = perf.snapshot()
counting = sum(
    t.exclusive_s for t in snapshot.timings
    if t.name in ("counting", "counting-sum")
)
bounds = {a.spec.name: sympy.sstr(a.result.expression) for a in analyses}
print(json.dumps({"seconds": wall, "counting_seconds": counting,
                  "bounds": bounds}))
"""


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _suite_cold(backend: str) -> dict:
    """Cold full-suite derivation with one count backend, fresh interpreter."""
    env = dict(os.environ)
    env["REPRO_COUNT_BACKEND"] = backend
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH")])
    )
    output = subprocess.run(
        [sys.executable, "-c", _CHILD_SNIPPET],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(output.stdout.strip().splitlines()[-1])


def test_counting_backend_speedup():
    """Cold suite per count backend: identical bounds, faster counting."""
    reference = _suite_cold("sympy")
    native = _suite_cold("native")

    # Byte-identical bounds across the backends, whatever the timing says:
    # the closed-form engine may never change a derived formula.
    assert native["bounds"] == reference["bounds"]

    ref_count, nat_count = reference["counting_seconds"], native["counting_seconds"]
    count_speedup = ref_count / nat_count if nat_count > 0 else 1.0
    wall_speedup = (
        reference["seconds"] / native["seconds"] if native["seconds"] > 0 else 1.0
    )

    write_markdown_table("BENCH_counting", [{
        "leg": "sympy.summation (reference)",
        "counting subsystem (s)": round(ref_count, 2),
        "suite wall (s)": round(reference["seconds"], 2),
        "counting speedup": "1.00x",
    }, {
        "leg": "native Faulhaber engine",
        "counting subsystem (s)": round(nat_count, 2),
        "suite wall (s)": round(native["seconds"], 2),
        "counting speedup": f"{count_speedup:.2f}x",
    }])

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_counting.json").write_text(json.dumps({
        "kernels": len(native["bounds"]),
        "bounds_identical": True,
        "target_counting_speedup": TARGET_COUNT_SPEEDUP,
        "counting_speedup": round(count_speedup, 3),
        "suite_wall_speedup": round(wall_speedup, 3),
        "legs": {
            "sympy": {
                "suite_wall_s": round(reference["seconds"], 3),
                "counting_subsystem_s": round(ref_count, 3),
            },
            "native": {
                "suite_wall_s": round(native["seconds"], 3),
                "counting_subsystem_s": round(nat_count, 3),
            },
        },
    }, indent=2, sort_keys=True) + "\n")

    cores = _available_cores()
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s) available: timing too contended for a "
            f"reliable speedup assertion (measured {count_speedup:.2f}x on "
            "the counting subsystem; tables written for inspection)"
        )
    assert count_speedup >= TARGET_COUNT_SPEEDUP, (
        f"expected the native closed-form engine to cut counting-subsystem "
        f"time by >= {TARGET_COUNT_SPEEDUP}x on the cold suite, got "
        f"{count_speedup:.2f}x ({ref_count:.2f}s -> {nat_count:.2f}s)"
    )
