"""Operational intensity and machine-balance analysis (Sec. 8.2, Fig. 6).

The operational intensity of a schedule is ``OI = #ops / #words moved``.
IOLB's lower bound on data movement therefore yields an *upper* bound on the
operational intensity achievable by any schedule; comparing it (and the OI
achieved by a concrete tiled schedule) with the machine balance classifies a
kernel as compute-bound, bandwidth-bound, or undecided — the three scenarios
discussed for Figure 6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import sympy

from .bounds import IOBoundResult, evaluate

#: Machine balance used in the paper's Sec. 8.2 case study (words per cycle
#: sustained from memory vs. flops per cycle): 8 flops per word.
PAPER_MACHINE_BALANCE = 8.0

#: Fast-memory capacity used in the paper's Sec. 8.2 case study: 256 kB of
#: double-precision words.
PAPER_CACHE_WORDS = 256 * 1024 // 8


class Classification(Enum):
    """Outcome of comparing OI bounds against the machine balance."""

    COMPUTE_BOUND = "compute-bound"
    BANDWIDTH_BOUND = "bandwidth-bound"
    UNDECIDED = "undecided"


@dataclass
class OIReport:
    """Numeric OI report for one kernel at one parameter instance."""

    kernel: str
    oi_upper: float
    oi_achieved: float | None
    machine_balance: float
    classification: Classification


def classify(
    oi_upper: float, oi_achieved: float | None, machine_balance: float
) -> Classification:
    """Classify a kernel following the three scenarios of Sec. 8.2.

    * achieved OI above MB: the schedule is already compute-bound;
    * upper bound below MB: no schedule can avoid being bandwidth-bound;
    * otherwise: the machine balance falls between the two — undecided,
      there may be room for improvement.
    """
    if oi_achieved is not None and oi_achieved >= machine_balance:
        return Classification.COMPUTE_BOUND
    if oi_upper < machine_balance:
        return Classification.BANDWIDTH_BOUND
    return Classification.UNDECIDED


def oi_report(
    kernel: str,
    result: IOBoundResult,
    instance: Mapping[str, int],
    oi_achieved: float | None = None,
    machine_balance: float = PAPER_MACHINE_BALANCE,
    cache_words: int = PAPER_CACHE_WORDS,
) -> OIReport:
    """Build the Figure-6 style report for one kernel at one instance."""
    values = dict(instance)
    values.setdefault("S", cache_words)
    oi_upper = result.evaluate_oi_upper(values)
    return OIReport(
        kernel=kernel,
        oi_upper=oi_upper,
        oi_achieved=oi_achieved,
        machine_balance=machine_balance,
        classification=classify(oi_upper, oi_achieved, machine_balance),
    )


def oi_upper_symbolic(result: IOBoundResult) -> sympy.Expr:
    """Parametric OI upper bound (the OI_up column of Table 1)."""
    return result.oi_upper_bound()


def oi_numeric(expr: sympy.Expr, instance: Mapping[str, int]) -> float:
    """Evaluate a symbolic OI expression at a concrete instance."""
    return evaluate(expr, instance)
