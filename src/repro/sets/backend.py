"""The name of the set-algebra engine, recorded in run metadata and profiles.

There is one engine and it is exact integer arithmetic throughout: point
enumeration is one integer loop in
:meth:`repro.sets.basic_set.BasicSet.enumerate_points`, and Fourier-Motzkin
elimination one integer pair loop in :mod:`repro.sets.fourier_motzkin`.
Neither has a fast path or a decline path.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SetEngine:
    """Identifies the set-algebra engine in run metadata and profiles."""

    name: str = "int"


_ENGINE = SetEngine()


def get_backend() -> SetEngine:
    """The set-algebra engine (there is one; its ``name`` is ``"int"``)."""
    return _ENGINE
