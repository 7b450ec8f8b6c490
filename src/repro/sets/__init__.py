"""Parametric integer sets and affine maps (the ISL/barvinok substitute).

The subpackage provides the polyhedral machinery that IOLB obtains from ISL,
barvinok and PET in the original C implementation:

* :class:`~repro.sets.space.Space`, :class:`~repro.sets.affine.LinExpr`,
  :class:`~repro.sets.basic_set.BasicSet`, :class:`~repro.sets.pset.ParamSet` —
  parametric Z-polyhedra and finite unions thereof;
* :class:`~repro.sets.affine_map.AffineFunction` — single-valued affine maps
  used to represent flow-dependence relations in inverse (read) form;
* :mod:`~repro.sets.fourier_motzkin` — projection and emptiness;
* :mod:`~repro.sets.counting` — symbolic cardinality;
* :mod:`~repro.sets.parser` — ISL-like string syntax.
"""

from .affine import LinExpr
from .affine_map import AffineFunction
from .backend import get_backend
from .basic_set import EQ, GE, BasicSet, Constraint
from .counting import (
    CountingError,
    card,
    card_at,
    card_basic,
    card_upper,
    count_backend,
    lin_to_sympy,
    sym,
)
from .poly import Poly
from .fourier_motzkin import (
    EliminationError,
    basic_set_is_empty,
    eliminate_variable,
    eliminate_variables,
    is_rationally_empty,
    project_out,
)
from .parser import ParseError, parse_function, parse_set
from .pset import ParamSet
from .space import Space

__all__ = [
    "EQ",
    "GE",
    "AffineFunction",
    "BasicSet",
    "Constraint",
    "CountingError",
    "EliminationError",
    "LinExpr",
    "ParamSet",
    "ParseError",
    "Poly",
    "Space",
    "basic_set_is_empty",
    "get_backend",
    "card",
    "card_at",
    "card_basic",
    "card_upper",
    "count_backend",
    "eliminate_variable",
    "eliminate_variables",
    "is_rationally_empty",
    "lin_to_sympy",
    "parse_function",
    "parse_set",
    "project_out",
    "sym",
]
