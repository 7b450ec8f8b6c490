"""Affine program representation (the PET-substitute frontend).

An :class:`AffineProgram` captures exactly what IOLB needs from the polyhedral
frontend:

* the symbolic *parameters* (problem sizes),
* the *input arrays* with their index domains (for compulsory-miss accounting
  — the ``input_size(G)`` term of Algorithm 6),
* the *statements* with their parametric iteration domains and a per-instance
  operation count (to compute operational intensity),
* the *flow dependences* in single-assignment form: for each sink instance,
  the affine function giving the unique source instance it reads
  (the inverse of the edge relation ``R_d`` of Sec. 3.4).

Programs are most conveniently constructed with :class:`ProgramBuilder`, using
ISL-like strings for domains and dependence relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import sympy

from ..sets import (
    AffineFunction,
    LinExpr,
    ParamSet,
    card,
    parse_function,
    parse_set,
)


@dataclass(frozen=True)
class Array:
    """An array of the program, with its (parametric) index domain."""

    name: str
    domain: ParamSet
    is_input: bool = True
    is_output: bool = False

    @property
    def space(self):
        return self.domain.space


@dataclass(frozen=True)
class ArrayAccess:
    """An affine array access ``array[expr_1, ..., expr_k]`` from a statement."""

    array: str
    exprs: tuple[LinExpr, ...]
    is_write: bool = False


@dataclass
class Statement:
    """A program statement with its parametric iteration domain."""

    name: str
    domain: ParamSet
    flops: int = 1
    accesses: tuple[ArrayAccess, ...] = field(default=())

    @property
    def dims(self) -> tuple[str, ...]:
        return self.domain.space.dims

    @property
    def space(self):
        return self.domain.space

    def reads(self) -> list[ArrayAccess]:
        return [a for a in self.accesses if not a.is_write]

    def writes(self) -> list[ArrayAccess]:
        return [a for a in self.accesses if a.is_write]


@dataclass(frozen=True)
class FlowDep:
    """A flow dependence edge of the DFG, in inverse-function (read) form.

    ``function`` maps each sink instance to the unique source instance
    (statement instance or input-array element) whose value it consumes, and
    ``domain`` is the sink sub-domain on which the dependence applies.
    """

    source: str
    sink: str
    function: AffineFunction
    domain: ParamSet
    label: str = ""

    def __post_init__(self) -> None:
        if tuple(self.function.domain_space.dims) != tuple(self.domain.space.dims):
            raise ValueError(
                f"dependence {self.label or self.source + '->' + self.sink}: "
                "function domain and dependence domain disagree"
            )


class AffineProgram:
    """A whole affine program: arrays, statements and flow dependences."""

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        arrays: Iterable[Array] = (),
        statements: Iterable[Statement] = (),
        dependences: Iterable[FlowDep] = (),
    ):
        self.name = name
        self.params: tuple[str, ...] = tuple(params)
        self.arrays: dict[str, Array] = {a.name: a for a in arrays}
        self.statements: dict[str, Statement] = {s.name: s for s in statements}
        self.dependences: list[FlowDep] = list(dependences)
        self._validate()

    def _validate(self) -> None:
        for dep in self.dependences:
            if dep.sink not in self.statements:
                raise ValueError(f"dependence sink {dep.sink!r} is not a statement")
            if dep.source not in self.statements and dep.source not in self.arrays:
                raise ValueError(
                    f"dependence source {dep.source!r} is neither a statement nor an array"
                )
            sink_dims = self.statements[dep.sink].dims
            if tuple(dep.function.domain_space.dims) != tuple(sink_dims):
                raise ValueError(
                    f"dependence into {dep.sink!r} uses dims "
                    f"{dep.function.domain_space.dims}, expected {sink_dims}"
                )

    # -- queries -----------------------------------------------------------

    def statement(self, name: str) -> Statement:
        return self.statements[name]

    def array(self, name: str) -> Array:
        return self.arrays[name]

    def input_arrays(self) -> list[Array]:
        return [a for a in self.arrays.values() if a.is_input]

    def input_size(self) -> sympy.Expr:
        """Total number of input array elements (compulsory misses)."""
        total = sympy.Integer(0)
        for array in self.input_arrays():
            total += card(array.domain)
        return sympy.expand(total)

    def total_flops(self) -> sympy.Expr:
        """Total number of arithmetic operations of the program."""
        total = sympy.Integer(0)
        for statement in self.statements.values():
            total += statement.flops * card(statement.domain)
        return sympy.expand(total)

    def instance_values(self, instance: Mapping[str, int]) -> dict[str, int]:
        """Check and normalise a parameter instance (all parameters bound)."""
        missing = [p for p in self.params if p not in instance]
        if missing:
            raise KeyError(f"missing parameter values for {missing}")
        return {p: int(instance[p]) for p in self.params}

    def __repr__(self) -> str:
        return (
            f"AffineProgram({self.name!r}, params={self.params}, "
            f"statements={list(self.statements)}, arrays={list(self.arrays)}, "
            f"deps={len(self.dependences)})"
        )


class ProgramBuilder:
    """Fluent construction of :class:`AffineProgram` from ISL-like strings."""

    def __init__(self, name: str, params: Sequence[str]):
        self.name = name
        self.params = tuple(params)
        self._arrays: list[Array] = []
        self._statements: list[Statement] = []
        self._dependences: list[FlowDep] = []

    def add_array(self, domain: str, is_input: bool = True, is_output: bool = False) -> "ProgramBuilder":
        """Declare an array from a set string, e.g. ``'[N] -> { A[i, j] : ... }'``."""
        parsed = parse_set(domain)
        self._arrays.append(
            Array(parsed.space.tuple_name, parsed, is_input=is_input, is_output=is_output)
        )
        return self

    def add_statement(self, domain: str, flops: int = 1,
                      accesses: Iterable[ArrayAccess] = ()) -> "ProgramBuilder":
        """Declare a statement from a set string; the tuple name is the statement name."""
        parsed = parse_set(domain)
        self._statements.append(
            Statement(parsed.space.tuple_name, parsed, flops=flops, accesses=tuple(accesses))
        )
        return self

    def add_dependence(self, relation: str, label: str = "") -> "ProgramBuilder":
        """Declare a flow dependence from a map string ``{ Sink[..] -> Source[..] : cond }``."""
        function, domain = parse_function(relation)
        self._dependences.append(
            FlowDep(
                source=function.target_tuple,
                sink=function.domain_space.tuple_name,
                function=function,
                domain=domain,
                label=label or relation.strip(),
            )
        )
        return self

    def build(self) -> AffineProgram:
        return AffineProgram(
            self.name, self.params, self._arrays, self._statements, self._dependences
        )
