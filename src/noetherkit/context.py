"""Symbol table shared by every symbolic computation.

A Context fixes the names of the configuration coordinates, the derived
velocity names (coordinate name + "dot") and any extra parameters (bound to
an exact rational value, or left symbolic).  The time variable is always t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

import sympy as sp

SYMBOLIC = "symbolic"
TIME = "t"

ParamValue = Union[int, float, Fraction, sp.Rational, str]


class ContextError(ValueError):
    pass


def _to_rational(value) -> sp.Rational:
    if isinstance(value, (int, sp.Integer)):
        return sp.Rational(value)
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, sp.Rational):
        return value
    if isinstance(value, float):
        # exact decimal reading, not the binary float expansion
        return sp.Rational(str(value))
    raise ContextError(f"cannot interpret parameter value {value!r} as a rational")


@dataclass(frozen=True)
class Context:
    """Names and symbols for one perturbed-Lagrangian problem."""

    coordinates: tuple[str, ...]
    parameters: Mapping[str, ParamValue] = field(default_factory=dict)

    def __post_init__(self):
        coords = tuple(self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if len(coords) < 1:
            raise ContextError("dimension must be >= 1")
        velocities = tuple(c + "dot" for c in coords)
        names = [TIME, *coords, *velocities, *self.parameters]
        if len(set(names)) != len(names):
            raise ContextError(f"identifiers are not distinct: {sorted(names)}")
        params = {}
        for name, value in dict(self.parameters).items():
            if value == SYMBOLIC:
                params[name] = SYMBOLIC
            else:
                params[name] = _to_rational(value)
        object.__setattr__(self, "parameters", params)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    @property
    def velocities(self) -> tuple[str, ...]:
        return tuple(c + "dot" for c in self.coordinates)

    # -- sympy symbols ----------------------------------------------------

    @property
    def t(self) -> sp.Symbol:
        return sp.Symbol(TIME, real=True)

    @property
    def xs(self) -> tuple[sp.Symbol, ...]:
        return tuple(sp.Symbol(c, real=True) for c in self.coordinates)

    @property
    def vs(self) -> tuple[sp.Symbol, ...]:
        return tuple(sp.Symbol(c, real=True) for c in self.velocities)

    def symbol(self, name: str) -> sp.Symbol:
        if name not in self.names():
            raise ContextError(f"unknown identifier {name!r}")
        return sp.Symbol(name, real=True)

    def names(self) -> tuple[str, ...]:
        return (TIME, *self.coordinates, *self.velocities, *self.parameters)

    def numeric_bindings(self) -> dict[sp.Symbol, sp.Rational]:
        """Substitution map for every parameter bound to a number."""
        return {
            sp.Symbol(name, real=True): value
            for name, value in self.parameters.items()
            if value != SYMBOLIC
        }

    def bind(self, e: sp.Basic) -> sp.Basic:
        """``e`` with every parameter bound to a number replaced by its value."""
        params = self.numeric_bindings()
        return e.subs(params) if params else e

    def free_param_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(
            sp.Symbol(name, real=True)
            for name, value in self.parameters.items()
            if value == SYMBOLIC
        )
