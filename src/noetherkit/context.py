"""Symbol table shared by every symbolic computation.

A Context fixes the names of the configuration coordinates, the derived
velocity names (coordinate name + "dot") and any extra parameters (bound to
an exact rational value, or left symbolic).  The time variable is always t.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

import sympy as sp

SYMBOLIC = "symbolic"
TIME = "t"
# no coordinate or parameter takes these names: the grammar's functions, which it cannot
# reference as symbols, and the names sympy's math and numpy printers emit
RESERVED = frozenset({"sin", "cos", "exp", "ln", "log", "sqrt", "e", "pi", "math", "numpy"})

ParamValue = Union[int, float, Fraction, sp.Rational, str]


class ContextError(ValueError):
    """Invalid names or values; ``field`` names the offending part of the problem."""

    def __init__(self, message: str, field: str = "coordinates"):
        super().__init__(message)
        self.field = field


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
        for kind, c in [*(("coordinate", c) for c in coords),
                        *(("parameter", p) for p in self.parameters)]:
            # the grammar's identifiers are exactly the ASCII Python identifiers
            if not (c.isascii() and c.isidentifier()) or keyword.iskeyword(c) or c in RESERVED:
                raise ContextError(
                    f"{c!r} is not a {kind} name: use letters, digits and _, not a "
                    f"Python keyword nor one of {', '.join(sorted(RESERVED))}", kind + "s")
        velocities = tuple(c + "dot" for c in coords)
        names = [TIME, *coords, *velocities]
        if len(set(names)) != len(names):
            raise ContextError(f"identifiers are not distinct: {sorted(names)}")
        clash = sorted(set(names) & set(self.parameters))
        if clash:
            raise ContextError(f"parameter names {clash} repeat t, a coordinate or a velocity",
                               "parameters")
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

    def symbol(self, name: str) -> sp.Expr:
        """The expression a name stands for: the exact value of a parameter bound to a
        number, else the real Symbol.  Every expression of a problem reads its names
        here, so a bound parameter is its value everywhere."""
        if name not in self.names():
            raise ContextError(f"unknown identifier {name!r}")
        value = self.parameters.get(name, SYMBOLIC)
        return sp.Symbol(name, real=True) if value == SYMBOLIC else value

    def names(self) -> tuple[str, ...]:
        return (TIME, *self.coordinates, *self.velocities, *self.parameters)

    def free_param_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(
            sp.Symbol(name, real=True)
            for name, value in self.parameters.items()
            if value == SYMBOLIC
        )
