"""Perturbed Lagrangians and approximate symmetry generators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import sympy as sp

from .context import Context
from .geometry import Metric


class ModelError(ValueError):
    """Invalid model; ``field`` names the offending part when there is one."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class PerturbedLagrangian:
    """L = L0 + eps*L1 with L_A = (1/2) m_ij xdot^i xdot^j - V_A(t, x).

    The kinetic matrices are g (zeroth order) and h (first order); h may be
    identically zero, which is the special case where every approximate
    symmetry comes from the homothetic algebra of g.
    """

    ctx: Context
    g: Metric
    h: Metric
    V0: sp.Expr
    V1: sp.Expr
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ModelError("perturbation order must be >= 1")
        if self.g.ctx != self.ctx or self.h.ctx != self.ctx:
            raise ModelError("metrics must share the Lagrangian's context")
        for name in ("V0", "V1"):
            v = sp.sympify(getattr(self, name))
            if v.free_symbols & set(self.ctx.vs):
                raise ModelError(f"{name} must not depend on velocities", name)
            object.__setattr__(self, name, v)

    def kinetic(self, m: Metric) -> sp.Expr:
        vs = self.ctx.vs
        n = self.ctx.dimension
        return sp.Rational(1, 2) * sp.Add(
            *(m.entries[i, j] * vs[i] * vs[j] for i in range(n) for j in range(n))
        )

    @property
    def parts(self) -> tuple[tuple[list, sp.Expr], tuple[list, sp.Expr]]:
        """((g, V0), (h, V1)): kinetic matrix as nested lists and potential of L0 and L1."""
        return (self.g.entries.tolist(), self.V0), (self.h.entries.tolist(), self.V1)

    @property
    def L0(self) -> sp.Expr:
        return self.kinetic(self.g) - self.V0

    @property
    def L1(self) -> sp.Expr:
        return self.kinetic(self.h) - self.V1


@dataclass(frozen=True)
class GeneratorOrder:
    """One epsilon order of a point generator: xi(t) dt + eta^i(t,x) dx^i."""

    xi: sp.Expr
    eta: tuple[sp.Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "xi", sp.sympify(self.xi))
        object.__setattr__(self, "eta", tuple(sp.sympify(e) for e in self.eta))

    @property
    def is_trivial(self) -> bool:
        return self.xi == 0 and all(e == 0 for e in self.eta)


@dataclass(frozen=True)
class ApproximateGenerator:
    """X = X_0 + eps X_1 + ... + eps^n X_n with optional boundary terms f_A."""

    name: str
    orders: tuple[GeneratorOrder, ...]
    boundary: Optional[tuple[sp.Expr, ...]] = None
    quarantined: bool = False
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if self.boundary is not None:
            b = tuple(sp.sympify(f) for f in self.boundary)
            if len(b) != len(self.orders):
                raise ModelError(
                    f"{len(b)} boundary terms for {len(self.orders)} generator orders"
                )
            object.__setattr__(self, "boundary", b)

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    def with_boundary(self, boundary: Sequence[sp.Expr]) -> "ApproximateGenerator":
        return ApproximateGenerator(
            self.name, self.orders, tuple(boundary), self.quarantined, self.note
        )

    def check_shape(self, L: PerturbedLagrangian) -> None:
        if self.order != L.order:
            raise ModelError(
                f"generator {self.name} has order {self.order}, Lagrangian order {L.order}"
            )
        for k, go in enumerate(self.orders):
            if len(go.eta) != L.ctx.dimension:
                raise ModelError(
                    f"generator {self.name} order {k} has {len(go.eta)} eta components"
                )

    @property
    def lowest_order(self) -> Optional[int]:
        for k, go in enumerate(self.orders):
            if not go.is_trivial:
                return k
        return None
