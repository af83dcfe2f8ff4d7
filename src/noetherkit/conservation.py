"""Hamiltonians, first integrals, and the symbolic drift check.

The expansion parameter is carried as a formal symbol; a FirstIntegral stores
its epsilon power separately from its expression so drift expansion in the
parameter is structural, not numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import sympy as sp

from .conditions import verify
from .lagrangian import ApproximateGenerator, ModelError, PerturbedLagrangian
from .normal import DEFAULT_SEED, is_zero

EPSILON = sp.Symbol("epsilon", positive=True)


class NumericOnly(Exception):
    """Mass matrix not symbolically invertible; use the numeric drift path."""


@dataclass(frozen=True)
class FirstIntegral:
    """One epsilon order of a conservation law: the full term is eps^power * expr."""

    order: int
    expr: sp.Expr
    source: str
    epsilon_power: int

    def folded(self) -> sp.Expr:
        return EPSILON**self.epsilon_power * self.expr


def hamiltonian(L: PerturbedLagrangian, part: str) -> sp.Expr:
    """H0 = (1/2) g_ij xdot xdot + V0, and likewise H1 from (h, V1)."""
    if part == "zeroth":
        return L.kinetic(L.g) + L.V0
    if part == "first":
        return L.kinetic(L.h) + L.V1
    raise ValueError(f"part must be 'zeroth' or 'first', not {part!r}")


def _momentum(L: PerturbedLagrangian, m, i: int) -> sp.Expr:
    vs = L.ctx.vs
    return sp.Add(*(m[i, j] * vs[j] for j in range(L.ctx.dimension)))


def first_integral(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    gamma: int,
    *,
    seed: int = DEFAULT_SEED,
    assume_verified: bool = False,
) -> FirstIntegral:
    """The order-gamma component of the conservation law of X.

    I_0 = xi_0 H0 - (dL0/dxdot^i) eta_0^i + f_0; for gamma >= 1 the previous
    order couples in through H1 and the L1 momenta.
    """
    X.check_shape(L)
    if X.boundary is None:
        raise ModelError("boundary terms required; recover them first")
    if not 0 <= gamma <= L.order:
        raise ValueError(f"gamma {gamma} outside 0..{L.order}")
    if not assume_verified:
        report = verify(L, X, seed=seed)
        if not report.passed:
            raise ModelError(f"generator {X.name} fails verification")
    n = L.ctx.dimension
    parts = [(L.g.entries, hamiltonian(L, "zeroth"), gamma)]
    if gamma >= 1:
        parts.append((L.h.entries, hamiltonian(L, "first"), gamma - 1))
    expr = X.boundary[gamma]
    for m, H, A in parts:
        eta = X.orders[A].eta
        expr += X.orders[A].xi * H - sp.Add(*(_momentum(L, m, i) * eta[i] for i in range(n)))
    return FirstIntegral(gamma, sp.expand(expr, power_exp=False), X.name, gamma)


def total_integral(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    *,
    seed: int = DEFAULT_SEED,
    assume_verified: bool = False,
) -> list[FirstIntegral]:
    """All components I_0 .. I_n; their folded sum is the conservation law."""
    out = []
    for gamma in range(L.order + 1):
        out.append(first_integral(L, X, gamma, seed=seed, assume_verified=assume_verified))
        assume_verified = True
    return out


def accelerations(L: PerturbedLagrangian) -> list[sp.Expr]:
    """xddot^i from the Euler-Lagrange equations of L0 + eps L1.

    M a = -grad V - (dM/dt along the flow) v with M = g + eps h; raises
    NumericOnly when M has no symbolic inverse.  Solved once per Lagrangian:
    the list is kept in L's instance dict, as functools.cached_property keeps
    a value on a frozen dataclass.
    """
    if "_accelerations" in vars(L):
        return vars(L)["_accelerations"]
    ctx = L.ctx
    n = ctx.dimension
    vs = ctx.vs
    M = sp.Matrix(L.g.entries) + EPSILON * sp.Matrix(L.h.entries)
    V = L.V0 + EPSILON * L.V1
    rhs = sp.zeros(n, 1)
    for i in range(n):
        r = -sp.diff(V, ctx.xs[i])
        # Christoffel-type terms from x-dependent M, plus the quadratic
        # velocity term from dL/dx
        for j in range(n):
            for k in range(n):
                r -= sp.diff(M[i, j], ctx.xs[k]) * vs[k] * vs[j]
                r += sp.Rational(1, 2) * sp.diff(M[j, k], ctx.xs[i]) * vs[j] * vs[k]
        rhs[i] = r
    try:
        Minv = M.inv()
    except (sp.matrices.exceptions.NonInvertibleMatrixError, ValueError) as exc:
        raise NumericOnly(str(exc)) from exc
    vars(L)["_accelerations"] = [sp.cancel(a) for a in Minv * rhs]
    return vars(L)["_accelerations"]


@dataclass(frozen=True)
class DriftExpansion:
    remainder: sp.Expr
    order: int
    truncation_is_zero: bool


def symbolic_drift(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral,
    *,
    seed: int = DEFAULT_SEED,
) -> DriftExpansion:
    """dI/dt along the perturbed flow, expanded in the parameter.

    The drift of the folded sum of the given components is truncated at the
    highest order among them (the truncation must vanish for a valid
    approximate law, and is zero-tested with ``seed``); the next
    coefficient is returned as the remainder.  Components below that order
    must all be supplied: truncating a single mixed-order component in
    isolation is not an invariant.
    """
    if isinstance(integrals, FirstIntegral):
        integrals = [integrals]
    order = max(I.order for I in integrals)
    eps = EPSILON
    I = sp.Add(*(F.folded() for F in integrals))
    ctx = L.ctx
    accel = accelerations(L)
    dI = sp.diff(I, ctx.t)
    for i in range(ctx.dimension):
        dI += sp.diff(I, ctx.xs[i]) * ctx.vs[i]
        dI += sp.diff(I, ctx.vs[i]) * accel[i]
    dI = sp.expand(sp.cancel(sp.together(dI)))
    try:
        series = sp.Poly(dI, eps)
    except sp.PolynomialError:
        # rational in eps (x-dependent mass matrix): expand as a series
        expanded = sp.expand(sp.series(dI, eps, 0, order + 2).removeO())
        series = sp.Poly(expanded, eps)
    truncation = sp.Integer(0)
    remainder = sp.Integer(0)
    for (k,), coeff in series.terms():
        if k <= order:
            truncation += eps**k * coeff
        elif k == order + 1:
            remainder = coeff
    return DriftExpansion(sp.expand(remainder), order,
                          bool(is_zero(sp.expand(truncation), seed=seed)))
