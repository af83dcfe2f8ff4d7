"""Hamiltonians, first integrals, and the symbolic drift check.

The expansion parameter is carried as a formal symbol; a FirstIntegral stores
its epsilon power separately from its expression so drift expansion in the
parameter is structural, not numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import sympy as sp

from .conditions import DeterminingSystem, verify
from .lagrangian import ApproximateGenerator, ModelError, PerturbedLagrangian
from .normal import DEFAULT_SEED, ZeroStatus, is_zero

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

    def folded(self, eps: sp.Expr = EPSILON) -> sp.Expr:
        return eps**self.epsilon_power * self.expr


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
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
    assume_verified: bool = False,
    system: Optional[DeterminingSystem] = None,
) -> FirstIntegral:
    """The order-gamma component of the conservation law of X.

    I_0 = xi_0 H0 - (dL0/dxdot^i) eta_0^i + f_0; for gamma >= 1 the previous
    order couples in through H1 and the L1 momenta.  ``system`` is the
    determining system of L for the verification, built when not given.
    """
    X.check_shape(L)
    if X.boundary is None:
        raise ModelError("boundary terms required; recover them first")
    if not 0 <= gamma <= L.order:
        raise ValueError(f"gamma {gamma} outside 0..{L.order}")
    if not assume_verified:
        report = verify(L, X, tol, seed, system)
        if not report.passed:
            raise ModelError(f"generator {X.name} fails verification")
    n = L.ctx.dimension
    H0 = hamiltonian(L, "zeroth")
    expr = (
        X.orders[gamma].xi * H0
        - sp.Add(*(_momentum(L, L.g.entries, i) * X.orders[gamma].eta[i] for i in range(n)))
        + X.boundary[gamma]
    )
    if gamma >= 1:
        H1 = hamiltonian(L, "first")
        expr += X.orders[gamma - 1].xi * H1
        expr -= sp.Add(
            *(_momentum(L, L.h.entries, i) * X.orders[gamma - 1].eta[i] for i in range(n))
        )
    params = L.ctx.numeric_bindings()
    if params:
        expr = expr.subs(params)
    return FirstIntegral(gamma, sp.expand(expr), X.name, gamma)


def total_integral(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
    assume_verified: bool = False,
    system: Optional[DeterminingSystem] = None,
) -> list[FirstIntegral]:
    """All components I_0 .. I_n; their folded sum is the conservation law."""
    out = []
    for gamma in range(L.order + 1):
        out.append(
            first_integral(L, X, gamma, tol, seed, assume_verified, system)
        )
        assume_verified = True
    return out


def accelerations(L: PerturbedLagrangian, eps: sp.Expr = EPSILON) -> list[sp.Expr]:
    """xddot^i from the Euler-Lagrange equations of L0 + eps L1.

    M a = -grad V - (dM/dt along the flow) v with M = g + eps h; raises
    NumericOnly when M has no symbolic inverse.
    """
    ctx = L.ctx
    n = ctx.dimension
    vs = ctx.vs
    M = sp.Matrix(L.g.entries) + eps * sp.Matrix(L.h.entries)
    V = L.V0 + eps * L.V1
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
    accel = Minv * rhs
    params = ctx.numeric_bindings()
    return [sp.cancel(a.subs(params) if params else a) for a in accel]


@dataclass(frozen=True)
class DriftExpansion:
    truncation: sp.Expr
    remainder: sp.Expr
    order: int

    @property
    def truncation_is_zero(self) -> bool:
        return bool(is_zero(self.truncation))


def symbolic_drift(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral,
    order: Optional[int] = None,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
) -> DriftExpansion:
    """dI/dt along the perturbed flow, expanded in the parameter.

    The drift of the folded sum of the given components is truncated at the
    target order (which must vanish for a valid approximate law); the next
    coefficient is returned as the remainder.  Components below the target
    order must all be supplied: truncating a single mixed-order component in
    isolation is not an invariant.
    """
    if isinstance(integrals, FirstIntegral):
        integrals = [integrals]
    if order is None:
        order = max(I.order for I in integrals)
    eps = EPSILON
    I = sp.Add(*(F.folded(eps) for F in integrals))
    ctx = L.ctx
    accel = accelerations(L, eps)
    dI = sp.diff(I, ctx.t)
    for i in range(ctx.dimension):
        dI += sp.diff(I, ctx.xs[i]) * ctx.vs[i]
        dI += sp.diff(I, ctx.vs[i]) * accel[i]
    dI = sp.expand(sp.cancel(sp.together(dI)))
    if dI.has(eps):
        try:
            series = sp.Poly(dI, eps)
        except sp.PolynomialError:
            # rational in eps (x-dependent mass matrix): expand as a series
            expanded = sp.expand(sp.series(dI, eps, 0, order + 2).removeO())
            series = sp.Poly(expanded, eps)
    else:
        series = None
    truncation = sp.Integer(0)
    remainder = sp.Integer(0)
    if series is None:
        truncation = dI
    else:
        for (k,), coeff in series.terms():
            if k <= order:
                truncation += eps**k * coeff
            elif k == order + 1:
                remainder = coeff
    return DriftExpansion(sp.expand(truncation), sp.expand(remainder), order)
