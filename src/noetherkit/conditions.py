"""Order-by-order approximate Noether determining equations.

The builder emits, per epsilon order, the metric condition, the
boundary-term gradient condition, the potential condition and the
xi-spatial-constancy condition, with the generator components and boundary
terms as unevaluated function placeholders.  Binding a candidate generator
turns every left-hand side into a concrete expression that the zero test can
decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import sympy as sp

from .context import Context
from .lagrangian import ApproximateGenerator, ModelError, PerturbedLagrangian
from .normal import DEFAULT_SEED, ZeroResult, ZeroStatus, is_zero
from .ops import total_time_derivative

KIND_METRIC = "metric-condition"
KIND_GRADIENT = "boundary-gradient"
KIND_POTENTIAL = "potential-condition"
KIND_XI_CONSTANT = "xi-spatial-constancy"


class IncompatibleError(ValueError):
    """No boundary term exists: the candidate differential is not closed."""


@dataclass(frozen=True)
class Equation:
    order: int
    kind: str
    component: tuple[int, ...]
    lhs: sp.Expr
    cleared_denominator: Optional[sp.Expr] = None


@dataclass(frozen=True)
class DeterminingSystem:
    L: PerturbedLagrangian
    equations: tuple[Equation, ...]

    def of_kind(self, kind: str, order: Optional[int] = None):
        return [
            e
            for e in self.equations
            if e.kind == kind and (order is None or e.order == order)
        ]


def _placeholders(L: PerturbedLagrangian):
    ctx = L.ctx
    args = (ctx.t, *ctx.xs)
    xi = [sp.Function(f"xi{A}")(*args) for A in range(L.order + 1)]
    eta = [
        [sp.Function(f"eta{A}_{i}")(*args) for i in range(ctx.dimension)]
        for A in range(L.order + 1)
    ]
    f = [sp.Function(f"f{A}")(*args) for A in range(L.order + 1)]
    return xi, eta, f


def _lie_metric(m, eta, xs):
    """Lie derivative of matrix m along the (possibly placeholder) field eta."""
    n = m.shape[0]
    out = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            s = sp.Integer(0)
            for k in range(n):
                s += eta[k] * sp.diff(m[i, j], xs[k])
                s += m[k, j] * sp.Derivative(eta[k], xs[i])
                s += m[i, k] * sp.Derivative(eta[k], xs[j])
            out[i, j] = s
    return out


def _lie_scalar(V, eta, xs):
    return sp.Add(*(eta[k] * sp.diff(V, xs[k]) for k in range(len(xs))))


def build_conditions(L: PerturbedLagrangian) -> DeterminingSystem:
    """Determining equations for orders 0..n.

    Order 0 constrains (xi_0, eta_0, f_0) against (g, V0); each order
    gamma >= 1 couples (xi_{gamma-1}, eta_{gamma-1}) with (xi_gamma,
    eta_gamma) through (h, V1) and (g, V0).  Terms of order eps^{n+1} and
    beyond are discarded.
    """
    ctx = L.ctx
    t, xs = ctx.t, ctx.xs
    n = ctx.dimension
    g, h = L.g.entries, L.h.entries
    xi, eta, f = _placeholders(L)
    eqs: list[Equation] = []

    def D(e, v):
        return sp.Derivative(e, v)

    for gamma in range(L.order + 1):
        if gamma == 0:
            metric = _lie_metric(g, eta[0], xs) - sp.Matrix(
                n, n, lambda i, j: D(xi[0], t) * g[i, j]
            )
            gradient = [
                sp.Add(*(g[i, j] * D(eta[0][i], t) for i in range(n))) - D(f[0], xs[j])
                for j in range(n)
            ]
            potential = (
                _lie_scalar(L.V0, eta[0], xs)
                + D(xi[0], t) * L.V0
                + xi[0] * sp.diff(L.V0, t)
                + D(f[0], t)
            )
        else:
            metric = (
                _lie_metric(h, eta[gamma - 1], xs)
                + _lie_metric(g, eta[gamma], xs)
                - sp.Matrix(n, n, lambda i, j: D(xi[gamma - 1], t) * h[i, j])
                - sp.Matrix(n, n, lambda i, j: D(xi[gamma], t) * g[i, j])
            )
            gradient = [
                sp.Add(*(h[i, j] * D(eta[gamma - 1][i], t) for i in range(n)))
                + sp.Add(*(g[i, j] * D(eta[gamma][i], t) for i in range(n)))
                - D(f[gamma], xs[j])
                for j in range(n)
            ]
            potential = (
                _lie_scalar(L.V1, eta[gamma - 1], xs)
                + _lie_scalar(L.V0, eta[gamma], xs)
                + xi[gamma - 1] * sp.diff(L.V1, t)
                + D(xi[gamma - 1], t) * L.V1
                + xi[gamma] * sp.diff(L.V0, t)
                + D(xi[gamma], t) * L.V0
                + D(f[gamma], t)
            )
        for i in range(n):
            for j in range(i, n):
                eqs.append(Equation(gamma, KIND_METRIC, (i, j), metric[i, j]))
        for j in range(n):
            eqs.append(Equation(gamma, KIND_GRADIENT, (j,), gradient[j]))
        eqs.append(Equation(gamma, KIND_POTENTIAL, (), potential))
        for k in range(n):
            eqs.append(
                Equation(gamma, KIND_XI_CONSTANT, (k,), D(xi[gamma], xs[k]))
            )
    return DeterminingSystem(L, tuple(eqs))


def bind(system: DeterminingSystem, X: ApproximateGenerator) -> DeterminingSystem:
    """Substitute a candidate generator (with boundary terms) into the system."""
    L = system.L
    X.check_shape(L)
    if X.boundary is None:
        raise ModelError(
            f"candidate {X.name} has no boundary terms; recover them first"
        )
    xi, eta, f = _placeholders(L)
    subs = {}
    for A in range(L.order + 1):
        subs[xi[A]] = X.orders[A].xi
        subs[f[A]] = X.boundary[A]
        for i in range(L.ctx.dimension):
            subs[eta[A][i]] = X.orders[A].eta[i]
    params = L.ctx.numeric_bindings()
    bound = []
    for eq in system.equations:
        # placeholders occur verbatim, so structural replacement binds them as subs would
        lhs = eq.lhs.xreplace(subs).doit()
        if params:
            lhs = lhs.subs(params)
        bound.append(replace(eq, lhs=lhs))
    return DeterminingSystem(L, tuple(bound))


# -- prolongation ---------------------------------------------------------


def prolong_apply(Xa: "GeneratorOrderLike", Lpart: sp.Expr, ctx: Context) -> sp.Expr:
    """Apply the first prolongation of one generator order to a Lagrangian part.

    X^[1] = xi d_t + eta^i d_i + (etadot^i - xdot^i xidot) d_{xdot^i}, with
    the dots taken as total time derivatives.
    """
    Lpart = sp.sympify(Lpart)
    vs = ctx.vs
    try:
        deg = sp.Poly(Lpart, *vs).total_degree() if Lpart.free_symbols & set(vs) else 0
    except sp.PolynomialError:
        raise ModelError("Lagrangian part is not polynomial in the velocities")
    if deg > 2:
        raise ModelError(f"velocity degree {deg} > 2 not supported")
    xi_dot = total_time_derivative(Xa.xi, ctx)
    out = Xa.xi * sp.diff(Lpart, ctx.t)
    for i, (x, v) in enumerate(zip(ctx.xs, vs)):
        eta_dot = total_time_derivative(Xa.eta[i], ctx)
        out += Xa.eta[i] * sp.diff(Lpart, x)
        out += (eta_dot - v * xi_dot) * sp.diff(Lpart, v)
    return out


def noether_residuals(
    L: PerturbedLagrangian, X: ApproximateGenerator
) -> list[sp.Expr]:
    """Per-order residuals of the raw Noether condition.

    Independent route from build_conditions: expands
    X^[1]L + L dxi/dt - df/dt in powers of eps (dropping orders beyond n)
    and returns the coefficient of each eps^gamma, gamma = 0..n.  A Noether
    symmetry makes every residual vanish identically in (t, x, xdot).
    """
    X.check_shape(L)
    if X.boundary is None:
        raise ModelError("boundary terms required")
    ctx = L.ctx
    parts = [L.L0, L.L1]
    residuals = []
    for gamma in range(L.order + 1):
        r = sp.Integer(0)
        for a in (0, 1):  # Lagrangian part index (eps power of L_a)
            A = gamma - a  # generator order contributing at this eps power
            if 0 <= A <= L.order:
                r += prolong_apply(X.orders[A], parts[a], ctx)
                r += total_time_derivative(X.orders[A].xi, ctx) * parts[a]
        r -= total_time_derivative(X.boundary[gamma], ctx)
        params = ctx.numeric_bindings()
        residuals.append(r.subs(params) if params else r)
    return residuals


# -- verification ---------------------------------------------------------


@dataclass(frozen=True)
class EquationVerdict:
    equation: Equation
    result: ZeroResult

    @property
    def passed(self) -> bool:
        # symbolically zero, or below tolerance at the seeded sample points
        return self.result.vanishes_numerically


@dataclass(frozen=True)
class VerificationReport:
    generator: ApproximateGenerator
    verdicts: tuple[EquationVerdict, ...]
    classification: str

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self):
        return [v for v in self.verdicts if not v.passed]


def verify(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
    system: Optional[DeterminingSystem] = None,
) -> VerificationReport:
    """Check a candidate against every determining equation.

    Classified "exact" when all orders above zero vanish identically (the
    zeroth-order part alone satisfies the full system), otherwise
    "approximate of order n".
    """
    if system is None:
        system = build_conditions(L)
    bound = bind(system, X)
    verdicts = []
    for eq in bound.equations:
        res = is_zero(eq.lhs, tol, seed)
        eq = replace(eq, cleared_denominator=res.cleared_denominator)
        verdicts.append(EquationVerdict(eq, res))
    higher_trivial = all(
        X.orders[A].is_trivial and X.boundary[A] == 0 for A in range(1, L.order + 1)
    )
    passed = all(v.passed for v in verdicts)
    if not passed:
        classification = "not a symmetry"
    elif higher_trivial:
        classification = "exact"
    else:
        classification = f"approximate of order {L.order}"
    return VerificationReport(X, tuple(verdicts), classification)


# -- boundary-term recovery ----------------------------------------------


def recover_boundary_terms(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
) -> tuple[sp.Expr, ...]:
    """Boundary terms f_A fixed by the gradient and potential conditions.

    The candidate differential df = f_t dt + f_j dx^j is checked for closure
    and integrated; additive constants are dropped.  Raises
    IncompatibleError (with the failing mixed-partial pair) when the
    candidate is not a Noether symmetry for any f.
    """
    X.check_shape(L)
    ctx = L.ctx
    t, xs = ctx.t, ctx.xs
    n = ctx.dimension
    g, h = L.g.entries, L.h.entries
    params = ctx.numeric_bindings()
    out = []
    for gamma in range(L.order + 1):
        xi_g = X.orders[gamma].xi
        eta_g = X.orders[gamma].eta
        f_x = [
            sp.Add(*(g[i, j] * sp.diff(eta_g[i], t) for i in range(n)))
            for j in range(n)
        ]
        f_t = -(
            _lie_scalar(L.V0, eta_g, xs)
            + sp.diff(xi_g, t) * L.V0
            + xi_g * sp.diff(L.V0, t)
        )
        if gamma >= 1:
            xi_p = X.orders[gamma - 1].xi
            eta_p = X.orders[gamma - 1].eta
            for j in range(n):
                f_x[j] += sp.Add(*(h[i, j] * sp.diff(eta_p[i], t) for i in range(n)))
            f_t -= (
                _lie_scalar(L.V1, eta_p, xs)
                + xi_p * sp.diff(L.V1, t)
                + sp.diff(xi_p, t) * L.V1
            )
        if params:
            f_x = [e.subs(params) for e in f_x]
            f_t = f_t.subs(params)
        # closure of the candidate differential
        for j in range(n):
            mixed = sp.diff(f_t, xs[j]) - sp.diff(f_x[j], t)
            if not is_zero(mixed, tol, seed).vanishes_numerically:
                raise IncompatibleError(
                    f"order {gamma}: d/d{xs[j]}(f_t) != d/dt(f_{xs[j]})"
                )
            for k in range(j + 1, n):
                mixed = sp.diff(f_x[j], xs[k]) - sp.diff(f_x[k], xs[j])
                if not is_zero(mixed, tol, seed).vanishes_numerically:
                    raise IncompatibleError(
                        f"order {gamma}: d/d{xs[k]}(f_{xs[j]}) != d/d{xs[j]}(f_{xs[k]})"
                    )
        f = sp.Integer(0)
        for j in range(n):
            residual = f_x[j] - sp.diff(f, xs[j])
            f += sp.integrate(residual, xs[j])
        residual = f_t - sp.diff(f, t)
        f += sp.integrate(residual, t)
        f = sp.expand(sp.cancel(sp.together(f)))
        f = _strip_constant(f, ctx)
        out.append(f)
    return tuple(out)


def _strip_constant(f: sp.Expr, ctx: Context) -> sp.Expr:
    varying = {ctx.t, *ctx.xs}
    terms = [term for term in sp.Add.make_args(sp.expand(f)) if term.free_symbols & varying]
    return sp.Add(*terms)
