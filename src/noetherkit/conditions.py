"""Order-by-order approximate Noether determining equations.

``residuals`` writes, per epsilon order, the metric condition, the
boundary-term gradient condition, the potential condition and the
xi-spatial-constancy condition of a generator given by its components.
``build_conditions`` calls it with unevaluated function placeholders for the
components and boundary terms, which is the system ``derive`` prints.
``verify`` and the solver call it with a concrete candidate (or the ansatz
generator), and ``recover_boundary_terms`` reads f_x and f_t off the
gradient and potential conditions with f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import sympy as sp

from .context import Context
from .geometry import derivative_table, lie_matrix, lie_scalar
from .lagrangian import ApproximateGenerator, ModelError, PerturbedLagrangian
from .normal import DEFAULT_SEED, ZeroResult, is_zero

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


@dataclass(frozen=True)
class DeterminingSystem:
    equations: tuple[Equation, ...]


def residuals(ctx: Context, parts: Sequence, xi: Sequence, eta: Sequence[Sequence],
              f: Sequence, d: Callable) -> tuple[Equation, ...]:
    """Determining equations of the generator (xi_A, eta_A^i, f_A), A = 0..n.

    Order 0 constrains (xi_0, eta_0, f_0) against (g, V0) = ``parts[0]``;
    each order gamma >= 1 couples (xi_{gamma-1}, eta_{gamma-1}) with
    (xi_gamma, eta_gamma) through (h, V1) = ``parts[1]`` and (g, V0).  Terms
    of order eps^{n+1} and beyond are discarded.  Only ``+``, ``-``, ``*`` and
    the derivation ``d(e, v)`` touch the inputs, so this runs on expressions
    (with ``derivative_table``) and on the solver's ring elements alike.
    """
    t, xs = ctx.t, ctx.xs
    n = ctx.dimension
    eqs: list[Equation] = []
    for gamma in range(len(xi)):
        # (kinetic matrix, potential, generator order) of each part of L at eps^gamma
        terms = [(*parts[0], gamma)] + ([(*parts[1], gamma - 1)] if gamma >= 1 else [])
        metric = [[0] * n] * n
        gradient = [-d(f[gamma], x) for x in xs]
        potential = d(f[gamma], t)
        for m, V, A in terms:
            xi_t = d(xi[A], t)
            lie = lie_matrix(m, eta[A], xs, d)
            metric = [[metric[i][j] + lie[i][j] - xi_t * m[i][j] for j in range(n)]
                      for i in range(n)]
            for j in range(n):
                gradient[j] += sum(m[i][j] * d(eta[A][i], t) for i in range(n))
            potential += lie_scalar(V, eta[A], xs, d) + xi_t * V + xi[A] * d(V, t)
        for i in range(n):
            for j in range(i, n):
                eqs.append(Equation(gamma, KIND_METRIC, (i, j), metric[i][j]))
        for j in range(n):
            eqs.append(Equation(gamma, KIND_GRADIENT, (j,), gradient[j]))
        eqs.append(Equation(gamma, KIND_POTENTIAL, (), potential))
        for k in range(n):
            eqs.append(Equation(gamma, KIND_XI_CONSTANT, (k,), d(xi[gamma], xs[k])))
    return tuple(eqs)


def build_conditions(L: PerturbedLagrangian) -> DeterminingSystem:
    """Determining equations for orders 0..n, with the generator components
    and boundary terms as unevaluated function placeholders."""
    ctx = L.ctx
    args = (ctx.t, *ctx.xs)
    orders = range(L.order + 1)
    xi = [sp.Function(f"xi{A}")(*args) for A in orders]
    eta = [[sp.Function(f"eta{A}_{i}")(*args) for i in range(ctx.dimension)] for A in orders]
    f = [sp.Function(f"f{A}")(*args) for A in orders]
    return DeterminingSystem(residuals(ctx, L.parts, xi, eta, f, derivative_table()))


def candidate_residuals(L: PerturbedLagrangian,
                        X: ApproximateGenerator) -> tuple[Equation, ...]:
    """The determining equations of a candidate with boundary terms."""
    X.check_shape(L)
    if X.boundary is None:
        raise ModelError(
            f"candidate {X.name} has no boundary terms; recover them first"
        )
    return residuals(L.ctx, L.parts, [o.xi for o in X.orders], [o.eta for o in X.orders],
                     X.boundary, derivative_table())


# -- prolongation ---------------------------------------------------------


class VelocityError(ValueError):
    """A velocity symbol appeared where only (t, x) dependence is allowed."""


def total_time_derivative(e: sp.Expr, ctx: Context) -> sp.Expr:
    """d/dt along trajectories: f_{,t} + f_{,k} xdot^k for f = f(t, x)."""
    e = sp.sympify(e)
    bad = e.free_symbols & set(ctx.vs)
    if bad:
        raise VelocityError(
            f"total time derivative is first-order only; velocities {sorted(map(str, bad))} present"
        )
    out = sp.diff(e, ctx.t)
    for x, v in zip(ctx.xs, ctx.vs):
        out += sp.diff(e, x) * v
    return out


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
        residuals.append(r)
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
    *,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check a candidate against every determining equation.

    Classified "exact" when all orders above zero vanish identically (the
    zeroth-order part alone satisfies the full system), otherwise
    "approximate of order n".
    """
    verdicts = [EquationVerdict(eq, is_zero(eq.lhs, seed=seed))
                for eq in candidate_residuals(L, X)]
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
    return VerificationReport(tuple(verdicts), classification)


# -- boundary-term recovery ----------------------------------------------


def recover_boundary_terms(
    L: PerturbedLagrangian,
    X: ApproximateGenerator,
    *,
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
    # with f = 0 the gradient conditions are f_x and the potential condition is -f_t
    eqs = candidate_residuals(L, X.with_boundary([0] * (L.order + 1)))
    # closure of the candidate differential: d/db(f_a) = d/da(f_b) for the pairs
    # (t, x_j), then (x_j, x_k) for k > j, for each j
    pairs = [p for j, x in enumerate(xs) for p in ((t, x), *((x, y) for y in xs[j + 1:]))]
    out = []
    for gamma in range(L.order + 1):
        f_x = [eq.lhs for eq in eqs if eq.order == gamma and eq.kind == KIND_GRADIENT]
        f_t = -next(eq.lhs for eq in eqs if eq.order == gamma and eq.kind == KIND_POTENTIAL)
        grad = dict(zip((t, *xs), (f_t, *f_x)))
        for a, b in pairs:
            mixed = sp.diff(grad[a], b) - sp.diff(grad[b], a)
            if not is_zero(mixed, seed=seed).vanishes_numerically:
                raise IncompatibleError(f"order {gamma}: d/d{b}(f_{a}) != d/d{a}(f_{b})")
        f = sp.Integer(0)
        for x, f_xj in zip(xs, f_x):
            f += sp.integrate(f_xj - sp.diff(f, x), x)
        f += sp.integrate(f_t - sp.diff(f, t), t)
        out.append(constant_free(sp.expand(sp.cancel(sp.together(f))), ctx))
    return tuple(out)


def constant_free(f: sp.Expr, ctx: Context) -> sp.Expr:
    """f without its part free of t, x and xdot, which is gauge in a boundary term;
    exp(t + 1) stays one term, not E*exp(t)."""
    varying = {ctx.t, *ctx.xs, *ctx.vs}
    return sp.Add(*(_joined_exp(term)
                    for term in sp.Add.make_args(sp.expand(f, power_exp=False))
                    if term.free_symbols & varying))


def _joined_exp(term: sp.Expr) -> sp.Expr:
    """term with the constant factors that sympy's cancel and integrate split off an
    exponent joined back: E*x*exp(t) is x*exp(t + 1)."""
    factors = sp.Mul.make_args(term)
    powers = [m.as_base_exp()[1] for m in factors if m.as_base_exp()[0] == sp.E]
    if len(powers) < 2 or not any(e.is_number for e in powers):
        return term
    return sp.Mul(*(m for m in factors if m.as_base_exp()[0] != sp.E), sp.exp(sp.Add(*powers)))
