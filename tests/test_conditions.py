import functools

import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st
from sympy.core.function import AppliedUndef

from noetherkit import (
    AnsatzSpec,
    ApproximateGenerator,
    Context,
    GeneratorOrder,
    Metric,
    PerturbedLagrangian,
    build_conditions,
    fixture_path,
    load_problem,
    parse,
    recover_boundary_terms,
    noether_residuals,
    solve,
    verify,
)
from noetherkit.conditions import (
    IncompatibleError,
    KIND_GRADIENT,
    KIND_METRIC,
    KIND_POTENTIAL,
    KIND_XI_CONSTANT,
    candidate_residuals,
)
from noetherkit.lagrangian import ModelError
from noetherkit.normal import ZeroStatus, is_zero
from noetherkit.solver import _generator, instantiate

from conftest import flat_lagrangian


def gen(name, xi, eta, f=None):
    orders = tuple(GeneratorOrder(x, (e,) if not isinstance(e, tuple) else e)
                   for x, e in zip(xi, eta))
    return ApproximateGenerator(name, orders, None if f is None else tuple(f))


class TestBuildConditions:
    def test_counts_1d_order1(self, inverse_square):
        system = build_conditions(inverse_square)
        assert len(system.equations) == 8
        for kind in (KIND_METRIC, KIND_GRADIENT, KIND_POTENTIAL, KIND_XI_CONSTANT):
            assert len([e for e in system.equations if e.kind == kind]) == 2
            assert len([e for e in system.equations if e.kind == kind and e.order == 0]) == 1

    def test_counts_2d_order2(self, ctx2):
        x, y = ctx2.xs
        L = flat_lagrangian(ctx2, (x**2 + y**2) / 2, x * y, order=2)
        system = build_conditions(L)
        # per order: 3 metric (upper triangle), 2 gradient, 1 potential, 2 xi
        assert len(system.equations) == 3 * 8
        assert len([e for e in system.equations
                    if e.kind == KIND_METRIC and e.order == 2]) == 3

    def test_placeholders_unevaluated(self, inverse_square):
        system = build_conditions(inverse_square)
        assert any(eq.lhs.atoms(sp.Derivative) for eq in system.equations)

    def test_metric_from_another_context(self, ctx1, inverse_square):
        g = Metric.from_rows(ctx1, [["1"]])
        with pytest.raises(ModelError, match="context"):
            PerturbedLagrangian(inverse_square.ctx, g, inverse_square.h, 0, 0)

    def test_bind_requires_boundary(self, inverse_square):
        """A candidate is checked with its boundary terms, never without."""
        Z = gen("Z", ("0", "1"), ("0", "0"))
        with pytest.raises(ModelError):
            verify(inverse_square, Z)


ALL_FIXTURES = [
    "case1.json", "case1_order2.json", "case2.json", "case2_solver.json", "case3.json",
    "case4.json", "case5.json", "free_particle.json", "ndim.json", "oscillator.json",
]


def placeholder_route(L, X):
    """Reference: the placeholder system with the candidate substituted.

    build_conditions, then xreplace of every placeholder, doit, and the
    numeric parameters substituted.
    """
    ctx = L.ctx
    args = (ctx.t, *ctx.xs)
    subs = {}
    for A, o in enumerate(X.orders):
        subs[sp.Function(f"xi{A}")(*args)] = o.xi
        subs[sp.Function(f"f{A}")(*args)] = X.boundary[A]
        for i, e in enumerate(o.eta):
            subs[sp.Function(f"eta{A}_{i}")(*args)] = e
    params = ctx.numeric_bindings()
    out = []
    for eq in build_conditions(L).equations:
        lhs = eq.lhs.xreplace(subs).doit()
        out.append(lhs.subs(params) if params else lhs)
    return out


def plain_diff_residuals(L, xi, eta, f):
    """Reference: the determining equations with every derivative taken by sp.diff.

    Written out term by term as conditions.residuals builds them, without its
    derivative table.
    """
    ctx = L.ctx
    t, xs = ctx.t, ctx.xs
    n = ctx.dimension
    eqs = []
    for gamma in range(L.order + 1):
        parts = [(L.g.entries, L.V0, gamma)]
        if gamma >= 1:
            parts.append((L.h.entries, L.V1, gamma - 1))
        metric = sp.zeros(n, n)
        gradient = [-sp.diff(f[gamma], x) for x in xs]
        potential = sp.diff(f[gamma], t)
        for m, V, A in parts:
            xi_t = sp.diff(xi[A], t)
            lie = sp.zeros(n, n)
            for i in range(n):
                for j in range(n):
                    s = sp.Integer(0)
                    for k in range(n):
                        s += eta[A][k] * sp.diff(m[i, j], xs[k])
                        s += m[k, j] * sp.diff(eta[A][k], xs[i])
                        s += m[i, k] * sp.diff(eta[A][k], xs[j])
                    lie[i, j] = s
            metric += lie - xi_t * m
            for j in range(n):
                gradient[j] += sp.Add(*(m[i, j] * sp.diff(eta[A][i], t) for i in range(n)))
            potential += (sp.Add(*(eta[A][k] * sp.diff(V, xs[k]) for k in range(n)))
                          + xi_t * V + xi[A] * sp.diff(V, t))
        eqs.extend((gamma, KIND_METRIC, (i, j), metric[i, j])
                   for i in range(n) for j in range(i, n))
        eqs.extend((gamma, KIND_GRADIENT, (j,), gradient[j]) for j in range(n))
        eqs.append((gamma, KIND_POTENTIAL, (), potential))
        eqs.extend((gamma, KIND_XI_CONSTANT, (k,), sp.diff(xi[gamma], xs[k]))
                   for k in range(n))
    return eqs


def with_boundary_terms(L, X):
    if X.boundary is not None:
        return X
    try:
        return X.with_boundary(recover_boundary_terms(L, X))
    except IncompatibleError:
        return X.with_boundary([0] * (L.order + 1))


def assert_same_equations(eqs, reference):
    assert [(eq.order, eq.kind, eq.component) for eq in eqs] == [r[:3] for r in reference]
    assert [eq.lhs for eq in eqs] == [r[3] for r in reference]
    assert [str(eq.lhs) for eq in eqs] == [str(r[3]) for r in reference]


class TestOneOperator:
    """Equations of a concrete generator equal the bound placeholder system."""

    def check(self, L, X):
        direct = [eq.lhs for eq in candidate_residuals(L, X)]
        reference = placeholder_route(L, X)
        assert direct == reference
        assert [str(e) for e in direct] == [str(e) for e in reference]

    @pytest.mark.parametrize("fixture", ALL_FIXTURES)
    def test_fixture_candidates(self, fixture):
        p = load_problem(fixture_path(fixture))
        for X in p.candidates:
            self.check(p.L, with_boundary_terms(p.L, X))

    @pytest.mark.parametrize("fixture", ALL_FIXTURES)
    def test_placeholder_system_matches_plain_diff(self, fixture):
        L = load_problem(fixture_path(fixture)).L
        ctx = L.ctx
        args = (ctx.t, *ctx.xs)
        orders = range(L.order + 1)
        xi = [sp.Function(f"xi{A}")(*args) for A in orders]
        eta = [[sp.Function(f"eta{A}_{i}")(*args) for i in range(ctx.dimension)]
               for A in orders]
        f = [sp.Function(f"f{A}")(*args) for A in orders]
        assert_same_equations(build_conditions(L).equations,
                              plain_diff_residuals(L, xi, eta, f))

    @pytest.mark.parametrize("fixture", ALL_FIXTURES)
    def test_candidates_match_plain_diff(self, fixture):
        p = load_problem(fixture_path(fixture))
        params = p.ctx.numeric_bindings()
        for X in p.candidates:
            X = with_boundary_terms(p.L, X)
            reference = plain_diff_residuals(p.L, [o.xi for o in X.orders],
                                             [o.eta for o in X.orders], X.boundary)
            if params:
                reference = [(*r[:3], r[3].subs(params)) for r in reference]
            assert_same_equations(candidate_residuals(p.L, X), reference)

    @pytest.mark.parametrize("fixture", ["free_particle.json", "case2_solver.json", "case5.json"])
    def test_solver_template(self, fixture):
        p = load_problem(fixture_path(fixture))
        ansatz = instantiate(p.L, p.ansatz)
        self.check(p.L, _generator(ansatz, "ansatz", ansatz.unknowns))


class TestDerivativeTable:
    """One residuals call differentiates each (expression, variable) pair once."""

    @pytest.mark.parametrize("fixture", ["ndim.json", "case1_order2.json"])
    def test_each_pair_differentiated_once(self, fixture, monkeypatch):
        p = load_problem(fixture_path(fixture))
        candidates = [with_boundary_terms(p.L, X) for X in p.candidates]
        calls = {"diff": [], "Derivative": []}

        def spy(name, original):
            def wrapped(e, *variables, **kwargs):
                calls[name].append((e, variables))
                return original(e, *variables, **kwargs)
            return wrapped

        monkeypatch.setattr(sp, "diff", spy("diff", sp.diff))
        monkeypatch.setattr(sp, "Derivative", spy("Derivative", sp.Derivative))
        runs = [lambda: build_conditions(p.L)]
        runs += [lambda X=X: candidate_residuals(p.L, X) for X in candidates]
        for k, run in enumerate(runs):
            for log in calls.values():
                log.clear()
            run()
            pairs = calls["diff"] + calls["Derivative"]
            assert pairs and len(pairs) == len(set(pairs))
            # placeholders get their Derivative directly, never sp.diff's chain rule
            assert not any(isinstance(e, AppliedUndef) for e, _ in calls["diff"])
            assert bool(calls["Derivative"]) == (k == 0)


class TestVerifyInverseSquare:
    """Known symmetries of L = xdot^2/2 + a/x^2 + eps*b*x^2/(2*t^2)."""

    def z(self, name, ctx):
        t, x = ctx.t, ctx.xs[0]
        b = ctx.symbol("b")
        table = {
            "Z1": ((0, 2 * t), (0, x), (0, 0)),
            "Z2": ((-1 / b, 2 * sp.log(t)), (0, x / t), (0, -(x**2) / (2 * t**2))),
            "Z3": ((0, t**2), (0, t * x), (0, x**2 / 2)),
            "Z5": ((2 * t, 0), (x, 0), (0, 0)),
            "Z6": ((0, 1), (0, 0), (0, 0)),
        }
        xi, eta, f = table[name]
        return gen(name, xi, eta, f)

    @pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z5", "Z6"])
    def test_known_symmetries_pass(self, inverse_square, name):
        report = verify(inverse_square, self.z(name, inverse_square.ctx))
        assert report.passed, [v.equation.kind for v in report.failures()]

    def test_z5_exact(self, inverse_square):
        report = verify(inverse_square, self.z("Z5", inverse_square.ctx))
        assert report.classification == "exact"

    def test_z1_approximate(self, inverse_square):
        report = verify(inverse_square, self.z("Z1", inverse_square.ctx))
        assert report.classification == "approximate of order 1"

    def test_sign_flipped_scaling_fails(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        b = ctx.symbol("b")
        bad = gen("Z2bad", (1 / b, 2 * sp.log(t)), (0, x / t), (0, -(x**2) / (2 * t**2)))
        report = verify(inverse_square, bad)
        assert not report.passed
        assert report.classification == "not a symmetry"

    def test_metric_failure_carries_witness(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        broken = gen("broken", (2 * t, 0), (x**2, 0), (0, 0))
        report = verify(inverse_square, broken)
        metric_fail = [v for v in report.failures() if v.equation.kind == KIND_METRIC]
        assert metric_fail
        assert metric_fail[0].result.status is ZeroStatus.NONZERO
        assert metric_fail[0].result.witness is not None


# regular (g != 0) one-dimensional Lagrangians with h != 0 and polynomial
# potentials, for the cross-route property
CROSS_G = ("1", "2", "1 + x^2")
CROSS_H = ("1", "x", "x^2")
CROSS_V = ("0", "x", "x^2/2", "t*x", "x^3")
CROSS_MONOMIALS = ("1", "t", "x", "t*x", "x^2")


@functools.lru_cache(maxsize=None)
def cross_route_solution(g, h, V0, V1, order):
    """The Lagrangian and its solver generators over the time basis (1, t)."""
    ctx = Context(("x",))
    g, h, V0, V1 = (parse(e, ctx) for e in (g, h, V0, V1))
    L = PerturbedLagrangian(ctx, Metric.from_rows(ctx, [[g]]), Metric.from_rows(ctx, [[h]]),
                            V0, V1, order)
    return L, solve(L, AnsatzSpec((sp.Integer(1), ctx.t))).generators


def perturbed(X, slot, A, term):
    """X with ``term`` added to its xi, eta or f at order A."""
    orders, f = list(X.orders), list(X.boundary)
    xi, (eta,) = orders[A].xi, orders[A].eta
    if slot == "xi":
        orders[A] = GeneratorOrder(xi + term, (eta,))
    elif slot == "eta":
        orders[A] = GeneratorOrder(xi, (eta + term,))
    else:
        f[A] += term
    return ApproximateGenerator(f"{X.name}+{term}", tuple(orders), tuple(f))


class TestDualRoute:
    """verify() and the raw-prolongation residuals must agree."""

    def residual_zero(self, L, X):
        return [bool(is_zero(r)) for r in noether_residuals(L, X)]

    def test_passing_candidate(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        Z3 = gen("Z3", (0, t**2), (0, t * x), (0, x**2 / 2))
        assert verify(inverse_square, Z3).passed
        assert all(self.residual_zero(inverse_square, Z3))

    def test_failing_candidate(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        bad = gen("bad", (0, t**2), (0, 2 * t * x), (0, x**2 / 2))
        assert not verify(inverse_square, bad).passed
        assert not all(self.residual_zero(inverse_square, bad))

    def test_oscillator_time_translation(self, oscillator):
        Z = gen("Zt", (1, 0), (0, 0), (0, 0))
        assert verify(oscillator, Z).passed
        assert all(self.residual_zero(oscillator, Z))

    @given(st.sampled_from(CROSS_G), st.sampled_from(CROSS_H), st.sampled_from(CROSS_V),
           st.sampled_from(CROSS_V), st.sampled_from((1, 2)), st.data())
    @settings(max_examples=25, deadline=10_000)
    def test_cross_route_on_random_regular_lagrangians(self, g, h, V0, V1, order, data):
        """verify passes exactly when every raw Noether residual expands to 0.

        The candidates are the solver's generators and one of them perturbed
        by a monomial; every input is polynomial, so expand decides the
        residuals exactly.
        """
        L, generators = cross_route_solution(g, h, V0, V1, order)
        candidates = list(generators)
        if generators:
            X = data.draw(st.sampled_from(generators))
            coeff = data.draw(st.sampled_from((1, -2, sp.Rational(1, 3))))
            term = coeff * parse(data.draw(st.sampled_from(CROSS_MONOMIALS)), L.ctx)
            slot = data.draw(st.sampled_from(("xi", "eta", "f")))
            candidates.append(perturbed(X, slot, data.draw(st.integers(0, order)), term))
        for X in candidates:
            vanish = all(sp.expand(r) == 0 for r in noether_residuals(L, X))
            assert verify(L, X).passed == vanish, X


class TestBoundaryRecovery:
    def test_z3_boundary(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        Z3 = gen("Z3", (0, t**2), (0, t * x))
        f = recover_boundary_terms(inverse_square, Z3)
        assert f[0] == 0
        assert sp.expand(f[1] - x**2 / 2) == 0

    def test_z2_boundary(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        b = ctx.symbol("b")
        Z2 = gen("Z2", (-1 / b, 2 * sp.log(t)), (0, x / t))
        f = recover_boundary_terms(inverse_square, Z2)
        assert f[0] == 0
        assert sp.cancel(f[1] + x**2 / (2 * t**2)) == 0

    def test_time_dependent_shift(self):
        from noetherkit import Context
        ctx = Context(("x",))
        t, x = ctx.t, ctx.xs[0]
        L = flat_lagrangian(ctx, x**2 / 2, -sp.exp(t) * x**2 / 2)
        Z6 = gen("Z6", (0, 0), (0, sp.sin(t)))
        f = recover_boundary_terms(L, Z6)
        assert f[0] == 0
        assert sp.expand(f[1] - x * sp.cos(t)) == 0
        assert verify(L, Z6.with_boundary(f)).passed

    def test_recovered_terms_verify(self, henon_heiles):
        ctx = henon_heiles.ctx
        t = ctx.t
        Z5x = gen("Z5x", (0, 0), ((0, 0), (sp.sin(t), 0)))
        f = recover_boundary_terms(henon_heiles, Z5x)
        assert verify(henon_heiles, Z5x.with_boundary(f)).passed

    def test_incompatible(self, oscillator):
        ctx = oscillator.ctx
        t, x = ctx.t, ctx.xs[0]
        bad = gen("bad", (0, 0), (t * x**2, 0))
        with pytest.raises(IncompatibleError) as err:
            recover_boundary_terms(oscillator, bad)
        assert "d/dt" in str(err.value)

    def test_constants_stripped(self, oscillator):
        # eta = cos(t) gives f = -x*sin(t) with no floating constant
        ctx = oscillator.ctx
        t, x = ctx.t, ctx.xs[0]
        Z = gen("Z", (0, 0), (sp.cos(t), 0))
        f = recover_boundary_terms(oscillator, Z)
        assert sp.expand(f[0] + x * sp.sin(t)) == 0
        assert f[1] == 0
