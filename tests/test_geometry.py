import numpy as np
import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

import noetherkit.geometry
from noetherkit import (
    Context,
    HomotheticKind,
    Metric,
    SpatialVectorField,
    check_homothetic,
    lie_derivative_metric,
    solve,
    solve_homothetic,
)
from noetherkit.geometry import (
    GeometryError,
    derivative_table,
    lie_scalar,
)
from noetherkit.solver import UnsupportedEquationError


def euclidean(ctx):
    n = ctx.dimension
    return Metric.from_rows(ctx, [[sp.Integer(i == j) for j in range(i + 1)] for i in range(n)])


class TestMetric:
    def test_lower_triangle_expansion(self, ctx2):
        x, y = ctx2.xs
        m = Metric.from_rows(ctx2, [[1 + x**2], [x * y, 1]])
        assert m.entries[0, 1] == m.entries[1, 0] == x * y

    def test_rejects_time_dependence(self, ctx2):
        with pytest.raises(GeometryError):
            Metric.from_rows(ctx2, [[ctx2.t], [0, 1]])

    def test_rejects_velocity_dependence(self, ctx2):
        with pytest.raises(GeometryError):
            Metric.from_rows(ctx2, [[ctx2.vs[0]], [0, 1]])

    def test_rejects_asymmetric(self, ctx2):
        with pytest.raises(GeometryError):
            Metric(ctx2, sp.ImmutableMatrix([[1, 1], [0, 1]]))


class TestLieDerivative:
    def test_flow_pullback_oracle(self, ctx2):
        """(L_Y g) matches the finite-difference pullback along the flow."""
        x, y = ctx2.xs
        g = Metric.from_rows(ctx2, [[1 + y**2], [x * y / 2, 2 + x**2]])
        Y = SpatialVectorField(ctx2, (x * y, x - y**2))
        lie = lie_derivative_metric(g, Y)
        s = 1e-4
        rng = np.random.default_rng(3)
        fy = sp.lambdify((x, y), Y.components, "numpy")
        fg = sp.lambdify((x, y), g.entries.tolist(), "numpy")
        fl = sp.lambdify((x, y), lie.tolist(), "numpy")
        dphi = [[sp.diff(x + s * Y.components[0], v) for v in (x, y)],
                [sp.diff(y + s * Y.components[1], v) for v in (x, y)]]
        fdphi = sp.lambdify((x, y), dphi, "numpy")
        for _ in range(5):
            p = rng.uniform(-1, 1, 2)
            q = p + s * np.array(fy(*p))
            J = np.array(fdphi(*p))
            pullback = J.T @ np.array(fg(*q)) @ J
            fd = (pullback - np.array(fg(*p))) / s
            assert np.allclose(fd, np.array(fl(*p)), atol=5e-3)

    def test_commutator_identity(self, ctx2):
        """L_{[Y1,Y2]} g = L_Y1 L_Y2 g - L_Y2 L_Y1 g."""
        x, y = ctx2.xs
        g = Metric.from_rows(ctx2, [[1 + x**2], [0, 1 + y**2]])
        Y1 = SpatialVectorField(ctx2, (y, x**2))
        Y2 = SpatialVectorField(ctx2, (x * y, -y))
        bracket = SpatialVectorField(ctx2, tuple(
            sp.expand(
                sum(Y1.components[k] * sp.diff(Y2.components[i], ctx2.xs[k])
                    - Y2.components[k] * sp.diff(Y1.components[i], ctx2.xs[k])
                    for k in range(2))
            )
            for i in range(2)
        ))
        lhs = lie_derivative_metric(g, bracket)
        inner12 = Metric(ctx2, lie_derivative_metric(g, Y2))
        inner21 = Metric(ctx2, lie_derivative_metric(g, Y1))
        rhs = lie_derivative_metric(inner12, Y1) - lie_derivative_metric(inner21, Y2)
        assert sp.simplify(lhs - rhs) == sp.zeros(2, 2)

    def test_scalar_directional(self, ctx2):
        x, y = ctx2.xs
        assert sp.expand(lie_scalar(x**2 + y**2, (y, -x), ctx2.xs)) == 0


T, X, Y = sp.symbols("t x y")
# placeholders as build_conditions makes them: applied to the time and every coordinate
PLACEHOLDERS = [sp.Function("xi0")(T, X, Y), sp.Function("eta0_1")(T, X, Y)]
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
    lambda f: sp.Rational(f.numerator, f.denominator))
symbols = st.sampled_from([T, X, Y])


@st.composite
def polynomials(draw):
    """A symbol plus up to two rational multiples of monomials of degree <= 2."""
    terms = draw(st.lists(st.tuples(rationals, st.lists(symbols, max_size=2)), max_size=2))
    return draw(symbols) + sp.Add(*(c * sp.Mul(*m) for c, m in terms))


def _power(pair):
    base, exponent = pair
    return base if base == 0 else base**exponent


leaves = st.one_of(
    rationals,
    symbols,
    st.sampled_from(PLACEHOLDERS),
    st.tuples(st.sampled_from([sp.sin, sp.cos, sp.exp, sp.log]), polynomials())
    .map(lambda fp: fp[0](fp[1])),
)
# sums and products are built n-ary (sp.Add(*args), sp.Mul(*args)), not by binary
# operators, so a product may keep a number beside a sum, as the residuals do
expressions = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda a: sp.Add(*a)),
        st.lists(children, min_size=2, max_size=4).map(lambda a: sp.Mul(*a)),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(_power),
    ),
    max_leaves=10,
)


@given(expressions, symbols)
@settings(max_examples=50, deadline=5_000)
def test_derivative_table_matches_diff(e, v):
    """d(e, v) equals sp.diff(e, v) in value and in structure."""
    got = derivative_table()(e, v)
    reference = sp.diff(e, v)
    assert got == reference
    assert str(got) == str(reference)


@pytest.fixture
def ring_check(monkeypatch):
    """check_homothetic with geometry.is_zero refusing every call while it runs: one
    rule, killing's ring system, decides homothetic."""
    def refuse(e, **kwargs):
        raise AssertionError(f"check_homothetic zero-tested {e}")

    def check(g, Y):
        with monkeypatch.context() as patch:
            patch.setattr(noetherkit.geometry, "is_zero", refuse)
            return check_homothetic(g, Y)

    return check


class TestCheckHomothetic:
    def test_killing_rotation(self, ctx2, ring_check):
        x, y = ctx2.xs
        res = ring_check(euclidean(ctx2), SpatialVectorField(ctx2, (y, -x)))
        assert res.kind is HomotheticKind.KILLING
        assert res.conformal_factor == 0

    def test_homothety(self, ctx2, ring_check):
        x, y = ctx2.xs
        res = ring_check(euclidean(ctx2), SpatialVectorField(ctx2, (x, y)))
        assert res.kind is HomotheticKind.HOMOTHETIC
        assert res.conformal_factor == 1

    def test_not_homothetic(self, ctx2, ring_check):
        x, y = ctx2.xs
        res = ring_check(euclidean(ctx2), SpatialVectorField(ctx2, (x**2, 0)))
        assert res.kind is HomotheticKind.NOT_HOMOTHETIC
        assert res.residual is not None
        assert not res.ok

    def test_criterion_4_factors(self, ring_check):
        """The spatial factors of acceptance criterion 4's solver generators, on h = 0
        fixtures, are homothetic."""
        from test_acceptance import _spatial_factors, problem
        for name in ("case2_solver.json", "case5.json", "free_particle.json"):
            p = problem(name)
            factors = _spatial_factors(p, solve(p.L, p.ansatz))
            assert factors
            for Y in factors:
                assert ring_check(p.L.g, Y).ok, Y.components

    def test_dimension_mismatch(self, ctx2):
        ctx3 = Context(("x", "y", "z"))
        with pytest.raises(GeometryError, match="dimension mismatch"):
            check_homothetic(euclidean(ctx2), SpatialVectorField(ctx3, ctx3.xs))

    def test_non_conformal_fractional_metric_unsupported(self, ring_check):
        """killing exits 3 on diag(sqrt(x), 1), and so does the check of a field on it."""
        ctx = Context(("x", "y"))
        x, _ = ctx.xs
        g = Metric.from_rows(ctx, [[sp.sqrt(x)], [0, 1]])
        with pytest.raises(UnsupportedEquationError, match="non-integer power"):
            ring_check(g, SpatialVectorField(ctx, (0, 1)))


class TestSolveHomothetic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flat_counts(self, n):
        ctx = Context(tuple("xyz"[:n]))
        results = solve_homothetic(euclidean(ctx), degree=1)
        assert len(results) == n * (n + 1) // 2 + 1
        kinds = [r.kind for r in results]
        assert kinds.count(HomotheticKind.HOMOTHETIC) == 1
        # Killing fields listed first
        assert kinds == sorted(kinds, key=lambda k: k is not HomotheticKind.KILLING)

    @pytest.mark.parametrize("coords, rows", [
        ("xy", [["1"], ["0", "1"]]),
        ("xy", [["1/(x**2 + y**2)"], ["0", "1/(x**2 + y**2)"]]),
        ("x", [["exp(x)"]]),
        ("x", [["sqrt(x)"]]),
        ("xy", [["sqrt(x)"], ["0", "sqrt(x)"]]),
        ("xy", [["x**(1/2) + x**(1/2)*y"], ["0", "x**(1/2) + x**(1/2)*y"]]),
    ], ids=["euclidean", "inverse-square-conformal", "exp", "sqrt", "sqrt-conformal",
            "sqrt-conformal-sum"])
    def test_every_result_rechecks(self, coords, rows, ring_check):
        ctx = Context(tuple(coords))
        names = dict(zip(coords, ctx.xs))
        m = Metric.from_rows(ctx, [[sp.sympify(e, locals=names) for e in row] for row in rows])
        results = solve_homothetic(m, degree=2)
        assert results
        for r in results:
            check = ring_check(m, r.field)
            assert check.ok
            assert check.conformal_factor == r.conformal_factor

    def test_deterministic(self, ctx2):
        a = solve_homothetic(euclidean(ctx2), degree=1)
        b = solve_homothetic(euclidean(ctx2), degree=1)
        assert [r.field.components for r in a] == [r.field.components for r in b]

    def test_rational_metric_cleared(self):
        ctx = Context(("x",))
        x, = ctx.xs
        m = Metric.from_rows(ctx, [[1 / x**2]])
        results = solve_homothetic(m, degree=2)
        # x d_x is Killing for g = dx^2/x^2
        comps = [r.field.components[0] for r in results if r.kind is HomotheticKind.KILLING]
        assert any(sp.simplify(c - x) == 0 or sp.simplify(c + x) == 0 for c in comps)

    @pytest.mark.parametrize("entry, field, psi", [
        ("exp(x)", "1", sp.Rational(1, 2)),
        # a fractional power is a conformal factor
        ("x**(1/2)", "x", sp.Rational(5, 4)),
        ("x**(-3/2)", "x", sp.Rational(1, 4)),
    ], ids=["exp", "sqrt", "inverse-three-halves"])
    def test_one_dimensional_metric(self, entry, field, psi):
        ctx = Context(("x",))
        x, = ctx.xs
        m = Metric.from_rows(ctx, [[sp.sympify(entry, locals={"x": x})]])
        results = solve_homothetic(m, degree=2)
        assert [(r.field.components, r.conformal_factor) for r in results] == [
            ((sp.sympify(field, locals={"x": x}),), psi)]

    def test_non_conformal_fractional_metric_unsupported(self):
        # diag(sqrt(x), 1) keeps a fractional power outside any conformal factor
        ctx = Context(("x", "y"))
        x, _ = ctx.xs
        with pytest.raises(UnsupportedEquationError, match="non-integer power"):
            solve_homothetic(Metric.from_rows(ctx, [[sp.sqrt(x)], [0, 1]]), degree=1)

    def test_flat_3d_above_a_thousand_unknowns(self):
        # 3 components x C(3 + 11, 3) monomials + psi = 1093 unknowns
        results = solve_homothetic(euclidean(Context(("x", "y", "z"))), degree=11)
        kinds = [r.kind for r in results]
        assert kinds.count(HomotheticKind.KILLING) == 6
        assert kinds.count(HomotheticKind.HOMOTHETIC) == 1

    def test_bad_degree(self, ctx2):
        with pytest.raises(GeometryError):
            solve_homothetic(euclidean(ctx2), degree=0)

    def test_sizing_checked_before_any_monomial(self, ctx2, monkeypatch):
        def no_monomials(*args):
            raise AssertionError("monomials built for an oversized ansatz")

        monkeypatch.setattr(noetherkit.geometry, "_spatial_monomials", no_monomials)
        monkeypatch.setattr(noetherkit.geometry, "MAX_UNKNOWNS", 20)
        # 2 components x C(2 + 3, 2) monomials + psi = 21 unknowns
        with pytest.raises(GeometryError, match="21 unknowns exceeds the 20 limit"):
            solve_homothetic(euclidean(ctx2), degree=3)
        # a huge degree is rejected from the closed-form count alone
        with pytest.raises(GeometryError, match="sizing"):
            solve_homothetic(euclidean(ctx2), degree=10**9)
