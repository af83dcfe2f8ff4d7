import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM

import noetherkit.solver

from noetherkit import (
    AnsatzSpec, Context, contains, fixture_path, load_problem, parse, solve, verify,
)
from noetherkit.conditions import IncompatibleError, candidate_residuals, recover_boundary_terms
from noetherkit.normal import normalize
from noetherkit.solver import (
    MAX_UNKNOWNS,
    SolverError,
    instantiate,
    nullspace,
    rational_nullspace,
    rational_solve,
    reduce,
)
from noetherkit.lagrangian import ApproximateGenerator, GeneratorOrder

from conftest import flat_lagrangian


def gen(name, xi, eta, f):
    orders = tuple(GeneratorOrder(x, (e,) if not isinstance(e, tuple) else e)
                   for x, e in zip(xi, eta))
    return ApproximateGenerator(name, orders, tuple(f))


def without_f(X):
    """The same candidate with its boundary terms left free."""
    return ApproximateGenerator(X.name, X.orders)


@pytest.fixture
def free_particle():
    ctx = Context(("x",))
    return flat_lagrangian(ctx, 0, 0)


@pytest.fixture
def quadratic_spec():
    t = sp.Symbol("t", real=True)
    return AnsatzSpec((sp.Integer(1), t, t**2), spatial_degree=1)


class TestInstantiate:
    def test_free_particle_unknown_count(self, free_particle, quadratic_spec):
        ansatz = instantiate(free_particle, quadratic_spec)
        # 2 orders x 3 time basis x (1 xi + 1*2 eta + 3 f) = 36, less the
        # constant boundary function of each order, which is gauge
        assert len(ansatz.unknowns) == 34
        assert ansatz.constants == 2
        assert not any(c.fn.is_number for c in ansatz.columns if c.slot[0] == "f")

    def test_sizing_counts_the_unknowns_made(self, free_particle, quadratic_spec,
                                             monkeypatch):
        """The closed-form count leaves out the constant boundary functions."""
        monkeypatch.setattr(noetherkit.solver, "MAX_UNKNOWNS", 34)
        assert len(instantiate(free_particle, quadratic_spec).unknowns) == 34
        monkeypatch.setattr(noetherkit.solver, "MAX_UNKNOWNS", 33)
        with pytest.raises(SolverError, match="34 unknowns exceeds the 33 limit"):
            instantiate(free_particle, quadratic_spec)

    def test_sizing_abort(self, free_particle):
        t = sp.Symbol("t", real=True)
        big = AnsatzSpec(tuple(t**k for k in range(500)), spatial_degree=4)
        with pytest.raises(SolverError, match="sizing"):
            instantiate(free_particle, big)

    def test_sizing_counted_before_monomials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("monomials enumerated before the sizing check")

        monkeypatch.setattr(noetherkit.solver, "_spatial_monomials", refuse)
        L = flat_lagrangian(Context(("x", "y", "z")), 0, 0)
        huge = AnsatzSpec((sp.Integer(1),), spatial_degree=10**6)
        with pytest.raises(SolverError, match="sizing"):
            instantiate(L, huge)

    def test_symbolic_parameter_in_basis_rejected(self, inverse_square):
        t = inverse_square.ctx.t
        a = inverse_square.ctx.symbol("a")
        with pytest.raises(SolverError, match="symbolic"):
            instantiate(inverse_square, AnsatzSpec((sp.Integer(1), a * t)))

    def test_unknown_symbol_in_basis_rejected(self, free_particle):
        with pytest.raises(SolverError):
            instantiate(free_particle, AnsatzSpec((sp.Symbol("q"),)))


class TestAnsatzSpec:
    def test_empty_basis(self):
        with pytest.raises(SolverError):
            AnsatzSpec(())

    def test_dependent_basis(self, free_particle):
        t = sp.Symbol("t", real=True)
        spec = AnsatzSpec((t, 2 * t))
        with pytest.raises(SolverError, match="independent"):
            spec.check_independent(t)

    def test_dependent_trig_basis(self):
        t = sp.Symbol("t", real=True)
        spec = AnsatzSpec((sp.sin(t) ** 2, sp.cos(t) ** 2, sp.Integer(1)))
        with pytest.raises(SolverError, match="independent"):
            spec.check_independent(t)

    @pytest.mark.parametrize("basis", [
        ("1", "t", "1 + t"), ("ln(t)", "ln(t^2)"), ("0",), ("t", "0"),
    ])
    def test_collocation_rejects_dependent(self, ctx1, basis):
        t = ctx1.t
        spec = AnsatzSpec(tuple(parse(b, ctx1) for b in basis))
        with pytest.raises(SolverError, match="not independent"):
            spec.check_independent(t)

    @pytest.mark.parametrize("basis", [
        ("1",), ("t^(-1)",), ("1", "t", "t^2", "ln(t)"), ("sin(t)", "cos(t)", "1"), ("t", "t^2"),
    ])
    def test_collocation_accepts_independent(self, ctx1, basis):
        AnsatzSpec(tuple(parse(b, ctx1) for b in basis)).check_independent(ctx1.t)

    def test_shipped_eight_element_basis(self):
        problem = load_problem(fixture_path("case2_solver.json"))
        assert len(problem.ansatz.time_basis) == 8
        problem.ansatz.check_independent(problem.L.ctx.t)

    def test_negative_degree(self):
        t = sp.Symbol("t", real=True)
        with pytest.raises(SolverError):
            AnsatzSpec((t,), spatial_degree=-1)


class TestFreeParticle:
    def test_dimension_and_order_split(self, free_particle, quadratic_spec):
        basis = solve(free_particle, quadratic_spec)
        assert basis.nullspace_dim == 10
        lows = [g.lowest_order for g in basis.generators]
        assert lows.count(0) == 5
        assert lows.count(1) == 5
        # ordered by lowest order first
        assert lows == sorted(lows)

    def test_generators_verify(self, free_particle, quadratic_spec):
        basis = solve(free_particle, quadratic_spec)
        for g in basis.generators:
            assert verify(free_particle, g).passed

    def test_deterministic(self, free_particle, quadratic_spec):
        a = solve(free_particle, quadratic_spec)
        b = solve(free_particle, quadratic_spec)
        assert [g.name for g in a.generators] == [g.name for g in b.generators]
        assert a.vectors == b.vectors

    def test_span_invariance_under_basis_extension(self, free_particle):
        t = sp.Symbol("t", real=True)
        small = solve(free_particle, AnsatzSpec((sp.Integer(1), t)))
        large = solve(free_particle, AnsatzSpec((sp.Integer(1), t, t**2)))
        for g in small.generators:
            assert contains(large, g)


@pytest.fixture(scope="module")
def setup():
    ctx = Context(("x",))
    L = flat_lagrangian(ctx, -1 / ctx.xs[0] ** 2, -ctx.xs[0] ** 2 / (2 * ctx.t**2))
    t = ctx.t
    spec = AnsatzSpec(
        (sp.Integer(1), t, t**2, 1 / t, 1 / t**2,
         sp.log(t), t * sp.log(t), t**2 * sp.log(t)),
        spatial_degree=1,
    )
    return L, solve(L, spec)


class TestInverseSquareNumeric:
    """V0 = -1/x^2, V1 = -x^2/(2 t^2): six-dimensional approximate algebra."""

    def test_dimension(self, setup):
        _, basis = setup
        assert basis.nullspace_dim == 6

    def known(self, ctx):
        t, x = ctx.t, ctx.xs[0]
        return [
            gen("Z1", (0, 2 * t), (0, x), (0, 0)),
            gen("Z2", (-1, 2 * sp.log(t)), (0, x / t), (0, -(x**2) / (2 * t**2))),
            gen("Z3", (0, t**2), (0, t * x), (0, x**2 / 2)),
            gen("Z4", (t**2 / 2, t**2 * (sp.log(t) - sp.Rational(1, 2))),
                (t * x / 2, t * x * sp.log(t)),
                (x**2 / 4, x**2 * (sp.log(t) + 1) / 2)),
            gen("Z5", (2 * t, 0), (x, 0), (0, 0)),
            gen("Z6", (0, 1), (0, 0), (0, 0)),
        ]

    def test_known_symmetries_in_span(self, setup):
        L, basis = setup
        for Z in self.known(L.ctx):
            assert contains(basis, Z), Z.name

    def test_boundary_constant_is_gauge(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        shifted = gen("Z3c", (0, t**2), (0, t * x), (sp.Integer(3), x**2 / 2))
        assert contains(basis, shifted)

    def test_bogus_rejected(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        assert not contains(basis, gen("bogus", (0, 0), (0, t), (0, 0)))
        assert not contains(basis, gen("outside", (0, 0), (0, sp.sin(t) * x), (0, 0)))

    def test_free_boundary_agrees_with_given_boundary(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        candidates = self.known(L.ctx) + [
            gen("bogus", (0, 0), (0, t), (0, 0)),
            gen("outside", (0, 0), (0, sp.sin(t) * x), (0, 0)),
            gen("flipped", (0, -(t**2)), (0, t * x), (0, x**2 / 2)),
        ]
        for Z in candidates:
            assert contains(basis, without_f(Z)) == contains(basis, Z), Z.name
        for Z in self.known(L.ctx):
            assert contains(basis, without_f(Z)), Z.name

    def test_wrong_boundary_rejected_only_when_given(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        wrong_f = gen("Z3f", (0, t**2), (0, t * x), (0, x**2))
        assert not contains(basis, wrong_f)
        assert contains(basis, without_f(wrong_f))


class TestEmptySpan:
    def test_no_solutions_reported(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        # potential with no symmetry in a constant-only ansatz
        L = flat_lagrangian(ctx, sp.exp(x) + t * x, t * x**3)
        basis = solve(L, AnsatzSpec((sp.Integer(1),), spatial_degree=0))
        assert basis.nullspace_dim == 0
        assert basis.generators == ()
        assert not contains(basis, gen("Zt", (1, 0), (0, 0), (0, 0)))


@st.composite
def sparse_rational_matrices(draw):
    """A dense list of rows, mostly zeros, up to 8 x 10; zero rows and no rows included."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    rows = [[QQ.zero] * ncols for _ in range(nrows)]
    if nrows:
        entries = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                            st.fractions(-4, 4, max_denominator=5))
        for i, j, v in draw(st.lists(entries, max_size=20)):
            rows[i][j] = QQ(v.numerator, v.denominator)
    return rows, ncols


def reference_rref(rows):
    """The nonzero rows of sympy's dense rref, or [] for no rows."""
    if not rows:
        return []
    R, pivots = sp.Matrix(rows).rref()
    return R[: len(pivots), :].tolist()


class TestExactKernel:
    """The sparse QQ kernel against dense sympy Matrix arithmetic."""

    @given(sparse_rational_matrices())
    @settings(max_examples=25, deadline=2000)
    def test_nullspace(self, matrix):
        rows, ncols = matrix
        null = rational_nullspace(SDM.from_list(rows, (len(rows), ncols), QQ))
        ref = sp.Matrix(len(rows), ncols, [QQ.to_sympy(v) for row in rows for v in row])
        expected = reference_rref([list(v) for v in ref.nullspace()])
        assert [[QQ.to_sympy(v) for v in vec] for vec in null] == expected

    @given(sparse_rational_matrices(), st.booleans(), st.data())
    @settings(max_examples=25, deadline=2000)
    def test_solve(self, matrix, consistent, data):
        rows, ncols = matrix
        A = sp.Matrix(len(rows), ncols, [QQ.to_sympy(v) for row in rows for v in row])

        def vector(size):
            values = data.draw(st.lists(st.fractions(-4, 4, max_denominator=5),
                                        min_size=size, max_size=size))
            return sp.Matrix(size, 1, [sp.Rational(f.numerator, f.denominator) for f in values])

        # a consistent target is a combination of the columns
        b = A * vector(ncols) if consistent else vector(len(rows))
        columns = [{i: rows[i][k] for i in range(len(rows)) if rows[i][k]}
                   for k in range(ncols)]
        x = rational_solve(columns, {i: QQ.from_sympy(v) for i, v in enumerate(b) if v})
        if x is None:
            assert A.row_join(b).rank() > A.rank()
        else:
            dense = [QQ.to_sympy(x.get(k, QQ.zero)) for k in range(ncols)]
            assert A * sp.Matrix(ncols, 1, dense) == b


def from_table(ansatz, vec, name="T"):
    """The generator sum_c vec_c * fn_c, assembled from the coefficient table."""
    comp = {}
    for c, column in zip(vec, ansatz.columns):
        comp[column.slot] = comp.get(column.slot, 0) + c * column.fn
    orders = range(ansatz.L.order + 1)
    dim = ansatz.L.ctx.dimension
    return ApproximateGenerator(
        name,
        tuple(GeneratorOrder(sp.expand(comp[("xi", A, 0)]),
                             tuple(sp.expand(comp[("eta", A, i)]) for i in range(dim)))
              for A in orders),
        tuple(sp.expand(comp[("f", A, 0)]) for A in orders),
    )


def reference_matrix(ansatz):
    """Rows assembled with one numer.diff(u) per unknown and equation."""
    unknowns = ansatz.unknowns
    rows = []
    for eq in candidate_residuals(ansatz.L, from_table(ansatz, unknowns)):
        numer = sp.expand(sp.fraction(sp.together(eq.lhs))[0])
        forms = {}
        for col, u in enumerate(unknowns):
            coeff = numer.diff(u)
            if coeff != 0:
                forms[col] = normalize(coeff)
        keys = sorted({k for form in forms.values() for k, _ in form.terms},
                      key=sp.default_sort_key)
        rows.extend(
            [dict(forms[col].terms).get(k, 0) if col in forms else 0
             for col in range(len(unknowns))]
            for k in keys
        )
    return sp.Matrix(rows)


class TestOnePassAssembly:
    def check(self, L, spec):
        ansatz = instantiate(L, spec)
        fast = sp.Matrix(reduce(ansatz).matrix.to_list())
        slow = reference_matrix(ansatz)
        assert fast.shape == slow.shape
        assert fast.rref()[0] == slow.rref()[0]

    def test_free_particle(self, free_particle, quadratic_spec):
        self.check(free_particle, quadratic_spec)

    def test_inverse_powers(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, -1 / x**2 + x**2, -x**2 / (2 * t**2) + x / t)
        self.check(L, AnsatzSpec((sp.Integer(1), t), spatial_degree=1,
                                 include_inverse_powers=(1 / x,)))

    def test_order_two(self):
        ctx = Context(("x",))
        x = ctx.xs[0]
        L = flat_lagrangian(ctx, x**2 / 2 + x**3, x**4 + ctx.t * x, order=2)
        self.check(L, AnsatzSpec((sp.Integer(1), ctx.t), spatial_degree=1))

    def test_polynomial_denominator(self):
        """case5's equations carry 1/(x^2 + y^2) and its powers; time basis (1, t)."""
        p = load_problem(fixture_path("case5.json"))
        self.check(p.L, AnsatzSpec((sp.Integer(1), p.ctx.t), p.ansatz.spatial_degree,
                                   p.ansatz.include_inverse_powers))


@pytest.fixture(scope="module")
def free_particle_basis():
    ctx = Context(("x",))
    t = ctx.t
    return solve(flat_lagrangian(ctx, 0, 0), AnsatzSpec((sp.Integer(1), t, t**2)))


class TestMembership:
    def test_irrational_coefficient(self, free_particle_basis):
        t = free_particle_basis.ansatz.L.ctx.t
        assert not contains(free_particle_basis, gen("irr", (0, 0), (sp.sqrt(2) * t, 0), (0, 0)))

    def test_outside_the_ansatz(self, free_particle_basis):
        ctx = free_particle_basis.ansatz.L.ctx
        t, x = ctx.t, ctx.xs[0]
        assert not contains(free_particle_basis, gen("cubic", (t**3, 0), (0, 0), (0, 0)))
        assert not contains(free_particle_basis, gen("x2", (0, 0), (x**2, 0), (0, 0)))

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                    min_size=10, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_rational_combinations_in_span(self, free_particle_basis, coeffs):
        basis = free_particle_basis
        combo = [
            sum(sp.Rational(c.numerator, c.denominator) * vec[k]
                for c, vec in zip(coeffs, basis.vectors))
            for k in range(len(basis.ansatz.unknowns))
        ]
        X = from_table(basis.ansatz, combo)
        assert contains(basis, X)
        assert contains(basis, without_f(X))

    def test_open_differential_without_f_out_of_span(self, oscillator):
        t, x = oscillator.ctx.t, oscillator.ctx.xs[0]
        basis = solve(oscillator, AnsatzSpec((sp.Integer(1), t), spatial_degree=2))
        open_eta = ApproximateGenerator(
            "open", (GeneratorOrder(0, (t * x**2,)), GeneratorOrder(0, (0,))))
        with pytest.raises(IncompatibleError):
            recover_boundary_terms(oscillator, open_eta)
        assert not contains(basis, open_eta)
        closed = ApproximateGenerator(
            "Zt", (GeneratorOrder(1, (0,)), GeneratorOrder(0, (0,))))
        assert contains(basis, closed)
