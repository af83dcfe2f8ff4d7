import json

import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM
from sympy.simplify.fu import TR8

import noetherkit.solver

from noetherkit import (
    AnsatzSpec, Context, contains, fixture_path, load_problem, parse, solve, verify,
)
from noetherkit.cli import main
from noetherkit.conditions import IncompatibleError, candidate_residuals, recover_boundary_terms
from noetherkit.solver import (
    MAX_UNKNOWNS,
    SolverError,
    instantiate,
    nullspace,
    rational_nullspace,
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
        t = free_particle.ctx.t
        with pytest.raises(SolverError, match="independent"):
            solve(free_particle, AnsatzSpec((t, 2 * t)))

    def test_dependent_trig_basis(self, free_particle):
        t = free_particle.ctx.t
        spec = AnsatzSpec((sp.sin(t) ** 2, sp.cos(t) ** 2, sp.Integer(1)))
        with pytest.raises(SolverError, match="independent"):
            solve(free_particle, spec)

    @pytest.mark.parametrize("basis", [
        ("1", "t", "1 + t"), ("ln(t)", "ln(t^2)"), ("0",), ("t", "0"),
        ("1/t", "1/(1+t)", "1/(t*(t+1))"),
    ])
    def test_collocation_rejects_dependent(self, ctx1, basis):
        spec = AnsatzSpec(tuple(parse(b, ctx1) for b in basis))
        with pytest.raises(SolverError, match="not independent"):
            solve(flat_lagrangian(ctx1, 0, 0), spec)

    @pytest.mark.parametrize("basis", [
        ("1",), ("t^(-1)",), ("1", "t", "t^2", "ln(t)"), ("sin(t)", "cos(t)", "1"), ("t", "t^2"),
    ])
    def test_collocation_accepts_independent(self, ctx1, basis):
        solve(flat_lagrangian(ctx1, 0, 0), AnsatzSpec(tuple(parse(b, ctx1) for b in basis)))

    def test_shipped_eight_element_basis(self):
        problem = load_problem(fixture_path("case2_solver.json"))
        assert len(problem.ansatz.time_basis) == 8
        solve(problem.L, problem.ansatz)

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
        assert contains(large, small.generators) == (True,) * len(small.generators)


# 1/x, 1/x^2, x, x^2 and 1: combinations of them may repeat the f span's 1, x, x^2
INVERSE_TERMS = (-1, -2, 1, 2, 0)


class TestInversePowers:
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                    min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_redundant_entry_is_named(self, coeffs):
        """An entry that adds no function to the spans is named; otherwise no
        generator is identically zero.  Redundancy is decided here by the rank of
        x^2 times the f span's monomials (degree <= 2) and the entries."""
        free_particle = flat_lagrangian(Context(("x",)), 0, 0)
        t, x = free_particle.ctx.t, free_particle.ctx.xs[0]
        powers = [sum(c * x**k for c, k in zip(row, INVERSE_TERMS)) for row in coeffs]
        spec = AnsatzSpec((sp.Integer(1), t, t**2), 1, powers)
        numerators = [sp.Poly(sp.expand(x**2 * p), x) for p in (1, x, x**2, *powers)]
        ranks = [sp.Matrix([[q.coeff_monomial(x**k) for k in range(5)] for q in numerators[:m]])
                 .rank() for m in range(4, len(numerators) + 1)]
        redundant = next((i for i, r in enumerate(ranks) if r < i + 4), None)
        if redundant is not None:
            with pytest.raises(SolverError, match=rf"^ansatz\.inverse_powers\[{redundant}\]: "):
                solve(free_particle, spec)
            return
        basis = solve(free_particle, spec)
        assert basis.nullspace_dim == 10
        assert not any(all(o.is_trivial for o in g.orders) and not any(g.boundary)
                       for g in basis.generators)


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
        assert contains(basis, self.known(L.ctx)) == (True,) * 6

    def test_boundary_constant_is_gauge(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        shifted = gen("Z3c", (0, t**2), (0, t * x), (sp.Integer(3), x**2 / 2))
        assert contains(basis, [shifted]) == (True,)

    def test_bogus_rejected(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        assert contains(basis, [gen("bogus", (0, 0), (0, t), (0, 0)),
                                gen("outside", (0, 0), (0, sp.sin(t) * x), (0, 0))]) == (False,) * 2

    def test_free_boundary_agrees_with_given_boundary(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        candidates = self.known(L.ctx) + [
            gen("bogus", (0, 0), (0, t), (0, 0)),
            gen("outside", (0, 0), (0, sp.sin(t) * x), (0, 0)),
            gen("flipped", (0, -(t**2)), (0, t * x), (0, x**2 / 2)),
        ]
        assert contains(basis, [without_f(Z) for Z in candidates]) == contains(basis, candidates)
        assert contains(basis, [without_f(Z) for Z in self.known(L.ctx)]) == (True,) * 6

    def test_wrong_boundary_rejected_only_when_given(self, setup):
        L, basis = setup
        t, x = L.ctx.t, L.ctx.xs[0]
        wrong_f = gen("Z3f", (0, t**2), (0, t * x), (0, x**2))
        assert contains(basis, [wrong_f, without_f(wrong_f)]) == (False, True)


class TestEmptySpan:
    def test_no_solutions_reported(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        # potential with no symmetry in a constant-only ansatz
        L = flat_lagrangian(ctx, sp.exp(x) + t * x, t * x**3)
        basis = solve(L, AnsatzSpec((sp.Integer(1),), spatial_degree=0))
        assert basis.nullspace_dim == 0
        assert basis.generators == ()
        assert contains(basis, [gen("Zt", (1, 0), (0, 0), (0, 0))]) == (False,)


def corrupted(vector, entry):
    """``rational_nullspace`` with the entry-th zero entry of one vector set to 1."""
    original = noetherkit.solver.rational_nullspace

    def patched(matrix):
        null = original(matrix)
        v = list(null[vector])
        v[[c for c, a in enumerate(v) if not a][entry]] = QQ.one
        null[vector] = tuple(v)
        return null

    return patched


class TestSelfCheck:
    """nullspace checks its solutions in reduce's ring; verify's expression route
    cross-checks which generator the ring names."""

    @pytest.mark.parametrize("vector, entry", [(0, 0), (2, 5), (4, 30), (-1, 60)])
    def test_names_the_first_generator_verify_rejects(self, monkeypatch, vector, entry):
        p = load_problem(fixture_path("case5.json"))
        system = reduce(instantiate(p.L, p.ansatz))
        monkeypatch.setattr(noetherkit.solver, "rational_nullspace", corrupted(vector, entry))
        with monkeypatch.context() as unchecked:
            unchecked.setattr(noetherkit.solver, "_equations", lambda *args: ())
            generators = nullspace(system).generators
        failing = [g.name for g in generators if not verify(p.L, g).passed]
        assert failing
        with pytest.raises(SolverError, match=f"internal: solver produced {failing[0]} failing"):
            solve(p.L, p.ansatz)


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


def reference_form(e):
    """e's rational coefficients over its other factors, after sympy's product-to-sum
    (TR8) and expand to a fixed point: a canonical form apart from the ring's."""
    e = sp.expand(e)
    for _ in range(8):
        e, before = sp.expand(TR8(e)), e
        if e == before:
            break
    form = {}
    for term in sp.Add.make_args(e):
        c, key = term.as_coeff_Mul()
        form[key] = form.get(key, 0) + c
    return {k: c for k, c in form.items() if c != 0}


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
                forms[col] = reference_form(coeff)
        keys = sorted({k for form in forms.values() for k in form}, key=sp.default_sort_key)
        rows.extend([forms.get(col, {}).get(k, 0) for col in range(len(unknowns))]
                    for k in keys)
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

    def test_trig_time_basis(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, x**2 / 2, x**3)
        self.check(L, AnsatzSpec((sp.Integer(1), sp.sin(t), sp.cos(t))))

    def test_trig_products_of_time_and_space(self):
        """cos(2t) cos(x) in V1 meets sin(x) and cos(x) from V0: product-to-sum keys."""
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, -sp.cos(x), sp.cos(2 * t) * sp.cos(x))
        self.check(L, AnsatzSpec((sp.Integer(1), t)))

    def test_exp_time_basis(self):
        """exp(t/3) exp(-t/3) is 1 and exp(t/3)^2 is exp(2t/3): merged exp keys."""
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, x**2 / 2, x * sp.exp(t / 3))
        self.check(L, AnsatzSpec((sp.Integer(1), sp.exp(t / 3), sp.exp(-t / 3),
                                  sp.exp(2 * t / 3))))

    def test_exp_potential(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        self.check(flat_lagrangian(ctx, sp.exp(x) + t * x, t * x**3), AnsatzSpec((sp.Integer(1), t)))

    def test_inverse_time_and_log(self):
        """1/t and t ln t in the basis, 1/x among the monomials: ln's derivative is 1/t."""
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, -1 / x**2, x / t)
        self.check(L, AnsatzSpec((sp.Integer(1), 1 / t, t * sp.log(t)), spatial_degree=1,
                                 include_inverse_powers=(1 / x,)))

    def test_denominator_with_an_atom(self):
        """V0 = 1/(2 + cos x): the factor's derivative goes through the atom's, -sin x."""
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        self.check(flat_lagrangian(ctx, 1 / (2 + sp.cos(x)), 0), AnsatzSpec((sp.Integer(1), t)))

    def test_polynomial_potential(self):
        ctx = Context(("x",))
        x, t = ctx.xs[0], ctx.t
        L = flat_lagrangian(ctx, x**4 + x**2, t * x**3)
        self.check(L, AnsatzSpec((sp.Integer(1), t, t**2), spatial_degree=2))

    def test_symbolic_parameters(self, inverse_square):
        """Symbolic a and b stay in the rows, keyed like coordinates."""
        t = inverse_square.ctx.t
        self.check(inverse_square, AnsatzSpec((sp.Integer(1), t, t**2)))

    def test_full_case2_solver(self):
        """1/t, 1/t^2 and t^k ln t in the basis of the shipped fixture."""
        p = load_problem(fixture_path("case2_solver.json"))
        self.check(p.L, p.ansatz)


@pytest.fixture(scope="module")
def free_particle_basis():
    ctx = Context(("x",))
    t = ctx.t
    return solve(flat_lagrangian(ctx, 0, 0), AnsatzSpec((sp.Integer(1), t, t**2)))


def combination(basis, coeffs, name):
    """sum_i coeffs[i] S_i, assembled from the coefficient table."""
    return from_table(basis.ansatz, [sum(c * v[k] for c, v in zip(coeffs, basis.vectors))
                                     for k in range(len(basis.ansatz.unknowns))], name)


@pytest.fixture(scope="module")
def membership_pools(free_particle_basis, setup):
    """Per basis: candidates in and out of the span (bogus3 depends on bogus), each
    with an f-free copy, the unsupported irr last, and each one's answer alone."""
    pools = {}
    for name, basis in (("free_particle", free_particle_basis), ("inverse_square", setup[1])):
        t, x = basis.ansatz.L.ctx.t, basis.ansatz.L.ctx.xs[0]
        k = len(basis.generators)
        pool = [combination(basis, [sp.Rational((-1) ** i * (i + 1), 3) for i in range(k)], "c1"),
                combination(basis, [sp.Integer(i % 2) for i in range(k)], "c2"),
                gen("bogus", (0, 0), (0, t), (0, 0)),
                gen("bogus3", (0, 0), (0, -3 * t), (0, 0)),
                gen("outside", (0, 0), (0, sp.sin(t) * x), (0, 0)),
                gen("cubic", (t**3, 0), (0, 0), (0, 0)),
                gen("x2", (0, 0), (x**2, 0), (0, 0)),
                gen("irr", (0, 0), (sp.sqrt(2) * t, 0), (0, 0))]
        pool = [*pool[:-1], *map(without_f, pool), pool[-1]]
        pools[name] = basis, pool, tuple(contains(basis, [X])[0] for X in pool)
    return pools


class TestMembership:
    @pytest.mark.parametrize("which", ["free_particle", "inverse_square"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_batch_agrees_with_one_at_a_time(self, membership_pools, which, data):
        """Any permutation of any subset, with or without the unsupported irr mixed in,
        gets the one-element answers: one candidate cannot change another's answer."""
        basis, pool, alone = membership_pools[which]
        assert alone[:4] == (True, True, False, False) and alone[7:9] == (True, True)
        assert alone[-1] is None
        order = data.draw(st.permutations(range(len(pool) - 1)))
        chosen = order[:data.draw(st.integers(0, len(order)))]
        if data.draw(st.booleans()):
            chosen.insert(data.draw(st.integers(0, len(chosen))), len(pool) - 1)
        assert contains(basis, [pool[i] for i in chosen]) == tuple(alone[i] for i in chosen)

    @pytest.mark.parametrize("copies", [1, 4])
    def test_rings_per_solve_and_membership(self, monkeypatch, copies):
        """One ring per solve (reduce's, which also checks the ansatz and the solutions)
        and one per f-group: no ring per candidate or per zero test."""
        p = load_problem(fixture_path("case5.json"))
        rings, init = [], noetherkit.normal._Ring.__init__

        def counting(self, *args, **kwargs):
            rings.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(noetherkit.normal._Ring, "__init__", counting)
        basis = solve(p.L, p.ansatz)
        assert len(rings) == 1
        candidates = [*p.candidates * copies, *map(without_f, p.candidates)]
        assert contains(basis, candidates) == (True,) * len(candidates)
        assert len(rings) == 3

    def test_irrational_coefficient(self, free_particle_basis):
        t = free_particle_basis.ansatz.L.ctx.t
        irr = gen("irr", (0, 0), (sp.sqrt(2) * t, 0), (0, 0))
        assert contains(free_particle_basis, [irr]) == (None,)

    def test_undecided_candidate_leaves_its_group_decided(self, free_particle_basis):
        """(4t^2+4)^(1/2) - 2(t^2+1)^(1/2) + 1 is 1, but the ring has no radicals: Zx is
        undecided, with the reason, and the in-span candidate in its f-group stays True."""
        ctx = free_particle_basis.ansatz.L.ctx
        t = ctx.t
        one = parse("(4*t^2+4)^(1/2) - 2*(t^2+1)^(1/2) + 1", ctx)
        zx = ApproximateGenerator("Zx", (GeneratorOrder(0, (one,)), GeneratorOrder(0, (0,))))
        zt = ApproximateGenerator("Zt", (GeneratorOrder(1, (0,)), GeneratorOrder(0, (0,))))
        reasons = {}
        assert contains(free_particle_basis, [zx, zt], reasons) == (None, True)
        assert list(reasons) == [0] and reasons[0].startswith("non-integer power")

    def test_outside_the_ansatz(self, free_particle_basis):
        ctx = free_particle_basis.ansatz.L.ctx
        t, x = ctx.t, ctx.xs[0]
        assert contains(free_particle_basis, [gen("cubic", (t**3, 0), (0, 0), (0, 0)),
                                              gen("x2", (0, 0), (x**2, 0), (0, 0))]) == (False,) * 2

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                    min_size=10, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_rational_combinations_in_span(self, free_particle_basis, coeffs):
        basis = free_particle_basis
        X = combination(basis, [sp.Rational(c.numerator, c.denominator) for c in coeffs], "T")
        assert contains(basis, [X, without_f(X)]) == (True, True)

    def test_open_differential_without_f_out_of_span(self, oscillator):
        t, x = oscillator.ctx.t, oscillator.ctx.xs[0]
        basis = solve(oscillator, AnsatzSpec((sp.Integer(1), t), spatial_degree=2))
        open_eta = ApproximateGenerator(
            "open", (GeneratorOrder(0, (t * x**2,)), GeneratorOrder(0, (0,))))
        with pytest.raises(IncompatibleError):
            recover_boundary_terms(oscillator, open_eta)
        assert contains(basis, [open_eta]) == (False,)
        closed = ApproximateGenerator(
            "Zt", (GeneratorOrder(1, (0,)), GeneratorOrder(0, (0,))))
        assert contains(basis, [closed]) == (True,)

    def test_no_derivative_taken(self, monkeypatch):
        """Membership never differentiates: on a basis with ln t atoms its ring
        builds no derivative table."""
        p = load_problem(fixture_path("case2_solver.json"))
        basis = solve(p.L, p.ansatz)
        calls = []
        diff = sp.diff

        def spy(e, *variables, **kwargs):
            calls.append((e, variables))
            return diff(e, *variables, **kwargs)

        monkeypatch.setattr(sp, "diff", spy)
        assert contains(basis, p.candidates) == (True,) * len(p.candidates)
        assert calls == []

    @pytest.mark.parametrize("boundary", [{"f": ["0", "0"]}, {}], ids=["given-f", "free-f"])
    def test_bound_parameter_enters_as_its_value(self, tmp_path, boundary):
        """xi0 = k with k bound to 2 is 2 S2, as verify finds."""
        doc = json.loads(fixture_path("free_particle.json").read_text())
        doc["parameters"] = {"k": 2}
        doc["candidates"] = [{"name": "Zk", "xi": ["k", "0"], "eta": [["0"], ["0"]], **boundary}]
        problem, report = tmp_path / "bound.json", tmp_path / "report.json"
        problem.write_text(json.dumps(doc))
        assert main(["solve", str(problem), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["membership"] == [{"name": "Zk", "in_span": True}]
