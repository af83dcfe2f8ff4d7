import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from noetherkit import (
    ApproximateGenerator,
    GeneratorOrder,
    first_integral,
    hamiltonian,
    symbolic_drift,
    total_integral,
)
from noetherkit.conservation import EPSILON, FirstIntegral, NumericOnly, accelerations
from noetherkit.lagrangian import ModelError
from noetherkit.normal import is_zero
from noetherkit.parsing import parse

from conftest import flat_lagrangian
from test_conditions import CROSS_G, CROSS_H, CROSS_MONOMIALS, CROSS_V, cross_route_solution


def gen(name, xi, eta, f=None):
    orders = tuple(GeneratorOrder(x, (e,) if not isinstance(e, tuple) else e)
                   for x, e in zip(xi, eta))
    return ApproximateGenerator(name, orders, None if f is None else tuple(f))


class TestHamiltonian:
    def test_oscillator(self, oscillator):
        v = oscillator.ctx.vs[0]
        x = oscillator.ctx.xs[0]
        assert sp.expand(hamiltonian(oscillator, "zeroth") - (v**2 / 2 + x**2 / 2)) == 0
        assert hamiltonian(oscillator, "first") == 0

    def test_inverse_square(self, inverse_square):
        ctx = inverse_square.ctx
        t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
        a, b = ctx.symbol("a"), ctx.symbol("b")
        assert sp.expand(hamiltonian(inverse_square, "zeroth") - (v**2 / 2 - a / x**2)) == 0
        assert sp.expand(hamiltonian(inverse_square, "first") + b * x**2 / (2 * t**2)) == 0

    def test_bad_part(self, oscillator):
        with pytest.raises(ValueError):
            hamiltonian(oscillator, "second")


class TestFirstIntegral:
    def test_scaling_integral(self, inverse_square):
        # Z5 = 2t dt + x dx: I0 = 2 t H0 - x xdot, exactly conserved
        ctx = inverse_square.ctx
        t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
        Z5 = gen("Z5", (2 * t, 0), (x, 0), (0, 0))
        I0 = first_integral(inverse_square, Z5, 0)
        expected = 2 * t * hamiltonian(inverse_square, "zeroth") - x * v
        assert sp.expand(I0.expr - expected) == 0
        assert I0.epsilon_power == 0

    def test_order1_component_couples_previous_order(self, inverse_square):
        ctx = inverse_square.ctx
        t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
        Z1 = gen("Z1", (0, 2 * t), (0, x), (0, 0))
        I1 = first_integral(inverse_square, Z1, 1)
        # xi_0 = 0, so no H1 coupling; I1 = 2 t H0 - x xdot
        expected = 2 * t * hamiltonian(inverse_square, "zeroth") - x * v
        assert sp.expand(I1.expr - expected) == 0
        assert I1.epsilon_power == 1

    def test_time_translation_gives_hamiltonian(self, inverse_square):
        Z6 = gen("Z6", (0, 1), (0, 0), (0, 0))
        I1 = first_integral(inverse_square, Z6, 1)
        assert sp.expand(I1.expr - hamiltonian(inverse_square, "zeroth")) == 0

    def test_rejects_unverified(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        bad = gen("bad", (0, t**3), (0, x), (0, 0))
        with pytest.raises(ModelError):
            first_integral(inverse_square, bad, 0)

    def test_requires_boundary(self, inverse_square):
        Z6 = gen("Z6", (0, 1), (0, 0))
        with pytest.raises(ModelError):
            first_integral(inverse_square, Z6, 0)

    def test_total_components(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        Z3 = gen("Z3", (0, t**2), (0, t * x), (0, x**2 / 2))
        comps = total_integral(inverse_square, Z3)
        assert [c.order for c in comps] == [0, 1]
        assert comps[0].expr == 0  # trivial zeroth order


class TestAccelerations:
    def test_flat_perturbed_potential(self, henon_heiles):
        ctx = henon_heiles.ctx
        x, y = ctx.xs
        ax, ay = accelerations(henon_heiles)
        assert sp.expand(ax + x + EPSILON * 2 * x * y) == 0
        assert sp.expand(ay + y + EPSILON * (x**2 - y**2)) == 0

    def test_position_dependent_mass(self):
        from noetherkit import Context, Metric, PerturbedLagrangian
        ctx = Context(("x",))
        x, v = ctx.xs[0], ctx.vs[0]
        g = Metric.from_rows(ctx, [["1"]])
        h = Metric.from_rows(ctx, [[x**2]])
        L = PerturbedLagrangian(ctx, g, h, 0, 0)
        a, = accelerations(L)
        # (1 + eps x^2) a = -eps x v^2 + ... ; check against direct EL
        t = ctx.t
        lag = v**2 / 2 + EPSILON * x**2 * v**2 / 2
        xfun = sp.Function("xf")(t)
        el = sp.diff(lag.subs({x: xfun, v: sp.diff(xfun, t)}), xfun) - sp.diff(
            sp.diff(lag.subs({x: xfun, v: sp.diff(xfun, t)}), sp.diff(xfun, t)), t
        )
        solved = sp.solve(el, sp.diff(xfun, t, 2))[0]
        direct = solved.subs({sp.diff(xfun, t): v, xfun: x})
        assert sp.simplify(a - direct) == 0

    def test_singular_mass(self):
        from noetherkit import Context, Metric, PerturbedLagrangian
        ctx = Context(("x",))
        g = Metric.from_rows(ctx, [["0"]])
        h = Metric.from_rows(ctx, [["0"]])
        L = PerturbedLagrangian(ctx, g, h, ctx.xs[0], 0)
        with pytest.raises(NumericOnly):
            accelerations(L)


class TestSymbolicDrift:
    def test_exact_symmetry_drifts_zero(self, inverse_square):
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        Z5 = gen("Z5", (2 * t, 0), (x, 0), (0, 0))
        comps = total_integral(inverse_square, Z5)
        drift = symbolic_drift(inverse_square, comps)
        assert drift.truncation_is_zero

    def test_mixed_order_total_is_invariant(self, inverse_square):
        # Z2 mixes orders: only the folded total drifts to zero through eps^1
        ctx = inverse_square.ctx
        t, x = ctx.t, ctx.xs[0]
        b = ctx.symbol("b")
        Z2 = gen("Z2", (-1 / b, 2 * sp.log(t)), (0, x / t), (0, -(x**2) / (2 * t**2)))
        comps = total_integral(inverse_square, Z2)
        drift = symbolic_drift(inverse_square, comps)
        assert drift.truncation_is_zero

    def test_single_order_component(self, inverse_square):
        ctx = inverse_square.ctx
        Z6 = gen("Z6", (0, 1), (0, 0), (0, 0))
        I1 = first_integral(inverse_square, Z6, 1)
        drift = symbolic_drift(inverse_square, I1)
        assert drift.truncation_is_zero

    def test_remainder_nonzero_for_rotation(self, henon_heiles):
        ctx = henon_heiles.ctx
        x, y = ctx.xs
        Zrot = gen("Zrot", (0, 0), ((0, 0), (y, -x)), (0, 0))
        comps = total_integral(henon_heiles, Zrot)
        drift = symbolic_drift(henon_heiles, comps)
        assert drift.truncation_is_zero
        assert not is_zero(drift.remainder)
        assert drift.order == 1

    def test_drift_linearity(self, henon_heiles):
        ctx = henon_heiles.ctx
        x, y = ctx.xs
        Zt = gen("Zt", (1, 0), ((0, 0), (0, 0)), (0, 0))
        Zrot = gen("Zrot", (0, 0), ((0, 0), (y, -x)), (0, 0))
        It = total_integral(henon_heiles, Zt)
        Ir = total_integral(henon_heiles, Zrot)
        both = symbolic_drift(henon_heiles, It + Ir)
        dt_ = symbolic_drift(henon_heiles, It)
        dr = symbolic_drift(henon_heiles, Ir)
        assert sp.expand(both.remainder - dt_.remainder - dr.remainder) == 0

    def test_rational_mass_series_path(self):
        from noetherkit import Context, Metric, PerturbedLagrangian
        ctx = Context(("x",))
        x = ctx.xs[0]
        g = Metric.from_rows(ctx, [["1"]])
        h = Metric.from_rows(ctx, [[x**2]])
        L = PerturbedLagrangian(ctx, g, h, 0, 0)
        Zt = gen("Zt", (1, 0), (0, 0), (0, 0))
        comps = total_integral(L, Zt)
        drift = symbolic_drift(L, comps)
        assert drift.truncation_is_zero

    def test_kinetic_perturbation(self, monkeypatch):
        """h = diag(1, 2) makes M = g + eps h rational in eps, and the Neumann series
        expands its inverse with neither sp.series nor the exact accelerations.
        M^-1 = diag(1/(1+eps), 1/(1+2 eps)), so for J = x ydot - y xdot,
        dJ/dt = x y'' - y x'' = eps (x y - x^3 + 2 x y^2) + O(eps^2)."""
        import noetherkit.conservation as conservation
        from noetherkit import AnsatzSpec, Context, Metric, PerturbedLagrangian, solve
        ctx = Context(("x", "y"))
        t, (x, y) = ctx.t, ctx.xs
        L = PerturbedLagrangian(ctx, Metric.from_rows(ctx, [[1], [0, 1]]),
                                Metric.from_rows(ctx, [[1], [0, 2]]),
                                (x**2 + y**2) / 2, x**2 * y, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("the drift left the Neumann series")

        monkeypatch.setattr(sp, "series", refuse)
        monkeypatch.setattr(conservation, "accelerations", refuse)
        basis = solve(L, AnsatzSpec((sp.Integer(1), t), 1))
        assert len(basis.generators) == 3
        for X in basis.generators:
            assert symbolic_drift(L, total_integral(L, X)).truncation_is_zero, X.name
        rotation = gen("Zrot", (0, 0), ((0, 0), (y, -x)), (0, 0))
        drift = symbolic_drift(L, total_integral(L, rotation))
        assert drift.truncation_is_zero
        assert sp.expand(drift.remainder - (-x**3 + 2 * x * y**2 + x * y)) == 0

    def test_truncation_decided_with_callers_tol_and_seed(self, monkeypatch, henon_heiles):
        """The seed is the caller's and the tolerance is the fixed normal.TOLERANCE: a
        tolerance passed in, by keyword or in the seed's old position, is a TypeError."""
        import noetherkit.conservation as conservation
        calls = []

        def recording(e, *, seed=None):
            calls.append(seed)
            return is_zero(e, seed=seed)

        monkeypatch.setattr(conservation, "is_zero", recording)
        Zt = gen("Zt", (1, 0), ((0, 0), (0, 0)), (0, 0))
        comps = total_integral(henon_heiles, Zt, assume_verified=True)
        drift = symbolic_drift(henon_heiles, comps, seed=5)
        assert calls == [5]
        assert drift.truncation_is_zero is True
        with pytest.raises(TypeError):
            symbolic_drift(henon_heiles, comps, tol=1e-7, seed=5)
        with pytest.raises(TypeError):
            symbolic_drift(henon_heiles, comps, 1e-7, 5)


def series_drift(L, integrals):
    """The reference drift: dI/dt by the exact M^-1 of ``accelerations``, expanded by
    sp.series; (whether the truncation is zero, the remainder)."""
    order = max(I.order for I in integrals)
    I = sp.Add(*(F.folded() for F in integrals))
    ctx = L.ctx
    dI = sp.diff(I, ctx.t) + sp.Add(*(sp.diff(I, x) * v + sp.diff(I, v) * a
                                      for x, v, a in zip(ctx.xs, ctx.vs, accelerations(L))))
    expanded = sp.expand(sp.series(dI, EPSILON, 0, order + 2).removeO())
    coeffs = [expanded.coeff(EPSILON, k) for k in range(order + 2)]
    truncation = sp.Add(*(EPSILON**k * c for k, c in enumerate(coeffs[:-1])))
    return bool(is_zero(truncation)), coeffs[-1]


@given(st.sampled_from(CROSS_G), st.sampled_from(CROSS_H), st.sampled_from(CROSS_V),
       st.sampled_from(CROSS_V), st.sampled_from((1, 2)), st.sampled_from(CROSS_MONOMIALS),
       st.data())
@settings(max_examples=20, deadline=None)
def test_neumann_drift_matches_series_reference(g, h, V0, V1, order, term, data):
    """On regular h != 0 Lagrangians, the Neumann drift gives the series reference's
    truncation verdict and remainder: for a solver generator's law, and for the energy
    H0 + eps H1 with a monomial times xdot added, which drifts unless the monomial and
    the potentials let it be conserved."""
    L, generators = cross_route_solution(g, h, V0, V1, order)
    ctx = L.ctx
    energy = [FirstIntegral(0, hamiltonian(L, "zeroth") + parse(term, ctx) * ctx.vs[0], "E", 0),
              *(FirstIntegral(k, hamiltonian(L, "first") if k == 1 else sp.Integer(0), "E", k)
                for k in range(1, order + 1))]
    laws = [energy]
    if generators:
        laws.append(total_integral(L, data.draw(st.sampled_from(generators)),
                                   assume_verified=True))
    for law in laws:
        drift = symbolic_drift(L, law)
        truncation_is_zero, remainder = series_drift(L, law)
        assert drift.truncation_is_zero == truncation_is_zero, law
        assert is_zero(drift.remainder - remainder), law


def test_neumann_drift_with_non_commuting_metrics():
    """g = diag(1, 2) and h = [[x, 1], [1, 0]] do not commute, so the series must keep
    g^-1 (-eps h g^-1)^k in that order to match the reference."""
    from noetherkit import Context, Metric, PerturbedLagrangian
    ctx = Context(("x", "y"))
    (x, y), (vx, vy) = ctx.xs, ctx.vs
    L = PerturbedLagrangian(ctx, Metric.from_rows(ctx, [[1], [0, 2]]),
                            Metric.from_rows(ctx, [[x], [1, 0]]), (x**2 + y**2) / 2, x * y, 2)
    law = [FirstIntegral(0, x * vy - y * vx, "J", 0), FirstIntegral(1, x * vy, "J", 1)]
    drift = symbolic_drift(L, law)
    truncation_is_zero, remainder = series_drift(L, law)
    assert drift.truncation_is_zero == truncation_is_zero
    assert remainder != 0 and is_zero(drift.remainder - remainder)
