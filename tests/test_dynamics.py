import math

import numpy as np
import sympy as sp
import pytest

from noetherkit import (
    ApproximateGenerator,
    Context,
    GeneratorOrder,
    Metric,
    PerturbedLagrangian,
    first_integral,
    hamiltonian,
    total_integral,
)
from noetherkit.conservation import EPSILON, FirstIntegral, accelerations
from noetherkit.dynamics import (
    IntegrationError,
    drift,
    evaluate_integral,
    fit_slope,
    integrate,
    scaling_exponent,
    write_csv,
)

from conftest import flat_lagrangian


def gen(name, xi, eta, f):
    orders = tuple(GeneratorOrder(x, (e,) if not isinstance(e, tuple) else e)
                   for x, e in zip(xi, eta))
    return ApproximateGenerator(name, orders, tuple(f))


def energy_integral(L):
    return FirstIntegral(0, hamiltonian(L, "zeroth"), "energy", 0)


def reference_rk4(L, initial, t_end, dt, epsilon=0.0, t_start=0.0):
    """Per-step RK4 over Python lists: the arithmetic integrate must match."""
    ctx = L.ctx
    n = ctx.dimension
    args = (ctx.t, *ctx.xs, *ctx.vs)
    eps = sp.Rational(str(epsilon))
    fns = [sp.lambdify(args, a.subs(EPSILON, eps), modules=["math"])
           for a in accelerations(L)]

    def rhs(t, y):
        return list(y[n:]) + [fn(t, *y) for fn in fns]

    steps = max(1, int(round((t_end - t_start) / dt)))
    dt = (t_end - t_start) / steps
    state = [float(v) for v in initial]
    times, states = [t_start], [state]
    t = t_start
    for k in range(steps):
        k1 = rhs(t, state)
        k2 = rhs(t + dt / 2, [s + dt / 2 * d for s, d in zip(state, k1)])
        k3 = rhs(t + dt / 2, [s + dt / 2 * d for s, d in zip(state, k2)])
        k4 = rhs(t + dt, [s + dt * d for s, d in zip(state, k3)])
        state = [
            s + dt / 6 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        t = t_start + (k + 1) * dt
        times.append(t)
        states.append(state)
    return np.array(times), np.array(states)


def reference_values(L, integrals, traj):
    """Per-point math evaluation of the folded sum of the components."""
    ctx = L.ctx
    args = (ctx.t, *ctx.xs, *ctx.vs)
    eps = sp.Rational(str(traj.epsilon))
    fns = [sp.lambdify(args, I.folded().subs(EPSILON, eps), modules=["math"])
           for I in integrals]
    return np.array([
        sum(fn(float(t), *map(float, state)) for fn in fns)
        for t, state in zip(traj.times, traj.states)
    ])


def curved_three_body():
    """Three coordinates, x-dependent g and h, and a t-dependent V1."""
    ctx = Context(("x", "y", "z"))
    t, (x, y, z) = ctx.t, ctx.xs
    g = Metric.from_rows(ctx, [[1], [0, 1], [0, 0, 1 + x**2]])
    h = Metric.from_rows(ctx, [[0], [0, y], [0, 0, 0]])
    return PerturbedLagrangian(
        ctx, g, h, (x**2 + y**2 + z**2) / 2, sp.cos(t) * x * y * z
    )


class TestEulerLagrange:
    def test_driven_oscillator(self):
        ctx = Context(("x",))
        t, x = ctx.t, ctx.xs[0]
        L = flat_lagrangian(ctx, x**2 / 2, -sp.exp(t) * x**2 / 2)
        a, = accelerations(L)
        assert sp.expand(a - (-x + EPSILON * sp.exp(t) * x)) == 0

    def test_free_particle(self):
        ctx = Context(("x",))
        L = flat_lagrangian(ctx, 0, 0)
        assert accelerations(L) == [0]

    def test_two_dimensional(self, henon_heiles):
        x, y = henon_heiles.ctx.xs
        ax, ay = accelerations(henon_heiles)
        assert sp.expand(ax + x + 2 * EPSILON * x * y) == 0
        assert sp.expand(ay + y + EPSILON * (x**2 - y**2)) == 0


class TestIntegrate:
    def test_oscillator_period(self, oscillator):
        traj = integrate(oscillator, [1.0, 0.0], 2 * math.pi, 1e-3)
        assert traj.times[-1] == pytest.approx(2 * math.pi, abs=1e-15)
        assert abs(traj.states[-1, 0] - 1.0) < 1e-9
        assert abs(traj.states[-1, 1]) < 1e-9

    def test_grid_lands_on_t_end(self, oscillator):
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.3)
        # dt is nudged so the uniform grid ends exactly at t_end
        assert traj.times[-1] == 1.0
        assert len(traj.times) == 4

    def test_energy_drift_long_run(self, oscillator):
        traj = integrate(oscillator, [1.0, 0.0], 100 * 2 * math.pi, 1e-3)
        rec = drift(oscillator, energy_integral(oscillator), traj)
        assert rec.max_abs_drift < 1e-10

    def test_step_halving_factor(self, oscillator):
        # the phase-sensitive invariant xdot cos t + x sin t sees the
        # integrator's leading fourth-order error: halving dt divides the
        # drift by about 16
        ctx = oscillator.ctx
        t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
        J = FirstIntegral(0, v * sp.cos(t) + x * sp.sin(t), "J", 0)
        t_end = 10 * 2 * math.pi
        coarse = drift(oscillator, J, integrate(oscillator, [1.0, 0.0], t_end, 2e-3))
        fine = drift(oscillator, J, integrate(oscillator, [1.0, 0.0], t_end, 1e-3))
        factor = coarse.max_abs_drift / fine.max_abs_drift
        assert 12 <= factor <= 20

    def test_time_reversal(self, henon_heiles):
        initial = [0.1, 0.1, 0.0, 0.0]
        fwd = integrate(henon_heiles, initial, 10.0, 1e-3, epsilon=0.01)
        back = integrate(
            henon_heiles, fwd.states[-1], 0.0, -1e-3, epsilon=0.01, t_start=10.0
        )
        assert np.max(np.abs(back.states[-1] - np.array(initial))) < 1e-8

    def test_bad_dt(self, oscillator):
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0, 0.0], 1.0, 0.0)
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0, 0.0], 1.0, -0.1)

    def test_bad_initial_length(self, oscillator):
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0], 1.0, 0.1)

    def test_blowup_detected(self):
        ctx = Context(("x",))
        x = ctx.xs[0]
        L = flat_lagrangian(ctx, -(x**4), 0)
        with pytest.raises(IntegrationError):
            integrate(L, [1.0, 1.0], 50.0, 0.1)

    def test_deterministic(self, oscillator):
        a = integrate(oscillator, [1.0, 0.0], 5.0, 1e-2)
        b = integrate(oscillator, [1.0, 0.0], 5.0, 1e-2)
        assert (a.states == b.states).all()


class TestStraightLineStep:
    @pytest.mark.parametrize("case", ["oscillator", "henon_heiles", "curved", "reverse"])
    def test_matches_reference_rk4(self, case, oscillator, henon_heiles):
        if case == "oscillator":
            L, run = oscillator, ([1.0, 0.0], 3.0, 1e-2)
            kwargs = {}
        elif case == "henon_heiles":
            L, run = henon_heiles, ([0.1, 0.1, 0.0, 0.05], 3.0, 1e-2)
            kwargs = {"epsilon": 0.3}
        elif case == "curved":
            L, run = curved_three_body(), ([0.3, 0.2, -0.1, 0.0, 0.1, 0.2], 2.0, 1e-2)
            kwargs = {"epsilon": 0.05, "t_start": 0.5}
        else:
            L, run = henon_heiles, ([0.1, 0.1, 0.0, 0.05], -1.0, -1e-2)
            kwargs = {"epsilon": 0.3, "t_start": 2.0}
        traj = integrate(L, *run, **kwargs)
        times, states = reference_rk4(L, *run, **kwargs)
        assert traj.states.shape == states.shape
        assert (traj.times == times).all()
        assert (traj.states == states).all()

    @pytest.mark.parametrize("field", ["t_start", "t_end", "dt", "epsilon", "initial"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_input(self, oscillator, field, value):
        run = {"initial": [1.0, 0.0], "t_end": 1.0, "dt": 0.1,
               "epsilon": 0.0, "t_start": 0.0}
        run[field] = [1.0, value] if field == "initial" else value
        with pytest.raises(IntegrationError, match="non-finite input"):
            integrate(oscillator, **run)


class TestEvaluateIntegral:
    def within_ulps(self, values, reference, ulps=4):
        return np.all(np.abs(values - reference) <= ulps * np.spacing(np.abs(reference)))

    def test_phase_invariant(self, oscillator):
        t, x, v = oscillator.ctx.t, oscillator.ctx.xs[0], oscillator.ctx.vs[0]
        J = [FirstIntegral(0, v * sp.cos(t) + x * sp.sin(t), "J", 0)]
        traj = integrate(oscillator, [1.0, 0.0], 20.0, 1e-2)
        values = evaluate_integral(oscillator, J, traj)
        assert values.shape == traj.times.shape
        assert self.within_ulps(values, reference_values(oscillator, J, traj))

    def test_exp_ln_sqrt_components(self, henon_heiles):
        # positive terms: numpy's exp and log may differ from math's by an
        # ulp, which cancellation between terms would magnify
        ctx = henon_heiles.ctx
        t, (x, y), (u, w) = ctx.t, ctx.xs, ctx.vs
        comps = [
            FirstIntegral(0, sp.exp(t / 10) * x**2 + sp.log(2 + y) * u**2, "I", 0),
            FirstIntegral(1, sp.sqrt(1 + w**2) + x**2 * y**2 / 3, "I", 1),
        ]
        traj = integrate(henon_heiles, [0.4, 0.3, 0.0, 0.1], 10.0, 1e-2, epsilon=0.2)
        values = evaluate_integral(henon_heiles, comps, traj)
        assert self.within_ulps(values, reference_values(henon_heiles, comps, traj))

    def test_constant_integral_full_length(self, oscillator):
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.1, epsilon=0.5)
        c = [FirstIntegral(1, sp.Integer(3), "c", 1)]
        values = evaluate_integral(oscillator, c, traj)
        assert values.shape == traj.times.shape
        assert (values == 1.5).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_value_names_first_time(self, oscillator):
        x = oscillator.ctx.xs[0]
        traj = integrate(oscillator, [1.0, 0.0], 3.0, 1e-2)
        bad = [FirstIntegral(0, sp.log(x), "ln", 0)]
        first = traj.times[np.argmax(traj.states[:, 0] <= 0)]
        with pytest.raises(IntegrationError, match=f"t={first}"):
            evaluate_integral(oscillator, bad, traj)


class TestScaling:
    def test_rotation_drift_scales_quadratically(self, henon_heiles):
        x, y = henon_heiles.ctx.xs
        Zrot = gen("Zrot", (0, 0), ((0, 0), (y, -x)), (0, 0))
        comps = total_integral(henon_heiles, Zrot)
        result = scaling_exponent(
            henon_heiles, comps, [0.02, 0.01, 0.005], [0.1, 0.1, 0.0, 0.0],
            t_end=20.0, dt=5e-3,
        )
        assert result.exponent == pytest.approx(2.0, abs=0.3)
        assert len(result.records) == 3

    def test_noise_floor_exclusion(self, oscillator):
        # V1 = 0: the energy stays conserved for every epsilon, so all the
        # drifts sit at the integrator floor and no slope can be fit
        result = scaling_exponent(
            oscillator, energy_integral(oscillator), [0.1, 0.01],
            [1.0, 0.0], t_end=10.0, dt=1e-2, noise_floor=1e-6,
        )
        assert result.exponent is None
        assert set(result.excluded) == {0.1, 0.01}
        assert "noise floor" in result.note

    def test_fit_slope_direct(self):
        from noetherkit.dynamics import DriftRecord
        records = [
            DriftRecord("I", 0.1, 1e-2, 1e-2, (0.0, 1.0)),
            DriftRecord("I", 0.01, 1e-4, 1e-4, (0.0, 1.0)),
        ]
        result = fit_slope(records)
        assert result.exponent == pytest.approx(2.0, abs=1e-9)

    def test_needs_two_epsilons(self, oscillator):
        with pytest.raises(ValueError):
            scaling_exponent(
                oscillator, energy_integral(oscillator), [0.1],
                [1.0, 0.0], t_end=1.0, dt=0.1,
            )


class TestCsv:
    def test_header_and_precision(self, oscillator, tmp_path):
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.25)
        path = tmp_path / "traj.csv"
        write_csv(path, oscillator, traj, {"energy": [energy_integral(oscillator)]})
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,v1,energy"
        assert len(lines) == len(traj.times) + 1
        # 17 significant digits round-trip through float exactly
        for line, t, state in zip(lines[1:], traj.times, traj.states):
            fields = [float(v) for v in line.split(",")]
            assert fields[0] == t
            assert fields[1] == state[0]
            assert fields[2] == state[1]

    def test_two_dimensional_header(self, henon_heiles, tmp_path):
        traj = integrate(henon_heiles, [0.1, 0.1, 0.0, 0.0], 1.0, 0.5, epsilon=0.01)
        path = tmp_path / "hh.csv"
        write_csv(path, henon_heiles, traj)
        assert path.read_text().splitlines()[0] == "t,x1,x2,v1,v2"
