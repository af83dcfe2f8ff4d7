import math
import random
import tracemalloc

import numpy as np
import sympy as sp
import pytest
from hypothesis import example, given, settings, strategies as st

from noetherkit import (
    ApproximateGenerator,
    Context,
    GeneratorOrder,
    Metric,
    PerturbedLagrangian,
    first_integral,
    fixture_path,
    hamiltonian,
    load_problem,
    total_integral,
)
from noetherkit import dynamics
from noetherkit.conservation import EPSILON, FirstIntegral, accelerations
from noetherkit.dynamics import (
    DriftRecord,
    IntegrationError,
    Trajectory,
    drift,
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


def reference_rows(L, initial, t_end, dt, epsilon=0.0, t_start=0.0):
    """Per-step RK4 over Python lists, one (t, state) row at a time: the
    arithmetic integrate must match."""
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
    t = t_start
    yield t, state
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
        yield t, state


def reference_rk4(L, initial, t_end, dt, epsilon=0.0, t_start=0.0):
    times, states = zip(*reference_rows(L, initial, t_end, dt, epsilon, t_start))
    return np.array(times), np.array(states)


def reference_values(L, integrals, epsilon, rows):
    """Per-point math evaluation of the folded sum of the components at each (t, state)
    row: 0.0 plus each component in order, or None where that raises or is not finite."""
    ctx = L.ctx
    args = (ctx.t, *ctx.xs, *ctx.vs)
    eps = sp.Rational(str(epsilon))
    fns = [sp.lambdify(args, I.folded().subs(EPSILON, eps), modules=["math"])
           for I in integrals]
    out = []
    for t, state in rows:
        try:
            value = 0.0
            for fn in fns:
                value = value + fn(float(t), *map(float, state))
            out.append(value if math.isfinite(value) else None)
        except (ValueError, ZeroDivisionError, OverflowError, TypeError):
            out.append(None)
    return out


def reference_numpy_values(L, integrals, traj):
    """The folded sum evaluated with numpy over a stored trajectory's whole arrays at
    once: 0.0 plus each component in order."""
    ctx = L.ctx
    args = (ctx.t, *ctx.xs, *ctx.vs)
    eps = sp.Rational(str(traj.epsilon))
    times, states = np.asarray(traj.times), np.asarray(traj.states)
    out = np.zeros(len(times))
    with np.errstate(all="ignore"):
        for I in integrals:
            fn = sp.lambdify(args, I.folded().subs(EPSILON, eps), modules="numpy")
            out = out + fn(times, *states.T)
    return out


def law_values(traj, law):
    """The stored values of one law of traj."""
    j = list(traj.laws).index(tuple(law))
    return np.asarray(traj.values)[:, j]


def states_view(states):
    """A (rows, columns) memoryview of doubles, as a stored Trajectory holds."""
    return memoryview(np.ascontiguousarray(states, dtype=float))


def bits(value):
    return float(value).hex()


def reference_failure(L, initial, t_end, dt, epsilon=0.0, t_start=0.0):
    """integrate's message for the step where reference_rows first raises,
    or for its first non-finite row."""
    dt_grid = (t_end - t_start) / max(1, int(round((t_end - t_start) / dt)))
    try:
        for k, (t, state) in enumerate(
                reference_rows(L, initial, t_end, dt, epsilon, t_start)):
            if not all(map(math.isfinite, state)):
                return f"non-finite state at step {k}, t={t_prev + dt_grid}"
            t_prev, state_prev = t, state
    except OverflowError as exc:
        return f"step {k} at t={t_prev}: {exc}; state={state_prev}"
    raise AssertionError("the reference run stays finite")


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
            henon_heiles, np.asarray(fwd.states)[-1], 0.0, -1e-3, epsilon=0.01, t_start=10.0
        )
        assert np.max(np.abs(np.asarray(back.states)[-1] - np.array(initial))) < 1e-8

    def test_bad_dt(self, oscillator):
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0, 0.0], 1.0, 0.0)
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0, 0.0], 1.0, -0.1)

    def test_step_count_bounded(self, monkeypatch, oscillator):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        assert len(integrate(oscillator, [1.0, 0.0], 1.0, 0.1).times) == 11
        with pytest.raises(IntegrationError, match="exceeds the limit of 10 per epsilon"):
            integrate(oscillator, [1.0, 0.0], 1.0, 0.09)
        # a span over dt that overflows to inf is refused the same way
        with pytest.raises(IntegrationError, match="= inf steps"):
            integrate(oscillator, [1.0, 0.0], 1e10, 1e-310)

    def test_bad_initial_length(self, oscillator):
        with pytest.raises(IntegrationError):
            integrate(oscillator, [1.0], 1.0, 0.1)

    def test_blowup_detected(self):
        # x^3 of the acceleration 4 x^3 overflows: a step raises
        ctx = Context(("x",))
        L = flat_lagrangian(ctx, -(ctx.xs[0]**4), 0)
        with pytest.raises(IntegrationError) as info:
            integrate(L, [1.0, 1.0], 50.0, 0.1)
        assert str(info.value) == reference_failure(L, [1.0, 1.0], 50.0, 0.1)

    def test_non_finite_state_detected(self):
        # 2 x overflows to inf without raising: the state turns non-finite
        ctx = Context(("x",))
        L = flat_lagrangian(ctx, -(ctx.xs[0]**2), 0)
        with pytest.raises(IntegrationError) as info:
            integrate(L, [1e300, 0.0], 20.0, 0.5)
        assert str(info.value) == reference_failure(L, [1e300, 0.0], 20.0, 0.5)

    def test_finite_state_with_overflowing_sum(self):
        """A state whose sum overflows is finite; only its entries are checked."""
        ctx = Context(("x", "y"))
        L = flat_lagrangian(ctx, 0, 0)
        traj = integrate(L, [1.7e308, 1.7e308, 1.0, 1.0], 1.0, 0.5)
        assert np.isfinite(traj.states).all()
        assert not math.isfinite(sum(np.asarray(traj.states)[-1].tolist()))

    def test_deterministic(self, oscillator):
        a = integrate(oscillator, [1.0, 0.0], 5.0, 1e-2)
        b = integrate(oscillator, [1.0, 0.0], 5.0, 1e-2)
        assert np.array_equal(a.states, b.states)


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
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)

    @pytest.mark.parametrize("field", ["t_start", "t_end", "dt", "epsilon", "initial"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_input(self, oscillator, field, value):
        run = {"initial": [1.0, 0.0], "t_end": 1.0, "dt": 0.1,
               "epsilon": 0.0, "t_start": 0.0}
        run[field] = [1.0, value] if field == "initial" else value
        with pytest.raises(IntegrationError, match="non-finite input"):
            integrate(oscillator, **run)


@st.composite
def rk4_runs(draw):
    """A polynomial two-dimensional problem and a short run, forward or backward.  From
    a huge initial state, the linear force of a quadratic V takes the state to inf and
    a power in the force of a quartic V raises OverflowError."""
    ctx = Context(("x", "y"))
    t, (x, y) = ctx.t, ctx.xs
    degree = draw(st.sampled_from([2, 4]))

    def polynomial(times):
        monomials = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
                     if 0 < i + j <= degree for k in range(times)]
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(monomials),
                                     max_size=len(monomials)))
        return sum(c * x**i * y**j * t**k for c, (i, j, k) in zip(coefficients, monomials))

    L = flat_lagrangian(ctx, polynomial(1), polynomial(2) / 2)
    scale = draw(st.sampled_from([1.0, 1e307]))
    initial = [scale * v for v in draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4))]
    steps = draw(st.integers(1, 40))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1, -0.05]))
    t_start = draw(st.sampled_from([0.0, 0.5, -1.25]))
    epsilon = draw(st.floats(-1, 1))
    return L, initial, t_start + steps * dt, dt, epsilon, t_start


def law_terms(ctx):
    """Law components along rk4_runs' trajectories: polynomials, sin, cos, exp and ln,
    shared subexpressions, and some that raise or turn non-finite on the way (ln and
    sqrt of a coordinate that changes sign, 1/x, exp of a large argument, and a product
    that overflows to inf without raising)."""
    t, (x, y), (u, w) = ctx.t, ctx.xs, ctx.vs
    return [x * y + u**2, t * x**2 - 3 * w, sp.sin(t) * x + sp.cos(y) * w**2,
            sp.exp(x / 3) * u - sp.sin(t), sp.log(2 + y**2) * sp.sin(t)**2, sp.Integer(3),
            sp.log(x), sp.sqrt(y) * sp.sin(t), 1 / x, sp.exp(300 * x**2),
            (2 + x)**600 * (2 + y)**600]


@st.composite
def law_runs(draw):
    """An rk4_runs() run and two laws, each 1 to 3 components of law_terms at epsilon
    powers 0 to 2."""
    run = draw(rk4_runs())
    terms = law_terms(run[0].ctx)
    laws = []
    for name in ("A", "B"):
        picks = draw(st.lists(st.tuples(st.sampled_from(terms), st.integers(0, 2)),
                              min_size=1, max_size=3))
        laws.append([FirstIntegral(k, e, name, p) for k, (e, p) in enumerate(picks)])
    return (*run, laws)


def henon_heiles_run():
    """Over 12305 points, components with sin, cos, exp, log and sqrt."""
    ctx = Context(("x", "y"))
    t, (x, y), (u, w) = ctx.t, ctx.xs, ctx.vs
    L = flat_lagrangian(ctx, (x**2 + y**2) / 2, x**2 * y - y**3 / 3)
    law = [FirstIntegral(0, sp.sin(t) * x * u + sp.cos(y) * w**2 - sp.sqrt(1 + u**2), "I", 0),
           FirstIntegral(1, sp.exp(t / 10) * x**2 + sp.log(2 + y) * u**2, "I", 1)]
    return L, [0.4, 0.3, 0.0, 0.1], 12.304, 1e-3, 0.2, 0.0, [law]


def oscillator_lagrangian():
    ctx = Context(("x",))
    return flat_lagrangian(ctx, ctx.xs[0]**2 / 2, 0)


def oscillator_ln_run():
    """ln x along the oscillator, which is not finite from the first x <= 0 on."""
    L = oscillator_lagrangian()
    law = [FirstIntegral(0, sp.log(L.ctx.xs[0]), "ln", 0)]
    return L, [1.0, 0.0], 3.0, 1e-2, 0.0, 0.0, [law]


class TestKernel:
    """The generated loop against reference_rk4: same trajectory, or same failure."""

    @settings(max_examples=40, deadline=None)
    @given(run=rk4_runs())
    def test_matches_reference_rk4(self, run):
        L, initial, t_end, dt, epsilon, t_start = run
        try:
            times, states = reference_rk4(L, initial, t_end, dt, epsilon, t_start)
            finite = bool(np.isfinite(states).all())
        except OverflowError:
            finite = False
        if finite:
            traj = integrate(L, initial, t_end, dt, epsilon, t_start)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
        else:
            with pytest.raises(IntegrationError) as info:
                integrate(L, initial, t_end, dt, epsilon, t_start)
            assert str(info.value) == reference_failure(L, initial, t_end, dt, epsilon,
                                                         t_start)

    @pytest.mark.parametrize("case", ["power-overflows", "state-overflows"])
    def test_blowup_in_two_dimensions(self, henon_heiles, case):
        """After many finite steps, a power in the Henon-Heiles force raises, or a linear
        force takes the state to inf."""
        if case == "power-overflows":
            L, run = henon_heiles, ([3.0, -2.0, 1.0, 0.5], 40.0, 0.1, 0.7, 1.0)
        else:
            ctx = Context(("x", "y"))
            (x, y), t = ctx.xs, ctx.t
            L = flat_lagrangian(ctx, -3 * (x**2 + y**2), x * y * t)
            run = ([1e300, -1e299, 0.0, 0.0], 40.0, 0.1, 0.5, 1.0)
        with pytest.raises(IntegrationError) as info:
            integrate(L, *run)
        assert str(info.value) == reference_failure(L, *run)
        assert not str(info.value).startswith(("step 0 ", "non-finite state at step 1,"))

    @settings(max_examples=60, deadline=None)
    @given(case=law_runs())
    @example(case=henon_heiles_run())
    @example(case=oscillator_ln_run())
    def test_laws_match_reference_values(self, case):
        """Each law's record, from the kernel and from the stored rows alike, is
        max |v - v0| and v[-1] - v0 of reference_values over reference_rk4's rows to the
        bit, and the stored values are v; or the run raises what a plain loop raises: the
        RK4 failure first, else each failing law its first bad time."""
        L, initial, t_end, dt, epsilon, t_start, laws = case
        try:
            rows = list(reference_rows(L, initial, t_end, dt, epsilon, t_start))
            finite = all(math.isfinite(v) for _, state in rows for v in state)
        except OverflowError:
            finite = False
        if not finite:
            with pytest.raises(IntegrationError) as info:
                integrate(L, initial, t_end, dt, epsilon, t_start, laws=laws, store=False)
            assert str(info.value) == reference_failure(L, initial, t_end, dt, epsilon,
                                                         t_start)
            return
        kernel = integrate(L, initial, t_end, dt, epsilon, t_start, laws=laws, store=False)
        kept = integrate(L, initial, t_end, dt, epsilon, t_start, laws=laws)
        plain = integrate(L, initial, t_end, dt, epsilon, t_start)
        assert kernel.states is None and plain.laws == {}
        for law in laws:
            values = reference_values(L, law, epsilon, rows)
            assert [bits(v) for v in law_values(kept, law)] == [
                bits(math.nan if v is None else v) for v in values]
            bad = next((t for (t, _), v in zip(rows, values) if v is None), None)
            for traj in (kernel, kept, plain):
                if bad is not None:
                    with pytest.raises(IntegrationError) as info:
                        drift(L, law, traj)
                    assert str(info.value) == \
                        f"integral evaluation failed at t={bad}: non-finite value"
                    continue
                record = drift(L, law, traj)
                assert bits(record.max_abs_drift) == bits(max(abs(v - values[0])
                                                              for v in values))
                assert bits(record.final_drift) == bits(values[-1] - values[0])


def traj_rows(traj):
    """(t, state) at each time of a stored trajectory."""
    return list(zip(traj.times, np.asarray(traj.states)))


class TestBitIdentity:
    """On the shipped simulations at 2% of t_end, every epsilon: integrate equals
    reference_rk4, and each law's values the lambdified math sum, bit for bit."""

    @pytest.mark.parametrize("fixture", ["case4", "oscillator"])
    def test_fixture(self, fixture):
        problem = load_problem(fixture_path(f"{fixture}.json"))
        L, sim = problem.L, problem.simulation
        t_end = sim.t_start + 0.02 * (sim.t_end - sim.t_start)
        laws = [total_integral(L, X, assume_verified=True)
                for X in problem.candidates if not X.quarantined]
        for eps in sim.epsilons:
            traj = integrate(L, sim.initial, t_end, sim.dt, eps, sim.t_start, laws=laws)
            times, states = reference_rk4(L, sim.initial, t_end, sim.dt, eps, sim.t_start)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
            for law in laws:
                values = reference_values(L, law, eps, zip(times, states))
                assert [bits(v) for v in law_values(traj, law)] == [bits(v) for v in values]


class TestEvaluateIntegral:
    def test_phase_invariant(self, oscillator):
        t, x, v = oscillator.ctx.t, oscillator.ctx.xs[0], oscillator.ctx.vs[0]
        J = [FirstIntegral(0, v * sp.cos(t) + x * sp.sin(t), "J", 0)]
        traj = integrate(oscillator, [1.0, 0.0], 20.0, 1e-2, laws=[J])
        values = law_values(traj, J)
        assert values.shape == (len(traj.times),)
        assert values.tolist() == reference_values(oscillator, J, 0.0, traj_rows(traj))

    def test_exp_ln_sqrt_components(self, henon_heiles):
        ctx = henon_heiles.ctx
        t, (x, y), (u, w) = ctx.t, ctx.xs, ctx.vs
        comps = [
            FirstIntegral(0, sp.exp(t / 10) * x**2 + sp.log(2 + y) * u**2, "I", 0),
            FirstIntegral(1, sp.sqrt(1 + w**2) + x**2 * y**2 / 3, "I", 1),
        ]
        traj = integrate(henon_heiles, [0.4, 0.3, 0.0, 0.1], 10.0, 1e-2, epsilon=0.2,
                         laws=[comps])
        assert law_values(traj, comps).tolist() == reference_values(
            henon_heiles, comps, 0.2, traj_rows(traj))

    def test_constant_integral_full_length(self, oscillator):
        c = [FirstIntegral(1, sp.Integer(3), "c", 1)]
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.1, epsilon=0.5, laws=[c])
        values = law_values(traj, c)
        assert values.shape == (len(traj.times),)
        assert (values == 1.5).all()

    def test_non_finite_value_names_first_time(self, oscillator):
        x = oscillator.ctx.xs[0]
        bad = [FirstIntegral(0, sp.log(x), "ln", 0)]
        traj = integrate(oscillator, [1.0, 0.0], 3.0, 1e-2, laws=[bad])
        first = traj.times[int(np.argmax(np.asarray(traj.states)[:, 0] <= 0))]
        for run in (traj, integrate(oscillator, [1.0, 0.0], 3.0, 1e-2)):
            with pytest.raises(IntegrationError) as info:
                drift(oscillator, bad, run)
            assert str(info.value) == f"integral evaluation failed at t={first}: non-finite value"


class TestBlockedEvaluation:
    """The law block: the code that evaluates the laws at each time, inside the RK4
    loop or over the stored rows."""

    def test_matches_whole_array_numpy(self, henon_heiles):
        """Over 12305 rows, every value the law block keeps equals the per-point math sum
        to the bit and lies within one ulp of the sum evaluated with numpy on the whole
        trajectory at once (numpy's vectorised sin, cos, exp and log may round a last bit
        apart from libm's); drift over the stored rows is the drift the kernel read off
        the run."""
        ctx = henon_heiles.ctx
        t, (x, y), (u, w) = ctx.t, ctx.xs, ctx.vs
        comps = [
            FirstIntegral(0, sp.sin(t) * x * u + sp.cos(y) * w**2 - sp.sqrt(1 + u**2), "I", 0),
            FirstIntegral(1, sp.exp(t / 10) * x**2 + sp.log(2 + y) * u**2, "I", 1),
        ]
        run = ([0.4, 0.3, 0.0, 0.1], 12.304, 1e-3, 0.2)
        traj = integrate(henon_heiles, *run, laws=[comps])
        assert len(traj.times) == 12305
        values = law_values(traj, comps)
        assert [bits(v) for v in values] == [
            bits(v) for v in reference_values(henon_heiles, comps, 0.2, traj_rows(traj))]
        whole = reference_numpy_values(henon_heiles, comps, traj)
        assert (np.abs(values - whole) <= np.spacing(np.abs(whole))).all()
        kernel = integrate(henon_heiles, *run, laws=[comps], store=False)
        plain = integrate(henon_heiles, *run)
        assert drift(henon_heiles, comps, kernel) == drift(henon_heiles, comps, traj) \
            == drift(henon_heiles, comps, plain)

    def test_non_finite_value_names_first_time_across_blocks(self, oscillator):
        """ln x turns non-finite many rows in; the kernel, the stored values and drift
        over stored rows all name the first such time, and the run itself completes."""
        x = oscillator.ctx.xs[0]
        bad = [FirstIntegral(0, sp.log(x), "ln", 0)]
        traj = integrate(oscillator, [1.0, 0.0], 3.0, 1e-2, laws=[bad])
        states = np.asarray(traj.states)
        k = int(np.argmax(states[:, 0] <= 0))
        assert k > 7 and len(traj.times) == 301
        first = traj.times[k]
        values = law_values(traj, bad)
        assert np.isfinite(values[:k]).all() and not np.isfinite(values[k])
        kernel = integrate(oscillator, [1.0, 0.0], 3.0, 1e-2, laws=[bad], store=False)
        plain = integrate(oscillator, [1.0, 0.0], 3.0, 1e-2)
        for run in (kernel, traj, plain):
            with pytest.raises(IntegrationError) as info:
                drift(oscillator, bad, run)
            assert str(info.value) == f"integral evaluation failed at t={first}: non-finite value"

    def test_constant_component_in_every_block(self, oscillator):
        x = oscillator.ctx.xs[0]
        comps = [FirstIntegral(0, x, "c", 0), FirstIntegral(1, sp.Integer(3), "c", 1)]
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.1, epsilon=0.5, laws=[comps])
        assert law_values(traj, comps).tolist() == reference_values(
            oscillator, comps, 0.5, traj_rows(traj))
        plain = integrate(oscillator, [1.0, 0.0], 1.0, 0.1, epsilon=0.5)
        assert drift(oscillator, comps, traj) == drift(oscillator, comps, plain)

    def test_memory_bounded_by_the_output(self, oscillator):
        """With the laws folded into the kernel and no rows stored, a run of 10^5 steps
        peaks within a few KB of a run of 10^4 steps."""
        t, x, v = oscillator.ctx.t, oscillator.ctx.xs[0], oscillator.ctx.vs[0]
        laws = [[FirstIntegral(0, v * sp.cos(t) + x * sp.sin(t), "J", 0)],
                [FirstIntegral(0, sp.exp(-t / 50) * x**2 / 2 + sp.sqrt(1 + v**2), "E", 0)]]

        def peak(steps):
            tracemalloc.start()
            try:
                traj = integrate(oscillator, [1.0, 0.0], steps * 1e-3, 1e-3, laws=laws,
                                 store=False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.states is None and len(traj.times) == steps + 1
            return peak

        peak(10**3)  # sympy's caches are filled once
        assert peak(10**5) < peak(10**4) + 4096


class TestDriftFormula:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e300])
                    | st.floats(-1e300, 1e300), min_size=1, max_size=30))
    def test_equals_max_of_absolute_deltas(self, values):
        """max(|vmax - v0|, |vmin - v0|) is max |v - v0| to the bit, ties and signed
        zeros included: the law x over stored states whose x column holds the values."""
        L = oscillator_lagrangian()
        traj = Trajectory([float(k) for k in range(len(values))],
                          states_view(np.column_stack([values, np.zeros(len(values))])), 0.1)
        record = drift(L, FirstIntegral(0, L.ctx.xs[0], "I", 0), traj)
        v = [0.0 + a for a in values]  # the law's value: 0.0 plus its component
        assert bits(record.max_abs_drift) == bits(max(abs(a - v[0]) for a in v))
        assert bits(record.final_drift) == bits(v[-1] - v[0])


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

    def test_fit_slope_matches_polyfit(self):
        """The exact least-squares slope against numpy's, on 2000 seeded random fits."""
        rng = random.Random(20260513)
        for _ in range(2000):
            logs = sorted(rng.uniform(math.log(1e-4), math.log(0.5))
                          for _ in range(rng.randint(2, 8)))
            if logs[-1] - logs[0] < 0.1:
                continue
            epsilons = [math.exp(a) for a in logs]
            power = rng.uniform(0.5, 4.0)
            drifts = [rng.uniform(0.5, 2.0) * e**power for e in epsilons]
            records = [DriftRecord("I", e, d, d, (0.0, 1.0)) for e, d in zip(epsilons, drifts)]
            result = fit_slope(records, noise_floor=0.0)
            expected = np.polyfit(np.log(epsilons), np.log(drifts), 1)[0]
            assert result.exponent == pytest.approx(expected, rel=1e-12, abs=0)

    def test_one_logarithm_of_epsilon(self):
        """Distinct epsilons whose logarithms are equal are one abscissa."""
        same = [0.01, 0.010000000000000002]
        assert same[0] != same[1] and math.log(same[0]) == math.log(same[1])
        records = [DriftRecord("I", e, d, d, (0.0, 1.0)) for e, d in zip(same, [1e-4, 2e-4])]
        result = fit_slope(records)
        assert result.exponent is None
        assert result.excluded == ()
        assert result.note == "the 2 epsilons fitted have the same logarithm; " \
                              "slope indeterminate"
        # a third abscissa determines the fit, and both equal points are in it
        third = DriftRecord("I", 0.1, 1e-2, 1e-2, (0.0, 1.0))
        result = fit_slope([*records, third])
        expected = np.polyfit(np.log([*same, 0.1]), np.log([1e-4, 2e-4, 1e-2]), 1)[0]
        assert result.exponent == pytest.approx(expected, rel=1e-12)

    def test_needs_two_epsilons(self, oscillator):
        with pytest.raises(ValueError):
            scaling_exponent(
                oscillator, energy_integral(oscillator), [0.1],
                [1.0, 0.0], t_end=1.0, dt=0.1,
            )


class TestCsv:
    def test_header_and_precision(self, oscillator, tmp_path):
        energy = [energy_integral(oscillator)]
        traj = integrate(oscillator, [1.0, 0.0], 1.0, 0.25, laws=[energy])
        path = tmp_path / "traj.csv"
        write_csv(path, oscillator, traj, {"energy": energy})
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,v1,energy"
        assert len(lines) == len(traj.times) + 1
        # 17 significant digits round-trip through float exactly
        for line, (t, state), value in zip(lines[1:], traj_rows(traj),
                                           law_values(traj, energy)):
            assert [float(v) for v in line.split(",")] == [t, state[0], state[1], value]

    def test_rows_match_per_value_format(self, oscillator, tmp_path):
        """Byte-identical to formatting each value with f"{v:.17g}", for signed zeros,
        subnormals and large values."""
        times = np.array([0.0, -0.0, 1 / 3, 5e-324, 1e22, 2.5, 1e-7])
        states = np.column_stack([times[::-1] * 7, -times / 3])
        traj = Trajectory(times.tolist(), states_view(states), 0.1)
        path = tmp_path / "traj.csv"
        write_csv(path, oscillator, traj)
        expected = "t,x1,v1\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(times, *states.T))
        assert path.read_text() == expected

    def test_two_dimensional_header(self, henon_heiles, tmp_path):
        traj = integrate(henon_heiles, [0.1, 0.1, 0.0, 0.0], 1.0, 0.5, epsilon=0.01)
        path = tmp_path / "hh.csv"
        write_csv(path, henon_heiles, traj)
        assert path.read_text().splitlines()[0] == "t,x1,x2,v1,v2"
