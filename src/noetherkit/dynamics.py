"""Equations of motion, fixed-step RK4 integration, and drift measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .conservation import EPSILON, FirstIntegral, NumericOnly, accelerations
from .lagrangian import PerturbedLagrangian


# RK4 steps allowed per integration (one epsilon); checked before any allocation
MAX_STEPS = 10**7
# write_csv converts this many rows at a time to Python floats
CSV_BLOCK_ROWS = 4096


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2n): x then xdot
    epsilon: float


@dataclass(frozen=True)
class DriftRecord:
    name: str
    epsilon: float
    max_abs_drift: float
    final_drift: float
    t_span: tuple[float, float]


def _step_function(L: PerturbedLagrangian, epsilon: float):
    """One RK4 step as straight-line scalar code: step(t, dt, *state) -> state.

    The generated source keeps the arithmetic of the textbook update with
    stages k, l, p, q (``s + dt / 2 * k``, ``s + dt / 2 * l``, ``s + dt * p``,
    then ``s + dt / 6 * (k + 2 * l + 2 * p + q)``) operation for operation,
    so trajectories are bit-identical to a loop over lists; only the list and
    call overhead is gone.
    """
    ctx = L.ctx
    n = ctx.dimension
    try:
        accel = accelerations(L)
    except NumericOnly as exc:
        raise IntegrationError(
            f"mass matrix not symbolically invertible: {exc}"
        ) from exc
    eps = sp.Rational(str(epsilon))
    args = (ctx.t, *ctx.xs, *ctx.vs)
    namespace = {
        f"a{i}": sp.lambdify(args, a.subs(EPSILON, eps), modules=["math"])
        for i, a in enumerate(accel)
    }
    m = 2 * n
    s = [f"s{j}" for j in range(m)]
    y = [f"y{j}" for j in range(m)]

    def stage(k, t, state):
        # k0..k{m-1} = derivative of `state` at time t
        return [f"    {k}{j} = {state[n + j]}" for j in range(n)] + [
            f"    {k}{n + i} = a{i}({t}, {', '.join(state)})" for i in range(n)
        ]

    def shifted(h, k):
        return [f"    y{j} = s{j} + {h} * {k}{j}" for j in range(m)]

    lines = [
        f"def step(t, dt, {', '.join(s)}):",
        "    h = dt / 2",
        "    th = t + h",
        *stage("k", "t", s), *shifted("h", "k"),
        *stage("l", "th", y), *shifted("h", "l"),
        *stage("p", "th", y), *shifted("dt", "p"),
        *stage("q", "t + dt", y),
        "    h = dt / 6",
        *(f"    s{j} = s{j} + h * (k{j} + 2 * l{j} + 2 * p{j} + q{j})"
          for j in range(m)),
        f"    return ({', '.join(s)},)",
    ]
    exec("\n".join(lines), namespace)
    return namespace["step"]


def integrate(
    L: PerturbedLagrangian,
    initial: Sequence[float],
    t_end: float,
    dt: float,
    epsilon: float = 0.0,
    t_start: float = 0.0,
) -> Trajectory:
    """Classical fixed-step RK4 from t_start to t_end.

    Deterministic bit-for-bit given identical inputs; aborts on a non-finite
    input or state.  Negative dt is allowed for reverse integration
    (t_end < t_start).
    """
    n = L.ctx.dimension
    state = tuple(float(v) for v in initial)
    if not all(map(math.isfinite, (t_start, t_end, dt, epsilon, *state))):
        raise IntegrationError(
            f"non-finite input: t_start={t_start}, t_end={t_end}, dt={dt}, "
            f"epsilon={epsilon}, initial={list(state)}"
        )
    if dt == 0:
        raise IntegrationError("dt must be nonzero")
    if (t_end - t_start) * dt <= 0:
        raise IntegrationError("dt sign must match the integration direction")
    if len(state) != 2 * n:
        raise IntegrationError(f"initial state needs {2*n} entries, got {len(state)}")
    span = (t_end - t_start) / dt  # may overflow to inf
    if span > MAX_STEPS:
        raise IntegrationError(
            f"(t_end - t_start) / dt = {span:g} steps exceeds the limit of {MAX_STEPS} per epsilon"
        )
    step = _step_function(L, epsilon)
    steps = max(1, int(round(span)))
    # keep the grid uniform AND land exactly on t_end
    dt = (t_end - t_start) / steps
    times = np.empty(steps + 1)
    states = np.empty((steps + 1, 2 * n))
    times[0] = t_start
    states[0] = state
    isfinite = math.isfinite
    t = t_start
    for k in range(steps):
        try:
            state = step(t, dt, *state)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise IntegrationError(
                f"step {k} at t={t}: {exc}; state={list(state)}"
            ) from exc
        if not all(map(isfinite, state)):
            raise IntegrationError(f"non-finite state at step {k+1}, t={t+dt}")
        t = t_start + (k + 1) * dt
        times[k + 1] = t
        states[k + 1] = state
    return Trajectory(times, states, float(epsilon))


def evaluate_integral(
    L: PerturbedLagrangian, integrals: Sequence[FirstIntegral],
    traj: Trajectory,
) -> np.ndarray:
    """Folded value of a conservation law along a trajectory.

    Each component is evaluated once on the whole trajectory with numpy
    (printed by sympy's NumPyPrinter, so no ``from numpy import *``), and the
    components are summed in order.  Raises IntegrationError at the first
    time where the value is not finite.
    """
    ctx = L.ctx
    eps = sp.Rational(str(traj.epsilon))
    args = (ctx.t, *ctx.xs, *ctx.vs)
    columns = (traj.times, *traj.states.T)
    out = np.zeros(len(traj.times))
    with np.errstate(all="ignore"):
        for I in integrals:
            fn = sp.lambdify(args, I.folded().subs(EPSILON, eps),
                             modules=[{"numpy": np}], printer=NumPyPrinter)
            out = out + fn(*columns)
    bad = ~np.isfinite(out)
    if bad.any():
        t = traj.times[np.argmax(bad)]
        raise IntegrationError(f"integral evaluation failed at t={t}: non-finite value")
    return out


def drift(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral,
    traj: Trajectory,
    name: Optional[str] = None,
) -> DriftRecord:
    if isinstance(integrals, FirstIntegral):
        integrals = [integrals]
    values = evaluate_integral(L, integrals, traj)
    deltas = values - values[0]
    return DriftRecord(
        name or integrals[0].source,
        traj.epsilon,
        float(np.max(np.abs(deltas))),
        float(deltas[-1]),
        (float(traj.times[0]), float(traj.times[-1])),
    )


@dataclass(frozen=True)
class ScalingResult:
    exponent: Optional[float]
    records: tuple[DriftRecord, ...]
    excluded: tuple[float, ...]
    note: str


def scaling_exponent(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral,
    epsilons: Sequence[float],
    initial: Sequence[float],
    t_end: float,
    dt: float,
    noise_floor: float = 1e-12,
) -> ScalingResult:
    """Least-squares slope of log max drift against log epsilon.

    For a valid order-gamma law the slope is about gamma + 1.  Drifts at the
    integrator noise floor are excluded; with fewer than two usable points the
    exponent is None.
    """
    if isinstance(integrals, FirstIntegral):
        integrals = [integrals]
    if len(epsilons) < 2:
        raise ValueError("need at least two epsilon values")
    records = []
    for eps in epsilons:
        traj = integrate(L, initial, t_end, dt, eps)
        records.append(drift(L, integrals, traj))
    return fit_slope(records, noise_floor)


def fit_slope(records: Sequence[DriftRecord], noise_floor: float = 1e-12) -> ScalingResult:
    """Log-log slope of max drift against epsilon from existing records.

    Each distinct positive epsilon enters the fit once, if its drift is above
    the noise floor; the others are listed as excluded.
    """
    kept: dict[float, float] = {}
    excluded = []
    invalid = False  # some epsilon above the noise floor was not positive or repeated
    for r in records:
        if r.max_abs_drift > noise_floor and r.epsilon > 0 and r.epsilon not in kept:
            kept[r.epsilon] = r.max_abs_drift
        else:
            invalid = invalid or r.max_abs_drift > noise_floor
            excluded.append(r.epsilon)
    reason = "not positive, repeated or at the noise floor" if invalid else "at the noise floor"
    note = f"excluded {len(excluded)} epsilon(s) {reason}" if excluded else ""
    if len(kept) < 2:
        if not invalid:
            note = "all drifts at or below the integrator noise floor"
        return ScalingResult(None, tuple(records), tuple(excluded), note + "; slope indeterminate")
    slope = float(np.polyfit(np.log(list(kept)), np.log(list(kept.values())), 1)[0])
    return ScalingResult(slope, tuple(records), tuple(excluded), note)


def write_csv(
    path,
    L: PerturbedLagrangian,
    traj: Trajectory,
    integrals: Optional[dict[str, Sequence[FirstIntegral]]] = None,
) -> None:
    """Trajectory (and optional integral columns) with 17 significant digits."""
    ctx = L.ctx
    n = ctx.dimension
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
    columns = [traj.times] + [traj.states[:, j] for j in range(2 * n)]
    if integrals:
        for name in integrals:
            header.append(name)
            columns.append(evaluate_integral(L, integrals[name], traj))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
            block = (c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns)
            fh.writelines(row % values for values in zip(*block))
