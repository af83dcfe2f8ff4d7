"""Equations of motion, fixed-step RK4 integration, and drift measurement."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .conservation import EPSILON, FirstIntegral, NumericOnly, accelerations
from .context import Context
from .lagrangian import PerturbedLagrangian
from .normal import MATH_PRINTER


# RK4 steps allowed per integration (one epsilon); checked before any allocation
MAX_STEPS = 10**7
# write_csv converts this many rows at a time to Python floats
CSV_BLOCK_ROWS = 4096


class IntegrationError(RuntimeError):
    pass


class SymbolicParameterError(ValueError):
    """A symbolic parameter is left where simulate evaluates in floats."""


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


def require_numeric(ctx: Context, exprs: Sequence[sp.Expr], what: str) -> None:
    """Raise SymbolicParameterError if ``exprs`` hold a symbol that has no float value."""
    extra = set().union(*(e.free_symbols for e in exprs)) - {ctx.t, *ctx.xs, *ctx.vs, EPSILON}
    if extra:
        raise SymbolicParameterError(f"symbolic parameter {', '.join(sorted(map(str, extra)))} "
                                     f"in {what}: simulate needs a number for every parameter")


def _step_function(L: PerturbedLagrangian, epsilon: float):
    """One RK4 step as straight-line scalar code: step(t, dt, *state) -> state.

    Each acceleration is printed once, by ``MATH_PRINTER``, and inlined in each
    of the four stages under the problem's own names (``t``, ``x``, ``xdot``,
    ...), which the stage binds to its time and state; the step's other names
    start with more underscores than any problem name.  The arithmetic is the
    textbook update with stages k, l, p, q (``s + dt / 2 * k``,
    ``s + dt / 2 * l``, ``s + dt * p``, then
    ``s + dt / 6 * (k + 2 * l + 2 * p + q)``) operation for operation, so
    trajectories are bit-identical to a loop over lists that calls the
    lambdified accelerations.
    """
    ctx = L.ctx
    try:
        solved = accelerations(L)  # solved once per Lagrangian, not once per epsilon
    except NumericOnly as exc:
        raise IntegrationError(f"mass matrix not symbolically invertible: {exc}") from exc
    require_numeric(ctx, solved, "the equations of motion")
    eps = sp.Rational(str(epsilon))
    accel = [a.subs(EPSILON, eps) for a in solved]
    rhs = [MATH_PRINTER.doprint(a) for a in accel]
    used = set().union(*(a.free_symbols for a in accel))
    bound = [(i, str(v)) for i, v in enumerate((ctx.t, *ctx.xs, *ctx.vs)) if v in used]
    u = "_" * (1 + max(len(name) - len(name.lstrip("_")) for name in ctx.names()))
    n = ctx.dimension
    s = [f"{u}s{j}" for j in range(2 * n)]
    y = [f"{u}y{j}" for j in range(2 * n)]
    lines = [f"def step({u}t, {u}dt, {', '.join(s)}):",
             f"    {u}h = {u}dt / 2",
             f"    {u}th = {u}t + {u}h"]
    # each stage: bind the problem's names, k0..k{2n-1} = the derivative there, next state
    for k, t, state, h in (("k", f"{u}t", s, f"{u}h"), ("l", f"{u}th", y, f"{u}h"),
                           ("p", f"{u}th", y, f"{u}dt"), ("q", f"{u}t + {u}dt", y, None)):
        values = (t, *state)
        lines += [f"    {name} = {values[i]}" for i, name in bound]
        lines += [f"    {u}{k}{j} = {state[n + j]}" for j in range(n)]
        lines += [f"    {u}{k}{n + i} = {r}" for i, r in enumerate(rhs)]
        lines += [f"    {y[j]} = {s[j]} + {h} * {u}{k}{j}" for j in range(2 * n) if h]
    lines.append(f"    {u}h = {u}dt / 6")
    lines += [f"    {s[j]} = {s[j]} + {u}h * ({u}k{j} + 2 * {u}l{j} + 2 * {u}p{j} + {u}q{j})"
              for j in range(2 * n)]
    lines.append(f"    return ({', '.join(s)},)")
    namespace = {**vars(math), "__name__": __name__}
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
    flat = array("d", state)
    isfinite = math.isfinite
    t = t_start
    for k in range(steps):
        try:
            state = step(t, dt, *state)
            # a finite sum has finite terms; an overflowing sum of finite terms is rare
            if not (isfinite(sum(state)) or all(map(isfinite, state))):
                raise IntegrationError(f"non-finite state at step {k+1}, t={t+dt}")
        # TypeError: a fractional power of a negative number is complex, in the step
        # or in the state it returns
        except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
            raise IntegrationError(
                f"step {k} at t={t}: {exc}; state={list(state)}"
            ) from exc
        t = t_start + (k + 1) * dt
        flat.extend(state)
    # t_start + k * dt for every k, as the loop computes t
    times = np.arange(steps + 1, dtype=float)
    times *= dt
    times += t_start
    times[0] = t_start
    return Trajectory(times, np.frombuffer(flat).reshape(steps + 1, 2 * n), float(epsilon))


def evaluate_integral(
    L: PerturbedLagrangian, integrals: Sequence[FirstIntegral],
    traj: Trajectory,
) -> np.ndarray:
    """Folded value of a conservation law along a trajectory.

    Each component is printed by sympy's ``NumPyPrinter()`` (fully qualified
    ``numpy.`` names) into one generated function that returns all of them,
    evaluated once on the whole trajectory; the components are summed in
    order.  Raises IntegrationError at the first time where the value is not
    finite.
    """
    ctx = L.ctx
    eps = sp.Rational(str(traj.epsilon))
    printer = NumPyPrinter()
    terms = "".join(f"{printer.doprint(I.folded().subs(EPSILON, eps))}, " for I in integrals)
    namespace = {"numpy": np}
    exec(f"def components({', '.join(map(str, (ctx.t, *ctx.xs, *ctx.vs)))}):\n"
         f"    return ({terms})", namespace)
    out = np.zeros(len(traj.times))
    with np.errstate(all="ignore"):
        for value in namespace["components"](traj.times, *traj.states.T):
            out = out + value
    bad = ~np.isfinite(out)
    if bad.any():
        t = traj.times[np.argmax(bad)]
        raise IntegrationError(f"integral evaluation failed at t={t}: non-finite value")
    return out


def drift(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral | np.ndarray,
    traj: Trajectory,
    name: Optional[str] = None,
) -> DriftRecord:
    if isinstance(integrals, FirstIntegral):
        integrals = [integrals]
    values = integrals if isinstance(integrals, np.ndarray) else evaluate_integral(
        L, integrals, traj)
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
    if len(epsilons) < 2:
        raise ValueError("need at least two epsilon values")
    records = [drift(L, integrals, integrate(L, initial, t_end, dt, eps)) for eps in epsilons]
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
    integrals: Optional[dict[str, np.ndarray]] = None,
) -> None:
    """Trajectory and integral columns (each law's values along traj) with 17 significant
    digits."""
    n, integrals = L.ctx.dimension, integrals or {}
    header = ["t", *(f"x{i+1}" for i in range(n)), *(f"v{i+1}" for i in range(n)), *integrals]
    columns = [traj.times, *(traj.states[:, j] for j in range(2 * n)), *integrals.values()]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
            block = (c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns)
            fh.writelines(row % values for values in zip(*block))
