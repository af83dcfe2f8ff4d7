"""Equations of motion, fixed-step RK4 integration, and drift measurement."""

from __future__ import annotations

import builtins
import math
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

import sympy as sp
from sympy.printing.codeprinter import PrintMethodNotImplementedError
from sympy.printing.pycode import PythonCodePrinter

from .conservation import EPSILON, FirstIntegral, NumericOnly, accelerations
from .context import Context
from .lagrangian import PerturbedLagrangian
from .normal import MATH_PRINTER


# RK4 steps allowed per integration (one epsilon); checked before any allocation
MAX_STEPS = 10**7
# what a step or a law raises in floats; TypeError: a fractional power of a negative
# number is complex, and the finiteness check of a complex value raises
_FLOAT_ERRORS = (ValueError, ZeroDivisionError, OverflowError, TypeError)


class IntegrationError(RuntimeError):
    pass


class SymbolicParameterError(ValueError):
    """A symbolic parameter is left where simulate evaluates in floats."""


class UnsupportedFunctionError(ValueError):
    """A conservation law holds a function that simulate cannot evaluate in floats."""


class _Times(Sequence):
    """t_start + k * dt for k = 0 .. steps, as the kernel computes the time of row k."""

    def __init__(self, t_start: float, dt: float, steps: int):
        self.t_start, self.dt, self.steps = t_start, dt, steps

    def __len__(self):
        return self.steps + 1

    def __getitem__(self, k):
        k = range(len(self))[k]
        return self.t_start + k * self.dt if k else self.t_start

    def __iter__(self):
        ks = range(1, self.steps + 1)
        return chain((self.t_start,), map(self.t_start.__add__, map(self.dt.__rmul__, ks)))


def _rows(flat: array, width: int) -> memoryview:
    return memoryview(flat).cast("B").cast("d", (len(flat) // width, width))


def _flat(rows: memoryview) -> memoryview:
    return rows.cast("B").cast("d")


@dataclass(frozen=True)
class Trajectory:
    """A fixed-step RK4 run.

    ``laws`` maps each conservation law evaluated along the run (the tuple of its
    components) to its (first, lowest, highest, last) value and the first time at
    which it was not finite (None if it always was).  When the run stores its rows,
    ``states`` is a (len(times), 2n) view of x then xdot and ``values`` a
    (len(times), len(laws)) view of the laws' values, in the order of ``laws``;
    otherwise they are None.
    """

    times: Sequence[float]
    states: Optional[memoryview]
    epsilon: float
    laws: dict = field(default_factory=dict)
    values: Optional[memoryview] = None


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


class _LawPrinter(PythonCodePrinter):
    """``MATH_PRINTER`` that prints each power and function call once.

    A node prints as the placeholder NUL k NUL, where ``texts[k]`` is its own text
    (the nodes inside it placeholders too) and ``counts[k]`` the number of times it
    was printed; nodes are numbered as their printing ends, so a node comes after
    the nodes inside it.  A node that Python cannot evaluate raises
    UnsupportedFunctionError naming its class.
    """

    def __init__(self):
        super().__init__(MATH_PRINTER._settings)
        self.index: dict[sp.Expr, int] = {}
        self.texts: list[str] = []
        self.counts: list[int] = []

    def _print(self, expr, **kwargs):
        node = not kwargs and isinstance(expr, (sp.Pow, sp.Function))
        if node and expr in self.index:
            self.counts[self.index[expr]] += 1
            return f"\0{self.index[expr]}\0"
        try:
            text = super()._print(expr, **kwargs)
        except PrintMethodNotImplementedError:
            raise UnsupportedFunctionError(type(expr).__name__) from None
        if not node:
            return text
        self.index[expr] = len(self.texts)
        self.texts.append(text)
        self.counts.append(1)
        return f"\0{self.index[expr]}\0"


_PLACEHOLDER = re.compile("\0([0-9]+)\0")


def _law_code(ctx: Context, laws: Sequence[Sequence[FirstIntegral]], epsilon: float, u: str):
    """The law block that the RK4 kernel and the loop over stored rows share.

    Each law's value is 0.0 plus each folded component in order, printed after
    ``subs(EPSILON, eps)`` as lambdify prints it.  Returns (each, first, step,
    result): ``each(t, *state)`` evaluates each law on its own, nan for one that
    raises or is not finite, and the rest are source lines over the time {u}t and
    the state {u}s0, {u}s1, ...  ``first`` sets {u}v<j> to the value of law j,
    with {u}f<j>, {u}lo<j> and {u}hi<j> its first, lowest and highest value and
    {u}b<j> the first time it is not finite; ``step`` sets and folds in the next
    values.  A power or function call printed more than once is computed once per
    point as {u}c<k>, which leaves every value as it was.  When the joint
    evaluation raises or gives a non-finite value, ``each`` decides which law
    failed, so a failing law spoils no other.  ``result`` is the tuple of (first,
    lowest, highest, last, first bad time) per law.
    """
    if not laws:
        return None, [], [], "()"
    eps = sp.Rational(str(epsilon))
    printer = _LawPrinter()
    variables = (ctx.t, *ctx.xs, *ctx.vs)
    allowed = {*vars(math), *vars(builtins), *map(str, variables)}
    folded = [[I.folded().subs(EPSILON, eps) for I in law] for law in laws]
    names = [f"I[{law[0].source}]" if law else "a law" for law in laws]
    texts = []
    for what, components in zip(names, folded):
        try:
            texts.append("0.0" + "".join(f" + ({printer.doprint(c)})" for c in components))
        except UnsupportedFunctionError as exc:
            raise UnsupportedFunctionError(
                f"{what} holds {exc}, which simulate cannot evaluate in floats") from None
    # each node inlined (plain), or its local name where it is printed more than once
    plain, named, hoisted = [], [], []
    for k, (text, count) in enumerate(zip(printer.texts, printer.counts)):
        plain.append(_PLACEHOLDER.sub(lambda m: plain[int(m[1])], text))
        named.append(_PLACEHOLDER.sub(lambda m: named[int(m[1])], text))
        if count > 1:
            hoisted.append(f"{u}c{k} = {named[k]}")
            named[k] = f"{u}c{k}"
    alone = []
    for what, text in zip(names, texts):
        text = _PLACEHOLDER.sub(lambda m: plain[int(m[1])], text)
        unknown = sorted(set(compile(text, what, "eval").co_names) - allowed)
        if unknown:
            raise UnsupportedFunctionError(
                f"{what} holds {', '.join(unknown)}, which simulate cannot evaluate in floats")
        alone.append(eval(f"lambda {', '.join(map(str, variables))}: {text}", {**vars(math)}))

    def each(*point):
        values = []
        for law in alone:
            try:
                value = law(*point)
                values.append(value if math.isfinite(value) else math.nan)
            except _FLOAT_ERRORS:
                values.append(math.nan)
        return values

    used = set().union(*(c.free_symbols for components in folded for c in components))
    t, s = f"{u}t", [f"{u}s{j}" for j in range(2 * ctx.dimension)]
    v = [f"{u}v{j}" for j in range(len(laws))]
    block = [*(f"{x} = {(t, *s)[i]}" for i, x in enumerate(variables) if x in used),
             "try:", *(f"    {line}" for line in hoisted),
             *(f"    {x} = {_PLACEHOLDER.sub(lambda m: named[int(m[1])], text)}"
               for x, text in zip(v, texts)),
             f"    {u}ok = {u}isfinite({' + '.join(v)})",
             f"except {u}errors:", f"    {u}ok = False",
             f"if not {u}ok:", f"    {', '.join(v)}, = {u}each({t}, {', '.join(s)})"]
    for j, x in enumerate(v):
        block += [f"    if {x} != {x} and {u}b{j} is None:", f"        {u}b{j} = {t}"]
    first = [f"{u}b{j} = None" for j in range(len(laws))] + block + [
        f"{u}f{j} = {u}lo{j} = {u}hi{j} = {x}" for j, x in enumerate(v)]
    step = list(block)
    for j, x in enumerate(v):
        step += [f"if {x} < {u}lo{j}:", f"    {u}lo{j} = {x}",
                 f"elif {x} > {u}hi{j}:", f"    {u}hi{j} = {x}"]
    result = "(" + "".join(f"({u}f{j}, {u}lo{j}, {u}hi{j}, {x}, {u}b{j}), "
                           for j, x in enumerate(v)) + ")"
    return each, first, step, result


def _indent(lines: Sequence[str], depth: int) -> list[str]:
    return [" " * depth + line for line in lines]


def _underscores(ctx: Context) -> str:
    """A prefix for generated names: more underscores than any problem name starts with."""
    return "_" * (1 + max(len(name) - len(name.lstrip("_")) for name in ctx.names()))


def _compile(lines: Sequence[str], each):
    """The function ``run`` that ``lines`` define, with Python's math functions, the law
    block's ``each`` and the float errors."""
    namespace = {**vars(math), "__name__": __name__, "each": each, "errors": _FLOAT_ERRORS}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def _kernel(L: PerturbedLagrangian, epsilon: float, laws: Sequence[Sequence[FirstIntegral]],
            store: bool):
    """The RK4 loop as straight-line scalar code, each law evaluated after every step:
    run(t_start, dt, steps, extend, store, *state) -> (None, per-law result of
    ``_law_code``), or ((k, t, state, exc), None) where step k from time t failed.

    Each acceleration is printed once, by ``MATH_PRINTER``, and inlined in each
    of the four stages under the problem's own names (``t``, ``x``, ``xdot``,
    ...), which the stage binds to its time and state; the kernel's other names
    start with more underscores than any problem name.  The arithmetic is the
    textbook update with stages k, l, p, q (``s + dt / 2 * k``,
    ``s + dt / 2 * l``, ``s + dt * p``, then
    ``s + dt / 6 * (k + 2 * l + 2 * p + q)``) operation for operation, so
    trajectories are bit-identical to a loop over lists that calls the
    lambdified accelerations.  Each new state is checked finite; with ``store``
    it is passed to ``extend`` and the laws' values to ``store``.  A step that
    raises returns the state it started from, with exc the exception; a
    non-finite state returns itself, with exc None.  A law that fails only
    records the time, in its own result.
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
    u = _underscores(ctx)
    each, first, step, result = _law_code(ctx, laws, epsilon, u)
    n = ctx.dimension
    s = [f"{u}s{j}" for j in range(2 * n)]
    y = [f"{u}y{j}" for j in range(2 * n)]
    state = ", ".join(s)
    extend = [f"{u}extend(({state},))"] if store else []
    keep = [f"{u}store((" + "".join(f"{u}v{j}, " for j in range(len(laws))) + "))"
            ] if store and laws else []
    lines = [f"def run({u}t0, {u}dt, {u}steps, {u}extend, {u}store, {state}, "
             f"{u}isfinite=isfinite, {u}each=each, {u}errors=errors, {u}range=range):",
             f"    {u}h = {u}dt / 2",
             f"    {u}h6 = {u}dt / 6",
             f"    {u}t = {u}t0",
             *_indent(first, 4),
             *_indent(keep, 4),
             "    try:",
             f"        for {u}i in {u}range({u}steps):",
             f"            {u}th = {u}t + {u}h"]
    # each stage: bind the problem's names, k0..k{2n-1} = the derivative there, next state
    for k, t, stage, h in (("k", f"{u}t", s, f"{u}h"), ("l", f"{u}th", y, f"{u}h"),
                           ("p", f"{u}th", y, f"{u}dt"), ("q", f"{u}t + {u}dt", y, None)):
        values = (t, *stage)
        lines += [f"            {name} = {values[i]}" for i, name in bound]
        lines += [f"            {u}{k}{j} = {stage[n + j]}" for j in range(n)]
        lines += [f"            {u}{k}{n + i} = {r}" for i, r in enumerate(rhs)]
        lines += [f"            {y[j]} = {s[j]} + {h} * {u}{k}{j}" for j in range(2 * n) if h]
    # one tuple assignment: a step that raises leaves the state it started from
    lines.append(f"            {state}, = " + ", ".join(
        f"{s[j]} + {u}h6 * ({u}k{j} + 2 * {u}l{j} + 2 * {u}p{j} + {u}q{j})"
        for j in range(2 * n)) + ",")
    # a finite sum has finite terms; an overflowing sum of finite terms is rare
    finite = " and ".join(f"{u}isfinite({v})" for v in s)
    lines += [f"            if not ({u}isfinite({' + '.join(s)}) or ({finite})):",
              f"                return ({u}i, {u}t, ({state},), None), None",
              f"            {u}t = {u}t0 + ({u}i + 1) * {u}dt",
              *_indent(step, 12),
              *_indent(extend + keep, 12),
              f"    except {u}errors as {u}exc:",
              f"        return ({u}i, {u}t, ({state},), {u}exc), None",
              f"    return None, {result}"]
    return _compile(lines, each)


def _laws(laws) -> list[tuple[FirstIntegral, ...]]:
    """Each law once, as the tuple of its components; a FirstIntegral is a law of one."""
    return list(dict.fromkeys(
        (law,) if isinstance(law, FirstIntegral) else tuple(law) for law in laws))


def integrate(
    L: PerturbedLagrangian,
    initial: Sequence[float],
    t_end: float,
    dt: float,
    epsilon: float = 0.0,
    t_start: float = 0.0,
    laws: Sequence[Sequence[FirstIntegral]] = (),
    store: bool = True,
) -> Trajectory:
    """Classical fixed-step RK4 from t_start to t_end.

    Deterministic bit-for-bit given identical inputs; aborts on a non-finite
    input or state.  Negative dt is allowed for reverse integration
    (t_end < t_start).  Each conservation law of ``laws`` (a sequence of
    components) is evaluated at every time of the run for ``drift``; with
    ``store`` the run keeps its states and the laws' values, and without it no
    array grows with the number of steps.
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
    laws = _laws(laws)
    run = _kernel(L, epsilon, laws, store)
    steps = max(1, int(round(span)))
    # keep the grid uniform AND land exactly on t_end
    t_start = float(t_start)
    dt = (t_end - t_start) / steps
    states, values = array("d", state), array("d")
    failure, results = run(t_start, dt, steps, states.extend, values.extend, *state)
    if failure is not None:
        k, t, state, exc = failure
        if exc is None:
            raise IntegrationError(f"non-finite state at step {k+1}, t={t+dt}")
        raise IntegrationError(f"step {k} at t={t}: {exc}; state={list(state)}") from exc
    return Trajectory(_Times(t_start, dt, steps), _rows(states, 2 * n) if store else None,
                      float(epsilon), dict(zip(laws, results)),
                      _rows(values, len(laws)) if store and laws else None)


def _stored_results(L: PerturbedLagrangian, laws, traj: Trajectory):
    """``_law_code``'s result of ``laws`` over the stored rows of traj."""
    if traj.states is None:
        raise ValueError("the trajectory stores no states: pass the law to integrate")
    u = _underscores(L.ctx)
    each, first, step, result = _law_code(L.ctx, laws, traj.epsilon, u)
    point = ", ".join([f"{u}t", *(f"{u}s{j}" for j in range(2 * L.ctx.dimension))])
    lines = [f"def run({u}rows, {point}, {u}isfinite=isfinite, {u}each=each, "
             f"{u}errors=errors):",
             *_indent(first, 4),
             f"    for {point}, in {u}rows:",
             *_indent(step, 8),
             f"    return {result}"]
    flat = iter(_flat(traj.states))
    rows = zip(traj.times, *[flat] * (2 * L.ctx.dimension))
    return _compile(lines, each)(rows, *next(rows))


def drift(
    L: PerturbedLagrangian,
    integrals: Sequence[FirstIntegral] | FirstIntegral,
    traj: Trajectory,
    name: Optional[str] = None,
) -> DriftRecord:
    """max |v - v0| and v[-1] - v0 of a law's value v along traj.

    Read off the run when ``integrate`` evaluated the law, else evaluated over
    the stored states by the same generated code.  Raises IntegrationError at the
    first time where the value is not finite.
    """
    law, = _laws([integrals])
    found = traj.laws.get(law)
    v0, low, high, last, bad = found or _stored_results(L, [law], traj)[0]
    if bad is not None:
        raise IntegrationError(f"integral evaluation failed at t={bad}: non-finite value")
    # max |v - v0| is reached at the largest or the smallest v, as float subtraction is
    # monotone; abs makes a zero drift +0.0
    return DriftRecord(name or law[0].source, traj.epsilon,
                       max(abs(high - v0), abs(low - v0)), last - v0,
                       (traj.times[0], traj.times[-1]))


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
    records = [drift(L, integrals, integrate(L, initial, t_end, dt, eps, laws=_laws([integrals]),
                                             store=False))
               for eps in epsilons]
    return fit_slope(records, noise_floor)


def fit_slope(records: Sequence[DriftRecord], noise_floor: float = 1e-12) -> ScalingResult:
    """Log-log slope of max drift against epsilon from existing records.

    Each distinct positive epsilon enters the fit once, if its drift is above
    the noise floor; the others are listed as excluded.  The least-squares
    slope of the float logarithms is computed exactly, in fractions, and
    rounded once; with fewer than two distinct logarithms of epsilon it is None.
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
    xs = [Fraction(math.log(e)) for e in kept]
    ys = [Fraction(math.log(d)) for d in kept.values()]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0:
        note = (note + "; " if note else "") + (
            f"the {len(kept)} epsilons fitted have the same logarithm; slope indeterminate")
        return ScalingResult(None, tuple(records), tuple(excluded), note)
    slope = float(sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx)
    return ScalingResult(slope, tuple(records), tuple(excluded), note)


def write_csv(
    path,
    L: PerturbedLagrangian,
    traj: Trajectory,
    integrals: Optional[dict[str, Sequence[FirstIntegral]]] = None,
) -> None:
    """The stored rows of traj, each value with 17 significant digits: the time, the
    state, and one column per entry of ``integrals`` (name -> law), each a law whose
    values the run stored."""
    n, integrals = L.ctx.dimension, integrals or {}
    stored = list(traj.laws) if traj.values is not None else []
    laws = [key for law in integrals.values() for key in _laws([law])]
    if traj.states is None or not set(laws) <= set(stored):
        raise ValueError("write_csv needs the states and the laws' values stored by integrate")
    header = ["t", *(f"x{i+1}" for i in range(n)), *(f"v{i+1}" for i in range(n)), *integrals]
    states = _flat(traj.states)
    columns = [traj.times, *(states[j::2 * n] for j in range(2 * n)),
               *(_flat(traj.values)[stored.index(law)::len(stored)] for law in laws)]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))
