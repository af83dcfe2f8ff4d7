"""Linear-algebraic solver for the determining equations over a declared ansatz.

Every generator component is expanded over a user-declared time basis times
spatial monomials, so the ansatz is a coefficient table: one unknown per
(slot, basis function) pair.  Binding the ansatz into the determining
equations gives expressions linear and homogeneous in the unknowns; one pass
over the terms of each cleared numerator collects them over independent
atoms into a matrix with exact rational entries.  Its nullspace over QQ,
with pure-gauge directions (constant boundary terms) quotiented out, is the
solution basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .conditions import DeterminingSystem, bind, build_conditions, verify
from .lagrangian import ApproximateGenerator, GeneratorOrder, PerturbedLagrangian
from .normal import (
    DEFAULT_SEED,
    NonNormalizableError,
    normalize,
)

MAX_UNKNOWNS = 10_000


class SolverError(ValueError):
    pass


class UnsupportedEquationError(SolverError):
    """An equation failed to normalize after denominator clearing."""


@dataclass(frozen=True)
class AnsatzSpec:
    """Search space: span{time_basis} x spatial monomials.

    xi_A uses the time basis alone; eta_A^i uses time basis times spatial
    monomials up to spatial_degree; boundary terms f_A go one degree higher.
    include_inverse_powers adds extra spatial monomials (e.g. 1/x) to the
    eta and f spans.
    """

    time_basis: tuple[sp.Expr, ...]
    spatial_degree: int = 1
    include_inverse_powers: tuple[sp.Expr, ...] = ()

    def __post_init__(self):
        basis = tuple(sp.sympify(b) for b in self.time_basis)
        if not basis:
            raise SolverError("time basis must not be empty")
        if self.spatial_degree < 0:
            raise SolverError("spatial degree must be >= 0")
        object.__setattr__(self, "time_basis", basis)
        object.__setattr__(
            self,
            "include_inverse_powers",
            tuple(sp.sympify(m) for m in self.include_inverse_powers),
        )

    def check_independent(self, t: sp.Symbol, seed: int = DEFAULT_SEED) -> None:
        """Wronskian sampling: the basis must be independent at some point."""
        k = len(self.time_basis)
        if k == 1:
            if all(b == 0 for b in self.time_basis):
                raise SolverError("time basis is identically zero")
            return
        wronskian = sp.Matrix(
            k, k, lambda i, j: sp.diff(self.time_basis[j], t, i)
        ).det()
        fn = sp.lambdify(t, wronskian, modules=["math"])
        rng = np.random.default_rng(seed)
        for tv in rng.uniform(0.3, 2.3, size=8):
            try:
                if abs(fn(tv)) > 1e-9:
                    return
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
        raise SolverError("time basis functions are not independent")



@dataclass(frozen=True)
class Column:
    """One unknown of the ansatz: its slot (kind, order, component) and basis function.

    The kind is "xi", "eta" or "f"; the component is 0 except for eta.
    """

    slot: tuple[str, int, int]
    fn: sp.Expr


@dataclass(frozen=True)
class Ansatz:
    """Instantiated search space: the coefficient table of the unknowns."""

    L: PerturbedLagrangian
    spec: AnsatzSpec
    unknowns: tuple[sp.Symbol, ...]
    gauge_unknowns: tuple[sp.Symbol, ...]
    columns: tuple[Column, ...]  # aligned with unknowns


@dataclass(frozen=True)
class LinearSystem:
    ansatz: Ansatz
    matrix: sp.ImmutableMatrix


@dataclass(frozen=True)
class SolutionBasis:
    generators: tuple[ApproximateGenerator, ...]
    nullspace_dim: int
    gauge_note: str
    # non-gauge coefficient vectors, aligned with generators; used for the
    # span-membership test
    vectors: tuple[tuple[sp.Rational, ...], ...] = ()
    ansatz: Optional[Ansatz] = None


def _spatial_monomials(xs, degree: int, extra=()):
    mons = []
    for total in range(degree + 1):
        for powers in itertools.combinations_with_replacement(range(len(xs)), total):
            mon = sp.Integer(1)
            for idx in powers:
                mon *= xs[idx]
            mons.append(mon)
    mons.extend(extra)
    return mons


# -- exact kernel over QQ -------------------------------------------------


def _rref(rows: Sequence[Sequence], ncols: int):
    """Reduced row echelon form over QQ: (nonzero rows, pivot columns)."""
    entries = {}
    for i, row in enumerate(rows):
        nonzero = {j: v if isinstance(v, QQ.dtype) else QQ(int(v.p), int(v.q))
                   for j, v in enumerate(row) if v}
        if nonzero:
            entries[i] = nonzero
    M = DomainMatrix(entries, (len(rows), ncols), QQ)
    R, pivots = M.rref()
    return R.to_list()[: len(pivots)], pivots


def rational_nullspace(rows: Sequence[Sequence], ncols: int) -> list[tuple[sp.Rational, ...]]:
    """The canonical (row-reduced) basis of {v : rows . v = 0}."""
    R, pivots = _rref(rows, ncols)
    null = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [QQ.zero] * ncols
        vec[free] = QQ.one
        for row, p in zip(R, pivots):
            vec[p] = -row[free]
        null.append(vec)
    basis, _ = _rref(null, ncols)
    return [tuple(QQ.to_sympy(v) for v in row) for row in basis]


def rational_solve(columns: Sequence[Sequence], target: Sequence):
    """Rational x with sum_k x_k columns[k] == target (free x_k = 0), or None."""
    n = len(columns)
    rows = [[col[i] for col in columns] + [y] for i, y in enumerate(target)]
    R, pivots = _rref(rows, n + 1)
    if n in pivots:
        return None
    x = [sp.Integer(0)] * n
    for row, p in zip(R, pivots):
        x[p] = QQ.to_sympy(row[n])
    return x


def linear_rows(numer: sp.Expr, index: dict, split: Callable[[sp.Expr], Iterable]):
    """Coefficient rows of an expanded form linear and homogeneous in the unknowns.

    One pass over the terms: each holds exactly one unknown (``index`` maps it
    to its column), and the remainders are grouped by unknown.  ``split``
    turns each group into (key, rational) pairs; one row is emitted per key.
    """
    groups: dict[int, list[sp.Expr]] = {}
    for term in sp.Add.make_args(numer) if numer != 0 else ():
        factors = sp.Mul.make_args(term)
        cols = [index[f] for f in factors if f in index]
        if len(cols) != 1:
            raise SolverError(f"internal: term {term} is not linear in the unknowns")
        groups.setdefault(cols[0], []).append(sp.Mul(*(f for f in factors if f not in index)))
    forms = {col: dict(split(sp.Add(*parts))) for col, parts in groups.items()}
    keys = sorted({k for form in forms.values() for k in form}, key=sp.default_sort_key)
    zero = sp.Integer(0)
    return [
        [forms[col].get(key, zero) if col in forms else zero for col in range(len(index))]
        for key in keys
    ]


# -- the pipeline ---------------------------------------------------------


def instantiate(L: PerturbedLagrangian, spec: AnsatzSpec) -> Ansatz:
    """Tabulate xi, eta and f over the ansatz with fresh unknown coefficients.

    Unknowns are ordered deterministically with the gauge unknowns (constant
    terms of the boundary ansatz) first, so the nullspace quotient below is a
    plain column convention.
    """
    ctx = L.ctx
    free = L.ctx.free_param_symbols()
    for b in spec.time_basis:
        bad = b.free_symbols - {ctx.t} - set(free)
        if bad:
            raise SolverError(f"time basis element {b} uses undeclared symbols {bad}")
        if b.free_symbols & set(free):
            raise SolverError(
                f"time basis element {b} uses symbolic parameters; bind them to numbers"
            )
    eta_mons = _spatial_monomials(ctx.xs, spec.spatial_degree, spec.include_inverse_powers)
    f_mons = _spatial_monomials(
        ctx.xs, spec.spatial_degree + 1, spec.include_inverse_powers
    )
    n_orders = L.order + 1
    count = n_orders * len(spec.time_basis) * (
        1 + ctx.dimension * len(eta_mons) + len(f_mons)
    )
    if count > MAX_UNKNOWNS:
        raise SolverError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n_orders} orders x {len(spec.time_basis)} time basis x "
            f"[1 xi + {ctx.dimension}x{len(eta_mons)} eta + {len(f_mons)} f])"
        )
    spec.check_independent(ctx.t)

    gauge, others = [], []
    for A in range(n_orders):
        for m_idx, T in enumerate(spec.time_basis):
            for s_idx, M in enumerate(f_mons):
                entry = (sp.Symbol(f"_f{A}_{m_idx}_{s_idx}"), Column(("f", A, 0), T * M))
                (gauge if T * M == 1 else others).append(entry)
        for m_idx, T in enumerate(spec.time_basis):
            others.append((sp.Symbol(f"_x{A}_{m_idx}"), Column(("xi", A, 0), T)))
        for i in range(ctx.dimension):
            for m_idx, T in enumerate(spec.time_basis):
                for s_idx, M in enumerate(eta_mons):
                    others.append((sp.Symbol(f"_e{A}_{i}_{m_idx}_{s_idx}"),
                                   Column(("eta", A, i), T * M)))
    table = gauge + others
    return Ansatz(
        L, spec, tuple(u for u, _ in table), tuple(u for u, _ in gauge),
        tuple(c for _, c in table),
    )


def _generator(ansatz: Ansatz, name: str, vec: Sequence[sp.Expr]) -> ApproximateGenerator:
    """The generator sum_c vec_c * fn_c, slot by slot; vec may be the unknowns."""
    parts: dict[tuple[str, int, int], list[sp.Expr]] = {}
    for c, column in zip(vec, ansatz.columns):
        if c != 0:
            parts.setdefault(column.slot, []).append(c * column.fn)

    def part(kind, A, i=0):
        return sp.expand(sp.Add(*parts.get((kind, A, i), ())))

    orders = range(ansatz.L.order + 1)
    dim = ansatz.L.ctx.dimension
    return ApproximateGenerator(
        name,
        tuple(GeneratorOrder(part("xi", A), tuple(part("eta", A, i) for i in range(dim)))
              for A in orders),
        tuple(part("f", A) for A in orders),
    )


def reduce(ansatz: Ansatz, system: Optional[DeterminingSystem] = None) -> LinearSystem:
    """Collect each bound equation over independent atoms.

    The equations are linear and homogeneous in the unknowns; after clearing
    denominators, the coefficient of each unknown is normalized and one row
    is emitted per atom appearing across the equation.
    """
    if system is None:
        system = build_conditions(ansatz.L)
    unknowns = ansatz.unknowns
    index = {u: col for col, u in enumerate(unknowns)}
    rows: list[list[sp.Rational]] = []
    for eq in bind(system, _generator(ansatz, "ansatz", unknowns)).equations:
        numer, _ = sp.fraction(sp.together(eq.lhs))
        try:
            rows.extend(linear_rows(sp.expand(numer), index,
                                    lambda c: normalize(c, strict=False).terms))
        except NonNormalizableError as exc:
            raise UnsupportedEquationError(
                f"order {eq.order} {eq.kind} {eq.component}: {exc}"
            ) from exc
    matrix = sp.ImmutableMatrix(rows) if rows else sp.ImmutableMatrix(0, len(unknowns), [])
    return LinearSystem(ansatz, matrix)


def nullspace(system: LinearSystem, tol: float = 1e-10,
              seed: int = DEFAULT_SEED, check: bool = True) -> SolutionBasis:
    """Exact nullspace, gauge-quotiented and canonically ordered.

    The gauge unknowns come first in the column order, so in the row-reduced
    nullspace basis the pure-gauge directions are exactly the rows supported
    on the leading gauge block; they are dropped and the rest have zero gauge
    components.
    """
    ansatz = system.ansatz
    null = rational_nullspace(system.matrix.tolist(), len(ansatz.unknowns))
    if not null:
        return SolutionBasis((), 0, "no solutions", (), ansatz)
    n_gauge = len(ansatz.gauge_unknowns)
    kept = [vec for vec in null if any(v != 0 for v in vec[n_gauge:])]
    dropped = len(null) - len(kept)

    def sort_key(pair):
        gen, vec = pair
        low = gen.lowest_order
        return (low if low is not None else ansatz.L.order + 1, vec)

    paired = sorted(((_generator(ansatz, "", vec), vec) for vec in kept), key=sort_key)
    generators = tuple(replace(g, name=f"S{i}") for i, (g, _) in enumerate(paired))
    vectors = tuple(v for _, v in paired)
    if check:
        conditions = build_conditions(ansatz.L)
        for g in generators:
            report = verify(ansatz.L, g, tol, seed, conditions)
            if not report.passed:
                raise SolverError(
                    f"internal: solver produced {g.name} failing verification"
                )
    note = f"removed {dropped} pure-gauge direction(s) (constant boundary terms)"
    return SolutionBasis(generators, len(kept), note, vectors, ansatz)


def solve(L: PerturbedLagrangian, spec: AnsatzSpec, tol: float = 1e-10,
          seed: int = DEFAULT_SEED) -> SolutionBasis:
    """Full pipeline: instantiate, reduce, nullspace, verify."""
    ansatz = instantiate(L, spec)
    return nullspace(reduce(ansatz), tol, seed)


# -- span membership ------------------------------------------------------


def _coordinates(expr: sp.Expr, basis_fns: Sequence[sp.Expr]):
    """Rational coordinates of expr in span{basis_fns}, or None."""
    try:
        target = normalize(sp.expand(sp.sympify(expr)), strict=False)
        forms = [normalize(sp.expand(b), strict=False) for b in basis_fns]
    except NonNormalizableError:
        return None
    keys = list(dict.fromkeys(k for form in (*forms, target) for k, _ in form.terms))
    return rational_solve(
        [[form.coefficient(k) for k in keys] for form in forms],
        [target.coefficient(k) for k in keys],
    )


def contains(basis: SolutionBasis, X: ApproximateGenerator,
             ignore_boundary_constant: bool = True) -> bool:
    """Exact span-membership test for a candidate generator.

    The candidate is projected onto the ansatz coordinates slot by slot
    (failing that, it is not in the span) and membership is decided by an
    exact rational solve against the solution vectors.  Constant shifts of
    the boundary terms are gauge and ignored.
    """
    if basis.ansatz is None:
        raise SolverError("solution basis carries no ansatz")
    ansatz = basis.ansatz
    L = ansatz.L
    X.check_shape(L)
    targets = {}
    for A in range(L.order + 1):
        targets[("f", A, 0)] = X.boundary[A] if X.boundary is not None else sp.Integer(0)
        targets[("xi", A, 0)] = X.orders[A].xi
        for i in range(L.ctx.dimension):
            targets[("eta", A, i)] = X.orders[A].eta[i]
    cols_of: dict[tuple[str, int, int], list[int]] = {}
    for col, column in enumerate(ansatz.columns):
        cols_of.setdefault(column.slot, []).append(col)
    vec = [sp.Integer(0)] * len(ansatz.unknowns)
    for slot, target in targets.items():
        cols = cols_of[slot]
        coords = _coordinates(target, [ansatz.columns[c].fn for c in cols])
        if coords is None:
            return False
        for c, value in zip(cols, coords):
            vec[c] = value
    if ignore_boundary_constant:
        vec[: len(ansatz.gauge_unknowns)] = [sp.Integer(0)] * len(ansatz.gauge_unknowns)
    return rational_solve(basis.vectors, vec) is not None
