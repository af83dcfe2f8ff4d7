"""Linear-algebraic solver for the determining equations over a declared ansatz.

Every generator component is expanded over a user-declared time basis times
spatial monomials, so the ansatz is a coefficient table: one unknown per
(slot, basis function) pair.  Binding the ansatz into the determining
equations gives expressions linear and homogeneous in the unknowns; one pass
over the terms of each cleared numerator collects them over independent
atoms into sparse rows over QQ, one row per atom.  Their nullspace over QQ,
with pure-gauge directions (constant boundary terms) quotiented out, is the
solution basis.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM

from .conditions import candidate_residuals, verify
from .lagrangian import ApproximateGenerator, GeneratorOrder, PerturbedLagrangian
from .normal import (
    DEFAULT_SEED,
    NonNormalizableError,
    NormalForm,
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

    def check_independent(self, t: sp.Symbol) -> None:
        """Collocation: the basis evaluated at k + 8 seeded points in [0.3, 2.3]
        must have rank k (points outside a function's domain are skipped)."""
        k = len(self.time_basis)
        fn = sp.lambdify(t, list(self.time_basis), modules=["math"])
        # the standard library's generator: the first use of numpy.random
        # costs several MB of resident memory in a solve that samples nothing else
        rng = random.Random(DEFAULT_SEED)
        values = []
        for _ in range(k + 8):
            try:
                values.append(fn(rng.uniform(0.3, 2.3)))
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
        if not values or np.linalg.matrix_rank(np.array(values, dtype=float)) != k:
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

    @cached_property
    def slots(self) -> dict[tuple[str, int, int],
                            tuple[tuple[int, ...], Optional[tuple[dict, ...]]]]:
        """Per slot, its columns and the sparse QQ coefficients of their functions.

        Normalized once per ansatz, on the first membership test; the
        coefficients are None when a function of the slot is outside the
        normalizable class.
        """
        cols_of: dict[tuple[str, int, int], list[int]] = {}
        for col, column in enumerate(self.columns):
            cols_of.setdefault(column.slot, []).append(col)
        out = {}
        for slot, cols in cols_of.items():
            try:
                forms = tuple(_coefficients(normalize(sp.expand(self.columns[c].fn)))
                              for c in cols)
            except NonNormalizableError:
                forms = None
            out[slot] = (tuple(cols), forms)
        return out


@dataclass(frozen=True)
class LinearSystem:
    ansatz: Ansatz
    matrix: SDM


@dataclass(frozen=True)
class SolutionBasis:
    generators: tuple[ApproximateGenerator, ...]
    nullspace_dim: int
    gauge_note: str
    # non-gauge coefficient vectors over QQ, dense, aligned with generators;
    # used for the span-membership test
    vectors: tuple[tuple, ...]
    ansatz: Ansatz


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
# A linear system is a list of sparse rows {column: QQ}; each coefficient is
# converted to QQ once, where it is collected.


def rational_nullspace(matrix: SDM) -> list[tuple]:
    """The canonical (row-reduced) basis of {v : matrix . v = 0}, as dense QQ tuples."""
    R, pivots = matrix.nullspace()[0].rref()
    return [tuple(row) for row in R.to_list()[: len(pivots)]]


def rational_solve(columns: Sequence[dict], target: dict):
    """Sparse rational x with sum_k x_k columns[k] == target (free x_k = 0), or None.

    The columns and the target are sparse too, {row key: QQ}.
    """
    n = len(columns)
    rows: dict = {}
    for k, col in enumerate((*columns, target)):
        for key, v in col.items():
            rows.setdefault(key, {})[k] = v
    R, pivots = SDM(dict(enumerate(rows.values())), (len(rows), n + 1), QQ).rref()
    if n in pivots:
        return None
    return {p: R[i][n] for i, p in enumerate(pivots) if n in R[i]}


def linear_rows(numer: sp.Expr, index: dict,
                split: Callable[[sp.Expr], Iterable]) -> list[dict]:
    """Sparse coefficient rows of an expanded form linear and homogeneous in the unknowns.

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
    rows: dict[sp.Expr, dict] = {}
    for col, parts in groups.items():
        for key, c in split(sp.Add(*parts)):
            rows.setdefault(key, {})[col] = QQ.from_sympy(c)
    return [rows[key] for key in sorted(rows, key=sp.default_sort_key)]


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
    # monomials of total degree <= d in n coordinates: C(n + d, n), counted
    # before any is built
    n, d, extra = ctx.dimension, spec.spatial_degree, len(spec.include_inverse_powers)
    n_eta, n_f = math.comb(n + d, n) + extra, math.comb(n + d + 1, n) + extra
    n_orders = L.order + 1
    count = n_orders * len(spec.time_basis) * (1 + n * n_eta + n_f)
    if count > MAX_UNKNOWNS:
        raise SolverError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n_orders} orders x {len(spec.time_basis)} time basis x "
            f"[1 xi + {n}x{n_eta} eta + {n_f} f])"
        )
    spec.check_independent(ctx.t)
    eta_mons = _spatial_monomials(ctx.xs, d, spec.include_inverse_powers)
    f_mons = _spatial_monomials(ctx.xs, d + 1, spec.include_inverse_powers)

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


def _is_atom_power(factor: sp.Expr) -> bool:
    """A number or an integer power of a symbol."""
    base, exp = factor.as_base_exp()
    return factor.is_Rational or (base.is_Symbol and exp.is_Integer)


def _cleared(lhs: sp.Expr) -> sp.Expr:
    """lhs times the lcm of its terms' denominators, expanded.

    Numbers and integer powers of a symbol are atoms of the normal form, so
    they stay in the terms.  The terms of the expanded lhs are grouped by the
    rest of their denominator; each group's numerators are scaled by
    lcm / denominator, which is a polynomial.
    """
    groups: dict[sp.Expr, list[sp.Expr]] = {}
    for term in sp.Add.make_args(sp.expand(lhs)):
        numer, denom = term.as_numer_denom()
        kept = sp.Mul(*(f for f in sp.Mul.make_args(denom) if _is_atom_power(f)))
        groups.setdefault(denom / kept, []).append(numer / kept)
    lcm = functools.reduce(sp.lcm, groups)
    return sp.Add(*(sp.expand(sp.cancel(lcm / denom) * sp.Add(*numers))
                    for denom, numers in groups.items()))


def reduce(ansatz: Ansatz) -> LinearSystem:
    """Collect each bound equation over independent atoms.

    The equations are linear and homogeneous in the unknowns; after clearing
    denominators, the coefficient of each unknown is normalized and one row
    is emitted per atom appearing across the equation.
    """
    unknowns = ansatz.unknowns
    index = {u: col for col, u in enumerate(unknowns)}
    rows: list[dict] = []
    for eq in candidate_residuals(ansatz.L, _generator(ansatz, "ansatz", unknowns)):
        try:
            rows.extend(linear_rows(_cleared(eq.lhs), index, lambda c: normalize(c).terms))
        except NonNormalizableError as exc:
            raise UnsupportedEquationError(
                f"order {eq.order} {eq.kind} {eq.component}: {exc}"
            ) from exc
    return LinearSystem(ansatz, SDM(dict(enumerate(rows)), (len(rows), len(unknowns)), QQ))


def nullspace(system: LinearSystem, tol: float = 1e-10,
              seed: int = DEFAULT_SEED) -> SolutionBasis:
    """Exact nullspace, gauge-quotiented and canonically ordered.

    The gauge unknowns come first in the column order, so in the row-reduced
    nullspace basis the pure-gauge directions are exactly the rows supported
    on the leading gauge block; they are dropped and the rest have zero gauge
    components.
    """
    ansatz = system.ansatz
    null = rational_nullspace(system.matrix)
    if not null:
        return SolutionBasis((), 0, "no solutions", (), ansatz)
    n_gauge = len(ansatz.gauge_unknowns)
    kept = [vec for vec in null if any(vec[n_gauge:])]
    dropped = len(null) - len(kept)

    def sort_key(pair):
        gen, vec = pair
        low = gen.lowest_order
        return (low if low is not None else ansatz.L.order + 1, vec)

    paired = sorted(((_generator(ansatz, "", vec), vec) for vec in kept), key=sort_key)
    generators = tuple(replace(g, name=f"S{i}") for i, (g, _) in enumerate(paired))
    vectors = tuple(v for _, v in paired)
    for g in generators:
        if not verify(ansatz.L, g, tol, seed).passed:
            raise SolverError(f"internal: solver produced {g.name} failing verification")
    note = f"removed {dropped} pure-gauge direction(s) (constant boundary terms)"
    return SolutionBasis(generators, len(kept), note, vectors, ansatz)


def solve(L: PerturbedLagrangian, spec: AnsatzSpec, tol: float = 1e-10,
          seed: int = DEFAULT_SEED) -> SolutionBasis:
    """Full pipeline: instantiate, reduce, nullspace, verify."""
    ansatz = instantiate(L, spec)
    return nullspace(reduce(ansatz), tol, seed)


# -- span membership ------------------------------------------------------


def _coefficients(form: NormalForm) -> dict:
    """The coefficients of a normal form over QQ, keyed by atom product."""
    return {k: QQ.from_sympy(c) for k, c in form.terms}


def _coordinates(expr: sp.Expr, columns: Sequence[dict]):
    """Sparse rational coordinates of expr in the span of the sparse columns, or None."""
    try:
        target = normalize(sp.expand(sp.sympify(expr)))
    except NonNormalizableError:
        return None
    return rational_solve(columns, _coefficients(target))


def contains(basis: SolutionBasis, X: ApproximateGenerator) -> bool:
    """Exact span-membership test for a candidate generator.

    The candidate is projected onto the ansatz coordinates slot by slot
    (failing that, it is not in the span) and membership is decided by an
    exact rational solve against the solution vectors.  Constant shifts of
    the boundary terms are gauge and ignored.

    ``X.boundary is None`` means f is free: only the xi and eta coordinates
    are compared.  That decides the same question, because a solution with
    xi = eta = 0 has f_x = f_t = 0, so its f is a constant, which is gauge;
    restricted to the xi and eta columns the solution vectors stay
    independent.
    """
    ansatz = basis.ansatz
    X.check_shape(ansatz.L)
    free_f = X.boundary is None
    vec = {}
    for (kind, A, i), (cols, forms) in ansatz.slots.items():
        if kind == "f":
            if free_f:
                continue
            target = X.boundary[A]
        else:
            target = X.orders[A].xi if kind == "xi" else X.orders[A].eta[i]
        coords = None if forms is None else _coordinates(target, forms)
        if coords is None:
            return False
        vec.update((cols[k], v) for k, v in coords.items())
    # the solution vectors vanish on the gauge columns, so those are skipped
    compared = [c for c, column in enumerate(ansatz.columns)
                if c >= len(ansatz.gauge_unknowns)
                and not (free_f and column.slot[0] == "f")]
    return rational_solve(
        [{c: v[c] for c in compared if v[c]} for v in basis.vectors],
        {c: vec[c] for c in compared if c in vec},
    ) is not None
