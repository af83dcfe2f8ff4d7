"""Linear-algebraic solver for the determining equations over a declared ansatz.

Every generator component is expanded over a user-declared time basis times
spatial monomials, so the ansatz is a coefficient table: one unknown per
(slot, basis function) pair.  Lifted with the Lagrangian into a sparse
polynomial ring over QQ, it gives equations linear in the unknowns; each is
multiplied clear of denominators once and its terms are collected over
independent atoms into sparse rows over QQ, whose nullspace is the solution
basis.  The equations see a boundary term only through its derivatives, so a
constant one is gauge: the boundary ansatz has no constant functions, and the
solutions have no pure-gauge directions to quotient out.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import sympy as sp

from .conditions import constant_free, residuals
from .geometry import MAX_UNKNOWNS, _spatial_monomials
from .lagrangian import ApproximateGenerator, GeneratorOrder, PerturbedLagrangian
from .normal import SDM, UnsupportedEquationError, _Ring, rational_nullspace


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class AnsatzSpec:
    """Search space: span{time_basis} x spatial monomials.

    xi_A uses the time basis alone; eta_A^i uses time basis times spatial
    monomials up to spatial_degree; boundary terms f_A go one degree higher.
    include_inverse_powers adds extra spatial monomials (e.g. 1/x) to the
    eta and f spans.  ``reduce`` checks that all are independent over QQ.
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
        object.__setattr__(self, "include_inverse_powers",
                           tuple(sp.sympify(m) for m in self.include_inverse_powers))


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
    columns: tuple[Column, ...]  # aligned with unknowns
    constants: int  # boundary functions left out because they are numbers


@dataclass(frozen=True)
class LinearSystem:
    ansatz: Ansatz
    matrix: SDM
    ring: _Ring  # where reduce built the rows, and nullspace checks the solutions


@dataclass(frozen=True)
class SolutionBasis:
    generators: tuple[ApproximateGenerator, ...]
    nullspace_dim: int
    gauge_note: str
    # coefficient vectors over QQ, dense, aligned with generators and with
    # the ansatz's columns
    vectors: tuple[tuple, ...]
    ansatz: Ansatz


# -- the pipeline ---------------------------------------------------------


def instantiate(L: PerturbedLagrangian, spec: AnsatzSpec) -> Ansatz:
    """Tabulate xi, eta and f over the ansatz with fresh unknown coefficients.

    A boundary function that is a number gets no unknown: a constant boundary
    term is gauge.  The ones left out are counted.
    """
    ctx, free = L.ctx, set(L.ctx.free_param_symbols())
    for b in spec.time_basis:
        if bad := b.free_symbols - {ctx.t} - free:
            raise SolverError(f"time basis element {b} depends on "
                              f"{', '.join(sorted(map(str, bad)))}; it may depend on t only")
        if b.free_symbols & free:
            raise SolverError(f"time basis element {b} uses symbolic parameters; "
                              "bind them to numbers")
    for i, p in enumerate(spec.include_inverse_powers):
        if bad := p.free_symbols - set(ctx.xs) - free:
            raise SolverError(f"ansatz.inverse_powers[{i}]: {p} depends on "
                              f"{', '.join(sorted(map(str, bad)))}")
    # monomials of total degree <= d in n coordinates: C(n + d, n), counted
    # before any is built
    n, d, extra = ctx.dimension, spec.spatial_degree, len(spec.include_inverse_powers)
    n_eta, n_f = math.comb(n + d, n) + extra, math.comb(n + d + 1, n) + extra
    n_orders = L.order + 1
    # less the constant boundary functions, which are no unknowns
    n_numbers = sum(T.is_number for T in spec.time_basis)
    count = n_orders * (len(spec.time_basis) * (1 + n * n_eta + n_f) - n_numbers)
    if count > MAX_UNKNOWNS:
        raise SolverError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n_orders} orders x [{len(spec.time_basis)} time basis x "
            f"(1 xi + {n}x{n_eta} eta + {n_f} f) - {n_numbers} constant f])"
        )
    eta_mons = _spatial_monomials(ctx.xs, d, spec.include_inverse_powers)
    f_mons = _spatial_monomials(ctx.xs, d + 1, spec.include_inverse_powers)

    table = []
    constants = 0
    for A in range(n_orders):
        for m_idx, T in enumerate(spec.time_basis):
            for s_idx, M in enumerate(f_mons):
                if (T * M).is_number:
                    constants += 1
                else:
                    table.append((sp.Symbol(f"_f{A}_{m_idx}_{s_idx}"),
                                  Column(("f", A, 0), T * M)))
        for m_idx, T in enumerate(spec.time_basis):
            table.append((sp.Symbol(f"_x{A}_{m_idx}"), Column(("xi", A, 0), T)))
        for i in range(ctx.dimension):
            for m_idx, T in enumerate(spec.time_basis):
                for s_idx, M in enumerate(eta_mons):
                    table.append((sp.Symbol(f"_e{A}_{i}_{m_idx}_{s_idx}"),
                                  Column(("eta", A, i), T * M)))
    return Ansatz(L, spec, tuple(u for u, _ in table), tuple(c for _, c in table), constants)


def _generator(ansatz: Ansatz, name: str, vec: Sequence[sp.Expr]) -> ApproximateGenerator:
    """The generator sum_c vec_c * fn_c, slot by slot; vec may be the unknowns."""
    parts: dict[tuple[str, int, int], list[sp.Expr]] = {}
    for c, column in zip(vec, ansatz.columns):
        if c != 0:
            parts.setdefault(column.slot, []).append(c * column.fn)

    def part(kind, A, i=0):
        # exp(t + 1) stays one atom of the ring, not E*exp(t)
        return sp.expand(sp.Add(*parts.get((kind, A, i), ())), power_exp=False)

    orders = range(ansatz.L.order + 1)
    dim = ansatz.L.ctx.dimension
    return ApproximateGenerator(
        name,
        tuple(GeneratorOrder(part("xi", A), tuple(part("eta", A, i) for i in range(dim)))
              for A in orders),
        tuple(part("f", A) for A in orders),
    )


def _equations(R: _Ring, ansatz: Ansatz, weights: Sequence) -> tuple:
    """The determining equations, in R, of the generator sum_c weights[c] fn_c."""
    L, ctx = ansatz.L, ansatz.L.ctx
    comps = collections.defaultdict(lambda: R.ring.zero)
    for w, column in zip(weights, ansatz.columns):
        comps[column.slot] += w * R.lift(column.fn)
    orders = range(L.order + 1)
    parts = [([[R.lift(e) for e in row] for row in m], R.lift(V)) for m, V in L.parts]
    return residuals(ctx, parts,
                     [comps["xi", A, 0] for A in orders],
                     [[comps["eta", A, i] for i in range(ctx.dimension)] for A in orders],
                     [comps["f", A, 0] for A in orders], R.d)


def reduce(ansatz: Ansatz) -> LinearSystem:
    """Check the ansatz, then collect each equation over independent atoms, in one ``_Ring``.

    Every slot's functions are among the f span's T*M, which must be independent over QQ:
    listed M-major from M = 1, the first dependent one names the time basis or an inverse
    power.  Only numbers are gauge, so the basis may span no other constant (ln(2*t) -
    ln(t) has derivative 0).  ``residuals`` builds the equations, ``_Ring.rows`` the rows.
    """
    L, ctx, spec, n = ansatz.L, ansatz.L.ctx, ansatz.spec, len(ansatz.unknowns)
    R = _Ring([e for m, V in L.parts for e in (*sum(m, []), V)]
              + [column.fn for column in ansatz.columns], (ctx.t, *ctx.xs))
    basis, inverse, k = spec.time_basis, spec.include_inverse_powers, len(spec.time_basis)
    mons = _spatial_monomials(ctx.xs, spec.spatial_degree + 1, inverse)
    family = [T * M for M in mons for T in basis]
    pivots = R.matrix([R.span(family)], len(family)).rref()[1]
    # the block of the first column that is no pivot, counted from the first inverse power
    i = next(c for c, p in enumerate((*pivots, None)) if c != p) // k - len(mons) + len(inverse)
    if i < 0:
        raise SolverError("time basis functions are not independent")
    if i < len(inverse):
        raise SolverError(f"ansatz.inverse_powers[{i}]: {inverse[i]} adds no function to the spans")
    derivative_rank = len(R.matrix([R.d(R.span(basis), ctx.t)], k).rref()[1])
    if derivative_rank < k - sum(T.is_number for T in basis):
        raise SolverError("time basis spans a constant that it does not list; write it with 1 "
                          'in place of one element (e.g. ["1", "cos(t)^2"])')
    eqs = _equations(R, ansatz, [R.U ** (c + 1) for c in range(n)])
    return LinearSystem(ansatz, R.matrix([eq.lhs for eq in eqs], n), R)


def nullspace(system: LinearSystem) -> SolutionBasis:
    """Exact nullspace, canonically ordered, checked in ``reduce``'s ring: the equations
    of sum_i U^(i+1) S_i have a nonzero entry in column i exactly when S_i fails them."""
    ansatz, R = system.ansatz, system.ring
    null = rational_nullspace(system.matrix)
    if not null and not ansatz.constants:
        return SolutionBasis((), 0, "no solutions", (), ansatz)

    def lowest_order(vec):
        """The first order with a nonzero xi or eta coefficient: as the columns are
        independent, the lowest order of vec's generator."""
        return min((column.slot[1] for column, c in zip(ansatz.columns, vec)
                    if c and column.slot[0] != "f"), default=ansatz.L.order + 1)

    vectors = tuple(sorted(null, key=lambda vec: (lowest_order(vec), vec)))
    generators = tuple(_generator(ansatz, f"S{i}", vec) for i, vec in enumerate(vectors))
    weights = [sum((R.U ** (i + 1) * v[c] for i, v in enumerate(vectors) if v[c]), R.ring.zero)
               for c in range(len(ansatz.columns))]
    failing = [c for eq in _equations(R, ansatz, weights) for row in R.rows(eq.lhs, len(vectors))
               for c in row]
    if failing:
        raise SolverError(f"internal: solver produced S{min(failing)} failing verification")
    note = f"removed {ansatz.constants} pure-gauge direction(s) (constant boundary terms)"
    return SolutionBasis(generators, len(null), note, vectors, ansatz)


def solve(L: PerturbedLagrangian, spec: AnsatzSpec) -> SolutionBasis:
    """Full pipeline: instantiate, reduce, nullspace and its check."""
    return nullspace(reduce(instantiate(L, spec)))


# -- span membership ------------------------------------------------------


def contains(basis: SolutionBasis, candidates: Sequence[ApproximateGenerator],
             reasons: Optional[dict[int, str]] = None) -> tuple[Optional[bool], ...]:
    """Exact span membership of each candidate, in ``_Ring``: True, False or None (undecided).

    Unknown j < k weighs solution S_j and unknown k + m candidate X_m, k the number of
    solutions; each compared slot gives one equation.  X_m is in the span exactly when
    column k + m of the echelon form of their rows is nonzero only in rows whose pivot is a
    solution's.  The candidates that give f share one echelon form, and those that leave it
    free (``X.boundary is None``) another, where only xi and eta are compared.  That decides
    the same question: a solution with xi = eta = 0 has f_x = f_t = 0, so its f is a
    constant, which is gauge, and restricted to xi and eta the solutions stay independent.
    A constant shift of a given f is gauge too: its part free of t, x and xdot is dropped.
    A group that does not lift is decided one candidate at a time: one with a slot outside
    the ring's class is undecided, and ``reasons``, if given, maps its index to why.
    """
    L, k = basis.ansatz.L, len(basis.generators)

    def slots(g: ApproximateGenerator, boundary) -> list[sp.Expr]:
        """xi and eta of every order, then the boundary terms unless f is free."""
        return [e for o in g.orders for e in (o.xi, *o.eta)] + list(boundary or ())

    groups: dict[bool, list[int]] = {}
    for j, X in enumerate(candidates):
        X.check_shape(L)
        groups.setdefault(X.boundary is None, []).append(j)
    answers, work = {}, list(groups.items())
    for free_f, group in work:
        # one row per generator, then the candidates; one column per compared slot
        table = [slots(S, None if free_f else S.boundary) for S in basis.generators]
        table += [slots(candidates[j], None if free_f else [
            constant_free(f, L.ctx) for f in candidates[j].boundary]) for j in group]
        try:
            R = _Ring([e for row in table for e in row])
            matrix = R.matrix([R.span(slot) for slot in zip(*table)], len(table))
        except UnsupportedEquationError as exc:
            if len(group) > 1:
                work += [(free_f, [j]) for j in group]
            elif reasons is not None:
                reasons[group[0]] = str(exc)
            continue
        echelon, pivots = matrix.rref()
        outside = {c for r, p in enumerate(pivots) if p >= k for c in echelon.get(r, ())}
        answers.update((j, k + m not in outside) for m, j in enumerate(group))
    return tuple(answers.get(j) for j in range(len(candidates)))
