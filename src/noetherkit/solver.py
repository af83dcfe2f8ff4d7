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
import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM
from sympy.polys.rings import ring

from .conditions import residuals, verify
from .lagrangian import ApproximateGenerator, GeneratorOrder, PerturbedLagrangian
from .normal import DEFAULT_SEED, normalize, polynomial_argument

MAX_UNKNOWNS = 10_000


class SolverError(ValueError):
    pass


class UnsupportedEquationError(SolverError):
    """An expression of the problem is outside the class the solver's ring represents."""


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
        must have rank k (points outside a function's domain are skipped).
        A basis that spans a constant must list it: only numbers are gauge."""
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
        matrix = np.array(values, dtype=float)
        if not values or np.linalg.matrix_rank(matrix) != k:
            raise SolverError("time basis functions are not independent")
        with_ones = np.column_stack([matrix, np.ones(len(values))])
        if not any(b.is_number for b in self.time_basis) and np.linalg.matrix_rank(with_ones) == k:
            raise SolverError(
                "time basis spans a constant but lists none; write it with 1 in place "
                'of one element (e.g. ["1", "cos(t)^2"])'
            )


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


@dataclass(frozen=True)
class SolutionBasis:
    generators: tuple[ApproximateGenerator, ...]
    nullspace_dim: int
    gauge_note: str
    # coefficient vectors over QQ, dense, aligned with generators and with
    # the ansatz's columns
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


# -- the pipeline ---------------------------------------------------------


def instantiate(L: PerturbedLagrangian, spec: AnsatzSpec) -> Ansatz:
    """Tabulate xi, eta and f over the ansatz with fresh unknown coefficients.

    A boundary function that is a number gets no unknown: a constant boundary
    term is gauge.  The ones left out are counted.
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
    # less the constant boundary functions, which are no unknowns
    n_numbers = sum(T.is_number for T in spec.time_basis)
    count = n_orders * (len(spec.time_basis) * (1 + n * n_eta + n_f) - n_numbers)
    if count > MAX_UNKNOWNS:
        raise SolverError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n_orders} orders x [{len(spec.time_basis)} time basis x "
            f"(1 xi + {n}x{n_eta} eta + {n_f} f) - {n_numbers} constant f])"
        )
    spec.check_independent(ctx.t)
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
        return sp.expand(sp.Add(*parts.get((kind, A, i), ())))

    orders = range(ansatz.L.order + 1)
    dim = ansatz.L.ctx.dimension
    return ApproximateGenerator(
        name,
        tuple(GeneratorOrder(part("xi", A), tuple(part("eta", A, i) for i in range(dim)))
              for A in orders),
        tuple(part("f", A) for A in orders),
    )


class _Ring:
    """The polynomial ring over QQ of one solve, the lift into it and its derivation.

    Generators: U, whose power U^(c+1) stands for unknown c (the equations are
    linear in the unknowns, so a term holds one power of U and monomials stay
    short); t, the coordinates and the symbolic parameters; one per sin, cos,
    exp or ln atom of the input or of an atom's derivative by one of
    ``variables``; one inv_p per irreducible factor p of a denominator, with
    d(inv_p) = -inv_p^2 d(p).  The derivation ``d`` takes only ``variables``:
    a caller that never differentiates passes none.
    """

    def __init__(self, ctx, exprs: Iterable[sp.Expr], variables: Sequence[sp.Symbol]):
        self.vars = tuple(variables)
        # atom -> None, denominator -> (content, factors), factor -> its inverse generator
        self.atoms, self.factored, self.inv = {}, {}, {}
        for e in exprs:
            self._scan(e)
        poly = (ctx.t, *ctx.xs, *ctx.free_param_symbols())
        self.poly_end, self.atom_end = 1 + len(poly), 1 + len(poly) + len(self.atoms)
        self.ring, self.U, *gens = ring([sp.Dummy() for _ in range(self.atom_end + len(self.inv))],
                                        QQ)
        self.gen = dict(zip((*poly, *self.atoms), gens))
        self.inv = dict(zip(self.inv, gens[self.atom_end - 1:]))
        self.lift = functools.cache(self._lift)
        # the normal form of the atom product with the exponents ``atoms``
        self.form = functools.cache(lambda atoms: [(k, QQ.from_sympy(c)) for k, c in normalize(
            sp.Mul(*(a**k for a, k in zip(self.atoms, atoms)))).terms])
        self.tables = {}
        for v in self.vars:
            table = self.tables[v] = [(poly.index(v) + 1, self.ring.one)]
            table += [(i, self.lift(sp.diff(a, v))) for i, a in enumerate(self.atoms, self.poly_end)]
            # a factor holds no inverse, so its derivative needs the entries above only
            table += [(i, -g**2 * self.d(self.lift(p), v))
                      for i, (p, g) in enumerate(self.inv.items(), self.atom_end)]

    def _scan(self, e: sp.Expr) -> None:
        """Record the atoms of e and of their derivatives, and the factors of denominators."""
        for a in sp.preorder_traversal(e):
            if isinstance(a, (sp.sin, sp.cos, sp.exp, sp.log)) and a not in self.atoms:
                if not polynomial_argument(a.args[0]):
                    raise UnsupportedEquationError(f"non-polynomial argument in {a}")
                self.atoms[a] = None
                for v in self.vars:
                    self._scan(sp.diff(a, v))
            elif a.is_Pow and a.exp.is_negative and a.base not in self.factored:
                c, numer, denom = sp.factor_list(a.base, frac=True)
                # a factor of the base's own denominator divides: a negative exponent
                self.factored[a.base] = c, numer + [(p, -k) for p, k in denom]
                for p, _ in numer + denom:
                    self._scan(p)
                self.inv.update((p, None) for p, _ in numer)

    def _lift(self, e: sp.Expr):
        """The ring image of a scanned expression; UnsupportedEquationError outside the class."""
        if e.is_Rational:
            return self.ring(QQ(int(e.p), int(e.q)))
        if e in self.gen:
            return self.gen[e]
        if e.is_Add or e.is_Mul:
            return (sum if e.is_Add else math.prod)(map(self.lift, e.args))
        if not (e.is_Pow and e.exp.is_Integer):
            raise UnsupportedEquationError(f"{'non-integer power' if e.is_Pow else 'factor'} {e}")
        if e.exp > 0:
            return self.lift(e.base) ** int(e.exp)
        c, factors = self.factored[e.base]
        n = -int(e.exp)
        return self.lift(1 / c) ** n * math.prod(
            self.inv[p] ** (k * n) if k > 0 else self.lift(p) ** (-k * n) for p, k in factors)

    def d(self, e, v: sp.Symbol):
        """The derivation: de/dv summed over the generators that depend on v."""
        return sum((e.diff(i) * dg for i, dg in self.tables[v] if dg), self.ring.zero)

    def cleared(self, e):
        """e times p^k, k the top exponent of inv_p in e: a term's inv_p^j becomes p^(k - j)."""
        start, top = self.atom_end, e.degrees()[self.atom_end:]
        groups: dict[tuple, dict] = {}
        for m, c in e.iterterms():
            groups.setdefault(m[start:], {})[m[:start] + (0,) * len(top)] = c
        return sum((self.ring.from_dict(terms)
                    * math.prod(self.lift(p) ** (k - j) for p, k, j in zip(self.inv, top, inverse))
                    for inverse, terms in groups.items()), self.ring.zero)

    def rows(self, e, n: int) -> list[dict]:
        """The sparse QQ rows of e = 0, e linear and homogeneous in the unknowns U^1..U^n.

        A term of the cleared e adds to the row of its polynomial part times
        each atom product in the normal form of its atoms.
        """
        acc = collections.defaultdict(lambda: collections.defaultdict(int))
        for m, c in self.cleared(e).iterterms():
            if not 0 < m[0] <= n:
                raise SolverError("internal: an equation is not linear in the unknowns")
            for key, v in self.form(m[self.poly_end:self.atom_end]):
                acc[m[1:self.poly_end], key][m[0] - 1] += c * v
        return [r for r in ({c: v for c, v in row.items() if v} for row in acc.values()) if r]


def reduce(ansatz: Ansatz) -> LinearSystem:
    """Collect each equation over independent atoms, in ``_Ring``.

    There the ``residuals`` of derive and verify build the equations, and
    ``_Ring.rows`` turns each into sparse rows.
    """
    L, ctx, n = ansatz.L, ansatz.L.ctx, len(ansatz.unknowns)
    R = _Ring(ctx, [e for m, V in L.parts for e in (*sum(m, []), V)]
              + [column.fn for column in ansatz.columns], (ctx.t, *ctx.xs))
    comps = collections.defaultdict(lambda: R.ring.zero)
    for c, column in enumerate(ansatz.columns):
        comps[column.slot] += R.U ** (c + 1) * R.lift(column.fn)
    orders = range(L.order + 1)
    parts = [([[R.lift(e) for e in row] for row in m], R.lift(V)) for m, V in L.parts]
    eqs = residuals(ctx, parts,
                    [comps["xi", A, 0] for A in orders],
                    [[comps["eta", A, i] for i in range(ctx.dimension)] for A in orders],
                    [comps["f", A, 0] for A in orders], R.d)
    rows = [row for eq in eqs for row in R.rows(eq.lhs, n)]
    return LinearSystem(ansatz, SDM(dict(enumerate(rows)), (len(rows), n), QQ))


def nullspace(system: LinearSystem, tol: float = 1e-10,
              seed: int = DEFAULT_SEED) -> SolutionBasis:
    """Exact nullspace, canonically ordered."""
    ansatz = system.ansatz
    null = rational_nullspace(system.matrix)
    if not null and not ansatz.constants:
        return SolutionBasis((), 0, "no solutions", (), ansatz)

    def sort_key(pair):
        gen, vec = pair
        low = gen.lowest_order
        return (low if low is not None else ansatz.L.order + 1, vec)

    paired = sorted(((_generator(ansatz, "", vec), vec) for vec in null), key=sort_key)
    generators = tuple(replace(g, name=f"S{i}") for i, (g, _) in enumerate(paired))
    vectors = tuple(v for _, v in paired)
    for g in generators:
        if not verify(ansatz.L, g, tol, seed).passed:
            raise SolverError(f"internal: solver produced {g.name} failing verification")
    note = f"removed {ansatz.constants} pure-gauge direction(s) (constant boundary terms)"
    return SolutionBasis(generators, len(null), note, vectors, ansatz)


def solve(L: PerturbedLagrangian, spec: AnsatzSpec, tol: float = 1e-10,
          seed: int = DEFAULT_SEED) -> SolutionBasis:
    """Full pipeline: instantiate, reduce, nullspace, verify."""
    ansatz = instantiate(L, spec)
    return nullspace(reduce(ansatz), tol, seed)


# -- span membership ------------------------------------------------------


def contains(basis: SolutionBasis, X: ApproximateGenerator) -> bool:
    """Exact span-membership test for a candidate generator, in ``_Ring``.

    Unknown j < k weighs solution S_j and unknown k the candidate, k the
    number of solutions: each compared slot gives the equation sum_j a_j S_j
    + a_k X = 0, and X is in the span exactly when a_k is not a pivot of
    their rows.  A slot outside the ring's class puts X outside the span.
    Constant shifts of the boundary terms are gauge: the part of a given f
    that depends on none of t, x and xdot is dropped.

    ``X.boundary is None`` means f is free: only xi and eta are compared.
    That decides the same question, because a solution with xi = eta = 0 has
    f_x = f_t = 0, so its f is a constant, which is gauge; restricted to xi
    and eta the solutions stay independent.
    """
    L = basis.ansatz.L
    X.check_shape(L)
    ctx, k = L.ctx, len(basis.generators)

    def slots(g: ApproximateGenerator, boundary) -> list[sp.Expr]:
        """xi and eta of every order, then the boundary terms unless f is free."""
        return [e for o in g.orders for e in (o.xi, *o.eta)] + list(boundary or ())

    free_f = X.boundary is None
    given = None if free_f else [
        sp.expand(f).as_independent(ctx.t, *ctx.xs, *ctx.vs, as_Add=True)[1]
        for f in X.boundary]
    # one row per generator, the candidate last; one column per compared slot
    table = [slots(S, None if free_f else S.boundary) for S in basis.generators]
    table.append(slots(X, given))
    try:
        R = _Ring(ctx, [e for row in table for e in row], ())
        eqs = [sum((R.U ** (j + 1) * R.lift(e) for j, e in enumerate(slot)), R.ring.zero)
               for slot in zip(*table)]
    except UnsupportedEquationError:
        return False
    rows = [row for eq in eqs for row in R.rows(eq, k + 1)]
    return k not in SDM(dict(enumerate(rows)), (len(rows), k + 1), QQ).rref()[1]
