"""Metrics, Lie derivatives, and Killing / homothetic vector fields."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ

from .context import Context
from .normal import UnsupportedEquationError, _Ring, is_zero, rational_nullspace

# unknowns allowed in an ansatz, of solve or of killing; counted before any monomial is built
MAX_UNKNOWNS = 10_000


class GeometryError(ValueError):
    pass


def _spatial_monomials(xs, degree: int, extra=()):
    """The monomials in xs of total degree <= degree, by degree, then ``extra``."""
    mons = []
    for total in range(degree + 1):
        for powers in itertools.combinations_with_replacement(range(len(xs)), total):
            mon = sp.Integer(1)
            for idx in powers:
                mon *= xs[idx]
            mons.append(mon)
    mons.extend(extra)
    return mons


@dataclass(frozen=True)
class Metric:
    """Symmetric x-dependent matrix; used for both g_ij and h_ij."""

    ctx: Context
    entries: sp.ImmutableMatrix

    def __post_init__(self):
        n = self.ctx.dimension
        m = sp.ImmutableMatrix(self.entries)
        if m.shape != (n, n):
            raise GeometryError(f"metric shape {m.shape} does not match dimension {n}")
        forbidden = set(self.ctx.vs) | {self.ctx.t}
        for i in range(n):
            for j in range(n):
                if m[i, j].free_symbols & forbidden:
                    raise GeometryError(
                        f"metric entry ({i},{j}) may depend on coordinates only"
                    )
                if i < j and not is_zero(m[i, j] - m[j, i]):
                    raise GeometryError(f"metric not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_rows(cls, ctx: Context, rows: Sequence[Sequence[sp.Expr]]) -> "Metric":
        """Build from full rows or a lower triangle (row i of length i+1)."""
        n = ctx.dimension
        if len(rows) != n:
            raise GeometryError(f"{len(rows)} metric rows for dimension {n}")
        lower = all(len(row) == i + 1 for i, row in enumerate(rows))
        if not lower and any(len(row) != n for row in rows):
            raise GeometryError("metric rows must be full or a lower triangle")
        m = sp.zeros(n, n)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if lower:
                    m[i, j] = m[j, i] = sp.sympify(e)
                else:
                    m[i, j] = sp.sympify(e)
        return cls(ctx, sp.ImmutableMatrix(m))

    @property
    def is_zero_matrix(self) -> bool:
        return all(e == 0 for e in self.entries)


@dataclass(frozen=True)
class SpatialVectorField:
    """Components Y^i(x^k); one per coordinate."""

    ctx: Context
    components: tuple[sp.Expr, ...]

    def __post_init__(self):
        comps = tuple(sp.sympify(c) for c in self.components)
        if len(comps) != self.ctx.dimension:
            raise GeometryError(
                f"{len(comps)} components for dimension {self.ctx.dimension}"
            )
        forbidden = set(self.ctx.vs) | {self.ctx.t}
        for c in comps:
            if c.free_symbols & forbidden:
                raise GeometryError("spatial field may depend on coordinates only")
        object.__setattr__(self, "components", comps)


class HomotheticKind(Enum):
    KILLING = "killing"
    HOMOTHETIC = "homothetic"
    NOT_HOMOTHETIC = "not_homothetic"


@dataclass(frozen=True)
class HomotheticResult:
    field: SpatialVectorField
    conformal_factor: Optional[sp.Rational]
    kind: HomotheticKind
    residual: Optional[sp.ImmutableMatrix] = None

    @property
    def ok(self) -> bool:
        return self.kind is not HomotheticKind.NOT_HOMOTHETIC


def derivative_table():
    """A memoised d(e, v): each (expression, variable) pair is differentiated once.

    Sums and products are differentiated by linearity and sympy's own
    one-derivative Leibniz rule (one n-ary product per factor that depends on
    v) over the memoised derivatives of their arguments, so the result equals
    ``sp.diff(e, v)`` in structure without a ``Derivative`` construction per
    term.  An applied function placeholder gets its unevaluated
    ``Derivative`` directly, without the chain rule ``sp.diff`` runs over its
    arguments; every other expression goes to ``sp.diff``.
    """
    table = {}

    def d(e, v):
        key = (e, v)
        out = table.get(key)
        if out is None:
            if isinstance(e, AppliedUndef):
                out = sp.Derivative(e, v)
            elif e.is_Add:
                out = sp.Add(*(d(a, v) for a in e.args))
            elif e.is_Mul:
                args = e.args
                out = sp.Add(*(sp.Mul(*args[:i], d(a, v), *args[i + 1:])
                               for i, a in enumerate(args) if a.has(v)))
            else:
                out = sp.diff(e, v)
            table[key] = out
        return out

    return d


def lie_matrix(m, Y, xs, d=None) -> list[list]:
    """(L_Y m)_ij = Y^k m_ij,k + m_kj Y^k_,i + m_ik Y^k_,j for a nested list m, unexpanded.

    Y^k may depend on more than xs (the time, or function placeholders, whose
    derivatives stay unevaluated).  Only ``+``, ``*`` and ``d`` (a fresh
    ``derivative_table`` by default) touch the entries: ring elements work too.
    """
    d = d or derivative_table()
    n = len(m)
    return [[sum(Y[k] * d(m[i][j], xs[k]) + m[k][j] * d(Y[k], xs[i])
                 + m[i][k] * d(Y[k], xs[j]) for k in range(n))
             for j in range(n)] for i in range(n)]


def lie_scalar(V, Y, xs, d=None):
    """Directional derivative Y^k V_,k, with derivatives from the table ``d``."""
    d = d or derivative_table()
    return sum(Y[k] * d(V, xs[k]) for k in range(len(xs)))


def lie_derivative_metric(g: Metric, Y: SpatialVectorField) -> sp.ImmutableMatrix:
    """(L_Y g)_ij = Y^k g_ij,k + g_kj Y^k_,i + g_ik Y^k_,j, expanded."""
    if Y.ctx.dimension != g.ctx.dimension:
        raise GeometryError("dimension mismatch")
    lie = lie_matrix(g.entries.tolist(), Y.components, g.ctx.xs)
    return sp.ImmutableMatrix(lie).applyfunc(sp.expand)


def _homothetic_matrix(g: Metric, fields: Sequence[Sequence[sp.Expr]]):
    """The QQ matrix of L_Y g = 2 psi g, Y = sum_c U^(c+1) fields[c] and psi the last unknown.

    The first nonzero entry of g fixes a conformal factor Omega = prod p^r, r the
    fractional parts of its non-integer exponents (Omega = 1 for integer powers).  With
    g = Omega h the equation is Omega (L_Y h + (sum r Y(p)/p - 2 psi) h) = 0, whose
    entries ``_Ring`` turns into rows (UnsupportedEquationError outside its class).
    """
    xs = g.ctx.xs
    n = g.ctx.dimension
    count = len(fields) + 1
    # a common power pulled out of each entry's terms shows the conformal factor
    entries = g.entries.applyfunc(sp.factor_terms)
    first = next((e for e in entries if e != 0), sp.S.One)
    omega = {f.base: f.exp % 1 for f in sp.Mul.make_args(first)
             if f.is_Pow and f.exp.is_Rational and not f.exp.is_Integer}
    h = (entries / sp.Mul(*(p**r for p, r in omega.items()))).tolist()
    R = _Ring([*sum(h, []), *(r / p for p, r in omega.items()),
               *(c for field in fields for c in field)], xs)
    Y = [sum((R.U ** (c + 1) * R.lift(field[i]) for c, field in enumerate(fields)
              if field[i] != 0), R.ring.zero) for i in range(n)]
    h = [[R.lift(e) for e in row] for row in h]
    lie = lie_matrix(h, Y, xs, R.d)
    scale = sum(lie_scalar(R.lift(p), Y, xs, R.d) * R.lift(r / p)
                for p, r in omega.items()) - 2 * R.U ** count
    return R.matrix([lie[i][j] + scale * h[i][j] for i in range(n) for j in range(i, n)], count)


def check_homothetic(g: Metric, Y: SpatialVectorField) -> HomotheticResult:
    """L_Y g = 2 psi g for a rational constant psi: (1, psi) in the nullspace of
    ``_homothetic_matrix(g, [Y])``, which raises where ``killing`` exits 3 on g."""
    if Y.ctx.dimension != g.ctx.dimension:
        raise GeometryError("dimension mismatch")
    for v in rational_nullspace(_homothetic_matrix(g, [Y.components])):
        if v[0]:
            psi = QQ.to_sympy(v[1] / v[0])
            kind = HomotheticKind.KILLING if psi == 0 else HomotheticKind.HOMOTHETIC
            return HomotheticResult(Y, psi, kind)
    return HomotheticResult(Y, None, HomotheticKind.NOT_HOMOTHETIC, lie_derivative_metric(g, Y))


def solve_homothetic(g: Metric, degree: int = 1) -> list[HomotheticResult]:
    """All solutions of L_Y g = 2 psi g with polynomial Y of total degree <= degree.

    Y is one unknown per (component, monomial) of ``_homothetic_matrix``'s system; the
    row-reduced nullspace is the answer.  Killing solutions are listed before proper
    homothetic ones.
    """
    if degree < 1:
        raise GeometryError("ansatz degree must be >= 1")
    ctx = g.ctx
    n = ctx.dimension
    # C(n + degree, n) monomials of total degree <= degree, counted before any is built
    count = n * math.comb(n + degree, n) + 1
    if count > MAX_UNKNOWNS:
        raise GeometryError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n} components x C({n} + {degree}, {n}) monomials + psi)"
        )
    for e in g.entries:
        if e.free_symbols & set(ctx.free_param_symbols()):
            raise UnsupportedEquationError(
                f"metric coefficient {e} holds a symbolic parameter; bind it to a number")
    mons = _spatial_monomials(ctx.xs, degree)
    # unknown c is U^(c + 1): component i's coefficient of mons[k] is c = i * len(mons) + k
    fields = [tuple(mon if j == i else sp.S.Zero for j in range(n))
              for i in range(n) for mon in mons]
    results = []
    # the row-reduced basis is canonical, so the output is deterministic
    for vec in rational_nullspace(_homothetic_matrix(g, fields)):
        comps = (sp.expand(sum(v * Y[i] for v, Y in zip(vec, fields) if v)) for i in range(n))
        psi = QQ.to_sympy(vec[-1])
        kind = HomotheticKind.KILLING if psi == 0 else HomotheticKind.HOMOTHETIC
        results.append(HomotheticResult(SpatialVectorField(ctx, tuple(comps)), psi, kind))
    results.sort(key=lambda r: 0 if r.kind is HomotheticKind.KILLING else 1)
    return results
