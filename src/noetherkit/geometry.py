"""Metrics, Lie derivatives, and Killing / homothetic vector fields."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM

from .context import Context
from .normal import clear_denominator, is_zero


class GeometryError(ValueError):
    pass


class UnsupportedMetricError(GeometryError):
    """Metric entry outside the polynomial class the exact solver handles."""


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


def lie_matrix(m, Y, xs, d=None) -> sp.Matrix:
    """(L_Y m)_ij = Y^k m_ij,k + m_kj Y^k_,i + m_ik Y^k_,j, unexpanded.

    The components Y^k may depend on more than xs (the time, or function
    placeholders, whose derivatives stay unevaluated).  Derivatives come from
    the table ``d``, a fresh one by default.
    """
    d = d or derivative_table()
    n = m.shape[0]
    out = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            s = sp.Integer(0)
            for k in range(n):
                s += Y[k] * d(m[i, j], xs[k])
                s += m[k, j] * d(Y[k], xs[i])
                s += m[i, k] * d(Y[k], xs[j])
            out[i, j] = s
    return out


def lie_scalar(V, Y, xs, d=None) -> sp.Expr:
    """Directional derivative Y^k V_,k, with derivatives from the table ``d``."""
    d = d or derivative_table()
    return sp.Add(*(Y[k] * d(V, xs[k]) for k in range(len(xs))))


def lie_derivative_metric(g: Metric, Y: SpatialVectorField) -> sp.ImmutableMatrix:
    """(L_Y g)_ij = Y^k g_ij,k + g_kj Y^k_,i + g_ik Y^k_,j, expanded."""
    if Y.ctx.dimension != g.ctx.dimension:
        raise GeometryError("dimension mismatch")
    return sp.ImmutableMatrix(
        lie_matrix(g.entries, Y.components, g.ctx.xs).applyfunc(sp.expand)
    )


def check_homothetic(g: Metric, Y: SpatialVectorField) -> HomotheticResult:
    """Test L_Y g = 2 psi g for a single rational constant psi."""
    lie = lie_derivative_metric(g, Y)
    n = g.ctx.dimension
    psi = None
    anchor = next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if not is_zero(g.entries[i, j])
        ),
        None,
    )
    if anchor is not None:
        i, j = anchor
        candidate = sp.cancel(lie[i, j] / (2 * g.entries[i, j]))
        if candidate.is_Rational:
            psi = candidate
    if psi is None:
        residual = sp.ImmutableMatrix(lie)
        return HomotheticResult(Y, None, HomotheticKind.NOT_HOMOTHETIC, residual)
    residual = sp.Matrix(n, n, lambda i, j: sp.expand(lie[i, j] - 2 * psi * g.entries[i, j]))
    for i in range(n):
        for j in range(n):
            if not is_zero(residual[i, j]):
                return HomotheticResult(
                    Y, None, HomotheticKind.NOT_HOMOTHETIC, sp.ImmutableMatrix(residual)
                )
    kind = HomotheticKind.KILLING if psi == 0 else HomotheticKind.HOMOTHETIC
    return HomotheticResult(Y, psi, kind)


def solve_homothetic(g: Metric, degree: int = 1) -> list[HomotheticResult]:
    """All solutions of L_Y g = 2 psi g with polynomial Y of total degree <= degree.

    Coefficient collection over monomials gives a homogeneous rational linear
    system in the ansatz coefficients and psi; the nullspace is the answer.
    Killing solutions are listed before proper homothetic ones.
    """
    if degree < 1:
        raise GeometryError("ansatz degree must be >= 1")
    ctx = g.ctx
    n = ctx.dimension
    xs = ctx.xs
    # imported here: the solver imports this module through lagrangian
    from .solver import MAX_UNKNOWNS, _spatial_monomials, linear_rows, rational_nullspace

    # C(n + degree, n) monomials of total degree <= degree, counted before any is built
    count = n * math.comb(n + degree, n) + 1
    if count > MAX_UNKNOWNS:
        raise GeometryError(
            f"ansatz sizing: {count} unknowns exceeds the {MAX_UNKNOWNS} limit "
            f"({n} components x C({n} + {degree}, {n}) monomials + psi)"
        )
    mons = _spatial_monomials(xs, degree)
    unknowns = []
    comps = []
    for i in range(n):
        row = sp.Integer(0)
        for m_idx, mon in enumerate(mons):
            c = sp.Symbol(f"_c{i}_{m_idx}")
            unknowns.append(c)
            row += c * mon
        comps.append(row)
    psi = sp.Symbol("_psi")
    unknowns.append(psi)
    index = {u: col for col, u in enumerate(unknowns)}

    def monomial_coefficients(coeff):
        terms = sp.Poly(coeff, *xs).terms()
        if not all(c.is_Rational for _, c in terms):
            raise UnsupportedMetricError(f"metric coefficient not rational in {coeff}")
        return terms

    # parameters bound to numbers enter as their values, as in the determining equations
    bound = ctx.bind(g.entries)
    lie = lie_matrix(bound, comps, xs)
    rows = []
    for i in range(n):
        for j in range(i, n):
            numer, _ = clear_denominator(lie[i, j] - 2 * psi * bound[i, j])
            if not numer.is_polynomial(*xs):
                raise UnsupportedMetricError(
                    f"metric entry ({i},{j}) is not polynomial after clearing denominators"
                )
            rows.extend(linear_rows(numer, index, monomial_coefficients))
    results = []
    # the row-reduced basis is canonical, so the output is deterministic
    matrix = SDM(dict(enumerate(rows)), (len(rows), len(unknowns)), QQ)
    for vec in rational_nullspace(matrix):
        field = SpatialVectorField(
            ctx,
            tuple(
                sp.expand(sum(vec[i * len(mons) + m] * mons[m] for m in range(len(mons))))
                for i in range(n)
            ),
        )
        psi_val = QQ.to_sympy(vec[-1])
        kind = HomotheticKind.KILLING if psi_val == 0 else HomotheticKind.HOMOTHETIC
        results.append(HomotheticResult(field, psi_val, kind))
    results.sort(key=lambda r: 0 if r.kind is HomotheticKind.KILLING else 1)
    return results
