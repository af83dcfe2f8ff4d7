"""Metrics, Lie derivatives, and Killing / homothetic vector fields."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import sympy as sp

from .context import Context
from .normal import DEFAULT_SEED, ZeroStatus, clear_denominator, is_zero


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

    def check_nondegenerate(self, seed: int = DEFAULT_SEED, points: int = 8) -> bool:
        """Sample |det| at random coordinate points; warn on failure."""
        det = self.entries.det()
        syms = sorted(det.free_symbols, key=lambda s: s.name)
        rng = np.random.default_rng(seed)
        fn = sp.lambdify(syms, det, modules=["math"])
        ok = True
        for _ in range(points):
            vals = rng.uniform(0.25, 2.0, size=len(syms))
            try:
                d = fn(*vals)
            except (ValueError, ZeroDivisionError):
                continue
            if abs(d) <= 1e-8:
                ok = False
        if not ok:
            warnings.warn("metric appears degenerate at sampled points", stacklevel=2)
        return ok


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


def lie_derivative_metric(g: Metric, Y: SpatialVectorField) -> sp.ImmutableMatrix:
    """(L_Y g)_ij = Y^k g_ij,k + g_kj Y^k_,i + g_ik Y^k_,j."""
    if Y.ctx.dimension != g.ctx.dimension:
        raise GeometryError("dimension mismatch")
    n = g.ctx.dimension
    xs = g.ctx.xs
    out = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            s = sp.Integer(0)
            for k in range(n):
                s += Y.components[k] * sp.diff(g.entries[i, j], xs[k])
                s += g.entries[k, j] * sp.diff(Y.components[k], xs[i])
                s += g.entries[i, k] * sp.diff(Y.components[k], xs[j])
            out[i, j] = sp.expand(s)
    return sp.ImmutableMatrix(out)


def lie_derivative_scalar(V: sp.Expr, Y: SpatialVectorField) -> sp.Expr:
    """Directional derivative Y^k V_,k."""
    xs = Y.ctx.xs
    return sp.Add(*(Y.components[k] * sp.diff(sp.sympify(V), xs[k]) for k in range(Y.ctx.dimension)))


def check_homothetic(g: Metric, Y: SpatialVectorField, tol: float = 1e-10,
                     seed: int = DEFAULT_SEED) -> HomotheticResult:
    """Test L_Y g = 2 psi g for a single rational constant psi."""
    lie = lie_derivative_metric(g, Y)
    n = g.ctx.dimension
    psi = None
    anchor = next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if not is_zero(g.entries[i, j], tol, seed)
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
            if not is_zero(residual[i, j], tol, seed):
                return HomotheticResult(
                    Y, None, HomotheticKind.NOT_HOMOTHETIC, sp.ImmutableMatrix(residual)
                )
    kind = HomotheticKind.KILLING if psi == 0 else HomotheticKind.HOMOTHETIC
    return HomotheticResult(Y, psi, kind)


def solve_homothetic(g: Metric, degree: int = 1, tol: float = 1e-10,
                     seed: int = DEFAULT_SEED) -> list[HomotheticResult]:
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
    from .solver import _spatial_monomials, linear_rows, rational_nullspace

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
        return [(m, sp.Rational(c)) for m, c in sp.Poly(coeff, *xs).terms()]

    Y = SpatialVectorField(ctx, tuple(comps))
    lie = lie_derivative_metric(g, Y)
    rows = []
    for i in range(n):
        for j in range(i, n):
            eq = lie[i, j] - 2 * psi * g.entries[i, j]
            numer, _ = clear_denominator(eq)
            if not numer.is_polynomial(*xs):
                raise UnsupportedMetricError(
                    f"metric entry ({i},{j}) is not polynomial after clearing denominators"
                )
            rows.extend(linear_rows(numer, index, monomial_coefficients))
    results = []
    # the row-reduced basis is canonical, so the output is deterministic
    for vec in rational_nullspace(rows, len(unknowns)):
        field = SpatialVectorField(
            ctx,
            tuple(
                sp.expand(sum(vec[i * len(mons) + m] * mons[m] for m in range(len(mons))))
                for i in range(n)
            ),
        )
        psi_val = vec[-1]
        kind = HomotheticKind.KILLING if psi_val == 0 else HomotheticKind.HOMOTHETIC
        results.append(HomotheticResult(field, psi_val, kind))
    results.sort(key=lambda r: 0 if r.kind is HomotheticKind.KILLING else 1)
    return results
