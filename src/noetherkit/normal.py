"""Canonical normal form and the zero decision procedure.

The supported class is finite sums of terms

    rational coefficient * monomial in the symbols * atomic factors,

where an atomic factor is sin/cos/exp of a polynomial argument with rational
coefficients, or an integer power of ln of such an argument.  Products of
trigonometric factors are rewritten product-to-sum so that equal expressions
collapse to term-identical forms.  Anything else (non-constant denominators,
nested or non-polynomial function arguments) is flagged NonNormalizable; the
zero test then falls back to seeded random sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import sympy as sp
from sympy.simplify.fu import TR8

DEFAULT_SEED = 20200513
SAMPLE_COUNT = 64
SAMPLE_RANGE = (-2.0, 2.0)

_ATOM_FUNCS = (sp.sin, sp.cos, sp.exp)


class NonNormalizableError(ValueError):
    """Expression is outside the canonical-form class."""


@dataclass(frozen=True)
class NormalForm:
    """Sorted tuple of (monomial-atom product, rational coefficient) pairs."""

    terms: tuple[tuple[sp.Expr, sp.Rational], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_expression(self) -> sp.Expr:
        return sp.Add(*(c * k for k, c in self.terms))


class ZeroStatus(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ZeroResult:
    status: ZeroStatus
    witness: Optional[dict] = None
    witness_value: Optional[float] = None
    cleared_denominator: Optional[sp.Expr] = None
    samples: int = 0

    def __bool__(self) -> bool:
        return self.status is ZeroStatus.ZERO

    @property
    def vanishes_numerically(self) -> bool:
        """Zero, or below tolerance at a usable number of sample points."""
        if self.status is ZeroStatus.ZERO:
            return True
        return self.status is ZeroStatus.UNDECIDED and self.samples >= SAMPLE_COUNT // 2


def _trig_expand(e: sp.Expr) -> sp.Expr:
    """Expand and rewrite trig products to sums until a fixed point (8 rounds at most)."""
    e = sp.expand(e)
    for _ in range(8):
        e2 = sp.expand(TR8(e))
        if e2 == e:
            break
        e = e2
    return e


def _polynomial_argument(arg: sp.Expr) -> bool:
    syms = tuple(arg.free_symbols)
    if not syms:
        return arg.is_Rational
    try:
        poly = sp.Poly(arg, *syms)
    except sp.PolynomialError:
        return False
    return all(c.is_Rational for c in poly.coeffs())


def _check_factor(factor: sp.Expr) -> None:
    base, expo = factor.as_base_exp()
    if base is sp.E:
        # exp factors present themselves as E**arg; powers fold into the arg
        if not _polynomial_argument(expo):
            raise NonNormalizableError(f"non-polynomial argument in {factor}")
        return
    if base.is_Symbol:
        if not expo.is_Integer:
            raise NonNormalizableError(f"non-integer power {factor}")
        return
    if isinstance(base, _ATOM_FUNCS):
        if not (expo.is_Integer and expo == 1):
            raise NonNormalizableError(f"unreduced function power {factor}")
        if not _polynomial_argument(base.args[0]):
            raise NonNormalizableError(f"non-polynomial argument in {base}")
        return
    if isinstance(base, sp.log):
        if not (expo.is_Integer and expo > 0):
            raise NonNormalizableError(f"unsupported log power {factor}")
        if not _polynomial_argument(base.args[0]):
            raise NonNormalizableError(f"non-polynomial argument in {base}")
        return
    raise NonNormalizableError(f"unsupported factor {factor}")


def normalize(e: sp.Expr) -> NormalForm:
    """Canonical form of ``e``; raises NonNormalizableError outside the class.

    Integer powers of a symbol, negative ones included, are atoms, so 1/t-type
    time-basis functions normalize.
    """
    e = _trig_expand(sp.sympify(e))
    collected: dict[sp.Expr, sp.Rational] = {}
    for term in sp.Add.make_args(e):
        coeff = sp.Integer(1)
        atoms = []
        for factor in sp.Mul.make_args(term):
            if factor.is_Rational:
                coeff *= factor
                continue
            if factor.is_number:
                raise NonNormalizableError(f"non-rational constant {factor}")
            _check_factor(factor)
            atoms.append(factor)
        key = sp.Mul(*atoms)
        coeff = collected.get(key, sp.Integer(0)) + coeff
        if coeff == 0:
            collected.pop(key, None)
        else:
            collected[key] = coeff
    terms = tuple(
        (k, collected[k]) for k in sorted(collected, key=sp.default_sort_key)
    )
    return NormalForm(terms)


def clear_denominator(e: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """Return (numerator, denominator) with the denominator cancelled out.

    Zero-testing the numerator is equivalent to zero-testing ``e`` away from
    the denominator's zero set.
    """
    e = sp.sympify(e)
    together = sp.cancel(sp.together(e))
    numer, denom = sp.fraction(together)
    return sp.expand(numer), denom


def sample_points(symbols, seed: int) -> list[list[float]]:
    """SAMPLE_COUNT points, uniform in SAMPLE_RANGE per coordinate.

    Drawn from the standard library's generator: the first use of
    numpy.random costs several MB of resident memory.
    """
    rng = random.Random(seed)
    lo, hi = SAMPLE_RANGE
    return [[rng.uniform(lo, hi) for _ in symbols] for _ in range(SAMPLE_COUNT)]


def _eval_at(fn, values):
    try:
        v = fn(*values)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if isinstance(v, complex):
        if abs(v.imag) > 1e-9 * (1.0 + abs(v.real)):
            return None
        v = v.real
    if not math.isfinite(v):
        return None
    return v


def _sampled_values(e: sp.Expr, seed: int):
    """Evaluate e and its top-level terms at the seeded sample points.

    Points where evaluation leaves the domain (ln of a non-positive value,
    division by zero) are retried at the componentwise |v| + 1/8 image, which
    keeps the procedure deterministic.
    """
    symbols = sorted(e.free_symbols, key=lambda s: s.name)
    terms = sp.Add.make_args(e)
    fns = [sp.lambdify(symbols, term, modules=["math"]) for term in terms]
    points = sample_points(symbols, seed)
    out = []
    for row in points:
        for candidate in (row, [abs(c) + 0.125 for c in row]):
            term_vals = [_eval_at(fn, candidate) for fn in fns]
            if all(v is not None for v in term_vals):
                point = dict(zip(symbols, candidate))
                out.append((point, sum(term_vals), max(abs(v) for v in term_vals) if term_vals else 0.0))
                break
    return out


def is_zero(e: sp.Expr, tol: float = 1e-10, seed: int = DEFAULT_SEED) -> ZeroResult:
    """Decide whether ``e`` is identically zero.

    Symbolic route: clear denominators, normalize, empty normal form = Zero.
    Fallback for non-normalizable input: seeded sampling; NonZero needs a
    witness above tol * scale, otherwise Undecided.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = sp.sympify(e)
    if e == 0:
        return ZeroResult(ZeroStatus.ZERO)
    numer, denom = clear_denominator(e)
    cleared = None if denom == 1 else denom
    try:
        form = normalize(numer)
        if form.is_zero:
            return ZeroResult(ZeroStatus.ZERO, cleared_denominator=cleared)
        normal_ok = True
    except NonNormalizableError:
        normal_ok = False

    samples = _sampled_values(numer, seed)
    count = len(samples)
    best = None
    for point, value, scale in samples:
        ratio = abs(value) / (tol * max(1.0, scale))
        if best is None or ratio > best[0]:
            best = (ratio, point, value)
    # a nonempty normal form of independent atoms is nonzero mathematically
    if best is not None and (best[0] > 1.0 or normal_ok):
        return ZeroResult(
            ZeroStatus.NONZERO, witness=best[1], witness_value=best[2],
            cleared_denominator=cleared, samples=count,
        )
    status = ZeroStatus.NONZERO if normal_ok else ZeroStatus.UNDECIDED
    return ZeroResult(status, cleared_denominator=cleared, samples=count)
