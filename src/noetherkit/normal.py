"""The exact kernel: one ring for every zero, rank and singularity decision.

``_Ring`` lifts expressions into a sparse polynomial ring over QQ and collects
a lifted expression, linear in a set of unknowns, over independent atoms
into sparse rows over QQ: an expression is identically zero exactly when it
has no rows.  The atoms are sin/cos/exp of a polynomial argument with
rational coefficients and ln of an irreducible polynomial or of a prime.
The ring reduces a product of sin, cos and exp atoms product-to-sum itself
(``_Ring.form``) to rational multiples of exp(E) cos(phi) and exp(E) sin(phi),
E and phi polynomials of the ring; with rational coefficients these are
independent even where arguments differ by a rational constant
(Lindemann-Weierstrass).  ``normalize`` reads its canonical form off the
ring.  ``is_zero`` decides in the ring, and samples at seeded random points
only for the witness of a NonZero verdict and for input outside the ring's
class.
"""

from __future__ import annotations

import collections
import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import SDM
from sympy.polys.rings import ring
from sympy.printing.pycode import PythonCodePrinter

DEFAULT_SEED = 20200513
SAMPLE_COUNT = 64
SAMPLE_RANGE = (-2.0, 2.0)
# a sampled value is zero below this fraction of its largest term (or of 1)
TOLERANCE = 1e-10
# lambdify's printer for modules=["math"]: bare names such as sin, resolved in math
MATH_PRINTER = PythonCodePrinter({"fully_qualified_modules": False, "inline": True,
                                  "allow_unknown_functions": True, "user_functions": {}})

_ATOM_FUNCS = (sp.sin, sp.cos, sp.exp)


class UnsupportedEquationError(ValueError):
    """An expression is outside the class ``_Ring`` and ``normalize`` represent."""


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
    samples: int = 0

    def __bool__(self) -> bool:
        return self.status is ZeroStatus.ZERO

    @property
    def vanishes_numerically(self) -> bool:
        """Zero, or below tolerance at a usable number of sample points."""
        if self.status is ZeroStatus.ZERO:
            return True
        return self.status is ZeroStatus.UNDECIDED and self.samples >= SAMPLE_COUNT // 2


def polynomial_argument(arg: sp.Expr) -> bool:
    syms = tuple(arg.free_symbols)
    if not syms:
        return arg.is_Rational
    try:
        poly = sp.Poly(arg, *syms)
    except sp.PolynomialError:
        return False
    return all(c.is_Rational for c in poly.coeffs())


def sample_points(symbols, seed: int) -> list[list[float]]:
    """SAMPLE_COUNT points, uniform in SAMPLE_RANGE per coordinate.

    Drawn from the standard library's generator: the first use of
    numpy.random costs several MB of resident memory.
    """
    rng = random.Random(seed)
    lo, hi = SAMPLE_RANGE
    return [[rng.uniform(lo, hi) for _ in symbols] for _ in range(SAMPLE_COUNT)]


def _eval_at(fn, values):
    """fn's values at a point, each real and finite; None where evaluation leaves the
    domain (a complex value inside a math function raises TypeError)."""
    try:
        out = [v.real if isinstance(v, complex) and abs(v.imag) <= 1e-9 * (1.0 + abs(v.real))
               else v for v in fn(*values)]
        # a complex value left raises TypeError here, an int past float range OverflowError
        return out if all(map(math.isfinite, out)) else None
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return None


class _ArgumentPrinter(PythonCodePrinter):
    """``MATH_PRINTER`` that prints each symbol as its name in ``arguments``."""

    def _print_Symbol(self, expr):
        return self.arguments[expr]

    _print_Dummy = _print_Symbol


def _sampled_values(e: sp.Expr, seed: int):
    """Evaluate e and its top-level terms at the seeded sample points.

    The terms print as they are, as lambdify prints them, into one generated function
    of _a0, _a1, ..., so that any name prints.  Points where evaluation leaves the
    domain (ln of a non-positive value, division by zero, a complex value) are retried
    at the componentwise |v| + 1/8 image, which keeps the procedure deterministic.
    """
    symbols = sorted(e.free_symbols, key=lambda s: s.name)
    printer = _ArgumentPrinter(MATH_PRINTER._settings)
    printer.arguments = {s: f"_a{i}" for i, s in enumerate(symbols)}
    terms = "".join(f"{printer.doprint(term)}, " for term in sp.Add.make_args(e))
    namespace = dict(vars(math))
    exec(f"def values({', '.join(printer.arguments.values())}):\n    return ({terms})", namespace)
    out = []
    for row in sample_points(symbols, seed):
        for candidate in (row, [abs(c) + 0.125 for c in row]):
            term_vals = _eval_at(namespace["values"], candidate)
            if term_vals is not None:
                point = dict(zip(symbols, candidate))
                out.append((point, sum(term_vals), max(map(abs, term_vals))))
                break
    return out


def _ln_terms(arg: sp.Expr) -> tuple[tuple[sp.Expr, int], ...]:
    """ln(c prod p^k) as ln|c| + sum k ln|p|, ln|c| over the primes of c: ln|p| is the real
    antiderivative of p'/p, so ln(1-x) and ln(x-1) share the atom ln(x-1)."""
    c, factors = sp.factor_list(arg)
    c = abs(c)
    if max(c.p, c.q) > 2**64:  # too long to factor
        raise UnsupportedEquationError(f"non-rational constant {sp.log(c)}")
    primes = [*sp.factorint(c.p).items(), *((q, -k) for q, k in sp.factorint(c.q).items())]
    return tuple((sp.log(q), k) for q, k in (*primes, *factors))


class _Ring:
    """The polynomial ring over QQ that expressions lift into, and its derivation.

    Generators: U, whose power U^(c+1) stands for unknown c (the expressions
    a caller collects are linear in the unknowns, so a term holds one power
    of U and monomials stay short); ``variables`` and the other free symbols
    of the input; one per ln atom, and one per sin, cos or exp atom, of the
    input or of an atom's derivative by one of ``variables``; one inv_p per
    irreducible factor p of a denominator, with d(inv_p) = -inv_p^2 d(p).
    An ln of a polynomial lifts to a sum of ln atoms (``_ln_terms``).  The
    derivation ``d`` takes only ``variables``: a caller that never
    differentiates passes none.
    """

    def __init__(self, exprs: Iterable[sp.Expr], variables: Sequence[sp.Symbol] = ()):
        self.vars = tuple(variables)
        # ln expression -> its ln atoms; ln atom -> None; sin, cos, exp atom -> None;
        # denominator -> (content, factors); factor -> its inverse generator
        self.logs, self.lns, self.atoms, self.factored, self.inv = {}, {}, {}, {}, {}
        symbols = set()
        for e in exprs:
            self._scan(e)
            symbols |= e.free_symbols
        poly = (*self.vars, *sorted(symbols - set(self.vars), key=sp.default_sort_key))
        # a monomial's exponents up to key_end key its row directly; those of the
        # sin, cos and exp atoms, up to atom_end, through their product-to-sum form
        self.poly_end = 1 + len(poly)
        self.key_end = self.poly_end + len(self.lns)
        self.atom_end = self.key_end + len(self.atoms)
        # the same generator names for the same count share sympy's cached ring
        self.ring, self.U, *gens = ring(sp.symbols(f"_g:{self.atom_end + len(self.inv)}"), QQ)
        self.gen = dict(zip((*poly, *self.lns, *self.atoms), gens))
        self.inv = dict(zip(self.inv, gens[self.atom_end - 1:]))
        self.lift = functools.cache(self._lift)
        self.form = functools.cache(self._form)
        self.tables = {}
        for v in self.vars:
            table = self.tables[v] = [(poly.index(v) + 1, self.ring.one)]
            table += [(i, self.lift(sp.diff(a, v)))
                      for i, a in enumerate((*self.lns, *self.atoms), self.poly_end)]
            # a factor holds no inverse, so its derivative needs the entries above only
            table += [(i, -g**2 * self.d(self.lift(p), v))
                      for i, (p, g) in enumerate(self.inv.items(), self.atom_end)]

    def _scan(self, e: sp.Expr) -> None:
        """Record the atoms of e and of their derivatives, and the factors of denominators."""
        for a in sp.preorder_traversal(e):
            if isinstance(a, (*_ATOM_FUNCS, sp.log)) and a not in self.logs and a not in self.atoms:
                if not polynomial_argument(a.args[0]):
                    raise UnsupportedEquationError(f"non-polynomial argument in {a}")
                if isinstance(a, sp.log):
                    self.logs[a] = _ln_terms(a.args[0])
                    new = [p for p, _ in self.logs[a] if p not in self.lns]
                    self.lns.update((p, None) for p in new)
                elif a.args[0].is_number:
                    raise UnsupportedEquationError(f"non-rational constant {a}")
                else:
                    new = [a]
                    self.atoms[a] = None
                for p in new:
                    for v in self.vars:
                        self._scan(sp.diff(p, v))
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
        if e in self.logs:
            return sum((k * self.gen[p] for p, k in self.logs[e]), self.ring.zero)
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

    def _form(self, exponents: tuple[int, ...]) -> list[tuple[tuple, object]]:
        """The product of the sin, cos and exp atoms to ``exponents``, product-to-sum.

        A pair ((E, is_cos, phi), c) stands for c exp(E) cos(phi) or c exp(E) sin(phi),
        c in QQ, E and phi in the ring's polynomial part; phi's leading coefficient is
        positive, sin(0) is dropped and cos(0) is 1.
        """
        E, terms = self.ring.zero, {(True, self.ring.zero): QQ.one}
        for atom, k in zip(self.atoms, exponents):
            a = self.lift(atom.args[0])
            if isinstance(atom, sp.exp):
                E += k * a
                continue
            for _ in range(k):
                acc = collections.defaultdict(lambda: QQ.zero)
                for (is_cos, phi), c in terms.items():
                    # cos p cos a = (cos(p-a) + cos(p+a))/2, sin p cos a = (sin(p+a) + sin(p-a))/2,
                    # sin p sin a = (cos(p-a) - cos(p+a))/2, cos p sin a = (sin(p+a) - sin(p-a))/2
                    for s in (1, -1):
                        h = c / 2 if isinstance(atom, sp.cos) else (c if is_cos else -c) * s / 2
                        cos, psi = is_cos == isinstance(atom, sp.cos), phi + s * a
                        if psi.LC < 0:
                            psi, h = -psi, h if cos else -h
                        if psi or cos:
                            acc[cos, psi] += h
                terms = {key: c for key, c in acc.items() if c}
        return [((E, *key), c) for key, c in terms.items()]

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

        A term of the cleared e adds to the row of its polynomial and ln part
        times each key of the product-to-sum form of its sin, cos and exp
        atoms.
        """
        acc = collections.defaultdict(lambda: collections.defaultdict(int))
        for m, c in self.cleared(e).iterterms():
            if not 0 < m[0] <= n:
                raise ValueError("internal: an equation is not linear in the unknowns")
            for key, v in self.form(m[self.key_end:self.atom_end]):
                acc[m[1:self.key_end], key][m[0] - 1] += c * v
        return [r for r in ({c: v for c, v in row.items() if v} for row in acc.values()) if r]

    def span(self, exprs: Sequence[sp.Expr]):
        """sum_i U^(i+1) e_i: unknown i weighs e_i."""
        return sum((self.U ** (i + 1) * self.lift(e) for i, e in enumerate(exprs)), self.ring.zero)

    def matrix(self, eqs, n: int) -> SDM:
        """The QQ matrix of the rows of ``eqs``, each linear in U^1..U^n: column j is a
        pivot of its echelon form exactly when unknown j's function is independent of
        those before it."""
        rows = [row for eq in eqs for row in self.rows(eq, n)]
        return SDM(dict(enumerate(rows)), (len(rows), n), QQ)


def rational_nullspace(matrix: SDM) -> list[tuple]:
    """The canonical (row-reduced) basis of {v : matrix . v = 0}, as dense QQ tuples."""
    R, pivots = matrix.nullspace()[0].rref()
    return [tuple(row) for row in R.to_list()[: len(pivots)]]


def normalize(e: sp.Expr) -> NormalForm:
    """Canonical form of ``e``, read off ``_Ring``: each term is a monomial times
    exp(E) cos(phi) or exp(E) sin(phi), as ``_Ring.form`` keys it, with its rational
    coefficient.  Denominators are cleared of the factors the numerator shares, and their
    product divides every term.  Raises UnsupportedEquationError outside the ring's class."""
    e = sp.sympify(e)
    R = _Ring([e])
    lifted = R.lift(e)
    numerator, top = R.cleared(lifted), list(lifted.degrees()[R.atom_end:])
    for i, p in enumerate(R.inv):
        while top[i] > 0 and not numerator.rem(R.lift(p)):
            numerator, top[i] = numerator.exquo(R.lift(p)), top[i] - 1
    exprs = (sp.S.One, *R.gen, *(1 / p for p in R.inv))  # U's image is unused
    denominator = sp.Mul(*(p**-k for p, k in zip(R.inv, top)))
    collected = collections.defaultdict(lambda: QQ.zero)
    for m, c in numerator.iterterms():
        monomial = sp.Mul(denominator, *(g**k for g, k in zip(R.gen, m[1:R.key_end])))
        for (E, is_cos, phi), v in R.form(m[R.key_end:R.atom_end]):
            trig = (sp.cos if is_cos else sp.sin)(phi.as_expr(*exprs))
            sign, key = (monomial * sp.exp(E.as_expr(*exprs)) * trig).as_coeff_Mul()
            collected[key] += c * v * QQ.from_sympy(sign)
    return NormalForm(tuple((k, QQ.to_sympy(collected[k]))
                            for k in sorted(collected, key=sp.default_sort_key) if collected[k]))


def exact_zero(e: sp.Expr) -> Optional[bool]:
    """Whether e is identically zero, decided in ``_Ring``; None outside its class."""
    try:
        R = _Ring([e])
        return not R.rows(R.U * R.lift(e), 1)
    except UnsupportedEquationError:
        return None


def is_zero(e: sp.Expr, *, seed: int = DEFAULT_SEED) -> ZeroResult:
    """Decide whether ``e`` is identically zero.

    Inside the ring's class the verdict is exact (``exact_zero``), and a
    NonZero one carries the sample point where e is largest against its terms
    as witness.  Outside it, seeded sampling: NonZero needs a witness above
    TOLERANCE * scale, otherwise Undecided.
    """
    e = sp.sympify(e)
    if e == 0:
        return ZeroResult(ZeroStatus.ZERO)
    exact = exact_zero(e)
    if exact:
        return ZeroResult(ZeroStatus.ZERO)
    samples = _sampled_values(e, seed)
    count = len(samples)
    best = None
    for point, value, scale in samples:
        ratio = abs(value) / (TOLERANCE * max(1.0, scale))
        if best is None or ratio > best[0]:
            best = (ratio, point, value)
    if best is not None and (best[0] > 1.0 or exact is False):
        return ZeroResult(ZeroStatus.NONZERO, witness=best[1], witness_value=best[2],
                          samples=count)
    status = ZeroStatus.NONZERO if exact is False else ZeroStatus.UNDECIDED
    return ZeroResult(status, samples=count)
