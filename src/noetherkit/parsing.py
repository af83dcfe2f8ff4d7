"""Recursive-descent parser and printer for the expression grammar.

Grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-"* base ("^" exponent)?
    base   := number | ident | "(" expr ")" | func "(" expr ")"
    func   := "sin" | "cos" | "exp" | "ln"
    exponent := integer | "(" ["-"] integer ["/" integer] ")"

Numbers are decimals and are read exactly (no binary-float rounding).  Each
exponent p or p/q is bounded by |p|, q <= 64, and so is every exponent that
sympy folds when it builds a power of a power or a product of powers.  A
number, written or computed, has at most 4300 digits.  Parentheses nest at most
64 deep, so parsing never exhausts the interpreter's recursion limit.
Velocities are written with a "dot" suffix (e.g. ``xdot``); identifiers must
be declared in the Context.  ``print_expression`` emits source that reparses
to the same expression.
"""

from __future__ import annotations

import re

import sympy as sp

from .context import Context

FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "exp": sp.exp,
    "ln": sp.log,
}

MAX_EXPONENT = 64
MAX_DEPTH = 64
# Python converts at most 4300 digits between int and str
MAX_DIGITS = 4300
_NUMBER_BOUND = 10**MAX_DIGITS

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    """Malformed source; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class _Tokens:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []
        pos = depth = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.end() == pos and source[pos:].strip():
                bad = pos + len(source[pos:]) - len(source[pos:].lstrip())
                raise ParseError(f"unexpected character {source[bad]!r}", bad)
            if m.lastgroup is None:
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            depth += (self.tokens[-1][1] == "(") - (self.tokens[-1][1] == ")")
            if depth > MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", m.start(m.lastgroup))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.source))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, offset = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", offset)


def parse(source: str, ctx: Context) -> sp.Expr:
    """Parse ``source`` against the identifiers declared in ``ctx``."""
    toks = _Tokens(source)
    expr = _expr(toks, ctx)
    kind, text, offset = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", offset)
    return expr


def _expr(toks: _Tokens, ctx: Context) -> sp.Expr:
    result = _term(toks, ctx)
    while toks.peek()[1] in ("+", "-"):
        _, op, offset = toks.next()
        rhs = _term(toks, ctx)
        result = _bounded(result + rhs if op == "+" else result - rhs, offset)
    return result


def _term(toks: _Tokens, ctx: Context) -> sp.Expr:
    result = _factor(toks, ctx)
    while toks.peek()[1] in ("*", "/"):
        _, op, offset = toks.next()
        rhs = _factor(toks, ctx)
        result = _bounded(result * rhs if op == "*" else result / rhs, offset)
    return result


def _factor(toks: _Tokens, ctx: Context) -> sp.Expr:
    # unary minus binds looser than "^": -x^2 reads as -(x^2); a run of them is read here
    signs = 0
    while toks.peek()[1] == "-":
        toks.next()
        signs += 1
    base = _base(toks, ctx)
    if toks.peek()[1] == "^":
        offset = toks.next()[2]
        base = _bounded(base ** _exponent(toks), offset)
    return -base if signs % 2 else base


def _bounded(e: sp.Expr, offset: int) -> sp.Expr:
    """Reject a folded power or a computed number beyond the literal bounds.

    sympy folds (b^p)^q and b^p*b^q into one power, evaluates arithmetic on
    numbers and distributes a number over a sum as it builds an expression,
    all at the top level of the result; so the factors of each top-level
    term are checked after every binary operator.
    """
    for term in sp.Add.make_args(e):
        for factor in sp.Mul.make_args(term):
            if factor.is_Rational:
                if max(abs(factor.p), factor.q) >= _NUMBER_BOUND:
                    raise ParseError(f"number of more than {MAX_DIGITS} digits", offset)
            elif factor.is_Pow and factor.exp.is_Rational:
                p, q = factor.exp.p, factor.exp.q
                if abs(p) > MAX_EXPONENT or q > MAX_EXPONENT:
                    raise ParseError(
                        f"folded exponent {factor.exp} exceeds {MAX_EXPONENT}", offset
                    )
    return e


def _number(text: str, offset: int) -> sp.Rational:
    try:
        return sp.Rational(text) if "." in text else sp.Integer(int(text))
    except (ValueError, TypeError):
        # more than MAX_DIGITS digits
        raise ParseError(f"number of {len(text)} characters is too long", offset) from None


def _exponent_part(toks: _Tokens, what: str) -> sp.Integer:
    kind, text, offset = toks.next()
    if kind != "number" or "." in text:
        raise ParseError(f"expected {what}", offset)
    value = _number(text, offset)
    if value > MAX_EXPONENT:
        raise ParseError(f"exponent {text} exceeds {MAX_EXPONENT}", offset)
    return value


def _exponent(toks: _Tokens) -> sp.Rational:
    if toks.peek()[1] != "(":
        return _exponent_part(toks, "integer or (p/q) exponent")
    toks.next()
    sign = 1
    if toks.peek()[1] == "-":
        toks.next()
        sign = -1
    num = _exponent_part(toks, "integer in exponent")
    den = 1
    if toks.peek()[1] == "/":
        toks.next()
        den = _exponent_part(toks, "integer denominator in exponent")
    toks.expect(")")
    return sp.Rational(sign * num, den)


def _base(toks: _Tokens, ctx: Context) -> sp.Expr:
    kind, text, offset = toks.next()
    if text == "(":
        inner = _expr(toks, ctx)
        toks.expect(")")
        return inner
    if kind == "number":
        return _number(text, offset)
    if kind == "ident":
        if text in FUNCTIONS:
            toks.expect("(")
            arg = _expr(toks, ctx)
            toks.expect(")")
            return FUNCTIONS[text](arg)
        if text not in ctx.names():
            raise UnknownIdentifierError(text, offset)
        return ctx.symbol(text)
    raise ParseError(f"expected expression, found {text or 'end of input'!r}", offset)


# -- printing -------------------------------------------------------------


def print_expression(expr: sp.Expr) -> str:
    """Render to grammar-conformant infix text (round-trips through parse)."""
    return _print(sp.sympify(expr))


def _print(e: sp.Expr, prec: int = 0) -> str:
    # prec levels: 0 sum, 1 product, 2 power/base
    if e.is_Add:
        parts = [_print(a, 1) for a in e.as_ordered_terms()]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return f"({out})" if prec >= 1 else out
    if e.is_Mul:
        num, den = [], []
        negative = False
        for f in e.as_ordered_factors():
            if f.is_Rational:
                if f < 0:
                    negative = not negative
                    f = -f
                if f.p != 1:
                    num.append(sp.Integer(f.p))
                if f.q != 1:
                    den.append(sp.Integer(f.q))
                continue
            b, p = f.as_base_exp()
            if p.is_Rational and p < 0:
                den.append(b ** (-p))
            else:
                num.append(f)
        out = "*".join(_print(f, 2) for f in num) if num else "1"
        for d in den:
            out += "/" + _print(d, 2)
        if negative:
            return f"(-{out})" if prec >= 2 else f"-{out}"
        return f"({out})" if prec >= 2 else out
    if e.is_Pow:
        b, p = e.as_base_exp()
        if p.is_Rational and not p.is_Integer:
            return f"{_print(b, 2)}^({p.p}/{p.q})"
        if p.is_Integer and p >= 0:
            return f"{_print(b, 2)}^{p}"
        if p.is_Integer:
            return f"{_print(b, 2)}^(-{-p})"
        raise ValueError(f"cannot print non-rational power {e}")
    if e.is_Rational:
        if e.is_Integer:
            return str(e) if e >= 0 else f"(-{-e})" if prec >= 2 else f"-{-e}"
        s = f"{e.p}/{e.q}" if e.p >= 0 else f"-{-e.p}/{e.q}"
        return f"({s})" if prec >= 1 else s
    if e.is_Symbol:
        return e.name
    if e is sp.E:  # exp(1) parses to E
        return "exp(1)"
    for name, fn in FUNCTIONS.items():
        if isinstance(e, fn):
            return f"{name}({_print(e.args[0])})"
    raise ValueError(f"cannot print expression node {e!r}")
