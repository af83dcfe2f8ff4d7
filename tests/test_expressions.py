import sympy as sp
import pytest

from noetherkit import Context, ContextError, ParseError, UnknownIdentifierError, parse, print_expression
from noetherkit.conditions import VelocityError, total_time_derivative
from noetherkit.parsing import MAX_DEPTH


class TestContext:
    def test_velocity_names(self, ctx2):
        assert ctx2.velocities == ("xdot", "ydot")
        assert ctx2.dimension == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContextError):
            Context(("x", "x"))
        with pytest.raises(ContextError):
            Context(("x",), parameters={"xdot": 1})

    def test_empty_rejected(self):
        with pytest.raises(ContextError):
            Context(())

    def test_numeric_bindings_are_exact(self):
        ctx = Context(("x",), parameters={"a": 0.1, "b": 3, "c": "symbolic"})
        assert ctx.symbol("a") == sp.Rational(1, 10)
        assert ctx.symbol("b") == 3
        assert ctx.symbol("c") == sp.Symbol("c", real=True)
        assert parse("a*x + c", ctx) == ctx.xs[0] / 10 + sp.Symbol("c", real=True)


class TestParse:
    def test_basic_arithmetic(self, ctx1):
        x = ctx1.xs[0]
        assert parse("x^2 + 2*x - 1", ctx1) == x**2 + 2 * x - 1

    def test_unary_minus_binds_looser_than_power(self, ctx1):
        x = ctx1.xs[0]
        assert parse("-x^2", ctx1) == -(x**2)

    def test_rational_exponent(self, ctx1):
        x = ctx1.xs[0]
        assert parse("x^(1/2)", ctx1) == sp.sqrt(x)
        assert parse("x^(-2)", ctx1) == x**-2

    def test_decimal_read_exactly(self, ctx1):
        assert parse("0.1", ctx1) == sp.Rational(1, 10)

    def test_functions(self, ctx1):
        t, x = ctx1.t, ctx1.xs[0]
        assert parse("sin(2*t)*cos(x)", ctx1) == sp.sin(2 * t) * sp.cos(x)
        assert parse("ln(t)", ctx1) == sp.log(t)
        assert parse("exp(t)/t", ctx1) == sp.exp(t) / t

    def test_velocities(self, ctx1):
        assert parse("xdot^2/2", ctx1) == ctx1.vs[0] ** 2 / 2

    def test_unknown_identifier(self, ctx1):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("x + q", ctx1)
        assert err.value.name == "q"
        assert err.value.offset == 4

    def test_malformed(self, ctx1):
        for bad in ("x +", "(x", "x^", "sin x", "x**2", "1..2"):
            with pytest.raises(ParseError):
                parse(bad, ctx1)

    def test_offset_reported(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse("x + (y", ctx1)
        assert err.value.offset >= 4

    # each comment gives what sympy builds at that offset
    @pytest.mark.parametrize("source, offset", [
        ("((x+1)^64)^64", 10),  # (x+1)^4096
        ("(x+1)^64/(x+1)^(-64)", 8),  # (x+1)^128
        ("x^64*x", 4),  # x^65
        ("(x^(1/64))^(1/64)", 10),  # x^(1/4096)
        ("(((2^64)^64)^64)^64", 12),  # 2^262144, 78914 digits
        ("(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64", 29),  # 2^16384, 4933 digits
        ("(2^64)^64*((2^64)^64*((2^64)^64*((2^64)^64*x+1)))", 9),  # 2^16384*x + 2^12288
        ("9" * 4300 + "+1", 4300),  # 10^4300, 4301 digits
    ])
    def test_folded_results_bounded(self, ctx1, source, offset):
        """Checked at the operator whose result sympy folds past a bound."""
        with pytest.raises(ParseError) as err:
            parse(source, ctx1)
        assert err.value.offset == offset

    def test_nesting_bounded(self, ctx1):
        """Parentheses nest at most MAX_DEPTH deep, whether grouping or a function's."""
        x = ctx1.xs[0]
        assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, ctx1) == x
        assert parse("sin(" * (MAX_DEPTH - 1) + "(x)" + ")" * (MAX_DEPTH - 1), ctx1).has(x)
        for source in ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
                       "x + " + "sin(" * 400 + "x" + ")" * 400):
            with pytest.raises(ParseError, match=f"nest deeper than {MAX_DEPTH}") as err:
                parse(source, ctx1)
            # the opening parenthesis one level too deep
            assert source[err.value.offset] == "("
            assert source[:err.value.offset + 1].count("(") == MAX_DEPTH + 1

    def test_run_of_minus_signs(self, ctx1):
        x = ctx1.xs[0]
        assert parse("-" * 3000 + "x", ctx1) == x
        assert parse("1 - " + "-" * 2999 + "x^2", ctx1) == 1 + x**2
        assert parse("--x^2*-x", ctx1) == -(x**3)

    def test_folded_results_within_bounds(self, ctx1):
        x = ctx1.xs[0]
        assert parse("((x+1)^8)^8", ctx1) == (x + 1) ** 64
        assert parse("x^32*x^32", ctx1) == x**64
        assert parse("(2^64)^64", ctx1) == sp.Integer(2) ** 4096


class TestPrint:
    CASES = [
        "-x^2/2 + 3*sin(2*t)/4",
        "x^(-2)",
        "2*x/(3*t)",
        "exp(t)*(x - 1)",
        "ln(t)*t^2",
        "1/2",
        "-1/(2*x^2 + 2*t^2)",
        "x^(1/2) - t^(-3/2)",
        "exp(1)*x",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_round_trip(self, ctx1, source):
        expr = parse(source, ctx1)
        assert parse(print_expression(expr), ctx1) == expr

    def test_integer_and_symbol(self, ctx1):
        assert print_expression(sp.Integer(5)) == "5"
        assert print_expression(ctx1.xs[0]) == "x"


class TestOps:
    def test_total_time_derivative(self, ctx1):
        t, x, v = ctx1.t, ctx1.xs[0], ctx1.vs[0]
        assert total_time_derivative(t * x**2, ctx1) == x**2 + 2 * t * x * v

    def test_total_time_derivative_rejects_velocities(self, ctx1):
        with pytest.raises(VelocityError):
            total_time_derivative(ctx1.vs[0] ** 2, ctx1)
