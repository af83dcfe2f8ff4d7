import json
import math
import os
import subprocess
import sys
from pathlib import Path

import sympy as sp
import pytest
from hypothesis import example, given, settings, strategies as st

import noetherkit
from conftest import flat_lagrangian
from noetherkit import Context, ZeroStatus, is_zero, normalize, print_expression
from noetherkit.normal import (
    DEFAULT_SEED,
    SAMPLE_COUNT,
    SAMPLE_RANGE,
    UnsupportedEquationError,
    _sampled_values,
    sample_points,
)
from noetherkit.solver import AnsatzSpec, solve

t, x, y = sp.symbols("t x y", real=True)


class TestNormalize:
    def test_polynomial_collection(self):
        form = normalize((x + 1) ** 2 - x**2 - 2 * x - 1)
        assert form.is_zero

    def test_product_to_sum(self):
        form = normalize(2 * sp.sin(t) * sp.cos(t) - sp.sin(2 * t))
        assert form.is_zero

    def test_double_angle(self):
        form = normalize(sp.cos(t) ** 2 - sp.sin(t) ** 2 - sp.cos(2 * t))
        assert form.is_zero

    def test_coefficient_lookup(self):
        form = normalize(3 * x * sp.sin(2 * t) / 2)
        assert dict(form.terms)[x * sp.sin(2 * t)] == sp.Rational(3, 2)
        assert x not in dict(form.terms)

    def test_negative_powers_are_atoms(self):
        assert not normalize(1 / x).is_zero

    @pytest.mark.parametrize("e, reduced", [
        ((x**2 - 1) / ((x - 1) * (x + 1) ** 2), 1 / (x + 1)),
        ((x * sp.exp(t) + sp.exp(t)) / (x + 1) ** 3, sp.exp(t) / (x + 1) ** 2),
    ])
    def test_common_factors_cancel(self, e, reduced):
        """Factors the numerator shares with the denominator cancel, so the form is canonical."""
        assert normalize(e - reduced).is_zero
        assert normalize(e) == normalize(reduced)

    def test_log_atoms(self):
        form = normalize(sp.log(t) * x - x * sp.log(t))
        assert form.is_zero

    def test_non_polynomial_argument_rejected(self):
        with pytest.raises(UnsupportedEquationError):
            normalize(sp.sin(sp.sqrt(x)))
        with pytest.raises(UnsupportedEquationError):
            normalize(sp.log(sp.sin(t)) * x)

    def test_irrational_constant_rejected(self):
        with pytest.raises(UnsupportedEquationError):
            normalize(sp.pi * x)


class TestIsZero:
    def test_zero_symbolic(self):
        assert is_zero(sp.sin(2 * t) - 2 * sp.sin(t) * sp.cos(t)).status is ZeroStatus.ZERO

    def test_zero_with_denominator(self):
        for e in [x / t - x / t, x / t**2 + 1 / t - (x + t) / t**2,
                  # a denominator that is no monomial, and one that is a product
                  1 / (t * (t + 1)) - 1 / t + 1 / (t + 1),
                  x / (t**2 - 1) - x / (2 * (t - 1)) + x / (2 * (t + 1))]:
            assert is_zero(e).status is ZeroStatus.ZERO, e

    @pytest.mark.parametrize("e", [
        sp.log(x * y) - sp.log(x) - sp.log(y),
        sp.log(x**2) - 2 * sp.log(x),
        # ln|c p| = ln|c| + ln|p|, the content over its primes
        sp.log(6 * x + 6) - sp.log(2) - sp.log(3 * x + 3),
        sp.log(1 - x) - sp.log(x - 1),
    ])
    def test_ln_identities(self, e):
        assert is_zero(e).status is ZeroStatus.ZERO

    def test_nonzero_witness(self):
        res = is_zero(x**2 - x)
        assert res.status is ZeroStatus.NONZERO
        assert res.witness is not None
        point = {sp.Symbol(k) if isinstance(k, str) else k: v for k, v in res.witness.items()}
        value = (x**2 - x).subs({x: res.witness[x]})
        assert abs(float(value) - res.witness_value) < 1e-9

    def test_witness_is_a_value_of_the_equation(self):
        e = x / t**2 - (x + 1) / t**2
        res = is_zero(e)
        assert res.status is ZeroStatus.NONZERO
        assert res.witness_value == pytest.approx(float(e.subs(res.witness)), rel=1e-12)
        assert not hasattr(res, "cleared_denominator")

    def test_number_atoms_are_sampled(self):
        # as ring generators sin(1) and cos(1) would be independent: a NonZero lie
        res = is_zero(x * (sp.sin(1) ** 2 + sp.cos(1) ** 2 - 1))
        assert res.status is ZeroStatus.UNDECIDED and res.samples > 0

    def test_high_trig_powers(self):
        """cos(8x - 4t) against its expansion, squared: powers up to 16 of sin and cos."""
        c = sp.cos(4 * (2 * x - t)) - sp.expand_trig(sp.cos(4 * (2 * x - t)))
        p = x * t - sp.sin(2 * t) + sp.exp(x)
        assert is_zero(sp.expand(p * c + c**2)).status is ZeroStatus.ZERO

    def test_small_but_nonzero(self):
        res = is_zero(x * sp.Rational(1, 10**15) + x**2 * 0)
        assert res.status is ZeroStatus.NONZERO  # symbolic route sees the term

    def test_undecided_out_of_class(self):
        # not identically zero but tiny at every sample point, and outside
        # the normalizable class because of the nested function argument
        e = sp.sin(sp.exp(-50 + sp.sin(x)))
        res = is_zero(e)
        assert res.status is ZeroStatus.UNDECIDED
        assert res.samples > 0

    def test_complex_value_inside_a_function(self):
        """cos of the complex cube root of a negative x leaves the domain: the point is
        retried at |x| + 1/8, so every sample point is used."""
        res = is_zero(sp.cos(x ** sp.Rational(1, 3)) * x)
        assert res.status is ZeroStatus.NONZERO
        assert res.samples == SAMPLE_COUNT

    def test_seed_determinism(self):
        a = is_zero(x**3 - x, seed=7)
        b = is_zero(x**3 - x, seed=7)
        assert a == b


# runs one command in a fresh interpreter and reports the modules it loaded
VERIFY_SCRIPT = """
import json, sys
from noetherkit.cli import main
code = main(["verify", sys.argv[1], "--report", sys.argv[2]])
print(json.dumps({"code": code, "numpy_random": "numpy.random" in sys.modules}))
"""


class TestSampling:
    def test_points_deterministic(self):
        p1 = sample_points([x, t], DEFAULT_SEED)
        p2 = sample_points([x, t], DEFAULT_SEED)
        assert p1 == p2
        assert len(p1) == SAMPLE_COUNT and all(len(row) == 2 for row in p1)
        lo, hi = SAMPLE_RANGE
        assert all(lo <= v <= hi for row in p1 for v in row)
        assert sample_points([x, t], DEFAULT_SEED + 1) != p1

    def test_verify_leaves_numpy_random_unloaded(self, tmp_path):
        """A failing verify samples its witness without importing numpy.random.

        Run in a subprocess: other tests load numpy.random into this one.
        """
        problem = tmp_path / "bad.json"
        problem.write_text(json.dumps({
            "coordinates": ["x"], "metric": [["1"]], "V0": "x^2/2", "V1": "0",
            # xi_0 = t breaks the order-0 metric condition
            "candidates": [{"name": "bad", "xi": ["t", "0"], "eta": [["0"], ["0"]],
                            "f": ["0", "0"]}],
        }))
        report_path = tmp_path / "report.json"
        package_root = str(Path(noetherkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_SCRIPT, str(problem), str(report_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"code": 1, "numpy_random": False}
        equations = json.loads(report_path.read_text())["verdicts"][0]["equations"]
        nonzero = [eq for eq in equations if eq["status"] == "nonzero"]
        assert nonzero and all("witness" in eq and "witness_value" in eq for eq in nonzero)


coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def poly_trig_exprs(draw):
    base = [sp.Integer(1), x, t, x * t, x**2, sp.sin(t), sp.cos(t), sp.sin(2 * t), sp.exp(x)]
    terms = draw(st.lists(st.tuples(st.sampled_from(base), coeffs), min_size=0, max_size=4))
    return sp.Add(*(sp.Integer(c) * b for b, c in terms))


# ln arguments may carry a content and a constant term, and so may exp and trig
# arguments (see offset_products)
ln_args = st.sampled_from([x, t, x + 1, 2 * x, x * t + 2, t**2 + 1, 3 - x])
angles = st.sampled_from([x, t, x * t, 3 * x, x**2])


@st.composite
def identities(draw):
    """lhs - rhs of a true identity: ln product and power rules, exp sums, multiple angles."""
    kind = draw(st.sampled_from(["ln-product", "ln-power", "exp-sum", "multiple-angle"]))
    n = draw(st.integers(min_value=2, max_value=3))
    if kind == "ln-product":
        a, b = draw(ln_args), draw(ln_args)
        return sp.log(a * b) - sp.log(a) - sp.log(b)
    if kind == "ln-power":
        a = draw(ln_args)
        return sp.log(a**n) - n * sp.log(a)
    a, b = draw(angles), draw(angles)
    if kind == "exp-sum":
        return sp.exp(a + b) - sp.exp(a) * sp.exp(b)
    f = draw(st.sampled_from([sp.sin, sp.cos]))
    return f(n * a) - sp.expand_trig(f(n * a))


rationals = st.fractions(min_value=-1, max_value=1, max_denominator=3).map(sp.Rational)


@st.composite
def offset_polynomials(draw):
    """A polynomial over QQ in x and t, with a constant offset, that is no number."""
    lead = draw(st.sampled_from([x, t, x * t, x**2]))
    rest = [m for m in (sp.Integer(1), x, t) if m != lead]
    return draw(rationals.filter(bool)) * lead + sp.Add(*(draw(rationals) * m for m in rest))


@st.composite
def offset_products(draw):
    """A polynomial times a product of sin, cos and exp of offset polynomials, powers up to 6."""
    factors = draw(st.lists(st.tuples(st.sampled_from([sp.sin, sp.cos, sp.exp]),
                                      offset_polynomials(), st.integers(0, 6)),
                            min_size=1, max_size=3))
    return draw(poly_trig_exprs()) * sp.Mul(*(f(p) ** k for f, p, k in factors))


def lambdified_values(e, seed):
    """_sampled_values as it was written with one lambdify per term: the reference."""
    symbols = sorted(e.free_symbols, key=lambda s: s.name)
    fns = [sp.lambdify(symbols, term, modules=["math"]) for term in sp.Add.make_args(e)]
    out = []
    for row in sample_points(symbols, seed):
        for candidate in (row, [abs(c) + 0.125 for c in row]):
            values = []
            for fn in fns:
                try:
                    v = fn(*candidate)
                    if isinstance(v, complex):
                        v = v.real if abs(v.imag) <= 1e-9 * (1.0 + abs(v.real)) else None
                    values.append(v if v is not None and math.isfinite(v) else None)
                except (ValueError, ZeroDivisionError, OverflowError, TypeError):
                    values.append(None)
            if None not in values:
                out.append((dict(zip(symbols, candidate)), sum(values), max(map(abs, values))))
                break
    return out


lam = sp.Symbol("lambda", real=True)
# ln and roots of negative values, division by zero at a point, a complex value inside
# a function, a coefficient past float range, and a name that is a Python keyword
DOMAIN_TERMS = [sp.log(x), sp.log(x - t), sp.sqrt(x), sp.sqrt(t * x), 1 / (x - t),
                1 / x, x ** sp.Rational(1, 3), sp.cos(x ** sp.Rational(1, 3)), sp.exp(x * t),
                sp.sin(x) ** 2, x**2, t, sp.Integer(10) ** 400 * x, lam * x, sp.log(lam)]


@st.composite
def domain_exprs(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from(DOMAIN_TERMS),
                                    st.sampled_from(DOMAIN_TERMS + [sp.Integer(1)]), coeffs),
                          min_size=1, max_size=4))
    return sp.Add(*(c * a * b for a, b, c in terms))


class TestProperties:
    @given(domain_exprs(), st.sampled_from([DEFAULT_SEED, 7]))
    @example(3 * sp.sqrt(t * x) * sp.sqrt(t * x), DEFAULT_SEED)
    @settings(max_examples=60, deadline=None)
    def test_sampled_values_match_lambdify(self, e, seed):
        """One printed function for all terms samples as one lambdify per term did; the
        nested product 3*(t*x) prints with its grouping, as lambdify prints it."""
        assert _sampled_values(e, seed) == lambdified_values(e, seed)


    @given(identities(), poly_trig_exprs(), poly_trig_exprs())
    @settings(max_examples=60, deadline=None)
    def test_identities_are_zero(self, identity, p, q):
        assert is_zero(q * identity).status is ZeroStatus.ZERO
        assert is_zero(sp.expand(p * identity) + q).status is is_zero(q).status

    @given(identities())
    @settings(max_examples=15, deadline=None)
    def test_identity_as_potential_leaves_the_free_particle(self, identity):
        """An identity is 0, so as V0 it leaves free_particle's solve output as it is."""
        golden = json.loads((Path(__file__).parent / "golden" / "solve_free_particle.json")
                            .read_text())["report"]["solution_basis"]
        ctx = Context(("x",))
        assert (ctx.t, ctx.xs[0]) == (t, x)
        basis = solve(flat_lagrangian(ctx, identity, 0),
                      AnsatzSpec((sp.Integer(1), t, t**2), spatial_degree=1))
        assert basis.nullspace_dim == golden["nullspace_dim"] == 10
        assert [{"eta": [[print_expression(e) for e in o.eta] for o in g.orders],
                 "f": [print_expression(f) for f in g.boundary], "name": g.name,
                 "xi": [print_expression(o.xi) for o in g.orders]}
                for g in basis.generators] == golden["generators"]

    @given(poly_trig_exprs(), poly_trig_exprs())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, e1, e2):
        form = normalize(e1 + e2)
        recombined = normalize(normalize(e1).to_expression() + normalize(e2).to_expression())
        assert form == recombined

    @given(poly_trig_exprs())
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, e):
        once = normalize(e)
        twice = normalize(once.to_expression())
        assert once == twice

    @given(poly_trig_exprs())
    @settings(max_examples=25, deadline=None)
    def test_evaluation_consistency(self, e):
        # the normal form denotes the same function
        diff = e - normalize(e).to_expression()
        assert is_zero(diff).status is ZeroStatus.ZERO

    @given(offset_products())
    @settings(max_examples=40, deadline=None)
    def test_product_to_sum_evaluates_to_the_product(self, e):
        """The ring's product-to-sum, checked in floats: the normal form is e at seeded points,
        to 1e-9 of the larger of 1 and its terms' magnitude."""
        form = normalize(e).to_expression()
        value = sp.lambdify((x, t), e, modules=["math"])
        terms = [sp.lambdify((x, t), term, modules=["math"]) for term in sp.Add.make_args(form)]
        for point in sample_points([x, t], DEFAULT_SEED)[:8]:
            parts = [term(*point) for term in terms]
            scale = max(1.0, sum(abs(v) for v in parts))
            assert abs(sum(parts) - value(*point)) <= 1e-9 * scale, (point, form)

    @given(poly_trig_exprs())
    @settings(max_examples=25, deadline=None)
    def test_is_zero_agrees_with_sympy(self, e):
        res = is_zero(e)
        truly_zero = sp.simplify(e) == 0
        if truly_zero:
            assert res.status is ZeroStatus.ZERO
        else:
            assert res.status is ZeroStatus.NONZERO
