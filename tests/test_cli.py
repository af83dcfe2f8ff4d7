import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import noetherkit.cli
from noetherkit import fixture_path, load_problem
from noetherkit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def run_report(tmp_path, *argv, name="report.json"):
    path = tmp_path / name
    code = run(*argv, "--report", path)
    return code, json.loads(path.read_text())


def oscillator_problem(tmp_path, candidate):
    """The oscillator with one candidate, a degree-2 ansatz and a short simulation."""
    doc = {
        "coordinates": ["x"],
        "metric": [["1"]],
        "V0": "x^2/2",
        "V1": "0",
        "candidates": [candidate],
        "ansatz": {"time_basis": ["1", "t"], "spatial_degree": 2},
        "simulation": {"initial": [1.0, 0.0], "t_end": 1.0, "dt": 0.01,
                       "epsilons": [0.1, 0.05]},
    }
    path = tmp_path / f"{candidate['name']}.json"
    path.write_text(json.dumps(doc))
    return path


# xi_0 = t is no symmetry for any f; eta_0 = t*x^2 has no boundary term at all
NOT_A_SYMMETRY = {"name": "bad", "xi": ["t", "0"], "eta": [["0"], ["0"]], "f": ["0", "0"]}
OPEN_DIFFERENTIAL = {"name": "open", "xi": ["0", "0"], "eta": [["t*x^2"], ["0"]]}


class TestVerify:
    @pytest.mark.parametrize("fixture", ["case1.json", "case1_order2.json", "case2.json"])
    def test_fixtures_pass(self, fixture):
        assert run("verify", fixture_path(fixture)) == 0

    def test_report_structure(self, tmp_path):
        code, report = run_report(tmp_path, "verify", fixture_path("case2.json"))
        assert code == 0
        assert report["command"] == "verify"
        assert report["seed"] == 20200513
        names = [v["name"] for v in report["verdicts"]]
        assert names == ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6"]
        assert all(v["status"] == "pass" for v in report["verdicts"])
        z5 = next(v for v in report["verdicts"] if v["name"] == "Z5")
        assert z5["classification"] == "exact"

    def test_quarantined_never_fails(self, tmp_path):
        code, report = run_report(tmp_path, "verify", fixture_path("case3.json"))
        assert code == 0
        quarantined = {q["name"] for q in report["quarantined"]}
        assert quarantined == {"Z1", "Z8", "Z9"}
        verified = {v["name"] for v in report["verdicts"]}
        assert quarantined.isdisjoint(verified)

    def test_candidate_selection(self, tmp_path):
        code, report = run_report(
            tmp_path, "verify", fixture_path("case2.json"), "--candidate", "Z3"
        )
        assert code == 0
        assert [v["name"] for v in report["verdicts"]] == ["Z3"]

    def test_unknown_candidate(self):
        assert run("verify", fixture_path("case2.json"), "--candidate", "nope") == 2

    def test_failing_candidate_exits_1(self, tmp_path):
        doc = {
            "coordinates": ["x"],
            "metric": [["1"]],
            "V0": "x^2/2",
            "V1": "0",
            "candidates": [
                {"name": "bad", "xi": ["t^3", "0"], "eta": [["x"], ["0"]],
                 "f": ["0", "0"]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report = run_report(tmp_path, "verify", path)
        assert code == 1
        assert report["verdicts"][0]["status"] == "fail"
        assert report["verdicts"][0]["classification"] == "not a symmetry"

    def test_determining_system_built_once(self, monkeypatch, tmp_path):
        """Candidates are checked without the placeholder system: it is never built."""
        calls = []
        for module in (noetherkit.cli, noetherkit.conditions):
            build = module.build_conditions
            monkeypatch.setattr(module, "build_conditions",
                                lambda L, build=build: calls.append(L) or build(L))
        shift = {"name": "Zshift", "xi": ["0", "0"], "eta": [["sin(t)"], ["0"]]}
        for command in ("verify", "integrals", "simulate"):
            assert run(command, oscillator_problem(tmp_path, shift)) == 0
        assert calls == []

    def test_boundary_recovered_when_absent(self, tmp_path):
        doc = {
            "coordinates": ["x"],
            "metric": [["1"]],
            "V0": "x^2/2",
            "V1": "0",
            "candidates": [
                {"name": "Zshift", "xi": ["0", "0"], "eta": [["sin(t)"], ["0"]]}
            ],
        }
        path = tmp_path / "recover.json"
        path.write_text(json.dumps(doc))
        code, report = run_report(tmp_path, "verify", path)
        assert code == 0
        assert report["verdicts"][0]["boundary"][0] == "x*cos(t)"


class TestDerive:
    def test_case1_equation_count(self, tmp_path):
        code, report = run_report(tmp_path, "derive", fixture_path("case1.json"))
        assert code == 0
        assert len(report["equations"]) == 8
        kinds = {e["kind"] for e in report["equations"]}
        assert kinds == {
            "metric-condition", "boundary-gradient",
            "potential-condition", "xi-spatial-constancy",
        }


class TestSolve:
    def test_free_particle(self, tmp_path):
        code, report = run_report(tmp_path, "solve", fixture_path("free_particle.json"))
        assert code == 0
        assert report["solution_basis"]["nullspace_dim"] == 10
        assert all(m["in_span"] for m in report["membership"])

    def test_missing_ansatz(self):
        assert run("solve", fixture_path("case1.json")) == 2

    def test_candidate_option(self, tmp_path):
        code, report = run_report(tmp_path, "solve", fixture_path("case2_solver.json"),
                                  "--candidate", "Z1")
        assert code == 0
        assert report["membership"] == [{"name": "Z1", "in_span": True}]

    @pytest.mark.parametrize("constant", ["2", "1/2", "-1"])
    def test_numeric_constant_in_basis_is_gauge(self, tmp_path, constant):
        """Any number in the time basis, not only 1, makes constant f gauge."""
        problem = fixture_probe(tmp_path, ("ansatz", "time_basis"), [constant, "t", "t^2"],
                                fixture="free_particle.json")
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 0
        basis = report["solution_basis"]
        assert basis["nullspace_dim"] == 10
        assert basis["gauge_note"].startswith("removed 2 pure-gauge direction(s)")
        # no generator is a bare constant boundary term
        assert all(any(e != "0" for e in g["xi"] + sum(g["eta"], []))
                   for g in basis["generators"])

    @pytest.mark.parametrize("basis", [["sin(t)^2", "cos(t)^2"], ["1+t", "t", "t^2"]],
                             ids=["sin^2,cos^2", "1+t,t,t^2"])
    def test_basis_spanning_an_unlisted_constant(self, tmp_path, capsys, basis):
        problem = fixture_probe(tmp_path, ("ansatz", "time_basis"), basis,
                                fixture="free_particle.json")
        assert run("solve", problem) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time basis spans a constant")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("xi0, eta0, f0", [("1", "0", "xdot"), ("1", "0", "1 + xdot"),
                                               ("0", "t", "x + xdot")],
                             ids=["translation", "translation+1", "boost"])
    def test_velocity_in_boundary_term_is_out_of_span(self, tmp_path, xi0, eta0, f0):
        """Only the part of f free of t, x and xdot is a gauge constant: each
        candidate is a symmetry of the free particle but for its xdot term."""
        candidate = {"name": "V", "xi": [xi0, "0"], "eta": [[eta0], ["0"]], "f": [f0, "0"]}
        problem = fixture_probe(tmp_path, ("candidates",), [candidate],
                                fixture="free_particle.json")
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 1
        assert report["membership"] == [{"name": "V", "in_span": False}]

    def test_open_differential_is_out_of_span(self, tmp_path, capsys):
        path = oscillator_problem(tmp_path, OPEN_DIFFERENTIAL)
        code, report = run_report(tmp_path, "solve", path)
        assert code == 1
        assert report["membership"] == [{"name": "open", "in_span": False}]
        assert "Traceback" not in capsys.readouterr().err

    def test_no_boundary_recovery(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve must not recover boundary terms")

        monkeypatch.setattr(noetherkit.cli, "recover_boundary_terms", refuse)
        code, report = run_report(tmp_path, "solve", fixture_path("case5.json"))
        assert code == 0
        membership = {m["name"]: m["in_span"] for m in report["membership"]}
        # Z4 and Z5 carry no f
        assert membership == {name: True for name in
                              ("Z0", "Zt", "Zrot", "Z1", "Z2", "Z3", "Z4", "Z5")}

    def test_non_polynomial_denominator_unsupported(self, tmp_path, capsys):
        """sqrt(x^2 + 1) stays in the cleared equations, outside the normal form."""
        problem = fixture_probe(tmp_path, ("V0",), "(x^2+1)^(-1/2)",
                                fixture="free_particle.json")
        assert run("solve", problem) == 3
        err = capsys.readouterr().err
        assert err.startswith("unsupported: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["integrals", "simulate"])
@pytest.mark.parametrize("candidate", [NOT_A_SYMMETRY, OPEN_DIFFERENTIAL],
                         ids=["fails-verification", "open-differential"])
def test_not_a_symmetry_is_check_failure(tmp_path, capsys, command, candidate):
    assert run(command, oscillator_problem(tmp_path, candidate)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {candidate['name']} ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestIntegrals:
    def test_ndim_time_translation(self, tmp_path):
        code, report = run_report(
            tmp_path, "integrals", fixture_path("ndim.json"), "--candidate", "Zt"
        )
        assert code == 0
        comps = report["integrals"][0]["components"]
        assert [c["epsilon_power"] for c in comps] == [0, 1]
        assert comps[0]["expr"] == "0"
        # eps^1 component is the zeroth-order Hamiltonian
        assert "xdot^2/2" in comps[1]["expr"].replace(" ", "")


class TestSimulate:
    @pytest.fixture
    def sim_problem(self, tmp_path):
        doc = {
            "coordinates": ["x", "y"],
            "metric": [["1"], ["0", "1"]],
            "V0": "(x^2 + y^2)/2",
            "V1": "x^2*y - y^3/3",
            "candidates": [
                {"name": "Zrot", "xi": ["0", "0"],
                 "eta": [["0", "0"], ["y", "-x"]], "f": ["0", "0"]}
            ],
            "simulation": {
                "initial": [0.1, 0.1, 0.0, 0.0], "t_end": 20.0, "dt": 0.005,
                "epsilons": [0.02, 0.01],
            },
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        return path

    def test_drift_and_scaling(self, tmp_path, sim_problem):
        code, report = run_report(tmp_path, "simulate", sim_problem)
        assert code == 0
        assert len(report["drift_records"]) == 2
        scaling = report["scaling"][0]
        assert scaling["integral"] == "Zrot"
        assert 1.7 <= scaling["exponent"] <= 2.3

    def test_csv_output(self, tmp_path, sim_problem):
        csv = tmp_path / "traj.csv"
        code = run("simulate", sim_problem, "--csv", csv)
        assert code == 0
        # one file per epsilon
        for k in range(2):
            lines = (tmp_path / f"traj_{k}.csv").read_text().splitlines()
            assert lines[0] == "t,x1,x2,v1,v2,Zrot"
            assert len(lines) == 4002

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epsilons, excluded", [
        (["-0.01", "0.01"], [-0.01]),
        (["0.01", "0.01"], [0.01]),
        (["0.02", "-0.01", "0.01"], [-0.01]),
    ], ids=["negative", "repeated", "negative-of-three"])
    def test_fit_takes_distinct_positive_epsilons(self, tmp_path, sim_problem, epsilons,
                                                  excluded):
        argv = [a for eps in epsilons for a in ("--epsilon", eps)]
        code, report = run_report(tmp_path, "simulate", sim_problem, *argv)
        assert code == 0
        (scaling,) = report["scaling"]
        assert scaling["excluded_epsilons"] == excluded
        if len(epsilons) - len(excluded) < 2:
            assert scaling["exponent"] is None
            assert scaling["note"].endswith("slope indeterminate")
        else:
            assert 1.7 <= scaling["exponent"] <= 2.3

    def test_epsilon_override(self, tmp_path, sim_problem):
        code, report = run_report(
            tmp_path, "simulate", sim_problem, "--epsilon", "0.05"
        )
        assert code == 0
        assert [r["epsilon"] for r in report["drift_records"]] == [0.05]
        assert report["scaling"] == []

    def test_missing_simulation_block(self):
        assert run("simulate", fixture_path("case1.json")) == 2

    @pytest.mark.parametrize("field, value", [
        ("dt", float("nan")),
        ("t_end", float("nan")),
        ("t_end", float("inf")),
        ("t_start", float("nan")),
        ("initial", [0.1, float("nan"), 0.0, 0.0]),
        ("epsilons", [0.02, float("nan")]),
    ])
    def test_non_finite_input_is_input_error(self, capsys, sim_problem, field, value):
        doc = json.loads(sim_problem.read_text())
        doc["simulation"][field] = value
        sim_problem.write_text(json.dumps(doc))
        assert run("simulate", sim_problem) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite input")
        assert "Traceback" not in err

    def test_non_finite_epsilon_override(self, capsys, sim_problem):
        assert run("simulate", sim_problem, "--epsilon", "nan") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite input")
        assert "Traceback" not in err


class TestKilling:
    def test_flat_3d(self, tmp_path):
        code, report = run_report(tmp_path, "killing", fixture_path("ndim.json"))
        assert code == 0
        fields = report["homothetic_basis"]
        assert len(fields) == 7  # 6 Killing + 1 homothety
        assert [f["kind"] for f in fields].count("killing") == 6

    def metric_problem(self, tmp_path, metric, parameters=None):
        doc = {"coordinates": ["x", "y"], "metric": metric, "V0": "0", "V1": "0"}
        if parameters is not None:
            doc["parameters"] = parameters
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(doc))
        return path

    def test_bound_parameter_enters_as_its_value(self, tmp_path):
        code, bound = run_report(tmp_path, "killing", self.metric_problem(
            tmp_path, [["k"], ["0", "1"]], {"k": 2}), name="bound.json")
        assert code == 0
        code, literal = run_report(tmp_path, "killing", self.metric_problem(
            tmp_path, [["2"], ["0", "1"]]), name="literal.json")
        assert code == 0
        assert bound["homothetic_basis"] == literal["homothetic_basis"]

    def test_symbolic_parameter_unsupported(self, tmp_path, capsys):
        path = self.metric_problem(tmp_path, [["k"], ["0", "1"]], {"k": "symbolic"})
        assert run("killing", path) == 3
        err = capsys.readouterr().err
        assert err.startswith("unsupported: metric coefficient ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("degree", [0, -3])
    def test_degree_below_one(self, capsys, degree):
        assert run("killing", fixture_path("ndim.json"), "--degree", degree) == 2
        assert capsys.readouterr().err == "error: ansatz degree must be >= 1\n"

    def test_ansatz_sizing(self, capsys, monkeypatch):
        # 3 components x C(3 + 2, 3) monomials + psi = 31 unknowns
        monkeypatch.setattr(noetherkit.solver, "MAX_UNKNOWNS", 30)
        assert run("killing", fixture_path("ndim.json"), "--degree", 2) == 2
        assert capsys.readouterr().err.startswith(
            "error: ansatz sizing: 31 unknowns exceeds the 30 limit")


# each a non-finite constant or a value of the wrong JSON type, at its JSON path
LOAD_PROBES = [
    (("candidates", 0, "xi", 0), "1/0", "candidates[0].xi[0]"),
    (("V0",), "x^(1/0)", "V0"),
    (("V1",), "ln(0)", "V1"),
    (("parameters",), {"a": float("nan")}, "parameters.a"),
    (("ansatz",), {"time_basis": ["1"], "spatial_degree": "two"}, "ansatz.spatial_degree"),
    (("ansatz",), {"time_basis": ["1"], "spatial_degree": 1.7}, "ansatz.spatial_degree"),
    (("ansatz",), {"time_basis": ["1"], "inverse_powers": "x"}, "ansatz.inverse_powers"),
    (("order",), True, "order"),
    (("dimension",), True, "dimension"),
    (("candidates",), {"name": "Zenergy"}, "candidates"),
    (("candidates", 0, "quarantine"), "false", "candidates[0].quarantine"),
    (("simulation", "dt"), True, "simulation.dt"),
    (("simulation", "t_end"), 10**400, "simulation.t_end"),
]
LOAD_PROBE_IDS = [probe[2] for probe in LOAD_PROBES]
# a JSON path probed before, so its id names the fault
LOAD_PROBES.append((("V1",), "xdot", "V1"))
LOAD_PROBE_IDS.append("V1-velocity")


class TestInputErrors:
    def test_missing_file(self):
        assert run("verify", "/nonexistent/problem.json") == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert run("verify", path) == 2

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"coordinates": ["x"], "metric": [["1"]],
                                    "dimension": 2}))
        assert run("verify", path) == 2

    @pytest.mark.parametrize("path, value, json_path", LOAD_PROBES, ids=LOAD_PROBE_IDS)
    def test_rejected_at_load(self, tmp_path, capsys, path, value, json_path):
        doc = json.loads(fixture_path("oscillator.json").read_text())
        set_field(doc, path, value)
        problem = tmp_path / "probe.json"
        problem.write_text(json.dumps(doc))
        assert run("verify", problem) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {json_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_tolerance_finite_and_positive(self, capsys, command, tolerance):
        problem = fixture_path("free_particle.json")
        assert run(command, problem, "--tolerance", tolerance) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --tolerance: ")
        assert err.count("\n") == 1


def fixture_probe(tmp_path, path, value, fixture="oscillator.json"):
    doc = json.loads(fixture_path(fixture).read_text())
    set_field(doc, path, value)
    problem = tmp_path / "probe.json"
    problem.write_text(json.dumps(doc))
    return problem


class TestBoundedInput:
    """A singular metric, oversized numbers and exponents, and a step count
    past the limit are input errors: exit 2 with one line on stderr."""

    @pytest.mark.parametrize("command", ["verify", "integrals", "simulate"])
    def test_singular_metric(self, tmp_path, capsys, command):
        assert run(command, fixture_probe(tmp_path, ("metric",), [["0"]])) == 2
        err = capsys.readouterr().err
        assert err == "input error: metric: singular: det g is identically zero\n"

    @pytest.mark.parametrize("source", ["1" * 5000 + "*x^2", "x^" + "9" * 5000,
                                        "x^65", "x^(1/65)"],
                             ids=["long-literal", "long-exponent", "x^65", "x^(1/65)"])
    def test_parser_limits(self, tmp_path, capsys, source):
        assert run("verify", fixture_probe(tmp_path, ("V0",), source)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: V0: ")
        assert err.count("\n") == 1

    def test_largest_exponent_loads(self, tmp_path):
        problem = load_problem(fixture_probe(tmp_path, ("V0",), "x^64 + x^(-64/63)"))
        x = problem.ctx.xs[0]
        assert problem.L.V0 == x**64 + x ** sp.Rational(-64, 63)

    # sympy folds each of these into (x+1)^4096, (x+1)^128 and 2^262144
    @pytest.mark.parametrize("source", ["((x+1)^64)^64", "(x+1)^64*(x+1)^64",
                                        "((2^64)^64)^64*x^2"],
                             ids=["nested-power", "power-product", "nested-number"])
    def test_folded_powers_bounded(self, tmp_path, capsys, source):
        assert run("derive", fixture_probe(tmp_path, ("V1",), source)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: V1: ")
        assert err.count("\n") == 1

    def test_result_number_too_long_to_print(self, tmp_path, capsys):
        """Every number in the source is in bounds; the conservation law's
        coefficients reach 2^262144, more digits than Python prints."""
        problem = fixture_probe(tmp_path, ("V1",), "((2^64)^64*x+1)^64")
        assert run("integrals", problem) == 2
        err = capsys.readouterr().err
        assert err == ("error: result has a number of more than 4300 digits, "
                       "too long to print\n")
        assert run("derive", problem) == 0
        assert run("verify", problem) == 0

    def test_folded_power_within_bound_loads(self, tmp_path):
        problem = load_problem(fixture_probe(tmp_path, ("V1",), "((x+1)^8)^8"))
        assert problem.L.V1 == (problem.ctx.xs[0] + 1) ** 64

    # 628 / 1e-300 steps is finite and far past the limit; 628 / 1e-310 overflows
    @pytest.mark.parametrize("dt", [1e-300, 1e-310], ids=["past-limit", "overflow"])
    def test_step_count_bounded(self, tmp_path, capsys, dt):
        assert run("simulate", fixture_probe(tmp_path, ("simulation", "dt"), dt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: (t_end - t_start) / dt = ")
        assert err.endswith("steps exceeds the limit of 10000000 per epsilon\n")


def set_field(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def field_paths(node, prefix=()):
    """Every position inside a JSON document, containers and leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, prefix + (key,))


@given(st.data())
@settings(max_examples=40, deadline=10_000)
def test_wrong_json_type_never_raises(data):
    """One field of a shipped fixture replaced by a value of another JSON type."""
    fixture = data.draw(st.sampled_from(["oscillator.json", "case1.json", "case3.json",
                                         "case4.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    set_field(doc, path, data.draw(st.sampled_from([True, 0.5, "s", [], {}, None])))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "mutated.json"
        problem.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("verify", problem)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


# division and ln at a constant zero, an exponent past the bound, a folded power
# past it, an unknown name, and large exponents that stay under the bound
EXPRESSION_MUTATIONS = ["1/0", "ln(0)", "x^65", "(x+1)^64*(x+1)^64", "zeta",
                        "(x+1)^64", "x^(-64/63)"]


def expression_fields(doc):
    """(position, text) of every expression string of a problem document."""
    for path in field_paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, str) and path[0] not in ("coordinates", "parameters") \
                and path[-1] not in ("name", "note"):
            yield path, node


@given(st.data())
@settings(max_examples=40, deadline=20_000)
def test_mutated_expression_never_raises(data):
    """One expression of a shipped fixture replaced by, or added to, a hostile one."""
    fixture = data.draw(st.sampled_from(["oscillator.json", "case1.json", "case3.json",
                                         "case4.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    path, source = data.draw(st.sampled_from(list(expression_fields(doc))))
    mutation = data.draw(st.sampled_from(EXPRESSION_MUTATIONS))
    set_field(doc, path, data.draw(st.sampled_from([mutation, f"({source}) + {mutation}"])))
    command = data.draw(st.sampled_from(["derive", "verify", "integrals", "killing"]))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "mutated.json"
        problem.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, problem)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fixture = str(fixture_path("case2.json"))
        assert main(["verify", fixture, "--report", str(a)]) == 0
        assert main(["verify", fixture, "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
