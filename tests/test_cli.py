import collections
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import noetherkit.cli
import noetherkit.dynamics
import noetherkit.geometry
from noetherkit import fixture_path, load_problem, noether_residuals
from noetherkit.cli import main
from noetherkit.context import RESERVED
from noetherkit.parsing import FUNCTIONS, parse, print_expression
from noetherkit.solver import solve


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
        # with k = 10^-300 the cleared equations of 1/(x+k) have integer terms past
        # float range, which sampling treats like any other point outside the domain
        for parameters, xi, eta in [({}, "t^3", "x"), ({"k": 1e-300}, "0", "1/(x+k)")]:
            doc = {
                "coordinates": ["x"],
                "parameters": parameters,
                "metric": [["1"]],
                "V0": "x^2/2",
                "V1": "0",
                "candidates": [
                    {"name": "bad", "xi": [xi, "0"], "eta": [[eta], ["0"]],
                     "f": ["0", "0"]}
                ],
            }
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, report = run_report(tmp_path, "verify", path)
            assert code == 1
            assert report["verdicts"][0]["status"] == "fail"
            assert report["verdicts"][0]["classification"] == "not a symmetry"

    @pytest.mark.parametrize("xi, f", [(["1", "k-2"], ["0", "0"]), (["1", "0"], ["0", "k-2"])],
                             ids=["xi", "f"])
    def test_bound_parameter_classified(self, tmp_path, xi, f):
        """With k bound to 2 the order-1 part k-2 is 0, so the candidate is exact."""
        problem = fixture_probe(tmp_path, ("candidates",),
                                [{"name": "Z", "xi": xi, "eta": [["0"], ["0"]], "f": f}],
                                parameters={"k": 2})
        code, report = run_report(tmp_path, "verify", problem)
        assert code == 0
        assert report["verdicts"][0]["classification"] == "exact"

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

    @pytest.mark.parametrize("command", ["verify", "integrals"])
    def test_complex_value_inside_a_function(self, tmp_path, capsys, command):
        """cos(x^(1/3)) at x < 0 takes the cosine of a complex number: such a sample point
        leaves the domain and is retried at |x| + 1/8, and the translation fails."""
        problem = fixture_probe(tmp_path, ("candidates",), [
            {"name": "Zx", "xi": ["0", "0"], "eta": [["1"], ["0"]], "f": ["0", "0"]}])
        doc = json.loads(problem.read_text())
        doc["V0"] = "cos(x^(1/3))*x"
        problem.write_text(json.dumps(doc))
        assert run(command, problem) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if command == "verify":
            assert out.startswith("Zx: FAIL (not a symmetry)\n")
        else:
            assert err == "check failed: Zx fails verification\n"

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

    def test_bound_parameter_in_time_basis(self, tmp_path):
        """k*t with k bound to 2 is the element 2*t, not an undeclared symbol."""
        problem = fixture_probe(tmp_path, ("ansatz", "time_basis"), ["1", "k*t"],
                                fixture="free_particle.json", parameters={"k": 2})
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 0
        assert report["solution_basis"]["nullspace_dim"] == 8

    def test_sixteen_powers_of_t(self, tmp_path):
        """1, t, ..., t^15 is independent: its rank is exact, not a float collocation's."""
        problem = fixture_probe(tmp_path, ("ansatz", "time_basis"),
                                ["1", "t"] + [f"t^{i}" for i in range(2, 16)],
                                fixture="free_particle.json")
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 0
        assert report["solution_basis"]["nullspace_dim"] == 10

    def test_potential_that_is_a_log_identity(self, tmp_path):
        """V0 = ln(x^2) - 2 ln(x) is 0: free_particle's symmetries, none missed."""
        problem = fixture_probe(tmp_path, ("V0",), "ln(x^2) - 2*ln(x)",
                                fixture="free_particle.json")
        code, report = run_report(tmp_path, "solve", problem)
        golden = json.loads((Path(__file__).parent / "golden" / "solve_free_particle.json")
                            .read_text())["report"]
        assert code == 0
        assert report["solution_basis"] == golden["solution_basis"]

    def test_exp_with_a_constant_offset(self, tmp_path):
        """exp(x+1) = e exp(x), and e is independent over QQ: the generators of exp(x)."""
        bases = {}
        for potential in ("exp(x)", "exp(x+1)"):
            problem = fixture_probe(tmp_path, ("V0",), potential, fixture="free_particle.json")
            code, report = run_report(tmp_path, "solve", problem)
            assert code == 0
            bases[potential] = report["solution_basis"]
        assert bases["exp(x+1)"] == bases["exp(x)"]
        assert bases["exp(x+1)"]["nullspace_dim"] == 2
        # d/dt and eps d/dt
        assert [g["xi"] for g in bases["exp(x+1)"]["generators"]] == [["1", "0"], ["0", "1"]]

    def test_trig_product_with_a_constant_offset(self, tmp_path):
        """sin(x+1) sin(x) = (cos(1) - cos(2x+1))/2 keys cos(1) apart from 1."""
        problem = fixture_probe(tmp_path, ("V0",), "sin(x+1)*sin(x)", fixture="free_particle.json")
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 0
        assert report["solution_basis"]["nullspace_dim"] == 2
        p = load_problem(problem)
        for X in solve(p.L, p.ansatz).generators:
            assert all(sp.expand(r) == 0 for r in noether_residuals(p.L, X)), X.name

    def test_exp_with_a_constant_term_in_the_time_basis(self, tmp_path):
        """exp(t+1) stays one atom of the ring, not E*exp(t): every generator reparses, and
        Zt, which is one of them, is in their span."""
        doc = json.loads(fixture_path("oscillator.json").read_text())
        doc["V0"] = "-x^2/2"
        doc["ansatz"] = {"time_basis": ["1", "exp(t+1)", "exp(-t)"], "spatial_degree": 1}
        doc["candidates"] = [
            {"name": "Zt", "xi": ["1", "0"], "eta": [["0"], ["0"]], "f": ["0", "0"]},
            {"name": "Zp", "xi": ["0", "0"], "eta": [["exp(t+1)"], ["0"]],
             "f": ["x*exp(t+1)", "0"]}]
        problem = tmp_path / "inverted.json"
        problem.write_text(json.dumps(doc))
        code, report = run_report(tmp_path, "solve", problem)
        assert code == 0
        assert report["membership"] == [{"name": "Zt", "in_span": True},
                                        {"name": "Zp", "in_span": True}]
        generators = report["solution_basis"]["generators"]
        printed = [e for g in generators for e in (*g["xi"], *sum(g["eta"], []), *g["f"])]
        assert "exp(t + 1)" in printed
        ctx = load_problem(problem).ctx
        assert all(print_expression(parse(e, ctx)) == e for e in printed)

    @pytest.mark.parametrize("command", ["integrals", "verify"])
    def test_exp_with_a_constant_term_in_a_boundary(self, tmp_path, capsys, command):
        """exp(t+1) in eta stays one exp, not E*exp(t), in the conservation law and in the
        boundary term recovered when f is left out."""
        doc = json.loads(fixture_path("oscillator.json").read_text())
        doc["V0"] = "-x^2/2"
        doc["candidates"] = [{"name": "Zp", "xi": ["0", "0"], "eta": [["exp(t+1)"], ["0"]]}]
        problem = tmp_path / "inverted.json"
        problem.write_text(json.dumps(doc))
        code, report = run_report(tmp_path, command, problem)
        assert code == 0
        if command == "integrals":
            assert capsys.readouterr().out.splitlines()[0] == (
                "I[Zp] order 0: eps^0 * (x*exp(t + 1) - xdot*exp(t + 1))")
        else:
            (verdict,) = report["verdicts"]
            assert verdict["boundary"] == ["x*exp(t + 1)", "0"]
            assert {e["status"] for e in verdict["equations"]} == {"zero"}

    def test_time_basis_element_with_a_coordinate(self, tmp_path, capsys):
        problem = fixture_probe(tmp_path, ("ansatz", "time_basis"), ["1", "x"],
                                fixture="free_particle.json")
        assert run("solve", problem) == 2
        assert capsys.readouterr().err == (
            "error: time basis element x depends on x; it may depend on t only\n")

    def test_number_atom_unsupported(self, tmp_path, capsys):
        """sin(1) as an input atom stays outside the ring: nothing keys it apart from 1."""
        problem = fixture_probe(tmp_path, ("V0",), "sin(1)*x", fixture="free_particle.json")
        assert run("solve", problem) == 3
        assert capsys.readouterr().err == "unsupported: non-rational constant sin(1)\n"

    # ln(2*t) - ln(t) is the constant ln(2), which no listed number spans
    @pytest.mark.parametrize("basis", [["sin(t)^2", "cos(t)^2"], ["1+t", "t", "t^2"],
                                       ["1", "ln(2*t)", "ln(t)"]],
                             ids=["sin^2,cos^2", "1+t,t,t^2", "1,ln(2t),ln(t)"])
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

    def test_non_polynomial_trig_argument_unsupported(self, tmp_path, capsys):
        """sin(1/x) is an atom outside the ring: its argument is no polynomial."""
        problem = fixture_probe(tmp_path, ("V1",), "sin(1/x)", fixture="free_particle.json")
        assert run("solve", problem) == 3
        err = capsys.readouterr().err
        assert err.startswith("unsupported: non-polynomial argument in sin(1/x)")
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

    def test_csv_evaluates_each_integral_once(self, tmp_path, sim_problem, monkeypatch):
        """The drift and the CSV column of an integral share one evaluation per trajectory."""
        calls = collections.Counter()
        original = noetherkit.dynamics.evaluate_integral

        def counted(L, integrals, traj):
            calls[(tuple(integrals), traj.epsilon)] += 1
            return original(L, integrals, traj)

        monkeypatch.setattr(noetherkit.dynamics, "evaluate_integral", counted)
        monkeypatch.setattr(noetherkit.cli, "evaluate_integral", counted)
        assert run("simulate", sim_problem, "--csv", tmp_path / "traj.csv") == 0
        # one integral (Zrot) on two trajectories
        assert sorted(eps for _, eps in calls) == [0.01, 0.02]
        assert set(calls.values()) == {1}

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

    @pytest.mark.filterwarnings("error")
    def test_epsilons_with_one_logarithm(self, tmp_path):
        """0.01 and the next float up are distinct epsilons with the same logarithm: one
        abscissa, so no slope is fit."""
        doc = json.loads(fixture_path("case4.json").read_text())
        doc["simulation"]["t_end"] = 5.0
        problem = tmp_path / "case4.json"
        problem.write_text(json.dumps(doc))
        code, report = run_report(tmp_path, "simulate", problem,
                                  "--epsilon", "0.01", "--epsilon", "0.010000000000000002")
        assert code == 0
        notes = {s["integral"]: s["note"] for s in report["scaling"]}
        assert all(s["exponent"] is None for s in report["scaling"])
        assert notes["Z0"] == ("all drifts at or below the integrator noise floor; "
                               "slope indeterminate")
        for name in ("Zt", "Z5y"):
            assert notes[name] == "the 2 epsilons fitted have the same logarithm; " \
                                  "slope indeterminate"

    @pytest.mark.parametrize("epsilons", [["0.02"], ["0.02", "0.01", "0.005"]])
    def test_accelerations_solved_once(self, sim_problem, monkeypatch, epsilons):
        """One solve of the equations of motion per command, not one per epsilon:
        the mass matrix is inverted once."""
        calls = []
        original = sp.MutableDenseMatrix.inv

        def counted(M, *args, **kwargs):
            calls.append(M)
            return original(M, *args, **kwargs)

        monkeypatch.setattr(sp.MutableDenseMatrix, "inv", counted)
        argv = [a for eps in epsilons for a in ("--epsilon", eps)]
        assert run("simulate", sim_problem, *argv) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("candidates, what", [
        ([{"name": "Zenergy", "xi": ["1", "0"], "eta": [["0"], ["0"]], "f": ["0", "0"]}],
         "I[Zenergy]"),
        ([], "the equations of motion"),
    ], ids=["integral", "accelerations"])
    def test_symbolic_parameter_unsupported(self, tmp_path, capsys, candidates, what):
        """A symbolic parameter has no float value: exit 3, as for killing."""
        doc = json.loads(fixture_path("oscillator.json").read_text())
        doc.update(parameters={"a": "symbolic"}, V1="a*x^2", candidates=candidates)
        problem = tmp_path / "symbolic.json"
        problem.write_text(json.dumps(doc))
        assert run("simulate", problem) == 3
        assert capsys.readouterr().err == (
            f"unsupported: symbolic parameter a in {what}: "
            "simulate needs a number for every parameter\n")

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

    @pytest.mark.parametrize("V0, initial", [("x^2/2 + (-1-x^2)^(1/2)", 1.0),
                                             ("x^2/2 + x^(4/3)", -1.0)])
    def test_complex_value_is_input_error(self, tmp_path, capsys, V0, initial):
        """A fractional power of a negative number is complex in Python's floats."""
        doc = json.loads(fixture_path("oscillator.json").read_text())
        doc["V0"] = V0
        doc["simulation"].update(initial=[initial, 0.0], t_end=0.1, dt=0.01)
        problem = tmp_path / "complex.json"
        problem.write_text(json.dumps(doc))
        assert run("simulate", problem) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 0 at t=0.0: must be real number, not complex; ")
        assert err.count("\n") == 1

    def test_non_finite_epsilon_override(self, capsys, sim_problem):
        assert run("simulate", sim_problem, "--epsilon", "nan") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite input")
        assert "Traceback" not in err


def renamed_oscillator(tmp_path, name, parameters=None):
    """A short oscillator run with an exp and ln perturbation, its coordinate called ``name``."""
    x = name
    doc = {
        "coordinates": [x], "parameters": parameters or {}, "metric": [["1"]], "V0": f"{x}^2/2",
        "V1": f"exp({x}/2) + ln(1 + {x}^2) + {x}*cos(t)",
        "candidates": [{"name": "Z", "xi": ["0", "0"], "eta": [["0"], ["sin(t)"]],
                        "f": ["0", f"{x}*cos(t)"]}],
        "simulation": {"initial": [0.5, 0.1], "t_end": 2.0, "dt": 0.01,
                       "epsilons": [0.1, 0.05]},
    }
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    return path


# names the generated step must keep apart from its own locals (which start with
# "_") and from the names the printers emit ("log" and "sqrt" through math,
# "numpy" in the integrals); the grammar can reference each of the first ones
SAFE_NAMES = ["_s0", "_k0", "_dt", "_h", "_t", "__y1", "s0", "k1", "h", "dt", "th", "step",
              "xdotdot", "out", "components", "sinx", "E", "match"]
# Python keywords, names the grammar cannot reference, and printed names
REJECTED_NAMES = ["lambda", "None", "if", "x y", "1x", "x-y", "", "\u03be", "sin", "cos", "exp",
                  "ln", "log", "sqrt", "e", "pi", "math", "numpy"]


class TestCoordinateNames:
    @pytest.fixture
    def reference(self, tmp_path):
        csv = tmp_path / "x.csv"
        code, report = run_report(tmp_path, "simulate", renamed_oscillator(tmp_path, "x"),
                                  "--csv", csv, name="x.json")
        assert code == 0
        return report["drift_records"], [(tmp_path / f"x_{k}.csv").read_bytes() for k in (0, 1)]

    @pytest.mark.parametrize("name", SAFE_NAMES)
    def test_same_trajectory_and_drift(self, tmp_path, reference, name):
        csv = tmp_path / "renamed.csv"
        code, report = run_report(tmp_path, "simulate", renamed_oscillator(tmp_path, name),
                                  "--csv", csv)
        assert code == 0
        assert report["drift_records"] == reference[0]
        assert [(tmp_path / f"renamed_{k}.csv").read_bytes() for k in (0, 1)] == reference[1]

    @pytest.mark.parametrize("name", REJECTED_NAMES)
    def test_rejected_at_load(self, tmp_path, capsys, name):
        # a parameter follows the coordinate rule: the printed code holds both
        for field, coordinate, parameters in [("coordinates", name, None),
                                              ("parameters", "x", {name: "symbolic"})]:
            assert run("simulate", renamed_oscillator(tmp_path, coordinate, parameters)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {field}: {name!r} is not a {field[:-1]} name")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["t", "x", "xdot"])
    def test_parameter_repeating_a_name_rejected_at_load(self, tmp_path, capsys, name):
        path = renamed_oscillator(tmp_path, "x", {name: 1})
        assert run("simulate", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: parameters: parameter names [{name!r}] repeat")
        assert err.count("\n") == 1

    def test_grammar_functions_reserved(self):
        assert set(FUNCTIONS) <= RESERVED


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
        # full rows are checked for symmetry with k read as 2
        for rows in ([["k"], ["0", "1"]], [["3", "k"], ["2", "3"]]):
            code, bound = run_report(tmp_path, "killing", self.metric_problem(
                tmp_path, rows, {"k": 2}), name="bound.json")
            assert code == 0
            literal_rows = [[e.replace("k", "2") for e in row] for row in rows]
            code, literal = run_report(tmp_path, "killing", self.metric_problem(
                tmp_path, literal_rows), name="literal.json")
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
        monkeypatch.setattr(noetherkit.geometry, "MAX_UNKNOWNS", 30)
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
# constants that are not real, which simulate and solve evaluate in floats
LOAD_PROBES += [(("V0",), "x^2/2 + (-1)^(1/2)*x", "V0"), (("V1",), "(-8)^(1/3)*x", "V1"),
                (("metric",), [["1 + ln(-1)"]], "metric[0][0]"),
                (("ansatz",), {"time_basis": ["1", "ln(-1)"]}, "ansatz.time_basis[1]")]
LOAD_PROBE_IDS += ["V0-non-real", "V1-non-real", "metric-non-real", "time-basis-non-real"]


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

    @pytest.mark.parametrize("powers, index", [
        (["x"], 0), (["x^2"], 0), (["2"], 0), (["1/x", "1/x"], 1), (["1/x", "3/x"], 1),
        (["1/x", "t/x"], 1), (["x+k"], 0),
    ], ids=["monomial", "f-monomial", "number", "repeat", "multiple", "time", "parameter"])
    def test_inverse_power_without_a_new_direction(self, tmp_path, capsys, powers, index):
        """free_particle with ["x"] used to report 22 generators, 12 of them zero;
        x+k with k bound to 2 is the polynomial x+2."""
        problem = fixture_probe(tmp_path, ("ansatz", "inverse_powers"), powers,
                                fixture="free_particle.json", parameters={"k": 2})
        assert run("solve", problem) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: ansatz.inverse_powers[{index}]: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "integrals"])
    def test_no_tolerance_option(self, capsys, command):
        """The sampling threshold is fixed: a looser one turned x^(1/2)'s failing
        translation into a pass and a momentum law."""
        with pytest.raises(SystemExit) as exc:
            run(command, fixture_path("free_particle.json"), "--tolerance", "10")
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 10" in capsys.readouterr().err


def fixture_probe(tmp_path, path, value, fixture="oscillator.json", parameters=None):
    doc = json.loads(fixture_path(fixture).read_text())
    set_field(doc, path, value)
    if parameters is not None:
        doc["parameters"] = parameters
    problem = tmp_path / "probe.json"
    problem.write_text(json.dumps(doc))
    return problem


class TestBoundedInput:
    """A singular metric, oversized numbers and exponents, and a step count
    past the limit are input errors: exit 2 with one line on stderr."""

    @pytest.mark.parametrize("command", ["verify", "integrals", "simulate", "killing"])
    def test_singular_metric(self, tmp_path, capsys, command):
        # a parameter bound to 0 is 0; ln(x^2) = 2 ln(x) wherever both are defined
        for metric, parameters in [([["0"]], None), ([["k"]], {"k": 0}),
                                   ([["ln(x^2) - 2*ln(x)"]], None)]:
            assert run(command, fixture_probe(tmp_path, ("metric",), metric,
                                              parameters=parameters)) == 2
            err = capsys.readouterr().err
            assert err == "input error: metric: singular: det g is identically zero\n"

    @pytest.mark.parametrize("source", ["1" * 5000 + "*x^2", "x^" + "9" * 5000,
                                        "x^65", "x^(1/65)", "(" * 65 + "x" + ")" * 65,
                                        "sin(" * 400 + "x" + ")" * 400],
                             ids=["long-literal", "long-exponent", "x^65", "x^(1/65)",
                                  "65-parentheses", "400-sin"])
    def test_parser_limits(self, tmp_path, capsys, source):
        assert run("verify", fixture_probe(tmp_path, ("V0",), source)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: V0: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(noetherkit.cli.COMMANDS))
    def test_nesting_within_bound_runs(self, tmp_path, capsys, command):
        """63 nested sines and 3000 minus signs load, and every command runs on them."""
        problem = fixture_probe(tmp_path, ("V1",), "sin(" * 63 + "x" + ")" * 63
                                + " + " + "-" * 3000 + "x^2")
        doc = json.loads(problem.read_text())
        doc["ansatz"] = {"time_basis": ["1"], "spatial_degree": 1}
        doc["simulation"]["t_end"] = 0.01
        problem.write_text(json.dumps(doc))
        assert load_problem(problem).L.V1.count(sp.sin) == 63
        # solve's ring takes no sin of a sin
        assert run(command, problem) == (3 if command == "solve" else 0)
        assert "Traceback" not in capsys.readouterr().err

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
# past it, an unknown name, large exponents that stay under the bound, entries
# that killing's ring takes or rejects, a function of a value that is complex in floats,
# parentheses nested past the bound and a long run of minus signs, and entries of a
# parameter k, which the fuzzer binds to a hostile value
EXPRESSION_MUTATIONS = ["1/0", "ln(0)", "x^65", "(x+1)^64*(x+1)^64", "zeta",
                        "(x+1)^64", "x^(-64/63)", "exp(x)", "x^(1/2)", "sin(1/x)",
                        "k^64", "1/k", "ln(k)", "1/(x+k)", "cos(x^(1/3))",
                        "(" * 400 + "x" + ")" * 400, "-" * 3000 + "x",
                        "sin(" * 400 + "x" + ")" * 400]
PARAMETER_VALUES = [0, -1, 1e300, 1e-300, 0.1, "symbolic"]


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
    """One expression of a shipped fixture replaced by, or added to, a hostile one,
    with a parameter k bound to a hostile value or left symbolic."""
    fixture = data.draw(st.sampled_from(["oscillator.json", "case1.json", "case3.json",
                                         "case4.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    path, source = data.draw(st.sampled_from(list(expression_fields(doc))))
    mutation = data.draw(st.sampled_from(EXPRESSION_MUTATIONS))
    set_field(doc, path, data.draw(st.sampled_from([mutation, f"({source}) + {mutation}"])))
    doc["parameters"] = {**doc.get("parameters", {}),
                         "k": data.draw(st.sampled_from(PARAMETER_VALUES))}
    command = data.draw(st.sampled_from(["derive", "verify", "integrals", "killing"]))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "mutated.json"
        problem.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, problem)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


@given(st.data())
@settings(max_examples=60, deadline=30_000)
def test_bound_parameter_is_its_literal(data):
    """One expression s of a fixture written as (s)*k with k bound to v runs as (s)*(v):
    the same exit code, stdout, stderr and report but for the problem's path."""
    fixture = data.draw(st.sampled_from(["oscillator.json", "case1.json", "free_particle.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    commands = ["derive", "verify", "integrals", "killing"]
    if "ansatz" in doc:
        doc["ansatz"]["time_basis"] = ["1", "t"]
        commands.append("solve")
    path, source = data.draw(st.sampled_from(list(expression_fields(doc))))
    value = data.draw(st.sampled_from([0, 2, 0.25, -0.5]))
    parameters = doc.get("parameters", {})
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        problem, report = Path(tmp) / "problem.json", Path(tmp) / "report.json"
        for text, bound in [(f"({source})*k", {"k": value}), (f"({source})*({value})", {})]:
            set_field(doc, path, text)
            doc["parameters"] = {**parameters, **bound}
            problem.write_text(json.dumps(doc))
            outcomes = []
            for command in commands:
                report.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(command, problem, "--report", report)
                written = json.loads(report.read_text()) if report.exists() else None
                if written is not None:
                    del written["problem"]
                outcomes.append((command, code, out.getvalue(), err.getvalue(), written))
            runs.append(outcomes)
    assert runs[0] == runs[1]


# hostile ansatz entries: ln and inverse atoms, a trig product, a fractional power
ANSATZ_MUTATIONS = ["ln(t)", "1/t", "ln(t^2+1)", "sin(t)^2", "exp(t)*sin(t)", "1/(1+t)",
                    "x^(1/2)"]
# and for a candidate's entries, which membership lifts into the solver's ring: a
# velocity and an atom of a non-polynomial argument
CANDIDATE_MUTATIONS = ANSATZ_MUTATIONS + ["xdot", "sin(1/x)"]
# whole time bases: dependent, spanning an unlisted constant, 16 powers of t, and
# ones with ln contents and number atoms
BASIS_MUTATIONS = [["t", "2*t"], ["sin(t)^2", "cos(t)^2"], ["1", "ln(t^2)", "ln(t)"],
                   ["1", "t"] + [f"t^{i}" for i in range(2, 16)], ["1", "ln(2*t)", "ln(t)"],
                   ["1", "ln(2*t)"], ["1", "sin(1)*t"], ["1", "t^(1/2)"]]
DEGREE_MUTATIONS = [0, 2, -1, 10**6, True, 1.5]


@given(st.data())
@settings(max_examples=25, deadline=30_000)
def test_mutated_ansatz_never_raises(data):
    """solve on a shipped fixture with a trimmed basis and one hostile ansatz, potential
    or candidate entry."""
    fixture = data.draw(st.sampled_from(["free_particle.json", "case2_solver.json",
                                         "case5.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    doc["ansatz"]["time_basis"] = ["1", "t"]
    field = data.draw(st.sampled_from(["time_basis", "V0", "V1", "inverse_powers",
                                       "candidates", "basis", "spatial_degree"]))
    mutation = data.draw(st.sampled_from(CANDIDATE_MUTATIONS if field == "candidates"
                                         else ANSATZ_MUTATIONS))
    if field == "candidates":
        zero = ["0", "0"]
        doc.setdefault("candidates", [{"name": "Z", "xi": zero, "f": zero,
                                       "eta": [["0"] * len(doc["coordinates"])] * 2}])
        path, source = data.draw(st.sampled_from(
            [(p, text) for p, text in expression_fields(doc) if p[0] == "candidates"]))
        set_field(doc, path, data.draw(st.sampled_from([mutation, f"({source}) + {mutation}"])))
    elif field == "time_basis":
        doc["ansatz"]["time_basis"].append(mutation)
    elif field in ("basis", "spatial_degree"):
        mutations = BASIS_MUTATIONS if field == "basis" else DEGREE_MUTATIONS
        doc["ansatz"]["time_basis" if field == "basis" else field] = data.draw(
            st.sampled_from(mutations))
    elif field == "inverse_powers":
        doc["ansatz"]["inverse_powers"] = [mutation]
    else:
        doc[field] = data.draw(st.sampled_from([mutation, f"({doc.get(field, '0')}) + {mutation}"]))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "mutated.json"
        problem.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("solve", problem)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


# hostile simulation entries: a step count past the limit (rejected before any step),
# a reversed or zero step, a state that overflows, and epsilons of no scaling fit
SIMULATION_MUTATIONS = [("t_end", 1e300), ("dt", -0.01), ("dt", 0.0), ("t_start", 10.0),
                        ("initial", [1e300, 0.0, 0.0, 0.0]), ("initial", [-1.0, 0.5]),
                        ("epsilons", [0.0, -1.0, 0.0]), ("epsilons", [])]
# fractional powers of a negative number, which are complex in floats
SIMULATION_EXPRESSIONS = EXPRESSION_MUTATIONS + ["(-1-x^2)^(1/2)", "x^(4/3)"]


@given(st.data())
@settings(max_examples=30, deadline=30_000)
def test_mutated_simulation_never_raises(data):
    """simulate on a shipped fixture cut to 200 RK4 steps, with one hostile expression or
    simulation entry, and a parameter k bound to a hostile value or left symbolic."""
    fixture = data.draw(st.sampled_from(["oscillator.json", "case4.json"]))
    doc = json.loads(fixture_path(fixture).read_text())
    sim = doc["simulation"]
    sim["t_end"] = sim["t_start"] + 200 * sim["dt"]
    if data.draw(st.booleans()):
        path, source = data.draw(st.sampled_from(list(expression_fields(doc))))
        mutation = data.draw(st.sampled_from(SIMULATION_EXPRESSIONS))
        set_field(doc, path, data.draw(st.sampled_from([mutation, f"({source}) + {mutation}"])))
    else:
        key, value = data.draw(st.sampled_from(SIMULATION_MUTATIONS))
        sim[key] = value
    doc["parameters"] = {**doc.get("parameters", {}),
                         "k": data.draw(st.sampled_from(PARAMETER_VALUES))}
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "mutated.json"
        problem.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("simulate", problem)
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
