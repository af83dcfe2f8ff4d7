import json

import pytest

from noetherkit import fixture_path
from noetherkit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def run_report(tmp_path, *argv, name="report.json"):
    path = tmp_path / name
    code = run(*argv, "--report", path)
    return code, json.loads(path.read_text())


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


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fixture = str(fixture_path("case2.json"))
        assert main(["verify", fixture, "--report", str(a)]) == 0
        assert main(["verify", fixture, "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
