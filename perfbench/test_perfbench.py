"""Tests of the benchmark itself: generator, oracle and a reduced smoke pass.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import copy
import json

import pytest

import run
import spans
import workloads
from oracle import Oracle

run.load_program()
FIXTURES = run.SRC / "noetherkit" / "fixtures"


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def _run_in_process(op, tmp_path, seed=5):
    report = tmp_path / "report.json"
    code = run._execute(op, seed, str(report))
    return code, json.loads(report.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = workloads.build(workload, 7, FIXTURES, tmp_path / "a")
    b = workloads.build(workload, 7, FIXTURES, tmp_path / "b")
    c = workloads.build(workload, 8, FIXTURES, tmp_path / "c")
    strip = lambda ops: [{k: v for k, v in op.items() if k != "problem"} for op in ops]
    assert strip(a) == strip(b)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in files)


def test_variants_by_construction(tmp_path):
    ops = workloads.build("symbolic-check", 3, FIXTURES, tmp_path)
    verify = next(op for op in ops if op["kind"] == "verify"
                  and op["problem"].endswith("case2.json"))
    assert sum(verify["verdicts"].values()) == 12  # 6 originals + 6 scaled
    assert sorted(n for n, ok in verify["verdicts"].items() if not ok) == [
        f"Z{i}_b" for i in range(1, 7)]
    assert verify["exit"] == 1
    assert len(ops) == 3 * len(workloads.SYMBOLIC_FIXTURES) + 2 * 5


def test_trimmed_ansatz_membership_by_construction(tmp_path):
    ops = workloads.build("solve-ansatz", 3, FIXTURES, tmp_path)
    solve = next(op for op in ops if op["problem"].endswith("case2_solver.json"))
    in_span = sorted(n for n, ok in solve["membership"].items() if ok)
    assert in_span == ["Z1", "Z1_s", "Z3", "Z3_s", "Z5", "Z5_s", "Z6", "Z6_s"]
    assert len(solve["membership"]) == 18  # 6 originals, 6 scaled, 6 broken
    assert solve["exit"] == 1


def test_oracle_accepts_and_rejects_verify(tmp_path):
    ops = workloads.build("symbolic-check", 3, FIXTURES, tmp_path / "p", reduced=True)
    op = next(op for op in ops if op["kind"] == "verify"
              and op["problem"].endswith("case1.json"))
    code, report = _run_in_process(op, tmp_path)
    oracle = Oracle()
    assert oracle.check(op, code, report) == []
    wrong = copy.deepcopy(op)
    wrong["verdicts"]["Z_b"] = True  # a broken variant declared a symmetry
    assert oracle.check(wrong, code, report)
    wrong = dict(op, exit=0)
    assert oracle.check(wrong, code, report)


def test_oracle_rejects_broken_variant_declared_in_span(tmp_path):
    ops = workloads.build("solve-ansatz", 3, FIXTURES, tmp_path / "p", reduced=True)
    code, report = _run_in_process(ops[0], tmp_path)
    oracle = Oracle()
    assert oracle.check(ops[0], code, report) == []
    report["membership"].append({"name": "Z_b", "in_span": False})
    declared = copy.deepcopy(ops[0])
    declared["membership"]["Z_b"] = True
    assert oracle.check(declared, code, report)
    declared["membership"]["Z_b"] = False
    assert oracle.check(declared, code, report) == []


def test_oracle_rejects_generator_with_nonzero_residuals(tmp_path):
    ops = workloads.build("solve-ansatz", 3, FIXTURES, tmp_path / "p", reduced=True)
    code, report = _run_in_process(ops[0], tmp_path)
    gen = report["solution_basis"]["generators"][0]
    gen["xi"][0] = f"({gen['xi'][0]}) + t^2"
    assert any("residuals" in e for e in Oracle().check(ops[0], code, report))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_smoke_pass(work, workload):
    result = run.run_workload(workload, 3, 0, trace=False, reduced=True)
    assert result["failed"] == 0, result["messages"]
    assert result["attempted"] == result["ops_per_pass"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat(work):
    first = run.run_workload("symbolic-check", 3, 0, trace=True, reduced=True)
    second = run.run_workload("symbolic-check", 3, 0, trace=True, reduced=True)
    assert first["failed"] == second["failed"] == 0
    assert first["count_mismatches"] == second["count_mismatches"] == []
    names = {f"{fn}.{stat}" for fn in spans.TRACED for stat in ("calls", "self_s")}
    names |= set(spans.COUNT_NAMES)
    names |= {"dynamics.integrate.steps_per_s", "dynamics.drift.points_per_s",
              "op_p50_s", "op_p90_s", "op_samples", "trace_overhead_s", "fork_wait_s"}
    assert set(first["metrics"]) == names
    assert first["metrics"]["cli.main.calls"]["value"] == sum(
        op["kind"] != "drift" for op in workloads.build(
            "symbolic-check", 3, FIXTURES, work / "ops", reduced=True))
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if v["unit"] == "count"}
