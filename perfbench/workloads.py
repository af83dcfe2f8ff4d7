"""Seeded workload generation: problem files, op lists and expected outcomes.

Every problem file is derived from a shipped fixture.  Each fixture candidate
gets a *scaled* variant (xi, eta and f multiplied by a seeded nonzero rational,
a symmetry by linearity) and, when it carries boundary terms f, a *broken*
variant (c*t^k, k in {1, 2}, added to xi_0 with f kept, which violates the
order-0 metric condition because dt(xi_0) no longer matches the metric part).
Each op carries the outcome expected by that construction, so the oracle
never compares against an earlier output of the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("solve-ansatz", "simulate-drift", "symbolic-check")

SOLVE_FIXTURES = ("free_particle", "case2_solver", "case5")
SIMULATE_FIXTURES = ("oscillator", "case4")
SYMBOLIC_FIXTURES = ("case1", "case1_order2", "case2", "ndim", "oscillator", "free_particle")
# The solve ops search a trimmed time basis, so that one op takes about 1-3 s
# and a run repeats every op several times.  With the shipped bases case2_solver
# (138x96) and case5 (281x130) take 10 and 22 s.  A candidate is in the span of
# the trimmed ansatz exactly when its xi, eta and f are polynomials in t of the
# kept degrees: Z2 and Z4 of case2_solver carry ln(t) and 1/t, Z3..Z5 of case5
# carry t^2..t^4.  Those candidates and their scaled variants are expected out.
SOLVE_TIME_BASIS = {"case2_solver": ["1", "t", "t^2", "ln(t)"], "case5": ["1", "t"]}
OUT_OF_TRIMMED_SPAN = {"case2_solver": {"Z2", "Z4"}, "case5": {"Z3", "Z4", "Z5"}}
# criterion 5: dimensions of the gauge-quotiented solution space; for the
# trimmed case2_solver basis, the span of Z1, Z3, Z5 and Z6 (no combination of
# Z2 and Z4 cancels both their ln(t) and their 1/t terms)
NULLSPACE_DIM = {"case2_solver": 4, "free_particle": 10}
# simulate runs this share of each fixture's t_end (criterion 7 holds on it)
T_END_SCALE = 0.05
# criterion 7 (Zrot exponent window) and criterion 8 (oscillator energy drift)
EXPONENT_WINDOW = {"case4": ("Zrot", 1.7, 2.3)}
MAX_DRIFT = {"oscillator": ("Zenergy", 1e-9)}

# reduced sizes, used by the benchmark's own smoke test
REDUCED = {
    "solve-ansatz": ("free_particle",),
    "simulate-drift": SIMULATE_FIXTURES,
    "symbolic-check": ("case1", "oscillator", "free_particle"),
}
REDUCED_T_END_SCALE = 0.02


def _rational(rng: random.Random) -> Fraction:
    """A seeded rational away from 0 and from +-1."""
    while True:
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
        if abs(r) != 1:
            return r


def _times(r: Fraction, expr: str) -> str:
    return "0" if expr.strip() == "0" else f"({r})*({expr})"


def _scaled(cand: dict, r: Fraction) -> dict:
    out = {
        "name": cand["name"] + "_s",
        "xi": [_times(r, e) for e in cand["xi"]],
        "eta": [[_times(r, e) for e in row] for row in cand["eta"]],
    }
    if cand.get("f") is not None:
        out["f"] = [_times(r, e) for e in cand["f"]]
    return out


def _broken(cand: dict, c: Fraction, k: int) -> dict:
    xi = list(cand["xi"])
    xi[0] = f"({xi[0]}) + ({c})*t^{k}"
    return {"name": cand["name"] + "_b", "xi": xi, "eta": cand["eta"], "f": cand["f"]}


def with_variants(doc: dict, rng: random.Random) -> tuple[dict, dict]:
    """Append the seeded variants; return the document and name -> expected pass."""
    originals = doc.get("candidates", [])
    cands = list(originals)
    expect = {}
    for cand in originals:
        if cand.get("quarantine"):
            continue
        expect[cand["name"]] = True
        scaled = _scaled(cand, _rational(rng))
        cands.append(scaled)
        expect[scaled["name"]] = True
        if cand.get("f") is not None:
            broken = _broken(cand, _rational(rng), rng.choice((1, 2)))
            cands.append(broken)
            expect[broken["name"]] = False
    return {**doc, "candidates": cands}, expect


def _flat_dimension(doc: dict) -> int:
    n = len(doc["coordinates"])
    for i, row in enumerate(doc["metric"]):
        for j, e in enumerate(row):
            if e.strip() != ("1" if i == j else "0"):
                raise ValueError("killing expectation assumes a flat metric")
    return n


def _op(kind, problem, **fields):
    return {"kind": kind, "problem": problem, **fields}


def build(workload: str, seed: int, fixtures: Path, out: Path,
          reduced: bool = False) -> list[dict]:
    """Write the workload's problem files under ``out``; return its op list.

    An op is one CLI command on one problem file (kind = the command) or one
    ``symbolic_drift`` call (kind "drift").  The same seed gives the same
    files and ops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    names = {
        "solve-ansatz": SOLVE_FIXTURES,
        "simulate-drift": SIMULATE_FIXTURES,
        "symbolic-check": SYMBOLIC_FIXTURES,
    }[workload]
    if reduced:
        names = REDUCED[workload]
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    for name in names:
        doc = json.loads((fixtures / f"{name}.json").read_text())
        quarantined = sorted(c["name"] for c in doc.get("candidates", [])
                             if c.get("quarantine"))
        if workload == "simulate-drift":
            sim = dict(doc["simulation"])
            sim["initial"] = [v * round(rng.uniform(0.8, 1.2), 6) for v in sim["initial"]]
            sim["t_end"] *= REDUCED_T_END_SCALE if reduced else T_END_SCALE
            doc = {**doc, "simulation": sim}
            expect = {}
        else:
            doc, expect = with_variants(doc, rng)
        if workload == "solve-ansatz" and name in SOLVE_TIME_BASIS:
            doc = {**doc, "ansatz": {**doc["ansatz"], "time_basis": SOLVE_TIME_BASIS[name]}}
            out_of_span = OUT_OF_TRIMMED_SPAN[name]
            expect = {cand: ok and cand.split("_")[0] not in out_of_span
                      for cand, ok in expect.items()}
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        problem = str(path)
        order = doc.get("order", 1)
        any_fails = not all(expect.values())
        if workload == "solve-ansatz":
            ops.append(_op("solve", problem, membership=expect,
                           nullspace_dim=NULLSPACE_DIM.get(name),
                           exit=1 if any_fails else 0))
        elif workload == "simulate-drift":
            ops.append(_op("simulate", problem, epsilons=len(doc["simulation"]["epsilons"]),
                           integrals=len([c for c in doc["candidates"]
                                          if not c.get("quarantine")]),
                           exponent=EXPONENT_WINDOW.get(name),
                           max_drift=MAX_DRIFT.get(name), exit=0))
        else:
            n = _flat_dimension(doc)
            ops.append(_op("derive", problem,
                           equations=(order + 1) * (n * (n + 1) // 2 + 2 * n + 1),
                           exit=0))
            ops.append(_op("verify", problem, verdicts=expect,
                           quarantined=quarantined, exit=1 if any_fails else 0))
            ops.append(_op("killing", problem, fields=n * (n + 1) // 2 + 1, exit=0))
            # integrals and drift on the first scaled variant of each problem
            scaled = [c for c, passes in expect.items() if passes and c.endswith("_s")]
            if scaled:
                ops.append(_op("integrals", problem, candidate=scaled[0],
                               components=order + 1, exit=0))
                ops.append(_op("drift", problem, candidate=scaled[0], exit=0))
    return ops
