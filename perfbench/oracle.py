"""Checks of each op's exit code and report against its constructed expectation.

``check`` returns a list of mismatch descriptions; an empty list means the op
is correct.  The solve check also confirms every returned generator with
``noether_residuals``, the program's independent route to the Noether
condition, and decides vanishing with plain sympy rather than the program's
own zero test.
"""

from __future__ import annotations

import json
import math

import sympy as sp


class Oracle:
    """Holds the memo of residual checks, which are pure in (problem, generator)."""

    def __init__(self):
        self._residuals_ok: dict[tuple[str, str], bool] = {}
        self._problems: dict[str, object] = {}

    def check(self, op: dict, code: int, report) -> list[str]:
        if code != op["exit"]:
            return [f"exit code {code}, expected {op['exit']}"]
        if report is None:
            return ["no report written"]
        return getattr(self, "_" + op["kind"])(op, report)

    # -- per command -----------------------------------------------------

    def _derive(self, op, report):
        got = len(report["equations"])
        return [] if got == op["equations"] else [
            f"{got} equations, expected {op['equations']}"]

    def _verify(self, op, report):
        errors = []
        got = {v["name"]: v["status"] == "pass" for v in report["verdicts"]}
        if got != op["verdicts"]:
            wrong = sorted(set(got.items()) ^ set(op["verdicts"].items()))
            errors.append(f"verdicts differ from construction: {wrong}")
        quarantined = sorted(q["name"] for q in report["quarantined"])
        if quarantined != op["quarantined"]:
            errors.append(f"quarantined {quarantined}, expected {op['quarantined']}")
        return errors

    def _killing(self, op, report):
        kinds = [f["kind"] for f in report["homothetic_basis"]]
        if len(kinds) != op["fields"] or kinds.count("homothetic") != 1:
            return [f"homothetic basis kinds {kinds}, expected {op['fields']} "
                    "fields with exactly one homothetic"]
        return []

    def _integrals(self, op, report):
        entries = report["integrals"]
        if [e["name"] for e in entries] != [op["candidate"]]:
            return [f"integrals for {[e['name'] for e in entries]}"]
        powers = [c["epsilon_power"] for c in entries[0]["components"]]
        if powers != list(range(op["components"])):
            return [f"component powers {powers}, expected 0..{op['components'] - 1}"]
        return []

    def _drift(self, op, report):
        return [] if report.get("truncation_is_zero") is True else [
            f"symbolic drift of {op['candidate']} does not vanish through its order"]

    def _simulate(self, op, report):
        errors = []
        records = report["drift_records"]
        if len(records) != op["epsilons"] * op["integrals"]:
            errors.append(f"{len(records)} drift records, expected "
                          f"{op['epsilons']} x {op['integrals']}")
        if not all(math.isfinite(r["max_abs_drift"]) for r in records):
            errors.append("non-finite drift")
        if op["exponent"] is not None:
            name, lo, hi = op["exponent"]
            exps = [s["exponent"] for s in report["scaling"] if s["integral"] == name]
            if len(exps) != 1 or exps[0] is None or not lo <= exps[0] <= hi:
                errors.append(f"{name} scaling exponent {exps}, expected in [{lo}, {hi}]")
        if op["max_drift"] is not None:
            name, bound = op["max_drift"]
            drifts = [r["max_abs_drift"] for r in records if r["integral"] == name]
            if not drifts or max(drifts) >= bound:
                errors.append(f"{name} drift {drifts}, expected below {bound}")
        return errors

    def _solve(self, op, report):
        errors = []
        got = {m["name"]: m["in_span"] for m in report["membership"]}
        if got != op["membership"]:
            wrong = sorted(set(got.items()) ^ set(op["membership"].items()))
            errors.append(f"membership differs from construction: {wrong}")
        basis = report["solution_basis"]
        if len(basis["generators"]) != basis["nullspace_dim"]:
            errors.append("generator count differs from nullspace_dim")
        if op["nullspace_dim"] is not None and basis["nullspace_dim"] != op["nullspace_dim"]:
            errors.append(f"nullspace_dim {basis['nullspace_dim']}, "
                          f"expected {op['nullspace_dim']}")
        for gen in basis["generators"]:
            if not self.residuals_vanish(op["problem"], gen):
                errors.append(f"generator {gen['name']} has nonzero Noether residuals")
        return errors

    # -- independent oracle ----------------------------------------------

    def residuals_vanish(self, problem_path: str, gen: dict) -> bool:
        key = (problem_path, json.dumps(gen, sort_keys=True))
        if key not in self._residuals_ok:
            self._residuals_ok[key] = self._residuals_vanish(problem_path, gen)
        return self._residuals_ok[key]

    def _residuals_vanish(self, problem_path, gen):
        from noetherkit import (ApproximateGenerator, GeneratorOrder, load_problem,
                                noether_residuals, parse)

        if problem_path not in self._problems:
            self._problems[problem_path] = load_problem(problem_path)
        p = self._problems[problem_path]
        orders = tuple(
            GeneratorOrder(parse(xi, p.ctx), tuple(parse(e, p.ctx) for e in eta))
            for xi, eta in zip(gen["xi"], gen["eta"])
        )
        X = ApproximateGenerator(gen["name"], orders,
                                 tuple(parse(f, p.ctx) for f in gen["f"]))
        for r in noether_residuals(p.L, X):
            numer, _ = sp.fraction(sp.together(sp.expand(r)))
            if sp.expand(numer) != 0 and sp.simplify(r) != 0:
                return False
        return True
