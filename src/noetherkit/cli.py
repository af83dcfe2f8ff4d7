"""Command-line front end.

Usage: noether <derive|verify|solve|integrals|simulate|killing> problem.json
Exit codes: 0 success, 1 check failure, 2 input error, 3 unsupported construct.
The JSON report (--report) is the machine contract; stdout is a human view.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import sympy as sp

from .conditions import (
    IncompatibleError,
    build_conditions,
    recover_boundary_terms,
    verify,
)
from .conservation import total_integral
from .dynamics import (IntegrationError, SymbolicParameterError, UnsupportedFunctionError,
                       drift, fit_slope, integrate, require_numeric, write_csv)
from .geometry import GeometryError, solve_homothetic
from .normal import DEFAULT_SEED
from .parsing import print_expression
from .problem import Problem, ProblemError, load_problem
from .solver import SolverError, UnsupportedEquationError, contains, solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


class OutputTooLarge(Exception):
    """A result holds a number longer than Python converts to a string."""


def _sstr(expr) -> str:
    try:
        return sp.sstr(expr)
    except ValueError as exc:
        raise OutputTooLarge(
            f"result has a number of more than {sys.get_int_max_str_digits()} digits, "
            "too long to print"
        ) from exc


def _pretty(expr) -> str:
    try:
        return print_expression(expr)
    except ValueError:
        return _sstr(expr)


def _select_candidates(problem: Problem, name):
    if name is None:
        return problem.candidates
    for c in problem.candidates:
        if c.name == name:
            return (c,)
    raise ProblemError("candidates", f"no candidate named {name!r}")


class CheckFailed(Exception):
    """A selected candidate is not a symmetry, so it has no conservation law."""


def _with_boundary(problem: Problem, X, seed):
    if X.boundary is not None:
        return X
    return X.with_boundary(recover_boundary_terms(problem.L, X, seed=seed))


def _conservation_law(problem: Problem, X, args):
    """The components of the conservation law of X; CheckFailed if there is none."""
    try:
        X = _with_boundary(problem, X, args.seed)
    except IncompatibleError as exc:
        raise CheckFailed(f"{X.name} has no boundary term: {exc}") from exc
    if not verify(problem.L, X, seed=args.seed).passed:
        raise CheckFailed(f"{X.name} fails verification")
    return total_integral(problem.L, X, seed=args.seed, assume_verified=True)


def _zero_status_entry(result):
    entry = {"status": result.status.value}
    if result.witness is not None:
        entry["witness"] = {str(k): v for k, v in sorted(
            result.witness.items(), key=lambda kv: str(kv[0])
        )}
        entry["witness_value"] = result.witness_value
    return entry


def cmd_derive(problem: Problem, args) -> tuple[dict, int]:
    system = build_conditions(problem.L)
    equations = []
    for eq in system.equations:
        lhs = _sstr(eq.lhs)
        equations.append({
            "order": eq.order,
            "kind": eq.kind,
            "component": list(eq.component),
            "lhs": lhs,
        })
        print(f"[order {eq.order}] {eq.kind} {tuple(eq.component)}: {lhs} = 0")
    return {"equations": equations}, EXIT_OK


def cmd_verify(problem: Problem, args) -> tuple[dict, int]:
    verdicts = []
    quarantined = []
    failed = False
    for X in _select_candidates(problem, args.candidate):
        if X.quarantined:
            quarantined.append({"name": X.name, "note": X.note})
            print(f"{X.name}: quarantined ({X.note})")
            continue
        try:
            X = _with_boundary(problem, X, args.seed)
        except IncompatibleError as exc:
            failed = True
            verdicts.append({"name": X.name, "status": "fail", "reason": str(exc)})
            print(f"{X.name}: FAIL ({exc})")
            continue
        report = verify(problem.L, X, seed=args.seed)
        entry = {
            "name": X.name,
            "status": "pass" if report.passed else "fail",
            "classification": report.classification,
            "boundary": [_pretty(f) for f in X.boundary],
            "equations": [
                {
                    "order": v.equation.order,
                    "kind": v.equation.kind,
                    "component": list(v.equation.component),
                    **_zero_status_entry(v.result),
                }
                for v in report.verdicts
            ],
        }
        verdicts.append(entry)
        failed = failed or not report.passed
        print(f"{X.name}: {'pass' if report.passed else 'FAIL'} ({report.classification})")
        for v in report.failures():
            print(
                f"  residual [order {v.equation.order}] {v.equation.kind} "
                f"{tuple(v.equation.component)}: {v.result.status.value}"
            )
    report = {"verdicts": verdicts, "quarantined": quarantined}
    return report, EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_solve(problem: Problem, args) -> tuple[dict, int]:
    if problem.ansatz is None:
        raise ProblemError("ansatz", "missing; cmd_solve needs an ansatz block")
    candidates = _select_candidates(problem, args.candidate)
    basis = solve(problem.L, problem.ansatz)
    generators = []
    for g in basis.generators:
        generators.append({
            "name": g.name,
            "xi": [_pretty(o.xi) for o in g.orders],
            "eta": [[_pretty(e) for e in o.eta] for o in g.orders],
            "f": [_pretty(f) for f in g.boundary],
        })
        print(f"{g.name}: xi={generators[-1]['xi']} eta={generators[-1]['eta']}")
    kept = [X for X in candidates if not X.quarantined]
    quarantined = [{"name": X.name, "note": X.note} for X in candidates if X.quarantined]
    reasons = {}
    answers = contains(basis, kept, reasons)
    membership = [{"name": X.name, "in_span": inside} for X, inside in zip(kept, answers)]
    for j, m in enumerate(membership):
        m.update({"reason": reasons[j]} if j in reasons else {})
        words = {True: "in span", False: "NOT in span", None: f"undecided ({reasons.get(j)})"}
        print(f"{m['name']}: {words[m['in_span']]}")
    print(f"nullspace dimension {basis.nullspace_dim}; {basis.gauge_note}")
    report = {
        "solution_basis": {
            "generators": generators,
            "nullspace_dim": basis.nullspace_dim,
            "gauge_note": basis.gauge_note,
        },
        "membership": membership,
        "quarantined": quarantined,
    }
    return report, (EXIT_CHECK_FAILED if False in answers
                    else EXIT_UNSUPPORTED if None in answers else EXIT_OK)


def cmd_integrals(problem: Problem, args) -> tuple[dict, int]:
    integrals = []
    quarantined = []
    for X in _select_candidates(problem, args.candidate):
        if X.quarantined:
            quarantined.append({"name": X.name, "note": X.note})
            continue
        components = _conservation_law(problem, X, args)
        entry = {
            "name": X.name,
            "components": [
                {"epsilon_power": I.epsilon_power, "expr": _pretty(I.expr)}
                for I in components
            ],
        }
        integrals.append(entry)
        for I in components:
            print(f"I[{X.name}] order {I.order}: eps^{I.epsilon_power} * ({_pretty(I.expr)})")
    return {"integrals": integrals, "quarantined": quarantined}, EXIT_OK


def cmd_simulate(problem: Problem, args) -> tuple[dict, int]:
    if problem.simulation is None:
        raise ProblemError("simulation", "missing; cmd_simulate needs a simulation block")
    sim = problem.simulation
    epsilons = tuple(args.epsilon) if args.epsilon else sim.epsilons
    if not epsilons:
        raise ProblemError("simulation.epsilons", "no epsilon values given")
    integrals = {}
    for X in _select_candidates(problem, args.candidate):
        if X.quarantined:
            continue
        integrals[X.name] = _conservation_law(problem, X, args)
        require_numeric(problem.ctx, [I.expr for I in integrals[X.name]], f"I[{X.name}]")
    records = []
    by_integral = {name: [] for name in integrals}
    for k, eps in enumerate(epsilons):
        # each law is evaluated inside the RK4 loop; rows are kept only for a CSV
        traj = integrate(problem.L, sim.initial, sim.t_end, sim.dt, eps, sim.t_start,
                         laws=list(integrals.values()), store=bool(args.csv))
        for name, comps in integrals.items():
            rec = drift(problem.L, comps, traj, name)
            by_integral[name].append(rec)
            records.append({
                "integral": name,
                "epsilon": eps,
                "max_abs_drift": rec.max_abs_drift,
                "final_drift": rec.final_drift,
                "t_span": list(rec.t_span),
            })
            print(f"eps={eps}: drift of I[{name}] max={rec.max_abs_drift:.6e}")
        if args.csv:
            path = Path(args.csv)
            if len(epsilons) > 1:
                path = path.with_name(f"{path.stem}_{k}{path.suffix}")
            write_csv(path, problem.L, traj, integrals)
            print(f"wrote {path}")
    scalings = []
    if len(epsilons) >= 2:
        for name, recs in by_integral.items():
            res = fit_slope(recs)
            scalings.append({
                "integral": name,
                "exponent": res.exponent,
                "excluded_epsilons": list(res.excluded),
                "note": res.note,
            })
            print(f"scaling exponent of I[{name}]: {res.exponent}")
    return {"drift_records": records, "scaling": scalings}, EXIT_OK


def cmd_killing(problem: Problem, args) -> tuple[dict, int]:
    results = solve_homothetic(problem.L.g, args.degree)
    fields = []
    for r in results:
        fields.append({
            "components": [_pretty(c) for c in r.field.components],
            "psi": _pretty(r.conformal_factor),
            "kind": r.kind.value,
        })
        print(f"{r.kind.value}: ({', '.join(fields[-1]['components'])}) psi={fields[-1]['psi']}")
    return {"homothetic_basis": fields}, EXIT_OK


COMMANDS = {
    "derive": cmd_derive,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "integrals": cmd_integrals,
    "simulate": cmd_simulate,
    "killing": cmd_killing,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noether",
        description="Approximate Noether symmetries of perturbed Lagrangians",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("problem", help="problem JSON file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--candidate", help="restrict to one named candidate")
    parser.add_argument("--degree", type=int, default=1, help="homothetic ansatz degree")
    parser.add_argument("--epsilon", type=float, action="append",
                        help="override simulation epsilon (repeatable)")
    parser.add_argument("--report", help="write the JSON report here")
    parser.add_argument("--csv", help="write trajectory CSV here (simulate)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.problem)
        report, code = COMMANDS[args.command](problem, args)
    except ProblemError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedEquationError, SymbolicParameterError, UnsupportedFunctionError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (SolverError, IntegrationError, GeometryError, OutputTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"command": args.command, "problem": str(args.problem),
              "seed": args.seed, **report}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
