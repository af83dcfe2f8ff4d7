"""Problem-file ingestion: JSON documents describing a perturbed Lagrangian,
candidate generators, a solver ansatz, and a simulation setup."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import sympy as sp

from .context import SYMBOLIC, Context, ContextError
from .geometry import GeometryError, Metric
from .lagrangian import ApproximateGenerator, GeneratorOrder, ModelError, PerturbedLagrangian
from .normal import exact_zero
from .parsing import ParseError, parse
from .solver import AnsatzSpec, SolverError


class ProblemError(ValueError):
    """Invalid problem document; message carries the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Simulation:
    initial: tuple[float, ...]
    t_end: float
    dt: float
    t_start: float
    epsilons: tuple[float, ...]


@dataclass(frozen=True)
class Problem:
    ctx: Context
    L: PerturbedLagrangian
    candidates: tuple[ApproximateGenerator, ...]
    ansatz: Optional[AnsatzSpec]
    simulation: Optional[Simulation]


def _parse_expr(source, ctx: Context, path: str) -> sp.Expr:
    if not isinstance(source, str):
        raise ProblemError(path, f"expected an expression string, got {source!r}")
    try:
        expr = parse(source, ctx)
    except ParseError as exc:
        raise ProblemError(path, str(exc)) from exc
    if expr.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise ProblemError(path, f"non-finite constant in {source!r}")
    # sqrt(-1), ln(-1), (-8)^(1/3): the commands evaluate in real floats
    if any(a.is_number and a.is_real is False for a in sp.preorder_traversal(expr)):
        raise ProblemError(path, f"non-real constant in {source!r}")
    return expr


# bool is a subclass of int in Python, but JSON true/false is no number
def _integer(value, path: str) -> int:
    if type(value) is not int:
        raise ProblemError(path, f"expected an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ProblemError(path, str(exc)) from exc


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ProblemError(path, f"expected a list, got {value!r}")
    return value


def _load_metric(doc, key: str, ctx: Context, required: bool) -> Metric:
    rows = doc.get(key)
    if rows is None:
        if required:
            raise ProblemError(key, "missing")
        return Metric.from_rows(ctx, [[0] * (i + 1) for i in range(ctx.dimension)])
    if not isinstance(rows, list):
        raise ProblemError(key, "expected a list of rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ProblemError(f"{key}[{i}]", "expected a list")
        parsed.append([_parse_expr(e, ctx, f"{key}[{i}][{j}]") for j, e in enumerate(row)])
    try:
        return Metric.from_rows(ctx, parsed)
    except GeometryError as exc:
        raise ProblemError(key, str(exc)) from exc


def _load_candidate(doc, idx: int, ctx: Context, order: int) -> ApproximateGenerator:
    base = f"candidates[{idx}]"
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ProblemError(f"{base}.name", "missing or empty")
    xi_raw = doc.get("xi")
    eta_raw = doc.get("eta")
    if not isinstance(xi_raw, list) or len(xi_raw) != order + 1:
        raise ProblemError(f"{base}.xi", f"expected {order + 1} expression strings")
    if not isinstance(eta_raw, list) or len(eta_raw) != order + 1:
        raise ProblemError(f"{base}.eta", f"expected {order + 1} component lists")
    orders = []
    for A in range(order + 1):
        xi = _parse_expr(xi_raw[A], ctx, f"{base}.xi[{A}]")
        row = eta_raw[A]
        if not isinstance(row, list) or len(row) != ctx.dimension:
            raise ProblemError(f"{base}.eta[{A}]", f"expected {ctx.dimension} components")
        eta = tuple(
            _parse_expr(e, ctx, f"{base}.eta[{A}][{i}]") for i, e in enumerate(row)
        )
        orders.append(GeneratorOrder(xi, eta))
    boundary = None
    if doc.get("f") is not None:
        f_raw = doc["f"]
        if not isinstance(f_raw, list) or len(f_raw) != order + 1:
            raise ProblemError(f"{base}.f", f"expected {order + 1} expression strings")
        boundary = tuple(_parse_expr(e, ctx, f"{base}.f[{A}]") for A, e in enumerate(f_raw))
    quarantined = doc.get("quarantine", False)
    if not isinstance(quarantined, bool):
        raise ProblemError(f"{base}.quarantine", f"expected true or false, got {quarantined!r}")
    note = doc.get("note", "")
    if not isinstance(note, str):
        raise ProblemError(f"{base}.note", f"expected a string, got {note!r}")
    return ApproximateGenerator(name, tuple(orders), boundary, quarantined, note)


def load_problem(path) -> Problem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemError("<file>", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ProblemError("<json>", str(exc)) from exc
    if not isinstance(doc, dict):
        raise ProblemError("<root>", "expected a JSON object")

    coords = doc.get("coordinates")
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise ProblemError("coordinates", "expected a list of names")
    dim = _integer(doc.get("dimension", len(coords)), "dimension")
    if dim != len(coords):
        raise ProblemError(
            "dimension", f"{dim} does not match {len(coords)} coordinates"
        )
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ProblemError("parameters", "expected a map")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ProblemError(f"parameters.{name}", f"bad value {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ProblemError(f"parameters.{name}", f"non-finite value {value!r}")
        if isinstance(value, str) and value != SYMBOLIC:
            raise ProblemError(
                f"parameters.{name}", f'string value must be "{SYMBOLIC}"'
            )
    try:
        ctx = Context(tuple(coords), parameters=params)
    except ContextError as exc:
        raise ProblemError(exc.field, str(exc)) from exc

    order = doc.get("order", 1)
    if type(order) is not int or order < 1:
        raise ProblemError("order", "must be an integer >= 1")
    g = _load_metric(doc, "metric", ctx, required=True)
    # the Lagrangian must be regular: g + eps h is invertible for small eps
    # exactly when g is; a det outside the ring's class is not decided
    if exact_zero(g.entries.det()):
        raise ProblemError("metric", "singular: det g is identically zero")
    h = _load_metric(doc, "h", ctx, required=False)
    V0 = _parse_expr(doc.get("V0", "0"), ctx, "V0")
    V1 = _parse_expr(doc.get("V1", "0"), ctx, "V1")
    try:
        L = PerturbedLagrangian(ctx, g, h, V0, V1, order)
    except ModelError as exc:
        raise ProblemError(exc.field, str(exc)) from exc

    candidates = []
    for idx, cdoc in enumerate(_list(doc.get("candidates", []), "candidates")):
        if not isinstance(cdoc, dict):
            raise ProblemError(f"candidates[{idx}]", "expected an object")
        candidates.append(_load_candidate(cdoc, idx, ctx, order))
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise ProblemError("candidates", "candidate names must be unique")

    ansatz = None
    if doc.get("ansatz") is not None:
        adoc = doc["ansatz"]
        if not isinstance(adoc, dict):
            raise ProblemError("ansatz", "expected an object")
        basis_raw = adoc.get("time_basis")
        if not isinstance(basis_raw, list) or not basis_raw:
            raise ProblemError("ansatz.time_basis", "expected a nonempty list")
        basis = tuple(
            _parse_expr(b, ctx, f"ansatz.time_basis[{i}]") for i, b in enumerate(basis_raw)
        )
        inv = tuple(
            _parse_expr(m, ctx, f"ansatz.inverse_powers[{i}]")
            for i, m in enumerate(_list(adoc.get("inverse_powers", []), "ansatz.inverse_powers"))
        )
        degree = _integer(adoc.get("spatial_degree", 1), "ansatz.spatial_degree")
        try:
            ansatz = AnsatzSpec(basis, degree, inv)
        except SolverError as exc:
            raise ProblemError("ansatz", str(exc)) from exc

    simulation = None
    if doc.get("simulation") is not None:
        sdoc = doc["simulation"]
        if not isinstance(sdoc, dict):
            raise ProblemError("simulation", "expected an object")
        initial = sdoc.get("initial")
        if not isinstance(initial, list) or len(initial) != 2 * ctx.dimension:
            raise ProblemError(
                "simulation.initial", f"expected {2 * ctx.dimension} numbers"
            )
        epsilons = _list(sdoc.get("epsilons", []), "simulation.epsilons")
        simulation = Simulation(
            tuple(_number(v, f"simulation.initial[{i}]") for i, v in enumerate(initial)),
            _number(sdoc.get("t_end"), "simulation.t_end"),
            _number(sdoc.get("dt"), "simulation.dt"),
            _number(sdoc.get("t_start", 0.0), "simulation.t_start"),
            tuple(_number(e, f"simulation.epsilons[{i}]") for i, e in enumerate(epsilons)),
        )

    return Problem(ctx, L, tuple(candidates), ansatz, simulation)


def fixture_path(name: str):
    """Path to one of the shipped example problem files."""
    from importlib import resources

    return resources.files("noetherkit").joinpath("fixtures", name)
