"""Acceptance suite: one test per release criterion, pinned tolerances."""

import json
import math
import re
import time

import numpy as np
import sympy as sp
import pytest

from noetherkit import (
    ApproximateGenerator,
    SpatialVectorField,
    check_homothetic,
    contains,
    fixture_path,
    first_integral,
    hamiltonian,
    load_problem,
    parse,
    recover_boundary_terms,
    solve,
    solve_homothetic,
    symbolic_drift,
    total_integral,
)
from noetherkit.cli import main
from noetherkit.conservation import FirstIntegral
from noetherkit.dynamics import drift, integrate, scaling_exponent
from noetherkit.geometry import HomotheticKind
from noetherkit.solver import _spatial_monomials

ALL_FIXTURES = [
    "case1.json",
    "case1_order2.json",
    "case2.json",
    "case2_solver.json",
    "case3.json",
    "case4.json",
    "case5.json",
    "ndim.json",
    "free_particle.json",
    "oscillator.json",
]

QUARANTINED = {
    "case3.json": {"Z1", "Z8", "Z9"},
    "case4.json": {"Z12"},
}


def problem(name):
    return load_problem(str(fixture_path(name)))


def with_boundary(L, X):
    if X.boundary is not None:
        return X
    return X.with_boundary(recover_boundary_terms(L, X))


@pytest.fixture(scope="module")
def case2_solver_basis():
    p = problem("case2_solver.json")
    return p, solve(p.L, p.ansatz)


@pytest.fixture(scope="module")
def case5_basis():
    p = problem("case5.json")
    return p, solve(p.L, p.ansatz)


@pytest.fixture(scope="module")
def free_particle_basis():
    p = problem("free_particle.json")
    return p, solve(p.L, p.ansatz)


def test_criterion_1_table_reproduction(tmp_path):
    """Every non-quarantined fixture generator passes verification; the
    quarantined entries are reported as quarantined, never pass/fail."""
    for name in ALL_FIXTURES:
        report_path = tmp_path / f"{name}.report.json"
        code = main(["verify", str(fixture_path(name)), "--report", str(report_path)])
        assert code == 0, name
        report = json.loads(report_path.read_text())
        assert all(v["status"] == "pass" for v in report["verdicts"]), name
        quarantined = {q["name"] for q in report["quarantined"]}
        assert quarantined == QUARANTINED.get(name, set()), name
        assert quarantined.isdisjoint({v["name"] for v in report["verdicts"]})


def test_criterion_2_boundary_reproduction():
    """Recovered boundary terms match the published scaling and projective
    generators exactly, up to an additive constant."""
    p = problem("case2.json")
    ctx = p.ctx
    t, x = ctx.t, ctx.xs[0]
    by_name = {c.name: c for c in p.candidates}
    z3 = ApproximateGenerator("Z3", by_name["Z3"].orders)  # drop stored f
    f = recover_boundary_terms(p.L, z3)
    assert f[0] == 0
    assert sp.expand(f[1] - x**2 / 2) == 0
    z2 = ApproximateGenerator("Z2", by_name["Z2"].orders)
    f = recover_boundary_terms(p.L, z2)
    assert f[0] == 0
    assert sp.cancel(f[1] + x**2 / (2 * t**2)) == 0


def test_criterion_3_integral_reproduction(tmp_path):
    """cmd_integrals reproduces the published first integrals exactly."""
    p = problem("case2.json")
    ctx = p.ctx
    t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
    H0 = hamiltonian(p.L, "zeroth")
    report_path = tmp_path / "case2.integrals.json"
    assert main(["integrals", str(fixture_path("case2.json")),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    comps = {e["name"]: e["components"] for e in report["integrals"]}

    def expr(name, k):
        entry = comps[name][k]
        assert entry["epsilon_power"] == k
        return parse(entry["expr"], ctx)

    # I(Z1) = eps (2 t H0 - x xdot)
    assert expr("Z1", 0) == 0
    assert sp.expand(expr("Z1", 1) - (2 * t * H0 - x * v)) == 0
    # I(Z5) = 2 t H0 - x xdot at leading order (exact symmetry)
    assert sp.expand(expr("Z5", 0) - (2 * t * H0 - x * v)) == 0
    # I(Z6) = eps H0
    assert expr("Z6", 0) == 0
    assert sp.expand(expr("Z6", 1) - H0) == 0

    # n-dimensional control: time translation at first order gives eps H0
    pn = problem("ndim.json")
    comps_n = total_integral(pn.L, {c.name: c for c in pn.candidates}["Zt"])
    assert comps_n[0].expr == 0
    assert sp.expand(comps_n[1].expr - hamiltonian(pn.L, "zeroth")) == 0


def _spatial_factors(p, basis):
    """Exact per-time-basis spatial coefficient fields of each solver generator."""
    ansatz = basis.ansatz
    spec = ansatz.spec
    ctx = p.ctx
    mons = _spatial_monomials(ctx.xs, spec.spatial_degree, spec.include_inverse_powers)
    pattern = re.compile(r"_e(\d+)_(\d+)_(\d+)_(\d+)")
    fields = []
    for vec in basis.vectors:
        coeffs = dict(zip(ansatz.unknowns, vec))
        grouped = {}
        for u, c in coeffs.items():
            m = pattern.fullmatch(u.name)
            if m is None or c == 0:
                continue
            A, i, m_idx, s_idx = map(int, m.groups())
            comp = grouped.setdefault((A, m_idx), [sp.Integer(0)] * ctx.dimension)
            comp[i] += c * mons[s_idx]
        for (A, m_idx), comp in grouped.items():
            fields.append(SpatialVectorField(ctx, tuple(comp)))
    return fields


def test_criterion_4_homothetic_property(case2_solver_basis, case5_basis,
                                         free_particle_basis):
    """Theorem-style property: for kinetic-unperturbed problems every spatial
    factor of a solver generator lies in the homothetic algebra; flat metrics
    carry exactly n(n+1)/2 + 1 homothetic fields."""
    for p, basis in (case2_solver_basis, case5_basis, free_particle_basis):
        assert p.L.h.is_zero_matrix
        factors = _spatial_factors(p, basis)
        assert factors
        for Y in factors:
            assert check_homothetic(p.L.g, Y).ok, Y.components
    from noetherkit import Context, Metric
    for n in (1, 2, 3):
        ctx = Context(tuple("xyz"[:n]))
        flat = Metric.from_rows(
            ctx, [[sp.Integer(i == j) for j in range(i + 1)] for i in range(n)]
        )
        results = solve_homothetic(flat, degree=1)
        assert len(results) == n * (n + 1) // 2 + 1
        kinds = [r.kind for r in results]
        assert kinds.count(HomotheticKind.HOMOTHETIC) == 1


def test_criterion_5_solver_span(case2_solver_basis, free_particle_basis):
    """The documented ansatz recovers the full published algebra."""
    p, basis = case2_solver_basis
    assert basis.nullspace_dim == 6
    assert contains(basis, [with_boundary(p.L, X) for X in p.candidates]) == (True,) * 6
    pf, fp_basis = free_particle_basis
    assert fp_basis.nullspace_dim == 10
    lows = [g.lowest_order for g in fp_basis.generators]
    assert lows.count(0) == 5
    assert lows.count(1) == 5


def test_criterion_6_symbolic_drift():
    """The folded conservation law of every verified fixture generator has
    identically zero drift through its order; the rotation remainder for the
    perturbed central-force problem is nonzero at the next order."""
    for name in ALL_FIXTURES:
        p = problem(name)
        quarantined = QUARANTINED.get(name, set())
        for X in p.candidates:
            if X.name in quarantined:
                continue
            X = with_boundary(p.L, X)
            comps = total_integral(p.L, X, assume_verified=True)
            result = symbolic_drift(p.L, comps)
            assert result.truncation_is_zero, (name, X.name)
    p4 = problem("case4.json")
    Zrot = {c.name: c for c in p4.candidates}["Zrot"]
    result = symbolic_drift(p4.L, total_integral(p4.L, Zrot, assume_verified=True))
    assert result.truncation_is_zero
    assert sp.expand(result.remainder) != 0


def test_criterion_7_drift_scaling():
    """Numeric drift of the approximate angular-momentum law scales like
    eps^2; the whole sweep stays under the 30 s budget."""
    start = time.perf_counter()
    p = problem("case4.json")
    Zrot = {c.name: c for c in p.candidates}["Zrot"]
    comps = total_integral(p.L, Zrot, assume_verified=True)
    result = scaling_exponent(
        p.L, comps, [1e-2, 5e-3, 2.5e-3], [0.1, 0.1, 0.0, 0.0],
        t_end=100.0, dt=1e-3,
    )
    elapsed = time.perf_counter() - start
    assert result.exponent is not None
    assert 1.7 <= result.exponent <= 2.3
    assert elapsed < 30.0


def test_criterion_8_integrator_sanity():
    """Unperturbed oscillator: tiny energy drift over 100 periods, and
    fourth-order step-size response on a phase-sensitive invariant."""
    p = problem("oscillator.json")
    energy = FirstIntegral(0, hamiltonian(p.L, "zeroth"), "energy", 0)
    traj = integrate(p.L, [1.0, 0.0], 100 * 2 * math.pi, 1e-3)
    assert drift(p.L, energy, traj).max_abs_drift < 1e-9
    # the energy is blind to the integrator's dominant phase error, so the
    # step-halving factor is measured on an invariant that sees the phase
    ctx = p.ctx
    t, x, v = ctx.t, ctx.xs[0], ctx.vs[0]
    J = FirstIntegral(0, v * sp.cos(t) + x * sp.sin(t), "J", 0)
    t_end = 10 * 2 * math.pi
    coarse = drift(p.L, J, integrate(p.L, [1.0, 0.0], t_end, 2e-3)).max_abs_drift
    fine = drift(p.L, J, integrate(p.L, [1.0, 0.0], t_end, 1e-3)).max_abs_drift
    assert 12 <= coarse / fine <= 20


def test_criterion_9_determinism(tmp_path):
    """Two identically seeded runs of the acceptance commands produce
    byte-identical machine reports."""
    commands = [
        ("verify", "case2.json"),
        ("verify", "case3.json"),
        ("verify", "case4.json"),
        ("integrals", "case2.json"),
        ("killing", "ndim.json"),
        ("solve", "free_particle.json"),
        ("simulate", "oscillator.json"),
    ]
    outputs = []
    for run in ("first", "second"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        blobs = []
        for k, (cmd, fixture) in enumerate(commands):
            report = run_dir / f"{k}.json"
            assert main([cmd, str(fixture_path(fixture)),
                         "--report", str(report)]) == 0
            blobs.append(report.read_bytes())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
