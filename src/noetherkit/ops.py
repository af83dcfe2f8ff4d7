"""The total time derivative along trajectories."""

from __future__ import annotations

import sympy as sp

from .context import Context


class VelocityError(ValueError):
    """A velocity symbol appeared where only (t, x) dependence is allowed."""


def total_time_derivative(e: sp.Expr, ctx: Context) -> sp.Expr:
    """d/dt along trajectories: f_{,t} + f_{,k} xdot^k for f = f(t, x)."""
    e = sp.sympify(e)
    bad = e.free_symbols & set(ctx.vs)
    if bad:
        raise VelocityError(
            f"total time derivative is first-order only; velocities {sorted(map(str, bad))} present"
        )
    out = sp.diff(e, ctx.t)
    for x, v in zip(ctx.xs, ctx.vs):
        out += sp.diff(e, x) * v
    return out
