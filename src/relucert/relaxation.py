"""LP relaxations of ReLU networks and the cutting-plane bound loop.

The base model relaxes every mixed ReLU neuron with the three-inequality
chord relaxation of its pre-activation interval (pre-activation variables
are substituted out, so the model has one variable per input or ReLU
neuron); fixed-sign neurons become equality rows.  The cutting-plane loop
solves that LP, separates the single-neuron hull inequalities at the
optimum, adds every sufficiently violated one, and re-solves warm: the
solved tableau is bordered with the new rows.  It is the LP bounder of the
one forward sweep, :func:`relucert.propagation.compute_all_bounds`, and
reads the scalar bounds, post boxes and hull instances that sweep has fixed
so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hull
from .propagation import DEFAULT_CUT_ROUNDS, Bounds, LinearExpr
from .simplex import EQ, GE, LE, LpModel, LpStatus, solve_lp

# A hull inequality enters the model only when violated by more than this.
CUT_VIOLATION_TOL = 1e-5


class LpBoundError(RuntimeError):
    """An LP in the bound pipeline ended in a non-optimal status."""

    def __init__(self, status: LpStatus, context: str):
        self.status = status
        super().__init__(f"{context}: LP ended {status.value}")


@dataclass(eq=False)
class DeltaLp:
    """A built relaxation model; variable j is neuron position j."""

    model: LpModel

    def add_hull_cut(self, pos: int, cut: hull.HullCut):
        """Add ``z[pos] <= cut``; the cut names state positions, so variables."""
        idx = np.concatenate([[pos], cut.idx])
        coef = np.concatenate([[1.0], -cut.coeffs])
        self.model.add_constraint(idx, coef, LE, cut.constant)


def build_delta_lp(bounds: Bounds, objective: LinearExpr) -> DeltaLp:
    """Relaxation LP over neuron positions ``0 .. objective.eta - 1``.

    Every variable gets its post-activation box from ``bounds``: the input
    box, or a ReLU neuron's clamped scalar bounds.  Mixed neurons contribute
    ``z >= zhat`` and the chord upper inequality (nonnegativity rides on the
    variable bound); fixed-sign neurons contribute a single equality pinning
    them to their row or to 0.
    """
    net = bounds.net
    eta = objective.eta
    if eta > net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    if len(bounds.pre) < eta:
        raise ValueError("scalar bounds missing for neurons below the objective")
    model = LpModel()
    for pos in range(eta):
        model.add_variable(bounds.post_lower[pos], bounds.post_upper[pos], name=f"z{pos}")
    for pos in range(net.input_dim, eta):
        idx, w, b = net.row(pos)
        lo, hi = bounds.pre[pos].pre_lower, bounds.pre[pos].pre_upper
        if lo >= 0.0:
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -w]), EQ, b)
        elif hi <= 0.0:
            model.add_constraint(np.array([pos]), np.array([1.0]), EQ, 0.0)
        else:
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -w]), GE, b)
            s = hi / (hi - lo)
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -s * w]), LE, s * (b - lo))
    nz = np.flatnonzero(objective.coeffs)
    for j in nz:
        model.obj[int(j)] = float(objective.coeffs[j])
    model.obj_constant = objective.constant
    return DeltaLp(model=model)


def optc2v_bound(bounds: Bounds, objective: LinearExpr,
                 rounds: int = DEFAULT_CUT_ROUNDS) -> float:
    """Upper bound from the relaxation LP plus ``rounds`` of hull cuts.

    Each round separates at the current LP optimum, in one step of the hull
    table of ``bounds``, across the mixed neurons below the objective, adds
    every cut violated beyond ``CUT_VIOLATION_TOL`` (no cut selection), in
    position order, and re-solves warm on the previous solve's tableau.  A
    violated cut cannot already be in the model: the LP optimum satisfies
    every row within ``FEAS_TOL``, far below that tolerance.  Monotone
    nonincreasing in ``rounds``; ``rounds=0`` is the plain relaxation value.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    dl = build_delta_lp(bounds, objective)
    sol = solve_lp(dl.model)
    if sol.status != LpStatus.OPTIMAL:
        raise LpBoundError(sol.status, "base relaxation")
    table = bounds.table
    pos = table.pos[:table.rows_below(objective.eta)]
    for _ in range(rounds):
        z = sol.x
        found = table.separate(z, z[pos], CUT_VIOLATION_TOL)
        if not found:
            break
        for row, sep in found:
            dl.add_hull_cut(pos[row], sep.cut)
        sol = solve_lp(dl.model, warm_basis=sol.basis)
        if sol.status != LpStatus.OPTIMAL:
            # cuts are valid for every network point, so an infeasible
            # re-solve means tolerances bit us, not the model
            raise LpBoundError(sol.status, "after adding cuts")
    return sol.objective_value
