"""LP relaxations of ReLU networks and the cutting-plane bound loop.

The base model relaxes every mixed ReLU neuron with the three-inequality
chord relaxation of its pre-activation interval (pre-activation variables
are substituted out, so the model has one variable per input or ReLU
neuron); always-active neurons become equality rows, and always-inactive
ones are pinned to 0 by their variable's box alone.  A model spans only the
positions below its objective's reach, since no later neuron can move the
objective.  All the objectives of one reach (the rows of a level, both
signs, or the margins) share one model, kept solved in the sweep's
:class:`relucert.propagation.Bounds`: each swaps in its objective and
re-solves from the previous optimum.  The cutting-plane loop then
separates the single-neuron hull inequalities at the optimum, adds every
sufficiently violated one to a copy of that solved model, and re-solves
warm: the solved tableau is bordered with the new rows.  It is the LP
bounder of the one forward sweep,
:func:`relucert.propagation.compute_all_bounds`, and reads the scalar
bounds, post boxes and hull instances that sweep has fixed so far.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import hull
from .propagation import DEFAULT_CUT_ROUNDS, Bounds, LinearExpr
from .simplex import EQ, GE, LE, LpModel, LpSolution, LpStatus, solve_lp

# A hull inequality enters the model only when violated by more than this.
CUT_VIOLATION_TOL = 1e-5


class LpBoundError(RuntimeError):
    """An LP in the bound pipeline ended in a non-optimal status."""

    def __init__(self, status: LpStatus, context: str):
        self.status = status
        super().__init__(f"{context}: LP ended {status.value}")


@dataclass(eq=False)
class DeltaLp:
    """A built relaxation model; variable j is neuron position j.

    ``basis`` is the tableau of its last solve, from which the next solve
    starts.
    """

    model: LpModel
    basis: object = None

    def add_hull_cut(self, pos: int, cut: hull.HullCut):
        """Add ``z[pos] <= cut``; the cut names state positions, so variables."""
        idx = np.concatenate([[pos], cut.idx])
        coef = np.concatenate([[1.0], -cut.coeffs])
        self.model.add_constraint(idx, coef, LE, cut.constant)

    def set_objective(self, objective: LinearExpr):
        """Maximize ``objective``, whose reach must be the model's variables."""
        n = self.model.n_vars
        if objective.reach != n:
            raise ValueError(f"objective reach {objective.reach} on a model of {n} variables")
        self.model.obj = objective.coeffs[:n].tolist()
        self.model.obj_constant = objective.constant

    def solve(self, context: str) -> LpSolution:
        """Solve warm from the last solve; raise unless optimal."""
        sol = solve_lp(self.model, warm_basis=self.basis)
        if sol.status != LpStatus.OPTIMAL:
            raise LpBoundError(sol.status, context)
        self.basis = sol.basis
        return sol

    def copy(self) -> "DeltaLp":
        """A copy, solved state included, whose added rows stay its own."""
        model = replace(self.model, obj=list(self.model.obj), rows=list(self.model.rows))
        return DeltaLp(model=model, basis=self.basis.fork(model))


def build_delta_lp(bounds: Bounds, objective: LinearExpr) -> DeltaLp:
    """Relaxation LP of ``objective`` over the positions below its reach.

    Every variable gets its post-activation box from ``bounds``: the input
    box, or a ReLU neuron's clamped scalar bounds.  Mixed neurons contribute
    ``z >= zhat`` and the chord upper inequality (nonnegativity rides on the
    variable bound); an always-active neuron contributes one equality
    pinning it to its row, and an always-inactive one none, its box being
    [0, 0].  Neurons from the reach on cannot move the objective, so they
    are left out.
    """
    net = bounds.net
    reach = objective.reach
    if objective.eta > net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    if len(bounds.pre) < reach:
        raise ValueError("scalar bounds missing for neurons below the objective")
    model = LpModel()
    for pos in range(reach):
        model.add_variable(bounds.post_lower[pos], bounds.post_upper[pos], name=f"z{pos}")
    for pos in range(net.input_dim, reach):
        lo, hi = bounds.pre[pos].pre_lower, bounds.pre[pos].pre_upper
        if lo < 0.0 and hi <= 0.0:
            continue
        idx, w, b = net.row(pos)
        if lo >= 0.0:
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -w]), EQ, b)
        else:
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -w]), GE, b)
            s = hi / (hi - lo)
            model.add_constraint(np.concatenate([[pos], idx]),
                                 np.concatenate([[1.0], -s * w]), LE, s * (b - lo))
    dl = DeltaLp(model=model)
    dl.set_objective(objective)
    return dl


def optc2v_bound(bounds: Bounds, objective: LinearExpr,
                 rounds: int = DEFAULT_CUT_ROUNDS) -> float:
    """Upper bound from the relaxation LP plus ``rounds`` of hull cuts.

    The relaxation is the one of ``bounds`` for the objective's reach, built
    on the first objective of that reach and kept in ``bounds.lps``; each
    later one replaces the objective and re-solves from the last optimum.
    Each round then separates at the current LP optimum, in one step of the
    hull table of ``bounds``, across the mixed neurons below the reach, adds
    every cut violated beyond ``CUT_VIOLATION_TOL`` (no cut selection), in
    position order, and re-solves warm on the previous solve's tableau.  The
    first cut goes into a copy of the solved relaxation, so cuts stay scoped
    to this objective and never enter the shared model.  A violated cut
    cannot already be in the model: the LP optimum satisfies every row
    within ``FEAS_TOL``, far below that tolerance.  Monotone nonincreasing
    in ``rounds``; ``rounds=0`` is the plain relaxation value.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    reach = objective.reach
    dl = bounds.lps.get(reach)
    if dl is None:
        dl = bounds.lps[reach] = build_delta_lp(bounds, objective)
    else:
        dl.set_objective(objective)
    sol = dl.solve("base relaxation")
    table = bounds.table
    pos = table.pos[:table.rows_below(reach)]
    work = dl
    for _ in range(rounds):
        z = sol.x
        found = table.separate(z, z[pos], CUT_VIOLATION_TOL)
        if not len(found):
            break
        if work is dl:
            work = dl.copy()
        for e in range(len(found)):
            work.add_hull_cut(pos[found.row[e]], found.cut(e))
        # cuts are valid for every network point, so an infeasible
        # re-solve means tolerances bit us, not the model
        sol = work.solve("after adding cuts")
    return sol.objective_value
