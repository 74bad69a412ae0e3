"""LP relaxations of ReLU networks and the cutting-plane bound loop.

The base model relaxes every mixed ReLU neuron with the three-inequality
chord relaxation of its pre-activation interval (pre-activation variables
are substituted out, so the model has one variable per input or ReLU
neuron); always-active neurons become equality rows, and always-inactive
ones are pinned to 0 by their variable's box alone.  A model spans only the
positions below its objective's reach, since no later neuron can move the
objective.  All the objectives of one reach (the rows of a level, both
signs, or the margins) share one model, kept in the sweep's
:class:`relucert.propagation.Bounds` with the solved tableau of the first
objective bounded over it, from which every later one starts.  The
cutting-plane loop then separates the single-neuron hull inequalities at
each optimum, adds every sufficiently violated one for that objective
alone, and re-solves warm: the solved tableau is bordered with the new rows.

:func:`optc2v_bound` bounds a whole batch.  The objectives of a reach go in
stacks (:class:`relucert.simplex.Lockstep`): one tableau per objective,
solved together, with one :meth:`relucert.hull.HullTable.separate` step per
round for the whole stack and each objective's cuts on its own tableau.
Where a stack of several would be too small to pay, or its tableaux too
large, each objective is a stack of one.  It is the LP bounder of the one
forward sweep, :func:`relucert.propagation.compute_all_bounds`, and reads
the scalar bounds, post boxes and hull instances that sweep has fixed so
far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hull import HullTable, Separations
from .propagation import DEFAULT_CUT_ROUNDS, Bounds, Objectives
from .simplex import EQ, GE, LE, Lockstep, LpBatchSolution, LpModel, LpStatus

# A hull inequality enters the model only when violated by more than this.
CUT_VIOLATION_TOL = 1e-5

# Objectives of one reach are solved in stacks of at most LP_BLOCK tableau
# entries (objectives x (rows + 1) x (nonbasic columns + 1)), so that a
# stack's arrays stay in cache, and of at least LOCKSTEP_MIN objectives: a
# lockstep pivot costs about twice the numpy calls of one plain pivot and
# lasts as long as the stack's longest solve, so smaller stacks lose to
# stacks of one.
LP_BLOCK = 1 << 15
LOCKSTEP_MIN = 8


class LpBoundError(RuntimeError):
    """An LP in the bound pipeline ended in a non-optimal status."""

    def __init__(self, status: LpStatus, context: str):
        self.status = status
        super().__init__(f"{context}: LP ended {status.value}")


@dataclass(eq=False)
class DeltaLp:
    """A built relaxation model; variable j is neuron position j.

    ``start`` is the solved stack of one of the first objective bounded over
    it, taken before its first cut; every later objective starts from it.
    """

    model: LpModel
    start: Lockstep | None = None

    def set_objective(self, coeffs, constant):
        """Maximize ``coeffs . z + constant``; no coefficient may lie past
        the model's variables."""
        n, coeffs = self.model.n_vars, np.asarray(coeffs)
        if np.any(coeffs[n:]):
            raise ValueError(f"objective reaches past the model's {n} variables")
        self.model.obj = coeffs[:n].tolist()
        self.model.obj_constant = constant


def build_delta_lp(bounds: Bounds, reach: int) -> DeltaLp:
    """Relaxation LP over the positions below ``reach``, with no objective.

    Every variable gets its post-activation box from ``bounds``: the input
    box, or a ReLU neuron's clamped scalar bounds.  Mixed neurons contribute
    ``z >= zhat`` and the chord upper inequality (nonnegativity rides on the
    variable bound); an always-active neuron contributes one equality
    pinning it to its row, and an always-inactive one none, its box being
    [0, 0].  Neurons from the reach on cannot move an objective of that
    reach, so they are left out.
    """
    net = bounds.net
    if reach > net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    if np.isnan(bounds.pre_lower[:reach]).any():
        raise ValueError("scalar bounds missing for neurons below the objective")
    model = LpModel()
    for pos in range(reach):
        model.add_variable(bounds.post_lower[pos], bounds.post_upper[pos], name=f"z{pos}")
    for pos in range(net.input_dim, reach):
        lo, hi = bounds.pre_lower[pos], bounds.pre_upper[pos]
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
    return DeltaLp(model=model)


def optc2v_bound(bounds: Bounds, objective: Objectives,
                 rounds: int = DEFAULT_CUT_ROUNDS) -> np.ndarray:
    """Upper bound of each objective of a batch from the relaxation LP plus
    ``rounds`` of hull cuts.

    The relaxation is the one of ``bounds`` for the objective's reach, built
    on the first objective of that reach and kept in ``bounds.lps``; every
    later one starts from that first optimum.  Each round then separates at
    the objective's current LP optimum, in one step of the hull table of
    ``bounds`` for all the objectives of a stack, across the mixed neurons
    below the reach, adds every cut violated beyond ``CUT_VIOLATION_TOL``
    (no cut selection), in position order, and re-solves warm on the
    previous solve's tableau.  Cuts stay scoped to their objective and never
    enter the shared model.  A violated cut cannot already be in the model:
    the LP optimum satisfies every row within ``FEAS_TOL``, far below that
    tolerance.  Monotone nonincreasing in ``rounds``; ``rounds=0`` is the
    plain relaxation value.

    The objectives of one reach go in stacks of at most ``LP_BLOCK``
    tableau entries when at least ``LOCKSTEP_MIN`` of them, and of their
    tableaux in the block, are at hand; otherwise each is a stack of one.
    The first objective of a new model is always a stack of one: its optimum
    is where the others start.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if objective.eta > bounds.net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    reach = objective.reach
    value = np.empty(len(objective))
    for r in np.unique(reach).tolist():
        which = np.flatnonzero(reach == r)
        value[which] = _bound_reach(bounds, objective.select(which), r, rounds)
    return value


def _bound_reach(bounds: Bounds, objective: Objectives, reach: int, rounds: int) -> np.ndarray:
    """:func:`optc2v_bound` of objectives that all have reach ``reach``."""
    dl = bounds.lps.get(reach)
    if dl is None:
        dl = bounds.lps[reach] = build_delta_lp(bounds, reach)
    m = dl.model.n_rows
    size = LP_BLOCK // ((m + 1) * (reach + 1))  # tableaux that fit in the block
    first = int(dl.start is None)  # the first objective makes the start
    rest = len(objective) - first
    if size < LOCKSTEP_MIN or rest < LOCKSTEP_MIN:
        stacks = np.arange(len(objective))[:, None]
    else:
        stacks = np.array_split(np.arange(first, len(objective)), -(-rest // size))
        if first:
            stacks.insert(0, np.arange(1))
    value = np.empty(len(objective))
    for stack in stacks:
        value[stack] = _lockstep_cut_loop(bounds, dl, objective.select(stack), reach, rounds)
    return value


def _lockstep_cut_loop(bounds: Bounds, dl: DeltaLp, objective: Objectives, reach: int,
                       rounds: int) -> np.ndarray:
    """The cut loops of a stack of objectives of reach ``reach``, solved
    together from the shared relaxation's start, or cold when it has none
    yet, which then becomes its start.  Each objective's cuts border its own
    tableau only.  An objective whose optimum violates no cut is done."""
    batch = Lockstep(dl.model, objective.coeffs[:, :reach], objective.constant, start=dl.start)
    sol = _optimal(batch.solve(), "base relaxation")
    if dl.start is None:
        dl.start = batch.select(np.arange(1))
    value = sol.objective_value
    live = np.arange(len(objective))
    table = bounds.table
    pos = table.pos[:table.rows_below(reach)]
    for _ in range(rounds):
        z = sol.x
        found = table.separate(z, z[:, pos], CUT_VIOLATION_TOL)
        if not len(found):
            break
        cutting = np.unique(found.point)
        if cutting.size < len(batch):
            batch, live = batch.select(cutting), live[cutting]
        # cuts are valid for every network point, so an infeasible
        # re-solve means tolerances bit us, not the model
        batch.append_rows(np.searchsorted(cutting, found.point),
                          _cut_rows(table, found, reach), found.constant)
        sol = _optimal(batch.solve(), "after adding cuts")
        value[live] = sol.objective_value
    return value


def _cut_rows(table: HullTable, found: Separations, reach: int) -> np.ndarray:
    """The cuts of ``found`` as dense rows over the positions below
    ``reach``: pair ``e``, of table row ``i = found.row[e]``, gives the row
    ``z[table.pos[i]] - found.coeffs[e] . z[table.support[i]]``, to be kept
    at or below ``found.constant[e]``."""
    e, col = np.nonzero(found.low)
    e, col = np.concatenate([e, np.arange(len(found))]), np.concatenate([col, found.anchor])
    rows = np.zeros((len(found), reach))
    rows[e, table.support[found.row[e], col]] = -found.coeffs[e, col]
    rows[np.arange(len(found)), table.pos[found.row]] = 1.0
    return rows


def _optimal(sol: LpBatchSolution, context: str) -> LpBatchSolution:
    """``sol``, unless a member ended in a non-optimal status."""
    for status in sol.status:
        if status != LpStatus.OPTIMAL:
            raise LpBoundError(status, context)
    return sol
