"""LP relaxations of ReLU networks and the cutting-plane bound loop.

The base model relaxes every mixed ReLU neuron with the three-inequality
chord relaxation of its pre-activation interval.  It is presolved: its
variables are the inputs and the mixed neurons only.  Pre-activations are
substituted out, and so are the exact neurons: an always-inactive one is 0
and an always-active one its row, composed level by level over the
variables, with its interval kept as one ranged row unless the variable
boxes already imply it.  The model's map
writes every position as an affine function of the variables, and
objectives, optima and cuts, which live over positions, go through it
(presolve as in Andersen & Andersen, "Presolving in linear programming",
1995).  A model spans only the positions below its objective's reach, since
no later neuron can move the objective.  All the objectives of one reach
(the rows of a level, both signs, or the margins) share one model, kept in
the sweep's :class:`relucert.propagation.Bounds` with the solved tableau of
the first objective bounded over it, from which every later one starts.
The cutting-plane loop then separates the single-neuron hull inequalities at
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
from .simplex import Lockstep, LpBatchSolution, LpModel, LpStatus

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
    """A built relaxation model over the inputs and the mixed neurons below
    its reach, in position order, and the affine map that writes every
    position below the reach in the model's variables: ``z = x @ lin.T +
    const`` for a variable vector ``x``.

    ``start`` is the solved stack of one of the first objective bounded over
    it, taken before its first cut; every later objective starts from it.
    """

    model: LpModel
    lin: np.ndarray  # (reach, n_vars)
    const: np.ndarray  # (reach,)
    start: Lockstep | None = None

    def objectives(self, coeffs, constant) -> tuple[np.ndarray, np.ndarray]:
        """The objectives ``coeffs . z + constant`` over positions, a batch
        along axis 0, as ``(coeffs, constant)`` over the variables; no
        coefficient may lie past the reach."""
        reach, coeffs = self.lin.shape[0], np.atleast_2d(coeffs)
        if np.any(coeffs[:, reach:]):
            raise ValueError(f"objective reaches past the model's {reach} positions")
        return coeffs[:, :reach] @ self.lin, constant + coeffs[:, :reach] @ self.const

    def set_objective(self, coeffs, constant):
        """Maximize ``coeffs . z + constant``, over positions."""
        c, k = self.objectives(coeffs, constant)
        self.model.obj, self.model.obj_constant = c[0].tolist(), float(k[0])

    def points(self, x) -> np.ndarray:
        """The positions below the reach at each variable vector of ``x``."""
        return x @ self.lin.T + self.const

    def rows(self, coeffs, rhs) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``coeffs . z <= rhs`` over positions as rows over the
        variables."""
        return coeffs @ self.lin, rhs - coeffs @ self.const


def build_delta_lp(bounds: Bounds, reach: int) -> DeltaLp:
    """Relaxation LP over the positions below ``reach``, with no objective.

    Only the inputs and the mixed neurons are variables, each with its
    post-activation box from ``bounds``: the input box, or ``[0, hi]``.  The
    other neurons are exact and leave the model.  Level by level, one
    product of the level's weights with the map of its sources, ``W @
    lin[src]``, writes each row's pre-activation ``pre`` over the variables;
    an always-inactive neuron maps to 0 and an always-active one to its
    ``pre``.  A mixed neuron ``v`` contributes ``z_v >= pre`` and the
    chord ``z_v <= s (pre - lo)``, ``s = hi / (hi - lo)`` (nonnegativity rides
    on its box); an always-active one its box, as the ranged row ``lo <= pre
    <= hi``, unless its interval over the variable boxes lies in that range
    up to rounding: a row left out only widens the relaxation.  Rows go in
    position order.  Neurons from the reach on cannot move an objective of
    that reach, so they are left out.  Raises ``ArithmeticError`` when a
    scalar bound is NaN, or a box, the map or a row is not finite.
    """
    net = bounds.net
    if reach > net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    # NaN until the sweep bounds a neuron, or where an overflow made one
    if np.isnan(bounds.pre_lower[:reach]).any():
        raise ArithmeticError("scalar bounds below the objective are not numbers")
    m = min(net.input_dim, reach)
    lo, hi = bounds.pre_lower[:reach], bounds.pre_upper[:reach]
    state = np.arange(reach) >= m
    mixed, active = state & (lo < 0.0) & (hi > 0.0), state & (lo >= 0.0)
    keep = np.flatnonzero(~state | mixed)
    n = keep.size
    # the map, over every position a level may read; rows of positions past
    # the reach stay zero, and so do the weights of rows below it on them
    lin, const = np.zeros((net.n_state, n)), np.zeros(net.n_state)
    lin[keep, np.arange(n)] = 1.0
    # each neuron's rows start at first[pos]: two when mixed, one when active
    count = 2 * mixed + active
    first = np.cumsum(count) - count
    A = np.zeros((int(count.sum()), n))
    row_lo, row_hi = np.full(len(A), -np.inf), np.full(len(A), np.inf)
    for level in net.levels:
        if level.pos[0] >= reach:
            break
        rows = np.flatnonzero(level.pos < reach)
        pos, w = level.pos[rows], level.weights[rows]
        pre, p = w @ lin[level.src], w @ const[level.src] + level.bias[rows]
        on = active[pos]  # the map takes the row; one ranged row keeps its box
        v, at = pos[on], first[pos[on]]
        lin[v], const[v] = pre[on], p[on]
        A[at], row_lo[at], row_hi[at] = pre[on], lo[v] - p[on], hi[v] - p[on]
        mix = mixed[pos]  # z_v >= pre, then the chord
        v, at, pre, p = pos[mix], first[pos[mix]], pre[mix], p[mix]
        s = hi[v] / (hi[v] - lo[v])
        A[at], row_lo[at] = -pre, p
        A[at + 1], row_hi[at + 1] = -s[:, None] * pre, s * (p - lo[v])
        own = np.searchsorted(keep, v)  # z_v's column; pre does not read it
        A[at, own] = A[at + 1, own] = 1.0
    box_lo, box_hi = bounds.post_lower[keep], bounds.post_upper[keep]
    # every side but the >= row's upper one and the chord's lower one is finite
    ge = first[mixed]
    sides = np.concatenate([np.delete(row_lo, ge + 1), np.delete(row_hi, ge)])
    if not all(np.isfinite(a).all() for a in (box_lo, box_hi, lin, const, A, sides)):
        raise ArithmeticError("relaxation LP has a non-finite box, map or row")
    # an always-active neuron's ranged row leaves when the boxes imply it: its
    # interval over them lies in its range up to the rounding of the sums,
    # gamma_n times the size of their terms (Higham, 2002, section 3.1); a
    # row whose bounds an LP sweep tightened past that interval stays
    at, u = first[active], np.finfo(float).eps / 2
    a, r_lo, r_hi, g = A[at], row_lo[at], row_hi[at], n * u / (1.0 - n * u)
    # each term scaled by gamma_n before the sum, which then cannot overflow
    slack = (g * np.abs(a)) @ np.maximum(-box_lo, box_hi) + g * np.abs(r_lo) + g * np.abs(r_hi)
    to_lo, to_hi = a * box_lo, a * box_hi
    implied = (np.minimum(to_lo, to_hi).sum(axis=1) >= r_lo - slack) \
        & (np.maximum(to_lo, to_hi).sum(axis=1) <= r_hi + slack)
    model = LpModel()
    for j, pos in enumerate(keep.tolist()):
        model.add_variable(box_lo[j], box_hi[j], name=f"z{pos}")
    model.add_rows(*(np.delete(x, at[implied], axis=0) for x in (A, row_lo, row_hi)))
    return DeltaLp(model=model, lin=lin[:reach], const=const[:reach])


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
    is where the others start.  A value that is not finite, or an overflow
    on the way, raises an ``ArithmeticError``.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if objective.eta > bounds.net.n_state:
        raise ValueError("objective must live over inputs and ReLU neurons only")
    reach = objective.reach
    value = np.empty(len(objective))
    # an overflow in a solve would leave NaN in a tableau, where no pivot
    # rule can act on it: it raises FloatingPointError, an ArithmeticError
    with np.errstate(over="raise", invalid="raise"):
        for r in np.unique(reach).tolist():
            which = np.flatnonzero(reach == r)
            value[which] = _bound_reach(bounds, objective.select(which), r, rounds)
    return value


def _bound_reach(bounds: Bounds, objective: Objectives, reach: int, rounds: int) -> np.ndarray:
    """:func:`optc2v_bound` of objectives that all have reach ``reach``."""
    dl = bounds.lps.get(reach)
    if dl is None:
        dl = bounds.lps[reach] = build_delta_lp(bounds, reach)
    size = LP_BLOCK // ((dl.model.n_rows + 1) * (dl.model.n_vars + 1))  # tableaux in the block
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
    batch = Lockstep(dl.model, *dl.objectives(objective.coeffs, objective.constant),
                     start=dl.start)
    sol = _optimal(batch.solve(), "base relaxation")
    if dl.start is None:
        dl.start = batch.select(np.arange(1))
    value = sol.objective_value
    live = np.arange(len(objective))
    table = bounds.table
    pos = table.pos[:table.rows_below(reach)]
    for _ in range(rounds):
        z = dl.points(sol.x)
        found = table.separate(z, z[:, pos], CUT_VIOLATION_TOL)
        if not len(found):
            break
        cutting = np.unique(found.point)
        if cutting.size < len(batch):
            batch, live = batch.select(cutting), live[cutting]
        # cuts are valid for every network point, so an infeasible
        # re-solve means tolerances bit us, not the model
        batch.append_rows(np.searchsorted(cutting, found.point),
                          *dl.rows(_cut_rows(table, found, reach), found.constant))
        sol = _optimal(batch.solve(), "after adding cuts")
        value[live] = sol.objective_value
    return value


def _cut_rows(table: HullTable, found: Separations, reach: int) -> np.ndarray:
    """The cuts of ``found`` as dense rows over the positions below
    ``reach``: pair ``e``, of table row ``i = found.row[e]``, gives the row
    ``z[table.pos[i]] - found.coeffs[e] . z[table.support[i, :width]]``
    over the columns ``found`` separated, to be kept at or below
    ``found.constant[e]``."""
    e, col = np.nonzero(found.low)
    e, col = np.concatenate([e, np.arange(len(found))]), np.concatenate([col, found.anchor])
    rows = np.zeros((len(found), reach))
    rows[e, table.support[found.row[e], col]] = -found.coeffs[e, col]
    rows[np.arange(len(found)), table.pos[found.row]] = 1.0
    return rows


def _optimal(sol: LpBatchSolution, context: str) -> LpBatchSolution:
    """``sol``, unless a member ended in a non-optimal status, or with a
    value that is not finite."""
    for status in sol.status:
        if status != LpStatus.OPTIMAL:
            raise LpBoundError(status, context)
    if not np.isfinite(sol.objective_value).all():
        raise ArithmeticError(f"{context}: LP value is not finite")
    return sol
