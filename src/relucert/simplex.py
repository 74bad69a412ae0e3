"""Dense bounded-variable simplex solver, dual and primal.

Small, deterministic, dependency-free LP engine for the relaxation models in
this package: every model it sees has at most a few hundred variables and
rows, so a dense tableau ``B^{-1} A``, updated in place at each pivot
together with the basic values and the reduced costs, is both simple and
fast enough.

Conventions: maximize ``c . x`` subject to ``lb <= x <= ub`` and ranged
rows ``lo <= A @ x <= hi``; a ``<=`` row has ``lo = -inf``, a ``>=`` row
``hi = inf`` and an ``=`` row ``lo = hi``.  :class:`LpModel` holds these
arrays, read only, and no objective: every variable is boxed, and each row
gets one slack ``s = rhs - a . x``, boxed to keep the row in its range,
which the model fixes once.  A basis is the list of basic columns and of
nonbasic ones, each nonbasic at its lower or upper bound.
Boxed columns make the slack basis, with each column at the bound its cost
favours, dual feasible, so a cold solve is one dual simplex run from that
slack basis, and a primal pass then polishes.  Anti-cycling: after a streak
of degenerate steps the pivot choice switches to Bland's rule.

:class:`Lockstep` is the one tableau type: the tableaux of ``q`` objectives
over one model, stacked along a leading axis, each the condensed tableau of
the textbook simplex (Chvatal, *Linear Programming*, 1983): only the
nonbasic columns of ``B^{-1} A`` are stored, and a pivot writes the leaving
variable's unit column into the entering one's slot.  A stack reads the
model's arrays as they are and starts from the slack basis, or from a
solved stack of the same model with no rows appended, which a new
objective only reprices.  Rows appended to a solved stack (the
cutting-plane re-solve) border each member's tableau.  While at least
``LOCKSTEP_MIN`` members run, a solve makes one pivot of every running
member per numpy step, since a solve of a few dozen pivots on a few dozen
rows costs more in numpy calls than in arithmetic; the scalar loop then
finishes each member still running, one by one, on views of its tableau,
with its counters kept as Python ints.  A stack of one is simply a stack
below that crossover.  Both kernels pick the same pivots, ties going to the
smallest column.

The reported value is a dual bound (Neumaier & Shcherbina, "Safe bounds in
linear and mixed-integer linear programming", 2004): the row duals of the
final basis, with every column priced at the bound its reduced cost
favours and each slack at the row-activity range the variable box implies.
By weak duality it bounds the LP maximum from above whatever the final
basis, up to the rounding of its own few sums, so it does not rest on the
primal point being exactly feasible, nor on where the solve started.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_STREAK = 40
DEFAULT_MAX_ITER = 20000
# The fewest running members worth a lockstep step: a lockstep pivot costs
# about twice the numpy calls of one scalar pivot and lasts as long as the
# stack's longest solve, so fewer running members go faster one by one.
LOCKSTEP_MIN = 8


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


# the bound a nonbasic column sits at
_AT_LOWER = 1
_AT_UPPER = -1


@dataclass(frozen=True, eq=False)
class LpModel:
    """The rows ``lo <= A @ x <= hi`` over variables boxed to ``lb <= x <=
    ub``, named by ``names``; read-only arrays, validated once.

    Every box is finite and ordered, and every row range ordered with a
    finite side.  Each row's slack ``rhs - a . x`` is fixed here: with
    ``rhs = hi`` its column lies in ``[0, hi - lo]``, or, for a row with no
    upper side, with ``rhs = lo`` in ``(-inf, 0]``; ``col_lb`` and
    ``col_ub`` bound every column, the slacks last.  ``slack_lo`` and
    ``slack_hi`` cut each slack's box to what its row reaches over the
    variable box.
    """

    A: np.ndarray  # (m, n)
    lo: np.ndarray  # (m,)
    hi: np.ndarray
    lb: np.ndarray  # (n,)
    ub: np.ndarray
    names: tuple

    def __post_init__(self):
        A, lo, hi, lb, ub = (np.array(a, dtype=float) for a in
                             (self.A, self.lo, self.hi, self.lb, self.ub))
        object.__setattr__(self, "names", tuple(self.names))
        if A.ndim != 2 or {lo.shape, hi.shape} != {A.shape[:1]} \
                or {lb.shape, ub.shape, (len(self.names),)} != {A.shape[1:]}:
            raise ValueError("model shape mismatch")
        if not (np.isfinite(lb) & np.isfinite(ub) & (lb <= ub)).all():
            raise ValueError("variable bounds must be finite and ordered")
        if not ((lo <= hi) & (np.isfinite(lo) | np.isfinite(hi))).all():
            raise ValueError("row ranges must be ordered, each with a finite side")
        capped = np.isfinite(hi)
        rhs = np.where(capped, hi, lo)
        col_lb = np.concatenate([lb, np.where(capped, 0.0, -np.inf)])
        col_ub = np.concatenate([ub, np.where(capped, hi - lo, 0.0)])
        slack = _slack_range(A, rhs, lb, ub, col_lb[len(lb):], col_ub[len(lb):])
        for name, a in zip(("A", "lo", "hi", "lb", "ub", "rhs", "col_lb", "col_ub", "slack_lo",
                            "slack_hi"), (A, lo, hi, lb, ub, rhs, col_lb, col_ub, *slack)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class LpBatchSolution:
    """The result of :meth:`Lockstep.solve`, one entry per member."""

    status: list  # LpStatus per member
    objective_value: np.ndarray  # from each member's duals: upper bounds
    x: np.ndarray  # (q, n)
    iterations: np.ndarray


# a member's end code indexes _STATUSES; a running member's code is -1
_STATUSES = (LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED, LpStatus.ITERATION_LIMIT)
_RUNNING, _OPTIMAL, _INFEASIBLE, _UNBOUNDED, _LIMIT = range(-1, 4)
_NO_COLUMN = np.iinfo(np.intp).max  # above every column index


def _slack_range(A, rhs, lo, hi, slack_lb, slack_ub):
    """The range of the slack of each row of ``(A, rhs)``: ``[slack_lb,
    slack_ub]`` cut to what the row reaches over the variable box ``[lo, hi]``."""
    at_lo, at_hi = A * lo[..., None, :], A * hi[..., None, :]
    return (np.maximum(slack_lb, rhs - np.maximum(at_lo, at_hi).sum(axis=-1)),
            np.minimum(slack_ub, rhs - np.minimum(at_lo, at_hi).sum(axis=-1)))


class Lockstep:
    """The tableaux of one model under ``q`` objectives, solved together.

    Member ``b`` maximizes ``c[b] . x + constant[b]``.  Its tableau is
    ``tab[b]``, of shape ``(m + 1, n + 1)``: ``B^{-1} A`` at its ``n``
    nonbasic columns, slot ``s`` holding column ``nonbasic[b, s]`` at the
    bound ``status[b, s]``, with ``B^{-1} rhs`` as its last column and the
    reduced costs as its last row, so one rank-1 update pivots all three.
    Each member picks its own pivot with the same tolerances, tie rules and
    its own degenerate streak.  Members start from member 0 of ``start``, a
    solved stack of ``model`` with no rows appended, when it is dual or
    primal feasible for their objective, else from the slack basis.  Any
    other start is ignored.

    :meth:`append_rows` borders each member's tableau with rows of its own,
    adding no column; a member given fewer rows than another gets inert zero
    rows ``0 <= 0`` to fill its block, which no pivot touches.  Each member
    reports the dual bound of its own final basis (the padding adds zeros).
    """

    # per-member state along axis 0, which select() takes; the pivots write
    # only the first nine, which _move() moves
    _STATE = ("tab", "lb_b", "ub_b", "basic", "nonbasic", "status", "xb", "iterations", "degen",
              "lb", "ub", "As", "rhs", "slack_lo", "slack_hi", "c", "constant")
    _PIVOTED = _STATE[:9]

    def __init__(self, model: LpModel, c, constant, start: Lockstep | None = None):
        c = np.atleast_2d(np.asarray(c, dtype=float))
        q, (m, n) = c.shape[0], model.A.shape
        warm = start is not None and start.warm and start.model is model \
            and start.basic.shape[1] == m
        self.model, self.n, self.warm = model, n, warm
        # read only: rows join by append_rows; every member has the same columns
        self.As = np.broadcast_to(model.A, (q, m, n))
        self.lb, self.ub = (np.broadcast_to(a, (q, n + m)) for a in (model.col_lb, model.col_ub))
        self.rhs, self.slack_lo, self.slack_hi = (
            np.tile(a, (q, 1)) for a in (model.rhs, model.slack_lo, model.slack_hi))
        self.c = np.zeros((q, n + m))
        self.c[:, :n] = c
        self.constant = np.broadcast_to(np.asarray(constant, dtype=float), (q,)).copy()
        self.tab = np.zeros((q, m + 1, n + 1))
        if warm:  # the reduced costs are priced by solve()
            self.tab[:, :m] = start.tab[0, :m]
            self.basic, self.nonbasic, self.status = (
                np.tile(a[0], (q, 1)) for a in (start.basic, start.nonbasic, start.status))
        else:  # the first solve starts from the slack basis
            self.basic, self.nonbasic = np.zeros((q, m), np.intp), np.zeros((q, n), np.intp)
            self.status = np.zeros((q, n), dtype=np.int8)
        self.xb, self.lb_b, self.ub_b = np.zeros((q, m)), np.zeros((q, m)), np.zeros((q, m))
        self.iterations, self.degen = np.zeros(q, dtype=np.intp), np.zeros(q, dtype=np.intp)

    def __len__(self) -> int:
        return self.tab.shape[0]

    @property
    def T(self):
        """``B^{-1} A`` at the nonbasic columns of every member, a view."""
        return self.tab[:, :-1, :-1]

    @property
    def trhs(self):
        return self.tab[:, :-1, -1]

    @property
    def d(self):
        """Reduced costs of the nonbasic columns of every member, a view."""
        return self.tab[:, -1, :-1]

    def select(self, which, state=_STATE) -> "Lockstep":
        """The members ``which`` (indices, a mask, or a slice for views), as
        a batch of their own; only the ``state`` arrays are taken."""
        new = copy.copy(self)
        for name in state:
            setattr(new, name, getattr(self, name)[which])
        return new

    def _move(self, to, source):
        """Give the members ``to`` the pivoted state the members ``source`` had."""
        for name in self._PIVOTED:
            a = getattr(self, name)
            a[to] = a[source]

    # ----- basis helpers ---------------------------------------------------

    def _slack_basis(self, which):
        """Slacks basic for the members ``which``, each column at the bound
        its cost favours: dual feasible."""
        m, n = self.basic.shape[1], self.n
        self.tab[which, :m, :-1] = self.As[which]
        self.tab[which, :m, -1] = self.rhs[which]
        self.basic[which] = np.arange(n, n + m)
        self.nonbasic[which] = np.arange(n)
        self.status[which] = np.where(self.c[which, :n] > 0.0, _AT_UPPER, _AT_LOWER)

    def values(self) -> np.ndarray:
        """Full variable vector of every member implied by its basis and
        statuses, ``(q, n + m)``."""
        b, nonbasic = np.arange(len(self))[:, None], self.nonbasic
        xn = np.where(self.status == _AT_LOWER, self.lb[0, nonbasic], self.ub[0, nonbasic])
        x = np.zeros(self.lb.shape)
        x[b, nonbasic] = xn
        x[b, self.basic] = self.trhs - np.einsum("qmk,qk->qm", self.T, xn)
        return x

    def _price(self):
        """Basic values, their bounds and the reduced costs of every
        member's basis; from here on the pivots keep them."""
        b, basic = np.arange(len(self))[:, None], self.basic
        self.xb = self.values()[b, basic]
        self.lb_b, self.ub_b = self.lb[0, basic], self.ub[0, basic]
        self.d[:] = self.c[b, self.nonbasic] - np.einsum("qm,qmk->qk", self.c[b, basic], self.T)

    def _primal_infeasibility(self):
        return np.maximum(np.maximum(self.lb_b - self.xb, 0.0),
                          np.maximum(self.xb - self.ub_b, 0.0))

    def append_rows(self, owner, coeffs, rhs):
        """Give member ``owner[e]`` the row ``coeffs[e] . x <= rhs[e]``.

        ``owner`` is nondecreasing.  Each member's tableau gains its rows
        after its old ones, the new slacks basic; the others get zero rows
        up to the longest block.  The next :meth:`solve` starts warm from
        there.
        """
        owner = np.asarray(owner, dtype=np.intp)
        (q, m), n, width = self.basic.shape, self.n, self.c.shape[1]
        k = int(np.bincount(owner, minlength=q).max(initial=0))
        slot = np.arange(owner.size) - np.searchsorted(owner, owner)
        new = np.zeros((q, k, n + 1))  # a slack's coefficient last: zero
        new[owner, slot, :n] = coeffs
        new_rhs = np.zeros((q, k))
        new_rhs[owner, slot] = rhs
        # row i of the block becomes a_i[N] - a_i[B] T, right-hand side
        # rhs_i - a_i[B] trhs: B^{-1} A for the old basis plus the new slacks
        new_b = np.take_along_axis(new, np.minimum(self.basic, n)[:, None, :], 2)
        tab = np.zeros((q, m + k + 1, n + 1))
        tab[:, :m] = self.tab[:, :m]
        tab[:, m:-1, :-1] = np.take_along_axis(new, np.minimum(self.nonbasic, n)[:, None, :], 2) \
            - np.einsum("qkm,qmj->qkj", new_b, self.T)
        tab[:, m:-1, -1] = new_rhs - np.einsum("qkm,qm->qk", new_b, self.trhs)
        self.tab = tab
        self.basic = np.concatenate([self.basic, np.tile(np.arange(width, width + k), (q, 1))],
                                    axis=1)
        self.As = np.concatenate([self.As, new[:, :, :n]], axis=1)
        self.rhs = np.concatenate([self.rhs, new_rhs], axis=1)
        self.lb = np.broadcast_to(np.concatenate([self.lb[0], np.zeros(k)]), (q, width + k))
        self.ub = np.broadcast_to(np.concatenate([self.ub[0], np.full(k, np.inf)]), (q, width + k))
        slack_lo, slack_hi = _slack_range(new[:, :, :n], new_rhs, self.lb[:, :n], self.ub[:, :n],
                                          0.0, np.inf)
        self.slack_lo = np.concatenate([self.slack_lo, slack_lo], axis=1)
        self.slack_hi = np.concatenate([self.slack_hi, slack_hi], axis=1)
        self.c = np.concatenate([self.c, np.zeros((q, k))], axis=1)
        self.warm = True  # solve() prices the basic values and their bounds

    # ----- the scalar pivots of one member -----------------------------------

    def _pivot(self, v, r, j, settled):
        """Enter the column in slot j of the member whose views are ``v``, on
        row r, the leaving variable taking slot j at its bound ``settled``:
        its unit column goes into the slot, then one rank-1 update of the
        tableau moves ``B^{-1} A``, ``B^{-1} rhs`` and the reduced costs, and
        the basic values follow."""
        tab, xb, lb_b, ub_b, basic, nonbasic, status, lb, ub = v
        entering = nonbasic[j]
        col = tab[:, j].copy()  # with the reduced cost of j last
        piv = col[r]
        # how far the entering variable moves
        step = (xb[r] - (lb_b[r] if settled == _AT_LOWER else ub_b[r])) / piv
        lo, hi = lb[entering], ub[entering]
        xb -= step * col[:-1]
        xb[r] = (lo if status[j] == _AT_LOWER else hi) + step
        lb_b[r], ub_b[r] = lo, hi
        tab[:, j] = 0.0
        tab[r, j] = 1.0
        tab[r] /= piv
        col[r] = 0.0
        tab -= col[:, None] * tab[r]
        basic[r], nonbasic[j] = entering, basic[r]
        status[j] = settled

    def _dual(self, v, max_iter, it, degen):
        """Restore the primal feasibility of the member whose views are
        ``v`` while keeping its dual feasibility, after ``it`` pivots and a
        degenerate streak ``degen``; its end code, pivots and streak."""
        tab, xb, lb_b, ub_b, basic, nonbasic, status = v[:7]
        d = tab[-1, :-1]
        # how far each basic value lies outside its bounds, or minus how far inside
        infeas, above = np.empty(len(xb)), np.empty(len(xb))
        while True:
            if it >= max_iter:
                return _LIMIT, it, degen
            np.subtract(lb_b, xb, out=infeas)
            np.subtract(xb, ub_b, out=above)
            np.maximum(infeas, above, out=infeas)
            if not infeas.size or infeas[r := infeas.argmax()] <= FEAS_TOL:
                return _OPTIMAL, it, degen
            bland = degen >= DEGENERATE_STREAK
            if bland:  # the infeasible basic variable of smallest column index
                rows = (infeas > FEAS_TOL).nonzero()[0]
                r = rows[basic[rows].argmin()]
            below = xb[r] < lb_b[r]
            # the pivot row signed so that an eligible slot has it above PIVOT_TOL
            alpha = tab[r, :-1] * status
            if below:
                np.negative(alpha, out=alpha)
            cand = (alpha > PIVOT_TOL).nonzero()[0]
            if not cand.size:
                return _INFEASIBLE, it, degen
            ratios = np.abs(d[cand]) / alpha[cand]
            least = ratios.min()
            near = cand[ratios <= least + 1e-12]
            if near.size > 1 and not bland:  # the largest pivot
                size = alpha[near]
                near = near[size == size.max()]
            degen = degen + 1 if least <= 1e-12 else 0
            # ties go to the smallest column
            self._pivot(v, r, near[nonbasic[near].argmin()], _AT_LOWER if below else _AT_UPPER)
            it += 1

    def _primal(self, v, max_iter, it, degen):
        """Maximize the objective of the member whose views are ``v`` from
        its primal feasible basis, after ``it`` pivots and a degenerate streak
        ``degen``; its end code, pivots and streak."""
        tab, xb, lb_b, ub_b, basic, nonbasic, status, lb, ub = v
        d = tab[-1, :-1]
        while True:
            if it >= max_iter:
                return _LIMIT, it, degen
            bland = degen >= DEGENERATE_STREAK
            # the reduced cost signed so that an eligible slot has it above OPT_TOL
            gain = d * status
            top = gain.max(initial=0.0)
            if top <= OPT_TOL:
                return _OPTIMAL, it, degen
            cand = (gain > OPT_TOL if bland else gain == top).nonzero()[0]
            j = cand[nonbasic[cand].argmin()]  # ties to the smallest column
            s = int(status[j])  # +1 at its lower bound, so j moves up; -1 down
            # the largest step: row -1 is a flip of j to its opposite bound
            step, row = ub[nonbasic[j]] - lb[nonbasic[j]], -1  # infinite for a slack
            col = tab[:-1, j]
            # only rows whose basic variable moves can limit the step
            rows = (np.abs(col) > PIVOT_TOL).nonzero()[0]
            if rows.size:
                moving = -s * col[rows]
                caps = np.where(moving > 0.0, ub_b[rows], lb_b[rows])
                lims = (caps - xb[rows]) / moving
                np.maximum(lims, 0.0, out=lims)
                least = lims.min()
                if least < step:
                    near = (lims <= least + 1e-12).nonzero()[0]
                    pick = near[basic[rows[near]].argmin()] if bland \
                        else near[np.abs(moving[near]).argmax()]
                    row, step = rows[pick], lims[pick]
            if not math.isfinite(step):
                return _UNBOUNDED, it, degen
            degen = degen + 1 if step <= FEAS_TOL else 0
            if row < 0:  # j flips to its opposite bound
                xb -= s * step * col
                status[j] = -s
                continue
            landed = xb[row] - s * step * col[row]
            lo, hi = lb_b[row], ub_b[row]
            # a slack's infinite side is never nearer than its finite one
            self._pivot(v, row, j, _AT_LOWER if abs(landed - lo) <= abs(landed - hi) else _AT_UPPER)
            it += 1

    # ----- the lockstep pivots of many members --------------------------------

    def _pivot_step(self, go, r, j, value, settled):
        """:meth:`_pivot` of every member in the mask ``go`` on row ``r`` and
        slot ``j``, the leaving variable settling at ``value``, its bound
        ``settled``; the other members are left as they are."""
        b, tab = np.arange(len(self)), self.tab
        every = go.all()
        col = tab[b, :, j]  # with the reduced cost of j last
        piv, xr = col[b, r], self.xb[b, r]
        if not every:
            piv, value = np.where(go, piv, 1.0), np.where(go, value, xr)
            col *= go[:, None]
        step = (xr - value) / piv
        self.xb -= step[:, None] * col[:, :-1]
        g, gr, gj, step, settled = (b, r, j, step, settled) if every else \
            (a[go] for a in (b, r, j, step, settled))
        tab[g, :, gj] = 0.0
        tab[g, gr, gj] = 1.0  # the leaving variable's unit column
        prow = tab[b, r] / piv[:, None]
        tab[b, r] = prow
        col[b, r] = 0.0
        tab -= col[:, :, None] * prow[:, None, :]
        column = self.nonbasic[g, gj]
        lo, hi = self.lb[0, column], self.ub[0, column]
        self.xb[g, gr] = np.where(self.status[g, gj] == _AT_LOWER, lo, hi) + step
        self.lb_b[g, gr], self.ub_b[g, gr] = lo, hi
        self.basic[g, gr], self.nonbasic[g, gj] = column, self.basic[g, gr]
        self.status[g, gj] = settled
        self.iterations += go

    def _end_codes(self, max_iter, *ends):
        """Per member, the code of the first ``(code, mask)`` pair of
        ``ends`` whose mask holds, after the iteration limit; else running."""
        code = np.full(len(self), _RUNNING)
        for value, mask in reversed(((_LIMIT, self.iterations >= max_iter),) + ends):
            code[mask] = value
        return code

    def _dual_step(self, max_iter):
        """One :meth:`_dual` pivot of every member; the members' end codes,
        or None when all go on."""
        q, m = self.basic.shape
        if not m:
            return self._end_codes(max_iter, (_OPTIMAL, np.ones(q, dtype=bool)))
        b, basic, xb, status = np.arange(q), self.basic, self.xb, self.status
        infeas = self._primal_infeasibility()
        r = infeas.argmax(1)
        optimal = infeas[b, r] <= FEAS_TOL
        bland = self.degen >= DEGENERATE_STREAK
        if bland.any():  # the infeasible basic variable of smallest column index
            r = np.where(bland, np.where(infeas > FEAS_TOL, basic, _NO_COLUMN).argmin(1), r)
        below = xb[b, r] < self.lb_b[b, r]
        alpha = self.tab[b, r, :-1]
        # alpha signed so that an eligible slot has it above PIVOT_TOL
        elig = alpha * (status * np.where(below, -1, 1)[:, None]) > PIVOT_TOL
        size = np.abs(alpha)
        ratios = np.full(alpha.shape, np.inf)
        np.divide(np.abs(self.d), size, out=ratios, where=elig)
        least = ratios.min(1)
        near = ratios <= (least + 1e-12)[:, None]
        # the largest pivot of the nearest, or under Bland's rule any of
        # them; ties go to the smallest column
        size = np.where(near, size, -1.0)
        pick = np.where(bland[:, None], near, size == size.max(1)[:, None])
        j = np.where(pick, self.nonbasic, _NO_COLUMN).argmin(1)
        go = ~optimal & (least < np.inf) & (self.iterations < max_iter)
        code = None if go.all() else \
            self._end_codes(max_iter, (_OPTIMAL, optimal), (_INFEASIBLE, least == np.inf))
        if go.any():
            self.degen[go] = np.where(least <= 1e-12, self.degen + 1, 0)[go]
            self._pivot_step(go, r, j, np.where(below, self.lb_b[b, r], self.ub_b[b, r]),
                             np.where(below, _AT_LOWER, _AT_UPPER))
        return code

    def _primal_step(self, max_iter):
        """One :meth:`_primal` pivot or bound flip of every member; the
        members' end codes, or None when all go on."""
        q, m = self.basic.shape
        b, basic, xb, status = np.arange(q), self.basic, self.xb, self.status
        if not status.shape[1]:
            return self._end_codes(max_iter, (_OPTIMAL, np.ones(q, dtype=bool)))
        # the reduced cost signed so that an eligible slot has it above OPT_TOL
        gain = self.d * status
        top = gain.max(1)
        optimal = top <= OPT_TOL
        bland = self.degen >= DEGENERATE_STREAK
        pick = np.where(bland[:, None], gain > OPT_TOL, gain == top[:, None])
        j = np.where(pick, self.nonbasic, _NO_COLUMN).argmin(1)  # ties to the smallest column
        s = status[b, j]  # +1 at its lower bound, so j moves up; -1 down
        # the ratio test of _primal, every member at once: row -1 is a bound flip
        column = self.nonbasic[b, j]
        best, row = self.ub[0, column] - self.lb[0, column], np.full(q, -1)
        col = self.tab[b, :-1, j]
        if m:
            delta = -s[:, None] * col
            size = np.abs(delta)
            caps = np.where(delta > 0.0, self.ub_b, self.lb_b)
            lims = np.full((q, m), np.inf)
            np.divide(caps - xb, delta, out=lims, where=size > PIVOT_TOL)
            np.maximum(lims, 0.0, out=lims)
            least = lims.min(1)
            near = lims <= (least + 1e-12)[:, None]
            pick = np.where(near, size, -1.0).argmax(1)
            if bland.any():
                pick = np.where(bland, np.where(near, basic, _NO_COLUMN).argmin(1), pick)
            limited = least < best
            row = np.where(limited, pick, row)
            best = np.where(limited, lims[b, pick], best)
        on = ~optimal & np.isfinite(best) & (self.iterations < max_iter)
        code = None if on.all() else \
            self._end_codes(max_iter, (_OPTIMAL, optimal), (_UNBOUNDED, ~np.isfinite(best)))
        step = np.where(on, best, 0.0)
        self.degen[on] = np.where(step <= FEAS_TOL, self.degen + 1, 0)[on]
        flip = on & (row < 0)
        if flip.any():  # j moves to its opposite bound
            self.xb -= (s * step * flip)[:, None] * col
            self.status[b[flip], j[flip]] = -s[flip]
        go = on & (row >= 0)
        if go.any():
            r = np.maximum(row, 0)
            landed = xb[b, r] - s * step * self.tab[b, r, j]
            lo, hi = self.lb_b[b, r], self.ub_b[b, r]
            # a slack's infinite side is never nearer than its finite one
            low = np.abs(landed - lo) <= np.abs(landed - hi)
            self._pivot_step(go, r, j, np.where(low, lo, hi), np.where(low, _AT_LOWER, _AT_UPPER))
        return code

    def _run(self, step, scalar, live, max_iter, code):
        """Take the members in the mask ``live`` through the lockstep
        ``step`` while at least ``LOCKSTEP_MIN`` of them run, then each one
        still running through the ``scalar`` loop, writing their end codes
        into ``code``.  The steps see views of the leading members: one that
        ends swaps places with a running one behind, and all go back to their
        places at the end."""
        order, out = np.arange(len(self)), ~live
        while (k := len(out) - int(out.sum())) >= LOCKSTEP_MIN:  # running
            ended, behind = np.flatnonzero(out[:k]), np.flatnonzero(~out[k:]) + k
            if ended.size:
                self._move(np.concatenate([ended, behind]), np.concatenate([behind, ended]))
                order[ended], order[behind] = order[behind], order[ended]
            work = self if k == len(self) else self.select(slice(k), self._PIVOTED)
            while (end := step(work, max_iter)) is None:
                pass
            out = end != _RUNNING
            code[order[:k][out]] = end[out]
        for b in np.flatnonzero(~out).tolist():  # member b's views
            v = tuple(a[b] for a in (self.tab, self.xb, self.lb_b, self.ub_b, self.basic,
                                     self.nonbasic, self.status, self.lb, self.ub))
            code[order[b]], self.iterations[b], self.degen[b] = scalar(
                self, v, max_iter, int(self.iterations[b]), int(self.degen[b]))
        moved = np.flatnonzero(order != np.arange(len(self)))
        if moved.size:
            self._move(order[moved], moved)

    # ----- driver ------------------------------------------------------------

    def solve(self, max_iter: int = DEFAULT_MAX_ITER) -> LpBatchSolution:
        """Solve every member: from its current basis when that is dual
        feasible for its objective (the dual simplex keeps that) or primal
        feasible (the primal simplex keeps that), else from the slack basis;
        the dual simplex runs first, at once done when primal feasible, then
        the primal one.  Each runs its lockstep steps while at least
        ``LOCKSTEP_MIN`` members run, and the scalar :meth:`_dual` or
        :meth:`_primal` for each member still running after that."""
        q = len(self)
        self.iterations[:] = 0
        self.degen[:] = 0
        cold = np.ones(q, dtype=bool)
        if self.warm:
            self._price()
            cold = ((self.d * self.status > OPT_TOL).any(axis=1)
                    & (self._primal_infeasibility().max(axis=1, initial=0.0) > FEAS_TOL))
        if cold.any():
            self._slack_basis(np.flatnonzero(cold))
            self._price()
        code = np.full(q, _RUNNING)
        self._run(Lockstep._dual_step, Lockstep._dual, np.ones(q, dtype=bool), max_iter, code)
        self._run(Lockstep._primal_step, Lockstep._primal, code == _OPTIMAL, max_iter, code)
        self.warm = True
        x = self.values()[:, :self.n]
        optimal = code == _OPTIMAL
        x[optimal] = np.clip(x[optimal], self.lb[optimal, :self.n], self.ub[optimal, :self.n])
        self._verify(x[optimal], optimal)
        return LpBatchSolution(status=[_STATUSES[k] for k in code],
                               objective_value=self._dual_bound(), x=x,
                               iterations=self.iterations.copy())

    def _dual_bound(self) -> np.ndarray:
        """Upper bound on each member's maximum from its duals ``y = c_B
        B^{-1}``.

        The slack columns of ``B^{-1} A`` hold ``B^{-1}``.  Every column,
        slacks included, is priced at the bound its reduced cost against the
        original rows favours; a slack's range is cut to what its row can
        reach over the variable box (``slack_lo``, ``slack_hi``, fixed with
        the row), so every term is finite.
        """
        n, b = self.n, np.arange(len(self))[:, None]
        cb = self.c[b, self.basic]
        # c_B B^{-1} A at every column (a basic one's: its c_B entry); y at the slacks'
        y = np.empty(self.c.shape)
        y[b, self.nonbasic] = np.einsum("qm,qmk->qk", cb, self.T)
        y[b, self.basic] = cb
        y = y[:, n:]
        d = self.c.copy()
        d[:, :n] -= np.einsum("qm,qmj->qj", y, self.As)
        d[:, n:] -= y
        lo = np.concatenate([self.lb[:, :n], self.slack_lo], axis=1)
        hi = np.concatenate([self.ub[:, :n], self.slack_hi], axis=1)
        return np.einsum("qm,qm->q", y, self.rhs) + np.maximum(d * lo, d * hi).sum(axis=1) \
            + self.constant

    def _verify(self, x, which):
        """Optimal members ``which`` must satisfy all their rows at their
        ``x`` within tolerance."""
        n = self.n
        v = np.einsum("qmj,qj->qm", self.As[which], x)
        rhs = self.rhs[which]
        gap = 1e2 * FEAS_TOL * (1.0 + np.abs(rhs))
        # the slack rhs - v must lie in its box; an infinite side never binds
        bad = (v > rhs - self.lb[which, n:] + gap) | (v < rhs - self.ub[which, n:] - gap)
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise ArithmeticError(f"optimal solution violates row: {float(v[b, i])} vs "
                                  f"{float(rhs[b, i])}")


def write_lp_format(model: LpModel, c, constant, path):
    """Dump ``model``, maximizing ``c . x + constant``, in the conventional
    text LP interchange format; a ranged row goes as its ``>=`` and ``<=``
    halves, and a zero coefficient, of either sign, is left out."""
    def terms(coeffs):
        nz = np.flatnonzero(coeffs != 0.0).tolist()
        return "".join(term(coeffs[j], model.names[j], k == 0) for k, j in enumerate(nz))

    def term(v, name, first):
        sign = "-" if v < 0 else ("" if first else "+")
        return f"{sign} {abs(v):.17g} {name} "

    with open(path, "w") as fh:
        c = np.asarray(c, dtype=float)
        fh.write(f"Maximize\n obj: {terms(c)}")
        if constant != 0.0 or not c.any():
            fh.write(term(constant, "", not c.any()))
        fh.write("\nSubject To\n")
        for i, (a, lo, hi) in enumerate(zip(model.A, model.lo.tolist(), model.hi.tolist())):
            if lo == hi or math.isinf(lo) or math.isinf(hi):
                op, rhs = ("=", hi) if lo == hi else ("<=", hi) if math.isinf(lo) else (">=", lo)
                fh.write(f" r{i}: {terms(a)}{op} {rhs:.17g}\n")
            else:
                fh.write(f" r{i}_lo: {terms(a)}>= {lo:.17g}\n r{i}_hi: {terms(a)}<= {hi:.17g}\n")
        fh.write("Bounds\n")
        for lb, ub, name in zip(model.lb.tolist(), model.ub.tolist(), model.names):
            fh.write(f" {lb:.17g} <= {name} <= {ub:.17g}\n")
        fh.write("End\n")
