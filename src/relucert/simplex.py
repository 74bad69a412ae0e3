"""Dense bounded-variable simplex solver, dual and primal.

Small, deterministic, dependency-free LP engine for the relaxation models in
this package: every model it sees has a few dozen variables and a few
hundred rows, so a dense tableau ``B^{-1} A``, updated in place at each
pivot together with the basic values and the reduced costs, is both simple
and fast enough.

Conventions: maximize ``c . x`` subject to ``lb <= x <= ub`` and rows
``a . x (<=|=|>=) rhs``.  Every variable is boxed: ``add_variable`` refuses
an infinite bound.  Rows get one slack each; a basis is the list of basic
columns plus a status per column (at lower bound, at upper bound, basic).
Boxed columns make the slack basis, with each column at the bound its cost
favours, dual feasible, so a cold solve is one dual simplex run from that
slack basis, and a primal pass then polishes.  The warm handle is the
solved tableau itself, ``LpSolution.basis``.  Handed back with the same
model, it is solved again from its own basis: rows appended to the model
since (the cutting-plane re-solve) border it instead of refactoring the
basis, and a new objective (the next row over the same relaxation) only
reprices it.  The restored basis is kept when it is dual feasible, and the
dual simplex runs, or primal feasible, and the primal simplex runs;
otherwise the solve starts from the slack basis.  Any other handle is
ignored.  :meth:`_Tableau.fork` copies a solved tableau for a copy of its
model, so the two gain rows and are solved apart.  Anti-cycling: after a
streak of degenerate steps the pivot choice switches to Bland's rule.

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
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_STREAK = 40
DEFAULT_MAX_ITER = 20000

LE, GE, EQ = "<=", ">=", "="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


# column status codes
_AT_LOWER = 1
_AT_UPPER = -1
_BASIC = 0


@dataclass(eq=False)
class LpModel:
    """Maximization LP with per-variable bounds and sparse rows."""

    lb: list = field(default_factory=list)
    ub: list = field(default_factory=list)
    obj: list = field(default_factory=list)
    obj_constant: float = 0.0
    rows: list = field(default_factory=list)  # (idx array, coef array, sense, rhs)
    names: list = field(default_factory=list)

    def add_variable(self, lb, ub, obj=0.0, name=None) -> int:
        if not (np.isfinite(lb) and np.isfinite(ub)):
            raise ValueError(f"variable bounds must be finite: [{lb}, {ub}]")
        if lb > ub:
            raise ValueError(f"variable bounds crossed: [{lb}, {ub}]")
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        self.names.append(name if name is not None else f"x{len(self.lb) - 1}")
        return len(self.lb) - 1

    def add_constraint(self, idx, coef, sense, rhs) -> int:
        idx = np.asarray(idx, dtype=np.intp)
        coef = np.asarray(coef, dtype=float)
        if idx.shape != coef.shape or idx.ndim != 1:
            raise ValueError("constraint index/coefficient shape mismatch")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.lb)):
            raise ValueError("constraint references undeclared variable")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        self.rows.append((idx, coef, sense, float(rhs)))
        return len(self.rows) - 1

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    objective_value: float  # from the dual: an upper bound on the LP maximum
    x: np.ndarray
    basis: _Tableau  # the solved tableau: the warm handle of the next solve
    iterations: int


def solve_lp(model: LpModel, warm_basis: _Tableau | None = None,
             max_iter: int = DEFAULT_MAX_ITER) -> LpSolution:
    """Solve to optimality within FEAS_TOL / OPT_TOL; statuses, not raises.

    ``warm_basis`` is the ``basis`` of an earlier solve of ``model``, which
    may have gained rows and a new objective since; that tableau is solved
    again.  Any other handle starts a fresh tableau, which ignores it.
    """
    same = isinstance(warm_basis, _Tableau) and warm_basis.model is model \
        and warm_basis.n_struct == model.n_vars
    return (warm_basis if same else _Tableau(model)).solve(warm_basis, max_iter)


class _Tableau:
    """The dense tableau of one model, kept across its solves."""

    def __init__(self, model: LpModel):
        self.model = model
        self.n_struct = model.n_vars
        self.n_rows = 0
        self.A = np.zeros((0, self.n_struct))
        self.rhs = np.zeros(0)
        self.senses = ()
        self.lb = np.array(model.lb, dtype=float)
        self.ub = np.array(model.ub, dtype=float)

    def fork(self, model: LpModel) -> "_Tableau":
        """This tableau, solved state and all, as the warm handle of
        ``model``: a copy of this tableau's model that may gain rows.  The
        two tableaux are solved apart from here on."""
        tab = copy.copy(self)
        tab.model = model
        tab.T, tab.trhs = self.T.copy(), self.trhs.copy()
        tab.basic, tab.status = self.basic.copy(), self.status.copy()
        return tab

    def _append_rows(self):
        """Encode the model's rows added since the last solve, one slack each."""
        model, n, k = self.model, self.n_struct, self.n_rows
        mr = model.n_rows
        if mr == k:
            return
        A = np.zeros((mr, n + mr))
        A[:k, :n + k] = self.A
        rhs = np.concatenate([self.rhs, np.zeros(mr - k)])
        for i in range(k, mr):
            idx, coef, _, b = model.rows[i]
            A[i, idx] = coef
            A[i, n + i] = 1.0
            rhs[i] = b
        self.senses += tuple(row[2] for row in model.rows[k:])
        # a slack's bounds encode its row's sense: a finite lower bound caps
        # the row activity from above (<=, =), a finite upper one from below
        sense = np.array(self.senses[k:], dtype="U2")
        self.lb = np.concatenate([self.lb, np.where(sense == GE, -np.inf, 0.0)])
        self.ub = np.concatenate([self.ub, np.where(sense == LE, np.inf, 0.0)])
        self.n_rows, self.A, self.rhs = mr, A, rhs

    def _slack_basis(self):
        """Slacks basic, each column at the bound its cost favours: dual feasible."""
        n = self.n_struct
        self.T = self.A.copy()      # B^{-1} A
        self.trhs = self.rhs.copy()  # B^{-1} rhs
        self.basic = np.arange(n, n + self.n_rows, dtype=np.intp)
        self.status = np.full(n + self.n_rows, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(self.c[:n] > 0.0, _AT_UPPER, _AT_LOWER)

    # ----- state helpers -------------------------------------------------

    def values(self):
        """Full variable vector implied by the current basis and statuses."""
        x = np.zeros(self.status.shape[0])
        at_lo = self.status == _AT_LOWER
        at_up = self.status == _AT_UPPER
        x[at_lo] = self.lb[at_lo]
        x[at_up] = self.ub[at_up]
        nz = np.flatnonzero(x)
        x[self.basic] = self.trhs - self.T[:, nz] @ x[nz]
        return x

    def reduced_costs(self):
        cb = self.c[self.basic]
        if not cb.any():
            return self.c.copy()
        return self.c - cb @ self.T

    def _pivot(self, r, j, value):
        """Enter column j on row r, the leaving variable settling at
        ``value``; updates the basic values ``xb`` and the reduced costs
        ``d`` with the tableau."""
        col = self.T[:, j].copy()
        piv = col[r]
        step = (self.xb[r] - value) / piv  # how far x_j moves
        xj = self.lb[j] if self.status[j] == _AT_LOWER else self.ub[j]
        self.xb -= step * col
        self.xb[r] = xj + step
        self.T[r] = self.T[r] / piv
        self.trhs[r] = self.trhs[r] / piv
        col[r] = 0.0
        self.T -= np.outer(col, self.T[r])
        self.trhs -= col * self.trhs[r]
        self.d -= self.d[j] * self.T[r]
        self.basic[r] = j
        self.status[j] = _BASIC
        self.iterations += 1

    def _primal_infeasibility(self):
        lo = np.maximum(self.lb[self.basic] - self.xb, 0.0)
        up = np.maximum(self.xb - self.ub[self.basic], 0.0)
        return np.maximum(lo, up)

    def _dual_feasible(self, d):
        bad = ((self.status == _AT_LOWER) & (d > OPT_TOL)) \
            | ((self.status == _AT_UPPER) & (d < -OPT_TOL))
        return not bad.any()

    def _nearest_bound_status(self, j, value):
        # a slack's infinite side is never nearer than its finite one
        return _AT_LOWER if abs(value - self.lb[j]) <= abs(value - self.ub[j]) else _AT_UPPER

    # ----- primal simplex -------------------------------------------------

    def _primal(self, max_iter):
        """Maximize c from the current primal feasible basis."""
        while True:
            if self.iterations >= max_iter:
                return LpStatus.ITERATION_LIMIT
            bland = self.degen_streak >= DEGENERATE_STREAK
            d = self.d
            elig = ((self.status == _AT_LOWER) & (d > OPT_TOL)) \
                | ((self.status == _AT_UPPER) & (d < -OPT_TOL))
            cand = np.flatnonzero(elig)
            if cand.size == 0:
                return LpStatus.OPTIMAL
            j = int(cand[0]) if bland else int(cand[np.argmax(np.abs(d[cand]))])
            s = 1.0 if self.status[j] == _AT_LOWER else -1.0
            step, row = self._primal_ratio(j, s, bland)
            if step is None:
                return LpStatus.UNBOUNDED
            self.degen_streak = self.degen_streak + 1 if step <= FEAS_TOL else 0
            if row < 0:  # j flips to its opposite bound
                self.xb -= s * step * self.T[:, j]
                self.status[j] = _AT_UPPER if s > 0 else _AT_LOWER
                continue
            leaving = int(self.basic[row])
            landed = self.xb[row] - s * step * self.T[row, j]
            settled = self._nearest_bound_status(leaving, landed)
            self._pivot(row, j, self.lb[leaving] if settled == _AT_LOWER else self.ub[leaving])
            self.status[leaving] = settled

    def _primal_ratio(self, j, s, bland):
        """Largest step for column j moving in direction s.

        Returns ``(step, row)``; ``row == -1`` encodes a flip of j to its
        opposite bound, ``step is None`` means unbounded.
        """
        best, row = self.ub[j] - self.lb[j], -1  # infinite for a slack
        col = self.T[:, j]
        delta = -s * col
        # only rows whose basic variable moves can limit the step
        rows = np.flatnonzero(np.abs(delta) > PIVOT_TOL)
        if rows.size:
            moving, basic = delta[rows], self.basic[rows]
            caps = np.where(moving > 0.0, self.ub[basic], self.lb[basic])
            lims = np.maximum((caps - self.xb[rows]) / moving, 0.0)
            least = lims.min()
            if least < best:
                near = np.flatnonzero(lims <= least + 1e-12)
                if bland:
                    pick = near[np.argmin(basic[near])]
                else:
                    pick = near[np.argmax(np.abs(moving[near]))]
                row, best = int(rows[pick]), lims[pick]
        if not np.isfinite(best):
            return None, -1
        return float(best), row

    # ----- dual simplex ---------------------------------------------------

    def _dual(self, max_iter):
        """Restore primal feasibility while keeping dual feasibility."""
        while True:
            if self.iterations >= max_iter:
                return LpStatus.ITERATION_LIMIT
            infeas = self._primal_infeasibility()
            if infeas.size == 0 or infeas.max() <= FEAS_TOL:
                return LpStatus.OPTIMAL
            bland = self.degen_streak >= DEGENERATE_STREAK
            if bland:  # the infeasible basic variable of smallest column index
                rows = np.flatnonzero(infeas > FEAS_TOL)
                r = int(rows[np.argmin(self.basic[rows])])
            else:
                r = int(np.argmax(infeas))
            leaving = int(self.basic[r])
            below = self.xb[r] < self.lb[leaving]
            alpha = self.T[r]
            d = self.d
            if below:
                elig = ((self.status == _AT_LOWER) & (alpha < -PIVOT_TOL)) \
                    | ((self.status == _AT_UPPER) & (alpha > PIVOT_TOL))
            else:
                elig = ((self.status == _AT_LOWER) & (alpha > PIVOT_TOL)) \
                    | ((self.status == _AT_UPPER) & (alpha < -PIVOT_TOL))
            cand = np.flatnonzero(elig)
            if cand.size == 0:
                return LpStatus.INFEASIBLE
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            near = np.flatnonzero(ratios <= ratios.min() + 1e-12)
            if bland:
                j = int(cand[near[np.argmin(cand[near])]])
            else:
                j = int(cand[near[np.argmax(np.abs(alpha[cand[near]]))]])
            self.degen_streak = self.degen_streak + 1 if ratios.min() <= 1e-12 else 0
            self._pivot(r, j, self.lb[leaving] if below else self.ub[leaving])
            self.status[leaving] = _AT_LOWER if below else _AT_UPPER

    # ----- driver ----------------------------------------------------------

    def solve(self, warm_basis, max_iter):
        n = self.n_struct
        self._append_rows()
        self.c = np.concatenate([self.model.obj, np.zeros(self.n_rows)])
        self.degen_streak = 0
        self.iterations = 0
        warm = warm_basis is not None and self._restore_basis(warm_basis)
        if warm:
            self._price()
        # a restored basis feasible on either side is a start: the dual
        # simplex keeps dual feasibility, the primal one primal feasibility
        if not (warm and (self._dual_feasible(self.d)
                          or self._primal_infeasibility().max(initial=0.0) <= FEAS_TOL)):
            self._slack_basis()
            self._price()
        status = self._dual(max_iter)  # at once when primal feasible
        if status == LpStatus.OPTIMAL:
            status = self._primal(max_iter)
        x = self.values()
        xs = x[:n].copy()
        if status == LpStatus.OPTIMAL:
            np.clip(xs, np.asarray(self.model.lb), np.asarray(self.model.ub), out=xs)
            self._verify(xs)
        return LpSolution(status=status, objective_value=self._dual_bound(), x=xs,
                          basis=self, iterations=self.iterations)

    def _price(self):
        """Basic values and reduced costs of the current basis; from here on
        the pivots keep them."""
        self.xb = self.values()[self.basic]
        self.d = self.reduced_costs()

    def _dual_bound(self):
        """Upper bound on the maximum from the duals ``y = c_B B^{-1}``.

        The slack columns of ``B^{-1} A`` hold ``B^{-1}``.  Every column,
        slacks included, is priced at the bound its reduced cost against the
        original rows favours; a slack's range is cut to what its row can
        reach over the variable box, so every term is finite.
        """
        n = self.n_struct
        y = self.c[self.basic] @ self.T[:, n:]
        d = self.c - y @ self.A
        As, lo, hi = self.A[:, :n], self.lb[:n], self.ub[:n]
        act_lo = np.minimum(As * lo, As * hi).sum(axis=1)
        act_hi = np.maximum(As * lo, As * hi).sum(axis=1)
        lo = np.concatenate([lo, np.maximum(self.lb[n:], self.rhs - act_hi)])
        hi = np.concatenate([hi, np.minimum(self.ub[n:], self.rhs - act_lo)])
        return float(y @ self.rhs + np.maximum(d * lo, d * hi).sum()) + self.model.obj_constant

    def _restore_basis(self, wb) -> bool:
        """Take over ``wb`` when it is this tableau, solved before its model
        gained the rows appended since, if any.

        The solved tableau is bordered: old rows keep their entries, with
        zeros on the new slacks, and each new row ``a_i`` becomes ``a_i -
        a_i[B] T`` with its slack basic (right-hand side ``rhs_i - a_i[B]
        trhs``).  That is ``B^{-1} A`` for the old basis plus the new slacks,
        with no factorization.
        """
        if wb is not self:
            return False
        n, mr, k = self.n_struct, self.n_rows, self.T.shape[0]
        if mr == k:
            return True
        new = self.A[k:]
        new_b = new[:, self.basic]
        T = np.zeros((mr, n + mr))
        T[:k, :n + k] = self.T
        T[k:] = new - new_b @ T[:k]
        self.T = T
        self.trhs = np.concatenate([self.trhs, self.rhs[k:] - new_b @ self.trhs])
        self.basic = np.concatenate([self.basic, np.arange(n + k, n + mr, dtype=np.intp)])
        self.status = np.concatenate([self.status, np.full(mr - k, _BASIC, dtype=np.int8)])
        return True

    def _verify(self, xs):
        """Optimal solutions must satisfy all rows within tolerance."""
        n = self.n_struct
        v = self.A[:, :n] @ xs
        gap = 1e2 * FEAS_TOL * (1.0 + np.abs(self.rhs))
        bad = (np.isfinite(self.lb[n:]) & (v > self.rhs + gap)) \
            | (np.isfinite(self.ub[n:]) & (v < self.rhs - gap))
        if bad.any():
            i = int(np.argmax(bad))
            raise ArithmeticError(
                f"optimal solution violates row: {float(v[i])} {self.senses[i]} "
                f"{float(self.rhs[i])}")


def write_lp_format(model: LpModel, path):
    """Dump a model in the conventional text LP interchange format."""
    def term(c, name, first):
        sign = "-" if c < 0 else ("" if first else "+")
        return f"{sign} {abs(c):.17g} {name} "

    with open(path, "w") as fh:
        fh.write("Maximize\n obj: ")
        first = True
        for j, c in enumerate(model.obj):
            if c != 0.0:
                fh.write(term(c, model.names[j], first))
                first = False
        if first:
            fh.write("0 ")
        fh.write("\nSubject To\n")
        for i, (idx, coef, sense, rhs) in enumerate(model.rows):
            fh.write(f" r{i}: ")
            first = True
            for j, c in zip(idx, coef):
                fh.write(term(c, model.names[int(j)], first))
                first = False
            op = {LE: "<=", GE: ">=", EQ: "="}[sense]
            fh.write(f"{op} {rhs:.17g}\n")
        fh.write("Bounds\n")
        for j in range(model.n_vars):
            fh.write(f" {model.lb[j]:.17g} <= {model.names[j]} <= {model.ub[j]:.17g}\n")
        fh.write("End\n")
