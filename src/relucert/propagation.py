"""Bound propagation for ReLU networks, with dynamic hull-cut tightening.

The generic engine bounds an affine objective over the relaxation in which
every ReLU neuron is sandwiched between one affine lower and one affine
upper function of its predecessors.  The functions are kept in the level
form of CROWN (Zhang et al. 2018) and auto_LiRPA (Xu et al. 2020): per
level of :attr:`relucert.network.Network.levels`, one dense lower and one
dense upper coefficient matrix over the level's source columns, with their
bias vectors (:class:`BoundingFunctions`).  A backward pass substitutes one
whole level per numpy step, highest first (upper function where the running
coefficient is positive, lower where negative) until only inputs remain,
then maximizes the final affine expression over the input box in closed
form.  A forward pass replays the recorded choices level by level to recover
a full optimal point of the relaxation.  The iterative scheme computes, at
that point, the hull envelopes of all reachable mixed neurons in one step of
the hull table (:class:`relucert.hull.HullTable`) and swaps the violated
upper inequalities into a copy of the upper matrices.

The forward sweep of every method lives here too: :func:`compute_all_bounds`
fixes each ReLU neuron's bounds in topological order, asking either this
module's tightened backward pass or the LP cut loop of
:mod:`relucert.relaxation` to bound each row, and returns one
:class:`Bounds`, which bounds the output rows only when asked.

Everything here indexes neurons by 0-based position; objectives live over
the state space (inputs + ReLU neurons, outputs elided into coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import hull
from .network import BoxDomain, Network

INTERVAL = "interval"
FASTLIN = "fastlin"
DEEPPOLY = "deeppoly"
FASTC2V = "fastc2v"
LP = "lp"
OPTC2V = "optc2v"

METHODS = (INTERVAL, FASTLIN, DEEPPOLY, FASTC2V, LP, OPTC2V)

DEFAULT_CUT_ROUNDS = 3

# A hull inequality replaces an upper function only when violated by more.
SWAP_VIOLATION_TOL = 1e-9

# the bounding-function menu each propagation method draws its functions from
_MENUS = {FASTLIN: FASTLIN, DEEPPOLY: DEEPPOLY, FASTC2V: DEEPPOLY}


@dataclass(frozen=True)
class ScalarBounds:
    """Pre-activation interval ``[pre_lower, pre_upper]`` for one neuron."""

    pre_lower: float
    pre_upper: float

    def is_mixed(self) -> bool:
        return self.pre_lower < 0.0 < self.pre_upper


@dataclass(eq=False)
class LinearExpr:
    """Dense affine objective over neuron positions ``0 .. eta-1``."""

    coeffs: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    @property
    def eta(self) -> int:
        return self.coeffs.shape[0]

    @property
    def reach(self) -> int:
        """One past the last position with a nonzero coefficient: no neuron
        from there on can move the objective's bound."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) + 1 if nz.size else 0

    def negated(self) -> "LinearExpr":
        return LinearExpr(-self.coeffs, -self.constant)

    def value(self, z) -> float:
        return float(self.coeffs @ np.asarray(z)[:self.eta]) + self.constant


def expr_from_row(idx, w, b, eta) -> LinearExpr:
    c = np.zeros(eta)
    c[idx] = w
    return LinearExpr(c, float(b))


@dataclass(eq=False)
class BackwardResult:
    bound: float
    x_star: np.ndarray
    ub_used: np.ndarray  # bool per position < eta; False where never substituted
    input_expr: LinearExpr  # residual expression over inputs only


def box_maximize(expr: LinearExpr, box: BoxDomain) -> tuple[float, np.ndarray]:
    """Maximize an input-space affine expression over the box.

    Per coordinate: upper bound when the coefficient is positive, lower when
    negative, midpoint when exactly zero (keeps the returned point centered
    and deterministic).
    """
    m = len(box)
    if expr.eta > m and np.any(expr.coeffs[m:] != 0.0):
        raise ValueError("expression references non-input neurons")
    c = expr.coeffs[:m]
    x = np.where(c > 0.0, box.upper, np.where(c < 0.0, box.lower, box.midpoint()))
    return float(c @ x) + expr.constant, x


def initial_scales(method, sb: ScalarBounds) -> tuple[float, float, float]:
    """Menu of initial bounding functions for one ReLU neuron, as
    ``(lower_scale, upper_scale, upper_shift)``: the lower function is
    ``lower_scale * row`` and the upper ``upper_scale * row + upper_shift``.

    Fixed-sign neurons are linearized exactly (the row itself, or zero).  A
    mixed neuron gets the chord of the ReLU over ``[pre_lower, pre_upper]``
    as its upper function; the lower function is the scaled row for
    ``fastlin``, and for ``deeppoly`` whichever of 0 and the row gives the
    smaller relaxation area.
    """
    if method not in (FASTLIN, DEEPPOLY):
        raise ValueError(f"no bounding-function menu for method {method!r}")
    lo, hi = sb.pre_lower, sb.pre_upper
    if lo >= 0.0:
        return 1.0, 1.0, 0.0
    if hi <= 0.0:
        return 0.0, 0.0, 0.0
    slope = hi / (hi - lo)
    if method == FASTLIN:
        lower = slope
    else:  # deeppoly: zero when the negative side dominates, else the row
        lower = 0.0 if abs(lo) >= abs(hi) else 1.0
    return lower, slope, -slope * lo


@dataclass(eq=False)
class BoundingFunctions:
    """Affine lower and upper functions of the ReLU neurons, level by level.

    For level ``l`` of ``net.levels``, row ``i`` of ``lower[l]`` and
    ``lower_b[l][i]`` give neuron ``levels[l].pos[i]``'s lower function
    over the level's source columns ``levels[l].src``, and ``upper[l]``,
    ``upper_b[l]`` its upper function.  ``fixed`` marks the state positions
    whose functions are set; the rest stay zero.
    """

    net: Network
    box: BoxDomain
    lower: list[np.ndarray]
    lower_b: list[np.ndarray]
    upper: list[np.ndarray]
    upper_b: list[np.ndarray]
    fixed: np.ndarray

    @classmethod
    def empty(cls, net: Network, box: BoxDomain) -> "BoundingFunctions":
        """No neuron's functions set yet; every matrix is zero."""
        shapes = [lv.weights.shape for lv in net.levels]
        return cls(net=net, box=box,
                   lower=[np.zeros(s) for s in shapes], lower_b=[np.zeros(s[0]) for s in shapes],
                   upper=[np.zeros(s) for s in shapes], upper_b=[np.zeros(s[0]) for s in shapes],
                   fixed=np.zeros(net.n_state, dtype=bool))

    def set_initial(self, pos: int, method: str, sb: ScalarBounds):
        """Set neuron ``pos``'s functions from the method's menu for ``sb``."""
        lo_scale, up_scale, up_shift = initial_scales(method, sb)
        lv, i = self.net.level_of[pos] - 1, self.net.level_row[pos]
        level = self.net.levels[lv]
        w, b = level.weights[i], level.bias[i]
        self.lower[lv][i], self.lower_b[lv][i] = lo_scale * w, lo_scale * b
        self.upper[lv][i], self.upper_b[lv][i] = up_scale * w, up_scale * b + up_shift
        self.fixed[pos] = True

    def with_own_upper(self) -> "BoundingFunctions":
        """A copy whose upper functions can be overwritten; shares the rest."""
        return replace(self, upper=[u.copy() for u in self.upper],
                       upper_b=[u.copy() for u in self.upper_b])

    def set_upper(self, pos: int, idx, w, b: float):
        """Replace neuron ``pos``'s upper function by ``w . z[idx] + b``;
        ``idx`` must be among the sources of its level."""
        lv, i = self.net.level_of[pos] - 1, self.net.level_row[pos]
        row = self.upper[lv][i]
        row[:] = 0.0
        row[np.searchsorted(self.net.levels[lv].src, idx)] = w
        self.upper_b[lv][i] = b


def backward_pass(funcs: BoundingFunctions, objective: LinearExpr) -> BackwardResult:
    """Eliminate the ReLU neurons from the objective, highest level first.

    A whole level is substituted in one step: its neurons' upper functions
    where their running coefficient is positive, lower where negative.
    Raises ``ValueError`` naming the position of a neuron that receives a
    coefficient but has no functions.
    """
    net = funcs.net
    m = net.input_dim
    c = np.zeros(net.n_state)
    c[:objective.eta] = objective.coeffs
    const = objective.constant
    ub_used = np.zeros(net.n_state, dtype=bool)
    for lv in range(len(net.levels) - 1, -1, -1):
        level = net.levels[lv]
        cl = c[level.pos]
        if not cl.any():
            continue
        fixed = funcs.fixed[level.pos]
        if not fixed.all() and np.any(missing := (cl != 0.0) & ~fixed):
            raise ValueError(f"neuron position {level.pos[np.argmax(missing)]} has a "
                             "coefficient but no bounding functions")
        cp, cn = np.maximum(cl, 0.0), np.minimum(cl, 0.0)
        c[level.src] += cp @ funcs.upper[lv] + cn @ funcs.lower[lv]
        const += float(cp @ funcs.upper_b[lv] + cn @ funcs.lower_b[lv])
        ub_used[level.pos] = cl > 0.0
        c[level.pos] = 0.0
    residual = LinearExpr(c[:m].copy(), const)
    bound, x_star = box_maximize(residual, funcs.box)
    return BackwardResult(bound=bound, x_star=x_star, ub_used=ub_used, input_expr=residual)


def forward_pass(funcs: BoundingFunctions, x_star, ub_used, eta) -> np.ndarray:
    """Complete an input point to a relaxation point over positions ``< eta``.

    Level by level, each neuron takes the value of whichever bounding
    function the backward pass used for it (lower when it was never
    substituted); the result is an optimal solution of the relaxed problem
    the backward pass solved.
    """
    net = funcs.net
    z = np.zeros(net.n_state)
    z[:net.input_dim] = x_star
    for lv, level in enumerate(net.levels):
        if level.pos[0] >= eta:
            break
        zs = z[level.src]
        z[level.pos] = np.where(ub_used[level.pos], funcs.upper[lv] @ zs + funcs.upper_b[lv],
                                funcs.lower[lv] @ zs + funcs.lower_b[lv])
    return z[:eta]


def _interval_step(idx, w, b, post_lo, post_hi):
    if idx.size == 0:
        return b, b
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    lo = float(wp @ post_lo[idx] + wn @ post_hi[idx]) + b
    hi = float(wp @ post_hi[idx] + wn @ post_lo[idx]) + b
    return lo, hi


def tightened_bound(funcs: BoundingFunctions, objective: LinearExpr, iterations: int,
                    table: hull.HullTable | None = None) -> float:
    """Best bound over ``iterations`` rounds of separate-and-swap.

    Each round recovers the relaxation's optimal point ``z``, computes the
    hull envelope at ``z`` of every mixed neuron in ``table`` the objective
    can reach, swaps in as the neuron's new upper function the most violated
    hull inequality of each one violated by more than
    ``SWAP_VIOLATION_TOL``, and re-runs the backward pass.  ``iterations=0``
    is exactly the initial method.

    A neuron is reachable below the objective's ``reach``: later ones never
    receive a coefficient, so their upper functions cannot move the bound.
    The reachable ones are a prefix of the table.  A violation below the
    tolerance is rounding; swapping on it would let the last bit of ``z``
    choose the bound.

    Swaps are scoped to this call: they overwrite rows of a copy of the
    upper functions, so one objective's swapped inequalities (tighter at its
    own optimum, possibly looser elsewhere) never leak into other bound
    computations.  This keeps every result at or below the plain
    initial-method bound.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    res = backward_pass(funcs, objective)
    best = res.bound
    k = table.rows_below(objective.reach) if table is not None else 0
    if k == 0:
        return best
    pos = table.pos[:k]
    work = funcs
    for _ in range(iterations):
        z = forward_pass(work, res.x_star, res.ub_used, pos[-1] + 1)
        found = table.separate(z, z[pos], SWAP_VIOLATION_TOL)
        if not found:
            break
        if work is funcs:
            work = funcs.with_own_upper()
        for row, sep in found:
            work.set_upper(pos[row], sep.cut.idx, sep.cut.coeffs, sep.cut.constant)
        res = backward_pass(work, objective)
        if res.bound < best:
            best = res.bound
    return best


@dataclass(eq=False)
class Bounds:
    """Every ReLU neuron's bounds from one sweep, and what bounds new objectives.

    ``pre`` has one pre-activation interval per input and ReLU neuron
    (inputs report the box); :meth:`output_bounds` bounds the output rows
    on request.  ``post_lower``/``post_upper`` are the post-activation boxes
    of the inputs and ReLU neurons.  Propagation methods keep their initial
    bounding functions in ``funcs``, the tightening methods (``fastc2v``,
    ``optc2v``) the hull instances of their mixed neurons over state
    positions in ``table``, and ``fastc2v`` the ``deeppoly`` run it never
    reports worse than.  The LP methods keep in ``lps`` one solved
    relaxation (:class:`relucert.relaxation.DeltaLp`) per objective reach,
    which every later objective of that reach re-solves warm; so a
    ``Bounds`` is not to be shared between threads.
    """

    method: str
    pre: list[ScalarBounds]
    post_lower: np.ndarray
    post_upper: np.ndarray
    net: Network = field(repr=False)
    box: BoxDomain = field(repr=False)
    iterations: int = 0
    cut_rounds: int = 0
    funcs: BoundingFunctions | None = field(default=None, repr=False)
    table: hull.HullTable | None = field(default=None, repr=False)
    baseline: "Bounds | None" = field(default=None, repr=False)
    lps: dict = field(default_factory=dict, repr=False)

    @property
    def hulls(self) -> dict[int, hull.HullInstance]:
        """The hull instances of ``table`` by neuron position."""
        return dict(zip(self.table.pos[:self.table.n].tolist(), self.table.insts))

    def interval_objective_bound(self, objective: LinearExpr) -> float:
        """Interval-arithmetic bound of an objective over the post boxes."""
        c = objective.coeffs
        return float(np.maximum(c, 0.0) @ self.post_upper[:c.shape[0]]
                     + np.minimum(c, 0.0) @ self.post_lower[:c.shape[0]]) + objective.constant

    def relaxed_bound(self, objective: LinearExpr) -> float:
        """Bound from the method's relaxation of the neurons below the
        objective: the backward pass with hull swaps, or the LP with cuts."""
        if self.method in (LP, OPTC2V):
            from . import relaxation  # the LP bounder builds on this module
            return relaxation.optc2v_bound(self, objective, self.cut_rounds)
        return tightened_bound(self.funcs, objective, self.iterations, self.table)

    def row_bounds(self, pos: int) -> ScalarBounds:
        """Pre-activation interval of the row of neuron ``pos``, over the
        neurons before it.

        Interval arithmetic over the post boxes; every row of the
        ``interval`` method, and the LP methods' rows over inputs only, stop
        there.  The others are also bounded from both sides by
        :meth:`relaxed_bound`, and ``fastc2v`` by its baseline's own bound
        of the row, and the results intersected.
        """
        net = self.net
        idx, w, b = net.row(pos)
        lo, hi = _interval_step(idx, w, b, self.post_lower, self.post_upper)
        # an LP over inputs alone just returns the interval bound; the
        # backward pass is one dot product there and may round an ulp
        # tighter, which fastc2v's separation ties can turn into 1e-4
        if self.method != INTERVAL and (self.method in _MENUS or np.any(idx >= net.input_dim)):
            obj = expr_from_row(idx, w, b, eta=min(pos, net.n_state))
            hi = min(hi, self.relaxed_bound(obj))
            lo = max(lo, -self.relaxed_bound(obj.negated()))
            if self.baseline is not None:
                base = self.baseline.pre[pos] if pos < net.n_state \
                    else self.baseline.row_bounds(pos)
                lo = max(lo, base.pre_lower)
                hi = min(hi, base.pre_upper)
            lo = min(lo, hi)  # guard against tolerance-level crossings
        return ScalarBounds(lo, hi)

    def output_bounds(self) -> list[ScalarBounds]:
        """Pre-activation intervals of the output rows, in output order."""
        return [self.row_bounds(pos) for pos in range(self.net.n_state, self.net.n_neurons)]

    def bound_objective(self, objective: LinearExpr) -> float:
        """Bound a state-space objective over every neuron of the network.

        Takes the best of the relaxation's bound and the interval bound,
        mirroring the per-neuron rule of the sweep.
        """
        b = self.interval_objective_bound(objective)
        if self.method != INTERVAL:
            b = min(b, self.relaxed_bound(objective))
        if self.baseline is not None:
            b = min(b, self.baseline.bound_objective(objective))
        return b


def compute_all_bounds(net: Network, box: BoxDomain, method: str, iterations=1,
                       cut_rounds=DEFAULT_CUT_ROUNDS) -> Bounds:
    """Forward sweep bounding every ReLU neuron's pre-activation, in order.

    Each row is bounded by :meth:`Bounds.row_bounds` over the post boxes
    fixed so far.  Fixing a ReLU neuron sets its initial bounding functions
    (propagation methods) and, when it is mixed and the method tightens,
    appends its hull instance, renumbered to state positions, to the hull
    table for use by all later rows.  Hull swaps work on a copy of the upper
    functions, so the stored functions stay the initial ones.  The sweep stops at the last ReLU neuron: output rows
    add no state (the final affine layer is never relaxed), so
    :meth:`Bounds.output_bounds` bounds them only when asked.

    ``fastc2v`` is ``deeppoly`` with ``max(1, iterations)`` rounds of
    separate-and-swap per bound; ``optc2v`` is ``lp`` with ``cut_rounds``
    rounds of hull cuts per LP.  ``fastc2v`` also runs the plain
    ``deeppoly`` sweep and takes the elementwise best of the two chains:
    tighter intermediate bounds do not always give a tighter final menu
    bound (the area rule for the lower function is not monotone in them),
    so without this it could occasionally report a weaker bound than
    ``deeppoly``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    m = net.input_dim
    if len(box) != m:
        raise ValueError("box dimension does not match network input")
    baseline = compute_all_bounds(net, box, DEEPPOLY) if method == FASTC2V else None
    inputs = [ScalarBounds(float(lo), float(hi)) for lo, hi in zip(box.lower, box.upper)]
    bounds = Bounds(method=method, pre=inputs, post_lower=np.empty(net.n_state),
                    post_upper=np.empty(net.n_state), net=net, box=box,
                    iterations=max(1, iterations) if method == FASTC2V else 0,
                    cut_rounds=cut_rounds if method == OPTC2V else 0,
                    funcs=BoundingFunctions.empty(net, box) if method in _MENUS else None,
                    table=hull.HullTable(net.n_hidden, max((lv.src.size for lv in net.levels),
                                                           default=0)),
                    baseline=baseline)
    post_lo, post_hi = bounds.post_lower, bounds.post_upper
    post_lo[:m], post_hi[:m] = box.lower, box.upper
    menu = _MENUS.get(method)
    tightens = method in (FASTC2V, OPTC2V)
    for pos in range(m, net.n_state):
        sb = bounds.row_bounds(pos)
        bounds.pre.append(sb)
        post_lo[pos], post_hi[pos] = max(0.0, sb.pre_lower), max(0.0, sb.pre_upper)
        if menu is not None:
            bounds.funcs.set_initial(pos, menu, sb)
        if tightens and sb.is_mixed():
            idx, w, b = net.row(pos)
            inst = hull.make_hull_instance(w, b, post_lo[idx], post_hi[idx])
            bounds.table.append(pos, replace(inst, support=idx[inst.support]))
    return bounds
