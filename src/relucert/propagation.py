"""Bound propagation for ReLU networks, with dynamic hull-cut tightening.

The generic engine bounds a batch of affine objectives (:class:`Objectives`)
over the relaxation in which every ReLU neuron is sandwiched between one
affine lower and one affine upper function of its predecessors.  The
functions are kept in the level form of CROWN (Zhang et al. 2018) and
auto_LiRPA (Xu et al. 2020): per level of
:attr:`relucert.network.Network.levels`, one dense lower and one dense upper
coefficient matrix over the level's source columns, with their bias vectors
(:class:`BoundingFunctions`).  A backward pass substitutes one whole level
for the whole batch per numpy step, highest first (upper function where an
objective's running coefficient is positive, lower where negative) until
only inputs remain, then maximizes each final affine expression over the
input box in closed form.  A forward pass replays the recorded choices
level by level to recover each objective's optimal point of the relaxation.
The iterative scheme computes, at those points, the hull envelopes of every
objective's reachable mixed neurons in one step of the hull table
(:class:`relucert.hull.HullTable`) and swaps the violated upper inequalities
in for that objective alone (:class:`Swaps`).

The forward sweep of every method lives here too: :func:`compute_all_bounds`
fixes the ReLU neurons' bounds run by run in topological order, asking
either this module's tightened backward pass or the LP cut loop of
:mod:`relucert.relaxation`, one batch per run, to bound the rows, and
returns one :class:`Bounds`, which bounds the output rows only when asked.

Everything here indexes neurons by 0-based position; objectives live over
the state space (inputs + ReLU neurons, outputs elided into coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# Hull swapping runs over groups of objectives whose separation blocks
# (objectives x reachable table rows x the widest block width below them)
# have at most this many entries; it bounds the temporaries, the widened
# index sets and the stored swaps of a group, all kept at that width.
TIGHTEN_BLOCK = 1 << 14

# the bounding-function menu each propagation method draws its functions from
_MENUS = {FASTLIN: FASTLIN, DEEPPOLY: DEEPPOLY, FASTC2V: DEEPPOLY}


@dataclass(eq=False)
class Objectives:
    """A batch of dense affine objectives over neuron positions ``0 .. eta-1``.

    Objective ``j`` is ``coeffs[j] . z[:eta] + constant[j]``; a single
    objective is a batch of one.
    """

    coeffs: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.constant = np.asarray(self.constant, dtype=float)

    @classmethod
    def of(cls, *batches: "Objectives") -> "Objectives":
        """``batches`` one after another, as one batch; they share one ``eta``."""
        return cls(np.concatenate([b.coeffs for b in batches]),
                   np.concatenate([b.constant for b in batches]))

    @classmethod
    def rows(cls, net: Network, start: int, stop: int) -> "Objectives":
        """The rows of the neurons at positions ``start .. stop-1``, then
        their negations, over the positions before ``min(start, n_state)``.

        The rows may read no position from ``start`` on: they are one run of
        a level, or output rows.
        """
        r, eta = stop - start, min(start, net.n_state)
        if start < net.n_state:
            level, i = net.levels[net.level_of[start] - 1], net.level_row[start]
        else:
            level, i = net.output, start - net.n_state
        # a level's columns may name a later run of it, where these rows are 0
        cols = np.flatnonzero(level.src < eta)
        c, b = np.zeros((r, eta)), level.bias[i:i + r]
        c[:, level.src[cols]] = level.weights[i:i + r, cols]
        return cls(np.concatenate([c, -c]), np.concatenate([b, -b]))

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    @property
    def eta(self) -> int:
        return self.coeffs.shape[1]

    @property
    def reach(self) -> np.ndarray:
        """Per objective, one past the last position with a nonzero
        coefficient: no neuron from there on can move its bound."""
        nz = self.coeffs != 0.0
        return np.where(nz.any(axis=1), self.eta - np.argmax(nz[:, ::-1], axis=1), 0)

    def select(self, which) -> "Objectives":
        return Objectives(self.coeffs[which], self.constant[which])


@dataclass(eq=False)
class BackwardResult:
    """One backward pass over a batch, objective by objective along axis 0."""

    bound: np.ndarray
    x_star: np.ndarray
    ub_used: np.ndarray  # bool per position; False where never substituted
    input_expr: Objectives  # residual expressions over inputs only


def box_maximize(expr: Objectives, box: BoxDomain) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each input-space affine expression of a batch over the box.

    Per coordinate: upper bound when the coefficient is positive, lower when
    negative, midpoint when exactly zero (keeps the returned point centered
    and deterministic).
    """
    m = len(box)
    if expr.eta > m and np.any(expr.coeffs[:, m:] != 0.0):
        raise ValueError("expression references non-input neurons")
    c = expr.coeffs[:, :m]
    x = np.where(c > 0.0, box.upper, np.where(c < 0.0, box.lower, box.midpoint()))
    return np.einsum("ij,ij->i", c, x) + expr.constant, x


def initial_scales(method, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Menu of initial bounding functions for ReLU neurons with
    pre-activation bounds ``[lo, hi]`` (arrays, or scalars), as
    ``(lower_scale, upper_scale, upper_shift)``: the lower function is
    ``lower_scale * row`` and the upper ``upper_scale * row + upper_shift``.

    Fixed-sign neurons are linearized exactly (the row itself, or zero).  A
    mixed neuron gets the chord of the ReLU over ``[lo, hi]`` as its upper
    function; the lower function is the scaled row for ``fastlin``, and for
    ``deeppoly`` whichever of 0 and the row gives the smaller relaxation
    area.
    """
    if method not in (FASTLIN, DEEPPOLY):
        raise ValueError(f"no bounding-function menu for method {method!r}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mixed = (lo < 0.0) & (hi > 0.0)
    exact = np.where(lo >= 0.0, 1.0, 0.0)
    slope = hi / np.where(mixed, hi - lo, 1.0)
    if method == FASTLIN:
        lower = slope
    else:  # deeppoly: zero when the negative side dominates, else the row
        lower = np.where(np.abs(lo) >= np.abs(hi), 0.0, 1.0)
    return (np.where(mixed, lower, exact), np.where(mixed, slope, exact),
            np.where(mixed, -slope * lo, 0.0))


@dataclass(eq=False)
class BoundingFunctions:
    """Affine lower and upper functions of the ReLU neurons, level by level.

    For level ``l`` of ``net.levels``, row ``i`` of ``lower[l]`` and
    ``lower_b[l][i]`` give neuron ``levels[l].pos[i]``'s lower function
    over the level's source columns ``levels[l].src``, and ``upper[l]``,
    ``upper_b[l]`` its upper function.  ``fixed`` marks the state positions
    whose functions are set; the rest stay zero.  Every objective shares
    them; hull swaps live apart, in :class:`Swaps`.
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

    def set_initial(self, start: int, method: str, lo, hi):
        """Set the functions of the neurons at positions ``start,
        start+1, ...``, one per entry of ``lo``, from the method's menu for
        their bounds ``[lo, hi]``; the positions must lie in one level."""
        lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
        net = self.net
        lv, i = net.level_of[start] - 1, net.level_row[start]
        level, rows = net.levels[lv], slice(i, i + lo.size)
        if lv < 0 or not np.array_equal(level.pos[rows], np.arange(start, start + lo.size)):
            raise ValueError(f"positions {start}..{start + lo.size - 1} are not one level's")
        lo_scale, up_scale, up_shift = initial_scales(method, lo, hi)
        w, b = level.weights[rows], level.bias[rows]
        self.lower[lv][rows], self.lower_b[lv][rows] = lo_scale[:, None] * w, lo_scale * b
        self.upper[lv][rows], self.upper_b[lv][rows] = up_scale[:, None] * w, up_scale * b + up_shift
        self.fixed[start:start + lo.size] = True


@dataclass(eq=False)
class Swaps:
    """Hull inequalities swapped in as upper functions, each for one
    objective of a batch only.

    Entry ``e`` gives objective ``obj[e]`` the neuron of row ``row[e]`` of
    ``table`` the upper function ``coeffs[e] . z[table.support[row[e]]] +
    constant[e]`` instead of its shared one, ``coeffs`` covering the first
    columns of the table (as many as the widest cut swapped in).  Kept
    apart from the shared functions, they take memory per swap, not per
    objective.
    """

    table: hull.HullTable
    obj: np.ndarray
    row: np.ndarray
    coeffs: np.ndarray
    constant: np.ndarray

    @classmethod
    def none(cls, table: hull.HullTable) -> "Swaps":
        return cls(table, np.empty(0, np.intp), np.empty(0, np.intp), np.empty((0, 0)),
                   np.empty(0))

    def updated(self, found: hull.Separations) -> "Swaps":
        """These swaps with ``found``'s cuts swapped in, each for the
        objective of its point; a new cut replaces the neuron's last one."""
        stale = np.zeros((max(self.obj.max(initial=-1), found.point.max(initial=-1)) + 1,
                          self.table.n), dtype=bool)
        stale[found.point, found.row] = True
        keep = ~stale[self.obj, self.row]
        width = max(self.coeffs.shape[1], found.coeffs.shape[1])
        coeffs = [np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in (self.coeffs[keep],
                                                                        found.coeffs)]
        return Swaps(self.table, np.concatenate([self.obj[keep], found.point]),
                     np.concatenate([self.row[keep], found.row]), np.concatenate(coeffs),
                     np.concatenate([self.constant[keep], found.constant]))

    def select(self, which: np.ndarray) -> "Swaps":
        """The swaps of objectives ``which`` (ascending), renumbered as
        ``Objectives.select(which)`` renumbers them."""
        renumber = np.full(max(self.obj.max(initial=-1), which.max(initial=-1)) + 1, -1)
        renumber[which] = np.arange(which.size)
        new = renumber[self.obj]
        keep = new >= 0
        return Swaps(self.table, new[keep], self.row[keep], self.coeffs[keep],
                     self.constant[keep])

    def in_level(self, net: Network, lv: int):
        """``(obj, level row, coeffs, constant, support)`` of the swaps of
        neurons in level ``lv``, or None."""
        pos = self.table.pos[self.row]
        at = net.level_of[pos] == lv + 1
        if not at.any():
            return None
        return (self.obj[at], net.level_row[pos[at]], self.coeffs[at], self.constant[at],
                self.table.support[self.row[at], :self.coeffs.shape[1]])


def backward_pass(funcs: BoundingFunctions, objective: Objectives,
                  swaps: Swaps | None = None) -> BackwardResult:
    """Eliminate the ReLU neurons from every objective of a batch, highest
    level first.

    A whole level is substituted for the whole batch in one step: its
    neurons' upper functions where an objective's running coefficient is
    positive, lower where negative.  An objective's ``swaps`` replace its
    upper functions: their neurons are taken out of the shared product and
    their cuts added on their own.  Raises ``ValueError`` naming the
    position of a neuron that receives a coefficient but has no functions.
    """
    net = funcs.net
    m, q = net.input_dim, len(objective)
    c = np.zeros((q, net.n_state))
    c[:, :objective.eta] = objective.coeffs
    const = objective.constant.copy()
    ub_used = np.zeros((q, net.n_state), dtype=bool)
    for lv in range(len(net.levels) - 1, -1, -1):
        level = net.levels[lv]
        cl = c[:, level.pos]
        if not cl.any():
            continue
        fixed = funcs.fixed[level.pos]
        if not fixed.all() and np.any(missing := ((cl != 0.0) & ~fixed).any(axis=0)):
            raise ValueError(f"neuron position {level.pos[np.argmax(missing)]} has a "
                             "coefficient but no bounding functions")
        cp, cn = np.maximum(cl, 0.0), np.minimum(cl, 0.0)
        own = swaps.in_level(net, lv) if swaps is not None else None
        if own is not None:
            obj, i, coeffs, constant, support = own
            weight = cp[obj, i]
            cp[obj, i] = 0.0
        c[:, level.src] += cp @ funcs.upper[lv] + cn @ funcs.lower[lv]
        const += cp @ funcs.upper_b[lv] + cn @ funcs.lower_b[lv]
        if own is not None:  # support and coeffs are copies: scatter them in place
            support += (obj * net.n_state)[:, None]
            coeffs *= weight[:, None]
            c += np.bincount(support.ravel(), coeffs.ravel(), minlength=c.size).reshape(c.shape)
            const += np.bincount(obj, weight * constant, minlength=q)
        ub_used[:, level.pos] = cl > 0.0
        c[:, level.pos] = 0.0
    residual = Objectives(c[:, :m].copy(), const)
    bound, x_star = box_maximize(residual, funcs.box)
    return BackwardResult(bound=bound, x_star=x_star, ub_used=ub_used, input_expr=residual)


def forward_pass(funcs: BoundingFunctions, x_star, ub_used, eta,
                 swaps: Swaps | None = None) -> np.ndarray:
    """Complete each input point ``x_star[j]`` to a relaxation point over
    positions ``< eta``.

    Level by level, each neuron takes the value of whichever bounding
    function the backward pass used for it in objective ``j`` (lower when it
    was never substituted, and the objective's swapped cut for an upper
    one it swapped); row ``j`` of the result is an optimal solution of the
    relaxed problem that pass solved for objective ``j``.
    """
    net = funcs.net
    x_star = np.asarray(x_star)
    z = np.zeros((x_star.shape[0], net.n_state))
    z[:, :net.input_dim] = x_star
    for lv, level in enumerate(net.levels):
        if level.pos[0] >= eta:
            break
        zs = z[:, level.src]
        used = ub_used[:, level.pos]
        value = np.where(used, zs @ funcs.upper[lv].T + funcs.upper_b[lv],
                         zs @ funcs.lower[lv].T + funcs.lower_b[lv])
        own = swaps.in_level(net, lv) if swaps is not None else None
        if own is not None:
            obj, i, coeffs, constant, support = own
            cut = np.einsum("ij,ij->i", coeffs, z[obj[:, None], support]) + constant
            value[obj, i] = np.where(used[obj, i], cut, value[obj, i])
        z[:, level.pos] = value
    return z[:, :eta]


def tightened_bound(funcs: BoundingFunctions, objective: Objectives, iterations: int,
                    table: hull.HullTable | None = None) -> np.ndarray:
    """Best bound of each objective of a batch over ``iterations`` rounds
    of separate-and-swap.

    Each round recovers every objective's optimal point ``z`` of the
    relaxation, computes, in one step of the hull table, the hull envelope
    at ``z`` of every mixed neuron in ``table`` the objective can reach,
    swaps in as the neuron's new upper function the most violated hull
    inequality of each one violated by more than ``SWAP_VIOLATION_TOL``, and
    re-runs the backward pass of the objectives that swapped; an objective
    that swaps nothing is done.  ``iterations=0`` is exactly the initial
    method.

    A neuron is reachable below the objective's ``reach``: later ones never
    receive a coefficient, so their upper functions cannot move the bound.
    The reachable ones are a prefix of the table.  A violation below the
    tolerance is rounding; swapping on it would let the last bit of ``z``
    choose the bound.

    Swaps are scoped to their objective (:class:`Swaps`): one objective's
    swapped inequalities (tighter at its own optimum, possibly looser
    elsewhere) never reach another objective or the shared functions.
    This keeps every result at or below the plain initial-method bound.
    The rounds run over groups of objectives of at most ``TIGHTEN_BLOCK``
    sorted separation entries each, which bounds the memory they take.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    res = backward_pass(funcs, objective)
    best = res.bound.copy()
    k = table.rows_below(objective.reach) if table is not None else np.zeros(len(objective), int)
    live = np.flatnonzero(k > 0)
    if not live.size or not iterations:
        return best
    top = int(k.max())
    step = max(1, TIGHTEN_BLOCK // (top * table.width_below(top)))
    for a in range(0, live.size, step):
        group = live[a:a + step]
        best[group] = np.minimum(best[group], _swap_rounds(
            funcs, objective.select(group), k[group], res.x_star[group], res.ub_used[group],
            iterations, table))
    return best


def _swap_rounds(funcs, objective, k, x_star, ub_used, iterations, table) -> np.ndarray:
    """The rounds of :func:`tightened_bound` for a group of objectives that
    each reach ``k`` table rows, from the input points ``x_star`` and
    choices ``ub_used`` of their first backward pass; each objective's best
    re-run bound, or inf."""
    best = np.full(len(objective), np.inf)
    live = np.arange(len(objective))  # objectives still swapping
    swaps = Swaps.none(table)
    for _ in range(iterations):
        reach = k[live]
        top = int(reach.max())
        z = forward_pass(funcs, x_star, ub_used, table.pos[top - 1] + 1, swaps)
        y = np.where(np.arange(top) < reach[:, None], z[:, table.pos[:top]], -np.inf)
        found = table.separate(z, y, SWAP_VIOLATION_TOL)
        if not len(found):
            break
        swapped = np.unique(found.point)
        swaps = swaps.updated(found).select(swapped)
        live = live[swapped]
        res = backward_pass(funcs, objective.select(live), swaps)
        best[live] = np.minimum(best[live], res.bound)
        x_star, ub_used = res.x_star, res.ub_used
    return best


@dataclass(eq=False)
class Bounds:
    """Every ReLU neuron's bounds from one sweep, and what bounds new objectives.

    ``pre_lower``/``pre_upper`` hold one pre-activation interval per input
    and ReLU neuron (inputs report the box; NaN until the sweep reaches a
    neuron); :meth:`output_bounds` bounds the output rows on request.
    ``post_lower``/``post_upper`` are the post-activation boxes of the
    inputs and ReLU neurons.  Propagation methods keep their initial
    bounding functions in ``funcs``, the tightening methods (``fastc2v``,
    ``optc2v``) the hull instances of their mixed neurons over state
    positions in ``table``, and ``fastc2v`` the ``deeppoly`` run it never
    reports worse than.  A ``fastc2v`` row whose baseline upper bound is
    at most 0 is not tightened: its neuron is dead either way, and its post
    box, bounding functions and (absent) hull row depend only on that, so
    its ``pre_lower`` is the baseline's, intersected with the interval
    bound.  The LP methods keep in ``lps`` one solved
    relaxation (:class:`relucert.relaxation.DeltaLp`) per objective reach,
    from whose first optimum every later objective of that reach starts;
    so a ``Bounds`` is not to be shared between threads.
    """

    method: str
    pre_lower: np.ndarray
    pre_upper: np.ndarray
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

    def interval_objective_bound(self, objective):
        """Interval-arithmetic bound of an objective, or of each objective
        of a batch, over the post boxes."""
        c = objective.coeffs
        eta = c.shape[-1]
        return (np.maximum(c, 0.0) @ self.post_upper[:eta]
                + np.minimum(c, 0.0) @ self.post_lower[:eta]) + objective.constant

    def row_bounds(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Pre-activation intervals ``(lo, hi)`` of the rows of positions
        ``start .. stop-1`` (one run of a level, or the output rows), over
        the neurons before ``start``.

        Both signs of every row go as one batch: interval arithmetic over
        the post boxes, then, for every method but ``interval``, the
        method's relaxation (the LP methods skip the rows over inputs alone,
        where an LP returns the interval bound, and ``fastc2v`` the ReLU
        rows its baseline proves dead), and for ``fastc2v`` its baseline's
        own bounds of the rows; the results are intersected.
        """
        r = stop - start
        rows = Objectives.rows(self.net, start, stop)
        upper = self.interval_objective_bound(rows)
        if self.method in _MENUS:
            live = np.arange(2 * r)
            if self.baseline is not None and start < self.net.n_state:
                live = np.flatnonzero(np.tile(self.baseline.pre_upper[start:stop] > 0.0, 2))
            if live.size:
                upper[live] = np.minimum(upper[live], tightened_bound(
                    self.funcs, rows.select(live), self.iterations, self.table))
        elif self.method != INTERVAL:
            deep = np.flatnonzero(rows.reach > self.net.input_dim)
            if deep.size:
                upper[deep] = self.bound_objectives(rows.select(deep))
        lo, hi = -upper[r:], upper[:r]
        if self.baseline is not None:
            base_lo, base_hi = self.baseline.output_bounds() if start >= self.net.n_state else \
                (self.baseline.pre_lower[start:stop], self.baseline.pre_upper[start:stop])
            lo, hi = np.maximum(lo, base_lo), np.minimum(hi, base_hi)
        return np.minimum(lo, hi), hi  # guard against tolerance-level crossings

    def output_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`row_bounds` of the output rows, in output order."""
        return self.row_bounds(self.net.n_state, self.net.n_neurons)

    def bound_objectives(self, objectives: Objectives) -> np.ndarray:
        """Bound each state-space objective of a batch over every neuron of
        the network.

        Takes the best of the interval bound and the method's relaxation,
        mirroring the rule of the sweep's rows, and for ``fastc2v`` of its
        baseline's own bounds.  The propagation methods bound the whole
        batch in one tightened backward pass, the LP methods in one
        :func:`relucert.relaxation.optc2v_bound` call, on the models of the
        objectives' reaches.
        """
        b = self.interval_objective_bound(objectives)
        if self.method in _MENUS:
            b = np.minimum(b, tightened_bound(self.funcs, objectives, self.iterations,
                                              self.table))
        elif self.method != INTERVAL:
            from . import relaxation  # the LP bounder builds on this module
            b = np.minimum(b, relaxation.optc2v_bound(self, objectives, self.cut_rounds))
        if self.baseline is not None:
            b = np.minimum(b, self.baseline.bound_objectives(objectives))
        return b


def compute_all_bounds(net: Network, box: BoxDomain, method: str, iterations=1,
                       cut_rounds=DEFAULT_CUT_ROUNDS) -> Bounds:
    """Forward sweep bounding every ReLU neuron's pre-activation, in order.

    The sweep goes run by run (:attr:`relucert.network.Network.runs`): no
    row of a run reads another, so :meth:`Bounds.row_bounds` bounds a whole
    run over the post boxes fixed before it.  Then the run's post boxes and,
    for the propagation methods, its initial bounding functions are set in
    one step, and, when the method tightens, the hull instances of its mixed
    neurons, over state positions, go into the hull table in one step too,
    for use by all later rows.  Hull swaps are kept per objective, so the
    stored functions stay the initial ones.  The sweep stops at the last
    ReLU neuron: output rows add no state (the final affine layer is never
    relaxed), so :meth:`Bounds.output_bounds` bounds them only when asked.

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
    for name, value in (("iterations", iterations), ("cut_rounds", cut_rounds)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    m = net.input_dim
    if len(box) != m:
        raise ValueError("box dimension does not match network input")
    baseline = compute_all_bounds(net, box, DEEPPOLY) if method == FASTC2V else None
    pre_lo, pre_hi = np.full(net.n_state, np.nan), np.full(net.n_state, np.nan)
    # zeros, not NaN: a level's source columns may name neurons of a later
    # run, which the hull build reads, with weight 0, before they are bounded
    post_lo, post_hi = np.zeros(net.n_state), np.zeros(net.n_state)
    pre_lo[:m], pre_hi[:m] = box.lower, box.upper
    post_lo[:m], post_hi[:m] = box.lower, box.upper
    bounds = Bounds(method=method, pre_lower=pre_lo, pre_upper=pre_hi, post_lower=post_lo,
                    post_upper=post_hi, net=net, box=box,
                    iterations=max(1, iterations) if method == FASTC2V else 0,
                    cut_rounds=cut_rounds if method == OPTC2V else 0,
                    funcs=BoundingFunctions.empty(net, box) if method in _MENUS else None,
                    table=hull.HullTable(net.n_hidden, max((lv.src.size for lv in net.levels),
                                                           default=0)),
                    baseline=baseline)
    menu = _MENUS.get(method)
    tightens = method in (FASTC2V, OPTC2V)
    for start, stop in net.runs:
        lo, hi = bounds.row_bounds(start, stop)
        pre_lo[start:stop], pre_hi[start:stop] = lo, hi
        post_lo[start:stop], post_hi[start:stop] = np.maximum(0.0, lo), np.maximum(0.0, hi)
        if menu is not None:
            bounds.funcs.set_initial(start, menu, lo, hi)
        if tightens:
            mixed = np.flatnonzero((lo < 0.0) & (hi > 0.0))
            lv, rows = net.levels[net.level_of[start] - 1], net.level_row[start] + mixed
            bounds.table.add(start + mixed, lv.src, lv.weights[rows], lv.bias[rows],
                             post_lo[lv.src], post_hi[lv.src])
    return bounds
