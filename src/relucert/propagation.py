"""Bound propagation for ReLU networks, with dynamic hull-cut tightening.

The generic engine bounds an affine objective over the relaxation in which
every ReLU neuron is sandwiched between one affine lower and one affine
upper function of its predecessors.  A backward pass substitutes neurons in
descending order (upper function when the running coefficient is positive,
lower when negative) until only inputs remain, then maximizes the final
affine expression over the input box in closed form.  A forward pass replays
the recorded substitution choices to recover a full optimal point of the
relaxation, which the iterative scheme feeds to the single-neuron hull
separation routine to swap in violated upper inequalities.

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

# the bounding-function menu each propagation method draws its pairs from
_MENUS = {FASTLIN: FASTLIN, DEEPPOLY: DEEPPOLY, FASTC2V: DEEPPOLY}


@dataclass(frozen=True, eq=False)
class AffineFunc:
    """Sparse affine function ``w . z[idx] + b`` of earlier neurons."""

    idx: np.ndarray
    w: np.ndarray
    b: float

    def value(self, z) -> float:
        if self.idx.size == 0:
            return self.b
        return float(self.w @ np.asarray(z)[self.idx]) + self.b


def _const_func(b):
    return AffineFunc(idx=np.empty(0, dtype=np.intp), w=np.empty(0), b=float(b))


def _row_func(idx, w, b, scale=1.0, shift=0.0):
    return AffineFunc(idx=idx, w=scale * w, b=scale * b + shift)


@dataclass(frozen=True, eq=False)
class AffineBoundPair:
    """Affine under/over-estimators of one neuron's post-activation."""

    lower: AffineFunc
    upper: AffineFunc


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


def backward_pass(box: BoxDomain, pairs: dict[int, AffineBoundPair],
                  objective: LinearExpr) -> BackwardResult:
    """Eliminate intermediate neurons from the objective, highest first.

    Raises ``KeyError`` if a substituted neuron has no bound pair.
    """
    m = len(box)
    eta = objective.eta
    c = objective.coeffs.copy()
    const = objective.constant
    ub_used = np.zeros(eta, dtype=bool)
    for i in range(eta - 1, m - 1, -1):
        ci = c[i]
        if ci == 0.0:
            continue
        if i not in pairs:
            raise KeyError(f"missing bound pair for neuron position {i}")
        pair = pairs[i]
        func = pair.upper if ci > 0.0 else pair.lower
        ub_used[i] = ci > 0.0
        c[i] = 0.0
        if func.idx.size:
            c[func.idx] += ci * func.w
        const += ci * func.b
    residual = LinearExpr(c[:m].copy(), const)
    bound, x_star = box_maximize(residual, box)
    return BackwardResult(bound=bound, x_star=x_star, ub_used=ub_used, input_expr=residual)


def forward_pass(x_star, pairs: dict[int, AffineBoundPair], ub_used, m, eta) -> np.ndarray:
    """Complete an input point to a full relaxation point.

    Each neuron takes the value of whichever bounding function the backward
    pass used for it (lower when it was never substituted); the result is an
    optimal solution of the relaxed problem the backward pass solved.
    """
    z = np.empty(eta)
    z[:m] = x_star
    for i in range(m, eta):
        pair = pairs[i]
        func = pair.upper if ub_used[i] else pair.lower
        z[i] = func.value(z)
    return z


def initial_pair(method, sb: ScalarBounds, idx, w, b) -> AffineBoundPair:
    """Menu of initial bounding functions for one ReLU neuron.

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
        row = _row_func(idx, w, b)
        return AffineBoundPair(lower=row, upper=row)
    if hi <= 0.0:
        zero = _const_func(0.0)
        return AffineBoundPair(lower=zero, upper=zero)
    slope = hi / (hi - lo)
    upper = _row_func(idx, w, b, scale=slope, shift=-slope * lo)
    if method == FASTLIN:
        lower = _row_func(idx, w, b, scale=slope)
    else:  # deeppoly: zero when the negative side dominates, else the row
        lower = _const_func(0.0) if abs(lo) >= abs(hi) else _row_func(idx, w, b)
    return AffineBoundPair(lower=lower, upper=upper)


def _interval_step(idx, w, b, post_lo, post_hi):
    if idx.size == 0:
        return b, b
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    lo = float(wp @ post_lo[idx] + wn @ post_hi[idx]) + b
    hi = float(wp @ post_hi[idx] + wn @ post_lo[idx]) + b
    return lo, hi


def tightened_bound(box: BoxDomain, pairs: dict[int, AffineBoundPair],
                    objective: LinearExpr, iterations: int,
                    hulls: dict[int, hull.HullInstance] | None = None) -> float:
    """Best bound over ``iterations`` rounds of separate-and-swap.

    Each round recovers the relaxation's optimal point ``z``, asks every
    mixed neuron the objective can reach for its most violated hull
    inequality at ``z``, swaps in as the neuron's new upper function any
    one violated by more than ``SWAP_VIOLATION_TOL``, and re-runs the
    backward pass.  ``iterations=0`` is exactly the initial method.

    ``hulls`` maps neuron positions to instances over state positions.  A
    neuron is reachable up to the objective's last nonzero coefficient:
    later ones never receive a coefficient, so their upper functions cannot
    move the bound.  A violation below the tolerance is rounding; swapping
    on it would let the last bit of ``z`` choose the bound.

    Swaps are scoped to this call: ``pairs`` is worked on as a copy, so one
    objective's swapped inequalities (tighter at its own optimum, possibly
    looser elsewhere) never leak into other bound computations.  This keeps
    every result at or below the plain initial-method bound.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    pairs = dict(pairs)
    m = len(box)
    res = backward_pass(box, pairs, objective)
    best = res.bound
    if not hulls:
        return best
    nz = np.flatnonzero(objective.coeffs)
    eligible = sorted(p for p in hulls if nz.size and m <= p <= nz[-1])
    if not eligible:
        return best
    for _ in range(iterations):
        z = forward_pass(res.x_star, pairs, res.ub_used, m, eligible[-1] + 1)
        swapped = False
        for p in eligible:
            sep = hull.separate_sort(hulls[p], z, z[p])
            if sep is not None and sep.violation > SWAP_VIOLATION_TOL:
                cut = sep.cut
                upper = AffineFunc(idx=cut.idx, w=cut.coeffs, b=cut.constant)
                pairs[p] = AffineBoundPair(lower=pairs[p].lower, upper=upper)
                swapped = True
        if not swapped:
            break
        res = backward_pass(box, pairs, objective)
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
    bounding pairs, the tightening methods (``fastc2v``, ``optc2v``) the
    hull instances of their mixed neurons over state positions, and
    ``fastc2v`` the ``deeppoly`` run it never reports worse than.
    """

    method: str
    pre: list[ScalarBounds]
    post_lower: np.ndarray
    post_upper: np.ndarray
    net: Network = field(repr=False)
    box: BoxDomain = field(repr=False)
    iterations: int = 0
    cut_rounds: int = 0
    pairs: dict[int, AffineBoundPair] = field(default_factory=dict, repr=False)
    hulls: dict[int, hull.HullInstance] = field(default_factory=dict, repr=False)
    baseline: "Bounds | None" = field(default=None, repr=False)

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
        return tightened_bound(self.box, self.pairs, objective, self.iterations, self.hulls)

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
    fixed so far.  Fixing a ReLU neuron adds its initial bounding pair
    (propagation methods) and, when it is mixed and the method tightens, its
    hull instance, renumbered to state positions, for use by all later rows.
    Each bound works on its own copy of the pairs, so the stored pairs stay
    the initial ones.  The sweep stops at the last ReLU neuron: output rows
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
            bounds.pairs[pos] = initial_pair(menu, sb, *net.row(pos))
        if tightens and sb.is_mixed():
            idx, w, b = net.row(pos)
            inst = hull.make_hull_instance(w, b, post_lo[idx], post_hi[idx])
            bounds.hulls[pos] = replace(inst, support=idx[inst.support])
    return bounds
