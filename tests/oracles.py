"""Reference implementations the tests compare the package against.

None of these run on the package's bound paths: a cold solve of one LP
model, one neuron's hull instance, its corner values, cuts and one-row
separation calls, every envelope of a table read off one separation, the
sorting greedy of one table row coordinate by coordinate, brute-force
enumeration of the hull's cut family and of its least value at a point, the weighted-median separator (the paper's
linear-time variant of the sorting greedy), the univariate chord bound, the
lifted-formulation envelope LP, the exact maximum over activation patterns,
the per-neuron network evaluation read from the declared rows, the
relaxation LP before presolve and its presolve one neuron at a time, the
test of whether variable boxes imply a ranged row, and the
per-neuron backward and forward passes and tightening loop, one objective at
a time, that the package runs one run, level and batch of objectives at a
time, and a sweep's row bounds that tighten every row.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from relucert.hull import RATIO_GRID, HullTable
from relucert.network import BoxDomain, Network
from relucert.propagation import (DEEPPOLY, FASTC2V, FASTLIN, INTERVAL, SWAP_VIOLATION_TOL,
                                  Objectives, compute_all_bounds, tightened_bound)
from relucert.relaxation import LpBoundError
from relucert.simplex import DEFAULT_MAX_ITER, EQ, GE, LE, Lockstep, LpModel, LpStatus

# Hard ceiling for brute-force enumeration of the cut family.
ENUMERATION_CAP = 20

ALWAYS_ACTIVE = "always_active"
ALWAYS_INACTIVE = "always_inactive"
MIXED = "mixed"


def solve_lp(model: LpModel, max_iter: int = DEFAULT_MAX_ITER) -> SimpleNamespace:
    """``model`` under its own objective, solved cold as a stack of one:
    the status, value, point and pivots of that one member."""
    sol = Lockstep(model, [model.obj], model.obj_constant).solve(max_iter)
    return SimpleNamespace(status=sol.status[0], objective_value=float(sol.objective_value[0]),
                           x=sol.x[0], iterations=int(sol.iterations[0]))


@dataclass(frozen=True, eq=False)
class HullInstance:
    """One neuron's hull data over its retained coordinates (nonzero
    weight, nonflat side), which the point it reads holds at ``support``;
    ``b`` absorbs the folded ones.  ``min_corner``/``max_corner`` minimize /
    maximize each weighted term, ``cap = w * (max_corner - min_corner) > 0``,
    and ``val_max``/``val_min`` are the pre-activation at the two corners."""

    dim: int
    support: np.ndarray
    w: np.ndarray
    b: float
    lower: np.ndarray
    upper: np.ndarray
    min_corner: np.ndarray
    max_corner: np.ndarray
    cap: np.ndarray
    val_max: float
    val_min: float

    @property
    def size(self) -> int:
        """Number of retained coordinates."""
        return self.w.shape[0]

    def preactivation(self, x) -> float:
        """``w.x + b`` evaluated at a point read through ``support``."""
        x = np.asarray(x, dtype=float)
        return float(self.w @ x[self.support]) + self.b

    def ratios(self, x) -> np.ndarray:
        """Normalized positions ``(x_i - min_corner_i) / (max - min)``; in
        [0, 1] for x inside the box."""
        x = np.asarray(x, dtype=float)[self.support]
        return (x - self.min_corner) / (self.max_corner - self.min_corner)


@dataclass(frozen=True, eq=False)
class HullCut:
    """A realized upper inequality ``y <= coeffs . x[idx] + constant`` of
    the pair ``(index_set, anchor)`` of retained positions; ``idx`` holds
    their ``support`` positions, ascending."""

    index_set: tuple[int, ...]
    anchor: int
    idx: np.ndarray
    coeffs: np.ndarray
    constant: float

    def value(self, x) -> float:
        """Right-hand side at a point ``x`` of the instance's coordinates."""
        return float(self.coeffs @ np.asarray(x, dtype=float)[self.idx]) + self.constant


@dataclass(frozen=True, eq=False)
class Separation:
    """Most violated hull inequality at a point, with its envelope value."""

    cut: HullCut
    envelope: float
    violation: float


def make_hull_instance(w, b, box_lower, box_upper) -> HullInstance:
    """Build an instance, folding zero weights and flat coordinates into b."""
    w = np.asarray(w, dtype=float)
    lo = np.asarray(box_lower, dtype=float)
    hi = np.asarray(box_upper, dtype=float)
    if not (w.shape == lo.shape == hi.shape) or w.ndim != 1:
        raise ValueError("w and box bounds must be 1-d arrays of equal length")
    if np.any(lo > hi):
        raise ValueError("box has lower > upper")
    keep = (w != 0.0) & (lo < hi)
    folded = ~keep & (w != 0.0)
    b = float(b) + float(w[folded] @ lo[folded])
    w_k, lo_k, hi_k = w[keep], lo[keep], hi[keep]
    pos = w_k >= 0.0
    min_corner = np.where(pos, lo_k, hi_k)
    max_corner = np.where(pos, hi_k, lo_k)
    cap = w_k * (max_corner - min_corner)
    val_max = float(w_k @ max_corner) + b
    val_min = float(w_k @ min_corner) + b
    return HullInstance(
        dim=w.shape[0],
        support=np.flatnonzero(keep),
        w=w_k, b=b, lower=lo_k, upper=hi_k,
        min_corner=min_corner, max_corner=max_corner,
        cap=cap, val_max=val_max, val_min=val_min)


def corner_value(inst: HullInstance, low_set) -> float:
    """Pre-activation at the box corner taking ``min_corner`` on ``low_set``
    and ``max_corner`` elsewhere; it decreases as ``low_set`` grows."""
    idx = np.fromiter(low_set, dtype=np.intp) if not isinstance(low_set, np.ndarray) else low_set
    if idx.size == 0:
        return inst.val_max
    if np.any(idx < 0) or np.any(idx >= inst.size) or np.unique(idx).size != idx.size:
        raise ValueError("low_set must be distinct retained coordinate positions")
    return inst.val_max - float(inst.cap[idx].sum())


def classify_phase(inst: HullInstance) -> str:
    """Fixed-sign classification of the pre-activation over the box."""
    if inst.val_min >= 0.0:
        return ALWAYS_ACTIVE
    if inst.val_max < 0.0:
        return ALWAYS_INACTIVE
    return MIXED


def cut_from_pair(inst: HullInstance, low_set, anchor: int) -> HullCut:
    """The inequality ``y <= sum_{i in I} w_i (x_i - min_corner_i) +
    corner_value(I) / (max_corner_h - min_corner_h) (x_h - min_corner_h)``
    of ``I = low_set`` (strictly increasing) and ``h = anchor``, expanded.
    Raises unless ``corner_value(I) >= 0 > corner_value(I + anchor)``.
    """
    I = np.asarray(low_set, dtype=np.intp)
    if I.size and not (I[0] >= 0 and I[-1] < inst.size and np.all(I[1:] > I[:-1])):
        raise ValueError("low_set must be strictly increasing retained coordinate positions")
    h = int(anchor)
    at = int(np.searchsorted(I, h))
    if not 0 <= h < inst.size or (at < I.size and I[at] == h):
        raise ValueError(f"anchor {h} invalid for index set {tuple(I.tolist())}")
    ell_i = inst.val_max - float(inst.cap[I].sum()) if I.size else inst.val_max
    ell_ih = ell_i - float(inst.cap[h])
    if not (ell_i >= 0.0 and ell_ih < 0.0):
        raise ValueError(f"pair ({tuple(I.tolist())}, {h}) is not in the cut family: "
                         f"values {ell_i}, {ell_ih}")
    const = -float(inst.w[I] @ inst.min_corner[I]) if I.size else 0.0
    slope = ell_i / (inst.max_corner[h] - inst.min_corner[h])
    const -= slope * inst.min_corner[h]
    k = np.concatenate([I[:at], [h], I[at:]])
    coeffs = inst.w[k]
    coeffs[at] = slope
    return HullCut(index_set=tuple(I.tolist()), anchor=h, idx=inst.support[k],
                   coeffs=coeffs, constant=const)


def add_instance(table: HullTable, pos: int, inst: HullInstance, offset: int = 0):
    """Add ``inst`` to ``table`` as the row of position ``pos``, reading the
    point at ``support + offset``."""
    table.add([pos], inst.support + offset, inst.w, [inst.b], inst.lower, inst.upper)


def one_row_table(inst: HullInstance) -> HullTable:
    """A :class:`relucert.hull.HullTable` holding ``inst`` as its one row."""
    _require_mixed(inst)
    table = HullTable(1, inst.size)
    add_instance(table, 0, inst)
    return table


def table_envelopes(table: HullTable, z, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least upper hull inequality of the first ``k`` rows of ``table`` at
    ``z`` (one point, or a stack of points along its leading axes), read off
    one :meth:`relucert.hull.HullTable.separate` call that every pair
    violates: the envelope values, the index-set masks and the anchors,
    with the leading axes of ``z``."""
    z = np.asarray(z, dtype=float)
    lead = z.shape[:-1] + (k,)
    flat = z.reshape(-1, z.shape[-1])
    found = table.separate(flat, np.full((flat.shape[0], k), np.inf))
    return (found.envelope.reshape(lead), found.low.reshape(lead + found.low.shape[-1:]),
            found.anchor.reshape(lead))


def separation_cut(table: HullTable, found, e: int) -> HullCut:
    """Pair ``e`` of the table's :class:`relucert.hull.Separations` as the
    cut over the positions it names."""
    low, anchor = found.low[e], int(found.anchor[e])
    keep = low.copy()
    keep[anchor] = True
    return HullCut(index_set=tuple(np.flatnonzero(low).tolist()), anchor=anchor,
                   idx=table.support[found.row[e], :keep.size][keep], coeffs=found.coeffs[e, keep],
                   constant=float(found.constant[e]))


def minimize_upper_envelope_sort(inst: HullInstance, x) -> tuple[float, np.ndarray, int]:
    """Least upper hull inequality at ``x``, one row of
    :func:`table_envelopes`: its value, its index set as ascending
    retained positions and its anchor."""
    value, low, h = table_envelopes(one_row_table(inst), x, 1)
    return float(value[0]), np.flatnonzero(low[0]), int(h[0])


def separate_sort(inst: HullInstance, x, y) -> Separation | None:
    """Most violated upper inequality at ``(x, y)``, or None if none is: one
    row of :meth:`relucert.hull.HullTable.separate`."""
    table = one_row_table(inst)
    found = table.separate(x, [y])
    if not len(found):
        return None
    return Separation(cut=separation_cut(table, found, 0), envelope=float(found.envelope[0]),
                      violation=float(found.violation[0]))


def sorting_greedy_row(table: HullTable, i: int, x) -> tuple[float, tuple[int, ...], int]:
    """The sorting greedy of row ``i`` of ``table`` alone at the point
    ``x``, one coordinate at a time: its envelope value, its index set as
    ascending columns and its anchor.

    It runs the arithmetic of :meth:`relucert.hull.HullTable.separate` in
    the same order (ratios rounded to ``RATIO_GRID``, a stable sort, sums
    left to right over the row's retained columns), so the two agree bit
    for bit whatever block, width or prefix the row is separated in.
    """
    cols = range(int(table.valid[i].sum()))
    if not table.valid[i, cols].all():
        raise ValueError(f"row {i}'s retained coordinates are not its first columns")
    dx = [float(x[table.support[i, j]]) - float(table.min_corner[i, j]) for j in cols]
    key = [round(d / float(table.span[i, j]) / RATIO_GRID) for d, j in zip(dx, cols)]
    order = sorted(cols, key=lambda j: (key[j], j))
    running, val_max = 0.0, float(table.val_max[i])
    for stop, j in enumerate(order):
        running += float(table.cap[i, j])
        if running > val_max:
            break
    else:
        raise ValueError(f"row {i} is not a mixed instance")
    low, h = sorted(order[:stop]), order[stop]

    def left_to_right(terms):
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total

    ell = val_max - left_to_right([float(table.cap[i, j]) if j in low else 0.0 for j in cols])
    value = left_to_right([float(table.w[i, j]) * d if j in low else 0.0
                           for j, d in zip(cols, dx)])
    value += ell / float(table.span[i, h]) * dx[h]
    return value, tuple(low), h


def row_bounds_tightening_every_row(bounds, start: int, stop: int):
    """:meth:`relucert.propagation.Bounds.row_bounds` with every row of a
    propagation method tightened, ``fastc2v``'s rows that its baseline
    proves dead too."""
    r = stop - start
    rows = Objectives.rows(bounds.net, start, stop)
    upper = bounds.interval_objective_bound(rows)
    if bounds.method in (FASTLIN, DEEPPOLY, FASTC2V):
        upper = np.minimum(upper, tightened_bound(bounds.funcs, rows, bounds.iterations,
                                                  bounds.table))
    elif bounds.method != INTERVAL:
        deep = np.flatnonzero(rows.reach > bounds.net.input_dim)
        if deep.size:
            upper[deep] = bounds.bound_objectives(rows.select(deep))
    lo, hi = -upper[r:], upper[:r]
    if bounds.baseline is not None:
        base_lo, base_hi = bounds.baseline.output_bounds() if start >= bounds.net.n_state else \
            (bounds.baseline.pre_lower[start:stop], bounds.baseline.pre_upper[start:stop])
        lo, hi = np.maximum(lo, base_lo), np.minimum(hi, base_hi)
    return np.minimum(lo, hi), hi


def table_instances(table: HullTable) -> dict[int, HullInstance]:
    """The instance each row of ``table`` holds, by neuron position."""
    out = {}
    for i, v in enumerate(table.valid[:table.n]):
        w, lo, cap, top = table.w[i, v], table.min_corner[i, v], table.cap[i, v], table.val_max[i]
        hi = lo + table.span[i, v]
        out[int(table.pos[i])] = HullInstance(
            int(table.support[i].max()) + 1, table.support[i, v], w, top - w @ hi,
            np.minimum(lo, hi), np.maximum(lo, hi), lo, hi, cap, top, top - cap.sum())
    return out


def _require_mixed(inst):
    if classify_phase(inst) != MIXED:
        raise ValueError("operation requires a sign-spanning (mixed) instance")


def enumerate_cut_pairs(inst: HullInstance,
                        cap=ENUMERATION_CAP) -> list[tuple[tuple[int, ...], int]]:
    """Every facet pair ``(I, h)``, by brute force over all subsets.

    Refuses more than ``cap`` retained coordinates.  The count always lies
    in ``[d, ceil(d/2) * C(d, ceil(d/2))]`` for ``d`` retained coordinates.
    """
    _require_mixed(inst)
    k = inst.size
    if k > cap:
        raise ValueError(f"{k} coordinates exceeds enumeration cap {cap}")
    masks = np.arange(1 << k, dtype=np.int64)
    capsum = np.zeros(1 << k)
    for i in range(k):
        sel = (masks >> i) & 1 == 1
        capsum[sel] += inst.cap[i]
    ell = inst.val_max - capsum
    pairs = []
    for mask in range(1 << k):
        if ell[mask] < 0.0:
            continue
        I = tuple(i for i in range(k) if (mask >> i) & 1)
        for h in range(k):
            if (mask >> h) & 1:
                continue
            if ell[mask | (1 << h)] < 0.0:
                pairs.append((I, h))
    return pairs


def envelope_min_by_enumeration(inst, x) -> float:
    """The least upper-inequality value at x, by direct evaluation of the
    defining expression over the enumerated pair family."""
    x = np.asarray(x, dtype=float)[inst.support]
    best = np.inf
    for I, h in enumerate_cut_pairs(inst):
        ell = corner_value(inst, I)
        val = sum(inst.w[i] * (x[i] - inst.min_corner[i]) for i in I)
        val += ell / (inst.max_corner[h] - inst.min_corner[h]) * (x[h] - inst.min_corner[h])
        best = min(best, val)
    return best


def minimize_upper_envelope_median(inst: HullInstance, x) -> tuple[float, np.ndarray, int]:
    """Same contract as :func:`minimize_upper_envelope_sort`,
    via weighted-median selection.

    Expected linear time: quickselect-style partitioning on the ratio key
    (ties by position) tracking consumed capacity, no full sort.
    """
    _require_mixed(inst)
    r = inst.ratios(x)
    h = _stop_item_select(r, inst.cap, inst.val_max)
    low = np.flatnonzero((r < r[h]) | ((r == r[h]) & (np.arange(inst.size) < h)))
    x_loc = np.asarray(x, dtype=float)[inst.support]
    ell_i = inst.val_max - float(inst.cap[low].sum())
    value = float(inst.w[low] @ (x_loc[low] - inst.min_corner[low]))
    value += ell_i / (inst.max_corner[h] - inst.min_corner[h]) * (x_loc[h] - inst.min_corner[h])
    return value, low, h


def _stop_item_select(ratios, caps, capacity):
    """Item at which cumulative capacity in (ratio, position) order first
    exceeds ``capacity``; requires total capacity > capacity >= 0."""
    cand = np.arange(ratios.shape[0])
    acc = 0.0
    while cand.size > 1:
        trio = sorted((cand[0], cand[cand.size // 2], cand[-1]),
                      key=lambda i: (ratios[i], i))
        p = int(trio[1])
        rc = ratios[cand]
        less = cand[(rc < ratios[p]) | ((rc == ratios[p]) & (cand < p))]
        consumed = float(caps[less].sum())
        if acc + consumed > capacity:
            cand = less
        elif acc + consumed + caps[p] > capacity:
            return p
        else:
            acc += consumed + float(caps[p])
            cand = cand[(rc > ratios[p]) | ((rc == ratios[p]) & (cand > p))]
    return int(cand[0])


def separate_median(inst: HullInstance, x, y) -> Separation | None:
    """:func:`separate_sort` with the median separator."""
    envelope, low, h = minimize_upper_envelope_median(inst, x)
    violation = float(y) - envelope
    if violation > 0.0:
        return Separation(cut=cut_from_pair(inst, low, h),
                               envelope=envelope, violation=violation)
    return None


def delta_upper_value(inst: HullInstance, x) -> float:
    """Upper bound at ``x`` from the univariate three-inequality relaxation.

    Uses the chord of the ReLU over the exact pre-activation range
    ``[val_min, val_max]``; the hull's envelope is never above this.
    """
    _require_mixed(inst)
    zhat = inst.preactivation(x)
    return inst.val_max / (inst.val_max - inst.val_min) * (zhat - inst.val_min)


def relu_value(inst: HullInstance, x) -> float:
    """``max(0, w.x + b)`` on original coordinates."""
    return max(0.0, inst.preactivation(x))


def lifted_envelope_value(inst: HullInstance, x) -> float:
    """Hull upper envelope at ``x`` via the auxiliary-variable LP.

    Maximizes ``w . v + b t`` over ``(v, t)`` with ``t in [0, 1]``,
    ``L t <= v <= U t`` and ``L (1-t) <= x - v <= U (1-t)``: the optimal
    value equals the least upper hull inequality at ``x``.
    """
    if classify_phase(inst) != MIXED:
        raise ValueError("envelope LP requires a mixed instance")
    x = np.asarray(x, dtype=float)[inst.support]
    if np.any(x < inst.lower - 1e-9) or np.any(x > inst.upper + 1e-9):
        raise ValueError("point outside the instance box")
    k = inst.size
    model = LpModel()
    for i in range(k):
        model.add_variable(min(inst.lower[i], 0.0), max(inst.upper[i], 0.0),
                           obj=inst.w[i], name=f"v{i}")
    t = model.add_variable(0.0, 1.0, obj=inst.b, name="t")
    for i in range(k):
        li, ui = inst.lower[i], inst.upper[i]
        # x_i - v_i >= L_i (1 - t)  and  x_i - v_i <= U_i (1 - t)
        model.add_constraint(np.array([i, t]), np.array([-1.0, li]), GE, li - x[i])
        model.add_constraint(np.array([i, t]), np.array([-1.0, ui]), LE, ui - x[i])
        # L_i t <= v_i <= U_i t
        model.add_constraint(np.array([i, t]), np.array([1.0, -li]), GE, 0.0)
        model.add_constraint(np.array([i, t]), np.array([1.0, -ui]), LE, 0.0)
    sol = solve_lp(model)
    if sol.status != LpStatus.OPTIMAL:
        raise LpBoundError(sol.status, "envelope LP")
    return sol.objective_value


def neuron_row(net: Network, pos: int):
    """Declared affine row ``(idx, w, b)`` of the non-input neuron at 0-based
    ``pos``, read from ``net.neurons``: 0-based sources as an int array."""
    nr = net.neurons[pos]
    idx = np.array([j - 1 for j, _ in nr.weights], dtype=np.intp)
    return idx, np.array([v for _, v in nr.weights], dtype=float), nr.bias


def eval_network_by_neuron(net: Network, x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`relucert.network.eval_network`, one declared row at a time."""
    z = np.empty(net.n_state)
    z[:net.input_dim] = x
    y = np.empty(net.n_outputs)
    for pos in range(net.input_dim, net.n_neurons):
        idx, w, b = neuron_row(net, pos)
        val = float(w @ z[idx]) + b if idx.size else b
        if pos < net.n_state:
            z[pos] = val if val > 0.0 else 0.0
        else:
            y[pos - net.n_state] = val
    return z, y


def expr_from_row(idx, w, b, eta) -> Objectives:
    """The row ``w . z[idx] + b`` as a batch of one dense objective over
    ``eta`` positions."""
    c = np.zeros((1, eta))
    c[0, idx] = w
    return Objectives(c, [b])


def reference_delta_lp(bounds, reach: int) -> LpModel:
    """The relaxation LP of :func:`relucert.relaxation.build_delta_lp`
    without its presolve, one declared row at a time: one variable per
    position below ``reach``, with its post box; ``z >= row`` and the chord
    for a mixed neuron, ``z = row`` for an always-active one, and no row for
    an always-inactive one, whose box is [0, 0]."""
    model = LpModel()
    for pos in range(reach):
        model.add_variable(bounds.post_lower[pos], bounds.post_upper[pos], name=f"z{pos}")
    for pos in range(bounds.net.input_dim, reach):
        lo, hi = bounds.pre_lower[pos], bounds.pre_upper[pos]
        if lo < 0.0 and hi <= 0.0:
            continue
        idx, w, b = neuron_row(bounds.net, pos)
        nz = w != 0.0
        head, w = np.concatenate([[pos], idx[nz]]), w[nz]
        model.add_constraint(head, np.concatenate([[1.0], -w]), EQ if lo >= 0.0 else GE, b)
        if lo < 0.0:
            s = hi / (hi - lo)
            model.add_constraint(head, np.concatenate([[1.0], -s * w]), LE, s * (b - lo))
    return model


def substitution_by_neuron(bounds, reach: int):
    """The presolve of :func:`relucert.relaxation.build_delta_lp`, one
    declared row at a time: the positions ``keep`` of its variables (inputs,
    then mixed neurons, ascending), and over them each position's value
    ``lin @ x + const`` and each neuron's pre-activation ``pre @ x + pre0``,
    rows below ``reach``."""
    net, m = bounds.net, min(bounds.net.input_dim, reach)
    lo, hi = bounds.pre_lower, bounds.pre_upper
    keep = [pos for pos in range(reach) if pos < m or lo[pos] < 0.0 < hi[pos]]
    lin, const = np.zeros((reach, len(keep))), np.zeros(reach)
    pre, pre0 = np.zeros((reach, len(keep))), np.zeros(reach)
    for j, pos in enumerate(keep):
        lin[pos, j] = 1.0
    for pos in range(m, reach):
        idx, w, b = neuron_row(net, pos)
        for k, v in zip(idx, w):
            pre[pos] += v * lin[k]
            pre0[pos] += v * const[k]
        pre0[pos] += b
        if lo[pos] >= 0.0:
            lin[pos], const[pos] = pre[pos], pre0[pos]
    return np.array(keep, dtype=np.intp), lin, const, pre, pre0


def implied_by_boxes(coef, lo, hi, box_lo, box_hi) -> bool:
    """Whether the boxes ``[box_lo, box_hi]`` imply the row ``lo <= coef . x
    <= hi`` up to the rounding of its sums: the row's interval over them,
    each side summed exactly rounded, lies in ``[lo - g, hi + g]`` with ``g
    = gamma_n (sum_j |coef_j| max(|box_lo_j|, |box_hi_j|) + |lo| + |hi|)``
    and ``gamma_n = n u / (1 - n u)`` for ``n`` variables."""
    n, u = len(coef), np.finfo(float).eps / 2
    size = math.fsum(abs(c) * max(abs(a), abs(b)) for c, a, b in zip(coef, box_lo, box_hi))
    g = n * u / (1 - n * u) * (size + abs(lo) + abs(hi))
    low = math.fsum(min(c * a, c * b) for c, a, b in zip(coef, box_lo, box_hi))
    high = math.fsum(max(c * a, c * b) for c, a, b in zip(coef, box_lo, box_hi))
    return bool(low >= lo - g and high <= hi + g)


def exact_max_oracle(net: Network, box: BoxDomain, objective: Objectives,
                     mixed_cap: int = 16) -> float:
    """True maximum of a state-space objective by activation-pattern search.

    Enumerates on/off patterns over the neurons interval arithmetic cannot
    fix, solves one input-space LP per pattern (each ReLU's sign constraint
    included), and takes the best feasible value.  Exponential in the mixed
    count; refuses more than ``mixed_cap`` mixed neurons.
    """
    m = net.input_dim
    st = compute_all_bounds(net, box, INTERVAL)
    mixed = [pos for pos in range(m, net.n_state)
             if st.pre_lower[pos] < 0.0 < st.pre_upper[pos]]
    if len(mixed) > mixed_cap:
        raise ValueError(f"{len(mixed)} mixed neurons exceed the cap {mixed_cap}")
    eta = objective.eta
    best = -np.inf
    for pattern in range(1 << len(mixed)):
        active = {}
        for t, pos in enumerate(mixed):
            active[pos] = bool((pattern >> t) & 1)
        # symbolic post-activations as affine functions of the inputs
        E = np.zeros((eta, m))
        e0 = np.zeros(eta)
        E[:m, :m] = np.eye(m)[:min(m, eta)]
        model = LpModel()
        for i in range(m):
            model.add_variable(box.lower[i], box.upper[i], name=f"x{i}")
        for pos in range(m, eta):
            idx, w, b = neuron_row(net, pos)
            pc = w @ E[idx]
            p0 = float(w @ e0[idx]) + b
            on = active.get(pos, st.pre_lower[pos] >= 0.0)
            if pos in active:
                sense = GE if on else LE
                model.add_constraint(np.arange(m), pc.copy(), sense, -p0)
            if on:
                E[pos], e0[pos] = pc, p0
            # else: stays zero
        obj_c = objective.coeffs[0] @ E
        obj_0 = float(objective.coeffs[0] @ e0) + objective.constant[0]
        for i in range(m):
            model.obj[i] = float(obj_c[i])
        model.obj_constant = obj_0
        sol = solve_lp(model)
        if sol.status == LpStatus.OPTIMAL:
            best = max(best, sol.objective_value)
        elif sol.status != LpStatus.INFEASIBLE:
            raise LpBoundError(sol.status, "pattern LP")
    if not np.isfinite(best):
        raise ArithmeticError("no activation pattern was feasible")
    return best


def function_row(funcs, pos, upper):
    """Neuron ``pos``'s upper or lower function as ``(idx, w, b)``."""
    net = funcs.net
    lv, i = net.level_of[pos] - 1, net.level_row[pos]
    if upper:
        return net.levels[lv].src, funcs.upper[lv][i], funcs.upper_b[lv][i]
    return net.levels[lv].src, funcs.lower[lv][i], funcs.lower_b[lv][i]


def with_upper(funcs, pos, idx, w, b):
    """A copy of ``funcs`` in which neuron ``pos``'s upper function is
    ``w . z[idx] + b``; ``idx`` must be among the sources of its level."""
    net = funcs.net
    lv, i = net.level_of[pos] - 1, net.level_row[pos]
    upper, upper_b = [u.copy() for u in funcs.upper], [u.copy() for u in funcs.upper_b]
    upper[lv][i] = 0.0
    upper[lv][i][np.searchsorted(net.levels[lv].src, idx)] = w
    upper_b[lv][i] = b
    return replace(funcs, upper=upper, upper_b=upper_b)


@dataclass
class PassResult:
    """One objective's backward pass: bound, input point, which neurons took
    their upper function, and the residual over the inputs."""

    bound: float
    x_star: np.ndarray
    ub_used: np.ndarray
    input_expr: Objectives


def backward_pass_by_neuron(funcs, objective: Objectives) -> PassResult:
    """:func:`relucert.propagation.backward_pass` of a batch of one
    objective, one neuron at a time, highest position first."""
    net = funcs.net
    m = net.input_dim
    c = np.zeros(net.n_state)
    c[:objective.eta] = objective.coeffs[0]
    const = float(objective.constant[0])
    ub_used = np.zeros(net.n_state, dtype=bool)
    for i in range(net.n_state - 1, m - 1, -1):
        ci = c[i]
        if ci == 0.0:
            continue
        if not funcs.fixed[i]:
            raise ValueError(f"neuron position {i} has a coefficient but no bounding functions")
        idx, w, b = function_row(funcs, i, ci > 0.0)
        ub_used[i] = ci > 0.0
        c[i] = 0.0
        c[idx] += ci * w
        const += ci * b
    box = funcs.box
    x_star = np.where(c[:m] > 0.0, box.upper, np.where(c[:m] < 0.0, box.lower, box.midpoint()))
    return PassResult(bound=float(c[:m] @ x_star) + const, x_star=x_star, ub_used=ub_used,
                      input_expr=Objectives(c[None, :m], [const]))


def forward_pass_by_neuron(funcs, x_star, ub_used, eta) -> np.ndarray:
    """:func:`relucert.propagation.forward_pass` of one point, one neuron at
    a time."""
    m = funcs.net.input_dim
    z = np.zeros(funcs.net.n_state)  # a level's columns may reach past eta
    z[:m] = x_star
    for i in range(m, eta):
        idx, w, b = function_row(funcs, i, ub_used[i])
        z[i] = float(w @ z[idx]) + b
    return z[:eta]


def tightened_bound_by_neuron(funcs, objective, iterations, table=None) -> np.ndarray:
    """:func:`relucert.propagation.tightened_bound`, one objective of the
    batch at a time, with the per-neuron passes and one
    :func:`separate_sort` call per reachable mixed neuron."""
    return np.array([_tightened_one(funcs, objective.select([j]), iterations, table)
                     for j in range(len(objective))])


def _tightened_one(funcs, objective: Objectives, iterations, table) -> float:
    res = backward_pass_by_neuron(funcs, objective)
    best = res.bound
    nz = np.flatnonzero(objective.coeffs[0])
    hulls = {} if table is None else table_instances(table)
    eligible = sorted(p for p in hulls if nz.size and p <= nz[-1])
    if not eligible:
        return best
    work = funcs
    for _ in range(iterations):
        z = forward_pass_by_neuron(work, res.x_star, res.ub_used, eligible[-1] + 1)
        swapped = False
        for p in eligible:
            sep = separate_sort(hulls[p], z, z[p])
            if sep is not None and sep.violation > SWAP_VIOLATION_TOL:
                work = with_upper(work, p, sep.cut.idx, sep.cut.coeffs, sep.cut.constant)
                swapped = True
        if not swapped:
            break
        res = backward_pass_by_neuron(work, objective)
        best = min(best, res.bound)
    return best
