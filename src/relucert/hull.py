"""Exact convex hull of a single ReLU neuron over a box.

The object of study is ``S = {(x, y) in [L, U] x R : y = max(0, w.x + b)}``.
When the pre-activation ``w.x + b`` changes sign over the box, the convex
hull of ``S`` is ``y >= w.x + b``, ``y >= 0``, the box bounds, and one upper
inequality per pair ``(I, h)`` drawn from an (exponentially large but
efficiently separable) family indexed by box edges crossed by the
pre-activation hyperplane.

Index sets handed to and returned from this module (``low_set``,
``anchor``) are 0-based positions into the instance's *retained* coordinate
list: zero weights and degenerate coordinates are folded away at
construction.  ``support`` maps retained positions to the coordinates of the
point the instance reads.  :func:`make_hull_instance` numbers them as ``w``
is numbered; the forward sweep renumbers them with state positions, so its
instances read the whole state vector ``z`` as it is, and each emitted cut
names the state positions it reads and nothing else.

Separation runs on a :class:`HullTable`: the sweep appends each mixed
neuron's instance as one zero-padded row, in position order, and one call
computes, for a stack of points (one per objective), the envelope values of
a prefix of rows with one ``argsort`` along the rows, then builds in one
vectorised step (:meth:`HullTable.cuts`) the cuts of just the violated
(point, row) pairs, the same floats :func:`cut_from_pair` gives.
:func:`separate_sort` and :func:`minimize_upper_envelope_sort` are one-row
calls into it, so there is one envelope implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The separator orders coordinates by their ratios rounded to this grid.
RATIO_GRID = 1e-9

ALWAYS_ACTIVE = "always_active"
ALWAYS_INACTIVE = "always_inactive"
MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class HullInstance:
    """One neuron's hull data, reduced to coordinates that matter.

    Attributes:
        dim: length of the weight vector the instance was built from.
        support: positions of the retained coordinates in the point the
            instance reads (state positions for the sweep's instances).
        w: retained (nonzero) weights.
        b: bias with every folded coordinate's contribution absorbed.
        lower/upper: box bounds of the retained coordinates.
        min_corner/max_corner: per retained coordinate, the bound value that
            minimizes / maximizes its weighted term; the pre-activation is
            smallest at ``min_corner`` and largest at ``max_corner``.
        cap: ``w * (max_corner - min_corner)``, strictly positive.
        val_max: pre-activation at ``max_corner`` (its maximum over the box).
        val_min: pre-activation at ``min_corner`` (its minimum over the box).
    """

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
    """A realized upper inequality ``y <= coeffs . x[idx] + constant``.

    ``index_set`` and ``anchor`` are the defining pair: the inequality
    interpolates the ReLU between the box corner that zeroes it and the
    corner reached by raising the ``anchor`` coordinate.  ``idx`` holds the
    ``support`` positions of ``index_set`` and ``anchor``, ascending, and
    ``coeffs`` their coefficients.
    """

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
    and ``max_corner`` elsewhere.

    Over all subsets this is the vertex function whose sign pattern indexes
    the hull's upper facets; it decreases as ``low_set`` grows.
    """
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


def _require_mixed(inst):
    if classify_phase(inst) != MIXED:
        raise ValueError("operation requires a sign-spanning (mixed) instance")


def cut_from_pair(inst: HullInstance, low_set, anchor: int) -> HullCut:
    """Expand the pair ``(low_set, anchor)`` into explicit coefficients.

    The inequality is
    ``y <= sum_{i in I} w_i (x_i - min_corner_i)
           + corner_value(I)/(max_corner_h - min_corner_h) (x_h - min_corner_h)``
    expanded to ``a.x + c`` over the ``support`` positions of ``I`` and ``h``.
    ``low_set`` must list retained positions in strictly increasing order.
    Raises if it does not, or if the pair does not define a facet, i.e.
    unless ``corner_value(I) >= 0 > corner_value(I + anchor)``.
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
    # 0 - (a + b + ...), summed left to right, is 0 - a - b - ... bit for bit
    const = 0.0 - float(np.cumsum(inst.w[I] * inst.min_corner[I])[-1]) if I.size else 0.0
    slope = ell_i / (inst.max_corner[h] - inst.min_corner[h])
    const -= slope * inst.min_corner[h]
    k = np.concatenate([I[:at], [h], I[at:]])
    coeffs = inst.w[k]
    coeffs[at] = slope
    return HullCut(index_set=tuple(I.tolist()), anchor=h, idx=inst.support[k],
                   coeffs=coeffs, constant=const)


def _pairwise_sums(g, n) -> np.ndarray:
    """``ndarray.sum`` of each row's first ``n[i]`` entries, bit for bit.

    ``g`` holds nonnegative entries, zero after each row's first ``n[i]``.
    numpy sums a run of fewer than 8 values left to right from 0, a run of
    up to 128 in eight interleaved partial sums combined pairwise and then
    its leftover tail, and a longer one as the sum of its two halves (the
    first a multiple of 8 long).  This replays that order on every row at
    once; the exact zeros after ``n[i]`` change no partial sum.
    """
    rows, width = g.shape
    if width % 8:
        g = np.concatenate([g, np.zeros((rows, -width % 8))], axis=1)
    cols = np.arange(g.shape[1])
    full = np.where(n >= 8, n - n % 8, 0)[:, None]
    r = np.where(cols < full, g, 0.0).reshape(rows, g.shape[1] // 8, 8).cumsum(axis=1)[:, -1]
    head = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    out = np.cumsum(np.column_stack([head, np.where(cols >= full, g, 0.0)]), axis=1)[:, -1]
    big = n > 128
    if big.any():
        nb, gb = n[big], g[big]
        half = nb // 2 - (nb // 2) % 8
        right = np.take_along_axis(gb, np.minimum(cols + half[:, None], cols[-1]), axis=1)
        out[big] = (_pairwise_sums(np.where(cols < half[:, None], gb, 0.0), half)
                    + _pairwise_sums(np.where(cols < (nb - half)[:, None], right, 0.0), nb - half))
    return out


class HullTable:
    """Hull instances of mixed neurons, padded into the rows of one table.

    Row ``i`` holds instance ``insts[i]`` of the neuron at position
    ``pos[i]``: its retained coordinates fill columns ``0 .. size - 1`` and
    the padding after them never enters an index set.  Rows are appended in
    position order, so the neurons below any position are a prefix.  Every
    instance reads the same point ``z`` through its ``support``.  The table
    has room for ``rows`` instances of up to ``width`` coordinates.
    """

    def __init__(self, rows: int, width: int):
        self.n = 0
        self.insts: list[HullInstance] = []
        self.pos = np.empty(rows, dtype=np.intp)
        self.val_max = np.empty(rows)
        self.support = np.zeros((rows, width), dtype=np.intp)
        self.min_corner = np.zeros((rows, width))
        self.span = np.ones((rows, width))
        self.w = np.zeros((rows, width))
        self.cap = np.zeros((rows, width))
        self.valid = np.zeros((rows, width), dtype=bool)

    @classmethod
    def single(cls, inst: HullInstance) -> "HullTable":
        """A table of one row, holding ``inst``."""
        table = cls(1, inst.size)
        table.append(0, inst)
        return table

    def append(self, pos: int, inst: HullInstance):
        """Add the instance of the mixed neuron at ``pos``, after all others."""
        _require_mixed(inst)
        if self.n and pos <= self.pos[self.n - 1]:
            raise ValueError("rows must be appended in increasing position order")
        i, k = self.n, inst.size
        self.insts.append(inst)
        self.pos[i], self.val_max[i] = pos, inst.val_max
        self.support[i, :k] = inst.support
        self.min_corner[i, :k] = inst.min_corner
        self.span[i, :k] = inst.max_corner - inst.min_corner
        self.w[i, :k], self.cap[i, :k], self.valid[i, :k] = inst.w, inst.cap, True
        self.n += 1

    def rows_below(self, limit):
        """Number of rows whose neuron position is below ``limit`` (an
        array of limits gives an array of counts)."""
        return np.searchsorted(self.pos[:self.n], limit)

    def envelopes(self, z, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least upper hull inequality of the first ``k`` rows at ``z``.

        ``z`` is one point, or a stack of points along its leading axes;
        the results carry the same leading axes.  The sorting greedy, row by
        row in one step: sort each row's coordinates by ``ratios`` rounded
        to ``RATIO_GRID``, nondecreasing, ties by position; grow the index
        set while the corner value stays nonnegative, and anchor at the
        coordinate that first drives it negative.  Returns the envelope
        values, a mask of each row's index set and the anchors, without
        building cuts.  O(n log n) per row.

        Relaxation optima sit at box corners, so many ratios tie at 0 or 1;
        unrounded, the last bit of a box bound would pick the order among
        them and so the facet.  Rounding makes that choice stable, at a cost
        of at most ``RATIO_GRID`` times the capacity in the value.  Every
        order gives a valid facet, which :meth:`cuts` checks.  Sums run left
        to right over a whole row, so padding adds exact zeros and a row's
        value depends neither on the table it sits in nor on the other
        points.
        """
        z = np.asarray(z, dtype=float)
        lead, width = z.shape[:-1], self.w.shape[1]
        z = z.reshape(-1, z.shape[-1])
        q = z.shape[0]
        valid, cap, span = self.valid[:k], self.cap[:k], self.span[:k]
        dx = z[:, self.support[:k]] - self.min_corner[:k]
        key = np.where(valid, np.round(dx / span / RATIO_GRID), np.inf)
        # one flat row per (point, table row); tab is the table row
        order = np.argsort(key, axis=-1, kind="stable").reshape(q * k, width)
        flat, tab = np.arange(q * k), np.tile(np.arange(k), q)
        running = np.cumsum(self.cap[tab[:, None], order], axis=1)
        # first position whose cumulative capacity overshoots the slack at
        # the all-max corner; it exists, inside the row, for a mixed instance
        stop = np.argmax(running > self.val_max[tab, None], axis=1)
        low = np.empty((q * k, width), dtype=bool)
        low[flat[:, None], order] = np.arange(width) < stop[:, None]
        h = order[flat, stop]
        low = low.reshape(q, k, width)
        ell = self.val_max[:k] - np.cumsum(np.where(low, cap, 0.0), axis=-1)[..., -1]
        value = np.cumsum(np.where(low, self.w[:k] * dx, 0.0), axis=-1)[..., -1]
        value += (ell.reshape(-1) / span[tab, h] * dx.reshape(q * k, width)[flat, h]).reshape(q, k)
        return value.reshape(lead + (k,)), low.reshape(lead + (k, width)), h.reshape(lead + (k,))

    def cuts(self, rows, low, h) -> tuple[np.ndarray, np.ndarray]:
        """Expand the pairs ``(low[e], h[e])`` of rows ``rows[e]`` into
        explicit upper inequalities, all in one step.

        Pair ``e`` gives ``y <= coeffs[e] . z[support[rows[e]]] + constant[e]``
        over the row's columns: the floats :func:`cut_from_pair` computes
        for the same pair, its index set summed as ``np.sum`` sums it and its
        constant left to right.  Raises, as it does, unless every anchor is
        a retained coordinate outside its index set and every pair defines a
        facet, i.e. ``corner_value(I) >= 0 > corner_value(I + anchor)``.
        """
        rows, low, h = np.asarray(rows, dtype=np.intp), np.asarray(low, dtype=bool), np.asarray(h)
        if not rows.size:
            return np.zeros(low.shape), np.zeros(0)
        e = np.arange(rows.size)
        valid = self.valid[rows]
        bad = ~valid[e, h] | low[e, h] | (low & ~valid).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"anchor {h[i]} invalid for index set "
                             f"{tuple(np.flatnonzero(low[i]).tolist())}")
        cap = np.where(low, self.cap[rows], 0.0)
        # np.sum of fewer than 8 values adds them left to right, as cumsum
        # does; a larger index set goes through the pairwise replay, its
        # capacities ascending by column and left-aligned
        total = np.cumsum(cap, axis=1)[:, -1]
        n = low.sum(axis=1)
        big = np.flatnonzero(n >= 8)
        if big.size:
            packed = np.take_along_axis(cap[big], np.argsort(~low[big], axis=1, kind="stable"),
                                        axis=1)
            total[big] = _pairwise_sums(packed, n[big])
        ell = self.val_max[rows] - total
        ell_h = ell - self.cap[rows, h]
        bad = ~((ell >= 0.0) & (ell_h < 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"pair ({tuple(np.flatnonzero(low[i]).tolist())}, {h[i]}) is not "
                             f"in the cut family: values {ell[i]}, {ell_h[i]}")
        w, min_corner = np.where(low, self.w[rows], 0.0), self.min_corner[rows]
        constant = 0.0 - np.cumsum(w * min_corner, axis=1)[:, -1]
        slope = ell / self.span[rows, h]
        constant -= slope * min_corner[e, h]
        w[e, h] = slope
        return w, constant

    def separate(self, z, y, tol: float = 0.0) -> "Separations":
        """Pairs of a point ``z[p]`` and a row ``i < y.shape[-1]`` whose
        ``y[p, i]`` exceeds the row's envelope at ``z[p]`` by more than
        ``tol``, each with its most violated upper inequality.

        ``z`` is a ``(q, n)`` stack of points and ``y`` a ``(q, k)`` array,
        or one point and its ``k`` values.  One :meth:`envelopes` step sorts
        the whole block; one :meth:`cuts` step builds the cuts of all the
        violated pairs, and only theirs.  Pairs come point by point, rows
        ascending.
        """
        z, y = np.atleast_2d(z), np.atleast_2d(np.asarray(y, dtype=float))
        envelope, low, h = self.envelopes(z, y.shape[1])
        violation = y - envelope
        point, row = np.nonzero(violation > tol)
        low, h, envelope, violation = low[point, row], h[point, row], envelope[point, row], \
            violation[point, row]
        coeffs, constant = self.cuts(row, low, h)
        return Separations(self, point, row, low, h, coeffs, constant, envelope, violation)


@dataclass(eq=False)
class Separations:
    """The violated (point, row) pairs of one :meth:`HullTable.separate`.

    Pair ``e`` is row ``row[e]`` of ``table`` at point ``point[e]``; its
    index set is the mask ``low[e]`` over the row's columns and ``anchor[e]``
    its anchor.  Its cut is ``coeffs[e] . z[table.support[row[e]]] +
    constant[e]`` over the row's columns, zero outside the pair.
    """

    table: HullTable
    point: np.ndarray
    row: np.ndarray
    low: np.ndarray
    anchor: np.ndarray
    coeffs: np.ndarray
    constant: np.ndarray
    envelope: np.ndarray
    violation: np.ndarray

    def __len__(self) -> int:
        return self.row.size

    def cut(self, e: int) -> HullCut:
        """Pair ``e``'s cut over the positions it names, as
        :func:`cut_from_pair` gives it."""
        low, anchor = self.low[e], int(self.anchor[e])
        keep = low.copy()
        keep[anchor] = True
        return HullCut(index_set=tuple(np.flatnonzero(low).tolist()), anchor=anchor,
                       idx=self.table.support[self.row[e], keep], coeffs=self.coeffs[e, keep],
                       constant=float(self.constant[e]))


def minimize_upper_envelope_sort(inst: HullInstance, x) -> tuple[float, np.ndarray, int]:
    """Least upper hull inequality at ``x`` via the sorting greedy: one row
    of :meth:`HullTable.envelopes`.

    Returns the envelope value at ``x``, the index set as ascending retained
    positions and the anchor, without building the cut.
    """
    value, low, h = HullTable.single(inst).envelopes(x, 1)
    return float(value[0]), np.flatnonzero(low[0]), int(h[0])


def separate_sort(inst: HullInstance, x, y) -> Separation | None:
    """Most violated upper inequality at ``(x, y)``, or None if none is.

    One row of :meth:`HullTable.separate`: the cut is built only when ``y``
    exceeds the envelope.  Any positive violation counts; callers wanting a
    tolerance filter on it compare ``Separation.violation`` themselves.
    """
    found = HullTable.single(inst).separate(x, [y])
    if not len(found):
        return None
    return Separation(cut=found.cut(0), envelope=float(found.envelope[0]),
                      violation=float(found.violation[0]))
