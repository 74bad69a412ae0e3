"""Exact convex hull of a single ReLU neuron over a box.

The object of study is ``S = {(x, y) in [L, U] x R : y = max(0, w.x + b)}``.
When the pre-activation ``w.x + b`` changes sign over the box, the convex
hull of ``S`` is ``y >= w.x + b``, ``y >= 0``, the box bounds, and one upper
inequality per pair ``(I, h)`` drawn from an (exponentially large but
efficiently separable) family indexed by box edges crossed by the
pre-activation hyperplane.

A :class:`HullTable` holds the instances of mixed neurons as padded rows.
A row is added with its zero weights and flat box sides folded into its
bias; its columns hold the retained coordinates, which index sets and
anchors name, and its ``support`` the state positions they read, so each
cut names the state positions it reads.  The forward sweep adds a run's
mixed neurons in one step.  One :meth:`HullTable.separate` call sorts a
stack of points (one per objective) against a prefix of rows with one
``argsort`` and builds the cuts of just the violated (point, row) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The separator orders coordinates by their ratios rounded to this grid.
RATIO_GRID = 1e-9


class HullTable:
    """Hull instances of mixed neurons, padded into the rows of one table.

    Row ``i`` holds the instance of the neuron at position ``pos[i]``: its
    retained coordinates fill the columns marked ``valid``, in source order,
    and the padding after them never enters an index set.  Rows are added
    in position order, so the neurons below any position are a prefix.
    Every instance reads the same point ``z`` through its ``support``.  The
    table has room for ``rows`` instances of up to ``width`` coordinates.
    """

    def __init__(self, rows: int, width: int):
        self.n = 0
        self.pos = np.empty(rows, dtype=np.intp)
        self.val_max = np.empty(rows)
        self.support = np.zeros((rows, width), dtype=np.intp)
        self.min_corner = np.zeros((rows, width))
        self.span = np.ones((rows, width))
        self.w = np.zeros((rows, width))
        self.cap = np.zeros((rows, width))
        self.valid = np.zeros((rows, width), dtype=bool)

    def add(self, pos, src, weights, bias, lower, upper):
        """Add the instances of the neurons at positions ``pos`` (ascending,
        after every row so far) in one step: neuron ``pos[i]``'s
        pre-activation is ``weights[i] . z[src] + bias[i]`` over ``lower <=
        z[src] <= upper``.  Zero weights and flat sides fold into the bias.
        Per retained coordinate, ``min_corner`` minimizes its weighted term,
        ``span`` steps to the other bound and ``cap = w * span > 0``;
        ``val_max`` is the pre-activation's maximum.  A neuron whose
        pre-activation, by these sums, does not change sign over the box
        gets no row: a bound at rounding distance from 0 may call it mixed,
        and keeping its initial relaxation is sound."""
        pos, src = np.asarray(pos, dtype=np.intp), np.asarray(src, dtype=np.intp)
        if not pos.size:
            return
        if np.any(pos[1:] <= pos[:-1]) or (self.n and pos[0] <= self.pos[self.n - 1]):
            raise ValueError("rows must be added in increasing position order")
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        keep = (weights != 0.0) & (lower < upper)
        bias = np.asarray(bias, dtype=float) + np.where(keep, 0.0, weights) @ lower
        order = np.argsort(~keep, axis=1, kind="stable")  # retained sources first
        valid = np.take_along_axis(keep, order, axis=1)
        w = np.where(valid, np.take_along_axis(weights, order, axis=1), 0.0)
        lo, hi = lower[order], upper[order]
        min_corner = np.where(valid, np.where(w >= 0.0, lo, hi), 0.0)
        max_corner = np.where(valid, np.where(w >= 0.0, hi, lo), 1.0)
        span = max_corner - min_corner
        cap = w * span
        val_max = np.einsum("ij,ij->i", w, max_corner) + bias
        mixed = (val_max >= 0.0) & (cap.sum(axis=1) > val_max)
        pos, val_max, valid, support, min_corner, span, w, cap = (a[mixed] for a in (
            pos, val_max, valid, np.where(valid, src[order], 0), min_corner, span, w, cap))
        rows, cols = slice(self.n, self.n + pos.size), slice(0, src.size)
        self.pos[rows], self.val_max[rows], self.valid[rows, cols] = pos, val_max, valid
        self.support[rows, cols], self.min_corner[rows, cols] = support, min_corner
        self.span[rows, cols], self.w[rows, cols], self.cap[rows, cols] = span, w, cap
        self.n += pos.size

    def rows_below(self, limit):
        """Number of rows whose neuron position is below ``limit`` (an
        array of limits gives an array of counts)."""
        return np.searchsorted(self.pos[:self.n], limit)

    def envelopes(self, z, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least upper hull inequality of the first ``k`` rows at ``z``.

        ``z`` is one point, or a stack of points along its leading axes;
        the results carry the same leading axes.  The sorting greedy, row by
        row in one step: sort each row's coordinates by their ratios
        ``(z - min_corner) / span`` rounded to ``RATIO_GRID``, nondecreasing,
        ties by position; grow the index set while the corner value stays
        nonnegative, and anchor at the coordinate that first drives it
        negative.  Returns the envelope
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
        over the row's columns, zero outside the pair: ``w_i`` on each
        coordinate ``i`` of the index set ``I`` and ``ell / span_h`` on the
        anchor ``h``, where ``ell = val_max - sum_{i in I} cap_i`` is the
        pre-activation at the corner taking ``min_corner`` on ``I`` and the
        other bound elsewhere.  Raises unless every anchor is a retained
        coordinate outside its index set and every pair defines a facet,
        i.e. ``ell >= 0 > ell - cap_h``.
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
        total = np.cumsum(np.where(low, self.cap[rows], 0.0), axis=1)[:, -1]
        ell = self.val_max[rows] - total
        ell_h = ell - self.cap[rows, h]
        bad = ~((ell >= 0.0) & (ell_h < 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"pair ({tuple(np.flatnonzero(low[i]).tolist())}, {h[i]}) is not "
                             f"in the cut family: values {ell[i]}, {ell_h[i]}")
        w, min_corner = np.where(low, self.w[rows], 0.0), self.min_corner[rows]
        slope = ell / self.span[rows, h]
        constant = -np.cumsum(w * min_corner, axis=1)[:, -1] - slope * min_corner[e, h]
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
        return Separations(point, row, low, h, coeffs, constant, envelope, violation)


@dataclass(eq=False)
class Separations:
    """The violated (point, row) pairs of one :meth:`HullTable.separate`.

    Pair ``e`` is row ``row[e]`` of the table at point ``point[e]``; its
    index set is the mask ``low[e]`` over the row's columns and ``anchor[e]``
    its anchor.  Its cut is ``coeffs[e] . z[support[row[e]]] + constant[e]``
    over the row's columns, zero outside the pair.
    """

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
