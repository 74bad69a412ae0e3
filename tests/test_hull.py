import math

import numpy as np
import pytest

from relucert import hull
from relucert.network import BoxDomain
from relucert.propagation import compute_all_bounds

from conftest import make_skip_network, random_mixed_instance
from oracles import (ALWAYS_ACTIVE, ALWAYS_INACTIVE, MIXED, add_instance, classify_phase,
                     corner_value, cut_from_pair, delta_upper_value, enumerate_cut_pairs,
                     envelope_min_by_enumeration, make_hull_instance,
                     minimize_upper_envelope_median, minimize_upper_envelope_sort, relu_value,
                     separate_median, separate_sort, separation_cut, sorting_greedy_row,
                     table_envelopes)


def upper_count_bound(d):
    return math.ceil(d / 2) * math.comb(d, math.ceil(d / 2))


class TestCornerValue:
    def test_h22_values(self, h22_instance):
        assert corner_value(h22_instance, ()) == 2.0
        assert corner_value(h22_instance, (0,)) == -2.5
        assert corner_value(h22_instance, (1,)) == 0.5
        assert corner_value(h22_instance, (0, 1)) == -4.0

    def test_unit_square_instance(self):
        # w=(1,1), b=-1.5 over [0,1]^2
        inst = make_hull_instance([1.0, 1.0], -1.5, [0.0, 0.0], [1.0, 1.0])
        assert corner_value(inst, ()) == 0.5
        assert corner_value(inst, (0,)) == -0.5
        assert corner_value(inst, (1,)) == -0.5

    def test_empty_support_returns_bias(self):
        inst = make_hull_instance([0.0, 0.0], 0.7, [0.0, 0.0], [1.0, 1.0])
        assert inst.size == 0
        assert corner_value(inst, ()) == 0.7

    def test_degenerate_coordinate_folded(self):
        inst = make_hull_instance([2.0, 1.0], 0.0, [0.5, 0.0], [0.5, 1.0])
        assert inst.size == 1
        assert inst.b == 1.0  # 2 * 0.5 folded in
        assert corner_value(inst, ()) == 2.0

    def test_bad_subset_rejected(self, h22_instance):
        with pytest.raises(ValueError):
            corner_value(h22_instance, (0, 0))
        with pytest.raises(ValueError):
            corner_value(h22_instance, (5,))


class TestPhase:
    def test_h22_mixed(self, h22_instance):
        assert classify_phase(h22_instance) == MIXED

    def test_always_active(self):
        inst = make_hull_instance([1.0], 0.0, [0.0], [1.0])
        assert classify_phase(inst) == ALWAYS_ACTIVE

    def test_always_inactive(self):
        inst = make_hull_instance([1.0], -5.0, [0.0], [1.0])
        assert classify_phase(inst) == ALWAYS_INACTIVE


class TestEnumeration:
    def test_h22_pair_family(self, h22_instance):
        assert enumerate_cut_pairs(h22_instance) == [((), 0), ((1,), 0)]

    @pytest.mark.parametrize("d", range(2, 11))
    def test_extremal_counts(self, d):
        low = make_hull_instance(np.ones(d), -0.5, np.zeros(d), np.ones(d))
        assert len(enumerate_cut_pairs(low)) == d
        high = make_hull_instance(np.ones(d), -math.ceil(d / 2),
                                  np.zeros(d), np.ones(d))
        assert len(enumerate_cut_pairs(high)) == upper_count_bound(d)

    def test_random_counts_within_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inst = random_mixed_instance(rng, int(rng.integers(1, 9)))
            d = inst.size
            cnt = len(enumerate_cut_pairs(inst))
            assert d <= cnt <= upper_count_bound(d)

    def test_enumeration_cap(self):
        inst = make_hull_instance(np.ones(8), -4.0, np.zeros(8), np.ones(8))
        with pytest.raises(ValueError):
            enumerate_cut_pairs(inst, cap=5)

    def test_refuses_fixed_phase(self):
        inst = make_hull_instance([1.0], 1.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            enumerate_cut_pairs(inst)


class TestCuts:
    def test_h22_explicit_cuts(self, h22_instance):
        c1 = cut_from_pair(h22_instance, (), 0)
        assert c1.idx.tolist() == [0]
        assert np.allclose(c1.coeffs, [-2.0 / 3.0], atol=1e-15)
        assert c1.constant == pytest.approx(2.0, abs=1e-15)
        c2 = cut_from_pair(h22_instance, (1,), 0)
        assert c2.idx.tolist() == [0, 1]
        assert np.allclose(c2.coeffs, [-1.0 / 6.0, 1.0], atol=1e-15)
        assert c2.constant == pytest.approx(0.5, abs=1e-15)

    def test_unit_square_cuts(self):
        inst = make_hull_instance([1.0, 1.0], -1.5, [0.0, 0.0], [1.0, 1.0])
        assert enumerate_cut_pairs(inst) == [((), 0), ((), 1)]
        a = cut_from_pair(inst, (), 0)
        b = cut_from_pair(inst, (), 1)
        assert a.idx.tolist() == [0] and np.allclose(a.coeffs, [0.5]) and a.constant == 0.0
        assert b.idx.tolist() == [1] and np.allclose(b.coeffs, [0.5]) and b.constant == 0.0

    def test_filtered_coordinate_gets_zero_coefficient(self):
        inst = make_hull_instance([1.0, 0.0, 1.0], -1.5,
                                  [0.0, -9.0, 0.0], [1.0, 9.0, 1.0])
        # the cut reads original coordinate 2 (retained position 1), never
        # the zero-weight coordinate 1
        cut = cut_from_pair(inst, (), 1)
        assert cut.idx.tolist() == [2]
        assert cut.value([0.0, -9.0, 1.0]) == cut.value([0.0, 9.0, 1.0])

    def test_pair_not_in_family_rejected(self, h22_instance):
        with pytest.raises(ValueError):
            cut_from_pair(h22_instance, (), 1)   # corner_value({1}) = 0.5 >= 0
        with pytest.raises(ValueError):
            cut_from_pair(h22_instance, (0,), 1)  # corner_value({0}) < 0

    def test_low_set_must_be_increasing_and_in_range(self):
        inst = make_hull_instance([0.2, 0.2, 1.0], -0.9, [0.0] * 3, [1.0] * 3)
        ref = cut_from_pair(inst, (0, 1), 2)
        same = cut_from_pair(inst, np.array([0, 1], dtype=np.intp), 2)
        assert same.index_set == ref.index_set == (0, 1)
        assert same.idx.tolist() == ref.idx.tolist() == [0, 1, 2]
        assert same.coeffs.tolist() == ref.coeffs.tolist() and same.constant == ref.constant
        for low_set, anchor in (((1, 0), 2), ((0, 0), 2), ((0, 3), 2), ((-1, 0), 2),
                                ((0, 1), 1), ((0, 1), 3)):
            with pytest.raises(ValueError):
                cut_from_pair(inst, low_set, anchor)

    def test_validity_on_samples(self):
        # every enumerated cut upper-bounds the ReLU over the box
        rng = np.random.default_rng(23)
        for _ in range(200):
            inst = random_mixed_instance(rng, int(rng.integers(1, 11)))
            cuts = [cut_from_pair(inst, I, h) for I, h in enumerate_cut_pairs(inst)]
            X = rng.uniform(inst.lower, inst.upper, (100, inst.size))
            for x_loc in X:
                x = np.zeros(inst.dim)
                x[inst.support] = x_loc
                y = relu_value(inst, x)
                assert y >= inst.preactivation(x) - 1e-12
                for c in cuts:
                    assert y <= c.value(x) + 1e-9

    def test_tight_at_anchor_vertices(self):
        # each cut holds with equality at its two defining box corners
        rng = np.random.default_rng(31)
        for _ in range(100):
            inst = random_mixed_instance(rng, int(rng.integers(1, 9)))
            for I, h in enumerate_cut_pairs(inst):
                cut = cut_from_pair(inst, I, h)
                both = set(I) | {h}
                x0 = np.zeros(inst.dim)
                x0[inst.support] = [inst.min_corner[i] if i in both else inst.max_corner[i]
                                    for i in range(inst.size)]
                assert relu_value(inst, x0) == pytest.approx(0.0, abs=1e-9)
                assert cut.value(x0) == pytest.approx(0.0, abs=1e-9)
                x1 = np.zeros(inst.dim)
                x1[inst.support] = [inst.min_corner[i] if i in I else inst.max_corner[i]
                                    for i in range(inst.size)]
                ell = corner_value(inst, I)
                assert relu_value(inst, x1) == pytest.approx(ell, abs=1e-9)
                assert cut.value(x1) == pytest.approx(ell, abs=1e-9)


class TestSeparation:
    def test_h22_most_violated(self, h22_instance):
        sep = separate_sort(h22_instance, [1.0, 1.5], 1.5)
        assert sep.cut.index_set == () and sep.cut.anchor == 0
        assert sep.envelope == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert sep.violation == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_h22_no_violation(self, h22_instance):
        assert separate_sort(h22_instance, [1.0, 1.5], 1.0) is None

    def test_unit_square_point(self):
        inst = make_hull_instance([1.0, 1.0], -1.5, [0.0, 0.0], [1.0, 1.0])
        sep = separate_sort(inst, [0.6, 0.3], 0.2)
        assert sep.envelope == pytest.approx(0.15, abs=1e-12)
        assert sep.violation == pytest.approx(0.05, abs=1e-12)
        # the chosen inequality is y <= 0.5 x2
        assert sep.cut.idx.tolist() == [1] and np.allclose(sep.cut.coeffs, [0.5])
        assert envelope_min_by_enumeration(inst, [0.6, 0.3]) == pytest.approx(0.15, abs=1e-12)

    def test_median_matches_sort_on_golden(self, h22_instance):
        va, low_a, ha = minimize_upper_envelope_sort(h22_instance, [1.0, 1.5])
        vb, low_b, hb = minimize_upper_envelope_median(h22_instance, [1.0, 1.5])
        assert va == pytest.approx(vb, abs=0)
        assert low_a.tolist() == low_b.tolist() and ha == hb

    def test_sort_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            inst = random_mixed_instance(rng, int(rng.integers(1, 11)),
                                         allow_zero_weights=True)
            x = rng.uniform(inst.lower, inst.upper)
            xg = np.zeros(inst.dim)
            xg[inst.support] = x
            val, _, _ = minimize_upper_envelope_sort(inst, xg)
            assert val == pytest.approx(envelope_min_by_enumeration(inst, xg), abs=1e-9)

    def test_median_matches_sort_random(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            inst = random_mixed_instance(rng, int(rng.integers(1, 51)))
            xg = np.zeros(inst.dim)
            xg[inst.support] = rng.uniform(inst.lower, inst.upper)
            vs, low_s, hs = minimize_upper_envelope_sort(inst, xg)
            vm, low_m, hm = minimize_upper_envelope_median(inst, xg)
            assert vm == pytest.approx(vs, abs=1e-9)
            assert low_s.tolist() == low_m.tolist() and hs == hm

    def test_all_ratios_tied(self):
        # identical ratios everywhere: value must still match enumeration
        inst = make_hull_instance(np.ones(6), -3.0, np.zeros(6), np.ones(6))
        x = np.full(6, 0.5)
        vs, _, _ = minimize_upper_envelope_sort(inst, x)
        vm, _, _ = minimize_upper_envelope_median(inst, x)
        target = envelope_min_by_enumeration(inst, x)
        assert vs == pytest.approx(target, abs=1e-9)
        assert vm == pytest.approx(target, abs=1e-9)

    def test_cut_built_only_when_violated(self, monkeypatch):
        built = []

        real = hull.HullTable.cuts

        def counting_cuts(table, rows, low, h):
            built.extend(rows)
            return real(table, rows, low, h)

        monkeypatch.setattr(hull.HullTable, "cuts", counting_cuts)
        rng = np.random.default_rng(9)
        for _ in range(200):
            inst = random_mixed_instance(rng, int(rng.integers(1, 31)))
            x = np.zeros(inst.dim)
            x[inst.support] = rng.uniform(inst.lower, inst.upper)
            env = separate_sort(inst, x, np.inf).envelope
            built.clear()
            assert separate_sort(inst, x, env - 0.01) is None
            assert separate_sort(inst, x, env) is None
            assert not built
            assert separate_sort(inst, x, env + 0.01) is not None
            assert len(built) == 1

    def test_violated_cut_meets_envelope_at_point(self):
        # folded coordinates (zero weights, flat box sides) never enter a cut
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 21))
            w = rng.uniform(-2.0, 2.0, n)
            lo = rng.uniform(-1.0, 1.0, n)
            hi = lo + rng.uniform(0.1, 2.0, n)
            w[rng.random(n) < 0.2] = 0.0
            flat = rng.random(n) < 0.2
            hi[flat] = lo[flat]
            z_lo = float(np.minimum(w * lo, w * hi).sum())
            z_hi = float(np.maximum(w * lo, w * hi).sum())
            inst = make_hull_instance(w, -rng.uniform(z_lo, z_hi), lo, hi)
            if classify_phase(inst) != MIXED:
                continue
            x = rng.uniform(lo, hi)
            sep = separate_sort(inst, x, np.inf)
            assert sep.cut.value(x) == pytest.approx(sep.envelope, abs=1e-9)
            assert np.isin(sep.cut.idx, inst.support).all()
            assert not np.isin(sep.cut.idx, np.flatnonzero((w == 0.0) | flat)).any()

    def test_separation_at_hull_boundary_returns_none(self, h22_instance):
        # y exactly on the envelope is inside the hull
        val, _, _ = minimize_upper_envelope_sort(h22_instance, [1.0, 1.5])
        assert separate_sort(h22_instance, [1.0, 1.5], val) is None
        assert separate_median(h22_instance, [1.0, 1.5], val) is None


class TestDeltaUpper:
    def test_h22_point(self, h22_instance):
        assert delta_upper_value(h22_instance, [1.0, 1.5]) == pytest.approx(1.5, abs=1e-12)

    def test_anchors(self, h22_instance):
        # at the box corners realizing the extreme pre-activations the chord
        # passes through 0 and through the maximum
        x_min = [3.0, 0.0]   # weights (-1.5, 1): preactivation -4
        x_max = [0.0, 1.5]   # preactivation 2
        assert delta_upper_value(h22_instance, x_min) == pytest.approx(0.0, abs=1e-12)
        assert delta_upper_value(h22_instance, x_max) == pytest.approx(2.0, abs=1e-12)

    def test_envelope_dominates_chord(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            inst = random_mixed_instance(rng, int(rng.integers(1, 9)))
            for _ in range(20):
                xg = np.zeros(inst.dim)
                xg[inst.support] = rng.uniform(inst.lower, inst.upper)
                val, _, _ = minimize_upper_envelope_sort(inst, xg)
                assert val <= delta_upper_value(inst, xg) + 1e-9

    def test_strict_improvement_at_golden_point(self, h22_instance):
        val, _, _ = minimize_upper_envelope_sort(h22_instance, [1.0, 1.5])
        gap = delta_upper_value(h22_instance, [1.0, 1.5]) - val
        assert gap >= 1.0 / 6.0 - 1e-9


class TestHullTable:
    """The padded table against one-instance calls and the median oracle."""

    @staticmethod
    def tied_point(inst, rng):
        """A box corner or face midpoint: every ratio is 0, 1/2 or 1."""
        r = rng.choice([0.0, 0.5, 1.0], inst.size)
        return inst.min_corner + r * (inst.max_corner - inst.min_corner)

    def test_rows_match_single_instance_calls(self):
        rng = np.random.default_rng(21)
        rows, offset = [], 0
        for d in range(1, 40):
            inst = random_mixed_instance(rng, d, allow_zero_weights=True)
            xg = np.zeros(inst.dim)
            xg[inst.support] = self.tied_point(inst, rng) if d % 2 \
                else rng.uniform(inst.lower, inst.upper)
            rows.append((inst, xg, offset))
            offset += inst.dim
        # one point for all rows: each instance reads its own slice of it
        z = np.concatenate([xg for _, xg, _ in rows])
        table = hull.HullTable(len(rows) + 2, max(inst.size for inst, _, _ in rows) + 3)
        for i, (inst, _, off) in enumerate(rows):
            add_instance(table, 10 * i, inst, off)
        assert table.rows_below(10 * 5) == 5 and table.rows_below(10 * 5 + 1) == 6
        reference = np.array([minimize_upper_envelope_median(inst, xg)[0]
                              for inst, xg, _ in rows])
        y = reference + rng.uniform(-0.3, 0.3, len(rows))
        env, low, h = table_envelopes(table, z, len(rows))
        assert np.allclose(env, reference, rtol=0.0, atol=1e-12)
        separated = table.separate(z, y)
        found = {int(i): e for e, i in enumerate(separated.row)}
        assert 0 < len(found) < len(rows)
        for i, (inst, xg, off) in enumerate(rows):
            assert not low[i, inst.size:].any() and h[i] < inst.size  # padding
            value, index_set, anchor = minimize_upper_envelope_sort(inst, xg)
            assert value == env[i]  # a row's value does not depend on its table
            assert index_set.tolist() == np.flatnonzero(low[i]).tolist() and anchor == h[i]
            single = separate_sort(inst, xg, y[i])
            assert (i in found) == (single is not None)
            if single is None:
                continue
            cut, want = separation_cut(table, separated, found[i]), single.cut
            assert (cut.index_set, cut.anchor) == (want.index_set, want.anchor)
            assert np.array_equal(cut.idx, want.idx + off)
            assert np.isin(cut.idx, inst.support + off).all()
            assert np.array_equal(cut.coeffs, want.coeffs) and cut.constant == want.constant
            assert separated.violation[found[i]] == single.violation

    def test_tolerance_and_prefix(self, h22_instance):
        # at (1, 1.5) the envelope is 4/3: y = 1.5 violates it by 1/6
        table = hull.HullTable(2, 2)
        add_instance(table, 5, h22_instance)
        add_instance(table, 7, h22_instance)
        x = np.array([1.0, 1.5])
        assert table.separate(x, [1.5, 1.5]).row.tolist() == [0, 1]
        assert table.separate(x, [1.5]).row.tolist() == [0]  # first row only
        assert len(table.separate(x, [1.5, 1.5], tol=0.2)) == 0
        assert len(table.separate(x, [])) == 0

    def test_rejects_fixed_sign_and_out_of_order_rows(self, h22_instance):
        # a fixed-sign neuron gets no row: here one always active, and one
        # always inactive once its flat second coordinate is folded in
        table = hull.HullTable(4, 2)
        table.add([3], [0, 1], [1.0, 1.0], [1.0], np.zeros(2), np.ones(2))
        assert table.n == 0
        table.add([3, 4], [0, 1], [[1.0, 1.0], [1.0, 1.0]], [-0.5, -1.5],
                  np.zeros(2), [1.0, 0.0])
        assert table.pos[:table.n].tolist() == [3]
        with pytest.raises(ValueError):
            add_instance(table, 3, h22_instance)
        with pytest.raises(ValueError):
            table.add([6, 5], [0, 1], [[-1.5, 1.0]] * 2, [0.5] * 2, [0.0, 0.0], [3.0, 1.5])
        assert table.n == 1


class TestBlockWidths:
    """Blocks of rows sorted at their own widths against the one-row
    oracle :func:`sorting_greedy_row`, bit for bit."""

    @staticmethod
    def random_table(rng, n=40, steps=8):
        """A table of ``steps`` multi-row ``add`` calls of random fan-ins
        over one state of ``n`` positions, some weights zero and some box
        sides flat (both fold into the bias), and the state's box."""
        lower = rng.uniform(-1.0, 1.0, n)
        upper = lower + rng.uniform(0.1, 2.0, n)
        flat = rng.random(n) < 0.15
        upper[flat] = lower[flat]
        table, pos = hull.HullTable(6 * steps, n), 0
        for _ in range(steps):
            d, r = int(rng.integers(1, 25)), int(rng.integers(1, 7))
            src = np.sort(rng.choice(n, d, replace=False))
            w = rng.uniform(-2.0, 2.0, (r, d))
            w[rng.random((r, d)) < 0.2] = 0.0
            lo, hi = lower[src], upper[src]
            vmin = np.minimum(w * lo, w * hi).sum(axis=1)
            vmax = np.maximum(w * lo, w * hi).sum(axis=1)
            table.add(pos + np.arange(r), src, w, -rng.uniform(vmin, vmax), lo, hi)
            pos += r
        return table, lower, upper

    @staticmethod
    def points(rng, lower, upper, count):
        """Random points of the box, then box corners, where every ratio
        is 0 or 1, and corners with some coordinates at face midpoints."""
        r = np.concatenate([rng.uniform(0.0, 1.0, (count, lower.size)),
                            rng.choice([0.0, 1.0], (count, lower.size)),
                            rng.choice([0.0, 0.5, 1.0], (count, lower.size))])
        return lower + r * (upper - lower)

    @staticmethod
    def assert_matches_oracle(table, z, rng):
        """At every prefix ``k`` (block edges included), the envelopes and
        separations of the first ``k`` rows are the oracle's, bit for bit."""
        want = [[sorting_greedy_row(table, i, x) for i in range(table.n)] for x in z]
        value = np.array([[v for v, _, _ in row] for row in want])
        y = value + rng.choice([-1.0, 1.0], value.shape) * rng.uniform(0.0, 0.5, value.shape)
        for k in range(table.n + 1):
            env, low, h = table_envelopes(table, z, k)
            assert env.shape == h.shape == (len(z), k)
            assert low.shape == (len(z), k, table.width_below(k))
            found = table.separate(z, y[:, :k])
            violated = [(p, i) for p in range(len(z)) for i in range(k) if y[p, i] > value[p, i]]
            assert list(zip(found.point.tolist(), found.row.tolist())) == violated
            for p in range(len(z)):
                for i in range(k):
                    v, index_set, anchor = want[p][i]
                    assert (env[p, i], h[p, i]) == (v, anchor)
                    assert tuple(np.flatnonzero(low[p, i]).tolist()) == index_set
            for e, (p, i) in enumerate(violated):
                v, index_set, anchor = want[p][i]
                assert (found.envelope[e], found.anchor[e]) == (v, anchor)
                assert tuple(np.flatnonzero(found.low[e]).tolist()) == index_set
                assert found.violation[e] == y[p, i] - v

    def test_random_blocks_match_the_one_row_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            table, lower, upper = self.random_table(rng)
            blocks = table.blocks
            assert blocks[0][0] == 0 and blocks[-1][1] == table.n
            assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(blocks, blocks[1:]))
            retained = table.valid[:table.n].sum(axis=1)
            for start, end, width in blocks:  # each block as narrow as its widest row
                assert retained[start:end].max() == width
            assert len(blocks) >= 3
            assert any(retained[start:end].min() < width for start, end, width in blocks)
            self.assert_matches_oracle(table, self.points(rng, lower, upper, 3), rng)

    def test_steps_of_one_width_merge_into_one_block(self, h22_instance):
        table = hull.HullTable(4, 3)
        for pos in range(3):
            add_instance(table, pos, h22_instance)
        assert table.blocks == [[0, 3, 2]] and table.width_below(3) == 2
        table.add([3], [0, 1, 2], [1.0, 1.0, 1.0], [-1.5], np.zeros(3), np.ones(3))
        assert table.blocks == [[0, 3, 2], [3, 4, 3]]
        assert [table.width_below(k) for k in range(5)] == [0, 2, 2, 2, 3]

    def test_skip_network_level_of_two_runs(self):
        # level 1 is h3 (reads both inputs) and, after level 2's h4, h5
        # (reads x2 only, x1 folded): three blocks of widths 2, 3 and 1
        net = make_skip_network()
        box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        st = compute_all_bounds(net, box, "fastc2v")
        table = st.table
        assert table.pos[:table.n].tolist() == [2, 3, 4]
        assert table.blocks == [[0, 1, 2], [1, 2, 3], [2, 3, 1]]
        rng = np.random.default_rng(42)
        self.assert_matches_oracle(table, self.points(rng, st.post_lower, st.post_upper, 4), rng)


class TestOneStepCuts:
    """The table's one-step cuts against the oracle :func:`cut_from_pair`."""

    @staticmethod
    def table_of(rng, sizes):
        """A table of random instances of the fan-ins ``sizes``, zero weights
        included, each reading its own slice of one point."""
        insts, offset = [], 0
        table = hull.HullTable(len(sizes), max(sizes))
        for i, d in enumerate(sizes):
            inst = random_mixed_instance(rng, d, allow_zero_weights=True)
            add_instance(table, i, inst, offset)
            insts.append((inst, offset))
            offset += inst.dim
        return table, insts, offset

    @staticmethod
    def assert_close(coeffs, constant, want, inst):
        """Within 1e-12 of the oracle's cut, relative to the row's size
        (``|val_max|`` plus its capacities): the two sum the index set's
        capacities in different orders."""
        tol = 1e-12 * (abs(inst.val_max) + inst.cap.sum())
        assert np.allclose(coeffs, want.coeffs, rtol=0.0, atol=tol)
        assert abs(constant - want.constant) <= tol

    def test_cuts_match_cut_from_pair(self):
        # tie-heavy corners, or not, for fan-ins 1-39 and then for fan-ins
        # up to 640, whose index sets run past 300 coordinates
        rng = np.random.default_rng(31)
        sizes = []
        for fan_ins, points in ((range(1, 40), 260), (range(16, 641, 8), 48)):
            table, insts, n = self.table_of(rng, list(fan_ins))
            z = np.zeros((points, n))
            for p in range(points):
                for inst, off in insts:
                    r = rng.choice([0.0, 0.5, 1.0], inst.size) if p % 2 \
                        else rng.uniform(0.0, 1.0, inst.size)
                    z[p, inst.support + off] = \
                        inst.min_corner + r * (inst.max_corner - inst.min_corner)
            envelope, _, _ = table_envelopes(table, z, table.n)
            found = table.separate(z, envelope + rng.uniform(1e-3, 1.0, envelope.shape))
            assert len(found) == z.shape[0] * table.n
            sizes.extend(found.low.sum(axis=1).tolist())
            for e in range(len(found)):
                inst, off = insts[found.row[e]]
                want = cut_from_pair(inst, np.flatnonzero(found.low[e]), found.anchor[e])
                got = separation_cut(table, found, e)
                assert (got.index_set, got.anchor) == (want.index_set, want.anchor)
                assert np.array_equal(got.idx, want.idx + off)
                self.assert_close(got.coeffs, got.constant, want, inst)
        assert len(sizes) >= 10_000 and min(sizes) == 0 and max(sizes) >= 300
        assert set(range(8, 190)) <= set(sizes)  # every index set size from 8 to 189

    def test_pairs_outside_the_family_raise_as_cut_from_pair_does(self):
        rng = np.random.default_rng(32)
        table, insts, _ = self.table_of(rng, [1 + i % 39 for i in range(39)])
        outcomes = set()
        for _ in range(2000):
            row = int(rng.integers(table.n))
            inst, _ = insts[row]
            low = np.zeros(table.w.shape[1], dtype=bool)
            low[:inst.size] = rng.random(inst.size) < rng.uniform(0.0, 1.0)
            h = int(rng.integers(inst.size))
            try:
                want = cut_from_pair(inst, np.flatnonzero(low), h)
            except ValueError:
                with pytest.raises(ValueError):
                    table.cuts([row], low[None], [h])
                outcomes.add("raises")
                continue
            coeffs, constant = table.cuts([row], low[None], [h])
            keep = low.copy()
            keep[h] = True
            self.assert_close(coeffs[0][keep], constant[0], want, inst)
            outcomes.add("cut")
        assert outcomes == {"raises", "cut"}
