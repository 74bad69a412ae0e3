import numpy as np
import pytest

from relucert import hull, propagation
from relucert.network import BoxDomain, Network, Neuron, eval_network, generate_random_network
from relucert.propagation import (METHODS, BoundingFunctions, Objectives, Swaps, backward_pass,
                                  box_maximize, compute_all_bounds, forward_pass,
                                  initial_scales, tightened_bound)
from relucert.verifier import build_input_box, generate_instances, margin_objective, verify

from conftest import (interval_state, make_interleaved_network, make_row_case_networks,
                      make_skip_network)
from oracles import (backward_pass_by_neuron, cut_from_pair, expr_from_row,
                     forward_pass_by_neuron, function_row, make_hull_instance,
                     minimize_upper_envelope_sort, neuron_row, separate_sort, separation_cut,
                     table_instances, tightened_bound_by_neuron, with_upper)


def menu_funcs(net, box, st, method="deeppoly"):
    """The menu's bounding functions over the scalar bounds of ``st``."""
    funcs = BoundingFunctions.empty(net, box)
    for pos in range(net.input_dim, net.n_state):
        funcs.set_initial(pos, method, st.pre_lower[pos], st.pre_upper[pos])
    return funcs


def all_rows(st):
    """``(lo, hi)`` of every row of a sweep: inputs and ReLU neurons, then
    the outputs."""
    out_lo, out_hi = st.output_bounds()
    return np.concatenate([st.pre_lower, out_lo]), np.concatenate([st.pre_upper, out_hi])


def values(objs, z):
    """Objective ``j`` of a batch at point ``z[j]``."""
    return np.einsum("ij,ij->i", objs.coeffs, z[:, :objs.eta]) + objs.constant


def dense_function(funcs, pos, upper=True):
    """Neuron ``pos``'s upper (or lower) function as a dense row over the
    state and its constant."""
    idx, w, b = function_row(funcs, pos, upper)
    row = np.zeros(funcs.net.n_state)
    row[idx] = w
    return row, b


class TestObjectiveRows:
    @pytest.mark.parametrize("which", list(make_row_case_networks()))
    def test_rows_are_the_declared_rows(self, which):
        # every run of a level, and the outputs, against each neuron's own row
        net = make_row_case_networks()[which]
        for start, stop in [*net.runs, (net.n_state, net.n_neurons)]:
            rows = Objectives.rows(net, start, stop)
            r, eta = stop - start, min(start, net.n_state)
            assert rows.coeffs.shape == (2 * r, eta), which
            for j, pos in enumerate(range(start, stop)):
                idx, w, b = neuron_row(net, pos)
                dense = np.zeros(eta)
                dense[idx] = w
                assert np.array_equal(rows.coeffs[j], dense), (which, pos)
                assert np.array_equal(rows.coeffs[r + j], -dense), (which, pos)
                assert rows.constant[j] == b == -rows.constant[r + j], (which, pos)


class TestIntervalBounds:
    def test_golden_network(self, golden_net, golden_box):
        st = compute_all_bounds(golden_net, golden_box, "interval")
        assert st.pre_lower[2:].tolist() == [-1.0, -0.5, 1.0, -4.0]
        assert st.pre_upper[2:].tolist() == [3.0, 1.5, 2.5, 2.0]
        assert st.pre_upper.shape == (golden_net.n_state,)  # output rows only on request
        assert st.output_bounds()[1][0] == pytest.approx(4.5)  # 1.5 + 2 + 1

    def test_zero_weight_net(self):
        net = generate_random_network([2, 2, 1], seed=0, weight_scale=1.0)
        # strip all weights: bounds must equal biases
        stripped = [Neuron(n.index, n.kind, () if n.kind != "input" else (),
                           n.bias if n.kind != "input" else 0.0)
                    for n in net.neurons]
        net0 = Network(2, stripped, net.output_indices)
        lo, hi = all_rows(compute_all_bounds(net0, BoxDomain(np.zeros(2), np.ones(2)),
                                             "interval"))
        for pos in range(2, net0.n_neurons):
            assert lo[pos] == hi[pos] == net0.neurons[pos].bias

    def test_point_box_is_exact(self, golden_net):
        x = np.array([0.3, -0.4])
        box = BoxDomain(x, x)
        lo, hi = all_rows(compute_all_bounds(golden_net, box, "interval"))
        z, y = eval_network(golden_net, x)
        for pos in range(2, golden_net.n_state):
            idx, w, b = neuron_row(golden_net, pos)
            pre = float(w @ z[idx]) + b
            assert lo[pos] == pytest.approx(pre, abs=1e-12)
            assert hi[pos] == pytest.approx(pre, abs=1e-12)
        assert lo[6] == pytest.approx(y[0], abs=1e-12)


class TestMenus:
    def test_deeppoly_mixed_negative_dominant(self, golden_net, golden_box):
        # h22's pre-range [-4, 2]: lower is 0, upper the chord through
        # (L,0),(U,U) of its row -1.5 h11 + h12 + 0.5
        assert initial_scales("deeppoly", -4.0, 2.0) == \
            pytest.approx((0.0, 1.0 / 3.0, 4.0 / 3.0))
        st = compute_all_bounds(golden_net, golden_box, "interval")
        funcs = menu_funcs(golden_net, golden_box, st)
        lower, lower_b = dense_function(funcs, 5, upper=False)
        assert not lower.any() and lower_b == 0.0
        upper, upper_b = dense_function(funcs, 5)
        assert np.allclose(upper, [0, 0, -0.5, 1.0 / 3.0, 0, 0])
        assert upper_b == pytest.approx(1.5)

    def test_deeppoly_mixed_positive_dominant_keeps_row(self):
        assert initial_scales("deeppoly", -1.0, 3.0)[0] == 1.0

    def test_fastlin_slopes(self):
        lower, upper, shift = initial_scales("fastlin", -1.0, 3.0)
        assert lower == pytest.approx(0.75)
        assert upper == pytest.approx(0.75)
        assert shift == pytest.approx(0.75)  # -L * slope

    def test_always_active_is_the_row(self):
        assert initial_scales("deeppoly", 1.0, 2.5) == (1.0, 1.0, 0.0)

    def test_always_inactive_is_zero(self):
        assert initial_scales("fastlin", -3.0, -0.5) == (0.0, 0.0, 0.0)

    def test_interval_pairs_are_post_constants(self):
        # the interval method keeps no pairs; its neurons are the post
        # constants, here of a row with pre-activation range [-2, 3]
        net = Network(1, [Neuron(1, "input", (), 0.0),
                          Neuron(2, "relu", ((1, 1.0),), 0.0),
                          Neuron(3, "output", ((2, 1.0),), 0.0)], [3])
        st = compute_all_bounds(net, BoxDomain(np.array([-2.0]), np.array([3.0])),
                                "interval")
        assert st.post_lower[1] == 0.0 and st.post_upper[1] == 3.0
        assert st.funcs is None
        with pytest.raises(ValueError):
            initial_scales("interval", -2.0, 3.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            initial_scales("zonotope", -1.0, 1.0)


class TestBoxMaximize:
    def test_golden_residual(self, golden_box):
        (val,), (x,) = box_maximize(
            Objectives([[-1.0 / 12.0, -2.0 / 3.0]], [37.0 / 12.0]),
            golden_box)
        assert val == pytest.approx(23.0 / 6.0, abs=1e-12)
        assert np.array_equal(x, [-1.0, -1.0])

    def test_zero_expr_returns_midpoint(self, golden_box):
        (val,), (x,) = box_maximize(Objectives(np.zeros((1, 2)), [5.0]), golden_box)
        assert val == 5.0 and np.array_equal(x, [0.0, 0.0])

    def test_collapsed_coordinate(self):
        box = BoxDomain(np.array([0.0, 5.0]), np.array([1.0, 5.0]))
        (val,), (x,) = box_maximize(Objectives([[1.0, 0.0]], [0.0]), box)
        assert val == 1.0 and np.array_equal(x, [1.0, 5.0])

    def test_non_input_reference_rejected(self, golden_box):
        with pytest.raises(ValueError):
            box_maximize(Objectives([[0.0, 0.0, 1.0]], [0.0]), golden_box)


class TestGoldenChain:
    """The worked bound chain: interval bounds -> backward 4 -> forward
    point -> separation swap -> 23/6."""

    @pytest.fixture()
    def chain(self, golden_net, golden_box):
        st = interval_state(golden_net, golden_box, menu="deeppoly")
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        return golden_net, golden_box, st, st.funcs, obj

    def test_backward_bound_and_point(self, chain):
        net, box, st, funcs, obj = chain
        res = backward_pass(funcs, obj)
        assert res.bound[0] == pytest.approx(4.0, abs=1e-12)
        assert np.array_equal(res.x_star[0], [-1.0, -1.0])
        assert np.allclose(res.input_expr.coeffs[0], [-0.5, -0.5])
        assert res.input_expr.constant[0] == pytest.approx(3.0, abs=1e-12)

    def test_forward_solution(self, chain):
        net, box, st, funcs, obj = chain
        res = backward_pass(funcs, obj)
        z = forward_pass(funcs, res.x_star, res.ub_used, 6)
        assert np.allclose(z[0], [-1.0, -1.0, 1.0, 1.5, 2.5, 1.5], atol=1e-12)
        assert values(obj, z)[0] == pytest.approx(4.0, abs=1e-12)

    def test_forward_value_matches_bound_randomly(self):
        # the recovered point is optimal: its objective equals the bound
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = generate_random_network([2, 4, 4, 1], seed=int(rng.integers(1 << 30)))
            box = BoxDomain(rng.uniform(-1, 0, 2), rng.uniform(0.2, 1, 2))
            st = compute_all_bounds(net, box, "interval")
            funcs = menu_funcs(net, box, st, method="fastlin")
            obj = expr_from_row(*neuron_row(net, net.n_state), eta=net.n_state)
            res = backward_pass(funcs, obj)
            z = forward_pass(funcs, res.x_star, res.ub_used, net.n_state)
            assert values(obj, z)[0] == pytest.approx(res.bound[0], abs=1e-9)

    def test_tightened_one_iteration(self, chain):
        net, box, st, funcs, obj = chain
        assert st.table.pos[:st.table.n].tolist() == [2, 3, 5]
        bound = tightened_bound(funcs, obj, 1, st.table)[0]
        assert bound == pytest.approx(23.0 / 6.0, abs=1e-12)

    def test_tightened_zero_iterations_is_initial(self, chain):
        net, box, st, funcs, obj = chain
        assert tightened_bound(funcs, obj, 0)[0] == pytest.approx(4.0, abs=1e-12)

    def test_swaps_do_not_leak(self, chain):
        net, box, st, funcs, obj = chain
        before = [(u.copy(), ub.copy()) for u, ub in zip(funcs.upper, funcs.upper_b)]
        assert tightened_bound(funcs, obj, 2, st.table)[0] < 4.0 - 1e-3  # it swapped
        for (u, ub), u2, ub2 in zip(before, funcs.upper, funcs.upper_b):
            assert np.array_equal(u, u2) and np.array_equal(ub, ub2)

    def test_more_iterations_never_worse(self, chain):
        net, box, st, funcs, obj = chain
        b0 = tightened_bound(funcs, obj, 0, st.table)[0]
        b3 = tightened_bound(funcs, obj, 3, st.table)[0]
        assert b3 <= b0 + 1e-12

    def test_missing_functions_name_the_position(self, chain):
        net, box, st, funcs, obj = chain
        funcs.fixed[5] = False
        with pytest.raises(ValueError, match="position 5"):
            backward_pass(funcs, obj)
        # a neuron without functions that no coefficient reaches is fine
        assert backward_pass(funcs, expr_from_row(*neuron_row(net, 4), eta=4)).bound[0] \
            == pytest.approx(2.5, abs=1e-12)

    def test_backward_after_swap_residual(self, chain):
        # with h22's upper swapped, for this objective only, to the
        # separated inequality, the residual becomes -(1/12) x1 - (2/3) x2
        # + 37/12 and the bound 23/6
        net, box, st, funcs, obj = chain
        res = backward_pass(funcs, obj)
        z = forward_pass(funcs, res.x_star, res.ub_used, 6)
        row = st.table.rows_below(5)  # h22's row of the hull table
        _, low, h = st.table.envelopes(z[0], row + 1)
        coeffs, constant = st.table.cuts([row], low[row:], h[row:])
        swaps = Swaps(st.table, np.array([0]), np.array([row]), coeffs, constant)
        res2 = backward_pass(funcs, obj, swaps)
        assert np.allclose(res2.input_expr.coeffs[0], [-1.0 / 12.0, -2.0 / 3.0], atol=1e-12)
        assert res2.input_expr.constant[0] == pytest.approx(37.0 / 12.0, abs=1e-12)
        assert res2.bound[0] == pytest.approx(23.0 / 6.0, abs=1e-12)
        assert backward_pass(funcs, obj).bound[0] == pytest.approx(4.0, abs=1e-12)

    def test_empty_objective_returns_constant(self, chain):
        net, box, st, funcs, obj = chain
        res = backward_pass(funcs, Objectives(np.zeros((1, 6)), [2.5]))
        assert res.bound[0] == 2.5

    def test_forward_passthrough_without_relu(self, golden_box):
        net = generate_random_network([2], seed=0)
        funcs = BoundingFunctions.empty(net, golden_box)
        z = forward_pass(funcs, np.array([[0.25, -0.5]]), np.zeros((1, 2), bool), 2)
        assert np.array_equal(z[0], [0.25, -0.5])

    def test_forward_zero_lower_functions(self, chain):
        # ub_used all false with all-zero lower functions: zeros past inputs
        net, box, st, funcs, obj = chain
        for lower, lower_b in zip(funcs.lower, funcs.lower_b):
            lower[:] = 0.0
            lower_b[:] = 0.0
        z = forward_pass(funcs, np.array([[0.1, 0.2]]), np.zeros((1, 6), bool), 6)
        assert np.array_equal(z[0, 2:], np.zeros(4))


class TestLevelPasses:
    """The batched level-wise passes against the per-neuron ones of the
    oracles, objective by objective."""

    @staticmethod
    def random_swaps(st, rng, q):
        """Random hull cuts swapped in, each for one of ``q`` objectives:
        the :class:`Swaps`, and per objective a copy of ``st.funcs`` with
        its cuts as upper functions."""
        table = st.table
        entries, funcs = [], [st.funcs] * q
        for j in range(q):
            for r, inst in enumerate(table_instances(table).values()):
                if rng.random() < 0.5:
                    x = np.zeros(st.net.n_state)
                    x[inst.support] = rng.uniform(inst.lower, inst.upper)
                    _, low, h = minimize_upper_envelope_sort(inst, x)
                    cut = cut_from_pair(inst, low, h)
                    funcs[j] = with_upper(funcs[j], table.pos[r], cut.idx, cut.coeffs,
                                          cut.constant)
                    coeffs = np.zeros(table.w.shape[1])
                    coeffs[np.union1d(low, [h])] = cut.coeffs
                    entries.append((j, r, coeffs, cut.constant))
        if not entries:
            return Swaps.none(table), funcs
        obj, row, coeffs, constant = zip(*entries)
        return Swaps(table, np.array(obj), np.array(row), np.array(coeffs),
                     np.array(constant)), funcs

    def test_passes_match_per_neuron_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            layers = [int(rng.integers(1, 5))] + \
                     [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))] + [2]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)))
            mid = rng.uniform(0.2, 0.8, layers[0])
            ext = rng.uniform(0.05, 0.5)
            box = BoxDomain(mid - ext, mid + ext)
            st = compute_all_bounds(net, box, "fastc2v")
            swaps, funcs = self.random_swaps(st, rng, 5)
            eta = int(rng.integers(net.input_dim, net.n_state + 1))
            objs = Objectives(rng.normal(size=(5, eta)) * (rng.random((5, eta)) < 0.7),
                              rng.normal(size=5))
            got = backward_pass(st.funcs, objs, swaps)
            z = forward_pass(st.funcs, got.x_star, got.ub_used, eta, swaps)
            assert np.allclose(values(objs, z), got.bound, rtol=0.0, atol=1e-12), trial
            for j in range(5):
                want = backward_pass_by_neuron(funcs[j], objs.select([j]))
                assert got.bound[j] == pytest.approx(want.bound, rel=0.0, abs=1e-12), trial
                assert np.array_equal(got.x_star[j], want.x_star), trial
                assert np.array_equal(got.ub_used[j], want.ub_used), trial
                z_ref = forward_pass_by_neuron(funcs[j], want.x_star, want.ub_used, eta)
                assert np.allclose(z[j], z_ref, rtol=0.0, atol=1e-12), trial

    @staticmethod
    def first_round_swaps(funcs, obj, table):
        """How many reachable hull rows the oracle swaps in its first round
        for one objective, or None when none is reachable."""
        nz = np.flatnonzero(obj.coeffs[0])
        rows = [r for r in range(table.n) if nz.size and table.pos[r] <= nz[-1]]
        if not rows:
            return None
        res = backward_pass_by_neuron(funcs, obj)
        z = forward_pass_by_neuron(funcs, res.x_star, res.ub_used, table.pos[rows[-1]] + 1)
        insts = list(table_instances(table).values())
        seps = [separate_sort(insts[r], z, z[table.pos[r]]) for r in rows]
        return sum(sep is not None and sep.violation > propagation.SWAP_VIOLATION_TOL
                   for sep in seps)

    @pytest.mark.parametrize("iterations", [0, 1, 2, 3])
    def test_tightened_batch_matches_per_neuron_oracle(self, iterations):
        rng = np.random.default_rng(29)
        cases = [(make_skip_network(), BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))]
        for _ in range(12):
            layers = [int(rng.integers(2, 5))] + \
                     [int(rng.integers(3, 9)) for _ in range(int(rng.integers(2, 4)))] + [3]
            mid = rng.uniform(0.2, 0.8, layers[0])
            ext = rng.uniform(0.1, 0.5)
            cases.append((generate_random_network(layers, seed=int(rng.integers(1 << 30))),
                          BoxDomain(mid - ext, mid + ext)))
        several = 0  # mixed batches with an objective that swaps two rows or more
        for net, box in cases:
            st = compute_all_bounds(net, box, "fastc2v")
            n, m = net.n_state, net.input_dim
            # output rows, and objectives on inputs alone, on the first hull
            # neuron alone, and random ones over the whole state
            rows = Objectives.rows(net, n, net.n_neurons)
            extra = np.zeros((4, n))
            extra[0, :m] = rng.normal(size=m)
            if st.table.n:
                extra[1, st.table.pos[0]] = -1.0
                extra[2, st.table.pos[0]] = 1.0
            extra[3] = rng.normal(size=n)
            batches = [Objectives(np.concatenate([rows.coeffs, extra]),
                                  np.concatenate([rows.constant, rng.normal(size=4)]))]
            batches += [Objectives.rows(net, start, stop) for start, stop in net.runs]
            kinds = {self.first_round_swaps(st.funcs, batches[0].select([j]), st.table)
                     for j in range(len(batches[0]))}
            assert None in kinds and 0 in kinds
            several += max(k or 0 for k in kinds) >= 2
            for objs in batches:
                got = tightened_bound(st.funcs, objs, iterations, st.table)
                want = tightened_bound_by_neuron(st.funcs, objs, iterations, st.table)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
                # no swap leaks between objectives: each bounds as if alone,
                # up to the rounding of a one-row matrix product
                for j in range(len(objs)):
                    alone = tightened_bound(st.funcs, objs.select([j]), iterations, st.table)
                    assert alone[0] == pytest.approx(got[j], rel=0.0, abs=1e-12)
        assert several >= len(cases) // 2

    @pytest.mark.parametrize("method", ["fastlin", "deeppoly", "fastc2v"])
    def test_skip_network_sweep_matches_per_neuron_oracle(self, method, monkeypatch):
        net = make_skip_network()
        box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        rows = Objectives.rows(net, net.n_state, net.n_neurons)  # the output, both signs

        def sweep():
            st = compute_all_bounds(net, box, method)
            return all_rows(st), st.bound_objectives(rows), st

        got, got_obj, st = sweep()
        assert np.sum((st.pre_lower < 0.0) & (st.pre_upper > 0.0)) >= 2
        monkeypatch.setattr(propagation, "tightened_bound", tightened_bound_by_neuron)
        want, want_obj, _ = sweep()
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.allclose(got_obj, want_obj, rtol=0.0, atol=1e-12)


class TestDirectEquivalence:
    def test_zero_iterations_matches_straight_line_substitution(self, golden_net, golden_box):
        """tightened_bound at T=0 equals an independently coded dense
        backsubstitution of the same bounding functions."""
        st = compute_all_bounds(golden_net, golden_box, "interval")
        for method in ("deeppoly", "fastlin"):
            funcs = menu_funcs(golden_net, golden_box, st, method)
            obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
            c = obj.coeffs[0].copy()
            const = obj.constant[0]
            for i in (5, 4, 3, 2):
                ci = c[i]
                if ci == 0.0:
                    continue
                row, b = dense_function(funcs, i, upper=ci > 0)
                c[i] = 0.0
                c += ci * row
                const += ci * b
            direct = const
            for i in range(2):
                direct += c[i] * (1.0 if c[i] > 0 else -1.0)
            got = tightened_bound(funcs, obj, 0)[0]
            assert got == pytest.approx(direct, rel=0.0, abs=1e-12)


class TestFullSweep:
    def test_golden_driver_bounds(self, golden_net, golden_box):
        dp1 = compute_all_bounds(golden_net, golden_box, "fastc2v")
        assert dp1.output_bounds()[1][0] == pytest.approx(23.0 / 6.0, abs=1e-9)
        iv = compute_all_bounds(golden_net, golden_box, "interval")
        assert iv.output_bounds()[1][0] == pytest.approx(4.5, abs=1e-12)

    def test_exact_max_is_below_all_methods(self, golden_net, golden_box):
        # dense-grid maximum of the true network output
        xs = np.linspace(-1, 1, 201)
        best = -np.inf
        for a in xs:
            for bb in xs:
                _, y = eval_network(golden_net, np.array([a, bb]))
                best = max(best, y[0])
        assert best == pytest.approx(3.0, abs=1e-9)
        for method in METHODS:
            st = compute_all_bounds(golden_net, golden_box, method)
            assert st.output_bounds()[1][0] >= best - 1e-9

    # Output-row bounds of the sweep that bounded every row (hex), on the
    # golden net and on a random one, held to 1e-12: every method now sums
    # in another order than the per-row code these were recorded with (the
    # interval rows are one matrix product per batch, the propagation
    # methods' passes level-wise), and the LP methods re-solve warm from the
    # last optimum of their relaxation, so they may end in another optimal
    # basis, whose dual bound differs in the last bits; optc2v's cut choice
    # follows those bits.
    OUTPUT_HEX = {
        "golden": {
            "interval": [("0x1.0000000000000p+0", "0x1.2000000000000p+2")],
            "fastlin": [("0x1.0000000000000p+0", "0x1.ed55555555556p+1")],
            "deeppoly": [("0x1.0000000000000p+0", "0x1.eaaaaaaaaaaacp+1")],
            "fastc2v": [("0x1.0000000000000p+0", "0x1.eaaaaaaaaaaacp+1")],
            "lp": [("0x1.0000000000000p+0", "0x1.c000000000000p+1")],
            "optc2v": [("0x1.0000000000000p+0", "0x1.c000000000000p+1")],
        },
        "random": {
            "interval": [("-0x1.a881a4d22db2bp-2", "0x1.425f22814dce6p-2"),
                         ("-0x1.4786b93fb06b5p-4", "0x1.2cf630c96408fp-1")],
            "fastlin": [("-0x1.27ae5f859d422p-2", "0x1.c56f4bc77fa70p-3"),
                        ("-0x1.f37afc50e5bd0p-7", "0x1.4dacd96b5c277p-2")],
            "deeppoly": [("-0x1.174838b2ba254p-2", "0x1.6e679d17604c2p-3"),
                         ("-0x1.b1e7ba9fa4080p-5", "0x1.491ccdfa0e2aap-2")],
            "fastc2v": [("-0x1.09ac95b18d569p-2", "0x1.d156cca74ac4dp-4"),
                        ("-0x1.598891ccf2ed8p-5", "0x1.3f12504b2aeb7p-2")],
            "lp": [("-0x1.0c9676c7371dcp-2", "0x1.b32bf9fa56194p-4"),
                   ("0x1.349cc65570cf8p-6", "0x1.47fc2058bf810p-2")],
            "optc2v": [("-0x1.d2b0a61d31200p-3", "0x1.a7df5ccb4af7ap-4"),
                       ("0x1.7a6a32161bb58p-6", "0x1.2719d71d898afp-2")],
        },
    }

    @pytest.mark.parametrize("which", ["golden", "random"])
    def test_output_bounds_match_full_sweep(self, which, golden_net, golden_box):
        if which == "golden":
            net, box = golden_net, golden_box
        else:
            net = generate_random_network([3, 6, 6, 2], seed=0, weight_scale=1.0)
            box = BoxDomain(np.full(3, 0.2), np.full(3, 0.7))
        for method in METHODS:
            st = compute_all_bounds(net, box, method)
            assert st.pre_lower.shape == (net.n_state,)
            got = list(zip(*st.output_bounds()))
            want = [tuple(float.fromhex(v) for v in pair)
                    for pair in self.OUTPUT_HEX[which][method]]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), method

    def test_soundness_random_networks(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            layers = [int(rng.integers(1, 4))] + \
                     [int(rng.integers(2, 9)) for _ in range(depth)] + [2]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)))
            mid = rng.uniform(0.2, 0.8, layers[0])
            ext = rng.uniform(0.05, 0.5)
            box = BoxDomain(np.clip(mid - ext, 0, 1), np.clip(mid + ext, 0, 1))
            method = METHODS[int(rng.integers(len(METHODS)))]
            lo, hi = all_rows(compute_all_bounds(net, box, method))
            X = box.sample(rng, 50)
            for x in X:
                z, y = eval_network(net, x)
                for pos in range(net.input_dim, net.n_neurons):
                    idx, w, b = neuron_row(net, pos)
                    pre = float(w @ z[idx]) + b if idx.size else b
                    assert lo[pos] - 1e-7 <= pre <= hi[pos] + 1e-7

    def test_dominance_chain_random_networks(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            layers = [2, int(rng.integers(2, 8)), int(rng.integers(2, 8)), 1]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)))
            box = BoxDomain(np.array([0.2, 0.1]), np.array([0.9, 0.8]))
            objs = Objectives.rows(net, net.n_state, net.n_neurons)  # both signs
            b_iv, b_dp, b_fc = (compute_all_bounds(net, box, method).bound_objectives(objs)
                                for method in ("interval", "deeppoly", "fastc2v"))
            assert np.all(b_fc <= b_dp + 1e-9)
            assert np.all(b_dp <= b_iv + 1e-9)

    def test_hull_instances_built_once_and_only_when_tightening(self, monkeypatch):
        # one table step per run, which adds every mixed neuron of the run
        calls = []
        real = hull.HullTable.add
        monkeypatch.setattr(hull.HullTable, "add",
                            lambda table, pos, *args: calls.append(len(pos))
                            or real(table, pos, *args))
        net = generate_random_network([4, 8, 8, 3], seed=5, weight_scale=0.7)
        inst = generate_instances(net, 1, 0.2, seed=6)[0]
        for method in METHODS:
            st = compute_all_bounds(net, build_input_box(inst), method)
            calls.clear()
            verify(net, inst, method=method, attack=False)
            mixed = np.sum((st.pre_lower[4:] < 0.0) & (st.pre_upper[4:] > 0.0))
            if method in ("fastc2v", "optc2v"):
                assert len(calls) == len(net.runs) and 0 < sum(calls) == mixed, method
            else:
                assert not calls, method

    @staticmethod
    def build_case(which):
        """A network and a box.  ``folding`` is a 4,8,8,3 net with a fifth
        of its weights zeroed and one level-1 neuron never active, over a
        box with one flat input: its rows read zero weights and zero-width
        sources, which the hull build folds away.  In ``interleaved``, level
        2 has two runs, and the first is built before the level-1 neuron
        that only the second reads is bounded."""
        if which == "skip":
            return make_skip_network(), BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        if which == "interleaved":
            return make_interleaved_network(), BoxDomain(np.array([-1.0, -1.0]),
                                                         np.array([1.0, 1.0]))
        net = generate_random_network([4, 8, 8, 3], seed=5, weight_scale=0.7)
        box = build_input_box(generate_instances(net, 1, 0.2, seed=6)[0])
        if which == "layered":
            return net, box
        neurons = [Neuron(nr.index, nr.kind,
                          tuple((j, 0.0 if (nr.index + j) % 5 == 0 else v) for j, v in nr.weights),
                          -50.0 if nr.index == 6 else nr.bias) for nr in net.neurons]
        lower = np.array([0.2, 0.3, 0.4, 0.5])
        return Network(4, neurons, net.output_indices), \
            BoxDomain(lower, lower + [0.4, 0.0, 0.4, 0.4])

    @pytest.mark.parametrize("which", ["layered", "skip", "interleaved", "folding"])
    def test_batched_run_build_matches_per_neuron_instances(self, which):
        # each row of the sweep's table against make_hull_instance of its
        # neuron alone: the same coordinates and corners, and sums within
        # 1e-12 (they add in another order)
        net, box = self.build_case(which)
        folded = zero = 0
        for method in ("fastc2v", "optc2v"):
            st = compute_all_bounds(net, box, method)
            table = st.table
            m = net.input_dim
            mixed = m + np.flatnonzero((st.pre_lower[m:] < 0.0) & (st.pre_upper[m:] > 0.0))
            assert table.pos[:table.n].tolist() == mixed.tolist() != [], method
            for i, pos in enumerate(mixed):
                idx, w, b = neuron_row(net, pos)
                lo, hi = st.post_lower[idx], st.post_upper[idx]
                folded += np.sum((w != 0.0) & (lo == hi))
                zero += np.sum(w == 0.0)
                want = make_hull_instance(w, b, lo, hi)
                v = table.valid[i]
                assert np.array_equal(table.support[i, v], idx[want.support]), pos
                assert np.array_equal(table.min_corner[i, v], want.min_corner), pos
                # max_corner as the table keeps it, by its step from min_corner
                assert np.array_equal(table.span[i, v], want.max_corner - want.min_corner), pos
                assert np.allclose(table.cap[i, v], want.cap, rtol=0.0, atol=1e-12), pos
                assert abs(table.val_max[i] - want.val_max) <= 1e-12, pos
                assert abs(table.val_max[i] - table.w[i, v] @ want.max_corner - want.b) <= 1e-12
        assert (folded > 0 and zero > 0) == (which == "folding")

    @pytest.mark.parametrize("w, b, lower, upper", [
        ([-1.0, 1.0, -0.8], 0.7, [0.4, 0.4, 0.4], [0.7, 0.8, 0.5]),  # minimum 0
        ([-1.0, 1.0, -1.0], 0.1, [0.4, 0.3, 0.3], [0.5, 0.6, 0.6]),  # maximum 0
    ])
    def test_row_at_rounding_distance_from_zero_keeps_its_relaxation(self, w, b, lower, upper):
        # the row's bounds call it mixed by a rounding error; the hull
        # build's sums may not, and then it gets no hull row: the sweep and
        # the tightened bounds of the output go on, and stay sound
        neurons = [Neuron(i + 1, "input", (), 0.0) for i in range(3)]
        neurons += [Neuron(4, "relu", tuple((i + 1, w[i]) for i in range(3)), b),
                    Neuron(5, "output", ((4, 1.0),), 0.0)]
        net, box = Network(3, neurons, [5]), BoxDomain(np.array(lower), np.array(upper))
        X = box.sample(np.random.default_rng(5), 200)
        y = [eval_network(net, x)[1][0] for x in X]
        for method in ("fastc2v", "optc2v"):
            st = compute_all_bounds(net, box, method)
            assert st.pre_lower[3] < 0.0 < st.pre_upper[3], method
            up, down = st.bound_objectives(Objectives.rows(net, 4, 5))
            assert -down - 1e-12 <= min(y) and max(y) <= up + 1e-12, method

    def test_swapped_cut_still_valid_for_neuron(self, golden_net, golden_box):
        # after the golden swap, h22's new upper function upper-bounds its
        # ReLU over sampled points of the neuron's feasible set
        hulls = table_instances(interval_state(golden_net, golden_box).table)
        z = np.zeros(golden_net.n_state)
        z[[2, 3]] = [1.0, 1.5]  # h11, h12
        sep = separate_sort(hulls[5], z, 1.5)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-1, 1, 2)
            z, _ = eval_network(golden_net, x)
            assert z[5] <= sep.cut.value(z) + 1e-9

    def test_hulls_and_cuts_name_state_positions(self, monkeypatch):
        # the sweep's instances read the state vector as it is: their
        # support is the neuron's own sources, and so is every cut's idx
        net = generate_random_network([4, 8, 8, 3], seed=5, weight_scale=0.7)
        box = build_input_box(generate_instances(net, 1, 0.2, seed=6)[0])
        cuts = []
        real = hull.HullTable.separate

        def recording(table, z, y, tol=0.0):
            found = real(table, z, y, tol)
            cuts.extend((int(table.pos[found.row[e]]), separation_cut(table, found, e))
                        for e in range(len(found)))
            return found

        monkeypatch.setattr(hull.HullTable, "separate", recording)
        for method in ("fastc2v", "optc2v"):
            cuts.clear()
            st = compute_all_bounds(net, box, method)
            st.bound_objectives(Objectives.of(margin_objective(net, 1, 0)))  # reaches level 2
            assert st.table.n, method
            for pos, inst in table_instances(st.table).items():
                idx, w, _ = neuron_row(net, pos)
                assert np.isin(inst.support, idx).all(), method
                assert np.array_equal(inst.w, w[np.isin(idx, inst.support)]), method
            assert any(pos >= 12 for pos, _ in cuts), method  # level-2 neurons cut
            for pos, cut in cuts:
                assert np.isin(cut.idx, neuron_row(net, pos)[0]).all(), method

    def test_swap_groups_stay_within_the_block(self, monkeypatch):
        # every separation block of a fastc2v verify (objectives x rows x
        # table width) fits in TIGHTEN_BLOCK, unless it holds one objective
        net = generate_random_network([10, 30, 30, 30, 10], seed=1, weight_scale=0.5)
        blocks = []
        real = hull.HullTable.separate

        def recording(table, z, y, tol=0.0):
            blocks.append(np.shape(y) + (table.w.shape[1],))
            return real(table, z, y, tol)

        monkeypatch.setattr(hull.HullTable, "separate", recording)
        for inst in generate_instances(net, 2, 0.1, seed=1001):
            verify(net, inst, method="fastc2v", attack=False)
        assert blocks and all(len(b) == 3 for b in blocks)
        assert all(q * k * w <= propagation.TIGHTEN_BLOCK or q == 1 for q, k, w in blocks)
        assert max(q for q, _, _ in blocks) > 1

    def test_row_bound_separates_only_neurons_it_reaches(self, monkeypatch):
        # a level-2 row reads level-1 neurons only; no level-2 neuron below
        # it can receive a coefficient, so none is separated
        net = generate_random_network([4, 8, 8, 3], seed=5, weight_scale=0.7)
        box = build_input_box(generate_instances(net, 1, 0.2, seed=6)[0])
        st = compute_all_bounds(net, box, "fastc2v")
        level1, level2 = range(4, 12), range(12, net.n_state)
        hulls = st.table.pos[:st.table.n].tolist()
        assert any(p in hulls for p in level2[:-1])
        separated = []
        real = hull.HullTable.separate
        monkeypatch.setattr(hull.HullTable, "separate",
                            lambda table, z, y, tol=0.0:
                            separated.extend(table.pos[:np.shape(y)[-1]].tolist())
                            or real(table, z, y, tol))
        for pos in level2:
            tightened_bound(st.funcs, Objectives.rows(net, pos, pos + 1), 3, st.table)
        reachable = {p for p in level1 if p in hulls}
        assert separated
        assert set(separated) == reachable
