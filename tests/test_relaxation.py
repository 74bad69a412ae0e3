import numpy as np
import pytest

import relucert.relaxation as relaxation
from relucert.network import (BoxDomain, Network, Neuron, eval_network, forward,
                              generate_random_network)
from relucert.propagation import Objectives, compute_all_bounds
from relucert.relaxation import build_delta_lp, optc2v_bound
from relucert.simplex import LE, Lockstep, LpStatus
from relucert.verifier import build_input_box, generate_instances, margin_objective, verify

from conftest import delta_lp, interval_state, make_row_case_networks, random_mixed_instance
from oracles import (cut_from_pair, envelope_min_by_enumeration, enumerate_cut_pairs,
                     exact_max_oracle, expr_from_row, implied_by_boxes, lifted_envelope_value,
                     make_hull_instance, neuron_row, reference_delta_lp, solve_lp,
                     substitution_by_neuron)


def record_cuts(monkeypatch):
    """Every cut row ``(row, rhs)`` the cut loops add, in order: the LP row
    ``row . z <= rhs`` over the positions below the objective's reach."""
    added = []
    real = relaxation._cut_rows

    def recording(table, found, reach):
        rows = real(table, found, reach)
        added.extend(zip(rows, found.constant))
        return rows

    monkeypatch.setattr(relaxation, "_cut_rows", recording)
    return added


def add_row(dl, row, rhs):
    """Add the row ``row . z <= rhs`` over positions to the model of ``dl``,
    mapped onto its variables."""
    coeffs, rhs = dl.rows(row[None, :], np.array([rhs]))
    idx = np.flatnonzero(coeffs[0])
    dl.model.add_constraint(idx, coeffs[0, idx], LE, rhs[0])


def add_cut(dl, pos, cut):
    """Add ``z[pos] <= cut`` to the model of ``dl``."""
    row = np.zeros(dl.lin.shape[0])
    row[cut.idx] = -cut.coeffs
    row[pos] += 1.0
    add_row(dl, row, cut.constant)


def equivalence_cases():
    """The row-case networks over [-1, 1]^m, and the acceptance network
    over the box of its corpus' first instance."""
    cases = {which: (net, BoxDomain(np.full(net.input_dim, -1.0), np.full(net.input_dim, 1.0)))
             for which, net in make_row_case_networks().items()}
    net = generate_random_network([6, 20, 20, 3], seed=1, weight_scale=0.7)
    inst = generate_instances(net, 1, epsilon=0.16, seed=1001)[0]
    cases["acceptance"] = (net, build_input_box(inst))
    return cases


def dense_rows(model):
    """The rows of ``model`` as ``(A, lo, hi)``."""
    A = np.zeros((model.n_rows, model.n_vars))
    for i, (idx, coef, _, _) in enumerate(model.rows):
        A[i, idx] = coef
    return A, np.array([r[2] for r in model.rows]), np.array([r[3] for r in model.rows])


def sweep_with_margins(method):
    """The sweep of a 4,8,8,3 net with ``method``, after two margins."""
    net = generate_random_network([4, 8, 8, 3], seed=5, weight_scale=0.7)
    st = compute_all_bounds(net, BoxDomain(np.full(4, 0.3), np.full(4, 0.7)), method)
    st.bound_objectives(Objectives.of(*(margin_objective(net, k, 0) for k in (1, 2))))
    return st


def single_relu_net(w, b):
    """n inputs -> one ReLU -> output equal to the ReLU value."""
    n = len(w)
    neurons = [Neuron(i, "input", (), 0.0) for i in range(1, n + 1)]
    neurons.append(Neuron(n + 1, "relu", tuple((j + 1, w[j]) for j in range(n)), b))
    neurons.append(Neuron(n + 2, "output", ((n + 1, 1.0),), 0.0))
    return Network(n, neurons, [n + 2])


class TestDeltaLpStructure:
    def test_golden_model_shape(self, golden_net, golden_box):
        st = interval_state(golden_net, golden_box)
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        dl = delta_lp(st, obj)
        # 2 inputs and the mixed h11, h12, h22; h21 is always active
        assert dl.model.n_vars == 5
        assert dl.model.names == ["z0", "z1", "z2", "z3", "z5"]
        # mixed h11, h12, h22 get two inequalities each (nonnegativity rides
        # on the variable bound); h21's box, the ranged row 1 <= h12 + 1 <=
        # 2.5, is implied by h12 in [0, 1.5] and leaves
        assert dl.model.n_rows == 6
        ranged = [(lo, hi) for _, _, lo, hi in dl.model.rows if np.isfinite(lo) and np.isfinite(hi)]
        assert ranged == []
        # h21 = h12 + 1 leaves the model through the map
        assert dl.lin[4].tolist() == [0.0, 0.0, 0.0, 1.0, 0.0] and dl.const[4] == 1.0
        # the cut loop separates the mixed neurons below the objective
        assert st.table.pos[:st.table.rows_below(obj.eta)].tolist() == [2, 3, 5]
        # mixed relu variables are bounded by the clamped scalar bounds
        assert dl.model.lb[4] == 0.0 and dl.model.ub[4] == 2.0

    def test_true_points_feasible(self):
        # network points, read at the kept variables, map back onto every
        # position and satisfy every presolved row and box
        rng = np.random.default_rng(4)
        for which, (net, box) in equivalence_cases().items():
            st = interval_state(net, box)
            dl = build_delta_lp(st, net.n_state)
            keep = substitution_by_neuron(st, net.n_state)[0]
            Z, _ = forward(net, box.sample(rng, 200))
            X = Z[:, keep]
            assert np.allclose(dl.points(X), Z, rtol=0.0, atol=1e-9), which
            A, lo, hi = dense_rows(dl.model)
            v = X @ A.T
            assert (v >= lo - 1e-9).all() and (v <= hi + 1e-9).all(), which
            assert (X >= dl.model.lb).all() and (X <= dl.model.ub).all(), which

    @pytest.mark.parametrize("which", list(make_row_case_networks()))
    def test_rows_are_the_declared_rows(self, which):
        # the variables are the inputs and the mixed neurons; the map and
        # each neuron's rows substitute its declared row over them: >= row
        # and chord when mixed, its box as a ranged row when always active,
        # unless the variable boxes imply that row
        net = make_row_case_networks()[which]
        m = net.input_dim
        st = compute_all_bounds(net, BoxDomain(np.full(m, -1.0), np.full(m, 1.0)), "interval")
        dl = build_delta_lp(st, net.n_state)
        keep, lin, const, pre, pre0 = substitution_by_neuron(st, net.n_state)
        assert dl.model.names == [f"z{pos}" for pos in keep], which
        assert np.allclose(dl.lin, lin, rtol=0.0, atol=1e-12), which
        assert np.allclose(dl.const, const, rtol=0.0, atol=1e-12), which
        want = []
        for pos in range(m, net.n_state):
            lo, hi = st.pre_lower[pos], st.pre_upper[pos]
            if lo >= 0.0:
                if not implied_by_boxes(pre[pos], lo - pre0[pos], hi - pre0[pos],
                                        st.post_lower[keep], st.post_upper[keep]):
                    want.append((pre[pos], lo - pre0[pos], hi - pre0[pos]))
            elif hi > 0.0:
                s = hi / (hi - lo)
                own = np.eye(len(keep))[np.searchsorted(keep, pos)]
                want += [(own - pre[pos], pre0[pos], np.inf),
                         (own - s * pre[pos], -np.inf, s * (pre0[pos] - lo))]
        A, lo, hi = dense_rows(dl.model)
        assert len(A) == len(want), which
        if want:
            assert np.allclose(A, [w[0] for w in want], rtol=0.0, atol=1e-12), which
            assert np.allclose(lo, [w[1] for w in want], rtol=0.0, atol=1e-12), which
            assert np.allclose(hi, [w[2] for w in want], rtol=0.0, atol=1e-12), which

    def test_always_inactive_neuron_has_no_row(self):
        net = single_relu_net([1.0], -5.0)
        box = BoxDomain(np.zeros(1), np.ones(1))
        st = interval_state(net, box)
        obj = expr_from_row(*neuron_row(net, 2), eta=2)
        dl = delta_lp(st, obj)
        # no variable, no row: the map pins it to 0
        assert dl.model.n_vars == 1 and dl.model.n_rows == 0
        assert dl.lin[1].tolist() == [0.0] and dl.const[1] == 0.0

    def test_always_active_neuron_row_equality(self):
        net = single_relu_net([1.0], 2.0)
        box = BoxDomain(np.zeros(1), np.ones(1))
        st = interval_state(net, box)
        obj = expr_from_row(*neuron_row(net, 2), eta=2)
        dl = delta_lp(st, obj)
        # the equality z = x + 2 is the map; its box [2, 3] is the interval
        # of x + 2 over x in [0, 1], so its ranged row is implied and leaves
        assert dl.model.n_vars == 1
        assert dl.lin[1].tolist() == [1.0] and dl.const[1] == 2.0
        assert dl.model.n_rows == 0
        # the objective z reads x + 2
        assert dl.model.obj == [1.0] and dl.model.obj_constant == 2.0

    @pytest.mark.parametrize("which", list(equivalence_cases()))
    def test_presolved_optima_equal_the_reference(self, which):
        # random objectives over every position reach the same optima on the
        # presolved model and on the reference one, and again once both get
        # the hull cuts separated at the reference optima
        net, box = equivalence_cases()[which]
        st = interval_state(net, box)
        reach = net.n_state
        dl, ref = build_delta_lp(st, reach), reference_delta_lp(st, reach)
        rng = np.random.default_rng(7)
        C, K = rng.uniform(-1, 1, (12, reach)), rng.uniform(-1, 1, 12)
        presolved, reference = Lockstep(dl.model, *dl.objectives(C, K)), Lockstep(ref, C, K)
        got, want = presolved.solve(), reference.solve()
        assert set(got.status) == set(want.status) == {LpStatus.OPTIMAL}, which
        assert np.allclose(got.objective_value, want.objective_value, rtol=0.0, atol=1e-9), which
        pos = st.table.pos[:st.table.rows_below(reach)]
        found = st.table.separate(want.x, want.x[:, pos], relaxation.CUT_VIOLATION_TOL)
        if which in ("golden", "acceptance"):
            assert len(found), which
        if not len(found):
            return
        rows = relaxation._cut_rows(st.table, found, reach)
        presolved.append_rows(found.point, *dl.rows(rows, found.constant))
        reference.append_rows(found.point, rows, found.constant)
        got, want = presolved.solve(), reference.solve()
        assert np.allclose(got.objective_value, want.objective_value, rtol=0.0, atol=1e-9), which


    @pytest.mark.parametrize("which", list(equivalence_cases()))
    def test_only_implied_ranged_rows_leave(self, which):
        # an always-active neuron's ranged row leaves exactly when the
        # variable boxes imply it up to gamma_n: every ranged row kept is one
        # of a neuron whose row is not implied, in position order, and every
        # such neuron keeps its row (test_presolved_optima_equal_the_reference
        # checks that the optima stay those of the reference model)
        net, box = equivalence_cases()[which]
        st = interval_state(net, box)
        reach = net.n_state
        dl = build_delta_lp(st, reach)
        keep, _, _, pre, pre0 = substitution_by_neuron(st, reach)
        lo, hi = st.pre_lower, st.pre_upper
        active = [pos for pos in range(net.input_dim, reach) if lo[pos] >= 0.0]
        kept = [pos for pos in active
                if not implied_by_boxes(pre[pos], lo[pos] - pre0[pos], hi[pos] - pre0[pos],
                                        st.post_lower[keep], st.post_upper[keep])]
        A, row_lo, row_hi = dense_rows(dl.model)
        ranged = np.isfinite(row_lo) & np.isfinite(row_hi)
        assert ranged.sum() == len(kept), which
        if kept:
            assert np.allclose(A[ranged], pre[kept], rtol=0.0, atol=1e-12), which
            assert np.allclose(row_lo[ranged], lo[kept] - pre0[kept], rtol=0.0, atol=1e-12)
            assert np.allclose(row_hi[ranged], hi[kept] - pre0[kept], rtol=0.0, atol=1e-12)
        if which in ("golden", "acceptance"):  # some rows leave
            assert len(kept) < len(active), which

    def test_rows_tightened_by_optc2v_stay(self):
        # on the acceptance net, the optc2v sweep bounds the level-2 neurons
        # inside the interval their rows reach over the variable boxes, so
        # those of them that are always active keep their ranged rows
        net, box = equivalence_cases()["acceptance"]
        st = compute_all_bounds(net, box, "optc2v")
        dl = build_delta_lp(st, net.n_state)
        keep, _, _, pre, pre0 = substitution_by_neuron(st, net.n_state)
        box_lo, box_hi = st.post_lower[keep], st.post_upper[keep]
        A, row_lo, row_hi = dense_rows(dl.model)
        ranged = A[np.isfinite(row_lo) & np.isfinite(row_hi)]
        level2 = [pos for pos in net.levels[1].pos.tolist() if st.pre_lower[pos] >= 0.0]
        assert level2
        for pos in level2:
            lo, hi = st.pre_lower[pos] - pre0[pos], st.pre_upper[pos] - pre0[pos]
            assert not implied_by_boxes(pre[pos], lo, hi, box_lo, box_hi), pos
            assert np.isclose(ranged, pre[pos], rtol=0.0, atol=1e-12).all(axis=1).sum() == 1, pos


class TestDeltaLpValues:
    def test_golden_value_bracket(self, golden_net, golden_box):
        st = interval_state(golden_net, golden_box)
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        v = optc2v_bound(st, obj, 0)[0]
        assert 3.0 - 1e-9 <= v <= 4.0 + 1e-9  # above the true max, at or
        # below the chord-relaxation propagation value

    def test_rounds_monotone(self, golden_net, golden_box):
        st = interval_state(golden_net, golden_box)
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        vals = [optc2v_bound(st, obj, r)[0]
                for r in range(4)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9
        assert all(v >= 3.0 - 1e-9 for v in vals)

    def test_fixed_phase_network_rounds_no_effect(self):
        net = single_relu_net([1.0], 2.0)  # always active
        box = BoxDomain(np.zeros(1), np.ones(1))
        st = interval_state(net, box)
        obj = expr_from_row(*neuron_row(net, 2), eta=2)
        v0 = optc2v_bound(st, obj, 0)[0]
        v5 = optc2v_bound(st, obj, 5)[0]
        assert v0 == pytest.approx(v5, abs=0.0)

    def test_single_neuron_cut_loop_reaches_full_hull(self):
        # with every hull inequality added up front, the LP equals the exact
        # hull optimum; the cut loop must reach the same value
        rng = np.random.default_rng(15)
        for _ in range(20):
            inst = random_mixed_instance(rng, 2)
            w = np.zeros(inst.dim)
            w[inst.support] = inst.w
            net = single_relu_net(list(w), inst.b)
            box = BoxDomain(inst.lower, inst.upper)
            st = interval_state(net, box)
            obj = expr_from_row(*neuron_row(net, net.n_state), eta=net.n_state)
            looped = optc2v_bound(st, obj, 8)[0]
            dl = delta_lp(st, obj)
            for I, h in enumerate_cut_pairs(inst):
                add_cut(dl, net.input_dim, cut_from_pair(inst, I, h))
            full = solve_lp(dl.model)
            assert full.status == LpStatus.OPTIMAL
            assert looped == pytest.approx(full.objective_value, abs=1e-7)

    def test_added_cuts_valid_on_network_samples(self, golden_net, golden_box, monkeypatch):
        st = interval_state(golden_net, golden_box)
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        added = record_cuts(monkeypatch)
        optc2v_bound(st, obj, 3)[0]
        assert len(added) >= 1
        rng = np.random.default_rng(8)
        for row, rhs in added:
            for _ in range(100):
                x = rng.uniform(-1, 1, 2)
                z, _ = eval_network(golden_net, x)
                assert row @ z[:row.size] <= rhs + 1e-9


class TestLiftedEnvelope:
    def test_h22_value(self, h22_instance):
        v = lifted_envelope_value(h22_instance, [1.0, 1.5])
        assert v == pytest.approx(4.0 / 3.0, abs=1e-7)

    def test_box_vertex_attains_max_preactivation(self, h22_instance):
        # at the corner where the pre-activation peaks, the envelope equals it
        v = lifted_envelope_value(h22_instance, [0.0, 1.5])
        assert v == pytest.approx(2.0, abs=1e-7)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            inst = random_mixed_instance(rng, int(rng.integers(1, 7)))
            xg = np.zeros(inst.dim)
            xg[inst.support] = rng.uniform(inst.lower, inst.upper)
            lp_val = lifted_envelope_value(inst, xg)
            assert lp_val == pytest.approx(
                envelope_min_by_enumeration(inst, xg), abs=1e-7)

    def test_rejects_fixed_phase(self):
        inst = make_hull_instance([1.0], 1.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            lifted_envelope_value(inst, [0.5])


class TestExactOracle:
    def test_golden_network_max_is_three(self, golden_net, golden_box):
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        assert exact_max_oracle(golden_net, golden_box, obj) == pytest.approx(3.0, abs=1e-7)

    def test_no_relu_equals_box_lp(self):
        net = generate_random_network([3], seed=5)
        box = BoxDomain(np.zeros(3), np.ones(3))
        obj = expr_from_row(*neuron_row(net, net.n_state), eta=net.n_state)
        got = exact_max_oracle(net, box, obj)
        idx, w, b = neuron_row(net, net.n_state)
        direct = float(np.maximum(w, 0) @ box.upper[idx] +
                       np.minimum(w, 0) @ box.lower[idx]) + b
        assert got == pytest.approx(direct, abs=1e-9)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            net = generate_random_network([2, 3, 1], seed=int(rng.integers(1 << 30)))
            box = BoxDomain(np.array([0.1, 0.2]), np.array([0.9, 0.7]))
            obj = expr_from_row(*neuron_row(net, net.n_state), eta=net.n_state)
            exact = exact_max_oracle(net, box, obj)
            xs = np.linspace(box.lower[0], box.upper[0], 120)
            ys = np.linspace(box.lower[1], box.upper[1], 120)
            grid = max(eval_network(net, np.array([a, b]))[1][0]
                       for a in xs for b in ys)
            assert exact >= grid - 1e-9
            assert exact <= grid + 0.05  # grid is a lower bound with small gap

    def test_mixed_cap_enforced(self, golden_net, golden_box):
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        with pytest.raises(ValueError):
            exact_max_oracle(golden_net, golden_box, obj, mixed_cap=2)


class TestLpSweep:
    def test_golden_bounds(self, golden_net, golden_box):
        st = compute_all_bounds(golden_net, golden_box, "lp")
        # first-layer rows over inputs give interval-exact bounds
        assert (st.pre_lower[2], st.pre_upper[2]) == (-1.0, 3.0)
        out0 = st.output_bounds()[1][0]
        st3 = compute_all_bounds(golden_net, golden_box, "optc2v", cut_rounds=3)
        out3 = st3.output_bounds()[1][0]
        assert out3 <= out0 + 1e-9
        assert out3 >= 3.0 - 1e-7

    def test_tiny_weight_is_kept(self):
        # h = relu(9e-6 x + 1) over x in [0, 1] peaks at 1.000009; a model
        # that drops the small weight reports 1.0
        net = single_relu_net([9e-6], 1.0)
        box = BoxDomain(np.zeros(1), np.ones(1))
        obj = expr_from_row(*neuron_row(net, net.n_state), eta=net.n_state)
        for method in ("lp", "optc2v", "deeppoly"):
            st = compute_all_bounds(net, box, method)
            assert st.bound_objectives(obj)[0] >= 1.000009 - 1e-12, method
            assert st.output_bounds()[1][0] >= 1.000009 - 1e-12, method

    def test_reported_value_is_an_upper_bound(self):
        # weights near 1e-7 leave the primal optimum of the margin LP a
        # little infeasible; its objective, 0.6659494786483652, fell below
        # the true maximum, which the value from the dual does not
        relu = [
            (-0.69311254826503266, ((1, -0.64264048610163527), (2, 4.5969765107398803e-07))),
            (-0.94304340814152998, ((1, -0.45327909798433685), (2, -2.7246669547723412e-07))),
            (0.70764135271751649, ((1, 6.6973888918687363e-07), (2, -0.090355636910248283))),
            (-0.11243811887328858, ((1, 0.25107250877647513), (2, -3.4693978105599111e-07))),
            (-0.641981078067835, ((3, 0.61793648835737391), (4, 0.724797054948352),
                                  (5, -4.3637668176888741e-07), (6, -0.93780603375774629))),
            (0.39017512170665825, ((3, -0.097277847029658471), (4, 0.87483630071164442),
                                   (5, 9.2247178460903129e-07), (6, 0.47936893356622412))),
            (0.8944873421137991, ((3, -8.8296730991901333e-07), (4, -0.64119811437714302),
                                  (5, 7.7113896919715372e-07), (6, -0.63071080424478287))),
        ]
        neurons = [Neuron(1, "input", (), 0.0), Neuron(2, "input", (), 0.0)]
        neurons += [Neuron(i + 3, "relu", w, b) for i, (b, w) in enumerate(relu)]
        neurons.append(Neuron(10, "output", ((7, 0.28918354382935152), (8, -0.97279609061760852),
                                             (9, -0.22669637602173198)), -0.063138919560128626))
        net = Network(2, neurons, [10])
        box = BoxDomain(np.array([0.1, 0.2]), np.array([0.7, 0.9]))
        obj = Objectives.rows(net, net.n_state, net.n_neurons).select([1])  # its negation
        true_max = 0.6659495465008871  # exact_max_oracle gives one ulp more
        assert exact_max_oracle(net, box, obj) >= true_max
        for method in ("lp", "optc2v"):
            assert compute_all_bounds(net, box, method).bound_objectives(obj)[0] >= true_max, \
                method

    def test_sandwich_on_random_networks(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            net = generate_random_network(
                [2, int(rng.integers(2, 6)), int(rng.integers(2, 6)), 1],
                seed=int(rng.integers(1 << 30)))
            box = BoxDomain(np.array([0.1, 0.1]), np.array([0.9, 0.9]))
            st = interval_state(net, box)
            objs = Objectives.rows(net, net.n_state, net.n_neurons)  # both signs
            for o in (objs.select([0]), objs.select([1])):
                exact = exact_max_oracle(net, box, o)
                v0 = optc2v_bound(st, o, 0)[0]
                v2 = optc2v_bound(st, o, 2)[0]
                assert exact <= v2 + 1e-6
                assert v2 <= v0 + 1e-9

    def test_warm_vs_cold_consistency(self, golden_net, golden_box, monkeypatch):
        # the cut loop re-solves warm; a cold solve of the final model must
        # agree (checked here by rebuilding with the same cuts)
        st = interval_state(golden_net, golden_box)
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        added = record_cuts(monkeypatch)
        warm_val = optc2v_bound(st, obj, 3)[0]
        assert added
        dl = delta_lp(st, obj)
        for row, rhs in added:
            add_row(dl, row, rhs)
        cold = solve_lp(dl.model)
        assert cold.status == LpStatus.OPTIMAL
        assert warm_val == pytest.approx(cold.objective_value, abs=1e-7)

    def test_each_reach_solves_one_tableau(self, monkeypatch):
        # every bound of one reach starts from that reach's one start: the
        # first objective's stack of one, solved cold and copied before its
        # first cut; every later stack, of one or of several, starts warm
        # from it and borders arrays of its own
        import relucert.simplex as simplex
        stacks, solves = [], []
        real_init, real_solve = simplex.Lockstep.__init__, simplex.Lockstep.solve

        def init(self, model, c, constant, start=None):
            real_init(self, model, c, constant, start)
            stacks.append((self, start))

        def solve(self, *args, **kwargs):
            solves.append((self, self.tab))
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(simplex.Lockstep, "__init__", init)
        monkeypatch.setattr(simplex.Lockstep, "solve", solve)
        st = sweep_with_margins("optc2v")
        starts = [dl.start for dl in st.lps.values()]
        cold = [stack for stack, start in stacks if start is None]
        assert len(cold) == len(starts) and all(len(stack) == 1 for stack in cold)
        assert all(stack.warm and any(start is s for s in starts) for stack, start in stacks
                   if start is not None)
        assert len(stacks) > len(starts)  # reused across bounds
        assert any(len(stack) > 1 for stack, _ in stacks) \
            and any(len(stack) == 1 and start is not None for stack, start in stacks)
        for dl, stack in zip(st.lps.values(), cold):
            assert dl.start is not stack and dl.start.model is dl.model
        tableaux = [tab for _, tab in solves]
        assert len(solves) > len(stacks)  # cut loops ran
        assert not any(t is s.tab for t in tableaux for s in starts)

    @pytest.mark.parametrize("method", ["lp", "optc2v"])
    def test_one_model_per_reach(self, method, monkeypatch):
        # a sweep and its margins build one relaxation per distinct reach,
        # and every LP solved, in a stack of one or of several, is one of
        # them, with a column per input and per mixed neuron below its reach
        import relucert.simplex as simplex
        builds, reaches, models = {}, [], []
        real_build, real_bound = relaxation.build_delta_lp, relaxation.optc2v_bound
        real_lockstep = simplex.Lockstep.__init__

        def build(bounds, reach):
            dl = real_build(bounds, reach)
            builds[id(dl.model)] = (bounds, reach)
            return dl

        def bound(bounds, objective, rounds):
            reaches.extend(objective.reach.tolist())
            return real_bound(bounds, objective, rounds)

        def lockstep(self, model, c, constant, start=None):
            models.append(model)
            real_lockstep(self, model, c, constant, start)

        monkeypatch.setattr(relaxation, "build_delta_lp", build)
        monkeypatch.setattr(relaxation, "optc2v_bound", bound)
        monkeypatch.setattr(simplex.Lockstep, "__init__", lockstep)
        st = sweep_with_margins(method)
        assert sorted(reach for _, reach in builds.values()) == sorted(set(reaches))
        assert len(reaches) > len(builds)
        assert models and all(id(model) in builds for model in models)
        for model in models:
            bounds, reach = builds[id(model)]
            assert model.n_vars == len(substitution_by_neuron(bounds, reach)[0])

    def test_tableau_beyond_the_block_goes_one_by_one(self, monkeypatch):
        # the level-2 rows of the 4,8,8,3 net share one tableau; with room
        # for LOCKSTEP_MIN of them in LP_BLOCK they go in stacks of several,
        # with a block one entry short each is a stack of one; the bounds
        # agree
        import relucert.simplex as simplex
        stacks = []
        real = simplex.Lockstep.__init__

        def lockstep(self, model, c, constant, start=None):
            stacks.append((len(c), (model.n_rows + 1) * (model.n_vars + 1)))
            real(self, model, c, constant, start)

        monkeypatch.setattr(simplex.Lockstep, "__init__", lockstep)
        ref = sweep_with_margins("optc2v")
        assert any(q > 1 for q, _ in stacks)
        entries = max(size for q, size in stacks if q > 1)
        sweeps = {}
        for block in (entries * relaxation.LOCKSTEP_MIN, entries * relaxation.LOCKSTEP_MIN - 1):
            stacks.clear()
            monkeypatch.setattr(relaxation, "LP_BLOCK", block)
            sweeps[block] = sweep_with_margins("optc2v")
            several = [q * size for q, size in stacks if q > 1]
            assert all(entries <= block for entries in several)
            assert bool(several) == (block % relaxation.LOCKSTEP_MIN == 0)
        for st in sweeps.values():
            assert np.allclose(st.pre_upper, ref.pre_upper, rtol=0.0, atol=1e-9)
            assert np.allclose(st.pre_lower, ref.pre_lower, rtol=0.0, atol=1e-9)

    def test_cuts_do_not_leak(self, monkeypatch):
        # cuts border each stack's own tableau: the shared model and its
        # start keep exactly the rows build_delta_lp gave them
        added = record_cuts(monkeypatch)
        st = sweep_with_margins("optc2v")
        assert added
        assert st.lps
        for reach, dl in st.lps.items():
            fresh = build_delta_lp(st, reach)
            assert dl.start.basic.shape[1] == dl.model.n_rows == fresh.model.n_rows
            for (i1, c1, s1, r1), (i2, c2, s2, r2) in zip(dl.model.rows, fresh.model.rows):
                assert np.array_equal(i1, i2) and np.array_equal(c1, c2) and (s1, r1) == (s2, r2)

    # solver pivots of lp on instance 0 of the acceptance corpus, sweep and
    # margins, when every row and margin was one cold solve of its own model
    COLD_PIVOTS = 1222

    def test_warm_rows_keep_pivots_down(self, monkeypatch):
        import relucert.simplex as simplex
        net = generate_random_network([6, 20, 20, 3], seed=1, weight_scale=0.7)
        inst = generate_instances(net, 1, epsilon=0.16, seed=1001)[0]
        pivots = []
        real = simplex.Lockstep.solve

        def solve(self, *args, **kwargs):
            sol = real(self, *args, **kwargs)
            pivots.extend(sol.iterations.tolist())
            return sol

        monkeypatch.setattr(simplex.Lockstep, "solve", solve)
        verify(net, inst, method="lp", attack=False)
        assert len(pivots) == 42  # 20 level-2 rows from both sides, 2 margins
        assert sum(pivots) <= 0.6 * self.COLD_PIVOTS
