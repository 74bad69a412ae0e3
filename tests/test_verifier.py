import numpy as np
import pytest

from relucert import propagation, relaxation
from relucert.network import (INPUT, OUTPUT, RELU, BoxDomain, Network, NetworkParseError,
                              Neuron, classify, eval_network, generate_random_network)
from relucert.propagation import METHODS, Objectives, compute_all_bounds
from relucert.simplex import LpStatus
from relucert.verifier import (FALSIFIED, UNKNOWN, VERIFIED, RobustnessInstance,
                               attack_upper_bound, batch_verify, build_input_box,
                               format_report_line, generate_instances,
                               load_instances, margin_objective, save_instances,
                               verify, write_report)

from conftest import make_skip_network
from oracles import neuron_row


class TestInputBox:
    def test_clipping(self):
        inst = RobustnessInstance(np.array([0.01, 0.99]), 0.05, 0)
        box = build_input_box(inst)
        assert np.allclose(box.lower, [0.0, 0.94])
        assert np.allclose(box.upper, [0.06, 1.0])

    def test_zero_radius_point_box(self):
        inst = RobustnessInstance(np.array([0.5, 0.25]), 0.0, 0)
        box = build_input_box(inst)
        assert np.array_equal(box.lower, box.upper)

    def test_canonical_epsilon(self):
        inst = RobustnessInstance(np.array([0.5]), 0.026, 0)
        box = build_input_box(inst)
        assert box.lower[0] == pytest.approx(0.474)
        assert box.upper[0] == pytest.approx(0.526)

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            RobustnessInstance(np.array([1.5]), 0.1, 0)
        with pytest.raises(ValueError):
            RobustnessInstance(np.array([0.5]), -0.1, 0)


class TestMarginObjective:
    def test_margin_evaluates_to_logit_difference(self):
        net = generate_random_network([3, 4, 3], seed=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            z, y = eval_network(net, x)
            for k in range(3):
                for t in range(3):
                    obj = margin_objective(net, k, t)
                    value = obj.coeffs[0] @ z + obj.constant[0]
                    assert value == pytest.approx(y[k] - y[t], abs=1e-12)

    def test_class_range_checked(self):
        net = generate_random_network([2, 2, 2], seed=0)
        with pytest.raises(ValueError):
            margin_objective(net, 2, 0)


class TestGoldenThreshold:
    """The golden network as a 1-output regressor with a decision threshold:
    a method with bound below the threshold certifies, one above cannot."""

    def test_bound_methods_straddle_threshold(self, golden_net, golden_box):
        from relucert.propagation import Objectives, tightened_bound
        from oracles import expr_from_row
        from conftest import interval_state
        st = interval_state(golden_net, golden_box, menu="deeppoly")
        obj = expr_from_row(*neuron_row(golden_net, 6), eta=6)
        beta = 4.0
        plain = tightened_bound(st.funcs, obj, 0)[0]
        tight = tightened_bound(st.funcs, obj, 1, st.table)[0]
        assert not plain < beta          # 4.0: cannot certify y < 4
        assert tight < beta              # 23/6: certifies


class TestAttack:
    def test_misclassified_center_immediate(self):
        net = generate_random_network([3, 4, 2], seed=4)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 3)
        wrong = 1 - classify(net, x)
        inst = RobustnessInstance(x, 0.05, wrong)
        adv = attack_upper_bound(net, inst)
        assert adv is not None and np.array_equal(adv, x)

    def test_witness_inside_box(self):
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = generate_instances(net, 30, epsilon=0.15, seed=3)
        found = 0
        for inst in insts:
            if classify(net, inst.x_hat) != inst.label:
                continue
            adv = attack_upper_bound(net, inst, restarts=40, steps=20)
            if adv is None:
                continue
            found += 1
            assert np.all(np.abs(adv - inst.x_hat) <= inst.epsilon + 1e-12)
            assert np.all(adv >= -1e-12) and np.all(adv <= 1 + 1e-12)
            assert classify(net, adv) != inst.label
        assert found >= 1  # the radius is large enough that some flips exist

    def test_linear_network_attack_matches_box_maximum(self):
        # no ReLU: gradient ascent must reach the closed-form maximizer
        net = generate_random_network([3], seed=9)
        # outputs are affine rows of the inputs; pick t = argmin margin
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.7, 3)
        t = classify(net, x)
        inst = RobustnessInstance(x, 0.2, t)
        box = build_input_box(inst)
        best = -np.inf
        for k in range(net.n_outputs):
            if k == t:
                continue
            obj = margin_objective(net, k, t)
            c = obj.coeffs[0, :3]
            best = max(best, float(np.maximum(c, 0) @ box.upper
                                   + np.minimum(c, 0) @ box.lower) + obj.constant[0])
        adv = attack_upper_bound(net, inst, restarts=8, steps=60, lr=0.05)
        if best > 1e-9:
            assert adv is not None
            z, y = eval_network(net, adv)
            got = max(y[k] - y[t] for k in range(net.n_outputs) if k != t)
            assert got >= best - 0.02  # near the vertex optimum
        else:
            assert adv is None

    def test_deterministic_for_seed(self):
        net = generate_random_network([3, 5, 2], seed=6)
        inst = generate_instances(net, 1, epsilon=0.3, seed=7)[0]
        a = attack_upper_bound(net, inst, seed=3)
        b = attack_upper_bound(net, inst, seed=3)
        assert (a is None and b is None) or np.array_equal(a, b)


class TestVerify:
    def test_zero_radius_verifies(self):
        net = generate_random_network([3, 4, 2], seed=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 3)
        inst = RobustnessInstance(x, 0.0, classify(net, x))
        rep = verify(net, inst, method="interval")
        assert rep.verdict == VERIFIED

    def test_falsified_attaches_checked_witness(self):
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = generate_instances(net, 20, epsilon=0.2, seed=3)
        seen = False
        for inst in insts:
            if classify(net, inst.x_hat) != inst.label:
                continue
            rep = verify(net, inst, method="deeppoly")
            if rep.verdict == FALSIFIED:
                seen = True
                assert classify(net, rep.witness) != inst.label
                assert rep.witness_label != inst.label
        assert seen

    def test_never_both_verified_and_falsified(self):
        # a verified instance admits no witness: re-run the attack directly
        net = generate_random_network([4, 8, 3], seed=12, weight_scale=0.7)
        insts = generate_instances(net, 15, epsilon=0.05, seed=13)
        for inst in insts:
            if classify(net, inst.x_hat) != inst.label:
                continue
            rep = verify(net, inst, method="fastc2v")
            if rep.verdict == VERIFIED:
                assert attack_upper_bound(net, inst) is None

    def test_unknown_when_attack_off(self, golden_net):
        # threshold framing aside, a 2-class random net with some hard case
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = generate_instances(net, 30, epsilon=0.12, seed=3)
        for inst in insts:
            if classify(net, inst.x_hat) != inst.label:
                continue
            rep = verify(net, inst, method="interval", attack=False)
            assert rep.verdict in (VERIFIED, UNKNOWN)

    def test_unconfirmed_witness_is_dropped(self, monkeypatch):
        # a "witness" that exact evaluation still labels correctly (here the
        # center itself) must not make the instance falsified
        import relucert.verifier as verifier_module
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        inst = generate_instances(net, 1, epsilon=0.3, seed=3)[0]
        monkeypatch.setattr(verifier_module, "attack_upper_bound",
                            lambda net, inst, seed=0: inst.x_hat.copy())
        rep = verify(net, inst, method="interval")
        assert rep.verdict == UNKNOWN
        assert rep.witness is None and rep.witness_label is None

    def test_dual_simplex_does_not_cycle(self):
        # under Bland's rule the dual simplex used to pick the first
        # infeasible row, not the basic variable of smallest index, and
        # cycled to the iteration limit on the first output-row LP here
        # (verify no longer bounds output rows; the margin LPs share its model)
        net = generate_random_network([10, 30, 30, 30, 10], seed=1, weight_scale=0.5)
        inst = generate_instances(net, 1, epsilon=0.05, seed=1001)[0]
        rep = verify(net, inst, method="lp")
        assert rep.fallback is None
        assert rep.verdict == VERIFIED
        assert max(rep.margin_bounds.values()) == pytest.approx(-0.5732, abs=1e-3)

    @pytest.mark.parametrize("method", ["lp", "optc2v"])
    def test_one_level_net_solves_only_margin_lps(self, method, monkeypatch):
        # hidden rows over inputs take the interval bound and no verdict
        # reads the output rows, so the margins are the only LPs
        import relucert.relaxation as relaxation_module
        net = generate_random_network([4, 8, 3], seed=7, weight_scale=0.8)
        calls = []
        real = relaxation_module.optc2v_bound
        monkeypatch.setattr(relaxation_module, "optc2v_bound",
                            lambda bounds, objective, rounds: calls.append(objective)
                            or real(bounds, objective, rounds))
        for inst in generate_instances(net, 3, epsilon=0.1, seed=8):
            calls.clear()
            verify(net, inst, method=method, attack=False)
            assert [(len(obj), obj.eta) for obj in calls] == [(net.n_outputs - 1, net.n_state)]

    @pytest.mark.parametrize("method", ["deeppoly", "fastc2v"])
    def test_no_backward_pass_on_output_rows(self, method, monkeypatch):
        import relucert.propagation as propagation_module
        net = generate_random_network([3, 6, 6, 3], seed=9, weight_scale=0.8)
        rows = Objectives.rows(net, net.n_state, net.n_neurons)  # both signs
        objectives = []
        real = propagation_module.backward_pass
        monkeypatch.setattr(propagation_module, "backward_pass",
                            lambda funcs, obj, swaps=None: objectives.append(obj)
                            or real(funcs, obj, swaps))
        inst = generate_instances(net, 1, epsilon=0.1, seed=10)[0]
        verify(net, inst, method=method, attack=False)
        assert any(obj.eta < net.n_state for obj in objectives)
        for obj in objectives:
            for coeffs, constant in zip(obj.coeffs, obj.constant):
                assert not any(np.array_equal(coeffs, c) and constant == b
                               for c, b in zip(rows.coeffs, rows.constant))

    def test_margins_all_bounded_by_default(self):
        net = generate_random_network([3, 5, 4], seed=3)
        inst = generate_instances(net, 1, epsilon=0.01, seed=4)[0]
        rep = verify(net, inst, method="deeppoly")
        assert sorted(rep.margin_bounds) == [k for k in range(4) if k != inst.label]

    @pytest.mark.parametrize("method", METHODS)
    def test_last_bit_of_the_box_moves_no_margin(self, method):
        # acceptance instances 2 and 13, where ties among the separator's
        # ratios let a one-ulp change of the box move fastc2v and optc2v
        # margins by up to 6e-4 before the tie rules
        net = generate_random_network([6, 20, 20, 3], seed=1, weight_scale=0.7)
        insts = generate_instances(net, 50, epsilon=0.16, seed=1001)
        for i in (2, 13):
            t = insts[i].label
            box = build_input_box(insts[i])
            nudged = BoxDomain(np.nextafter(box.lower, np.inf),
                               np.nextafter(box.upper, -np.inf))
            margins = []
            for b in (box, nudged):
                st = compute_all_bounds(net, b, method)
                margins.append(st.bound_objectives(Objectives.of(
                    *(margin_objective(net, k, t) for k in range(net.n_outputs) if k != t))))
            assert np.max(np.abs(np.subtract(*margins))) <= 1e-9, i

    # deeppoly and fastc2v margins, by class, of the first three instances
    # of the 10,30,30,30,10 corpus (weight scale 0.5, net seed 1, instance
    # seed 1001, epsilon 0.1), as the per-neuron passes and separator
    # computed them; the level-wise ones sum in another order
    PINNED_MARGINS = {
        "deeppoly": [
            ["-0x1.6917fe37e203cp-2", "-0x1.f6fb5479ded94p-2", "-0x1.1d09a121d95f2p-1",
             "-0x1.5955a7b334551p-2", "-0x1.5fe588b2a5f75p+0", "0x1.f1068312652fcp-2",
             "0x1.0602c6da6ed8ap-1", "-0x1.5261af9954f20p-3", "-0x1.b6be41d3f9776p-2"],
            ["-0x1.8299c823e569ep+0", "-0x1.1474875a76680p+2", "-0x1.2e9962abdc880p+1",
             "-0x1.8299c7813a675p+1", "-0x1.e4b4a95096224p+1", "-0x1.6ab35a72c2fc8p+1",
             "-0x1.3442cb04ee6b0p+1", "-0x1.cdaaebdfe98f6p+1", "-0x1.658c23875d7b1p+1"],
            ["-0x1.23005c1849359p+0", "-0x1.13e528a97680fp+1", "-0x1.899a7846f4ae5p+0",
             "-0x1.a79cdf7bbfab8p+0", "-0x1.398b2751caebfp+1", "-0x1.7bfd7127d424bp+0",
             "-0x1.edcfbe0119077p-1", "-0x1.d82abe58d317ep+0", "-0x1.af35687ab225cp+0"],
        ],
        "fastc2v": [
            ["-0x1.31b3661730e82p-1", "-0x1.3177b0e06096cp+0", "-0x1.b3d07bcc753c0p-1",
             "-0x1.64a89ceb01aafp-1", "-0x1.aa335d342b489p+0", "0x1.23af8b28cf500p-8",
             "-0x1.19a00153d7c26p-3", "-0x1.293e0f36a6c70p-1", "-0x1.df15c49722ef3p-1"],
            ["-0x1.84b0cdbb08f7ep+0", "-0x1.1615d003c1801p+2", "-0x1.306c899f03c71p+1",
             "-0x1.868f4744e6168p+1", "-0x1.e9aa2e809d4a5p+1", "-0x1.70ede38f3cefap+1",
             "-0x1.375fa62c9188ep+1", "-0x1.d41010760cde8p+1", "-0x1.6740afc4bb737p+1"],
            ["-0x1.3e1e2ba88ee7dp+0", "-0x1.246d5ba78bc45p+1", "-0x1.a143cd01c2d33p+0",
             "-0x1.ccee158d7a5a0p+0", "-0x1.4408d4dcc2912p+1", "-0x1.b81827dfc7f48p+0",
             "-0x1.1d8c611587042p+0", "-0x1.f5a558c65dfbbp+0", "-0x1.d5f3f533ba3d2p+0"],
        ],
    }

    @pytest.mark.parametrize("method", sorted(PINNED_MARGINS))
    def test_deep_net_margins_stay_pinned(self, method):
        net = generate_random_network([10, 30, 30, 30, 10], seed=1, weight_scale=0.5)
        insts = generate_instances(net, 3, epsilon=0.1, seed=1001)
        for inst, want in zip(insts, self.PINNED_MARGINS[method]):
            rep = verify(net, inst, method=method, attack=False)
            got = [rep.margin_bounds[k] for k in sorted(rep.margin_bounds)]
            assert np.allclose(got, [float.fromhex(v) for v in want], rtol=0.0, atol=1e-9)

    # lp margins, by class, of the first instances of the benchmark's two LP
    # corpora (no jitter), as cold solves per row and per margin computed
    # them; a warm re-solve may end in another optimal basis, whose dual
    # bound differs in the last bits
    PINNED_LP_MARGINS = {
        "acceptance": (((6, 20, 20, 3), 0.7, 0.16), [
            ["0x1.a5d3e49a13768p-3", "-0x1.4a7433022f05bp-1"],
            ["0x1.71c3a207a6961p-1", "-0x1.9a8268ca6c2bep-2"],
            ["0x1.a7065c2783990p-4", "-0x1.9713d39c50a3fp-1"],
        ]),
        "wide": (((20, 100, 10), 0.5, 0.07), [
            ["-0x1.03ad4176810e5p+0", "-0x1.3bd7aeccfcaadp-1", "-0x1.ca2bbb45a7448p+0",
             "0x1.4826e048936cep-2", "0x1.42a0fbdd04083p+0", "0x1.774f15cae4e30p-2",
             "-0x1.a04a5f09804ccp+0", "-0x1.d9bf17454392dp-1", "0x1.8daadd9d94f70p-2"],
        ]),
    }

    @pytest.mark.parametrize("corpus", sorted(PINNED_LP_MARGINS))
    def test_lp_margins_stay_pinned(self, corpus):
        (layers, scale, epsilon), pinned = self.PINNED_LP_MARGINS[corpus]
        net = generate_random_network(list(layers), seed=1, weight_scale=scale)
        insts = generate_instances(net, len(pinned), epsilon=epsilon, seed=1001)
        for inst, want in zip(insts, pinned):
            rep = verify(net, inst, method="lp", attack=False)
            got = [rep.margin_bounds[k] for k in sorted(rep.margin_bounds)]
            assert np.allclose(got, [float.fromhex(v) for v in want], rtol=0.0, atol=1e-9)


def margin_case(which):
    """A network, a box and a batch of objectives over its whole state: the
    margins of an instance (both signs of the output row on the one-output
    skip network), then one over the inputs alone, which reaches no hull
    row."""
    if which == "skip":
        net = make_skip_network()
        box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        exprs = [Objectives.rows(net, net.n_state, net.n_neurons)]
    else:
        layers, scale, epsilon, i = {"acceptance": ((6, 20, 20, 3), 0.7, 0.16, 2),
                                     "prop-deep": ((10, 30, 30, 30, 10), 0.5, 0.1, 0)}[which]
        net = generate_random_network(list(layers), seed=1, weight_scale=scale)
        inst = generate_instances(net, i + 1, epsilon=epsilon, seed=1001)[i]
        box = build_input_box(inst)
        exprs = [margin_objective(net, k, inst.label)
                 for k in range(net.n_outputs) if k != inst.label]
    inputs_only = np.zeros(net.n_state)
    inputs_only[:net.input_dim] = np.linspace(-1.0, 1.0, net.input_dim)
    return net, box, Objectives.of(*exprs, Objectives(inputs_only[None], [0.25]))


class TestMarginBatch:
    @pytest.mark.parametrize("block", [1, 1 << 12, 1 << 14])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("which", ["acceptance", "prop-deep", "skip"])
    def test_batch_matches_batches_of_one(self, which, method, block, monkeypatch):
        # the LP methods re-solve warm in call order, so each side gets its
        # own sweep and bounds the objectives in the same order
        monkeypatch.setattr(propagation, "TIGHTEN_BLOCK", block)
        net, box, objs = margin_case(which)
        assert objs.reach[-1] <= net.input_dim  # below every hull row
        batch = compute_all_bounds(net, box, method).bound_objectives(objs)
        st = compute_all_bounds(net, box, method)
        singles = [st.bound_objectives(objs.select([j]))[0] for j in range(len(objs))]
        assert np.allclose(batch, singles, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("which", ["acceptance", "prop-deep", "skip"])
    def test_fastc2v_never_above_deeppoly(self, which):
        net, box, objs = margin_case(which)
        fc = compute_all_bounds(net, box, "fastc2v").bound_objectives(objs)
        dp = compute_all_bounds(net, box, "deeppoly").bound_objectives(objs)
        assert np.all(fc <= dp)

    def test_lp_error_inside_the_batch_falls_back_to_deeppoly(self, monkeypatch):
        net = generate_random_network([6, 20, 20, 3], seed=1, weight_scale=0.7)
        inst = generate_instances(net, 1, epsilon=0.16, seed=1001)[0]
        real = relaxation.optc2v_bound
        margins = []

        def failing(bounds, objective, rounds=3):
            if objective.eta == net.n_state:
                margins.append(objective)
                real(bounds, objective.select([0]), rounds)
                raise relaxation.LpBoundError(LpStatus.ITERATION_LIMIT, "after adding cuts")
            return real(bounds, objective, rounds)

        monkeypatch.setattr(relaxation, "optc2v_bound", failing)
        rep = verify(net, inst, method="optc2v", attack=False)
        # the sweep's rows passed, the first margin passed, the second failed
        assert [len(batch) for batch in margins] == [2]
        assert rep.fallback == "LpBoundError: after adding cuts: LP ended iteration-limit"
        assert rep.margin_bounds == verify(net, inst, method="deeppoly",
                                           attack=False).margin_bounds

    @staticmethod
    def overflowing_net(case):
        """A net whose sums overflow: ``deep``, whose h5 and h6 read h3 and
        h4 with weights of +-1e200, so the LP rows and values overflow;
        ``pivots``, one fan-in-3 row of weights +-1e308, where the simplex
        pivots overflow; ``box``, one fan-in-6 row of weights +-1e308, whose
        interval bound, and so its neuron's box, is infinite; ``nan``, one
        fan-in-8 row whose interval bound is inf - inf."""
        if case == "deep":
            s = 1e200
            return Network(2, [Neuron(1, INPUT, (), 0.0), Neuron(2, INPUT, (), 0.0),
                               Neuron(3, RELU, ((1, s), (2, -s)), 0.0),
                               Neuron(4, RELU, ((1, -s), (2, s)), 0.0),
                               Neuron(5, RELU, ((3, s), (4, s)), -1.0),
                               Neuron(6, RELU, ((3, -s), (4, s)), 0.5),
                               Neuron(7, OUTPUT, ((5, 1.0), (6, -1.0)), 0.0),
                               Neuron(8, OUTPUT, ((5, -1.0), (6, 1.0)), 0.1)], [7, 8])
        w = {"pivots": (1, -1, 1), "box": (1,) * 3 + (-1,) * 3,
             "nan": (1,) * 3 + (-1,) * 5}[case]
        w = tuple(1e308 * g for g in w)
        k = len(w)  # the inputs; then the wide row h, g = relu(x1 - x2), relu(h + g - 0.1)
        return Network(k, [*(Neuron(i, INPUT, (), 0.0) for i in range(1, k + 1)),
                           Neuron(k + 1, RELU, tuple(enumerate(w, start=1)), 0.0),
                           Neuron(k + 2, RELU, ((1, 1.0), (2, -1.0)), 0.0),
                           Neuron(k + 3, RELU, ((k + 1, 1.0), (k + 2, 1.0)), -0.1),
                           Neuron(k + 4, OUTPUT, ((k + 3, 1.0),), 0.0),
                           Neuron(k + 5, OUTPUT, ((k + 2, 1.0), (k + 3, -1.0)), 0.1)],
                       [k + 4, k + 5])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflows
    @pytest.mark.parametrize("method", ["lp", "optc2v"])
    @pytest.mark.parametrize("case, centre", [("deep", 0.5), ("deep", (0.6, 0.4)),
                                              ("pivots", 0.5), ("box", 0.5), ("nan", 0.5)])
    def test_overflowing_lp_falls_back(self, method, case, centre):
        # a non-finite LP value, a non-finite box or row of the relaxation,
        # or an overflow in a solve ends in the deeppoly fallback with its
        # reason, never in an exception out of verify
        net = self.overflowing_net(case)
        rep = verify(net, RobustnessInstance(np.broadcast_to(centre, net.input_dim).copy(), 0.1,
                                             0), method=method, attack=False)
        assert rep.verdict in (VERIFIED, UNKNOWN)
        assert rep.fallback.split(":")[0] in ("ArithmeticError", "FloatingPointError")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflows
    @pytest.mark.parametrize("method", ["interval", "deeppoly", "fastc2v", "lp", "optc2v"])
    def test_nan_margin_ends_unknown_with_a_reason(self, method):
        # the fan-in-8 row's interval bound is inf - inf, so the margin is
        # NaN: never verified, and the report says why; an LP method, which
        # fell back to deeppoly first, gives its own reason before
        net = self.overflowing_net("nan")
        rep = verify(net, RobustnessInstance(np.full(net.input_dim, 0.5), 0.1, 0),
                     method=method, attack=False)
        assert np.isnan(rep.margin_bounds[1]) and rep.verdict == UNKNOWN
        lp = method in ("lp", "optc2v")
        why = f"ArithmeticError: {'deeppoly' if lp else method} margin bound is not a number " \
            "for class 1"
        assert rep.fallback == ("ArithmeticError: scalar bounds below the objective are not "
                                "numbers; " if lp else "") + why
        assert format_report_line(0, rep).endswith(f" fallback={rep.fallback}")

    def test_margin_times_share_one_batch(self):
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        inst = generate_instances(net, 1, epsilon=0.1, seed=3)[0]
        rep = verify(net, inst, method="fastc2v", attack=False)
        shares = list(rep.time_margins.values())
        assert sorted(rep.time_margins) == sorted(rep.margin_bounds)
        assert len(shares) == 2 and shares[0] is shares[1] and shares[0] > 0.0


class TestBatch:
    def test_counts_and_determinism(self):
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = generate_instances(net, 10, epsilon=0.1, seed=3)
        r1 = batch_verify(net, insts, method="deeppoly", deterministic=True)
        r2 = batch_verify(net, insts, method="deeppoly", deterministic=True)
        assert sum(r1.counts.values()) == 10
        lines1 = [format_report_line(i, rep) for i, rep in enumerate(r1.reports)]
        lines2 = [format_report_line(i, rep) for i, rep in enumerate(r2.reports)]
        assert lines1 == lines2  # byte-identical in deterministic mode

    def test_method_dominance_counts(self):
        net = generate_random_network([4, 10, 10, 3], seed=2, weight_scale=0.9)
        insts = generate_instances(net, 12, epsilon=0.08, seed=5)
        res = {m: batch_verify(net, insts, method=m)
               for m in ("interval", "fastlin", "deeppoly", "fastc2v")}
        assert res["interval"].counts[VERIFIED] <= res["fastlin"].counts[VERIFIED]
        assert res["interval"].counts[VERIFIED] <= res["deeppoly"].counts[VERIFIED]
        assert res["deeppoly"].counts[VERIFIED] <= res["fastc2v"].counts[VERIFIED]

    def test_misclassified_centers_skipped(self):
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = list(generate_instances(net, 5, epsilon=0.05, seed=3))
        wrong = RobustnessInstance(insts[0].x_hat, 0.05,
                                   (insts[0].label + 1) % net.n_outputs)
        res = batch_verify(net, insts + [wrong], method="interval")
        assert res.counts["skipped"] >= 1
        assert res.reports[-1] is None

    def test_empty_instances(self):
        net = generate_random_network([2, 2, 2], seed=0)
        res = batch_verify(net, [], method="interval")
        assert sum(res.counts.values()) == 0 and res.reports == []

    def test_failed_lp_instance_falls_back_to_deeppoly(self, monkeypatch):
        # one failing LP of instance 1, first in a stack of one, then one
        # member of a stack of several whose other members solve
        import relucert.simplex as simplex_module
        net = generate_random_network([4, 8, 8, 3], seed=2, weight_scale=0.8)
        insts = generate_instances(net, 3, epsilon=0.1, seed=3)
        bad = build_input_box(insts[1]).lower
        solve = simplex_module.Lockstep.solve
        reason = "LpBoundError: base relaxation: LP ended iteration-limit"
        for several in (False, True):
            failed = []

            def failing_member(self, *args, **kwargs):
                sol = solve(self, *args, **kwargs)
                if np.array_equal(self.lb[0, :net.input_dim], bad) \
                        and (len(self) > 1) == several:
                    failed.append(len(self))
                    sol.status[-1] = LpStatus.ITERATION_LIMIT
                return sol

            monkeypatch.setattr(simplex_module.Lockstep, "solve", failing_member)
            res = batch_verify(net, insts, method="lp", deterministic=True)
            monkeypatch.undo()
            assert len(failed) == 1 and (failed[0] > 1) == several
            assert sum(res.counts.values()) == 3
            assert [rep.fallback for rep in res.reports] == [None, reason, None]
            ref = verify(net, insts[1], method="deeppoly")
            assert res.reports[1].margin_bounds == ref.margin_bounds
            lines = [format_report_line(i, rep) for i, rep in enumerate(res.reports)]
            assert lines[1].endswith(" fallback=" + reason)
            assert "fallback" not in lines[0] + lines[2]

    def test_error_entries_reported_and_skipped(self):
        net = generate_random_network([2, 2, 2], seed=0)
        res = batch_verify(net, ["instances.txt:3: bad instance line"],
                           method="interval")
        assert len(res.errors) == 1 and res.reports == [None]

    def test_unfit_instances_reported_and_skipped(self):
        net = generate_random_network([3, 4, 3], seed=1)
        insts = generate_instances(net, 2, epsilon=0.05, seed=2)
        short = RobustnessInstance(np.array([0.1, 0.2]), 0.05, 0)
        no_class = RobustnessInstance(insts[0].x_hat, 0.05, 3)
        res = batch_verify(net, [insts[0], short, no_class, insts[1]], method="interval")
        assert [i for i, _ in res.errors] == [1, 2]
        assert "dimension 2" in res.errors[0][1] and "dimension 3" in res.errors[0][1]
        assert "label 3" in res.errors[1][1]
        assert res.reports[1] is None and res.reports[2] is None
        assert res.reports[0] is not None and res.reports[3] is not None
        assert res.counts["skipped"] == 0


class TestGenerateInstances:
    def test_centers_are_sequential_draws_labeled_by_classify(self):
        # one batched forward labels the corpus; the centers are the draws
        # of one point at a time
        net = generate_random_network([4, 6, 3], seed=2, weight_scale=0.8)
        rng = np.random.default_rng(11)
        insts = generate_instances(net, 7, 0.05, seed=11)
        assert len(insts) == 7
        for inst in insts:
            x = rng.uniform(0.0, 1.0, size=4)
            assert np.array_equal(inst.x_hat, x) and inst.epsilon == 0.05
            assert type(inst.label) is int and inst.label == classify(net, x)
        assert generate_instances(net, 0, 0.05, seed=11) == []


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        net = generate_random_network([3, 4, 2], seed=8)
        insts = generate_instances(net, 7, epsilon=0.026, seed=9)
        p = tmp_path / "inst.txt"
        save_instances(p, insts)
        loaded = load_instances(p)
        assert len(loaded) == 7
        for a, b in zip(loaded, insts):
            assert np.array_equal(a.x_hat, b.x_hat)
            assert a.epsilon == b.epsilon and a.label == b.label

    def test_lenient_loader_collects_errors(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text("label=0 epsilon=0.1 x=0.5,0.5\nnot an instance\n")
        out = load_instances(p, strict=False)
        assert isinstance(out[0], RobustnessInstance)
        assert isinstance(out[1], str) and ":2:" in out[1]
        with pytest.raises(Exception):
            load_instances(p, strict=True)

    def test_nan_epsilon_rejected_with_line(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text("label=0 epsilon=0.1 x=0.5,0.5\nlabel=0 epsilon=nan x=0.5,0.5\n")
        with pytest.raises(NetworkParseError) as ei:
            load_instances(p)
        assert ":2:" in str(ei.value)
        out = load_instances(p, strict=False)
        assert isinstance(out[0], RobustnessInstance)
        assert isinstance(out[1], str) and ":2:" in out[1]
        with pytest.raises(ValueError):
            RobustnessInstance(np.array([0.5]), np.inf, 0)
        with pytest.raises(ValueError):
            RobustnessInstance(np.array([np.nan]), 0.1, 0)

    def test_report_file(self, tmp_path):
        net = generate_random_network([3, 4, 2], seed=8)
        insts = generate_instances(net, 3, epsilon=0.02, seed=9)
        res = batch_verify(net, insts, method="interval", deterministic=True)
        p = tmp_path / "report.txt"
        write_report(p, res, "interval")
        lines = p.read_text().splitlines()
        assert len(lines) == 4 and lines[-1].startswith("summary ")
        assert all(l.startswith("instance=") for l in lines[:-1])
