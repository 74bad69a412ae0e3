"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines bypass output capture, so any pytest invocation
shows them as the criteria complete.  Every tolerance and runtime budget is
asserted inside the test itself.
"""

import math
import time

import numpy as np
import pytest

from relucert.network import BoxDomain, classify, generate_random_network
from relucert.propagation import (Objectives, backward_pass, compute_all_bounds, forward_pass,
                                  tightened_bound)
from relucert.relaxation import optc2v_bound
from relucert.simplex import LpStatus
from relucert.verifier import (attack_upper_bound, batch_verify,
                               generate_instances)

from conftest import delta_lp, interval_state, make_golden_network, random_mixed_instance
from oracles import (corner_value, cut_from_pair, delta_upper_value,
                     enumerate_cut_pairs, envelope_min_by_enumeration, exact_max_oracle,
                     expr_from_row, lifted_envelope_value, make_hull_instance,
                     minimize_upper_envelope_median, minimize_upper_envelope_sort, relu_value,
                     neuron_row, separate_sort, solve_lp)

EXACT = 1e-9

# pinned corpus for criteria 6 and 7: seeds found by searching until both
# method separations are witnessed (fastc2v over deeppoly, optc2v over lp)
CORPUS_LAYERS = [6, 20, 20, 3]
CORPUS_NET_SEED = 1
CORPUS_WEIGHT_SCALE = 0.7
CORPUS_INSTANCE_SEED = 1001
CORPUS_EPSILON = 0.16
CORPUS_SIZE = 50


class _Criterion:
    def __init__(self, number, title, budget_s, capfd=None, charge_s=0.0):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.capfd = capfd
        self.charge = charge_s  # work done on this criterion's behalf elsewhere

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0 + self.charge
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        line = (f"ACCEPTANCE {self.number} ({self.title}): {status} "
                f"[{elapsed:.2f}s / budget {self.budget:.0f}s]")
        if self.capfd is not None:
            with self.capfd.disabled():  # keep the line visible when captured
                print(line, flush=True)
        else:
            print(line, flush=True)
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s")
        return False


@pytest.fixture(scope="module")
def corpus():
    net = generate_random_network(CORPUS_LAYERS, seed=CORPUS_NET_SEED,
                                  weight_scale=CORPUS_WEIGHT_SCALE)
    instances = generate_instances(net, CORPUS_SIZE, epsilon=CORPUS_EPSILON,
                                   seed=CORPUS_INSTANCE_SEED)
    return net, instances


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    net, instances = corpus
    t0 = time.perf_counter()
    runs = {m: batch_verify(net, instances, method=m)
            for m in ("deeppoly", "fastc2v", "lp", "optc2v")}
    return net, instances, runs, time.perf_counter() - t0


def verified_set(run):
    return {i for i, rep in enumerate(run.reports)
            if rep is not None and rep.verdict == "verified"}


def test_criterion_1_golden_bound_chain(capfd):
    with _Criterion(1, "worked-example bound chain", 1.0, capfd):
        net = make_golden_network()
        box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        st = interval_state(net, box, menu="deeppoly")
        expect = {2: (-1.0, 3.0), 3: (-0.5, 1.5), 4: (1.0, 2.5), 5: (-4.0, 2.0)}
        for pos, (lo, hi) in expect.items():
            assert abs(st.pre_lower[pos] - lo) <= EXACT
            assert abs(st.pre_upper[pos] - hi) <= EXACT

        obj = expr_from_row(*neuron_row(net, 6), eta=6)
        res = backward_pass(st.funcs, obj)
        assert abs(res.bound[0] - 4.0) <= EXACT
        assert np.allclose(res.x_star[0], [-1.0, -1.0], atol=EXACT)

        z = forward_pass(st.funcs, res.x_star, res.ub_used, 6)[0]
        assert np.allclose(z[[0, 1, 2, 3, 5]], [-1.0, -1.0, 1.0, 1.5, 1.5], atol=EXACT)
        assert abs(obj.coeffs[0] @ z + obj.constant[0] - 4.0) <= EXACT

        inst = make_hull_instance([-1.5, 1.0], 0.5, [0.0, 0.0], [3.0, 1.5])
        assert enumerate_cut_pairs(inst) == [((), 0), ((1,), 0)]
        c1 = cut_from_pair(inst, (), 0)
        assert c1.idx.tolist() == [0]
        assert np.allclose(c1.coeffs, [-2.0 / 3.0], atol=EXACT)
        assert abs(c1.constant - 2.0) <= EXACT
        c2 = cut_from_pair(inst, (1,), 0)
        assert c2.idx.tolist() == [0, 1]
        assert np.allclose(c2.coeffs, [-1.0 / 6.0, 1.0], atol=EXACT)
        assert abs(c2.constant - 0.5) <= EXACT

        sep = separate_sort(inst, z[[2, 3]], z[5])
        assert sep.cut.index_set == () and sep.cut.anchor == 0
        assert abs(sep.envelope - 4.0 / 3.0) <= EXACT
        assert abs(sep.violation - 1.0 / 6.0) <= EXACT

        tight = tightened_bound(st.funcs, obj, 1, st.table)[0]
        assert abs(tight - 23.0 / 6.0) <= EXACT


def test_criterion_2_extremal_pair_counts(capfd):
    with _Criterion(2, "pair-family cardinality bounds", 5.0, capfd):
        for d in range(2, 11):
            low = make_hull_instance(np.ones(d), -0.5, np.zeros(d), np.ones(d))
            assert len(enumerate_cut_pairs(low)) == d
            high = make_hull_instance(np.ones(d), -math.ceil(d / 2),
                                      np.zeros(d), np.ones(d))
            assert len(enumerate_cut_pairs(high)) == \
                math.ceil(d / 2) * math.comb(d, math.ceil(d / 2))
        rng = np.random.default_rng(202)
        for d in range(1, 11):
            for _ in range(200):
                inst = random_mixed_instance(rng, d)
                k = inst.size
                cnt = len(enumerate_cut_pairs(inst))
                assert k <= cnt <= math.ceil(k / 2) * math.comb(k, math.ceil(k / 2))


def test_criterion_3_separation_correctness(capfd):
    with _Criterion(3, "separation vs enumeration and lifted LP", 30.0, capfd):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            inst = random_mixed_instance(rng, int(rng.integers(1, 13)))
            x = np.zeros(inst.dim)
            x[inst.support] = rng.uniform(inst.lower, inst.upper)
            target = envelope_min_by_enumeration(inst, x)
            vs, _, _ = minimize_upper_envelope_sort(inst, x)
            vm, _, _ = minimize_upper_envelope_median(inst, x)
            assert abs(vs - target) <= EXACT
            assert abs(vm - target) <= EXACT
        for _ in range(500):
            inst = random_mixed_instance(rng, int(rng.integers(1, 21)))
            x = np.zeros(inst.dim)
            x[inst.support] = rng.uniform(inst.lower, inst.upper)
            vs, _, _ = minimize_upper_envelope_sort(inst, x)
            assert abs(vs - lifted_envelope_value(inst, x)) <= 1e-7


def test_criterion_4_hull_validity_and_tightness(capfd):
    with _Criterion(4, "cut validity, anchor tightness, chord dominance", 30.0, capfd):
        rng = np.random.default_rng(404)
        for _ in range(150):
            inst = random_mixed_instance(rng, int(rng.integers(1, 9)))
            cuts = [cut_from_pair(inst, I, h) for I, h in enumerate_cut_pairs(inst)]
            X = rng.uniform(inst.lower, inst.upper, (100, inst.size))
            for x_loc in X:
                x = np.zeros(inst.dim)
                x[inst.support] = x_loc
                y = relu_value(inst, x)
                for cut in cuts:
                    assert y <= cut.value(x) + EXACT
                env, _, _ = minimize_upper_envelope_sort(inst, x)
                assert env <= delta_upper_value(inst, x) + EXACT
            for cut in cuts:
                both = set(cut.index_set) | {cut.anchor}
                x0 = np.zeros(inst.dim)
                x0[inst.support] = [inst.min_corner[i] if i in both
                                    else inst.max_corner[i] for i in range(inst.size)]
                assert abs(relu_value(inst, x0)) <= EXACT
                assert abs(cut.value(x0)) <= EXACT
                x1 = np.zeros(inst.dim)
                x1[inst.support] = [inst.min_corner[i] if i in cut.index_set
                                    else inst.max_corner[i] for i in range(inst.size)]
                ell = corner_value(inst, cut.index_set)
                assert abs(relu_value(inst, x1) - ell) <= EXACT
                assert abs(cut.value(x1) - ell) <= EXACT
        golden = make_hull_instance([-1.5, 1.0], 0.5, [0.0, 0.0], [3.0, 1.5])
        env, _, _ = minimize_upper_envelope_sort(golden, [1.0, 1.5])
        assert delta_upper_value(golden, [1.0, 1.5]) - env >= 1.0 / 6.0 - EXACT


def test_criterion_5_sandwich_and_dominance(capfd):
    with _Criterion(5, "oracle sandwich and method dominance", 300.0, capfd):
        rng = np.random.default_rng(505)
        done = 0
        while done < 100:
            layers = [int(rng.integers(2, 4)), int(rng.integers(3, 7)),
                      int(rng.integers(3, 7)), 1]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)),
                                          weight_scale=1.0)
            mid = rng.uniform(0.3, 0.7, layers[0])
            ext = float(rng.uniform(0.15, 0.5))
            box = BoxDomain(np.clip(mid - ext, 0, 1), np.clip(mid + ext, 0, 1))
            st = interval_state(net, box)
            if st.table.n > 12:
                continue
            done += 1
            st_iv = compute_all_bounds(net, box, "interval")
            st_dp = compute_all_bounds(net, box, "deeppoly")
            st_fc = compute_all_bounds(net, box, "fastc2v")
            objs = Objectives.rows(net, net.n_state, net.n_neurons)  # both signs
            for o in (objs.select([0]), objs.select([1])):
                exact = exact_max_oracle(net, box, o)
                rounds = int(rng.integers(1, 4))
                v_r = optc2v_bound(st, o, rounds)[0]
                v_0 = optc2v_bound(st, o, 0)[0]
                dl, c, constant = delta_lp(st, o)
                plain = solve_lp(dl.model, c, constant)
                assert plain.status == LpStatus.OPTIMAL
                assert exact <= v_r + 1e-6
                assert v_r <= v_0 + 1e-6
                assert abs(v_0 - plain.objective_value) <= 1e-9
                (b_fc,) = st_fc.bound_objectives(o)
                (b_dp,) = st_dp.bound_objectives(o)
                (b_iv,) = st_iv.bound_objectives(o)
                assert exact <= b_fc + 1e-6
                assert b_fc <= b_dp + 1e-6
                assert b_dp <= b_iv + 1e-6


def test_criterion_6_corpus_verification_counts(corpus_runs, capfd):
    net, instances, runs, setup_s = corpus_runs
    with _Criterion(6, "corpus verified-count separations", 300.0, capfd,
                    charge_s=setup_s):
        v = {m: verified_set(r) for m, r in runs.items()}
        assert len(v["fastc2v"]) >= len(v["deeppoly"])
        assert len(v["optc2v"]) >= len(v["lp"])
        assert v["fastc2v"] - v["deeppoly"], "no instance separates fastc2v from deeppoly"
        assert v["optc2v"] - v["lp"], "no instance separates optc2v from lp"


def test_criterion_7_attack_validity(corpus_runs, capfd):
    with _Criterion(7, "attack witnesses and verified-instance safety", 60.0, capfd):
        net, instances, runs, _ = corpus_runs
        checked_witnesses = 0
        for run in runs.values():
            for inst, rep in zip(instances, run.reports):
                if rep is not None and rep.verdict == "falsified":
                    assert rep.witness is not None
                    assert classify(net, rep.witness) != inst.label
                    assert np.all(np.abs(rep.witness - inst.x_hat)
                                  <= inst.epsilon + 1e-12)
                    assert np.all(rep.witness >= -1e-12)
                    assert np.all(rep.witness <= 1.0 + 1e-12)
                    checked_witnesses += 1
        assert checked_witnesses > 0
        ever_verified = set()
        for run in runs.values():
            ever_verified |= verified_set(run)
        assert ever_verified
        for i in sorted(ever_verified):
            adv = attack_upper_bound(net, instances[i], restarts=100,
                                     steps=20, lr=0.01)
            assert adv is None, f"attack defeated a verified instance {i}"
