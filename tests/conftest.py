"""Shared fixtures: the hand-worked example network and instance generators.

The "golden" network is a 2-input, 4-ReLU, 1-output network whose bounds,
hull cuts, and separation values are known exactly and are asserted against
hand-derived constants throughout the suite:

    h11 = max(0, -x1 + x2 + 1)      h21 = max(0, h12 + 1)
    h12 = max(0, -x1 + 0.5)         h22 = max(0, -1.5 h11 + h12 + 0.5)
    y   = h21 + h22                 x in [-1, 1]^2
"""

import numpy as np
import pytest

from relucert.network import (INPUT, OUTPUT, RELU, BoxDomain, Network, Neuron,
                              generate_random_network)
from relucert.propagation import BoundingFunctions, compute_all_bounds
from relucert.relaxation import build_delta_lp

from oracles import MIXED, HullInstance, classify_phase, make_hull_instance, neuron_row


def make_golden_network() -> Network:
    neurons = [
        Neuron(1, INPUT, (), 0.0),
        Neuron(2, INPUT, (), 0.0),
        Neuron(3, RELU, ((1, -1.0), (2, 1.0)), 1.0),
        Neuron(4, RELU, ((1, -1.0),), 0.5),
        Neuron(5, RELU, ((4, 1.0),), 1.0),
        Neuron(6, RELU, ((3, -1.5), (4, 1.0)), 0.5),
        Neuron(7, OUTPUT, ((5, 1.0), (6, 1.0)), 0.0),
    ]
    return Network(2, neurons, [7])


def make_skip_network() -> Network:
    """Two inputs, a ReLU level read again past the next one, and an
    interleaved order: h3 reads both inputs (level 1), h4 reads both inputs
    and h3 (level 2), h5 reads x2 only (level 1 again, after h4), and the
    output reads levels 1 and 2."""
    neurons = [
        Neuron(1, INPUT, (), 0.0),
        Neuron(2, INPUT, (), 0.0),
        Neuron(3, RELU, ((1, 1.0), (2, -1.0)), 0.1),
        Neuron(4, RELU, ((1, 0.5), (2, 1.0), (3, -1.2)), 0.2),
        Neuron(5, RELU, ((2, -1.0),), 0.3),
        Neuron(6, OUTPUT, ((3, 1.0), (4, 2.0), (5, -1.0)), 0.0),
    ]
    return Network(2, neurons, [6])


def make_interleaved_network() -> Network:
    """Two inputs and two levels of two runs each: h3 and h5 read the
    inputs (level 1), h4 reads h3 and h6 reads h5 (level 2), so level 2's
    source columns name h5, a position past its first run."""
    neurons = [
        Neuron(1, INPUT, (), 0.0),
        Neuron(2, INPUT, (), 0.0),
        Neuron(3, RELU, ((1, 1.0), (2, -1.0)), 0.1),
        Neuron(4, RELU, ((1, 0.5), (3, -1.2)), 0.2),
        Neuron(5, RELU, ((1, -0.7), (2, 0.9)), 0.3),
        Neuron(6, RELU, ((2, 0.8), (5, 1.1)), -0.4),
        Neuron(7, OUTPUT, ((4, 1.0), (6, -2.0)), 0.0),
    ]
    return Network(2, neurons, [7])


def make_row_case_networks() -> dict:
    """Small networks whose level matrices differ from their declared rows
    in some way: skip columns, a level of two runs, outputs that read the
    inputs, no ReLU at all, and an explicit zero weight."""
    return {
        "golden": make_golden_network(),
        "skip": make_skip_network(),
        "interleaved": make_interleaved_network(),
        "outputs read inputs": Network(2, [
            Neuron(1, INPUT, (), 0.0),
            Neuron(2, INPUT, (), 0.0),
            Neuron(3, RELU, ((1, 1.0), (2, -0.5)), 0.1),
            Neuron(4, OUTPUT, ((1, 0.7), (3, 1.0)), 0.2),
            Neuron(5, OUTPUT, ((2, -1.3),), -0.1),
        ], [4, 5]),
        "no relu": generate_random_network([3], seed=0),
        "explicit zero weight": Network(2, [
            Neuron(1, INPUT, (), 0.0),
            Neuron(2, INPUT, (), 0.0),
            Neuron(3, RELU, ((1, 0.0), (2, 1.0)), -0.2),
            Neuron(4, RELU, ((1, -1.0), (3, 0.0)), 0.4),
            Neuron(5, OUTPUT, ((1, 0.0), (3, 2.0), (4, -1.0)), 0.3),
            Neuron(6, OUTPUT, ((4, 0.0),), 0.1),
        ], [5, 6]),
    }


@pytest.fixture(scope="session")
def golden_net() -> Network:
    return make_golden_network()


@pytest.fixture(scope="session")
def golden_box() -> BoxDomain:
    return BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


@pytest.fixture(scope="session")
def h22_instance() -> HullInstance:
    """The hull instance of the golden network's h22 neuron: weights
    (-1.5, 1), bias 0.5, over the post-activation box [0,3] x [0,1.5]."""
    return make_hull_instance([-1.5, 1.0], 0.5, [0.0, 0.0], [3.0, 1.5])


def interval_state(net, box, menu=None):
    """Interval bounds plus a hull instance, over state positions, for every
    mixed ReLU neuron, and with ``menu`` the menu's bounding functions over
    the interval bounds.

    The worked bound chain and the LP tests start from this state: the
    ``interval`` sweep alone builds no hull instances, since it never
    tightens.
    """
    st = compute_all_bounds(net, box, "interval")
    if menu is not None:
        st.funcs = BoundingFunctions.empty(net, box)
    for pos in range(net.input_dim, net.n_state):
        lo, hi = st.pre_lower[pos], st.pre_upper[pos]
        if menu is not None:
            st.funcs.set_initial(pos, menu, lo, hi)
        if lo < 0.0 < hi:
            idx, w, b = neuron_row(net, pos)
            st.table.add([pos], idx, w, [b], st.post_lower[idx], st.post_upper[idx])
    return st


def delta_lp(bounds, objective):
    """The relaxation LP of the reach of a batch of one objective, and that
    objective over its variables, as ``(dl, c, constant)``."""
    dl = build_delta_lp(bounds, int(objective.reach[0]))
    return (dl, *dl.objectives(objective.coeffs, objective.constant))


def random_mixed_instance(rng, n, allow_zero_weights=False) -> HullInstance:
    """A random sign-spanning hull instance with a nondegenerate box."""
    while True:
        w = rng.uniform(-2.0, 2.0, n)
        if allow_zero_weights and n > 1:
            w[rng.integers(0, n)] = 0.0
        lo = rng.uniform(-1.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 2.0, n)
        vmax = float(np.maximum(w, 0.0) @ hi + np.minimum(w, 0.0) @ lo)
        vmin = float(np.maximum(w, 0.0) @ lo + np.minimum(w, 0.0) @ hi)
        if vmax - vmin < 1e-6:
            continue
        # bias placing 0 strictly inside (vmin + b, vmax + b]
        b = -float(rng.uniform(vmin + 1e-9, vmax))
        inst = make_hull_instance(w, b, lo, hi)
        if classify_phase(inst) == MIXED and inst.size >= 1:
            return inst


def sample_box_point(inst, rng):
    return rng.uniform(inst.lower, inst.upper)
