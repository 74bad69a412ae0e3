import numpy as np
import pytest

from relucert.network import (INPUT, OUTPUT, RELU, BoxDomain, Network,
                              NetworkInvariantError, NetworkParseError, Neuron,
                              classify, eval_network, forward, generate_random_network,
                              load_network, save_network)

from conftest import make_golden_network, make_row_case_networks, make_skip_network
from oracles import eval_network_by_neuron, neuron_row


class TestEval:
    def test_golden_point(self, golden_net):
        z, y = eval_network(golden_net, np.array([-1.0, -1.0]))
        assert np.allclose(z[2:], [1.0, 1.5, 2.5, 0.5], atol=0, rtol=0)
        assert y[0] == pytest.approx(3.0, abs=0)

    def test_golden_inactive_point(self, golden_net):
        z, y = eval_network(golden_net, np.array([1.0, -1.0]))
        assert z[2] == 0.0 and z[3] == 0.0
        zn, yn = eval_network_by_neuron(golden_net, [1.0, -1.0])
        assert np.array_equal(z, zn) and np.array_equal(y, yn)

    def test_zero_weight_net_outputs_biases(self):
        neurons = [Neuron(1, INPUT, (), 0.0),
                   Neuron(2, RELU, (), -0.25),
                   Neuron(3, OUTPUT, (), 0.75)]
        net = Network(1, neurons, [3])
        z, y = eval_network(net, np.array([0.3]))
        assert z[1] == 0.0 and y[0] == 0.75

    def test_dimension_mismatch(self, golden_net):
        with pytest.raises(ValueError):
            eval_network(golden_net, np.zeros(3))

    def test_agrees_with_naive_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            layers = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 5)))]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-2, 2, net.input_dim)
            z, y = eval_network(net, x)
            zn, yn = eval_network_by_neuron(net, x)
            assert np.allclose(z, zn, rtol=1e-12, atol=0)
            assert np.allclose(y, yn, rtol=1e-12, atol=0)


ROW_CASES = make_row_case_networks()


class TestForward:
    @pytest.mark.parametrize("which", ["golden", "outputs read inputs", "no relu",
                                       "explicit zero weight"])
    def test_agrees_with_the_per_neuron_oracle(self, which):
        net = ROW_CASES[which]
        X = np.random.default_rng(3).uniform(-2.0, 2.0, (25, net.input_dim))
        Z, Y = forward(net, X)
        assert Z.shape == (25, net.n_state) and Y.shape == (25, net.n_outputs)
        for x, z, y in zip(X, Z, Y):
            zn, yn = eval_network_by_neuron(net, x)
            z1, y1 = eval_network(net, x)
            for got, want in ((z, zn), (y, yn), (z1, zn), (y1, yn)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), which
            assert classify(net, x) == int(np.argmax(yn)), which

    def test_output_level_holds_the_output_rows(self):
        net = ROW_CASES["outputs read inputs"]
        out = net.output
        assert out.pos.tolist() == [3, 4] and out.src.tolist() == [0, 1, 2]
        assert np.array_equal(out.weights, [[0.7, 0.0, 1.0], [0.0, -1.3, 0.0]])
        assert out.bias.tolist() == [0.2, -0.1]

    def test_batch_shape_checked(self, golden_net):
        with pytest.raises(ValueError):
            forward(golden_net, np.zeros(2))
        with pytest.raises(ValueError):
            forward(golden_net, np.zeros((4, 3)))
        assert forward(golden_net, np.zeros((0, 2)))[1].shape == (0, 1)


class TestLevels:
    def test_golden_levels(self, golden_net):
        # h11, h12 read the inputs; h21, h22 read h11, h12
        a, b = golden_net.levels
        assert a.pos.tolist() == [2, 3] and a.src.tolist() == [0, 1]
        assert np.array_equal(a.weights, [[-1.0, 1.0], [-1.0, 0.0]])
        assert a.bias.tolist() == [1.0, 0.5]
        assert b.pos.tolist() == [4, 5] and b.src.tolist() == [2, 3]
        assert np.array_equal(b.weights, [[0.0, 1.0], [-1.5, 1.0]])
        assert b.bias.tolist() == [1.0, 0.5]
        assert golden_net.level_of.tolist() == [0, 0, 1, 1, 2, 2]
        assert golden_net.level_row.tolist() == [-1, -1, 0, 1, 0, 1]

    def test_skip_connections_are_extra_source_columns(self):
        net = make_skip_network()
        a, b = net.levels
        assert a.pos.tolist() == [2, 4] and a.src.tolist() == [0, 1]
        assert np.array_equal(a.weights, [[1.0, -1.0], [0.0, -1.0]])
        assert b.pos.tolist() == [3] and b.src.tolist() == [0, 1, 2]
        assert np.array_equal(b.weights, [[0.5, 1.0, -1.2]])
        assert net.level_of.tolist() == [0, 0, 1, 2, 1]
        # the output row reads both levels
        assert set(net.level_of[neuron_row(net, net.n_state)[0]].tolist()) == {1, 2}

    def test_every_row_is_its_level_row(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layers = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 6)))]
            net = generate_random_network(layers, seed=int(rng.integers(1 << 30)))
            assert len(net.levels) == max(len(layers) - 2, 0)
            for pos in range(net.input_dim, net.n_state):
                level = net.levels[net.level_of[pos] - 1]
                i = net.level_row[pos]
                assert level.pos[i] == pos
                idx, w, b = neuron_row(net, pos)
                dense = np.zeros(net.n_state)
                dense[level.src] = level.weights[i]
                assert np.array_equal(dense[idx], w) and level.bias[i] == b
                assert np.count_nonzero(dense) == np.count_nonzero(w)
                assert np.all(net.level_of[idx] < net.level_of[pos])

    def test_no_relu_no_levels(self):
        net = generate_random_network([3], seed=0)
        assert net.levels == () and net.level_of.tolist() == [0, 0, 0]


class TestInvariants:
    def test_forward_reference_rejected(self):
        neurons = [Neuron(1, INPUT, (), 0.0),
                   Neuron(2, RELU, ((3, 1.0),), 0.0),
                   Neuron(3, OUTPUT, ((2, 1.0),), 0.0)]
        with pytest.raises(NetworkInvariantError) as ei:
            Network(1, neurons, [3])
        assert "neuron 2" in str(ei.value)

    def test_input_with_weights_rejected(self):
        neurons = [Neuron(1, INPUT, ((1, 1.0),), 0.0),
                   Neuron(2, OUTPUT, (), 0.0)]
        with pytest.raises(NetworkInvariantError):
            Network(1, neurons, [2])

    def test_output_referenced_rejected(self):
        neurons = [Neuron(1, INPUT, (), 0.0),
                   Neuron(2, OUTPUT, ((1, 1.0),), 0.0),
                   Neuron(3, OUTPUT, ((2, 1.0),), 0.0)]
        with pytest.raises(NetworkInvariantError):
            Network(1, neurons, [2, 3])

    def test_relu_after_output_rejected(self):
        neurons = [Neuron(1, INPUT, (), 0.0),
                   Neuron(2, OUTPUT, ((1, 1.0),), 0.0),
                   Neuron(3, RELU, ((1, 1.0),), 0.0)]
        with pytest.raises(NetworkInvariantError):
            Network(1, neurons, [2])

    def test_noncontiguous_indices_rejected(self):
        neurons = [Neuron(1, INPUT, (), 0.0), Neuron(3, OUTPUT, (), 0.0)]
        with pytest.raises(NetworkInvariantError):
            Network(1, neurons, [3])


class TestFileFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(10):
            net = generate_random_network(
                [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))],
                seed=trial, weight_scale=3.0)
            p = tmp_path / f"net{trial}.txt"
            save_network(net, p)
            loaded = load_network(p)
            assert loaded.input_dim == net.input_dim
            assert loaded.output_indices == net.output_indices
            for a, b in zip(loaded.neurons, net.neurons):
                assert a == b  # exact equality, including float bits

    def test_golden_file_loads(self, tmp_path, golden_net):
        p = tmp_path / "golden.txt"
        save_network(golden_net, p)
        net = load_network(p)
        assert net.input_dim == 2 and net.n_hidden == 4 and net.n_outputs == 1
        assert [n.kind for n in net.neurons] == [
            INPUT, INPUT, RELU, RELU, RELU, RELU, OUTPUT]

    def test_forward_reference_in_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("m=1 outputs=3\n1 input 0\n2 relu 0 w:(3,1.0)\n3 output 0 w:(2,1)\n")
        with pytest.raises(NetworkParseError) as ei:
            load_network(p)
        assert "neuron 2" in str(ei.value) and ":3:" in str(ei.value)

    def test_empty_neuron_list_is_parse_error(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("m=1 outputs=2\n")
        with pytest.raises(NetworkParseError):
            load_network(p)

    def test_malformed_line_reports_location(self, tmp_path):
        p = tmp_path / "bad2.txt"
        p.write_text("m=1 outputs=2\n1 input 0\n2 output zzz\n")
        with pytest.raises(NetworkParseError) as ei:
            load_network(p)
        assert ":3:" in str(ei.value)

    def test_small_weight_loads_intact(self, tmp_path):
        p = tmp_path / "small.txt"
        p.write_text("m=1 outputs=3\n1 input 0\n2 relu 0 w:(1,1e-7)\n"
                     "3 output 0 w:(1,0.5) (2,1.0)\n")
        net_full = load_network(p)
        assert net_full.neurons[1].weights == ((1, 1e-7),)

    def test_nan_bias_reports_location(self, tmp_path):
        p = tmp_path / "nan.txt"
        p.write_text("m=1 outputs=3\n1 input 0\n2 relu nan w:(1,1)\n"
                     "3 output 0 w:(2,1)\n")
        with pytest.raises(NetworkParseError) as ei:
            load_network(p)
        assert ":3:" in str(ei.value)

    def test_inf_weight_reports_location(self, tmp_path):
        p = tmp_path / "inf.txt"
        p.write_text("m=1 outputs=3\n1 input 0\n2 relu 0 w:(1,1)\n"
                     "3 output 0 w:(2,-inf)\n")
        with pytest.raises(NetworkParseError) as ei:
            load_network(p)
        assert ":4:" in str(ei.value)


class TestRandomNetworks:
    def test_deterministic_for_seed(self):
        a = generate_random_network([2, 3, 1], seed=7)
        b = generate_random_network([2, 3, 1], seed=7)
        assert a.neurons == b.neurons

    def test_seed_sensitivity(self):
        a = generate_random_network([2, 3, 1], seed=7)
        b = generate_random_network([2, 3, 1], seed=8)
        assert any(x != y for x, y in zip(a.neurons, b.neurons))

    def test_single_layer_spec_has_no_relu(self):
        net = generate_random_network([1], seed=0)
        assert net.n_hidden == 0 and net.input_dim == 1 and net.n_outputs == 1
        assert net.neurons[1].kind == OUTPUT
        assert net.neurons[1].weights[0][0] == 1  # affine row over the input

    def test_bad_layer_sizes(self):
        with pytest.raises(ValueError):
            generate_random_network([2, 0, 1], seed=0)


class TestBoxDomain:
    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    def test_collapsed_coordinate_allowed(self):
        box = BoxDomain(np.array([0.0, 5.0]), np.array([1.0, 5.0]))
        assert box.contains([0.5, 5.0])
        assert box.midpoint()[1] == 5.0


def test_golden_network_fixture_matches_definitions(golden_net):
    # guard against fixture drift: weights as stated in the module docstring
    h22 = golden_net.neurons[5]
    assert h22.weights == ((3, -1.5), (4, 1.0)) and h22.bias == 0.5
    assert make_golden_network().neurons == golden_net.neurons
