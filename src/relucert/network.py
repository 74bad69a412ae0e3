"""Neuron-ordered representation of trained ReLU networks.

A network is a flat, topologically ordered list of neurons: the first ``m``
neurons are inputs, followed by ReLU neurons, followed by affine output
neurons.  Every neuron declares a sparse affine row over *earlier* neurons, so
arbitrary skip connections are supported and layers are only an emergent
property of the weight pattern.  At construction the rows become dense level
matrices, the only weights the package reads: :attr:`Network.levels` groups
the ReLU neurons into levels, each reading only earlier levels, and
:attr:`Network.output` holds the final affine map.  :func:`forward` evaluates
a batch of inputs on them, one level per step.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

INPUT = "input"
RELU = "relu"
OUTPUT = "output"

_KINDS = (INPUT, RELU, OUTPUT)

# Serialization uses 17 significant digits, enough to round-trip IEEE doubles.
_FLOAT_FMT = "%.17g"


class NetworkParseError(ValueError):
    """Malformed network or instance file; carries the offending location."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class NetworkInvariantError(ValueError):
    """Structural invariant violation, naming the offending neuron index;
    ``position`` is its place in the neuron list, None for the whole network."""

    def __init__(self, neuron_index, message, position=None):
        self.neuron_index = neuron_index
        self.position = position
        super().__init__(f"neuron {neuron_index}: {message}")


@dataclass(frozen=True)
class Neuron:
    """One neuron: 1-based position, kind, and its sparse incoming row.

    ``weights`` is a tuple of ``(source_index, weight)`` pairs with every
    source strictly earlier in the order.  Input neurons have no weights and
    zero bias.
    """

    index: int
    kind: str
    weights: tuple[tuple[int, float], ...]
    bias: float


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box ``lower <= x <= upper`` (equal coordinates allowed)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise ValueError(f"box coordinate {bad}: lower {lo[bad]} > upper {hi[bad]}")

    def __len__(self):
        return self.lower.shape[0]

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, tol=0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng, count=None) -> np.ndarray:
        """Uniform sample(s); shape (len,) or (count, len)."""
        if count is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(self.lower, self.upper, size=(count, len(self)))


@dataclass(frozen=True, eq=False)
class Level:
    """Neurons whose sources all lie in earlier levels, as one dense map.

    ``pos`` holds the neurons' 0-based positions, ascending; ``src`` the
    ascending union of their sources (inputs and earlier levels' neurons, so
    a skip connection is just one more column).  Row ``i`` of ``weights``
    and ``bias[i]`` are neuron ``pos[i]``'s affine row over ``src``, with
    zeros for the sources it does not read.
    """

    pos: np.ndarray
    src: np.ndarray
    weights: np.ndarray
    bias: np.ndarray


class Network:
    """Validated, immutable network in neuron order.

    Attributes:
        input_dim (int): number of input neurons ``m``.
        neurons (tuple of Neuron): all neurons as declared, indices
            contiguous from 1; files are written from them, and every other
            reader takes the level matrices and ``output``.
        output_indices (tuple of int): 1-based indices of the output neurons.
        n_neurons (int): total neuron count including outputs.
        n_outputs (int): count of output neurons.
        n_hidden (int): count of ReLU neurons.
        n_state (int): inputs + ReLU neurons; the length of the
            post-activation vector (outputs are not part of the state).
        levels (tuple of Level): the ReLU neurons by level, lowest first.
            A neuron's level is one more than the highest level among its
            sources (inputs are level 0), so a level reads only earlier ones.
        output (Level): the output neurons, at positions ``n_state ..
            n_neurons-1``, as one affine map over the state positions they
            read; output ``k`` is its row ``k``.
        level_of (int array): per state position, its level (0 for inputs);
            neuron ``p`` is row ``level_row[p]`` of ``levels[level_of[p] - 1]``.
        runs (tuple of (int, int)): the ReLU positions as maximal blocks
            ``start .. stop-1`` of consecutive positions in one level, in
            order; no row of a run reads a position from ``start`` on.  In a
            layered network each level is one run.
    """

    def __init__(self, input_dim, neurons, output_indices):
        self.input_dim = int(input_dim)
        self.neurons = tuple(neurons)
        self.output_indices = tuple(int(i) for i in output_indices)
        self._validate()
        self.n_neurons = len(self.neurons)
        self.n_outputs = len(self.output_indices)
        self.n_state = self.n_neurons - self.n_outputs
        self.n_hidden = self.n_state - self.input_dim
        self._build_levels()

    def _build_levels(self):
        """The levels and the output map from one flat pass over the
        declared weights."""
        m, n_state, n = self.input_dim, self.n_state, self.n_neurons
        body = self.neurons[m:]
        counts = np.fromiter((len(nr.weights) for nr in body), np.intp, len(body))
        terms = np.fromiter(chain.from_iterable(chain.from_iterable(nr.weights for nr in body)),
                            float, 2 * int(counts.sum())).reshape(-1, 2)
        owner = np.repeat(np.arange(m, n), counts)  # each weight's neuron
        src, w = terms[:, 0].astype(np.intp) - 1, terms[:, 1]
        bias = np.fromiter((nr.bias for nr in body), float, len(body))
        # one more than the highest level among the sources: each round
        # settles the next level; the output map comes after the last
        level_of = base = (np.arange(n) >= m).astype(np.intp)
        while True:
            new = base.copy()
            np.maximum.at(new, owner, level_of[src] + 1)
            if np.array_equal(new, level_of):
                break
            level_of = new
        level_of[n_state:] = level_of[:n_state].max() + 1
        row, owner_level, levels = np.full(n, -1, dtype=np.intp), level_of[owner], []
        for lv in range(1, level_of[-1] + 1):
            pos = np.flatnonzero(level_of == lv)
            row[pos] = np.arange(pos.size)
            t = np.flatnonzero(owner_level == lv)
            cols, col = np.unique(src[t], return_inverse=True)
            weights = np.zeros((pos.size, cols.size))
            weights[row[owner[t]], col] = w[t]
            levels.append(Level(pos=pos, src=cols, weights=weights, bias=bias[pos - m]))
        self.levels, self.output = tuple(levels[:-1]), levels[-1]
        self.level_of, self.level_row = level_of[:n_state], row[:n_state]
        starts = (m + np.flatnonzero(np.diff(self.level_of[m:], prepend=0))).tolist()
        self.runs = tuple(zip(starts, starts[1:] + [n_state]))

    def _validate(self):
        m = self.input_dim
        if m < 1:
            raise NetworkInvariantError(0, "input dimension must be >= 1")
        if len(self.neurons) < m:
            raise NetworkInvariantError(0, f"fewer than m={m} neurons")
        if not self.output_indices:
            raise NetworkInvariantError(0, "network declares no outputs")
        out_set = set(self.output_indices)
        seen_output = False

        def bad(message):  # about the neuron the loop is at
            return NetworkInvariantError(nr.index, message, pos)

        for pos, nr in enumerate(self.neurons):
            idx = pos + 1
            if nr.index != idx:
                raise bad(f"index not contiguous at position {pos} (expected {idx})")
            if nr.kind not in _KINDS:
                raise bad(f"unknown kind {nr.kind!r}")
            if idx <= m:
                if nr.kind != INPUT:
                    raise bad("first m neurons must be inputs")
                if nr.weights or nr.bias != 0.0:
                    raise bad("input neuron must have no weights and zero bias")
                continue
            if nr.kind == INPUT:
                raise bad("input neuron after position m")
            if (nr.kind == OUTPUT) != (idx in out_set):
                raise bad("kind disagrees with declared output indices")
            if nr.kind == OUTPUT:
                seen_output = True
            elif seen_output:
                raise bad("relu neuron after an output neuron")
            prev = 0
            for j, _ in nr.weights:
                if not 1 <= j < idx:
                    raise bad(f"weight references non-earlier neuron {j}")
                if j in out_set:
                    raise bad(f"weight references output neuron {j}")
                if j <= prev:
                    raise bad("weight sources must be strictly increasing")
                prev = j
        # sorted, not as sets, so that a repeated output index is rejected too
        if sorted(self.output_indices) != [nr.index for nr in self.neurons if nr.kind == OUTPUT]:
            raise NetworkInvariantError(0, "output_indices do not match neurons of kind output")


def forward(net: Network, X) -> tuple[np.ndarray, np.ndarray]:
    """Exact evaluation of a batch of inputs, one level per step: per row of
    ``X``, the post-activation vector over inputs + ReLU neurons, and the outputs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"inputs have shape {X.shape}, expected (batch, {net.input_dim})")
    Z = np.empty((X.shape[0], net.n_state))
    Z[:, :net.input_dim] = X
    for level in net.levels:
        Z[:, level.pos] = np.maximum(Z[:, level.src] @ level.weights.T + level.bias, 0.0)
    out = net.output
    return Z, Z[:, out.src] @ out.weights.T + out.bias


def eval_network(net: Network, x) -> tuple[np.ndarray, np.ndarray]:
    """Exact evaluation of one input, as :func:`forward` of a batch of one:
    the post-activation vector over inputs + ReLU neurons, and the outputs."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    Z, Y = forward(net, x[None])
    return Z[0], Y[0]


def classify(net: Network, x) -> int:
    """Predicted class: argmax output, ties broken toward the lower index."""
    return int(np.argmax(eval_network(net, x)[1]))


def generate_random_network(layer_sizes, seed, weight_scale=1.0) -> Network:
    """Dense layer-to-layer network with uniform weights in ``[-scale, scale]``.

    ``layer_sizes`` is ``[inputs, hidden..., outputs]``; hidden layers are
    ReLU and the last layer is affine.  A single-element spec produces a
    network with no ReLU neurons whose outputs are a random affine map of the
    inputs.  Deterministic for a fixed seed.
    """
    sizes = [int(s) for s in layer_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("all layer sizes must be >= 1")
    if not 0.0 <= 2.0 * weight_scale < np.inf:  # the width of the weight range
        raise ValueError(f"weight_scale must be >= 0 with 2 * weight_scale finite, "
                         f"got {weight_scale}")
    if len(sizes) == 1:
        sizes = sizes * 2
    rng = np.random.default_rng(seed)
    m = sizes[0]
    neurons = [Neuron(i, INPUT, (), 0.0) for i in range(1, m + 1)]
    prev = list(range(1, m + 1))
    for depth, size in enumerate(sizes[1:], start=1):
        kind = OUTPUT if depth == len(sizes) - 1 else RELU
        cur = []
        for _ in range(size):
            idx = len(neurons) + 1
            w = rng.uniform(-weight_scale, weight_scale, size=len(prev))
            b = float(rng.uniform(-weight_scale, weight_scale))
            neurons.append(Neuron(idx, kind, tuple(zip(prev, w.tolist())), b))
            cur.append(idx)
        prev = cur
    return Network(m, neurons, prev)


def save_network(net: Network, path):
    """Write the human-diffable text format (17 significant digits)."""
    with open(path, "w") as fh:
        outs = ",".join(str(i) for i in net.output_indices)
        fh.write(f"m={net.input_dim} outputs={outs}\n")
        for nr in net.neurons:
            parts = [str(nr.index), nr.kind, _FLOAT_FMT % nr.bias]
            if nr.weights:
                terms = " ".join(f"({j},{_FLOAT_FMT % v})" for j, v in nr.weights)
                parts.append("w:" + terms)
            fh.write(" ".join(parts) + "\n")


def _finite(text) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


def load_network(path) -> Network:
    """Parse and validate a network file; ``nan`` and ``inf`` are rejected."""
    neurons, neuron_lines = [], []
    m = header_line = outputs = None
    with open(path) as fh:
        lines = fh.readlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            try:
                m_part, out_part = line.split()
                if not m_part.startswith("m=") or not out_part.startswith("outputs="):
                    raise ValueError
                m = int(m_part[2:])
                outputs = [int(s) for s in out_part[8:].split(",") if s]
            except ValueError:
                raise NetworkParseError(path, line_no, f"bad header {line!r}") from None
            if not outputs:
                raise NetworkParseError(path, line_no, "header declares no outputs")
            header_line = line_no
            continue
        fields = line.split()
        if len(fields) < 3:
            raise NetworkParseError(path, line_no, f"expected 'i kind b ...', got {line!r}")
        try:
            idx = int(fields[0])
            kind = fields[1]
            bias = _finite(fields[2])
        except ValueError:
            raise NetworkParseError(path, line_no, f"bad index/kind/bias in {line!r}") from None
        weights = []
        rest = fields[3:]
        if rest:
            if not rest[0].startswith("w:"):
                raise NetworkParseError(path, line_no, "weight list must start with 'w:'")
            rest[0] = rest[0][2:]
            for term in rest:
                if not (term.startswith("(") and term.endswith(")")):
                    raise NetworkParseError(path, line_no, f"bad weight term {term!r}")
                try:
                    j_s, v_s = term[1:-1].split(",")
                    j, v = int(j_s), _finite(v_s)
                except ValueError:
                    raise NetworkParseError(path, line_no, f"bad weight term {term!r}") from None
                weights.append((j, v))
        neurons.append(Neuron(idx, kind, tuple(weights), bias))
        neuron_lines.append(line_no)
    if m is None:
        raise NetworkParseError(path, 1, "missing header line")
    if not neurons:
        raise NetworkParseError(path, len(lines) or 1, "file declares no neurons")
    try:
        return Network(m, neurons, outputs)
    except NetworkInvariantError as exc:  # the neuron's line, or the header's
        line = header_line if exc.position is None else neuron_lines[exc.position]
        raise NetworkParseError(path, line, str(exc)) from None
