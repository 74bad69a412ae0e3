"""The benchmark's own view of a network file and its output checks.

Nothing here calls the bound code under test: the network is read from the
text file the benchmark wrote, grouped into levels, and evaluated with one
dense matrix product per level.  The checks compare the program's verdicts,
margin bounds and witnesses against that evaluation.
"""

from __future__ import annotations

import numpy as np

# A margin bound may sit this far below a margin actually attained: the
# program and this file sum the same products in a different order.
EVAL_TOL = 1e-7
# Tightened margins may exceed their base margins by at most this much.
DOMINANCE_TOL = 1e-6
SAMPLES_PER_BOX = 256


class DenseNet:
    """A network file as dense per-level weight blocks.

    ``level[p]`` is 0 for inputs and 1 plus the highest level among the
    sources of neuron ``p`` otherwise (0-based positions).  Output neurons
    are kept apart from the hidden levels.
    """

    def __init__(self, path):
        with open(path) as fh:
            header, *body = [ln.split() for ln in fh if ln.strip()]
        self.m = int(header[0][2:])
        outputs = [int(s) - 1 for s in header[1][8:].split(",")]
        n = len(body)
        W = np.zeros((n, n))
        bias = np.zeros(n)
        for fields in body:
            pos = int(fields[0]) - 1
            bias[pos] = float(fields[2])
            if len(fields) > 3:
                fields[3] = fields[3][2:]
                for term in fields[3:]:
                    j, v = term[1:-1].split(",")
                    W[pos, int(j) - 1] = float(v)
        self.n_state = n - len(outputs)
        if outputs != list(range(self.n_state, n)):
            raise ValueError(f"{path}: outputs are not the last neurons")
        level = np.zeros(n, dtype=int)
        for pos in range(self.m, n):
            src = np.flatnonzero(W[pos, :pos])
            level[pos] = 1 + (level[src].max() if src.size else 0)
        self.level = level
        hidden = level[self.m:self.n_state]
        self.depth = int(hidden.max()) if hidden.size else 0
        self.blocks = []
        for k in range(1, self.depth + 1):
            rows = np.flatnonzero((level == k) & (np.arange(n) < self.n_state))
            self.blocks.append((rows, W[rows], bias[rows]))
        self.out_w = W[self.n_state:]
        self.out_b = bias[self.n_state:]

    def outputs(self, X) -> np.ndarray:
        """Output values for a batch of inputs, shape (batch, outputs)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.zeros((X.shape[0], self.n_state))
        Z[:, :self.m] = X
        for rows, W, b in self.blocks:
            Z[:, rows] = np.maximum(Z @ W[:, :self.n_state].T + b, 0.0)
        return Z @ self.out_w[:, :self.n_state].T + self.out_b

    def classify(self, X) -> np.ndarray:
        return np.argmax(self.outputs(X), axis=1)


def clipped_box(x, epsilon):
    return np.maximum(0.0, x - epsilon), np.minimum(1.0, x + epsilon)


def check_instance(dn: DenseNet, x, epsilon, label, base, tight, rng) -> list[str]:
    """Problems with one instance's pair of reports; empty when all hold.

    ``base`` and ``tight`` are ``VerificationReport`` objects, or None for a
    call that raised.
    """
    lo, hi = clipped_box(x, epsilon)
    pts = np.vstack([x, rng.uniform(lo, hi, size=(SAMPLES_PER_BOX, len(x)))])
    Y = dn.outputs(pts)
    attained = Y - Y[:, label:label + 1]
    problems = []
    for role, rep in (("base", base), ("tight", tight)):
        if rep is None:
            continue
        for k, bound in rep.margin_bounds.items():
            if bound < attained[:, k].max() - EVAL_TOL:
                problems.append(f"{role} margin {k} bound {bound!r} is below "
                                f"an attained margin {attained[:, k].max()!r}")
        if rep.verdict == "verified" and np.any(np.argmax(Y, axis=1) != label):
            problems.append(f"{role} verified a box holding a misclassified point")
        if rep.verdict == "falsified":
            w = rep.witness
            if np.any(w < lo) or np.any(w > hi):
                problems.append(f"{role} witness lies outside the box")
            elif dn.classify(w)[0] == label:
                problems.append(f"{role} witness is classified as the label")
    if base is None or tight is None:
        return problems
    for k, b in base.margin_bounds.items():
        t = tight.margin_bounds.get(k)
        if t is not None and t > b + DOMINANCE_TOL:
            problems.append(f"tight margin {k} {t!r} exceeds base {b!r}")
    if base.verdict == "verified" and tight.verdict != "verified":
        problems.append("base verified an instance that tight did not")
    if {base.verdict, tight.verdict} == {"verified", "falsified"}:
        problems.append("one method verified what the other falsified")
    return problems
