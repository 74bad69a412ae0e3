"""End-to-end robustness certification driver.

Ties the bound pipelines together for the standard L-infinity robustness
question: for an input ``x_hat`` correctly labeled ``t`` and radius
``epsilon``, certify that every input in the clipped box keeps the label.
Scalar bounds of the ReLU neurons are computed once per instance and reused
across all margin objectives ``f_k - f_t``; no verdict reads the output rows'
own bounds, so none are computed.  The verdict is
``verified`` when every margin's upper bound is negative, otherwise a
projected-gradient attack decides between ``falsified`` (with an exactly
re-checked witness attached) and ``unknown``.  An instance whose LP bounds
fail numerically is bounded with ``deeppoly`` instead, and its report
records why.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .network import BoxDomain, Network, NetworkParseError, classify, forward
from .propagation import (DEEPPOLY, DEFAULT_CUT_ROUNDS, LP, METHODS, OPTC2V, Objectives,
                          compute_all_bounds)
from .relaxation import LpBoundError

VERIFIED = "verified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"

ATTACK_RESTARTS = 100
ATTACK_STEPS = 20
ATTACK_LR = 0.01


@dataclass(frozen=True, eq=False, slots=True)
class RobustnessInstance:
    """A center point in [0,1]^m, a radius, and the expected label."""

    x_hat: np.ndarray
    epsilon: float
    label: int

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float))
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if not np.all((self.x_hat >= 0.0) & (self.x_hat <= 1.0)):
            raise ValueError("x_hat must lie in [0,1]^m")


@dataclass(eq=False, slots=True)
class VerificationReport:
    verdict: str
    method: str
    label: int
    epsilon: float
    margin_bounds: dict[int, float]
    witness: np.ndarray | None = None
    witness_label: int | None = None
    time_total: float = 0.0
    time_bounds: float = 0.0
    # one equal share of the margin batch's time per class
    time_margins: dict[int, float] = field(default_factory=dict)
    # why the margins are deeppoly's, not the method's, or why one is not a number
    fallback: str | None = None


def instance_error(net: Network, inst: RobustnessInstance) -> str | None:
    """Why ``inst`` cannot be posed on ``net``, or None when it can."""
    if len(inst.x_hat) != net.input_dim:
        return (f"instance has dimension {len(inst.x_hat)}, "
                f"network input has dimension {net.input_dim}")
    if not 0 <= inst.label < net.n_outputs:
        return f"label {inst.label} is not a class of the network ({net.n_outputs} outputs)"
    return None


def build_input_box(inst: RobustnessInstance) -> BoxDomain:
    """Per-coordinate interval ``[max(0, x-eps), min(1, x+eps)]``."""
    return BoxDomain(np.maximum(0.0, inst.x_hat - inst.epsilon),
                     np.minimum(1.0, inst.x_hat + inst.epsilon))


def margin_objective(net: Network, k: int, t: int) -> Objectives:
    """State-space objective for ``f_k - f_t`` (output rows elided), as a
    batch of one."""
    r, out = net.n_outputs, net.output
    if not (0 <= k < r and 0 <= t < r):
        raise ValueError(f"class out of range: {k}, {t} with {r} outputs")
    c = np.zeros(net.n_state)
    c[out.src] = out.weights[k] - out.weights[t]
    return Objectives(c[None], [out.bias[k] - out.bias[t]])


def verify(net: Network, inst: RobustnessInstance, method: str = "fastc2v",
           iterations: int = 1, cut_rounds: int = DEFAULT_CUT_ROUNDS,
           attack: bool = True, seed: int = 0) -> VerificationReport:
    """Certify one instance with the chosen bound method.

    Bounds every margin ``f_k - f_t``, all as one batch; when certification
    fails and ``attack`` is on, runs the projected gradient attack and
    attaches any witness that exact evaluation confirms; an unconfirmed one
    is dropped and the verdict is ``unknown``.  When an LP method ends in a
    non-optimal status or an arithmetic check, the instance is bounded with
    ``deeppoly`` (always sound) and the reason goes into ``fallback``.  A
    margin bound that is not a number is never verified; its reason goes
    into ``fallback`` too, after any such fallback's own.
    """
    if seed < 0:  # the attack's generator would reject it only once it runs
        raise ValueError(f"seed must be >= 0, got {seed}")
    err = instance_error(net, inst)
    if err is not None:
        raise ValueError(err)
    t0 = time.perf_counter()
    box = build_input_box(inst)
    t = inst.label
    ks = [k for k in range(net.n_outputs) if k != t]
    margin_batch = Objectives.of(*(margin_objective(net, k, t) for k in ks)) if ks else None

    def bound_margins(m):
        state = compute_all_bounds(net, box, m, iterations, cut_rounds)
        t1 = time.perf_counter()
        bounds = state.bound_objectives(margin_batch).tolist() if ks else []
        share = (time.perf_counter() - t1) / max(len(ks), 1)
        return t1, dict(zip(ks, bounds)), dict.fromkeys(ks, share)

    fallback = None
    try:
        t1, margins, margin_times = bound_margins(method)
    except (LpBoundError, ArithmeticError) as exc:
        if method not in (LP, OPTC2V):
            raise
        fallback = f"{type(exc).__name__}: {exc}"
        t1, margins, margin_times = bound_margins(DEEPPOLY)
    if nan := [k for k, v in margins.items() if np.isnan(v)]:  # never verified
        why = f"ArithmeticError: {DEEPPOLY if fallback else method} margin bound is not a " \
            f"number for class {','.join(map(str, nan))}"
        fallback = why if fallback is None else f"{fallback}; {why}"
    if all(v < 0.0 for v in margins.values()):
        verdict, witness, witness_label = VERIFIED, None, None
    else:
        witness = attack_upper_bound(net, inst, seed=seed) if attack else None
        witness_label = classify(net, witness) if witness is not None else None
        if witness_label == t:  # the exact evaluation does not confirm it
            witness, witness_label = None, None
        verdict = FALSIFIED if witness is not None else UNKNOWN
    return VerificationReport(
        verdict=verdict, method=method, label=t, epsilon=inst.epsilon,
        margin_bounds=margins, witness=witness,
        witness_label=witness_label,
        time_total=time.perf_counter() - t0, time_bounds=t1 - t0,
        time_margins=margin_times, fallback=fallback)


def _margin_input_grad(net, Z, ks, t):
    """Input gradient of ``f_k - f_t`` per row, through the ReLU pattern,
    one level at a time."""
    out = net.output
    G = np.zeros((Z.shape[0], net.n_state))
    G[:, out.src] = out.weights[ks] - out.weights[t]
    for level in reversed(net.levels):
        g = G[:, level.pos] * (Z[:, level.pos] > 0.0)
        G[:, level.pos] = 0.0
        G[:, level.src] += g @ level.weights
    return G[:, :net.input_dim]


def attack_upper_bound(net: Network, inst: RobustnessInstance,
                       restarts: int = ATTACK_RESTARTS, steps: int = ATTACK_STEPS,
                       lr: float = ATTACK_LR, seed: int = 0) -> np.ndarray | None:
    """Projected gradient ascent on the best margin; None when it fails.

    The first restart is the center itself, the rest are seeded uniform
    draws from the box.  Success is checked by exact re-evaluation after
    every step; the first misclassified point (restart-major at the start,
    then step-major) is returned.
    """
    box = build_input_box(inst)
    t = inst.label
    rng = np.random.default_rng(seed)
    X = np.empty((restarts, net.input_dim))
    X[0] = inst.x_hat
    if restarts > 1:
        X[1:] = box.sample(rng, restarts - 1)
    for step in range(steps + 1):
        if step:  # ascend the best margin of every restart
            margins = Y - Y[:, t:t + 1]
            margins[:, t] = -np.inf
            G = _margin_input_grad(net, Z, np.argmax(margins, axis=1), t)
            X = np.clip(X + lr * G, box.lower, box.upper)
        Z, Y = forward(net, X)
        hits = np.flatnonzero(np.argmax(Y, axis=1) != t)
        if hits.size:
            return X[hits[0]].copy()
    return None


@dataclass(eq=False)
class BatchResult:
    reports: list
    counts: dict
    times: dict
    errors: list

    def verified_count(self) -> int:
        return self.counts[VERIFIED]


def batch_verify(net: Network, instances, method: str = "fastc2v",
                 deterministic: bool = False, **kwargs) -> BatchResult:
    """Run :func:`verify` over a corpus, skipping misclassified centers.

    Instance entries may be ``RobustnessInstance`` objects or error strings
    from a lenient loader.  Such strings, and instances whose dimension or
    label does not fit the network, go into ``errors`` as ``(index,
    message)`` and are skipped.  Ordering is the input ordering;
    ``deterministic`` zeroes the timing fields so reports are byte-stable.
    """
    reports, errors = [], []
    counts = {VERIFIED: 0, FALSIFIED: 0, UNKNOWN: 0, "skipped": 0}
    wall = []
    for i, inst in enumerate(instances):
        err = instance_error(net, inst) if isinstance(inst, RobustnessInstance) else str(inst)
        if err is not None:
            errors.append((i, err))
            reports.append(None)
            continue
        if classify(net, inst.x_hat) != inst.label:
            counts["skipped"] += 1
            reports.append(None)
            continue
        rep = verify(net, inst, method=method, **kwargs)
        if deterministic:
            rep.time_total = 0.0
            rep.time_bounds = 0.0
            rep.time_margins = {k: 0.0 for k in rep.time_margins}
        reports.append(rep)
        counts[rep.verdict] += 1
        wall.append(rep.time_total)
    wall = np.asarray(wall) if wall else np.zeros(1)
    times = {"mean": float(wall.mean()),
             "p50": float(np.percentile(wall, 50)),
             "p90": float(np.percentile(wall, 90))}
    return BatchResult(reports=reports, counts=counts, times=times, errors=errors)


# ----- reports and instance files ------------------------------------------

def format_report_line(index, rep: VerificationReport | None) -> str:
    """One report as a fixed-field-order text line.

    A ``fallback=`` field, present only when the margins come from the
    fallback, is last and runs to the end of the line.
    """
    if rep is None:
        return f"instance={index} verdict=skipped"
    fields = [f"instance={index}",
              f"method={rep.method}",
              f"verdict={rep.verdict}",
              f"label={rep.label}",
              "epsilon=%.17g" % rep.epsilon]
    ms = ",".join("%d:%.17g" % (k, rep.margin_bounds[k]) for k in sorted(rep.margin_bounds))
    fields.append(f"margins={ms}")
    if rep.witness is not None:
        fields.append("witness=" + ",".join("%.17g" % v for v in rep.witness))
        fields.append(f"witness_label={rep.witness_label}")
    fields.append("time_total_ms=%.3f" % (1e3 * rep.time_total))
    fields.append("time_bounds_ms=%.3f" % (1e3 * rep.time_bounds))
    tm = ",".join("%d:%.3f" % (k, 1e3 * rep.time_margins[k]) for k in sorted(rep.time_margins))
    fields.append(f"time_margins_ms={tm}")
    if rep.fallback is not None:
        fields.append(f"fallback={rep.fallback}")
    return " ".join(fields)


def write_report(path, result: BatchResult, method):
    with open(path, "w") as fh:
        for i, rep in enumerate(result.reports):
            fh.write(format_report_line(i, rep) + "\n")
        c = result.counts
        fh.write(f"summary method={method} verified={c[VERIFIED]} "
                 f"falsified={c[FALSIFIED]} unknown={c[UNKNOWN]} "
                 f"skipped={c['skipped']} "
                 "mean_ms=%.3f p50_ms=%.3f p90_ms=%.3f\n"
                 % (1e3 * result.times["mean"], 1e3 * result.times["p50"],
                    1e3 * result.times["p90"]))


def save_instances(path, instances):
    with open(path, "w") as fh:
        for inst in instances:
            xs = ",".join("%.17g" % v for v in inst.x_hat)
            fh.write(f"label={inst.label} epsilon={'%.17g' % inst.epsilon} x={xs}\n")


def load_instances(path, strict: bool = True):
    """Parse an instance file; one ``label= epsilon= x=`` record per line.

    With ``strict=False``, malformed lines come back as error strings in
    place of instances so batch drivers can report and skip them.
    """
    out = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = dict(p.split("=", 1) for p in line.split())
                inst = RobustnessInstance(
                    x_hat=np.array([float(s) for s in parts["x"].split(",")]),
                    epsilon=float(parts["epsilon"]),
                    label=int(parts["label"]))
                out.append(inst)
            except (KeyError, ValueError) as exc:
                err = NetworkParseError(path, line_no, f"bad instance line: {exc}")
                if strict:
                    raise err from None
                out.append(str(err))
    return out


def generate_instances(net: Network, count, epsilon, seed) -> list[RobustnessInstance]:
    """Seeded corpus of random centers labeled by the network itself, all
    in one :func:`relucert.network.forward` call."""
    X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(count, net.input_dim))
    labels = np.argmax(forward(net, X)[1], axis=1).tolist()
    return [RobustnessInstance(x_hat=x, epsilon=epsilon, label=k) for x, k in zip(X, labels)]
