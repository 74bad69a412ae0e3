#!/usr/bin/env python3
"""Benchmark: a base bound method against its hull-tightened counterpart.

    python3 perfbench/run.py --workload prop-deep --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload verifies one seeded corpus with a base method and
its tightened counterpart, interleaved per instance, in whole passes over
the corpus until the pass boundary nearest to ``--seconds`` (at least three
passes).  Every pass loads the network and instances afresh from the files
set-up wrote.  An instance's time is its mean over the passes.  Every output is checked
against the benchmark's own evaluation of the network (``oracle.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced pass, one traced pass and one more untraced pass, and prints the
per-layer metrics of the traced pass with the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Result files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from oracle import DenseNet, check_instance
from spans import ROLES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
SETUP_REPEATS = 3
# The seed moves every center of a workload's fixed corpus by up to this
# much per coordinate, so each seed gives new inputs of the same difficulty.
JITTER = 0.001


@dataclass(frozen=True)
class Workload:
    layers: tuple
    weight_scale: float
    net_seed: int
    corpus_seed: int
    size: int
    epsilon: float
    base: str
    tight: str
    tight_options: dict


WORKLOADS = {
    "prop-deep": Workload((10, 30, 30, 30, 10), 0.5, 1, 1001, 16, 0.1,
                          "deeppoly", "fastc2v", {"iterations": 1}),
    "lp-acceptance": Workload((6, 20, 20, 3), 0.7, 1, 1001, 10, 0.16,
                              "lp", "optc2v", {"cut_rounds": 3}),
    "lp-wide": Workload((20, 100, 10), 0.5, 1, 1001, 3, 0.07,
                        "lp", "optc2v", {"cut_rounds": 3}),
}


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import relucert
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import relucert from {src}: {exc}")
    if not os.path.abspath(relucert.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: relucert came from {relucert.__file__}, not {src}")
    return relucert


def blas_threads():
    """OpenBLAS's thread count as numpy loaded it, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


# ----- set-up ----------------------------------------------------------------

def set_up(rc, wl, seed, workdir):
    """Generate the corpus, write it, load it back and warm up once."""
    net = rc.generate_random_network(list(wl.layers), seed=wl.net_seed,
                                     weight_scale=wl.weight_scale)
    centers = rc.generate_instances(net, wl.size, wl.epsilon, seed=wl.corpus_seed)
    net_path = os.path.join(workdir, "network.txt")
    inst_path = os.path.join(workdir, "instances.txt")
    rc.save_network(net, net_path)
    dense = DenseNet(net_path)
    rng = np.random.default_rng(seed)
    X = np.stack([c.x_hat for c in centers])
    X = np.clip(X + rng.uniform(-JITTER, JITTER, size=X.shape), 0.0, 1.0)
    rc.save_instances(inst_path, [
        rc.RobustnessInstance(x_hat=x, epsilon=wl.epsilon, label=int(label))
        for x, label in zip(X, dense.classify(X))])
    net = rc.load_network(net_path)
    first = rc.load_instances(inst_path)[0]
    # a quarter of the radius runs the same code at a fraction of the cost
    warm = rc.RobustnessInstance(first.x_hat, first.epsilon / 4, first.label)
    rc.verify(net, warm, method=wl.base)
    rc.verify(net, warm, method=wl.tight, **wl.tight_options)
    return net_path, inst_path, dense


# ----- one pass --------------------------------------------------------------

@dataclass
class Pass:
    seconds: np.ndarray  # (instances, 2): verify time, nan where it raised
    reports: list        # per instance, [base report, tight report]
    errors: list
    cpu_s: float
    load_s: float
    instances: list


def run_pass(rc, wl, net_path, inst_path, tracer=None) -> Pass:
    t0 = time.perf_counter()
    net = rc.load_network(net_path)
    instances = rc.load_instances(inst_path)
    load_s = time.perf_counter() - t0
    methods = ((wl.base, {}), (wl.tight, wl.tight_options))
    seconds = np.full((len(instances), 2), np.nan)
    reports = [[None, None] for _ in instances]
    errors = []
    c0 = time.process_time()
    for i, inst in enumerate(instances):
        for r, (method, options) in enumerate(methods):
            span = tracer.verify_span(i, ROLES[r]) if tracer else contextlib.nullcontext()
            t = time.perf_counter()
            try:
                with span:
                    rep = rc.verify(net, inst, method=method, **options)
            except Exception as exc:  # one failed operation; the pass goes on
                errors.append(f"instance {i} {method}: {exc!r}")
                continue
            seconds[i, r] = time.perf_counter() - t
            reports[i][r] = rep
    return Pass(seconds, reports, errors, time.process_time() - c0, load_s, instances)


# ----- checks ----------------------------------------------------------------

def check(passes, dense, seed) -> list[str]:
    """Every problem the oracle finds in any pass, plus verdict drift."""
    problems = []
    first = passes[0].reports
    for n, p in enumerate(passes):
        for i, inst in enumerate(p.instances):
            rng = np.random.default_rng([seed, i])
            base, tight = p.reports[i]
            found = check_instance(dense, inst.x_hat, inst.epsilon, inst.label,
                                   base, tight, rng)
            for r, rep in enumerate(p.reports[i]):
                ref = first[i][r]
                if rep is not None and ref is not None and rep.verdict != ref.verdict:
                    found.append(f"{ROLES[r]} verdict {rep.verdict} "
                                 f"differs from pass 0 ({ref.verdict})")
            problems += [f"pass {n} instance {i}: {msg}" for msg in found]
    return problems


# ----- metrics ---------------------------------------------------------------

def typical(passes) -> np.ndarray:
    """Each instance's mean verify time over the passes, per role."""
    return np.nanmean([p.seconds for p in passes], axis=0)


def end_to_end(passes, setup_s) -> dict[str, float]:
    typ = typical(passes)
    out = {"setup_s": setup_s}
    for r, role in enumerate(ROLES):
        ok = typ[~np.isnan(typ[:, r]), r]
        reports = [rep[r] for rep in passes[0].reports]
        out[f"{role}.instances_per_s"] = len(ok) / ok.sum() if ok.size else 0.0
        out[f"{role}.p50_ms"] = 1e3 * float(np.median(ok)) if ok.size else 0.0
        out[f"{role}.verified"] = sum(rep is not None and rep.verdict == "verified"
                                      for rep in reports)
    out["cpu_s"] = statistics.fmean(p.cpu_s for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(tracer, traced, untraced, dense) -> dict[str, float]:
    out = tracer.summarize(dense.level, dense.n_state)
    for r, role in enumerate(ROLES):
        out[f"{role}.verifier.margins_s"] = sum(
            sum(pair[r].time_margins.values()) for pair in traced.reports if pair[r])
    out["network.load_s"] = traced.load_s
    out["trace.overhead_pct"] = 100.0 * (np.nansum(traced.seconds)
                                         / np.nansum(typical(untraced)) - 1.0)
    return out


# ----- entry point -----------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rc = import_package()
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return run(rc, wl, args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(rc, wl, args, spec, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        net_path, inst_path, dense = set_up(rc, wl, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    passes = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        passes.append(run_pass(rc, wl, net_path, inst_path))
        with tracer:
            traced = run_pass(rc, wl, net_path, inst_path, tracer)
        passes += [traced, run_pass(rc, wl, net_path, inst_path)]
        values = per_layer(tracer, traced, [passes[0], passes[2]], dense)
        wanted = spec["per_layer"]
    else:
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(rc, wl, net_path, inst_path))
            spent = time.perf_counter() - t0
            # stop at the pass boundary nearest to --seconds
            if len(passes) >= MIN_PASSES and spent * (1 + 0.5 / len(passes)) > args.seconds:
                break
        values = end_to_end(passes, statistics.median(setups))
        wanted = spec["end_to_end"]
    problems = check(passes, dense, args.seed)
    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.seconds.size for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), "blas_threads": blas_threads(),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    detail = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
              "make_up": wl.__dict__, "environment": env, "setup_s": setups,
              "seconds": [p.seconds.tolist() for p in passes],
              "verdicts": [[rep and rep.verdict for rep in pair] for pair in passes[0].reports],
              "problems": problems, "errors": errors, "result": result}
    if tracer is not None:
        detail["self_time_s"] = tracer.self_times()
        detail["missing_hooks"] = tracer.missing
        detail["all_per_layer"] = values
        tracer.dump(os.path.join(OUT, f"spans-{tag}.npz"))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed}: {wl.base} vs {wl.tight} "
          f"{wl.tight_options}, {wl.size} instances, {len(passes)} passes")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  operations attempted {attempted}, failed {len(errors)}")
    for line in (errors + problems)[:20]:
        print("  " + line)
    if tracer is not None and tracer.missing:
        print("  missing hooks: " + ", ".join(tracer.missing))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
