#!/usr/bin/env python3
"""Self-check of the benchmark on tiny corpora; finishes in seconds.

    python3 perfbench/selfcheck.py

Runs every workload's code path on a tiny network, untraced once and traced
twice, and checks the result line, the metric names against
``BENCHMARK.json``, that the traced counts repeat exactly, that the oracle
agrees with the package's own evaluation and rejects a wrong bound, that a
missing hook is listed without stopping the run, and that a directory
holding only the benchmark fails without printing a result.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run
import spans
from oracle import DenseNet, check_instance

TINY = {
    "prop-deep": run.Workload((4, 8, 8, 8, 3), 0.5, 1, 1, 3, 0.1,
                              "deeppoly", "fastc2v", {"iterations": 1}),
    "lp-acceptance": run.Workload((4, 8, 8, 3), 0.7, 1, 1, 3, 0.16,
                                  "lp", "optc2v", {"cut_rounds": 3}),
    "lp-wide": run.Workload((5, 12, 3), 0.5, 1, 1, 2, 0.07,
                            "lp", "optc2v", {"cut_rounds": 3}),
}


def invoke(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace)])
    return json.loads(buf.getvalue().splitlines()[-1])


def main():
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rc = run.import_package()
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        run.OUT = tmp  # keep the tiny runs' files apart from real results
        run.WORKLOADS.update(TINY)
        check_runs(spec, expect)
        check_oracle(rc, tmp, expect)
        check_missing_hook(rc, expect)
        check_bare_directory(tmp, expect)
    for line in failures:
        print("FAIL " + line)
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


def check_runs(spec, expect):
    for name in TINY:
        res = invoke(name, 0)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result keys {sorted(res)}")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: correct={res['correct']} failed={res['failed']}")
        expect(list(res["metrics"]) == [m["name"] for m in spec["end_to_end"]],
               f"{name}: end-to-end metric names differ from BENCHMARK.json")
        expect(all(res["metrics"][m]["value"] > 0 for m in
                   ("setup_s", "base.instances_per_s", "tight.p50_ms", "cpu_s")),
               f"{name}: a timing reads 0")
        first, second = invoke(name, 1), invoke(name, 1)
        expect(list(first["metrics"]) == [m["name"] for m in spec["per_layer"]],
               f"{name}: per-layer metric names differ from BENCHMARK.json")
        for m in spec["per_layer"]:
            a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
            expect(m["unit"] != "count" or a == b,
                   f"{name}: {m['name']} differs between traced runs: {a} {b}")


def check_oracle(rc, tmp, expect):
    net = rc.generate_random_network([5, 7, 7, 3], seed=3)
    path = os.path.join(tmp, "net.txt")
    rc.save_network(net, path)
    dense = DenseNet(path)
    X = np.random.default_rng(0).uniform(size=(16, 5))
    want = np.array([rc.eval_network(net, x)[1] for x in X])
    expect(np.allclose(dense.outputs(X), want, rtol=0, atol=1e-12),
           "oracle outputs differ from eval_network")
    inst = rc.RobustnessInstance(x_hat=X[0], epsilon=0.1,
                                 label=int(dense.classify(X[:1])[0]))
    rep = rc.verify(net, inst, method="deeppoly")
    rng = np.random.default_rng(0)
    expect(not check_instance(dense, inst.x_hat, 0.1, inst.label, rep, rep, rng),
           "oracle rejects a correct report")
    rep.margin_bounds[next(iter(rep.margin_bounds))] = -1e6
    expect(check_instance(dense, inst.x_hat, 0.1, inst.label, rep, None, rng),
           "oracle accepts a margin bound below the center's margin")


def check_missing_hook(rc, expect):
    net = rc.generate_random_network([4, 6, 3], seed=2)
    inst = rc.generate_instances(net, 1, 0.2, seed=2)[0]
    spans.HOOKS["hull.gone"] = (("relucert.hull.no_such_function",), None)
    try:
        tracer = spans.Tracer()
        with tracer:
            with tracer.verify_span(0, "tight"):
                rc.verify(net, inst, method="fastc2v")
    finally:
        del spans.HOOKS["hull.gone"]
    expect(tracer.missing == ["relucert.hull.no_such_function"],
           f"missing hooks listed as {tracer.missing}")
    expect(len(tracer.name) > 1, "no spans recorded beside a missing hook")


def check_bare_directory(tmp, expect):
    bare = os.path.join(tmp, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "prop-deep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


if __name__ == "__main__":
    sys.exit(main())
