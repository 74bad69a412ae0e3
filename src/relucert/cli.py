"""Command-line driver: ``relucert verify`` and ``relucert gen``."""

from __future__ import annotations

import argparse
import os
import sys

from . import verifier
from .network import (NetworkParseError, generate_random_network, load_network,
                      save_network)
from .propagation import DEFAULT_CUT_ROUNDS
from .relaxation import LpBoundError, build_delta_lp
from .simplex import write_lp_format
from .verifier import (METHODS, RobustnessInstance, batch_verify,
                       format_report_line, generate_instances, load_instances,
                       margin_objective, save_instances, write_report)


def _verify_cmd(args):
    net = load_network(args.network)
    instances = load_instances(args.instances, strict=False)
    if args.epsilon is not None:
        instances = [RobustnessInstance(i.x_hat, args.epsilon, i.label)
                     if isinstance(i, RobustnessInstance) else i
                     for i in instances]
    if args.dump_lp:
        _dump_margin_lps(net, instances, args)
    result = batch_verify(
        net, instances, method=args.method, iterations=args.iterations,
        cut_rounds=args.cut_rounds, attack=(args.attack == "on"),
        seed=args.seed, deterministic=args.deterministic)
    if args.report:
        write_report(args.report, result, args.method)
    else:
        for i, rep in enumerate(result.reports):
            print(format_report_line(i, rep))
    for i, msg in result.errors:
        print(f"instance={i} skipped: {msg}", file=sys.stderr)
    c = result.counts
    print(f"summary method={args.method} verified={c['verified']} "
          f"falsified={c['falsified']} unknown={c['unknown']} skipped={c['skipped']}",
          file=sys.stderr)
    return 0


def _dump_margin_lps(net, instances, args):
    os.makedirs(args.dump_lp, exist_ok=True)
    for i, inst in enumerate(instances):
        if not isinstance(inst, RobustnessInstance) or verifier.instance_error(net, inst):
            continue
        box = verifier.build_input_box(inst)
        try:
            state = verifier.compute_all_bounds(net, box, args.method,
                                                cut_rounds=args.cut_rounds)
            models = {}
            for k in range(net.n_outputs):
                if k != inst.label:
                    obj = margin_objective(net, k, inst.label)
                    models[k] = build_delta_lp(state, int(obj.reach[0]))
                    models[k].set_objective(obj.coeffs[0], obj.constant[0])
        except (LpBoundError, ArithmeticError) as exc:  # verify falls back for these
            print(f"instance={i} no LP dump: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        for k, dl in models.items():
            write_lp_format(dl.model, os.path.join(args.dump_lp, f"inst{i}_class{k}.lp"))


def _gen_cmd(args):
    layers = [int(s) for s in args.layers.split(",") if s]
    net = generate_random_network(layers, seed=args.seed, weight_scale=args.weight_scale)
    save_network(net, args.network_out)
    instances = generate_instances(net, args.count, args.epsilon, seed=args.seed + 1)
    save_instances(args.instances_out, instances)
    print(f"wrote {args.network_out} ({net.n_neurons} neurons) and "
          f"{args.instances_out} ({len(instances)} instances)", file=sys.stderr)
    return 0


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="relucert",
                                description="L-infinity robustness certification "
                                            "for ReLU networks")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="verify a batch of robustness instances")
    v.add_argument("--network", required=True)
    v.add_argument("--instances", required=True)
    v.add_argument("--method", required=True, choices=METHODS)
    v.add_argument("--iterations", type=_nonnegative_int, default=1,
                   help="tightening iterations for fastc2v")
    v.add_argument("--cut-rounds", type=_nonnegative_int, default=DEFAULT_CUT_ROUNDS,
                   help="separation rounds for optc2v")
    v.add_argument("--epsilon", type=_nonnegative_float, default=None,
                   help="override the per-instance radius")
    v.add_argument("--seed", type=_nonnegative_int, default=0)
    v.add_argument("--deterministic", action="store_true",
                   help="zero timing fields for byte-stable reports")
    v.add_argument("--attack", choices=("on", "off"), default="on")
    v.add_argument("--report", default=None, help="write reports to this file")
    v.add_argument("--dump-lp", default=None,
                   help="dump margin LP models into this directory")
    v.set_defaults(func=_verify_cmd)

    g = sub.add_parser("gen", help="generate a random network and instance corpus")
    g.add_argument("--layers", required=True, help="comma list, e.g. 8,20,20,3")
    g.add_argument("--seed", type=_nonnegative_int, default=0)
    g.add_argument("--count", type=_nonnegative_int, default=20)
    g.add_argument("--epsilon", type=_nonnegative_float, default=0.05)
    g.add_argument("--weight-scale", type=_nonnegative_float, default=1.0)
    g.add_argument("--network-out", default="network.txt")
    g.add_argument("--instances-out", default="instances.txt")
    g.set_defaults(func=_gen_cmd)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # only the LP methods have margin LP models to dump
    if getattr(args, "dump_lp", None) and args.method not in ("lp", "optc2v"):
        parser.error(f"argument --dump-lp: needs --method lp or optc2v, got {args.method}")
    try:
        return args.func(args)
    except (OSError, NetworkParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
