"""The benchmark's spans wrap package attributes by name; these must exist."""

import importlib.util
import inspect
import pathlib

from relucert import propagation, relaxation

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# hooked by the benchmark, but gone from the package: its sweep spans come
# through relucert.verifier.compute_all_bounds
KNOWN_MISSING = {"relucert.verifier.lp_all_bounds"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    spans = load_spans()
    targets = [t for targets, _ in spans.HOOKS.values() for t in targets]
    missing = {t for t in targets if spans._resolve(t) is None}
    assert missing <= KNOWN_MISSING
    assert len(missing) < len(targets)


def test_hooked_calls_keep_the_arguments_they_read():
    # the spans read an objective's eta and whether a solve was warm
    for fn, name in ((propagation.tightened_bound, "objective"),
                     (relaxation.optc2v_bound, "objective"),
                     (relaxation.solve_lp, "warm_basis")):
        assert name in inspect.signature(fn).parameters, fn.__name__
