"""The benchmark's spans wrap package attributes by name; these must exist."""

import importlib.util
import inspect
import pathlib

import numpy as np

from relucert import propagation, relaxation
from relucert.propagation import Objectives
from relucert.network import BoxDomain, generate_random_network
from relucert.verifier import margin_objective

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# hooked by the benchmark, but gone from the package
KNOWN_MISSING = {
    # its sweep spans come through relucert.verifier.compute_all_bounds
    "relucert.verifier.lp_all_bounds",
    # a run's hull instances are built in one HullTable.add step
    "relucert.hull.make_hull_instance",
    # the sweep separates through HullTable.separate; the one-row call is a test oracle
    "relucert.hull.separate_sort",
    # the cut loop turns a Separations into LP rows with relaxation._cut_rows
    "relucert.relaxation.DeltaLp.add_hull_cut",
    # every LP is a simplex.Lockstep stack, solved by Lockstep.solve
    "relucert.relaxation.solve_lp",
    # a stack starts from a solved stack or borders its own tableau (Lockstep.append_rows)
    "relucert.simplex._Tableau._restore_basis",
}


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
    # the spans read an objective's eta
    for fn, name in ((propagation.tightened_bound, "objective"),
                     (relaxation.optc2v_bound, "objective")):
        assert name in inspect.signature(fn).parameters, fn.__name__


def test_bound_calls_carry_the_eta_the_spans_file_them_by(monkeypatch):
    # a sweep's bound call is one run of a level, both signs of every row;
    # its batch's eta is the run's first position, which the spans map to
    # the run's level, and output rows and margins span the whole state
    spans = load_spans()
    net = generate_random_network([4, 6, 5, 3], seed=2, weight_scale=0.8)
    box = BoxDomain(np.full(4, 0.3), np.full(4, 0.6))
    etas = []
    real = propagation.tightened_bound

    def recording(funcs, objective, *args, **kwargs):
        etas.append(objective.eta)
        return real(funcs, objective, *args, **kwargs)

    monkeypatch.setattr(propagation, "tightened_bound", recording)
    st = propagation.compute_all_bounds(net, box, "fastc2v")
    starts = [start for start, _ in net.runs]
    assert etas == starts * 2  # the deeppoly baseline's sweep, then fastc2v's
    assert [spans._level_key(eta, True, net.level_of, net.n_state) for eta in starts] \
        == ["1", "2"]
    etas.clear()
    st.output_bounds()
    assert etas == [net.n_state] * 2
    assert spans._level_key(net.n_state, True, net.level_of, net.n_state) == "out"
    etas.clear()
    # every margin in one batch: one tightened pass per chain
    st.bound_objectives(Objectives.of(*(margin_objective(net, k, 0) for k in (1, 2))))
    assert etas == [net.n_state] * 2
