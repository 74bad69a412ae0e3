"""Spans around the package's layers, recorded from outside the package.

Each hook replaces one module attribute (``relucert.hull.separate_sort``,
``relucert.relaxation.solve_lp``, ...) with a wrapper that records a span:
name, start, end, parent span, instance, method role, the process CPU time
it took, and a number read from the call (an objective's ``eta``, a
solve's pivots).  The package looks these names up at call time, so every
internal call goes through the wrapper.  A target that no longer exists is
listed as missing and the run goes on without it.

Spans live in flat typed arrays while the run lasts; ``summarize`` turns
them into the per-layer metrics and ``dump`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

ROLES = ("base", "tight")

# span name -> (targets, what the wrapper reads from the call)
HOOKS = {
    "verifier.bounds": (("relucert.verifier.compute_all_bounds",
                         "relucert.verifier.lp_all_bounds"), None),
    "verifier.attack": (("relucert.verifier.attack_upper_bound",), None),
    "propagation.bound": (("relucert.propagation.tightened_bound",), "eta"),
    "propagation.backward": (("relucert.propagation.backward_pass",), None),
    "propagation.forward": (("relucert.propagation.forward_pass",), None),
    "hull.build": (("relucert.hull.make_hull_instance",), None),
    "hull.separate": (("relucert.hull.separate_sort",), "violated"),
    "relaxation.lp_bound": (("relucert.relaxation.optc2v_bound",), "eta"),
    "relaxation.build": (("relucert.relaxation.build_delta_lp",), None),
    "relaxation.cut": (("relucert.relaxation.DeltaLp.add_hull_cut",), None),
    "simplex.solve": (("relucert.relaxation.solve_lp",), "solve"),
    "simplex.basis_restore": (("relucert.simplex._Tableau._restore_basis",), None),
}
ROOT = "verify"
NAMES = (ROOT,) + tuple(HOOKS)
_ID = {name: i for i, name in enumerate(NAMES)}
BOUND_IDS = {_ID["propagation.bound"], _ID["relaxation.lp_bound"]}
# hidden levels of the deepest workload network, then output rows and margins
LEVELS = ("1", "2", "3", "out", "margin")


def _resolve(target):
    """``(owner, attribute, original)`` for a dotted target, or None."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans while installed; ``with tracer:`` installs every hook."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.role = array("b")
        self.ival = array("q")  # eta of a bound call, pivots of a solve
        self.flag = array("b")  # separation violated, solve warm-started
        self.cpu = array("d")   # process CPU seconds, all threads
        self.missing = []
        self.current = (-1, -1)  # (instance, role index) of the verify call
        self._stack = [-1]
        self._undo = []

    # ----- recording -------------------------------------------------------

    def _open(self, name_id, ival=-1):
        i = len(self.name)
        inst, role = self.current
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.instance.append(inst)
        self.role.append(role)
        self.ival.append(ival)
        self.flag.append(0)
        self.cpu.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def verify_span(self, instance, role):
        """Span around one ``verify`` call of the benchmark."""
        self.current = (instance, ROLES.index(role))
        i = self._open(_ID[ROOT])
        try:
            yield
        finally:
            self._close(i)
            self.current = (-1, -1)

    def _wrap(self, name, fn, reads):
        name_id = _ID[name]
        sig = inspect.signature(fn) if reads in ("eta", "solve") else None

        def wrapper(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments if sig else {}
            eta = getattr(arguments.get("objective"), "eta", -1)
            i = self._open(name_id, eta)
            c0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
                if reads == "violated":
                    self.flag[i] = result is not None
                elif reads == "solve":
                    self.ival[i] = getattr(result, "iterations", -1)
                    self.flag[i] = arguments.get("warm_basis") is not None
                return result
            finally:
                self.cpu[i] = time.process_time() - c0
                self._close(i)

        return wrapper

    def __enter__(self):
        self.missing = []
        for name, (targets, reads) in HOOKS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, fn = found
                setattr(owner, attr, self._wrap(name, fn, reads))
                self._undo.append((owner, attr, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        return False

    # ----- analysis --------------------------------------------------------

    def columns(self):
        return {key: np.array(getattr(self, key))
                for key in ("name", "start", "end", "parent", "instance", "role",
                            "ival", "flag", "cpu")}

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration less its children's."""
        c = self.columns()
        dur = c["end"] - c["start"]
        child = np.zeros(len(dur))
        has_parent = c["parent"] >= 0
        np.add.at(child, c["parent"][has_parent], dur[has_parent])
        own = dur - child
        return {NAMES[k]: float(own[c["name"] == k].sum())
                for k in range(len(NAMES)) if np.any(c["name"] == k)}

    def summarize(self, level_of, n_state) -> dict[str, float]:
        """Per-layer metrics, each prefixed with its method role.

        ``level_of[p]`` is the level of neuron position ``p``.  A bound
        call inside the bounds sweep belongs to the level of the neuron at
        position ``eta`` of its objective, or to ``out`` when ``eta`` spans
        the whole state (an output row); a bound call outside the sweep is
        a ``margin`` objective.  Every span below a bound call counts
        toward that call's level.
        """
        c = self.columns()
        names, parents, ivals = c["name"].tolist(), c["parent"].tolist(), c["ival"].tolist()
        n = len(names)
        in_sweep = [False] * n
        owner = [-1] * n    # name of the bound call a span runs under
        level = [""] * n    # level key of that bound call
        sweep_id = _ID["verifier.bounds"]
        for i in range(n):  # a parent is always recorded before its children
            k, p = names[i], parents[i]
            in_sweep[i] = k == sweep_id or (p >= 0 and in_sweep[p])
            if k in BOUND_IDS:
                owner[i], level[i] = k, _level_key(ivals[i], in_sweep[i], level_of, n_state)
            elif p >= 0:
                owner[i], level[i] = owner[p], level[p]
        owner, level = np.array(owner, dtype=int), np.array(level, dtype=str)
        is_ = {name: c["name"] == _ID[name] for name in NAMES}
        bound = is_["propagation.bound"] | is_["relaxation.lp_bound"]
        sep, solve = is_["hull.separate"], is_["simplex.solve"]
        flagged = c["flag"] == 1  # a violated separation, a warm-started solve
        dur = c["end"] - c["start"]
        out = {}
        for r, role in enumerate(ROLES):
            mine = c["role"] == r

            def count(mask):
                return int((mine & mask).sum())

            def secs(mask):
                return float(dur[mine & mask].sum())

            def ratio(mask):
                wall = secs(mask)
                return float(c["cpu"][mine & mask].sum() / wall) if wall > 0 else 0.0

            m = {
                "verifier.bounds_s": secs(is_["verifier.bounds"]),
                "verifier.attack_s": secs(is_["verifier.attack"]),
                "verifier.attack_calls": count(is_["verifier.attack"]),
                "propagation.bound_calls": count(is_["propagation.bound"]),
                "propagation.backward_calls": count(is_["propagation.backward"]),
                "propagation.backward_s": secs(is_["propagation.backward"]),
                "propagation.forward_calls": count(is_["propagation.forward"]),
                "propagation.swaps": count(sep & flagged
                                           & (owner == _ID["propagation.bound"])),
                "hull.build_calls": count(is_["hull.build"]),
                "hull.build_s": secs(is_["hull.build"]),
                "hull.separate_calls": count(sep),
                "hull.separate_s": secs(sep),
                "hull.violated_per_call": count(sep & flagged) / max(count(sep), 1),
                "relaxation.lp_bound_calls": count(is_["relaxation.lp_bound"]),
                "relaxation.build_calls": count(is_["relaxation.build"]),
                "relaxation.build_s": secs(is_["relaxation.build"]),
                "relaxation.cuts_added": count(is_["relaxation.cut"]),
                "simplex.solves": count(solve),
                "simplex.warm_solves": count(solve & flagged),
                "simplex.pivots": int(c["ival"][mine & solve].sum()),
                "simplex.solve_s": secs(solve),
                "simplex.cpu_per_wall": ratio(solve),
                "simplex.basis_restore_s": secs(is_["simplex.basis_restore"]),
                "simplex.basis_restore_cpu_per_wall": ratio(is_["simplex.basis_restore"]),
            }
            for key in LEVELS:
                at = level == key
                m[f"level.{key}.bound_s"] = secs(at & bound)
                m[f"level.{key}.bound_calls"] = count(at & bound)
                m[f"level.{key}.pivots"] = int(c["ival"][mine & at & solve].sum())
                m[f"level.{key}.separate_calls"] = count(at & sep)
            out.update({f"{role}.{k}": v for k, v in m.items()})
        return out

    def dump(self, path):
        """Write every span's columns, with the span names, to an ``.npz``."""
        np.savez_compressed(path, names=np.array(NAMES), **self.columns())


def _level_key(eta, in_sweep, level_of, n_state):
    if not in_sweep:
        return "margin"
    if eta == n_state:
        return "out"
    return str(int(level_of[eta])) if 0 <= eta < n_state else "unknown"
