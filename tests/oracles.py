"""Reference implementations the tests compare the package against.

None of these run on the package's bound paths: brute-force enumeration of
the hull's cut family and of its least value at a point, the weighted-median
separator (the paper's
linear-time variant of the sorting greedy), the univariate chord bound, the
lifted-formulation envelope LP, the exact maximum over activation
patterns, and the per-neuron backward and forward passes and tightening
loop, one objective at a time, that the package runs one level and one
batch of objectives at a time.
"""

from dataclasses import dataclass, replace

import numpy as np

from relucert import hull
from relucert.network import BoxDomain, Network
from relucert.propagation import INTERVAL, SWAP_VIOLATION_TOL, LinearExpr, compute_all_bounds
from relucert.relaxation import LpBoundError
from relucert.simplex import GE, LE, LpModel, LpStatus, solve_lp

# Hard ceiling for brute-force enumeration of the cut family.
ENUMERATION_CAP = 20


def _require_mixed(inst):
    if hull.classify_phase(inst) != hull.MIXED:
        raise ValueError("operation requires a sign-spanning (mixed) instance")


def enumerate_cut_pairs(inst: hull.HullInstance,
                        cap=ENUMERATION_CAP) -> list[tuple[tuple[int, ...], int]]:
    """Every facet pair ``(I, h)``, by brute force over all subsets.

    Refuses more than ``cap`` retained coordinates.  The count always lies
    in ``[d, ceil(d/2) * C(d, ceil(d/2))]`` for ``d`` retained coordinates.
    """
    _require_mixed(inst)
    k = inst.size
    if k > cap:
        raise ValueError(f"{k} coordinates exceeds enumeration cap {cap}")
    masks = np.arange(1 << k, dtype=np.int64)
    capsum = np.zeros(1 << k)
    for i in range(k):
        sel = (masks >> i) & 1 == 1
        capsum[sel] += inst.cap[i]
    ell = inst.val_max - capsum
    pairs = []
    for mask in range(1 << k):
        if ell[mask] < 0.0:
            continue
        I = tuple(i for i in range(k) if (mask >> i) & 1)
        for h in range(k):
            if (mask >> h) & 1:
                continue
            if ell[mask | (1 << h)] < 0.0:
                pairs.append((I, h))
    return pairs


def envelope_min_by_enumeration(inst, x) -> float:
    """The least upper-inequality value at x, by direct evaluation of the
    defining expression over the enumerated pair family."""
    x = np.asarray(x, dtype=float)[inst.support]
    best = np.inf
    for I, h in enumerate_cut_pairs(inst):
        ell = hull.corner_value(inst, I)
        val = sum(inst.w[i] * (x[i] - inst.min_corner[i]) for i in I)
        val += ell / (inst.max_corner[h] - inst.min_corner[h]) * (x[h] - inst.min_corner[h])
        best = min(best, val)
    return best


def minimize_upper_envelope_median(inst: hull.HullInstance, x) -> tuple[float, np.ndarray, int]:
    """Same contract as :func:`relucert.hull.minimize_upper_envelope_sort`,
    via weighted-median selection.

    Expected linear time: quickselect-style partitioning on the ratio key
    (ties by position) tracking consumed capacity, no full sort.
    """
    _require_mixed(inst)
    r = inst.ratios(x)
    h = _stop_item_select(r, inst.cap, inst.val_max)
    low = np.flatnonzero((r < r[h]) | ((r == r[h]) & (np.arange(inst.size) < h)))
    x_loc = np.asarray(x, dtype=float)[inst.support]
    ell_i = inst.val_max - float(inst.cap[low].sum())
    value = float(inst.w[low] @ (x_loc[low] - inst.min_corner[low]))
    value += ell_i / (inst.max_corner[h] - inst.min_corner[h]) * (x_loc[h] - inst.min_corner[h])
    return value, low, h


def _stop_item_select(ratios, caps, capacity):
    """Item at which cumulative capacity in (ratio, position) order first
    exceeds ``capacity``; requires total capacity > capacity >= 0."""
    cand = np.arange(ratios.shape[0])
    acc = 0.0
    while cand.size > 1:
        trio = sorted((cand[0], cand[cand.size // 2], cand[-1]),
                      key=lambda i: (ratios[i], i))
        p = int(trio[1])
        rc = ratios[cand]
        less = cand[(rc < ratios[p]) | ((rc == ratios[p]) & (cand < p))]
        consumed = float(caps[less].sum())
        if acc + consumed > capacity:
            cand = less
        elif acc + consumed + caps[p] > capacity:
            return p
        else:
            acc += consumed + float(caps[p])
            cand = cand[(rc > ratios[p]) | ((rc == ratios[p]) & (cand > p))]
    return int(cand[0])


def separate_median(inst: hull.HullInstance, x, y) -> hull.Separation | None:
    """:func:`relucert.hull.separate_sort` with the median separator."""
    envelope, low, h = minimize_upper_envelope_median(inst, x)
    violation = float(y) - envelope
    if violation > 0.0:
        return hull.Separation(cut=hull.cut_from_pair(inst, low, h),
                               envelope=envelope, violation=violation)
    return None


def delta_upper_value(inst: hull.HullInstance, x) -> float:
    """Upper bound at ``x`` from the univariate three-inequality relaxation.

    Uses the chord of the ReLU over the exact pre-activation range
    ``[val_min, val_max]``; the hull's envelope is never above this.
    """
    _require_mixed(inst)
    zhat = inst.preactivation(x)
    return inst.val_max / (inst.val_max - inst.val_min) * (zhat - inst.val_min)


def relu_value(inst: hull.HullInstance, x) -> float:
    """``max(0, w.x + b)`` on original coordinates."""
    return max(0.0, inst.preactivation(x))


def lifted_envelope_value(inst: hull.HullInstance, x) -> float:
    """Hull upper envelope at ``x`` via the auxiliary-variable LP.

    Maximizes ``w . v + b t`` over ``(v, t)`` with ``t in [0, 1]``,
    ``L t <= v <= U t`` and ``L (1-t) <= x - v <= U (1-t)``: the optimal
    value equals the least upper hull inequality at ``x``.
    """
    if hull.classify_phase(inst) != hull.MIXED:
        raise ValueError("envelope LP requires a mixed instance")
    x = np.asarray(x, dtype=float)[inst.support]
    if np.any(x < inst.lower - 1e-9) or np.any(x > inst.upper + 1e-9):
        raise ValueError("point outside the instance box")
    k = inst.size
    model = LpModel()
    for i in range(k):
        model.add_variable(min(inst.lower[i], 0.0), max(inst.upper[i], 0.0),
                           obj=inst.w[i], name=f"v{i}")
    t = model.add_variable(0.0, 1.0, obj=inst.b, name="t")
    for i in range(k):
        li, ui = inst.lower[i], inst.upper[i]
        # x_i - v_i >= L_i (1 - t)  and  x_i - v_i <= U_i (1 - t)
        model.add_constraint(np.array([i, t]), np.array([-1.0, li]), GE, li - x[i])
        model.add_constraint(np.array([i, t]), np.array([-1.0, ui]), LE, ui - x[i])
        # L_i t <= v_i <= U_i t
        model.add_constraint(np.array([i, t]), np.array([1.0, -li]), GE, 0.0)
        model.add_constraint(np.array([i, t]), np.array([1.0, -ui]), LE, 0.0)
    sol = solve_lp(model)
    if sol.status != LpStatus.OPTIMAL:
        raise LpBoundError(sol.status, "envelope LP")
    return sol.objective_value


def expr_from_row(idx, w, b, eta) -> LinearExpr:
    """The row ``w . z[idx] + b`` as a dense objective over ``eta`` positions."""
    c = np.zeros(eta)
    c[idx] = w
    return LinearExpr(c, float(b))


def exact_max_oracle(net: Network, box: BoxDomain, objective: LinearExpr,
                     mixed_cap: int = 16) -> float:
    """True maximum of a state-space objective by activation-pattern search.

    Enumerates on/off patterns over the neurons interval arithmetic cannot
    fix, solves one input-space LP per pattern (each ReLU's sign constraint
    included), and takes the best feasible value.  Exponential in the mixed
    count; refuses more than ``mixed_cap`` mixed neurons.
    """
    m = net.input_dim
    sb = compute_all_bounds(net, box, INTERVAL).pre
    mixed = [pos for pos in range(m, net.n_state) if sb[pos].is_mixed()]
    if len(mixed) > mixed_cap:
        raise ValueError(f"{len(mixed)} mixed neurons exceed the cap {mixed_cap}")
    eta = objective.eta
    best = -np.inf
    for pattern in range(1 << len(mixed)):
        active = {}
        for t, pos in enumerate(mixed):
            active[pos] = bool((pattern >> t) & 1)
        # symbolic post-activations as affine functions of the inputs
        E = np.zeros((eta, m))
        e0 = np.zeros(eta)
        E[:m, :m] = np.eye(m)[:min(m, eta)]
        model = LpModel()
        for i in range(m):
            model.add_variable(box.lower[i], box.upper[i], name=f"x{i}")
        for pos in range(m, eta):
            idx, w, b = net.row(pos)
            pc = w @ E[idx]
            p0 = float(w @ e0[idx]) + b
            on = active.get(pos, sb[pos].pre_lower >= 0.0)
            if pos in active:
                sense = GE if on else LE
                model.add_constraint(np.arange(m), pc.copy(), sense, -p0)
            if on:
                E[pos], e0[pos] = pc, p0
            # else: stays zero
        obj_c = objective.coeffs @ E
        obj_0 = float(objective.coeffs @ e0) + objective.constant
        for i in range(m):
            model.obj[i] = float(obj_c[i])
        model.obj_constant = obj_0
        sol = solve_lp(model)
        if sol.status == LpStatus.OPTIMAL:
            best = max(best, sol.objective_value)
        elif sol.status != LpStatus.INFEASIBLE:
            raise LpBoundError(sol.status, "pattern LP")
    if not np.isfinite(best):
        raise ArithmeticError("no activation pattern was feasible")
    return best


def function_row(funcs, pos, upper):
    """Neuron ``pos``'s upper or lower function as ``(idx, w, b)``."""
    net = funcs.net
    lv, i = net.level_of[pos] - 1, net.level_row[pos]
    if upper:
        return net.levels[lv].src, funcs.upper[lv][i], funcs.upper_b[lv][i]
    return net.levels[lv].src, funcs.lower[lv][i], funcs.lower_b[lv][i]


def with_upper(funcs, pos, idx, w, b):
    """A copy of ``funcs`` in which neuron ``pos``'s upper function is
    ``w . z[idx] + b``; ``idx`` must be among the sources of its level."""
    net = funcs.net
    lv, i = net.level_of[pos] - 1, net.level_row[pos]
    upper, upper_b = [u.copy() for u in funcs.upper], [u.copy() for u in funcs.upper_b]
    upper[lv][i] = 0.0
    upper[lv][i][np.searchsorted(net.levels[lv].src, idx)] = w
    upper_b[lv][i] = b
    return replace(funcs, upper=upper, upper_b=upper_b)


@dataclass
class PassResult:
    """One objective's backward pass: bound, input point, which neurons took
    their upper function, and the residual over the inputs."""

    bound: float
    x_star: np.ndarray
    ub_used: np.ndarray
    input_expr: LinearExpr


def backward_pass_by_neuron(funcs, objective: LinearExpr) -> PassResult:
    """:func:`relucert.propagation.backward_pass` of one objective, one
    neuron at a time, highest position first."""
    net = funcs.net
    m = net.input_dim
    c = np.zeros(net.n_state)
    c[:objective.eta] = objective.coeffs
    const = objective.constant
    ub_used = np.zeros(net.n_state, dtype=bool)
    for i in range(net.n_state - 1, m - 1, -1):
        ci = c[i]
        if ci == 0.0:
            continue
        if not funcs.fixed[i]:
            raise ValueError(f"neuron position {i} has a coefficient but no bounding functions")
        idx, w, b = function_row(funcs, i, ci > 0.0)
        ub_used[i] = ci > 0.0
        c[i] = 0.0
        c[idx] += ci * w
        const += ci * b
    box = funcs.box
    x_star = np.where(c[:m] > 0.0, box.upper, np.where(c[:m] < 0.0, box.lower, box.midpoint()))
    return PassResult(bound=float(c[:m] @ x_star) + const, x_star=x_star, ub_used=ub_used,
                      input_expr=LinearExpr(c[:m].copy(), const))


def forward_pass_by_neuron(funcs, x_star, ub_used, eta) -> np.ndarray:
    """:func:`relucert.propagation.forward_pass` of one point, one neuron at
    a time."""
    m = funcs.net.input_dim
    z = np.zeros(funcs.net.n_state)  # a level's columns may reach past eta
    z[:m] = x_star
    for i in range(m, eta):
        idx, w, b = function_row(funcs, i, ub_used[i])
        z[i] = float(w @ z[idx]) + b
    return z[:eta]


def tightened_bound_by_neuron(funcs, objective, iterations, table=None) -> np.ndarray:
    """:func:`relucert.propagation.tightened_bound`, one objective of the
    batch at a time, with the per-neuron passes and one
    :func:`relucert.hull.separate_sort` call per reachable mixed neuron."""
    return np.array([_tightened_one(funcs, LinearExpr(c, b), iterations, table)
                     for c, b in zip(objective.coeffs, objective.constant)])


def _tightened_one(funcs, objective: LinearExpr, iterations, table) -> float:
    res = backward_pass_by_neuron(funcs, objective)
    best = res.bound
    nz = np.flatnonzero(objective.coeffs)
    hulls = {} if table is None else dict(zip(table.pos[:table.n].tolist(), table.insts))
    eligible = sorted(p for p in hulls if nz.size and p <= nz[-1])
    if not eligible:
        return best
    work = funcs
    for _ in range(iterations):
        z = forward_pass_by_neuron(work, res.x_star, res.ub_used, eligible[-1] + 1)
        swapped = False
        for p in eligible:
            sep = hull.separate_sort(hulls[p], z, z[p])
            if sep is not None and sep.violation > SWAP_VIOLATION_TOL:
                work = with_upper(work, p, sep.cut.idx, sep.cut.coeffs, sep.cut.constant)
                swapped = True
        if not swapped:
            break
        res = backward_pass_by_neuron(work, objective)
        best = min(best, res.bound)
    return best
