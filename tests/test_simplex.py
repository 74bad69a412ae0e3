import numpy as np
import pytest

import relucert.simplex as simplex_module
from relucert.simplex import EQ, GE, LE, Lockstep, LpModel, LpStatus, write_lp_format

from oracles import solve_lp


def assert_optimal(sol, value, tol=1e-7):
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(value, abs=tol)


def stack_of_one(model, start=None):
    """``model`` under its own objective, as a stack of one."""
    return Lockstep(model, [model.obj], model.obj_constant, start=start)


def record_calls(monkeypatch, owner, name):
    """A list that gains an entry at every call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def append_le_rows(stack, rows, owner=None):
    """Border ``stack`` with the rows ``(coeffs, rhs)``, each ``<=``, all
    for member 0 unless ``owner`` says otherwise."""
    owner = np.zeros(len(rows), dtype=np.intp) if owner is None else owner
    stack.append_rows(owner, np.array([a for a, _ in rows]).reshape(len(rows), stack.n),
                      np.array([r for _, r in rows], dtype=float))


class TestBasics:
    def test_textbook(self):
        m = LpModel()
        m.add_variable(0, 1, obj=1.0)
        m.add_variable(0, 1, obj=1.0)
        m.add_constraint([0, 1], [1.0, 1.0], LE, 1.0)
        assert_optimal(solve_lp(m), 1.0)

    def test_box_only_optimum_at_vertex(self):
        m = LpModel()
        m.add_variable(-2, 5, obj=3.0)
        m.add_variable(-1, 4, obj=-2.0)
        sol = solve_lp(m)
        assert_optimal(sol, 17.0)
        assert np.array_equal(sol.x, [5.0, -1.0])

    def test_objective_constant(self):
        m = LpModel()
        m.add_variable(0, 2, obj=1.0)
        m.obj_constant = 10.0
        assert_optimal(solve_lp(m), 12.0)

    def test_infeasible(self):
        m = LpModel()
        m.add_variable(0, 1, obj=1.0)
        m.add_constraint([0], [1.0], GE, 2.0)
        assert solve_lp(m).status == LpStatus.INFEASIBLE

    def test_equalities(self):
        m = LpModel()
        m.add_variable(0, 10, obj=2.0)
        m.add_variable(0, 10, obj=1.0)
        m.add_constraint([0, 1], [1.0, 1.0], EQ, 4.0)
        m.add_constraint([0], [1.0], LE, 3.0)
        sol = solve_lp(m)
        assert_optimal(sol, 7.0)
        assert np.allclose(sol.x, [3.0, 1.0])

    @pytest.mark.parametrize("lb, ub", [(-np.inf, 1.0), (0.0, np.inf),
                                        (np.inf, np.inf), (-np.inf, -np.inf)])
    def test_infinite_bound_rejected(self, lb, ub):
        with pytest.raises(ValueError, match="finite"):
            LpModel().add_variable(lb, ub)

    def test_crossed_bounds_rejected(self):
        m = LpModel()
        with pytest.raises(ValueError):
            m.add_variable(1.0, 0.0)

    def test_bad_constraint_rejected(self):
        m = LpModel()
        m.add_variable(0, 1)
        with pytest.raises(ValueError):
            m.add_constraint([3], [1.0], LE, 0.0)
        with pytest.raises(ValueError):
            m.add_constraint([0], [1.0], "<", 0.0)

    def test_degenerate_lp_terminates(self):
        # many redundant rows through one vertex: exercises the anti-cycling
        # fallback rather than looping
        m = LpModel()
        n = 6
        for j in range(n):
            m.add_variable(0, 1, obj=1.0)
        for _ in range(12):
            m.add_constraint(np.arange(n), np.ones(n), LE, 0.0)
        sol = solve_lp(m)
        assert_optimal(sol, 0.0)


class TestAgainstReference:
    def test_random_lps_match_scipy(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, 9))
            lb = rng.uniform(-2, 0, n)
            ub = lb + rng.uniform(0.05, 3, n)
            c = rng.uniform(-2, 2, n)
            m = LpModel()
            for j in range(n):
                m.add_variable(lb[j], ub[j], obj=c[j])
            Aub, bub, Aeq, beq = [], [], [], []
            for _ in range(k):
                row = rng.uniform(-1, 1, n)
                sense = (LE, GE, EQ)[int(rng.integers(3))]
                rhs = float(rng.uniform(-1.5, 1.5))
                m.add_constraint(np.arange(n), row, sense, rhs)
                if sense == LE:
                    Aub.append(row); bub.append(rhs)
                elif sense == GE:
                    Aub.append(-row); bub.append(-rhs)
                else:
                    Aeq.append(row); beq.append(rhs)
            sol = solve_lp(m)
            ref = linprog(-c, A_ub=np.array(Aub) if Aub else None,
                          b_ub=bub or None,
                          A_eq=np.array(Aeq) if Aeq else None,
                          b_eq=beq or None,
                          bounds=list(zip(lb, ub)), method="highs")
            if ref.status == 2:
                assert sol.status == LpStatus.INFEASIBLE
            elif ref.status == 0:
                assert sol.status == LpStatus.OPTIMAL
                assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-6)


class TestWarmStart:
    def test_added_rows_resolve_matches_cold(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            m = LpModel()
            for j in range(n):
                m.add_variable(-1, 1, obj=float(rng.uniform(-1, 1)))
            for _ in range(int(rng.integers(1, 6))):
                m.add_constraint(np.arange(n), rng.uniform(-1, 1, n), LE,
                                 float(rng.uniform(0.2, 1.0)))
            stack = stack_of_one(m)
            assert stack.solve().status[0] == LpStatus.OPTIMAL
            rows = [(rng.uniform(-1, 1, n), float(rng.uniform(0.05, 0.6)))
                    for _ in range(int(rng.integers(1, 4)))]
            append_le_rows(stack, rows)
            warm = stack.solve()
            cold = solve_lp(with_objective(m, m.obj, 0.0, rows))
            assert warm.status[0] == cold.status
            if cold.status == LpStatus.OPTIMAL:
                assert warm.objective_value[0] == pytest.approx(cold.objective_value, abs=1e-7)

    def test_warm_start_typically_cheaper(self):
        rng = np.random.default_rng(10)
        m = LpModel()
        n = 10
        for j in range(n):
            m.add_variable(-1, 1, obj=float(rng.uniform(-1, 1)))
        for _ in range(8):
            m.add_constraint(np.arange(n), rng.uniform(-1, 1, n), LE, 0.5)
        stack = stack_of_one(m)
        stack.solve()
        rows = [(rng.uniform(-1, 1, n), 0.1)]
        append_le_rows(stack, rows)
        warm = stack.solve()
        cold = solve_lp(with_objective(m, m.obj, 0.0, rows))
        assert warm.iterations[0] <= cold.iterations

    def test_incompatible_basis_falls_back_to_cold(self):
        m = LpModel()
        m.add_variable(0, 1, obj=1.0)
        m.add_constraint([0], [1.0], LE, 0.5)
        good = stack_of_one(m)
        good.solve()
        m2 = LpModel()
        m2.add_variable(0, 1, obj=1.0)
        m2.add_variable(0, 1, obj=2.0)
        m2.add_constraint([0, 1], [1.0, 1.0], LE, 0.5)
        stack = stack_of_one(m2, start=good)
        assert not stack.warm
        sol = stack.solve()
        assert sol.status[0] == LpStatus.OPTIMAL
        assert sol.objective_value[0] == pytest.approx(1.0, abs=1e-7)

    def test_appended_rows_resolve_without_factorizing(self, monkeypatch):
        # the warm re-solve borders the old tableau with the new rows; no
        # basis is factorized, so no np.linalg routine may run
        rng = np.random.default_rng(13)
        m = LpModel()
        n = 12
        for j in range(n):
            m.add_variable(-1, 1, obj=float(rng.uniform(-1, 1)))
        for _ in range(9):
            m.add_constraint(np.arange(n), rng.uniform(-1, 1, n), LE, float(rng.uniform(0.2, 1.0)))
        stack = stack_of_one(m)
        first = stack.solve()
        assert first.status[0] == LpStatus.OPTIMAL
        rows = []
        for _ in range(4):  # rows the first optimum violates, like cuts
            row = rng.uniform(-1, 1, n)
            rows.append((row, float(row @ first.x[0]) - 0.1))
        cold = solve_lp(with_objective(m, m.obj, 0.0, rows))
        slack_starts = record_calls(monkeypatch, Lockstep, "_slack_basis")

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called by a warm re-solve")

        for name in dir(np.linalg):
            if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        append_le_rows(stack, rows)
        warm = stack.solve()
        monkeypatch.undo()
        assert slack_starts == []
        assert warm.status[0] == cold.status == LpStatus.OPTIMAL
        assert warm.objective_value[0] == pytest.approx(cold.objective_value, abs=1e-7)
        assert np.allclose(warm.x[0], cold.x, atol=1e-7)

    @pytest.mark.parametrize("change", ["coefficient", "rhs", "sense", "gained"])
    def test_basis_over_other_rows_goes_cold(self, change, monkeypatch):
        # a start solved for another model, or for this one before it gained
        # a row, is ignored: the solve is a cold one, pivot for pivot
        def build(row0, rhs0, sense0):
            m = LpModel()
            for obj in (1.0, 2.0, -1.0):
                m.add_variable(-1, 1, obj=obj)
            m.add_constraint([0, 1, 2], row0, sense0, rhs0)
            m.add_constraint([0, 1], [1.0, 1.0], LE, 0.5)
            return m

        m = build([1.0, 1.0, 1.0], 1.0, LE)
        first = stack_of_one(m)
        first.solve()
        other = {"coefficient": ([1.0, 1.0, 0.5], 1.0, LE), "rhs": ([1.0, 1.0, 1.0], 0.9, LE),
                 "sense": ([1.0, 1.0, 1.0], 1.0, GE)}.get(change)
        if other is not None:
            m = build(*other)
        m.add_constraint([1, 2], [1.0, -1.0], LE, 0.25)
        slack_starts = record_calls(monkeypatch, Lockstep, "_slack_basis")
        stack = stack_of_one(m, start=first)
        assert not stack.warm
        warm = stack.solve()
        assert len(slack_starts) == 1
        cold = solve_lp(m)
        assert warm.status[0] == cold.status == LpStatus.OPTIMAL
        assert warm.objective_value[0] == cold.objective_value
        assert warm.iterations[0] == cold.iterations

    def test_objective_swap_resolves_from_the_last_optimum(self, monkeypatch):
        # a new objective leaves the last optimum primal feasible: the warm
        # solve keeps that basis, encodes no rows again and matches a cold
        # solve of the same model
        rng = np.random.default_rng(14)
        slack_starts = record_calls(monkeypatch, Lockstep, "_slack_basis")
        encoded = record_calls(monkeypatch, simplex_module, "_encode_rows")
        for trial in range(40):
            n = int(rng.integers(2, 9))
            lb = rng.uniform(-2, 0, n)
            ub = lb + rng.uniform(0.05, 3, n)
            x0 = rng.uniform(lb, ub)  # a feasible point of every row below
            m = LpModel()
            for j in range(n):
                m.add_variable(lb[j], ub[j], obj=float(rng.uniform(-1, 1)))
            for _ in range(int(rng.integers(1, 9))):
                row = rng.uniform(-1, 1, n)
                sense = (LE, GE, EQ)[int(rng.integers(3))]
                shift = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * float(rng.uniform(0, 0.5))
                m.add_constraint(np.arange(n), row, sense, float(row @ x0) + shift)
            last = stack_of_one(m)
            assert last.solve().status[0] == LpStatus.OPTIMAL
            for _ in range(3):
                m.obj = rng.uniform(-2, 2, n).tolist()
                m.obj_constant = float(rng.uniform(-1, 1))
                starts, rows = len(slack_starts), len(encoded)
                last = stack_of_one(m, start=last)
                sol = last.solve()
                assert len(slack_starts) == starts and len(encoded) == rows
                cold = solve_lp(m)
                assert sol.status[0] == cold.status == LpStatus.OPTIMAL
                assert sol.objective_value[0] == pytest.approx(cold.objective_value, abs=1e-7)

    def test_feasibility_residuals_checked(self):
        # optimal status implies rows hold within tolerance (verified inside
        # Lockstep.solve; this asserts externally as well)
        rng = np.random.default_rng(12)
        m = LpModel()
        n = 7
        for j in range(n):
            m.add_variable(-1, 1, obj=float(rng.uniform(-1, 1)))
        rows = [rng.uniform(-1, 1, n) for _ in range(5)]
        for row in rows:
            m.add_constraint(np.arange(n), row, LE, 0.3)
        sol = solve_lp(m)
        assert sol.status == LpStatus.OPTIMAL
        for row in rows:
            assert float(row @ sol.x) <= 0.3 + 1e-7

    def test_iteration_limit_status(self):
        m = LpModel()
        for j in range(5):
            m.add_variable(0, 1, obj=1.0)
        m.add_constraint(np.arange(5), np.ones(5), LE, 2.0)
        assert solve_lp(m, max_iter=0).status == LpStatus.ITERATION_LIMIT


def random_boxed_lp(rng, senses=(LE, GE, EQ), tied=False):
    """A random boxed model as test_random_lps_match_scipy draws it, without
    an objective; ``tied`` draws small integers instead, so that many
    pivot choices tie and the tie rules decide."""
    n, k = int(rng.integers(2, 8)), int(rng.integers(1, 9))
    draw = (lambda lo, hi, size=None: rng.integers(lo, hi + 1, size).astype(float)) if tied \
        else rng.uniform
    lb = draw(-2, 0, n)
    ub = lb + (draw(1, 3, n) if tied else draw(0.05, 3, n))
    m = LpModel()
    for j in range(n):
        m.add_variable(lb[j], ub[j])
    for _ in range(k):
        m.add_constraint(np.arange(n), draw(-1, 1, n), senses[int(rng.integers(len(senses)))],
                         float(draw(-1, 1) if tied else draw(-1.5, 1.5)))
    return m


def with_objective(model, c, constant, rows=()):
    """A copy of ``model`` maximizing ``c . x + constant``, with ``rows``
    (``(coeffs, rhs)``, each ``<=``) appended."""
    m = LpModel(lb=list(model.lb), ub=list(model.ub), obj=list(c), obj_constant=float(constant),
                rows=list(model.rows), names=list(model.names))
    for coeffs, rhs in rows:
        m.add_constraint(np.arange(m.n_vars), coeffs, LE, rhs)
    return m


def stacks_of_one(model, C, K, start=None):
    """One stack of one per objective ``C[b] . x + K[b]`` over ``model``."""
    return [Lockstep(model, C[b:b + 1], K[b:b + 1], start=start) for b in range(len(C))]


def assert_members_match(sol, refs):
    """Each member of a stack's solution as the solution of its own stack
    of one: the same status, the same number of pivots, the same point
    within 1e-7 and the same value within 1e-9, as when both start from the
    same basis and choose by the same rules."""
    for b, ref in enumerate(refs):
        assert sol.status[b] == ref.status[0]
        assert sol.iterations[b] == ref.iterations[0]
        if ref.status[0] == LpStatus.OPTIMAL:
            assert sol.objective_value[b] == pytest.approx(ref.objective_value[0], abs=1e-9)
            assert np.allclose(sol.x[b], ref.x[0], atol=1e-7)


def assert_stack_matches(model, C, K, start=None):
    """The stack of the objectives ``C``, ``K`` solves as one stack of one
    per objective, pivot for pivot; its solution."""
    sol = Lockstep(model, C, K, start=start).solve()
    assert_members_match(sol, [one.solve() for one in stacks_of_one(model, C, K, start)])
    return sol


def assert_warm_members_match(model, C, K):
    """The same, all started from the solved stack of one of the first
    objective."""
    first = Lockstep(model, C[:1], K[:1])
    if first.solve().status[0] != LpStatus.OPTIMAL:
        return
    assert Lockstep(model, C, K, start=first).warm
    assert_stack_matches(model, C, K, start=first)


@pytest.mark.parametrize("q", [2, 5])
class TestLockstep:
    @pytest.mark.parametrize("tied", [False, True])
    def test_random_lps_match_solve_lp(self, q, tied):
        # cold from the slack basis, then warm from a solved stack of the
        # first objective; the cold stacks of one match a solve of their model
        rng = np.random.default_rng(0)
        optimal = 0
        for _ in range(300):
            m = random_boxed_lp(rng, tied=tied)
            C = rng.integers(-2, 3, (q, m.n_vars)).astype(float) if tied \
                else rng.uniform(-2, 2, (q, m.n_vars))
            K = rng.uniform(-1, 1, q)
            sol = assert_stack_matches(m, C, K)
            ref = solve_lp(with_objective(m, C[0], K[0]))
            assert sol.status[0] == ref.status
            optimal += ref.status == LpStatus.OPTIMAL
            assert_warm_members_match(m, C, K)
        assert optimal >= 50

    @pytest.mark.parametrize("streak", [0, 2])
    def test_blands_rule_matches(self, q, streak, monkeypatch):
        # with no degenerate streak allowed, every pivot of both kernels
        # follows Bland's rule; with a short one, each member switches to it
        # after the degenerate steps of its own
        monkeypatch.setattr(simplex_module, "DEGENERATE_STREAK", streak)
        rng = np.random.default_rng(5)
        for trial in range(200):
            m = random_boxed_lp(rng, tied=trial % 2 == 1)
            C = rng.integers(-2, 3, (q, m.n_vars)).astype(float) if trial % 2 \
                else rng.uniform(-2, 2, (q, m.n_vars))
            K = rng.uniform(-1, 1, q)
            assert_stack_matches(m, C, K)
            assert_warm_members_match(m, C, K)

    def test_degenerate_lp_terminates(self, q):
        m = LpModel()
        n = 6
        for j in range(n):
            m.add_variable(0, 1)
        for _ in range(12):
            m.add_constraint(np.arange(n), np.ones(n), LE, 0.0)
        C = np.vstack([np.ones(n), np.random.default_rng(3).uniform(-1, 1, (q - 1, n))])
        sol = assert_stack_matches(m, C, np.zeros(q))
        assert sol.objective_value[0] == pytest.approx(0.0, abs=1e-12)

    def test_equality_rows(self, q):
        # models with equality rows through a point inside the box, so that
        # most are feasible
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            lb = rng.uniform(-2, 0, n)
            ub = lb + rng.uniform(0.05, 3, n)
            x0 = rng.uniform(lb, ub)
            m = LpModel()
            for j in range(n):
                m.add_variable(lb[j], ub[j])
            for i in range(int(rng.integers(1, n + 1))):
                row = rng.uniform(-1, 1, n)
                sense = EQ if i % 2 == 0 else LE
                m.add_constraint(np.arange(n), row, sense, float(row @ x0) + (sense == LE) * 0.3)
            C, K = rng.uniform(-2, 2, (q, n)), rng.uniform(-1, 1, q)
            sol = assert_stack_matches(m, C, K)
            assert all(s == LpStatus.OPTIMAL for s in sol.status)

    def test_members_gain_unequal_rows(self, q):
        # in each of two rounds, each member gets 0 to 3 rows of its own,
        # most violated at its optimum and some beyond the box, which makes
        # that member infeasible; every member matches its own stack of one,
        # bordered with the same rows, pivot for pivot, and a cold solve of
        # its own model
        rng = np.random.default_rng(21)
        infeasible = bordered = 0
        for _ in range(80):
            m = random_boxed_lp(rng, senses=(LE,))
            C, K = rng.uniform(-2, 2, (q, m.n_vars)), rng.uniform(-1, 1, q)
            batch, ones = Lockstep(m, C, K), stacks_of_one(m, C, K)
            sol = batch.solve()
            assert_members_match(sol, [one.solve() for one in ones])
            own = [[] for _ in range(q)]
            for _ in range(2):
                if any(s != LpStatus.OPTIMAL for s in sol.status):
                    break
                new = [[] for _ in range(q)]
                for b in range(q):
                    for _ in range(int(rng.integers(0, 4))):
                        a = rng.uniform(-1, 1, m.n_vars)
                        cut = 10.0 if rng.uniform() < 0.1 else 0.1
                        new[b].append((a, float(a @ sol.x[b]) - cut))
                    own[b] += new[b]
                    append_le_rows(ones[b], new[b])
                append_le_rows(batch, [row for rows in new for row in rows],
                               np.repeat(np.arange(q), [len(rows) for rows in new]))
                sol = batch.solve()
                assert_members_match(sol, [one.solve() for one in ones])
                for b in range(q):
                    ref = solve_lp(with_objective(m, C[b], K[b], own[b]))
                    assert (sol.status[b] == LpStatus.OPTIMAL) == (ref.status == LpStatus.OPTIMAL)
                    if ref.status == LpStatus.OPTIMAL:
                        assert sol.objective_value[b] == pytest.approx(ref.objective_value,
                                                                       abs=1e-9)
                    infeasible += ref.status == LpStatus.INFEASIBLE
                bordered += 1
        assert bordered >= 30 and infeasible >= 1


def test_lp_format_dump(tmp_path):
    m = LpModel()
    m.add_variable(0, 1, obj=1.0, name="a")
    m.add_variable(-1, 2, obj=-0.5, name="b")
    m.add_constraint([0, 1], [2.0, -1.0], LE, 0.25)
    path = tmp_path / "model.lp"
    write_lp_format(m, path)
    text = path.read_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
    assert "2 a" in text and "- 1 b" in text
