import numpy as np
import pytest

import relucert.simplex as simplex_module
from relucert.simplex import Lockstep, LpModel, LpStatus, write_lp_format

from oracles import EQ, GE, LE, lp_model, solve_lp, with_le_rows


def assert_optimal(sol, value, tol=1e-7):
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(value, abs=tol)


def stack_of_one(model, c, constant=0.0, start=None):
    """``model`` maximizing ``c . x + constant``, as a stack of one."""
    return Lockstep(model, c, constant, start=start)


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


def one_variable(A, lo, hi, lb=0.0, ub=1.0):
    """A model over one variable ``x0`` boxed to ``[lb, ub]``."""
    return LpModel(A, lo, hi, [lb], [ub], ["x0"])


class TestBasics:
    def test_textbook(self):
        m = lp_model([0, 0], [1, 1], [([0, 1], [1.0, 1.0], LE, 1.0)], c=[1.0, 1.0])
        assert_optimal(solve_lp(*m), 1.0)

    def test_box_only_optimum_at_vertex(self):
        sol = solve_lp(*lp_model([-2, -1], [5, 4], c=[3.0, -2.0]))
        assert_optimal(sol, 17.0)
        assert np.array_equal(sol.x, [5.0, -1.0])

    def test_objective_constant(self):
        assert_optimal(solve_lp(*lp_model([0], [2], c=[1.0], constant=10.0)), 12.0)

    def test_infeasible(self):
        m = lp_model([0], [1], [([0], [1.0], GE, 2.0)], c=[1.0])
        assert solve_lp(*m).status == LpStatus.INFEASIBLE

    def test_equalities(self):
        m = lp_model([0, 0], [10, 10], [([0, 1], [1.0, 1.0], EQ, 4.0), ([0], [1.0], LE, 3.0)],
                     c=[2.0, 1.0])
        sol = solve_lp(*m)
        assert_optimal(sol, 7.0)
        assert np.allclose(sol.x, [3.0, 1.0])

    @pytest.mark.parametrize("lb, ub", [(-np.inf, 1.0), (0.0, np.inf),
                                        (np.inf, np.inf), (-np.inf, -np.inf)])
    def test_infinite_bound_rejected(self, lb, ub):
        with pytest.raises(ValueError, match="finite"):
            one_variable(np.zeros((0, 1)), [], [], lb, ub)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            one_variable(np.zeros((0, 1)), [], [], 1.0, 0.0)

    def test_bad_constraint_rejected(self):
        # a row block wider or narrower than the variables, not a matrix, or
        # with a range per row that does not match its rows; names one per
        # variable
        for A, lo, hi in (([[1.0, 2.0]], [0.0], [1.0]), (np.zeros((1, 0)), [0.0], [1.0]),
                          ([1.0], [0.0], [1.0]), ([[1.0]], [0.0, 0.0], [1.0, 1.0]),
                          ([[1.0]], [0.0], [[1.0]])):
            with pytest.raises(ValueError, match="shape"):
                one_variable(A, lo, hi)
        with pytest.raises(ValueError, match="shape"):
            LpModel(np.zeros((0, 1)), [], [], [0.0], [1.0], ["x0", "x1"])

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (-np.inf, -np.inf), (np.inf, np.inf),
                                        (-np.inf, np.inf), (np.nan, 1.0)])
    def test_bad_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite side"):
            one_variable([[1.0]], [lo], [hi])

    def test_model_is_read_only_and_keeps_signed_zeros(self):
        # the arrays are the model's own copies, read only, with a -0.0 kept
        # as it is; each row's slack box is cut to what the row reaches
        A = np.array([[-0.0, 2.0], [1.0, 1.0]])
        m = LpModel(A, [-np.inf, 0.5], [1.0, np.inf], [0.0, 0.0], [1.0, 1.0], ["a", "b"])
        A[0, 1] = 5.0
        assert m.A.tolist() == [[0.0, 2.0], [1.0, 1.0]] and np.signbit(m.A[0, 0])
        assert m.names == ("a", "b")
        for name in ("A", "lo", "hi", "lb", "ub", "rhs", "col_lb", "col_ub", "slack_lo",
                     "slack_hi"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, name)[0] = 1.0
        # 2 b <= 1 has slack 1 - 2 b in [0, inf), cut to [0, 1]; a + b >= 0.5
        # has slack 0.5 - a - b in (-inf, 0], cut to [-1.5, 0]
        assert m.rhs.tolist() == [1.0, 0.5]
        assert m.col_lb.tolist() == [0.0, 0.0, 0.0, -np.inf]
        assert m.col_ub.tolist() == [1.0, 1.0, np.inf, 0.0]
        assert m.slack_lo.tolist() == [0.0, -1.5] and m.slack_hi.tolist() == [1.0, 0.0]

    def test_ranged_rows_equal_their_halves(self):
        # a row lo <= a . x <= hi solves as its >= and <= halves do, and the
        # optimum keeps it in its range; a range of width 0 is an equality
        rng = np.random.default_rng(3)
        for trial in range(60):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            x0 = rng.uniform(-1, 1, n)
            A = rng.uniform(-1, 1, (k, n))
            lo = A @ x0 - rng.uniform(0, 0.5, k) * (trial % 3 > 0)
            hi = A @ x0 + rng.uniform(0, 0.5, k) * (trial % 3 > 0)
            c = rng.uniform(-2, 2, n)
            box = np.full(n, 1.5)
            ranged = LpModel(A, lo, hi, -box, box, [f"x{j}" for j in range(n)])
            halves = lp_model(-box, box, [(np.arange(n), a, sense, side)
                                          for a, l, h in zip(A, lo, hi)
                                          for sense, side in ((GE, l), (LE, h))], c=c)
            got, want = solve_lp(ranged, c), solve_lp(*halves)
            assert_optimal(got, want.objective_value)
            v = A @ got.x
            assert (v >= lo - 1e-7).all() and (v <= hi + 1e-7).all()

    def test_degenerate_lp_terminates(self):
        # many redundant rows through one vertex: exercises the anti-cycling
        # fallback rather than looping
        m, _, _ = degenerate_lp()
        assert_optimal(solve_lp(m, np.ones(6)), 0.0)


def degenerate_lp():
    """Twelve copies of the row ``sum x <= 0`` over six variables in [0, 1]."""
    return lp_model(np.zeros(6), np.ones(6), [(np.arange(6), np.ones(6), LE, 0.0)] * 12)


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
            rows, Aub, bub, Aeq, beq = [], [], [], [], []
            for _ in range(k):
                row = rng.uniform(-1, 1, n)
                sense = (LE, GE, EQ)[int(rng.integers(3))]
                rhs = float(rng.uniform(-1.5, 1.5))
                rows.append((np.arange(n), row, sense, rhs))
                if sense == LE:
                    Aub.append(row); bub.append(rhs)
                elif sense == GE:
                    Aub.append(-row); bub.append(-rhs)
                else:
                    Aeq.append(row); beq.append(rhs)
            sol = solve_lp(*lp_model(lb, ub, rows, c=c))
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


def random_le_lp(rng, n, count, rhs):
    """A model over ``n`` variables in [-1, 1] with a random objective and
    ``count`` random ``<=`` rows, the right-hand side of each from ``rhs()``,
    as ``(model, c)``."""
    c = [float(rng.uniform(-1, 1)) for _ in range(n)]
    rows = [(np.arange(n), rng.uniform(-1, 1, n), LE, rhs()) for _ in range(count)]
    m, c, _ = lp_model(-np.ones(n), np.ones(n), rows, c=c)
    return m, c


class TestWarmStart:
    def test_added_rows_resolve_matches_cold(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            c = [float(rng.uniform(-1, 1)) for _ in range(n)]
            rows = [(np.arange(n), rng.uniform(-1, 1, n), LE, float(rng.uniform(0.2, 1.0)))
                    for _ in range(int(rng.integers(1, 6)))]
            m, c, _ = lp_model(-np.ones(n), np.ones(n), rows, c=c)
            stack = stack_of_one(m, c)
            assert stack.solve().status[0] == LpStatus.OPTIMAL
            rows = [(rng.uniform(-1, 1, n), float(rng.uniform(0.05, 0.6)))
                    for _ in range(int(rng.integers(1, 4)))]
            append_le_rows(stack, rows)
            warm = stack.solve()
            cold = solve_lp(with_le_rows(m, rows), c)
            assert warm.status[0] == cold.status
            if cold.status == LpStatus.OPTIMAL:
                assert warm.objective_value[0] == pytest.approx(cold.objective_value, abs=1e-7)

    def test_warm_start_typically_cheaper(self):
        rng = np.random.default_rng(10)
        n = 10
        m, c = random_le_lp(rng, n, 8, lambda: 0.5)
        stack = stack_of_one(m, c)
        stack.solve()
        rows = [(rng.uniform(-1, 1, n), 0.1)]
        append_le_rows(stack, rows)
        warm = stack.solve()
        cold = solve_lp(with_le_rows(m, rows), c)
        assert warm.iterations[0] <= cold.iterations

    def test_incompatible_basis_falls_back_to_cold(self):
        good = stack_of_one(*lp_model([0], [1], [([0], [1.0], LE, 0.5)], c=[1.0]))
        good.solve()
        m, c, _ = lp_model([0, 0], [1, 1], [([0, 1], [1.0, 1.0], LE, 0.5)], c=[1.0, 2.0])
        stack = stack_of_one(m, c, start=good)
        assert not stack.warm
        sol = stack.solve()
        assert sol.status[0] == LpStatus.OPTIMAL
        assert sol.objective_value[0] == pytest.approx(1.0, abs=1e-7)

    def test_appended_rows_resolve_without_factorizing(self, monkeypatch):
        # the warm re-solve borders the old tableau with the new rows; no
        # basis is factorized, so no np.linalg routine may run
        rng = np.random.default_rng(13)
        n = 12
        m, c = random_le_lp(rng, n, 9, lambda: float(rng.uniform(0.2, 1.0)))
        stack = stack_of_one(m, c)
        first = stack.solve()
        assert first.status[0] == LpStatus.OPTIMAL
        rows = []
        for _ in range(4):  # rows the first optimum violates, like cuts
            row = rng.uniform(-1, 1, n)
            rows.append((row, float(row @ first.x[0]) - 0.1))
        cold = solve_lp(with_le_rows(m, rows), c)
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

    @pytest.mark.parametrize("change", ["coefficient", "rhs", "sense", "gained", "bordered"])
    def test_basis_over_other_rows_goes_cold(self, change, monkeypatch):
        # a start solved for another model, even one with the same rows and
        # one more, or solved for this one and then bordered with a row, is
        # ignored: the solve is a cold one, pivot for pivot
        def build(row0, rhs0, sense0, *more):
            rows = [([0, 1, 2], row0, sense0, rhs0), ([0, 1], [1.0, 1.0], LE, 0.5), *more]
            return lp_model(-np.ones(3), np.ones(3), rows, c=[1.0, 2.0, -1.0])

        m, c, _ = build([1.0, 1.0, 1.0], 1.0, LE)
        first = stack_of_one(m, c)
        first.solve()
        if change == "bordered":
            append_le_rows(first, [([0.0, 1.0, -1.0], 0.25)])
        else:
            other = {"coefficient": ([1.0, 1.0, 0.5], 1.0, LE), "rhs": ([1.0, 1.0, 1.0], 0.9, LE),
                     "sense": ([1.0, 1.0, 1.0], 1.0, GE), "gained": ([1.0, 1.0, 1.0], 1.0, LE)}
            m, c, _ = build(*other[change], ([1, 2], [1.0, -1.0], LE, 0.25))
        slack_starts = record_calls(monkeypatch, Lockstep, "_slack_basis")
        stack = stack_of_one(m, c, start=first)
        assert not stack.warm
        warm = stack.solve()
        assert len(slack_starts) == 1
        cold = solve_lp(m, c)
        assert warm.status[0] == cold.status == LpStatus.OPTIMAL
        assert warm.objective_value[0] == cold.objective_value
        assert warm.iterations[0] == cold.iterations

    def test_objective_swap_resolves_from_the_last_optimum(self, monkeypatch):
        # a new objective leaves the last optimum primal feasible: the warm
        # solve keeps that basis, reads the model's own rows and matches a
        # cold solve of the same model
        rng = np.random.default_rng(14)
        slack_starts = record_calls(monkeypatch, Lockstep, "_slack_basis")
        for trial in range(40):
            n = int(rng.integers(2, 9))
            lb = rng.uniform(-2, 0, n)
            ub = lb + rng.uniform(0.05, 3, n)
            x0 = rng.uniform(lb, ub)  # a feasible point of every row below
            c = [float(rng.uniform(-1, 1)) for _ in range(n)]
            rows = []
            for _ in range(int(rng.integers(1, 9))):
                row = rng.uniform(-1, 1, n)
                sense = (LE, GE, EQ)[int(rng.integers(3))]
                shift = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * float(rng.uniform(0, 0.5))
                rows.append((np.arange(n), row, sense, float(row @ x0) + shift))
            m, c, _ = lp_model(lb, ub, rows, c=c)
            last = stack_of_one(m, c)
            assert last.solve().status[0] == LpStatus.OPTIMAL
            for _ in range(3):
                c, constant = rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))
                starts = len(slack_starts)
                last = stack_of_one(m, c, constant, start=last)
                sol = last.solve()
                assert len(slack_starts) == starts and np.shares_memory(last.As, m.A)
                cold = solve_lp(m, c, constant)
                assert sol.status[0] == cold.status == LpStatus.OPTIMAL
                assert sol.objective_value[0] == pytest.approx(cold.objective_value, abs=1e-7)

    def test_feasibility_residuals_checked(self):
        # optimal status implies rows hold within tolerance (verified inside
        # Lockstep.solve; this asserts externally as well)
        rng = np.random.default_rng(12)
        m, c = random_le_lp(rng, 7, 5, lambda: 0.3)
        sol = solve_lp(m, c)
        assert sol.status == LpStatus.OPTIMAL
        assert (m.A @ sol.x <= 0.3 + 1e-7).all()

    def test_iteration_limit_status(self):
        m = lp_model(np.zeros(5), np.ones(5), [(np.arange(5), np.ones(5), LE, 2.0)], c=np.ones(5))
        assert solve_lp(*m, max_iter=0).status == LpStatus.ITERATION_LIMIT


def random_boxed_lp(rng, senses=(LE, GE, EQ), tied=False):
    """A random boxed model as test_random_lps_match_scipy draws it, without
    an objective; ``tied`` draws small integers instead, so that many
    pivot choices tie and the tie rules decide."""
    n, k = int(rng.integers(2, 8)), int(rng.integers(1, 9))
    draw = (lambda lo, hi, size=None: rng.integers(lo, hi + 1, size).astype(float)) if tied \
        else rng.uniform
    lb = draw(-2, 0, n)
    ub = lb + (draw(1, 3, n) if tied else draw(0.05, 3, n))
    rows = [(np.arange(n), draw(-1, 1, n), senses[int(rng.integers(len(senses)))],
             float(draw(-1, 1) if tied else draw(-1.5, 1.5))) for _ in range(k)]
    return lp_model(lb, ub, rows)[0]


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


@pytest.mark.parametrize("q", [2, 5, 13])
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
            ref = solve_lp(m, C[0], K[0])
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
        m, _, _ = degenerate_lp()
        n = m.n_vars
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
            rows = []
            for i in range(int(rng.integers(1, n + 1))):
                row = rng.uniform(-1, 1, n)
                sense = EQ if i % 2 == 0 else LE
                rows.append((np.arange(n), row, sense, float(row @ x0) + (sense == LE) * 0.3))
            m, _, _ = lp_model(lb, ub, rows)
            C, K = rng.uniform(-2, 2, (q, n)), rng.uniform(-1, 1, q)
            sol = assert_stack_matches(m, C, K)
            assert all(s == LpStatus.OPTIMAL for s in sol.status)

    def test_members_gain_unequal_rows(self, q, monkeypatch):
        # in each of two rounds, each member gets 0 to 3 rows of its own,
        # most violated at its optimum and some beyond the box, which makes
        # that member infeasible; every member matches its own stack of one,
        # bordered with the same rows, pivot for pivot, and a cold solve of
        # its own model; a stack at or above the crossover takes lockstep
        # steps on its bordered tableaux, padding rows and all
        rng = np.random.default_rng(21)
        steps = record_calls(monkeypatch, Lockstep, "_dual_step")
        infeasible = bordered = stepped = 0
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
                steps.clear()
                sol = batch.solve()
                stepped += bool(steps)
                assert_members_match(sol, [one.solve() for one in ones])
                for b in range(q):
                    ref = solve_lp(with_le_rows(m, own[b]), C[b], K[b])
                    assert (sol.status[b] == LpStatus.OPTIMAL) == (ref.status == LpStatus.OPTIMAL)
                    if ref.status == LpStatus.OPTIMAL:
                        assert sol.objective_value[b] == pytest.approx(ref.objective_value,
                                                                       abs=1e-9)
                    infeasible += ref.status == LpStatus.INFEASIBLE
                bordered += 1
        assert bordered >= 30 and infeasible >= 1
        assert (stepped >= 20) == (q >= simplex_module.LOCKSTEP_MIN), stepped


@pytest.mark.parametrize("streak", [None, 0, 2])
@pytest.mark.parametrize("q", [simplex_module.LOCKSTEP_MIN, 13])
def test_kernels_take_the_same_pivots(q, streak, monkeypatch):
    # under the default rules, with no degenerate streak allowed so that
    # every pivot follows Bland's rule, and with a short one, after which
    # each member switches to it by a streak the scalar loop must carry on;
    # cold, and warm from the optimum of another objective, where the primal
    # simplex flips bounds, and cut off after every number of pivots, each
    # member of a stack at or above the crossover holds the basis, bound
    # statuses and point of its own stack of one, which runs the scalar loop
    # alone; most stacks take lockstep steps and then cross to the scalar
    # loop in the same solve
    if streak is not None:
        monkeypatch.setattr(simplex_module, "DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(43)
    models = [random_boxed_lp(rng, tied=trial % 2 == 1) for trial in range(40)] + \
        [degenerate_lp()[0]]
    lockstep, scalar = ([record_calls(monkeypatch, Lockstep, name) for name in names]
                        for names in (("_dual_step", "_primal_step"), ("_dual", "_primal")))
    crossed = {"cold": 0, "warm": 0}
    for m in models:
        C, K = rng.uniform(-2, 2, (q, m.n_vars)), rng.uniform(-1, 1, q)
        first = Lockstep(m, rng.uniform(-2, 2, (1, m.n_vars)), 0.0)
        warm = first.solve().status[0] == LpStatus.OPTIMAL
        for start in (None, first) if warm else (None,):
            pivots = int(Lockstep(m, C, K, start=start).solve().iterations.max())
            for limit in range(pivots + 1):
                stack, ones = Lockstep(m, C, K, start=start), stacks_of_one(m, C, K, start)
                for calls in lockstep + scalar:
                    calls.clear()
                sol = stack.solve(max_iter=limit)
                crossed["warm" if start else "cold"] += any(lockstep) and any(scalar)
                refs = [one.solve(max_iter=limit) for one in ones]
                assert_members_match(sol, refs)
                for b, (one, ref) in enumerate(zip(ones, refs)):
                    for name in ("basic", "nonbasic", "status"):
                        assert np.array_equal(getattr(stack, name)[b], getattr(one, name)[0])
                    assert np.allclose(sol.x[b], ref.x[0], rtol=0.0, atol=1e-9)
    assert crossed["cold"] >= 20 and crossed["warm"] >= 20, crossed


def assert_condensed(stack, C, priced=True):
    """Each member's stored entries are the ones its basis implies, within
    1e-9: ``B^{-1} [A | I]`` at its nonbasic columns, ``B^{-1} rhs`` and,
    once a solve has priced them, the reduced costs ``c_N - c_B B^{-1} N``
    of its objective ``C[b]``.  ``B^{-1}`` comes from np.linalg.solve on the
    model's rows, any the member gained after them and the member's basis."""
    (q, m), n = stack.basic.shape, stack.n
    A0, lo, hi = stack.model.A, stack.model.lo, stack.model.hi
    # a row lo <= a . x <= hi has right-hand side hi, or lo when hi is infinite
    rhs0 = np.where(np.isfinite(hi), hi, lo)
    assert stack.tab.shape == (q, m + 1, n + 1)
    for b in range(q):
        assert np.array_equal(stack.As[b, :len(A0)], A0) and np.array_equal(stack.rhs[b, :len(A0)],
                                                                            rhs0)
        full = np.hstack([stack.As[b], np.eye(m)])
        basic, nonbasic = stack.basic[b], stack.nonbasic[b]
        assert sorted(np.concatenate([basic, nonbasic]).tolist()) == list(range(n + m))
        B = full[:, basic]
        check = lambda got, want: np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        check(stack.tab[b, :m, :n], np.linalg.solve(B, full[:, nonbasic]))
        check(stack.tab[b, :m, n], np.linalg.solve(B, stack.rhs[b]))
        if priced:
            c = np.concatenate([C[b], np.zeros(m)])
            check(stack.tab[b, m, :n], c[nonbasic] - np.linalg.solve(B.T, c[basic]) @ full[:, nonbasic])


@pytest.mark.parametrize("streak", [None, 0, 2])
@pytest.mark.parametrize("q", [1, 3, 13])
def test_condensed_tableau_holds_the_nonbasic_columns(q, streak, monkeypatch):
    # cold, warm from a solved stack of one, and bordered with rows of each
    # member's own; with no degenerate streak allowed or a short one, the
    # solves pivot under Bland's rule; a stack at or above the crossover
    # takes lockstep steps on its bordered tableaux
    if streak is not None:
        monkeypatch.setattr(simplex_module, "DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(31)
    steps = record_calls(monkeypatch, Lockstep, "_dual_step")
    checked = bordered = stepped = 0
    for trial in range(60):
        m = random_boxed_lp(rng, senses=(LE,) if trial % 2 else (LE, GE, EQ), tied=trial % 3 == 0)
        C, K = rng.uniform(-2, 2, (q, m.n_vars)), rng.uniform(-1, 1, q)
        first = Lockstep(m, C[:1], K[:1])
        if first.solve().status[0] != LpStatus.OPTIMAL:
            continue
        assert_condensed(first, C[:1])
        for stack in (Lockstep(m, C, K), Lockstep(m, C, K, start=first)):
            sol = stack.solve()
            assert_condensed(stack, C)
            checked += 1
            if any(st != LpStatus.OPTIMAL for st in sol.status):
                continue
            counts = rng.integers(0, 3, q)
            owner = np.repeat(np.arange(q), counts)
            rows = rng.uniform(-1, 1, (owner.size, m.n_vars))
            rows_m = stack.basic.shape[1]
            stack.append_rows(owner, rows, np.einsum("ej,ej->e", rows, sol.x[owner]) - 0.1)
            # k rows and no column
            assert stack.tab.shape == (q, rows_m + counts.max() + 1, m.n_vars + 1)
            assert_condensed(stack, C, priced=False)
            steps.clear()
            stack.solve()
            stepped += bool(steps)
            assert_condensed(stack, C)
            bordered += 1
    assert checked >= 40 and bordered >= 40
    assert (stepped >= 20) == (q >= simplex_module.LOCKSTEP_MIN), stepped


def test_acceptance_instance_solves_and_pivots_pinned(monkeypatch):
    # instance 0 of the acceptance corpus, attack off: the solves and pivots
    # of both LP methods
    from relucert.network import generate_random_network
    from relucert.verifier import generate_instances, verify
    net = generate_random_network([6, 20, 20, 3], seed=1, weight_scale=0.7)
    inst = generate_instances(net, 50, epsilon=0.16, seed=1001)[0]
    counts = [0, 0]
    solve = Lockstep.solve

    def counted(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        counts[0] += len(self)
        counts[1] += int(sol.iterations.sum())
        return sol

    monkeypatch.setattr(Lockstep, "solve", counted)
    for method, want in (("lp", [42, 328]), ("optc2v", [112, 598])):
        counts[:] = [0, 0]
        verify(net, inst, method=method, attack=False)
        assert counts == want, method


def test_lp_format_dump(tmp_path):
    m, c, constant = lp_model([0, -1], [1, 2], [([0, 1], [2.0, -1.0], LE, 0.25)], c=[1.0, -0.5],
                              names=["a", "b"])
    path = tmp_path / "model.lp"
    write_lp_format(m, c, constant, path)
    text = path.read_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
    assert "2 a" in text and "- 1 b" in text


def test_lp_format_dump_writes_a_range_as_its_halves(tmp_path):
    # zero coefficients of either sign are left out, in the rows and the
    # objective
    m = LpModel([[3.0, -0.0], [1.0, 0.0]], [-0.5, 0.25], [2.0, 0.25], [0.0, 0.0], [1.0, 1.0],
                ["a", "b"])
    path = tmp_path / "model.lp"
    write_lp_format(m, [1.0, -0.0], 1.5, path)
    words = " ".join(path.read_text().split())
    assert ("obj: 1 a + 1.5 Subject To r0_lo: 3 a >= -0.5 r0_hi: 3 a <= 2 r1: 1 a = 0.25 "
            "Bounds 0 <= a <= 1 0 <= b <= 1 End") == words.split("Maximize ")[1]
