import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import xmod.transport as transport
from xmod.core import NotConvergedWarning, XmodError, pairwise_sq_dists
from xmod.clustering import MemoryBank
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transport import (
    TransportPlan,
    TransportProblem,
    heterogeneous_affinity,
    heterogeneous_plan,
    otla_init,
    sinkhorn,
)

from conftest import random_unit_rows
from oracles import newton_direction_dense, sinkhorn_allocating, sinkhorn_log_domain


def uniform_problem(cost, lam) -> TransportProblem:
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    return TransportProblem(cost, np.full(n, 1.0 / n), np.full(m, 1.0 / m), lam)


def synth_cost(**spec) -> np.ndarray:
    fv, fr, _ = generate(SynthSpec(num_ids=6, per_id_v=10, per_id_r=10, dim=32, seed=3, **spec))
    return pairwise_sq_dists(fv.data, fr.data)


def hard_snapshot(num_ids: int, per_id_v: int, per_id_r: int):
    """Per-identity-gap features whose solves at lam=25 stall into Newton."""
    return generate(SynthSpec(num_ids=num_ids, per_id_v=per_id_v, per_id_r=per_id_r, dim=32,
                              blob_std=0.08, modality_gap=1.2,
                              gap_mode=GapMode.PER_ID_OFFSET, seed=3))


def hard_cost() -> np.ndarray:
    """60x60 per-identity-gap problem: plain sweeps stall within a few
    sweeps at lam=25."""
    fv, fr, _ = hard_snapshot(num_ids=6, per_id_v=10, per_id_r=10)
    return pairwise_sq_dists(fv.data, fr.data)


def record_cg_dims(monkeypatch) -> list:
    """Wrap transport._conjugate_gradient; record the number of unknowns of
    every system it solves."""
    dims = []
    solve = transport._conjugate_gradient

    def recording(apply_s, rhs, *args):
        dims.append(rhs.size)
        return solve(apply_s, rhs, *args)

    monkeypatch.setattr(transport, "_conjugate_gradient", recording)
    return dims


def record_cg_iterations(monkeypatch) -> list:
    """Wrap transport._conjugate_gradient; record the number of S products
    (``apply_s`` calls) of every system it solves."""
    counts = []
    solve = transport._conjugate_gradient

    def recording(apply_s, rhs, *args):
        calls = [0]

        def counted(p):
            calls[0] += 1
            return apply_s(p)

        out = solve(counted, rhs, *args)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(transport, "_conjugate_gradient", recording)
    return counts


def shift_free(df, dg) -> np.ndarray:
    """(df, dg) with its component along the dual's null direction
    (f + s, g - s) removed; the plan does not depend on that component."""
    s = (df.sum() - dg.sum()) / (df.size + dg.size)
    return np.concatenate([df - s, dg + s])


def count_newton(monkeypatch) -> dict:
    """Wrap transport._newton_step; count its calls and its None returns."""
    counts = {"calls": 0, "rejected": 0}
    original = transport._newton_step

    def counting(*args):
        counts["calls"] += 1
        step = original(*args)
        counts["rejected"] += step is None
        return step

    monkeypatch.setattr(transport, "_newton_step", counting)
    return counts


def lp_optimal_plan(cost, row_marginal, col_marginal):
    """Exact LP transport via scipy's HiGHS backend (independent oracle)."""
    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
    b_eq = np.concatenate([row_marginal, col_marginal])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.success
    return res.x.reshape(n, m), res.fun


def best_permutation_plan(cost):
    """Brute-force LP over the Birkhoff extreme points (uniform marginals)."""
    n = cost.shape[0]
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i, perm[i]] for i in range(n)) / n
        if c < best_cost:
            best_cost = c
            best = perm
    plan = np.zeros_like(cost)
    for i in range(n):
        plan[i, best[i]] = 1.0 / n
    return plan, best_cost


class TestSinkhorn:
    def test_zero_cost_uniform(self):
        plan = sinkhorn(uniform_problem(np.zeros((2, 2)), lam=25.0)).plan
        assert np.allclose(plan, 0.25, atol=1e-12)

    def test_two_by_two_permutation_cost(self):
        # cost [[0,1],[1,0]]: symmetric scaling puts 0.5/(1+e^-25) on the
        # diagonal; off-diagonals are ~6.9e-12
        result = sinkhorn(uniform_problem([[0.0, 1.0], [1.0, 0.0]], lam=25.0))
        assert result.converged
        assert np.allclose(result.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-5)
        assert result.plan[0, 1] < 1e-5 and result.plan[1, 0] < 1e-5
        closed_form = 0.5 * math.exp(-25.0) / (1.0 + math.exp(-25.0))
        assert abs(result.plan[0, 1] - closed_form) < 1e-13

    def test_marginals_on_random_problems(self, rng):
        for _ in range(25):
            n, m = rng.integers(2, 9, size=2)
            prob = uniform_problem(rng.random((n, m)), lam=float(rng.uniform(5, 60)))
            result = sinkhorn(prob)
            assert result.converged
            assert np.abs(result.plan.sum(axis=1) - 1.0 / n).sum() <= 1e-9
            assert np.abs(result.plan.sum(axis=0) - 1.0 / m).sum() <= 1e-9
            assert result.marginal_error <= 1e-9

    def test_nonuniform_marginals(self, rng):
        cost = rng.random((4, 5))
        r = rng.random(4); r /= r.sum()
        c = rng.random(5); c /= c.sum()
        result = sinkhorn(TransportProblem(cost, r, c, 20.0))
        assert np.abs(result.plan.sum(axis=1) - r).sum() <= 1e-9
        assert np.abs(result.plan.sum(axis=0) - c).sum() <= 1e-9

    def test_plan_has_gibbs_scaling_structure(self, rng):
        # log(P) + lam*C must decompose as f_i + g_j: centering both axes
        # kills it exactly.
        cost = rng.random((5, 5))
        plan = sinkhorn(uniform_problem(cost, lam=10.0)).plan
        resid = np.log(plan) + 10.0 * cost
        centered = (resid - resid.mean(axis=1, keepdims=True)
                    - resid.mean(axis=0, keepdims=True) + resid.mean())
        assert np.abs(centered).max() < 1e-9

    def test_transpose_symmetry(self, rng):
        for _ in range(5):
            cost = rng.random((4, 6))
            p = sinkhorn(uniform_problem(cost, lam=30.0)).plan
            pt = sinkhorn(uniform_problem(cost.T, lam=30.0)).plan
            assert np.abs(p - pt.T).max() < 1e-9

    def test_matches_lp_at_high_lambda(self, rng):
        # entropic plans approach the LP vertex when the best permutation
        # wins by a clear margin
        done = 0
        while done < 5:
            cost = rng.random((3, 3))
            perm_plan, perm_cost = best_permutation_plan(cost)
            costs = sorted(
                sum(cost[i, p[i]] for i in range(3)) / 3.0
                for p in itertools.permutations(range(3))
            )
            if costs[1] - costs[0] < 0.05:
                continue  # near-degenerate LP; entropic limit mixes vertices
            plan = sinkhorn(uniform_problem(cost, lam=50.0)).plan
            lp_plan, lp_cost = lp_optimal_plan(cost, np.full(3, 1 / 3), np.full(3, 1 / 3))
            assert abs(lp_cost - perm_cost) < 1e-9  # two oracle routes agree
            tv = 0.5 * np.abs(plan - perm_plan).sum()
            assert tv < 1e-3 * max(1.0, 1.0)
            assert abs(float((plan * cost).sum()) - lp_cost) < 1e-3
            done += 1

    def test_large_lambda_cost_no_overflow(self, rng):
        cost = rng.random((4, 4)) * 10.0
        result = sinkhorn(uniform_problem(cost, lam=100.0))  # lam*cost up to 1e3
        assert np.isfinite(result.plan).all()
        assert result.converged
        assert result.marginal_error <= 1e-9

    def test_plan_cost_nonincreasing_in_lambda(self, rng):
        cost = rng.random((5, 4))
        transported = [
            float((sinkhorn(uniform_problem(cost, lam=lam)).plan * cost).sum())
            for lam in (1.0, 5.0, 25.0, 100.0)
        ]
        for lo, hi in zip(transported[1:], transported[:-1]):
            assert lo <= hi + 1e-12

    def test_not_converged_warning(self, rng, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_ITERS", 2)
        monkeypatch.setattr(transport, "_TOL", 1e-12)
        prob = uniform_problem(rng.random((6, 6)), lam=30.0)
        with pytest.warns(NotConvergedWarning):
            result = sinkhorn(prob)
        assert not result.converged
        assert result.iterations_used == 2
        assert isinstance(result, TransportPlan)

    @pytest.mark.parametrize("tol, warns", [(1e-9, True), (3e-9, False)])
    def test_warning_threshold_is_ten_tol(self, monkeypatch, tol, warns):
        # nine iterations stop at a marginal error of 1.8e-8: above 10 * 1e-9,
        # below 10 * 3e-9, and above both tolerances
        monkeypatch.setattr(transport, "_MAX_ITERS", 9)
        monkeypatch.setattr(transport, "_TOL", tol)
        cost = np.random.default_rng(0).random((6, 6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sinkhorn(uniform_problem(cost, lam=30.0))
        assert result.iterations_used == 9 and not result.converged
        assert 1.5e-8 < result.marginal_error < 2e-8
        assert [w.category for w in caught] == ([NotConvergedWarning] if warns else [])

    def test_stalled_sweeps_hand_over_to_newton(self):
        # plain sweeps alone are still at 3e-5 marginal error after 10,000
        # iterations here; Newton from the first stalled sweep needs a few steps
        result = sinkhorn(uniform_problem(hard_cost(), lam=25.0))
        assert result.converged
        assert result.iterations_used <= 30

    def test_fast_contraction_never_tries_newton(self, monkeypatch):
        counts = count_newton(monkeypatch)
        result = sinkhorn(uniform_problem(synth_cost(blob_std=0.03, modality_gap=0.3), lam=25.0))
        assert result.converged
        assert counts["calls"] == 0

    @pytest.mark.parametrize("swap", [False, True], ids=["v-r", "r-v"])
    def test_lambda_1000_hard_set_converges_in_both_orientations(self, swap):
        # conjugate gradient capped at dim(S) iterations and stopped at a
        # relative residual of min(0.1, error); an exact Schur solve took 533
        # (v, r) and 287 (r, v) iterations here, and a 2 * dim(S) cap ~290
        fv, fr, _ = hard_snapshot(num_ids=10, per_id_v=10, per_id_r=10)
        result = heterogeneous_plan(*((fr, fv) if swap else (fv, fr)), lam=1000.0)
        assert result.converged
        assert result.iterations_used <= 150

    def test_rejected_newton_backs_off(self, rng, monkeypatch):
        # at lam=1000 the line search fails often near the optimum; retrying
        # Newton on every sweep rejected it 222 times here
        counts = count_newton(monkeypatch)
        cost = pairwise_sq_dists(random_unit_rows(rng, 100, 32), random_unit_rows(rng, 100, 32))
        result = sinkhorn(uniform_problem(cost, lam=1000.0))
        assert result.converged
        assert counts["rejected"] <= 10

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(XmodError, match=r"^non-finite value in transport cost at \(0, 0\)$"):
            uniform_problem([[np.inf, 0.0], [0.0, 1.0]], lam=10.0)

    def test_bad_marginals_rejected(self, rng):
        cost = rng.random((3, 3))
        with pytest.raises(ValueError):
            TransportProblem(cost, np.array([0.5, 0.5, 0.5]), np.full(3, 1 / 3), 10.0)

    @pytest.mark.parametrize("entry", [0.0, -0.25])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_nonpositive_marginal_rejected(self, rng, side, entry):
        bad = np.array([0.5 - entry, 0.5, entry])  # still sums to 1
        uniform = np.full(3, 1 / 3)
        r, c = (bad, uniform) if side == "row" else (uniform, bad)
        with pytest.raises(ValueError, match="marginals must be positive"):
            TransportProblem(rng.random((3, 3)), r, c, 10.0)

    def test_problem_keeps_the_log_kernel_not_the_cost(self, rng):
        cost = rng.random((3, 4))
        problem = uniform_problem(cost, lam=7.0)
        assert not hasattr(problem, "cost")
        assert np.array_equal(problem.log_k, -7.0 * cost)


def hard_400_cost() -> np.ndarray:
    fv, fr, _ = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
    return pairwise_sq_dists(fv.data, fr.data)


def random_100_cost() -> np.ndarray:
    rng = np.random.default_rng(0)
    return pairwise_sq_dists(random_unit_rows(rng, 100, 32), random_unit_rows(rng, 100, 32))


class TestLambdaBound:
    """lam * max|cost| at 2**52 leaves the log-kernel no fractional bits."""

    def test_random_rows_at_lam_1e300_refused_naming_lam_and_cost(self):
        # this solve used to run its 10,000-iteration cap to a plan of mass 9.64
        rng = np.random.default_rng(5)
        a, b = random_unit_rows(rng, 30, 8), random_unit_rows(rng, 25, 8)
        top = pairwise_sq_dists(a, b).max()
        with pytest.raises(ValueError, match="2\\*\\*52") as info:
            heterogeneous_plan(a, b, 1e300)
        assert "1e+300" in str(info.value) and f"{top:g}" in str(info.value)

    @pytest.mark.parametrize("cost", [[[2.0, 0.5]], [[-2.0, 0.5]]], ids=["max", "negative"])
    def test_bound_is_on_the_largest_magnitude(self, cost):
        uniform_problem(cost, lam=2.0**50)
        with pytest.raises(ValueError, match="lam"):
            uniform_problem(cost, lam=2.0**51)

    def test_hard_set_at_lam_1e4_still_solves(self, monkeypatch):
        # the whole solve takes 8,208 iterations (~3 s); its first 40 are the
        # same, and the capped solve warns as before
        monkeypatch.setattr(transport, "_MAX_ITERS", 40)
        fv, fr, _ = hard_snapshot(num_ids=10, per_id_v=10, per_id_r=10)
        with pytest.warns(NotConvergedWarning):
            result = heterogeneous_plan(fv.data, fr.data, 1e4)
        assert result.iterations_used == 40
        assert np.isfinite(result.plan).all()
        assert result.marginal_error < 1.0


SOLVE_SETS = [
    pytest.param(lambda: synth_cost(blob_std=0.03, modality_gap=0.3), 25.0, False,
                 id="plain-sweeps"),
    pytest.param(hard_400_cost, 25.0, True, id="hard-400-newton"),
    pytest.param(random_100_cost, 1000.0, True, id="lambda-1000"),
]


def count_kernel_builds(monkeypatch) -> list:
    """Wrap transport._kernel; the returned list gets one entry per build."""
    builds = []
    kernel = transport._kernel

    def counting(*args):
        builds.append(None)
        return kernel(*args)

    monkeypatch.setattr(transport, "_kernel", counting)
    return builds


class TestOwnedBuffers:
    """The first sweep written into the kernel's buffer and the Newton plans
    written into one owned buffer give the bits of the loop that allocates
    each of them."""

    @pytest.mark.parametrize("cost, lam, newton", SOLVE_SETS)
    def test_matches_allocating_loop_bitwise(self, monkeypatch, cost, lam, newton):
        problem = uniform_problem(cost(), lam=lam)
        counts = count_newton(monkeypatch)
        got = sinkhorn(problem)
        want = sinkhorn_allocating(problem)
        assert (counts["calls"] > 0) == newton
        assert got.converged and want.converged
        assert got.iterations_used == want.iterations_used
        assert got.marginal_error == want.marginal_error
        for name in ("kernel", "u", "v"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_newton_flushes_subnormals_that_the_returned_plan_keeps(self, monkeypatch):
        problem = uniform_problem(random_100_cost(), lam=1000.0)
        tiny = np.finfo(np.float64).tiny
        flushed = []
        direction = transport._newton_direction

        def recording(plan, *args):
            had = ((plan > 0.0) & (plan < tiny)).sum()
            out = direction(plan, *args)
            flushed.append((had, ((plan > 0.0) & (plan < tiny)).sum()))
            return out

        monkeypatch.setattr(transport, "_newton_direction", recording)
        result = sinkhorn(problem)
        assert flushed[0][0] > 0
        assert all(after == 0 for _, after in flushed)
        assert ((result.plan > 0.0) & (result.plan < tiny)).any()


class TestScalingForm:
    """The scaling-domain solve against the log-domain loop it replaced, its
    absorption of the scalings into the kernel, and what it holds."""

    @pytest.mark.parametrize("cost, lam, newton", SOLVE_SETS[:2])
    def test_plan_matches_the_log_domain_reference(self, cost, lam, newton):
        problem = uniform_problem(cost(), lam=lam)
        got = sinkhorn(problem)
        want = sinkhorn_log_domain(problem)
        assert got.converged and want.converged
        assert got.iterations_used == want.iterations_used
        assert np.abs(got.plan - want.plan).max() <= 1e-12 * want.plan.max()

    def test_lambda_1000_plan_meets_the_log_domain_reference_within_tolerance(self):
        # Here the plan's support nearly splits into blocks and the Newton
        # directions reach norms of 1e9-1e11, so rounding decides which line
        # searches pass and the two loops take different steps to the same
        # optimum: 105 and 159 iterations, 1.2e-9 apart in L1.
        problem = uniform_problem(random_100_cost(), lam=1000.0)
        got = sinkhorn(problem)
        want = sinkhorn_log_domain(problem)
        assert got.converged and want.converged
        assert np.abs(got.plan - want.plan).sum() <= 10.0 * transport._TOL

    def test_lambda_1e4_absorbs_and_rebuilds_the_kernel_once_per_absorption(self, monkeypatch):
        # the log-domain loop needs the same 8,208 iterations here, in ~10x the time
        fv, fr, _ = hard_snapshot(num_ids=10, per_id_v=10, per_id_r=10)
        problem = uniform_problem(pairwise_sq_dists(fv.data, fr.data), lam=1e4)
        builds, scalings = count_kernel_builds(monkeypatch), []
        absorb = transport._absorb

        def recording(f, g, u, v, *args):
            scalings.append((u.min(), u.max(), v.min(), v.max()))
            return absorb(f, g, u, v, *args)

        monkeypatch.setattr(transport, "_absorb", recording)
        result = sinkhorn(problem)
        assert result.converged and result.marginal_error < 1e-9
        plan = result.plan
        assert np.abs(plan.sum(axis=1) - problem.row_marginal).sum() < 1e-9
        assert np.abs(plan.sum(axis=0) - problem.col_marginal).sum() < 1e-9
        assert len(scalings) >= 1
        assert len(builds) == 1 + len(scalings)
        assert all(min(lo_u, lo_v) < 1e-50 or max(hi_u, hi_v) > 1e50
                   for lo_u, hi_u, lo_v, hi_v in scalings)

    @pytest.mark.parametrize("swap", [False, True], ids=["random", "hard-r-v"])
    def test_rejected_line_search_builds_no_kernel(self, monkeypatch, swap):
        # each rejected step used to spend 27 full-plan exps on its trials
        if swap:
            fv, fr, _ = hard_snapshot(num_ids=10, per_id_v=10, per_id_r=10)
            cost = pairwise_sq_dists(fr.data, fv.data)
        else:
            cost = random_100_cost()
        builds = count_kernel_builds(monkeypatch)
        rejected = []  # kernel builds during each rejected step
        step = transport._newton_step

        def recording(*args):
            before = len(builds)
            out = step(*args)
            if out is None:
                rejected.append(len(builds) - before)
            return out

        monkeypatch.setattr(transport, "_newton_step", recording)
        assert sinkhorn(uniform_problem(cost, lam=1000.0)).converged
        assert rejected and not any(rejected)

    @pytest.mark.parametrize("newton, arrays", [(False, 1), (True, 2)], ids=["plain", "newton"])
    def test_solve_holds_one_array_and_a_second_for_newton(self, monkeypatch, newton, arrays):
        # beyond log_k: the kernel, and the Newton plan; each build flushes
        # its subnormals through a one-byte mask. The log-domain loop held
        # two float64 arrays with or without Newton.
        if newton:
            cost = hard_400_cost()
        else:
            fv, fr, _ = generate(SynthSpec(num_ids=20, per_id_v=20, per_id_r=20, dim=32,
                                           blob_std=0.03, modality_gap=0.3, seed=3))
            cost = pairwise_sq_dists(fv.data, fr.data)
        problem = uniform_problem(cost, lam=25.0)
        counts = count_newton(monkeypatch)
        tracemalloc.start()
        try:
            result = sinkhorn(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and (counts["calls"] > 0) == newton
        assert peak < (arrays + 0.25) * problem.log_k.nbytes


class TestNewtonStep:
    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (12, 12)], ids=["n>m", "n<m", "n=m"])
    def test_direction_matches_dense_hessian_oracle(self, rng, shape):
        n, m = shape
        plan = rng.random(shape)
        plan /= 1.3 * plan.sum()  # off both marginals, so the residual is nonzero
        r = np.full(n, 1.0 / n)
        c = np.full(m, 1.0 / m)
        want = newton_direction_dense(plan, r, c)
        # forcing 0 switches the inexact-Newton truncation off, so conjugate
        # gradient runs its dim(S) iterations
        got = transport._newton_direction(plan, plan.sum(axis=1), plan.sum(axis=0), r, c, 0.0)
        # the 1e-12 ridge pins the null direction only to rounding / ridge,
        # so each solver may land anywhere along it by ~1e-5
        got, want = shift_free(*got), shift_free(*want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("groups", ["random", "singletons"])
    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (12, 12)], ids=["n>m", "n<m", "n=m"])
    def test_grouped_direction_matches_dense_hessian_oracle(self, rng, shape, groups):
        n, m = shape
        plan = rng.random(shape)
        plan /= 1.3 * plan.sum()
        r = np.full(n, 1.0 / n)
        c = np.full(m, 1.0 / m)
        want = newton_direction_dense(plan, r, c)
        if groups == "random":
            row_groups, col_groups = rng.integers(0, 3, size=n), rng.integers(0, 3, size=m)
        else:
            row_groups, col_groups = np.arange(n), np.arange(m)
        got = transport._newton_direction(plan, plan.sum(axis=1), plan.sum(axis=0), r, c, 0.0,
                                          transport._group_index(row_groups, n, "row"),
                                          transport._group_index(col_groups, m, "column"))
        got, want = shift_free(*got), shift_free(*want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_cluster_groups_cut_the_hard_plan_solves_cg_threefold(self, monkeypatch):
        # 400 + 400 hard rows grouped by identity: 47 S products over the 7
        # Newton directions, where the diagonal CG takes 230
        fv, fr, gt = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        totals = []
        for groups in ((None, None), (gt.ids_v, gt.ids_r)):
            counts = record_cg_iterations(monkeypatch)
            assert heterogeneous_plan(fv, fr, 25.0, *groups).converged
            totals.append(sum(counts))
        assert totals[0] > 0
        assert 3 * totals[1] <= totals[0]

    def test_otla_directions_take_one_s_product(self, monkeypatch):
        # singleton prototype groups: E = S, so the coarse start solves the
        # K-unknown system and CG stops at its first residual check
        fv, fr, gt = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        protos = np.stack([fv.data[gt.ids_v == i].mean(axis=0) for i in range(20)])
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        counts = record_cg_iterations(monkeypatch)
        otla_init(fr, MemoryBank(protos), lam=25.0)
        assert counts and max(counts) == 1

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_groups_of_another_length_are_refused_before_the_cost(self, rng, side):
        a, b = random_unit_rows(rng, 1500, 8), random_unit_rows(rng, 1000, 8)
        groups = {"row_groups": None, "col_groups": None}
        groups[f"{side}_groups"] = np.zeros(999, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(XmodError, match="groups must be"):
                heterogeneous_plan(a, b, 25.0, **groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * 1500 * 1000

    def test_otla_init_solves_k_by_k_systems(self, monkeypatch):
        fv, fr, gt = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        protos = np.stack([fv.data[gt.ids_v == i].mean(axis=0) for i in range(20)])
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        dims = record_cg_dims(monkeypatch)
        otla_init(fr, MemoryBank(protos), lam=25.0)
        assert dims
        assert max(dims) <= 20

    def test_unequal_sides_solve_the_shorter_side(self, monkeypatch):
        fv, fr, _ = hard_snapshot(num_ids=5, per_id_v=6, per_id_r=10)
        dims = record_cg_dims(monkeypatch)
        result = heterogeneous_plan(fv, fr, lam=25.0)
        assert result.plan.shape == (30, 50) and result.converged
        assert dims
        assert max(dims) <= 30

    def test_hard_solve_peak_memory_stays_near_the_plan(self, monkeypatch):
        fv, fr, _ = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        problem = uniform_problem(pairwise_sq_dists(fv.data, fr.data), lam=25.0)
        counts = count_newton(monkeypatch)
        tracemalloc.start()
        try:
            result = sinkhorn(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and counts["calls"] > 0
        assert peak < 8 * result.plan.nbytes

    def test_hard_plan_frees_the_cost_before_the_solve(self, monkeypatch):
        # log_k, the kernel and the Newton plan peak at ~3.16 plans; a cost
        # kept alive through the solve would add a fourth, and a Newton step
        # that forms the Schur matrix peaked at 4.04
        fv, fr, _ = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        counts = count_newton(monkeypatch)
        tracemalloc.start()
        try:
            result = heterogeneous_plan(fv, fr, lam=25.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and counts["calls"] > 0
        assert peak < 3.5 * result.plan.nbytes


    def test_hard_affinity_normalizes_in_the_plans_arrays(self, monkeypatch):
        # the solve peaks at ~3.16 float64 plans; afterwards each float32
        # factor is written from the kernel a row block at a time, where a
        # new float64 array for each output took the stage to 4.01
        fv, fr, _ = hard_snapshot(num_ids=20, per_id_v=20, per_id_r=20)
        counts = count_newton(monkeypatch)
        tracemalloc.start()
        try:
            s_vr, s_rv = heterogeneous_affinity(fv, fr, lam=25.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts["calls"] > 0 and s_vr.shape == s_rv.T.shape
        assert s_vr.dtype == s_rv.dtype == np.float32
        assert peak < 3.5 * 8 * s_vr.size

class TestHeterogeneousAffinity:
    def test_single_cell(self, rng):
        f = random_unit_rows(rng, 1, 4)
        s_vr, s_rv = heterogeneous_affinity(f, f, lam=25.0)
        assert s_vr.tolist() == [[1.0]]
        assert s_rv.tolist() == [[1.0]]

    def test_identical_orthonormal_points_give_identity(self):
        f = np.eye(2)
        s_vr, s_rv = heterogeneous_affinity(f, f, lam=25.0)
        assert np.allclose(s_vr, np.eye(2), atol=1e-4)
        assert np.allclose(s_rv, np.eye(2), atol=1e-4)

    def test_pre_normalization_marginals(self, rng):
        fv = random_unit_rows(rng, 37, 8)
        fr = random_unit_rows(rng, 23, 8)
        plan = heterogeneous_plan(fv, fr, lam=25.0).plan
        assert np.abs(plan.sum(axis=1) - 1.0 / 37).max() < 1e-8
        assert np.abs(plan.sum(axis=0) - 1.0 / 23).max() < 1e-8

    def test_row_normalized_outputs(self, rng):
        fv = random_unit_rows(rng, 12, 6)
        fr = random_unit_rows(rng, 9, 6)
        s_vr, s_rv = heterogeneous_affinity(fv, fr, lam=25.0)
        assert s_vr.shape == (12, 9)
        assert s_rv.shape == (9, 12)
        assert np.allclose(s_vr.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(s_rv.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_a, n_b", [(9, 12), (12, 9), (10, 10)],
                             ids=["fewer-rows", "more-rows", "equal-rows"])
    def test_swapped_arguments_swap_outputs_bitwise(self, rng, n_a, n_b):
        # lam = 200 on 40 dims is sharp enough that a plan solved with the
        # other set on its rows differs in bits
        fa = random_unit_rows(rng, n_a, 40)
        fb = random_unit_rows(rng, n_b, 40)
        s_ab, s_ba = heterogeneous_affinity(fa, fb, lam=200.0)
        t_ba, t_ab = heterogeneous_affinity(fb, fa, lam=200.0)
        assert np.array_equal(s_ab, t_ab) and np.array_equal(s_ba, t_ba)
        assert s_ab.shape == (n_a, n_b) and s_ba.shape == (n_b, n_a)

    def test_byte_identical_sets_share_one_output(self, rng):
        f = random_unit_rows(rng, 15, 40)
        s_ab, s_ba = heterogeneous_affinity(f, f.copy(), lam=200.0)
        assert s_ab is s_ba
        t_ab, t_ba = heterogeneous_affinity(f.copy(), f, lam=200.0)
        assert t_ab is t_ba and np.array_equal(s_ab, t_ab)


class TestOtlaInit:
    def test_single_everything(self, rng):
        f = random_unit_rows(rng, 3, 4)
        bank = MemoryBank(random_unit_rows(rng, 1, 4))
        labels = otla_init(f, bank, lam=25.0)
        assert np.allclose(labels.probs, 1.0)

    def test_rows_one_hot(self, rng):
        f = random_unit_rows(rng, 10, 5)
        bank = MemoryBank(random_unit_rows(rng, 3, 5))
        probs = otla_init(f, bank, lam=25.0).probs
        assert set(np.unique(probs)) <= {0.0, 1.0}
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_tight_pairs_go_to_nearest_prototype(self):
        protos = np.eye(2)
        pts = np.array([
            [0.999, 0.001], [0.998, 0.002],   # near prototype 0
            [0.001, 0.999], [0.002, 0.998],   # near prototype 1
        ])
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        bank = MemoryBank(protos)
        hard = np.argmax(otla_init(pts, bank, lam=25.0).probs, axis=1)
        assert hard.tolist() == [0, 0, 1, 1]

    def test_far_prototype_still_fills_up(self, rng):
        # 6 instances all closer to prototype 0 than to the antipodal
        # prototype 1; nearest-prototype hands all 6 to cluster 0, while the
        # balanced column marginal forces a 3/3 split.
        from xmod.core import pairwise_sq_dists

        base = np.array([1.0, 0.0, 0.0])
        pts = random_unit_rows(rng, 6, 3) * 0.4 + base
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        protos = np.stack([base, np.array([-1.0, 0.0, 0.0])])
        cost = pairwise_sq_dists(pts, protos)
        assert np.bincount(np.argmin(cost, axis=1), minlength=2).tolist() == [6, 0]
        bank = MemoryBank(protos)
        hard = np.argmax(otla_init(pts, bank, lam=25.0).probs, axis=1)
        assert np.bincount(hard, minlength=2).tolist() == [3, 3]

    def test_matches_plan_argmax_oracle(self, rng):
        # dual route: rebuild the instance-to-prototype problem by hand and
        # compare against the packaged init, bit for bit
        from xmod.core import pairwise_sq_dists

        for _ in range(5):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(2, 6))
            f = random_unit_rows(rng, n, 6)
            protos = random_unit_rows(rng, k, 6)
            bank = MemoryBank(protos)
            got = otla_init(f, bank, lam=25.0).probs
            prob = TransportProblem(
                pairwise_sq_dists(f, protos), np.full(n, 1.0 / n),
                np.full(k, 1.0 / k), 25.0)
            expect = np.zeros((n, k))
            expect[np.arange(n), np.argmax(sinkhorn(prob).plan, axis=1)] = 1.0
            assert np.array_equal(got, expect)
