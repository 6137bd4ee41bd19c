"""Ten end-to-end guarantees, each reported as a single PASS/FAIL line.

Every test here checks one shipped behavior at its advertised tolerance and
funnels the verdict through record_criterion, so the terminal summary ends
with one line per guarantee. Expected values come from exhaustive enumeration
or from the independent reimplementations in oracles.py, never from the
library itself.
"""

import itertools
import json
import shutil
import time

import numpy as np
import pytest

import oracles
from conftest import one_way_affinities, one_way_anchors, record_criterion, random_unit_rows

from xmod.affinity import homogeneous_affinity, row_normalize
from xmod.baselines import associate_greedy_centroid, associate_otla_only
from xmod.cli import main as cli_main
from xmod.clustering import ClusterAssignment, MemoryBank, centroids, dbscan
from xmod.core import NOISE, PipelineConfig, SoftLabelMatrix, XmodError
from xmod.losses import ModeBanks, TrainingMode, loss_report, soft_cross_entropy
from xmod.metrics import GroundTruth, MetricsReport, full_report, report_from_hard
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import (
    DirectionAffinities,
    inconsistency,
    init_labels,
    mult_associate,
    run_transfer,
)
from xmod.transport import (
    TransportProblem,
    heterogeneous_affinity,
    heterogeneous_plan,
    otla_init,
    sinkhorn,
)


def _soft_rows(rng, n, k):
    a = rng.random((n, k)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def test_transport_marginals_and_assignment_recovery():
    rng = np.random.default_rng(101)
    start = time.perf_counter()

    worst_marginal = 0.0
    for i in range(100):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        cost = rng.random((n, m))
        if i % 2 == 0:
            r = np.full(n, 1.0 / n)
            c = np.full(m, 1.0 / m)
        else:
            r = rng.random(n) + 0.1
            r /= r.sum()
            c = rng.random(m) + 0.1
            c /= c.sum()
        plan = sinkhorn(TransportProblem(cost, r, c, 25.0)).plan
        err = max(
            float(np.abs(plan.sum(axis=1) - r).sum()),
            float(np.abs(plan.sum(axis=0) - c).sum()),
        )
        worst_marginal = max(worst_marginal, err)

    # With uniform marginals the exact optimum sits on a permutation vertex of
    # the Birkhoff polytope, so the brute force solver is a minimum over the
    # six 3x3 permutations. Near-ties are resampled: when two vertices cost
    # almost the same, the sharply regularized optimum genuinely mixes them
    # and no solver would (or should) land within tolerance of either one.
    worst_tv = 0.0
    worst_cost_gap = 0.0
    checked = 0
    draws = 0
    uniform = np.full(3, 1.0 / 3.0)
    perms = list(itertools.permutations(range(3)))
    while checked < 20 and draws < 10_000:
        draws += 1
        cost = rng.random((3, 3))
        mean_costs = sorted(
            sum(cost[i, p[i]] for i in range(3)) / 3.0 for p in perms
        )
        if mean_costs[1] - mean_costs[0] < 0.2:
            continue
        checked += 1
        best = min(perms, key=lambda p: sum(cost[i, p[i]] for i in range(3)))
        vertex = np.zeros((3, 3))
        vertex[np.arange(3), best] = 1.0 / 3.0
        plan = sinkhorn(TransportProblem(cost, uniform, uniform, 50.0)).plan
        worst_tv = max(worst_tv, 0.5 * float(np.abs(plan - vertex).sum()))
        worst_cost_gap = max(
            worst_cost_gap, abs(float((plan * cost).sum()) - mean_costs[0])
        )
    elapsed = time.perf_counter() - start

    ok = (
        checked == 20
        and worst_marginal <= 1e-9
        and worst_tv <= 1e-3
        and worst_cost_gap <= 1e-3
        and elapsed < 5.0
    )
    record_criterion(
        1,
        "transport marginals and assignment recovery",
        ok,
        f"marginal L1 {worst_marginal:.1e}, vertex TV {worst_tv:.1e}, "
        f"cost gap {worst_cost_gap:.1e}, {elapsed:.2f}s",
    )


def test_balanced_coupling_at_scale():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n_v, n_r in ((13, 7), (50, 81), (200, 137), (500, 341), (29, 500)):
        f_v = random_unit_rows(rng, n_v, 24)
        f_r = random_unit_rows(rng, n_r, 24)
        plan = heterogeneous_plan(f_v, f_r, 25.0).plan
        worst = max(
            worst,
            float(np.abs(plan.sum(axis=1) - 1.0 / n_v).max()),
            float(np.abs(plan.sum(axis=0) - 1.0 / n_r).max()),
        )
    record_criterion(
        2,
        "coupling rows/columns carry equal total affinity",
        worst <= 1e-8,
        f"worst marginal deviation {worst:.1e} up to 500 instances",
    )


@pytest.fixture(scope="module")
def transfer_family():
    """Fifty randomized transfer problems in the regime the smoothing graph
    assumes: blob clusters wider than the reciprocal-neighbor count, moderate
    modality gaps, ground-truth source clusters. Sizes, spreads and gaps are
    drawn fresh per seed; nothing is tuned per instance."""
    runs = []
    for seed in range(50):
        knobs = np.random.default_rng(1000 + seed)
        ids = int(knobs.integers(3, 11))
        per_cap = min(20, 200 // ids)
        spec = SynthSpec(
            num_ids=ids,
            per_id_v=int(knobs.integers(8, per_cap + 1)),
            per_id_r=int(knobs.integers(8, per_cap + 1)),
            dim=16,
            blob_std=float(knobs.uniform(0.02, 0.04)),
            modality_gap=float(knobs.uniform(0.1, 0.6)),
            gap_mode=GapMode.SHARED_OFFSET if seed % 2 == 0 else GapMode.PER_ID_OFFSET,
            seed=seed,
        )
        f_v, f_r, gt = generate(spec)
        if seed % 2 == 0:
            f_src, f_tgt, gt_src = f_v.data, f_r.data, gt.ids_v
        else:
            f_src, f_tgt, gt_src = f_r.data, f_v.data, gt.ids_r
        cfg = PipelineConfig(
            kappa=6, ot_lambda=20.0, epsilon0=1e-6, max_transfer_iters=10_000
        )
        he_st, he_ts = heterogeneous_affinity(f_src, f_tgt, cfg.ot_lambda)
        aff = one_way_affinities(
            homogeneous_affinity(f_src, cfg.kappa),
            homogeneous_affinity(f_tgt, cfg.kappa),
            he_st,
            he_ts,
        )
        state = init_labels(f_src, f_tgt, ClusterAssignment(gt_src, ids), cfg)
        anchors = one_way_anchors(state, aff, cfg.alpha)
        t0 = inconsistency(state, aff, cfg.alpha)["weighted_total"]
        final_state = run_transfer(state, aff, cfg, anchors)
        final = inconsistency(final_state, aff, cfg.alpha)["weighted_total"]

        # (steps, float64 loop's steps) at this ε0 and at the default one; the
        # float64 loop runs over float64 plan factors
        plan = heterogeneous_plan(f_src, f_tgt, cfg.ot_lambda).plan
        he_ts64 = row_normalize(plan.T.copy())
        exact = DirectionAffinities(aff.ho_src, aff.ho_tgt, row_normalize(plan), he_ts64,
                                    a_st=aff.a_st, a_ts=aff.a_ts)
        steps = {}
        for run_cfg in (cfg, PipelineConfig(kappa=6, ot_lambda=20.0)):
            got = final_state if run_cfg is cfg else run_transfer(state, aff, run_cfg, anchors)
            steps[run_cfg.epsilon0] = (got.t, oracles.transfer_steps(state, exact, run_cfg)[0].t)

        a = cfg.alpha
        res_src = (
            2.0 * a * (final_state.intra - final_state.intra0)
            + 2.0 * (1.0 - a) * (final_state.intra - aff.he_st @ final_state.cross)
            + 2.0 * (final_state.intra - aff.ho_src @ final_state.intra)
        )
        res_tgt = (
            2.0 * a * (final_state.cross - final_state.cross0)
            + 2.0 * (1.0 - a) * (final_state.cross - aff.he_ts @ final_state.intra)
            + 2.0 * (final_state.cross - aff.ho_tgt @ final_state.cross)
        )
        runs.append(
            {
                "seed": seed,
                "residual": max(
                    float(np.abs(res_src).max()), float(np.abs(res_tgt).max())
                ),
                "t0": t0,
                "final": final,
                "cap_hit": final_state.cap_hit,
                "steps": steps,
            }
        )
    return runs


def test_transfer_reaches_stationarity(transfer_family):
    worst = max(run["residual"] for run in transfer_family)
    caps = sum(run["cap_hit"] for run in transfer_family)
    ok = worst <= 1e-4 and caps == 0
    record_criterion(
        3,
        "transfer converges to a stationary point",
        ok,
        f"worst per-entry residual {worst:.1e} over 50 instances, "
        f"{caps} iteration-cap hits",
    )


def test_transfer_never_increases_inconsistency(transfer_family):
    failures = [r["seed"] for r in transfer_family if r["final"] > r["t0"]]
    margin = min(r["t0"] - r["final"] for r in transfer_family)
    record_criterion(
        4,
        "final inconsistency never exceeds the initial one",
        not failures,
        f"descent on {50 - len(failures)}/50 instances, "
        f"smallest margin {margin:.1e}",
    )


def test_transfer_stops_where_the_float64_loop_does(transfer_family):
    # the float32 operator moves no stop of the float64 loop, at the
    # family's ε0 or at the default one
    moved = [(r["seed"], epsilon0, steps) for r in transfer_family
             for epsilon0, steps in r["steps"].items() if steps[0] != steps[1]]
    assert moved == []


def test_soft_labels_stay_row_stochastic():
    try:
        SoftLabelMatrix(np.array([[0.7, 0.31], [0.5, 0.5]]))
        guard_ok = False
    except XmodError as exc:
        guard_ok = str(exc) == "label row 0 sums to 1.010000000, expected 1"

    worst = 0.0
    count = 0
    for seed, gap in ((3, 0.0), (8, 0.4)):
        spec = SynthSpec(
            num_ids=5, per_id_v=10, per_id_r=10, dim=16,
            blob_std=0.03, modality_gap=gap, seed=seed,
        )
        f_v, f_r, gt = generate(spec)
        a_v = ClusterAssignment(gt.ids_v, 5)
        a_r = ClusterAssignment(gt.ids_r, 5)
        cfg = PipelineConfig(kappa=6, epsilon0=1e-4, max_transfer_iters=500)
        emitted = []
        for associate in (mult_associate, associate_otla_only, associate_greedy_centroid):
            result = associate(f_v.data, f_r.data, a_v, a_r, cfg)
            emitted += [
                result.intra_v.labels,
                result.cross_r.labels,
                result.intra_r.labels,
                result.cross_v.labels,
            ]
        bank = centroids(f_v.data, a_v)
        emitted.append(otla_init(f_r.data, bank, cfg.ot_lambda))
        for matrix in emitted:
            count += 1
            worst = max(worst, float(np.abs(matrix.probs.sum(axis=1) - 1.0).max()))

    ok = guard_ok and worst <= 1e-6
    record_criterion(
        5,
        "every emitted label row sums to one",
        ok,
        f"constructor rejects off-sum rows; worst |row sum - 1| {worst:.1e} "
        f"across {count} emitted matrices",
    )


def _benchmark_instance(seed, gap):
    spec = SynthSpec(
        num_ids=10, per_id_v=20, per_id_r=20, dim=32,
        blob_std=0.05, modality_gap=gap, seed=seed,
    )
    f_v, f_r, gt = generate(spec)
    cfg = PipelineConfig(kappa=10)
    a_v = dbscan(f_v.data, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    a_r = dbscan(f_r.data, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    scores = {}
    for name, associate in (
        ("mult", mult_associate),
        ("otla", associate_otla_only),
        ("greedy", associate_greedy_centroid),
    ):
        result = associate(f_v.data, f_r.data, a_v, a_r, cfg)
        scores[name] = full_report(result, gt)
    return scores


def test_engine_beats_baselines_on_benchmark():
    start = time.perf_counter()
    details = []
    ok = True
    for gap in (0.3, 0.6):
        mult_acc, otla_acc, greedy_acc = [], [], []
        for seed in range(10):
            scores = _benchmark_instance(seed, gap)
            mult_acc.append(scores["mult"].cross_acc_v)
            otla_acc.append(scores["otla"].cross_acc_v)
            greedy_acc.append(scores["greedy"].cross_acc_v)
        wins = sum(m >= o for m, o in zip(mult_acc, otla_acc))
        mult_mean = float(np.mean(mult_acc))
        greedy_mean = float(np.mean(greedy_acc))
        ok = ok and wins >= 8 and mult_mean >= greedy_mean
        details.append(
            f"gap {gap}: {wins}/10 seeds at or above otla, "
            f"mean {mult_mean:.3f} vs greedy {greedy_mean:.3f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    record_criterion(
        6,
        "engine matches or beats both baselines",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_zero_gap_gives_perfect_metrics():
    ok = True
    for seed in (0, 1):
        scores = _benchmark_instance(seed, 0.0)
        for report in scores.values():
            for name in MetricsReport.NAMES:
                ok = ok and getattr(report, name) == 1.0
    record_criterion(
        7,
        "no modality gap means every metric is exactly 1.0",
        ok,
        "2 seeds x 3 methods x 8 metrics",
    )


def test_metrics_match_brute_force():
    rng = np.random.default_rng(808)
    worst = 0.0
    none_ok = True

    def noisy_labels(n, k):
        labels = rng.integers(0, k, n)
        labels[rng.random(n) < 0.15] = NOISE
        return labels

    for _ in range(20):
        n_v = int(rng.integers(5, 51))
        n_r = int(rng.integers(5, 51))
        k_v = int(rng.integers(2, 7))
        k_r = int(rng.integers(2, 7))
        gt = GroundTruth(rng.integers(0, 5, n_v), rng.integers(0, 5, n_r))
        hard = {"intra_v": noisy_labels(n_v, k_v), "cross_r": noisy_labels(n_r, k_v),
                "intra_r": noisy_labels(n_r, k_r), "cross_v": noisy_labels(n_v, k_r)}
        for include_self in (True, False):
            got = report_from_hard(hard, gt, include_self)
            want = oracles.metrics_report_oracle(hard, gt, include_self)
            for name, expected in zip(MetricsReport.NAMES, want):
                actual = getattr(got, name)
                if actual is None or expected is None:
                    none_ok = none_ok and actual is None and expected is None
                else:
                    worst = max(worst, abs(actual - expected))

    ok = none_ok and worst <= 1e-12
    record_criterion(
        8,
        "pair metrics equal the quadratic brute force",
        ok,
        f"worst deviation {worst:.1e} over 20 instances, both self conventions",
    )


def test_losses_match_term_oracle():
    rng = np.random.default_rng(909)
    b, d, k_v, k_r = 8, 16, 4, 3
    worst = 0.0
    for i in range(8):
        mode = TrainingMode.V_BASED if i % 2 == 0 else TrainingMode.R_BASED
        batch = (
            random_unit_rows(rng, b, d),
            random_unit_rows(rng, b, d),
            {"intra_v": _soft_rows(rng, b, k_v), "intra_r": _soft_rows(rng, b, k_r),
             "cross_v": _soft_rows(rng, b, k_r), "cross_r": _soft_rows(rng, b, k_v)},
        )
        src_k = k_v if mode is TrainingMode.V_BASED else k_r
        banks = ModeBanks(
            mode=mode,
            intra_v=MemoryBank(random_unit_rows(rng, k_v, d)),
            intra_r=MemoryBank(random_unit_rows(rng, k_r, d)),
            shared=MemoryBank(random_unit_rows(rng, src_k, d)),
            intra_cross=MemoryBank(random_unit_rows(rng, src_k, d)),
        )
        report = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
        want = oracles.loss_report_oracle(batch, banks, 0.05, 5.0)
        got = (
            report.l_im_v, report.l_im_r, report.l_cm,
            report.l_oclr_v, report.l_oclr_r,
        )
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        worst = max(worst, abs(report.total - sum(want)))

    # Cross-entropy against any other distribution is at least the target's
    # own entropy (Gibbs' inequality), checked on a thousand random pairs.
    p = _soft_rows(rng, 1000, 6)
    q = _soft_rows(rng, 1000, 6)
    gibbs_violation = float(
        (soft_cross_entropy(p, p) - soft_cross_entropy(q, p)).max()
    )

    ok = worst <= 1e-9 and gibbs_violation <= 1e-12
    record_criterion(
        9,
        "loss components equal the term-by-term oracle",
        ok,
        f"worst component gap {worst:.1e} over 8 batches; "
        f"largest Gibbs violation {gibbs_violation:.1e} over 1000 pairs",
    )


def test_trace_reruns_are_byte_identical(tmp_path):
    config = {
        "kappa": 8,
        "dbscan_min_samples": 3,
        "epsilon0": 1e-4,
        "max_transfer_iters": 500,
        "batch_size": 16,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    gt_path = None
    for epoch, gap in enumerate(("0.5", "0.25")):
        out_dir = tmp_path / f"stage{epoch}"
        rc = cli_main(
            [
                "synth", "--ids", "4", "--per-id-v", "10", "--per-id-r", "10",
                "--dim", "16", "--std", "0.03", "--gap", gap,
                "--seed", "9", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        for modality in ("visible", "infrared"):
            shutil.copy(
                out_dir / f"{modality}.mfv1",
                snaps / f"epoch{epoch:03d}_{modality}.mfv1",
            )
        gt_path = out_dir / "ground_truth.csv"

    base = [
        "pipeline", "--snapshots", str(snaps), "--gt", str(gt_path),
        "--config", str(config_path),
    ]
    rc_1 = cli_main(base + ["--out", str(tmp_path / "trace_1.csv")])
    rc_2 = cli_main(base + ["--out", str(tmp_path / "trace_2.csv")])
    first = (tmp_path / "trace_1.csv").read_bytes()
    second = (tmp_path / "trace_2.csv").read_bytes()
    rows = first.count(b"\n") - 1

    ok = rc_1 == 0 and rc_2 == 0 and first == second and first.startswith(b"epoch,")
    record_criterion(
        10,
        "epoch traces are byte-identical across reruns",
        ok,
        f"{rows} data rows, {len(first)} bytes",
    )
