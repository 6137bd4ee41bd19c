"""The benchmark's traced run wraps xmod functions by module attribute
(``xbench/layers.py``), and its runner calls the library directly. A renamed
or deleted attribute, or a changed call, would only break the benchmark, so
check here that every hooked name still resolves and that a tiny run of each
kind of workload passes the benchmark's own checks against this source."""
import importlib
import sys
from pathlib import Path

import pytest

from xmod.synth import GapMode

BENCH = Path(__file__).resolve().parents[1] / "xbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's layers, runner and workloads modules."""
    sys.path.insert(0, str(BENCH))
    try:
        return {name: importlib.import_module(name) for name in ("layers", "runner", "workloads")}
    finally:
        sys.path.remove(str(BENCH))


def test_every_hook_target_is_callable(bench):
    hooks = bench["layers"].HOOKS
    assert hooks
    missing = [f"{h.module}.{h.attr}" for h in hooks
               if not callable(getattr(importlib.import_module(h.module), h.attr, None))]
    assert missing == []


# A per-layer count of zero means a call no longer goes through its hooked name.
CALLED = ("clustering.dbscan_calls", "transport.sinkhorn_calls",
          "affinity.homogeneous_calls", "losses.batches")


@pytest.mark.parametrize("kind", ["epoch", "cli"])
def test_a_tiny_traced_run_passes_the_benchmarks_checks(bench, kind, tmp_path):
    workload = bench["workloads"].Workload(f"tiny-{kind}", kind, dict(
        num_ids=4, per_id_v=6, per_id_r=6, dim=16, blob_std=0.03, modality_gap=0.3,
        gap_mode=GapMode.SHARED_OFFSET))
    runner = bench["runner"].Runner(workload, seed=1, seconds=0, workdir=str(tmp_path))
    runner.set_up()
    metrics, *_ = bench["runner"].per_layer(runner)
    assert runner.failed == 0, runner.problems
    assert runner.attempted > len(runner.pool)
    assert all(metrics[name][0] >= 1 for name in CALLED), {n: metrics[n][0] for n in CALLED}
