"""Tests of the benchmark itself: run with ``python3 -m pytest xbench/tests``."""
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, covered, installed, self_times  # noqa: E402
from xmod.core import PipelineConfig  # noqa: E402
from xmod.fileio import write_labels  # noqa: E402


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("seconds", [0, 3, 7.5, 40])
def test_pool_is_independent_of_run_length(seconds):
    seeds = wl.snapshot_seeds("hard-epoch", 5, 4)
    assert seeds == wl.snapshot_seeds("hard-epoch", 5, 4)
    assert seeds != wl.snapshot_seeds("hard-epoch", 6, 4)
    assert seeds[:3] == wl.snapshot_seeds("hard-epoch", 5, 3)
    order = list(wl.walk(4, seconds, FakeClock()))
    passes, rest = divmod(len(order), 4)
    assert passes >= 1 and rest == 0
    assert order == [0, 1, 2, 3] * passes


def test_self_time_of_nested_spans():
    times = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(times))
    with tracer.span("bench.op"):            # 0 .. 10
        with tracer.span("transfer.a"):      # 1 .. 4
            with tracer.span("transport.b"):  # 2 .. 3
                pass
        with tracer.span("affinity.c"):      # 5 .. 9
            pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def _valid_labels():
    soft = np.array([[0.7, 0.3], [0.0, 0.0], [0.2, 0.8]])
    hard = np.array([0, -1, 1])
    return hard, soft


def test_check_accepts_valid_labels():
    wl.check_labels("x", *_valid_labels())


@pytest.mark.parametrize("corrupt", [
    lambda h, s: s.__setitem__((0, 0), 0.9),       # row no longer sums to 1
    lambda h, s: h.__setitem__(2, 0),              # hard label is not the argmax
    lambda h, s: s.__setitem__((1, 1), 0.5),       # NOISE row carries mass
    lambda h, s: s.__setitem__((2, 0), np.nan),    # non-finite
    lambda h, s: s.__setitem__(0, [1.2, -0.2]),    # negative entry
])
def test_check_rejects_corrupted_label_row(corrupt):
    hard, soft = _valid_labels()
    corrupt(hard, soft)
    with pytest.raises(wl.CheckError):
        wl.check_labels("x", hard, soft)


def test_check_rejects_corrupted_label_file(tmp_path):
    hard, soft = _valid_labels()
    path = tmp_path / "labels.csv"
    write_labels(path, hard, soft)
    wl.check_labels("x", *wl.parse_label_csv(str(path), with_soft=True))
    lines = path.read_text().splitlines()
    lines[1] = "0,0,0.7,0.7"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(wl.CheckError):
        wl.check_labels("x", *wl.parse_label_csv(str(path), with_soft=True))


TINY = {
    "epoch": replace(wl.WORKLOADS["easy-epoch"],
                     spec={**wl.WORKLOADS["easy-epoch"].spec, "num_ids": 4, "dim": 16,
                           "per_id_v": 10, "per_id_r": 10}),
    "cli": replace(wl.WORKLOADS["cli-roundtrip"],
                   spec={**wl.WORKLOADS["cli-roundtrip"].spec, "num_ids": 6, "dim": 16}),
}


def _draw(workload, seed, root):
    return [wl.draw_snapshot(workload, i, s, str(root / f"snap{i}"))[0]
            for i, s in enumerate(wl.snapshot_seeds(workload.name, seed, 2))]


@pytest.mark.parametrize("kind", ["epoch", "cli"])
def test_same_seed_gives_same_outputs_traced_or_not(kind, tmp_path):
    workload, cfg = TINY[kind], PipelineConfig()
    first = _draw(workload, 3, tmp_path / "a")
    second = _draw(workload, 3, tmp_path / "b")
    tracer = Tracer()
    for a, b in zip(first, second):
        digest_a, quality_a = wl.check_op(workload, a, wl.run_op(workload, a, cfg))
        digest_b, quality_b = wl.check_op(workload, b, wl.run_op(workload, b, cfg))
        with installed(tracer, layers.HOOKS), tracer.span(layers.ROOT):
            traced = wl.run_op(workload, b, cfg)
        assert (digest_a, quality_a) == (digest_b, quality_b)
        assert wl.check_op(workload, b, traced)[0] == digest_b
    names = {s.name for s in tracer.spans}
    assert {"transport.sinkhorn", "transfer.run_transfer", "affinity.k_reciprocal_sets",
            "clustering.dbscan", "losses.loss_report"} <= names
    if kind == "cli":
        assert {"cli.cluster", "cli.associate", "cli.eval", "cli.loss_report",
                "fileio.write_labels", "fileio.read_labels"} <= names
    metrics = layers.span_metrics(tracer.spans, self_times(tracer.spans), len(first), [])
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, abs=0.02)


def test_hooks_are_restored():
    import xmod.transport

    original = xmod.transport.sinkhorn
    with installed(Tracer(), layers.HOOKS):
        assert xmod.transport.sinkhorn is not original
    assert xmod.transport.sinkhorn is original


def test_record_comparison_flags_a_changed_pool(tmp_path):
    record = {"seed": 1, "code": "abc", "pool": [{"digest": "d1"}], "counts": {"x": 1}}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    old = run.earlier_record(str(path), "abc")
    assert old == record and run.differences(old, record) == []
    assert run.differences(old, {**record, "pool": [{"digest": "d2"}]})
    assert run.differences(old, {**record, "counts": {"x": 2}})
    assert run.differences(old, {"seed": 1, "pool": record["pool"]}) == []
    assert run.earlier_record(str(path), "other code") == {}
    assert run.earlier_record(str(tmp_path / "missing.json"), "abc") == {}


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_s", "instances_per_s", "peak_rss_mib", "setup_s", *wl.QUALITY}
    assert os.path.normpath(spec["command"][1]) == os.path.join(BENCH.name, "run.py")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a threaded BLAS needs two CPUs")
def test_probe_refuses_an_unpinned_blas():
    import subprocess

    code = (
        "import run, numpy\n"
        "try:\n"
        "    run.probe_environment(numpy)\n"
        "except run.SetupError:\n"
        "    raise SystemExit(3)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env, timeout=60)
    assert done.returncode == 3
