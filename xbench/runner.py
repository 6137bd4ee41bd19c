"""One benchmark run: set-up, the measured loop, the traced run and the
metrics they give. Imported only after the BLAS thread pin is in place."""
from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import workloads as wl
from layers import HOOKS, PER_LAYER, REPEATABLE, ROOT as ROOT_SPAN, span_metrics
from tracer import Tracer, installed, self_times
from xmod.baselines import associate_greedy_centroid, associate_otla_only
from xmod.clustering import dbscan
from xmod.core import PipelineConfig
from xmod.metrics import full_report


class Runner:
    """Set-up, the measured loop and the checks for one run."""

    def __init__(self, workload, seed: int, seconds: float, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.cfg = PipelineConfig()
        self.clock = time.perf_counter
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pool = []
        self.setup_times: list[float] = []
        self.generate_times: list[float] = []
        self.op_times: list[tuple[int, float]] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def attempt(self, snap, op):
        """Run ``op`` on ``snap`` and check it; return (seconds, digest,
        quality) or None when the operation raised or a check failed."""
        self.attempted += 1
        t0 = self.clock()
        try:
            output = op()
        except Exception:  # keep running: a failed operation is counted, not fatal
            traceback.print_exc()
            self.fail(f"snapshot {snap.index}: operation raised")
            return None
        elapsed = self.clock() - t0
        try:
            digest, quality = wl.check_op(self.workload, snap, output)
            if snap.digest and digest != snap.digest:
                raise wl.CheckError("output digest differs from the warm-up's")
        except wl.CheckError as exc:
            self.fail(f"snapshot {snap.index}: {exc}")
            return None
        except (OSError, ValueError) as exc:  # unreadable or unparsable output files
            self.fail(f"snapshot {snap.index}: output does not parse: {exc}")
            return None
        return elapsed, digest, quality

    def run_op(self, snap):
        return wl.run_op(self.workload, snap, self.cfg)

    def set_up(self) -> None:
        seeds = wl.snapshot_seeds(self.workload.name, self.seed, wl.POOL_SIZE)
        for index, snap_seed in enumerate(seeds):
            t0 = self.clock()
            snap, generate_s = wl.draw_snapshot(
                self.workload, index, snap_seed, os.path.join(self.workdir, f"snap{index:02d}"))
            self.generate_times.append(generate_s)
            outcome = self.attempt(snap, lambda: self.run_op(snap))
            self.setup_times.append(self.clock() - t0)
            if outcome is not None:
                _, snap.digest, snap.quality = outcome
            self.pool.append(snap)

    def measure(self) -> dict:
        times, rates = [], []
        for index in wl.walk(len(self.pool), self.seconds, self.clock):
            snap = self.pool[index]
            outcome = self.attempt(snap, lambda: self.run_op(snap))
            if outcome is not None:
                times.append(outcome[0])
                rates.append(snap.instances / outcome[0])
                self.op_times.append((index, outcome[0]))
        return {"op_s": times, "instances_per_s": rates}

    def measure_traced(self):
        """Pairs of (untraced, traced) operations on each snapshot."""
        tracer = Tracer(clock=self.clock)
        untraced, traced, good_ops = [], [], set()
        for index in wl.walk(len(self.pool), self.seconds, self.clock):
            snap = self.pool[index]
            plain = self.attempt(snap, lambda: self.run_op(snap))
            tracer.op += 1

            def traced_op():
                with installed(tracer, HOOKS), tracer.span(ROOT_SPAN):
                    return self.run_op(snap)

            outcome = self.attempt(snap, traced_op)
            if plain is not None and outcome is not None:
                untraced.append(plain[0])
                traced.append(outcome[0])
                good_ops.add(tracer.op)
        spans = [s for s in tracer.spans if s.op in good_ops]
        return spans, len(good_ops), untraced, traced

    def profile_alloc(self):
        """One traced operation on the first snapshot under tracemalloc."""
        tracer = Tracer(track_alloc=True, clock=self.clock)
        snap = self.pool[0]

        def op():
            tracemalloc.start()
            try:
                with installed(tracer, HOOKS), tracer.span(ROOT_SPAN):
                    return self.run_op(snap)
            finally:
                tracemalloc.stop()

        self.attempt(snap, op)
        return tracer.spans

    def baselines(self) -> dict:
        """Reference associators on the same clusterings (outside any op)."""
        cfg = self.cfg
        acc = {"otla": [], "greedy": []}
        busy = {"otla": 0.0, "greedy": 0.0}
        for snap in self.pool:
            assign_v = dbscan(snap.features_v, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
            assign_r = dbscan(snap.features_r, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
            for name, fn in (("otla", associate_otla_only), ("greedy", associate_greedy_centroid)):
                t0 = self.clock()
                result = fn(snap.features_v, snap.features_r, assign_v, assign_r, cfg)
                busy[name] += self.clock() - t0
                report = full_report(result, snap.gt)
                acc[name].append((report.cross_acc_v + report.cross_acc_r) / 2.0)
        n = len(self.pool)
        return {
            "baselines.otla_cross_acc": sum(acc["otla"]) / n,
            "baselines.greedy_cross_acc": sum(acc["greedy"]) / n,
            "baselines.otla_s": busy["otla"] / n,
            "baselines.greedy_s": busy["greedy"] / n,
        }

    def pool_record(self) -> list[dict]:
        return [{"index": s.index, "seed": s.seed, "digest": s.digest, "quality": s.quality}
                for s in self.pool]

    def quality(self) -> dict:
        scored = [s.quality for s in self.pool if s.quality]
        return {key: (sum(q[key] for q in scored) / len(scored) if scored else 0.0)
                for key in wl.QUALITY}


def end_to_end(runner: Runner, samples: dict) -> tuple[dict, dict]:
    """The eight end-to-end metrics and their sample counts."""
    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "op_s": (median(samples["op_s"]), "s"),
        "instances_per_s": (median(samples["instances_per_s"]), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        # Pool size times the median set-up of one snapshot (draw, write,
        # warm-up), so a single slow set-up does not move it.
        "setup_s": (len(runner.pool) * median(runner.setup_times), "s"),
    }
    for key, value in runner.quality().items():
        metrics[key] = (value, "frac")
    counts = {"op_s": len(samples["op_s"]), "instances_per_s": len(samples["instances_per_s"]),
              "setup_s": len(runner.setup_times)}
    return metrics, counts


def per_layer(runner: Runner) -> tuple[dict, dict, list, dict]:
    """The per-layer metrics, their sample count, the spans, and the counts
    that must repeat exactly under the same seed."""
    spans, n_ops, untraced, traced = runner.measure_traced()
    alloc_spans = runner.profile_alloc()
    values = {}
    if n_ops:
        values.update(span_metrics(spans, self_times(spans), n_ops, alloc_spans))
        values["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    values["synth.generate_s"] = statistics.median(runner.generate_times)
    values.update(runner.baselines())
    units = dict(PER_LAYER)
    metrics = {name: (values.get(name, 0.0), units[name]) for name, _ in PER_LAYER}
    counts = {name: values.get(name) for name in REPEATABLE}
    return metrics, {"traced_ops": n_ops}, [s.to_dict() for s in spans + alloc_spans], counts
