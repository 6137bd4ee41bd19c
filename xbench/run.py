#!/usr/bin/env python3
"""xmod benchmark: one process, one client in a closed loop, BLAS on one thread.

    python3 xbench/run.py --workload hard-epoch --seed 1 --seconds 15 --trace 0

Set-up draws a pool of snapshots from the seed, writes them as MFV1 files and
runs one untimed warm-up operation on each. The run then walks the pool in
order, in whole passes, until ``--seconds`` have passed, and checks every
operation's outputs. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` pairs each untraced operation with a traced one and reports the
per-layer metrics. The last line of stdout is one JSON object. The run record
(environment, pool seeds and digests, samples, metrics) and the spans of a
traced run go to ``.xbench/records/`` in the checkout.

Exit codes: 0 when every check passed, 1 when a check failed (the result is
still printed), 2 when the benchmark could not start (nothing is printed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".xbench")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "XMOD_THREADS")


class SetupError(Exception):
    """The benchmark cannot produce a valid result here."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import xmod from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "xmod", "__init__.py")):
        raise SetupError(f"no xmod package under {SRC}")
    sys.path.insert(0, SRC)
    import xmod

    if not os.path.abspath(xmod.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported xmod from {xmod.__file__}, not from {SRC}")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def os_threads() -> int:
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise SetupError("cannot read the thread count from /proc/self/status")


def probe_environment(np) -> dict:
    """Machine facts from /proc and /sys; fails unless BLAS stayed on one thread."""
    a = np.ones((512, 512))
    (a @ a).sum()  # a threaded BLAS starts its workers on the first large product
    threads = os_threads()
    if threads != 1:
        raise SetupError(f"process runs {threads} OS threads after a BLAS call; the pin did not take")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            if entry.startswith("index"):
                key = f"L{_read(os.path.join(base, 'level'))}-{_read(os.path.join(base, 'type'))}"
                caches[key] = _read(os.path.join(base, "size"))
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    mem = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "mem_total": mem,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "os_threads_after_blas": threads,
    }


def code_hash() -> str:
    """Digest of the program and benchmark sources; records only compare
    runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "xmod"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def earlier_record(path: str, code: str) -> dict:
    """The record of an earlier run of the same code with this seed, or {}."""
    try:
        with open(path) as fh:
            old = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    return old if old.get("code") == code else {}


def differences(old: dict, record: dict) -> list[str]:
    return [f"{key} differs from the earlier run with seed {record['seed']}"
            for key in ("pool", "counts")
            if key in old and key in record and old[key] != record[key]]


def run(args) -> int:
    import numpy as np
    import workloads as wl
    from runner import Runner, end_to_end, per_layer

    env = probe_environment(np)
    if args.workload not in wl.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    runner = Runner(workload, args.seed, args.seconds, workdir)
    try:
        runner.set_up()
        if args.trace:
            metrics, counts, spans, repeat = per_layer(runner)
        else:
            samples = runner.measure()
            metrics, counts = end_to_end(runner, samples)
            spans, repeat = None, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    record_path = os.path.join(records, f"{workload.name}-seed{args.seed}.json")
    record = {"workload": workload.name, "seed": args.seed, "code": code_hash(),
              "pool": runner.pool_record()}
    if repeat is not None:
        record["counts"] = repeat
    old = earlier_record(record_path, record["code"])
    for problem in differences(old, record):
        runner.fail(problem)
    with open(record_path, "w") as fh:
        json.dump({**old, **record}, fh, indent=1, sort_keys=True)
    run_record = {
        **record, "trace": args.trace, "seconds": args.seconds, "env": env,
        "setup_times": runner.setup_times, "op_times": runner.op_times, "samples": counts,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems,
    }
    with open(os.path.join(records, f"{workload.name}-seed{args.seed}-trace{args.trace}-run.json"), "w") as fh:
        json.dump(run_record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(records, f"{workload.name}-seed{args.seed}-spans.json"), "w") as fh:
            json.dump(spans, fh)

    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print(f"{name:32s} {value:14.6g} {unit}" + (f"  (n={n})" if n else ""))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin before numpy is first imported; the probe checks that it took.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
