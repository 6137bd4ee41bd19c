import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import xmod
from xmod.cli import main
from xmod.core import NOISE, Modality, PipelineConfig
from xmod.fileio import (
    read_features,
    read_labels,
    write_features,
    write_ground_truth,
    write_labels,
)
from xmod.losses import TrainingMode
from xmod.pipeline import run_epoch
from xmod.synth import GapMode, SynthSpec, generate

from conftest import random_unit_rows

# knobs sized for 3 tight blobs of 8 instances per modality
CONFIG = {
    "kappa": 8,
    "dbscan_min_samples": 3,
    "epsilon0": 1e-4,
    "max_transfer_iters": 500,
    "batch_size": 16,
}


def load_schema(name):
    with resources.files("xmod").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


@pytest.fixture()
def workdir(tmp_path):
    code = main([
        "synth", "--ids", "3", "--per-id-v", "8", "--per-id-r", "8",
        "--dim", "16", "--std", "0.02", "--gap", "0.3", "--seed", "5",
        "--out", str(tmp_path / "data"),
    ])
    assert code == 0
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    return tmp_path


def run_associate(workdir, method="mult", direction="both", trace=None, out=None):
    out = out or workdir / f"labels_{method}_{direction}"
    argv = [
        "associate",
        "--features-v", str(workdir / "data" / "visible.mfv1"),
        "--features-r", str(workdir / "data" / "infrared.mfv1"),
        "--method", method, "--direction", direction,
        "--config", str(workdir / "config.json"),
        "--out", str(out),
    ]
    if trace is not None:
        argv += ["--trace", str(trace)]
    return main(argv), out


class TestSynth:
    def test_writes_three_files(self, workdir):
        data = workdir / "data"
        assert (data / "ground_truth.csv").exists()
        fv = read_features(data / "visible.mfv1", Modality.VISIBLE)
        fr = read_features(data / "infrared.mfv1", Modality.INFRARED)
        assert fv.data.shape == (24, 16)
        assert fr.data.shape == (24, 16)

    def test_same_seed_byte_identical(self, tmp_path):
        argv = ["synth", "--ids", "3", "--dim", "8", "--seed", "9", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        for name in ("visible.mfv1", "infrared.mfv1", "ground_truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_features(self, tmp_path):
        argv = ["synth", "--ids", "3", "--dim", "8", "--out"]
        assert main(argv + [str(tmp_path / "a"), "--seed", "1"]) == 0
        assert main(argv + [str(tmp_path / "b"), "--seed", "2"]) == 0
        assert (tmp_path / "a" / "visible.mfv1").read_bytes() != \
               (tmp_path / "b" / "visible.mfv1").read_bytes()

    @pytest.mark.parametrize(
        "flags,spec",
        [(["--ids", "3"], SynthSpec(num_ids=3)),
         (["--ids", "4", "--per-id-v", "3", "--per-id-r", "5", "--dim", "6",
           "--separation", "0.9", "--std", "0.1", "--gap", "0.4", "--gap-mode", "per-id",
           "--seed", "11"],
          SynthSpec(num_ids=4, per_id_v=3, per_id_r=5, dim=6, id_separation=0.9,
                    blob_std=0.1, modality_gap=0.4, gap_mode=GapMode.PER_ID_OFFSET, seed=11))],
        ids=["ids-alone", "every-flag"],
    )
    def test_flags_write_the_bytes_of_their_spec(self, tmp_path, flags, spec):
        # a flag left out keeps SynthSpec's default
        assert main(["synth", *flags, "--out", str(tmp_path / "cli")]) == 0
        visible, infrared, gt = generate(spec)
        write_features(tmp_path / "visible.mfv1", visible)
        write_features(tmp_path / "infrared.mfv1", infrared)
        write_ground_truth(tmp_path / "ground_truth.csv", gt.ids_v, gt.ids_r)
        for name in ("visible.mfv1", "infrared.mfv1", "ground_truth.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--std", "nan", "blob_std"), ("--std", "inf", "blob_std"),
         ("--gap", "nan", "modality_gap"), ("--gap", "inf", "modality_gap"),
         ("--separation", "nan", "id_separation")],
    )
    def test_non_finite_scale_exit_2_before_drawing(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        monkeypatch.setattr("xmod.cli.generate", lambda spec: pytest.fail("drew a dataset"))
        out = tmp_path / "data"
        code = main(["synth", "--ids", "3", f"{flag}={value}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {field} must be finite, got {float(value)}\n"
        assert not out.exists()


def cluster_argv(features, config, labels_path, protos_path):
    return [
        "cluster", "--features", str(features), "--config", str(config),
        "--out-labels", str(labels_path), "--out-prototypes", str(protos_path),
    ]


class TestCluster:
    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_labels_and_prototypes(self, workdir, metric):
        labels_path = workdir / f"labels_{metric}.csv"
        protos_path = workdir / f"protos_{metric}.mfv1"
        code = main([
            "cluster", "--features", str(workdir / "data" / "visible.mfv1"),
            "--metric", metric, "--config", str(workdir / "config.json"),
            "--out-labels", str(labels_path),
            "--out-prototypes", str(protos_path),
        ])
        assert code == 0
        hard, soft = read_labels(labels_path)
        assert soft is None
        assert hard.shape == (24,)
        assert sorted(set(hard.tolist())) == [0, 1, 2]
        protos = read_features(protos_path, Modality.VISIBLE)
        assert protos.data.shape == (3, 16)
        assert np.allclose(np.linalg.norm(protos.data, axis=1), 1.0, atol=1e-5)

    def test_all_noise_exit_2_and_writes_nothing(self, workdir, capsys):
        config = workdir / "tiny_eps.json"
        config.write_text(json.dumps({"dbscan_eps": 1e-4}))
        labels_path = workdir / "labels.csv"
        protos_path = workdir / "protos.mfv1"
        features = workdir / "data" / "visible.mfv1"
        code = main(cluster_argv(features, config, labels_path, protos_path))
        assert code == 2
        assert "noise" in capsys.readouterr().err
        assert not labels_path.exists() and not protos_path.exists()

    @pytest.mark.parametrize(
        "field,value",
        [("dbscan_eps", math.inf), ("dbscan_eps", math.nan), ("dbscan_eps", -1.0),
         ("dbscan_min_samples", -5)],
    )
    def test_out_of_range_config_exit_2_and_writes_nothing(self, workdir, capsys, field, value):
        config = workdir / "bad.json"
        config.write_text(json.dumps({field: value}))
        labels_path = workdir / "labels.csv"
        protos_path = workdir / "protos.mfv1"
        features = workdir / "data" / "visible.mfv1"
        code = main(cluster_argv(features, config, labels_path, protos_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "noise" not in err
        assert not labels_path.exists() and not protos_path.exists()

    @pytest.mark.parametrize("flag", ["--eps", "--min-samples"])
    def test_dbscan_flag_is_a_usage_error(self, workdir, capsys, flag):
        labels_path = workdir / "labels.csv"
        argv = cluster_argv(workdir / "data" / "visible.mfv1", workdir / "config.json",
                            labels_path, workdir / "protos.mfv1")
        assert main(argv + [flag, "0.5"]) == 1
        assert flag in capsys.readouterr().err
        assert not labels_path.exists()

    def test_same_config_finds_the_clusters_associate_finds(self, hard_set, tmp_path):
        # at eps 0.45 the hard set has 2 visible and 10 infrared clusters,
        # and noise rows on both sides
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dbscan_eps": 0.45}))
        assert main([
            "associate", "--features-v", str(hard_set / "visible.mfv1"),
            "--features-r", str(hard_set / "infrared.mfv1"),
            "--config", str(config), "--out", str(tmp_path / "labels"),
        ]) == 0
        for side, source in (("v", "visible"), ("r", "infrared")):
            labels_path = tmp_path / f"clusters_{side}.csv"
            protos_path = tmp_path / f"protos_{side}.mfv1"
            assert main(cluster_argv(hard_set / f"{source}.mfv1", config,
                                     labels_path, protos_path)) == 0
            clusters, _ = read_labels(labels_path)
            intra, soft = read_labels(tmp_path / "labels" / f"intra_{side}.csv")
            assert 0 < (clusters == NOISE).sum() < clusters.size
            assert np.array_equal(clusters == NOISE, intra == NOISE)
            k = read_features(protos_path, Modality.VISIBLE).data.shape[0]
            assert soft.shape[1] == k == clusters.max() + 1


class TestAssociate:
    def test_mult_writes_four_label_files(self, workdir):
        code, out = run_associate(workdir)
        assert code == 0
        for name, total in (("intra_v", 24), ("cross_v", 24),
                            ("intra_r", 24), ("cross_r", 24)):
            hard, soft = read_labels(out / f"{name}.csv")
            assert hard.shape == (total,)
            assert soft.shape == (total, 3)
            labeled = hard >= 0
            assert np.allclose(soft[labeled].sum(axis=1), 1.0, atol=1e-9)
            assert np.array_equal(soft[labeled].argmax(axis=1), hard[labeled])

    def test_direction_v2r_writes_source_and_target_only(self, workdir):
        code, out = run_associate(workdir, direction="v2r")
        assert code == 0
        present = sorted(p.name for p in out.iterdir())
        assert present == ["cross_r.csv", "intra_v.csv"]

    @pytest.mark.parametrize("method", ["mult", "otla", "greedy"])
    def test_split_run_writes_the_bytes_of_one_both_run(self, workdir, method):
        code, both = run_associate(workdir, method=method)
        assert code == 0
        split = workdir / "split"
        assert run_associate(workdir, method=method, direction="v2r", out=split)[0] == 0
        assert sorted(p.name for p in split.iterdir()) == ["cross_r.csv", "intra_v.csv"]
        assert run_associate(workdir, method=method, direction="r2v", out=split)[0] == 0
        written = {p.name: p.read_bytes() for p in split.iterdir()}
        assert written == {p.name: p.read_bytes() for p in both.iterdir()}
        assert len(written) == 4

    @pytest.mark.parametrize("method", ["otla", "greedy"])
    def test_baseline_methods(self, workdir, method):
        code, out = run_associate(workdir, method=method)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cross_r.csv", "cross_v.csv", "intra_r.csv", "intra_v.csv",
        ]

    def test_rerun_byte_identical(self, workdir):
        _, out_a = run_associate(workdir)
        shutil.move(out_a, workdir / "first")
        _, out_b = run_associate(workdir)
        for name in ("intra_v", "cross_v", "intra_r", "cross_r"):
            assert (workdir / "first" / f"{name}.csv").read_bytes() == \
                   (out_b / f"{name}.csv").read_bytes()

    def test_duplicate_rows_finite_stochastic_and_swap_byte_identical(self, workdir):
        # visible rows 1, 2 repeat row 0; infrared rows 0-2 repeat visible
        # rows 0-2 and infrared row 9 repeats row 8
        v = read_features(workdir / "data" / "visible.mfv1", Modality.VISIBLE).data.copy()
        r = read_features(workdir / "data" / "infrared.mfv1", Modality.INFRARED).data.copy()
        v[[1, 2]] = v[0]
        r[:3] = v[:3]
        r[9] = r[8]
        write_features(workdir / "dup_v.mfv1", v)
        write_features(workdir / "dup_r.mfv1", r)
        outs = []
        for first, second in (("dup_v", "dup_r"), ("dup_r", "dup_v")):
            out = workdir / f"labels_{first}"
            assert main([
                "associate", "--features-v", str(workdir / f"{first}.mfv1"),
                "--features-r", str(workdir / f"{second}.mfv1"),
                "--config", str(workdir / "config.json"), "--out", str(out),
            ]) == 0
            outs.append(out)
        for name in ("intra_v", "cross_v", "intra_r", "cross_r"):
            hard, soft = read_labels(outs[0] / f"{name}.csv")
            labeled = hard >= 0
            assert labeled.any() and np.isfinite(soft).all()
            assert np.allclose(soft[labeled].sum(axis=1), 1.0, atol=1e-9)
        for mine, theirs in (("intra_v", "intra_r"), ("cross_r", "cross_v"),
                             ("intra_r", "intra_v"), ("cross_v", "cross_r")):
            assert (outs[0] / f"{mine}.csv").read_bytes() == \
                   (outs[1] / f"{theirs}.csv").read_bytes()

    def test_same_file_twice_gives_identical_sides(self, workdir):
        visible = str(workdir / "data" / "visible.mfv1")
        out = workdir / "labels_same"
        assert main([
            "associate", "--features-v", visible, "--features-r", visible,
            "--config", str(workdir / "config.json"), "--out", str(out),
        ]) == 0
        assert (out / "intra_v.csv").read_bytes() == (out / "intra_r.csv").read_bytes()
        assert (out / "cross_r.csv").read_bytes() == (out / "cross_v.csv").read_bytes()

    def test_trace_json_validates(self, workdir):
        schema = load_schema("inconsistency_report.schema.json")
        trace_dir = workdir / "trace"
        code, _ = run_associate(workdir, trace=trace_dir)
        assert code == 0
        for tag in ("v2r", "r2v"):
            files = sorted(trace_dir.glob(f"{tag}_t*.json"))
            assert files, f"no trace files for {tag}"
            steps = []
            for path in files:
                entry = json.loads(path.read_text())
                jsonschema.validate(entry, schema)
                steps.append(entry["t"])
            assert steps == list(range(len(steps)))
            first = json.loads(files[0].read_text())
            assert first["epsilon"] is None

    def test_trace_rerun_replaces_only_its_directions_steps(self, workdir):
        def associate(trace_dir, epsilon0, direction="both"):
            cfg = workdir / f"config_{epsilon0}.json"
            cfg.write_text(json.dumps(dict(CONFIG, epsilon0=epsilon0)))
            assert main([
                "associate", "--features-v", str(workdir / "data" / "visible.mfv1"),
                "--features-r", str(workdir / "data" / "infrared.mfv1"),
                "--direction", direction, "--config", str(cfg),
                "--trace", str(trace_dir), "--out", str(workdir / "labels"),
            ]) == 0
            return {p.name: p.read_bytes() for p in trace_dir.iterdir()}

        fresh = associate(workdir / "fresh", 1e-2)
        reused = workdir / "reused"
        longer = associate(reused, 1e-6)
        assert set(fresh) < set(longer)
        (reused / "notes.txt").write_text("kept")
        (reused / "v2r_t999.json.bak").write_text("kept")
        rerun = associate(reused, 1e-2)
        assert rerun.pop("notes.txt") == rerun.pop("v2r_t999.json.bak") == b"kept"
        assert rerun == fresh
        split = workdir / "split"
        associate(split, 1e-2, "v2r")
        assert associate(split, 1e-2, "r2v") == fresh

    def test_trace_names_sort_in_step_order_past_step_999(self, workdir):
        # ε0 = 1e-300 is never met: α = 1e-3 makes the loop contract so
        # slowly (by 1 − α a step) that every update is still falling at step
        # 1001, so the run reaches the cap
        cfg = workdir / "long.json"
        cfg.write_text(json.dumps(dict(CONFIG, epsilon0=1e-300, max_transfer_iters=1001,
                                       alpha=1e-3)))
        trace_dir = workdir / "trace"
        assert main([
            "associate", "--features-v", str(workdir / "data" / "visible.mfv1"),
            "--features-r", str(workdir / "data" / "infrared.mfv1"),
            "--direction", "v2r", "--config", str(cfg),
            "--trace", str(trace_dir), "--out", str(workdir / "labels"),
        ]) == 0
        names = sorted(p.name for p in trace_dir.iterdir())
        steps = [json.loads((trace_dir / name).read_text())["t"] for name in names]
        assert steps == list(range(1002))
        assert names[0] == "v2r_t0000.json" and names[-1] == "v2r_t1001.json"

    @pytest.mark.parametrize("method", ["otla", "greedy"])
    def test_trace_with_baseline_exit_1_and_writes_nothing(self, workdir, capsys, method):
        trace_dir = workdir / "trace"
        code, out = run_associate(workdir, method=method, trace=trace_dir)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "--trace" in err
        assert not out.exists() and not trace_dir.exists()


@pytest.fixture(scope="module")
def hard_set(tmp_path_factory):
    """100 + 100 rows, 10 identities, per-identity gap: the edge matrix's input."""
    data = tmp_path_factory.mktemp("hard") / "data"
    assert main([
        "synth", "--ids", "10", "--per-id-v", "10", "--per-id-r", "10",
        "--std", "0.08", "--gap", "1.2", "--gap-mode", "per-id", "--seed", "3",
        "--out", str(data),
    ]) == 0
    return data


def associate_with(hard_set, tmp_path, overrides):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    out = tmp_path / "labels"
    code = main([
        "associate",
        "--features-v", str(hard_set / "visible.mfv1"),
        "--features-r", str(hard_set / "infrared.mfv1"),
        "--config", str(config), "--out", str(out),
    ])
    return code, out


class TestEdgeMatrix:
    """Extreme config values through ``xmod associate`` on the hard set."""

    @pytest.mark.parametrize(
        "overrides",
        [{"dbscan_eps": 10.0}, {"kappa": 1}, {"alpha": 0.0}, {"alpha": 1.0},
         {"tau": 1e-6}, {"tau": 1e6}, {"ot_lambda": 1e-3}, {"epsilon0": 1e-300}],
        ids=["one-cluster", "kappa-1", "alpha-0", "alpha-1", "tau-1e-6", "tau-1e6",
             "lambda-1e-3", "epsilon0-1e-300"],
    )
    def test_extreme_value_writes_row_stochastic_labels(self, hard_set, tmp_path, overrides):
        code, out = associate_with(hard_set, tmp_path, overrides)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cross_r.csv", "cross_v.csv", "intra_r.csv", "intra_v.csv",
        ]
        for path in out.iterdir():
            hard, soft = read_labels(path)
            labeled = hard >= 0
            assert hard.shape == (100,) and labeled.any()
            assert soft.shape[1] == (1 if "dbscan_eps" in overrides else 10)
            assert np.isfinite(soft).all() and (soft >= 0.0).all()
            assert np.allclose(soft[labeled].sum(axis=1), 1.0, atol=1e-9)
            assert np.array_equal(soft[labeled].argmax(axis=1), hard[labeled])

    def test_unrepresentable_lambda_exit_2_and_writes_nothing(self, hard_set, tmp_path, capsys):
        code, out = associate_with(hard_set, tmp_path, {"ot_lambda": 1e300})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "1e+300" in err
        assert not out.exists()

    def test_all_noise_exit_2_and_writes_nothing(self, hard_set, tmp_path, capsys):
        code, out = associate_with(hard_set, tmp_path, {"dbscan_eps": 1e-4})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


def eval_argv(workdir, labels, out, gt=None):
    argv = ["eval"]
    for name in ("intra_v", "cross_r", "intra_r", "cross_v"):
        argv += [f"--labels-{name.replace('_', '-')}", str(labels / f"{name}.csv")]
    return argv + ["--gt", str(gt or workdir / "data" / "ground_truth.csv"), "--out", str(out)]


def replace_soft_value(path, line, value):
    """Rewrite the first soft field on 1-based ``line`` of a label CSV."""
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[2] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def replace_hard_label(path, line, value):
    """Rewrite the hard label on 1-based ``line`` of a label CSV."""
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[1] = str(value)
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestEval:
    def test_metrics_json_validates_and_is_perfect(self, workdir):
        _, labels = run_associate(workdir)
        out = workdir / "metrics.json"
        code = main(eval_argv(workdir, labels, out))
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("metrics_report.schema.json"))
        assert all(value == 1.0 for value in payload.values())

    def test_exclude_self_flag(self, workdir):
        _, labels = run_associate(workdir)
        out = workdir / "metrics_noself.json"
        code = main(eval_argv(workdir, labels, out) + ["--exclude-self"])
        assert code == 0
        jsonschema.validate(json.loads(out.read_text()),
                            load_schema("metrics_report.schema.json"))

    def test_soft_columns_are_not_read(self, workdir):
        _, labels = run_associate(workdir)
        clean = workdir / "metrics_clean.json"
        assert main(eval_argv(workdir, labels, clean)) == 0
        replace_soft_value(labels / "intra_v.csv", 2, "abc")
        replace_soft_value(labels / "cross_r.csv", 4, "nan")
        out = workdir / "metrics.json"
        assert main(eval_argv(workdir, labels, out)) == 0
        assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("label, error", [
        (-5, "hard label -5 below -1 at line 2"),
        (99, "hard label 99 at line 2 has no soft column"),
    ], ids=["below-noise", "past-k"])
    def test_impossible_hard_label_exit_2_and_writes_nothing(self, workdir, capsys,
                                                            label, error):
        _, labels = run_associate(workdir)
        replace_hard_label(labels / "intra_v.csv", 2, label)
        out = workdir / "metrics.json"
        assert main(eval_argv(workdir, labels, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"intra_v.csv: {error}" in err
        assert not out.exists()

    def test_short_ground_truth_row_exit_2_and_writes_nothing(self, workdir, capsys):
        _, labels = run_associate(workdir)
        gt = workdir / "short_gt.csv"
        gt.write_text("index,identity\n0\n")
        out = workdir / "metrics_short.json"
        code = main(eval_argv(workdir, labels, out, gt))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "short_gt.csv: line 2 has 1 fields" in err
        assert not out.exists()


def loss_report_argv(workdir, labels, out, mode="v"):
    """Cluster both modalities for banks; return a loss-report command line.

    The shared and intra-cross banks are the prototypes of the mode's source
    modality, as in pipeline.make_banks.
    """
    banks = {}
    for tag, source in (("v", "visible"), ("r", "infrared")):
        banks[tag] = workdir / f"protos_{tag}.mfv1"
        code = main(cluster_argv(workdir / "data" / f"{source}.mfv1", workdir / "config.json",
                                 workdir / f"scratch_{tag}.csv", banks[tag]))
        assert code == 0
    return [
        "loss-report",
        "--features-v", str(workdir / "data" / "visible.mfv1"),
        "--features-r", str(workdir / "data" / "infrared.mfv1"),
        "--labels-intra-v", str(labels / "intra_v.csv"),
        "--labels-cross-r", str(labels / "cross_r.csv"),
        "--labels-intra-r", str(labels / "intra_r.csv"),
        "--labels-cross-v", str(labels / "cross_v.csv"),
        "--bank-intra-v", str(banks["v"]),
        "--bank-intra-r", str(banks["r"]),
        "--bank-shared", str(banks[mode]),
        "--bank-intra-cross", str(banks[mode]),
        "--mode", mode,
        "--config", str(workdir / "config.json"),
        "--out", str(out),
    ]


class TestLossReport:
    def test_report_validates_and_sums(self, workdir):
        _, labels = run_associate(workdir)
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("loss_report.schema.json"))
        parts = (payload["l_im_v"] + payload["l_im_r"] + payload["l_cm"]
                 + payload["l_oclr_v"] + payload["l_oclr_r"])
        assert payload["total"] == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("mode,epoch", [("v", 0), ("r", 1)])
    def test_matches_run_epoch_losses(self, workdir, mode, epoch):
        _, labels = run_associate(workdir)
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out, mode)) == 0
        fv = read_features(workdir / "data" / "visible.mfv1", Modality.VISIBLE)
        fr = read_features(workdir / "data" / "infrared.mfv1", Modality.INFRARED)
        result = run_epoch(fv, fr, epoch, PipelineConfig().with_overrides(CONFIG))
        assert result.mode is TrainingMode(mode)
        # The CLI's banks went through float32 MFV1 files; run_epoch's did not.
        assert json.loads(out.read_text()) == pytest.approx(result.losses.to_dict(), rel=1e-5)

    def test_no_labeled_instance_exit_2_and_no_report(self, workdir, capsys):
        _, labels = run_associate(workdir)
        path = labels / "intra_v.csv"
        hard, soft = read_labels(path)
        write_labels(path, np.full_like(hard, NOISE), np.zeros_like(soft))
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        assert "no labeled instances" in capsys.readouterr().err
        assert not out.exists()

    def test_cross_labels_other_rows_than_intra_exit_2_and_no_report(self, workdir, capsys):
        # as when the files come from two associate runs: cross_v leaves out
        # one visible row that intra_v labels
        _, labels = run_associate(workdir)
        path = labels / "cross_v.csv"
        hard, soft = read_labels(path)
        row = int(np.flatnonzero(hard != NOISE)[0])
        hard[row], soft[row] = NOISE, 0.0
        write_labels(path, hard, soft)
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"intra_v and cross_v label different visible rows, first at row {row}" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, rows, modality",
                             [("intra_v", 32, "visible"), ("cross_r", 16, "infrared")],
                             ids=["visible-longer", "infrared-shorter"])
    def test_label_rows_differ_from_features_exit_2_and_no_report(
        self, workdir, capsys, name, rows, modality
    ):
        _, labels = run_associate(workdir)
        path = labels / f"{name}.csv"
        hard, soft = read_labels(path)
        picked = np.arange(rows) % hard.shape[0]
        write_labels(path, hard[picked], soft[picked])
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} has {rows} rows, but the {modality} features have 24\n"
        assert not out.exists()

    def test_non_finite_soft_label_exit_2_and_no_report(self, workdir, capsys):
        _, labels = run_associate(workdir)
        path = labels / "intra_v.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_soft_label_exit_2_and_no_report(self, workdir, capsys):
        _, labels = run_associate(workdir)
        path = labels / "cross_r.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "abc"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cross_r.csv: non-numeric soft label at line 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("label, error", [
        (-5, "hard label -5 below -1 at line 3"),
        (99, "hard label 99 at line 3 has no soft column"),
    ], ids=["below-noise", "past-k"])
    def test_impossible_hard_label_exit_2_and_no_report(self, workdir, capsys, label, error):
        _, labels = run_associate(workdir)
        replace_hard_label(labels / "intra_v.csv", 3, label)
        out = workdir / "losses.json"
        assert main(loss_report_argv(workdir, labels, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"intra_v.csv: {error}" in err
        assert not out.exists()

    def test_bank_mismatch_names_the_source_bank(self, workdir, capsys):
        # a V-based report reads intra_v as the source bank; here it has 7
        # clusters against 4 in the shared and intra-cross banks
        _, labels = run_associate(workdir)
        out = workdir / "losses.json"
        argv = loss_report_argv(workdir, labels, out)
        rng = np.random.default_rng(0)
        for flag, k in (("--bank-intra-v", 7), ("--bank-shared", 4), ("--bank-intra-cross", 4)):
            path = workdir / f"bank_{flag[2:]}.mfv1"
            write_features(path, random_unit_rows(rng, k, 16))
            argv[argv.index(flag) + 1] = str(path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "shared (4 clusters) and intra_cross (4)" in err
        assert "source bank intra_v (7 clusters)" in err
        assert not out.exists()


class TestPipelineCommand:
    def test_trace_csv_deterministic(self, workdir):
        snaps = workdir / "snaps"
        snaps.mkdir()
        for epoch in (0, 1):
            for modality in ("visible", "infrared"):
                shutil.copy(workdir / "data" / f"{modality}.mfv1",
                            snaps / f"epoch{epoch:03d}_{modality}.mfv1")
        argv = [
            "pipeline", "--snapshots", str(snaps),
            "--gt", str(workdir / "data" / "ground_truth.csv"),
            "--config", str(workdir / "config.json"),
        ]
        assert main(argv + ["--out", str(workdir / "trace_a.csv")]) == 0
        assert main(argv + ["--out", str(workdir / "trace_b.csv")]) == 0
        blob = (workdir / "trace_a.csv").read_bytes()
        assert blob == (workdir / "trace_b.csv").read_bytes()
        lines = blob.decode().splitlines()
        assert lines[0].startswith("epoch,intra_acc_v,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"
        assert lines[2].split(",")[0] == "1"


def bad_features_argv(workdir, row, col, value):
    """A cluster command line on 6 random unit rows with entry (row, col),
    or all of row ``row`` when col is None, set to ``value``."""
    m = random_unit_rows(np.random.default_rng(0), 6, 8)
    m[row, slice(None) if col is None else col] = value
    write_features(workdir / "bad.mfv1", m)
    return ["cluster", "--features", str(workdir / "bad.mfv1"),
            "--out-labels", str(workdir / "labels.csv"),
            "--out-prototypes", str(workdir / "protos.mfv1")]


def snapshots_argv(workdir, epochs):
    """A pipeline command line over copies of the workdir's data as ``epochs``."""
    snaps = workdir / "snaps"
    snaps.mkdir()
    for epoch in epochs:
        for modality in ("visible", "infrared"):
            shutil.copy(workdir / "data" / f"{modality}.mfv1",
                        snaps / f"epoch{epoch:03d}_{modality}.mfv1")
    return ["pipeline", "--snapshots", str(snaps),
            "--gt", str(workdir / "data" / "ground_truth.csv"),
            "--out", str(workdir / "trace.csv")]


def associated_labels(workdir):
    """The directory of the mult association's label files in the workdir."""
    code, labels = run_associate(workdir)
    assert code == 0
    return labels


def truncated_features_argv(workdir):
    """A cluster command line on a 5-byte MFV1 file."""
    (workdir / "short.mfv1").write_bytes(b"MFV1\x00")
    return cluster_argv(workdir / "short.mfv1", workdir / "config.json",
                        workdir / "labels.csv", workdir / "protos.mfv1")


def cluster_labels_argv(workdir):
    """A loss-report command line whose intra_v labels were written by cluster."""
    argv = loss_report_argv(workdir, associated_labels(workdir), workdir / "losses.json")
    # loss_report_argv clusters the visible features into scratch_v.csv
    argv[argv.index("--labels-intra-v") + 1] = str(workdir / "scratch_v.csv")
    return argv


def renamed_soft_column_argv(workdir):
    """An eval command line whose intra_v file names its first soft column q0."""
    labels = associated_labels(workdir)
    path = labels / "intra_v.csv"
    header, rest = path.read_text().split("\n", 1)
    path.write_text(header.replace(",p0,", ",q0,") + "\n" + rest)
    return eval_argv(workdir, labels, workdir / "metrics.json")


def edited_gt_argv(workdir, command, edit):
    """An eval or pipeline command line whose ground truth is the workdir's
    with ``edit`` applied to its list of data rows."""
    header, *rows = (workdir / "data" / "ground_truth.csv").read_text().splitlines()
    gt = workdir / "gt.csv"
    gt.write_text("\n".join([header, *edit(rows), ""]))
    if command == "eval":
        return eval_argv(workdir, associated_labels(workdir), workdir / "metrics.json", gt)
    argv = snapshots_argv(workdir, (0,))
    argv[argv.index("--gt") + 1] = str(gt)
    return argv


def noted_gt_argv(workdir):
    """An eval command line whose ground truth has a note column after identity."""
    argv = edited_gt_argv(workdir, "eval", lambda rows: [f"{row},x" for row in rows])
    gt = workdir / "gt.csv"
    header, rest = gt.read_text().split("\n", 1)
    gt.write_text(f"{header},note\n{rest}")
    return argv


# case: (command line built in the workdir, its one error message, where {w}
# stands for the workdir)
DATA_ERRORS = {
    "zero-row": (lambda w: bad_features_argv(w, 3, None, 0.0),
                 "row 3 has (near-)zero L2 norm"),
    "nan": (lambda w: bad_features_argv(w, 2, 5, np.nan),
            "non-finite value in feature matrix at (2, 5)"),
    "separation-past-diameter": (
        lambda w: ["synth", "--ids", "3", "--separation", "2.5", "--out", str(w / "synth")],
        "id_separation 2.5 exceeds the sphere diameter"),
    "crowded-sphere": (
        lambda w: ["synth", "--ids", "40", "--dim", "2", "--separation", "1.5",
                   "--out", str(w / "synth")],
        "could not place center 3 of 40 in dim 2 with separation 1.5 after 1000 tries"),
    "epoch-gap": (lambda w: snapshots_argv(w, (0, 2)),
                  "incomplete or missing snapshot pair for epoch 1"),
    "no-snapshots": (lambda w: snapshots_argv(w, ()),
                     "incomplete or missing snapshot pair for epoch 0: "
                     "no epochNNN_*.mfv1 files in {w}/snaps"),
    "truncated-mfv1": (truncated_features_argv, "{w}/short.mfv1: truncated header"),
    "cluster-labels-to-loss-report": (cluster_labels_argv,
                                      "intra_v has no soft labels for the visible features"),
    "renamed-soft-column": (renamed_soft_column_argv,
                            "{w}/labels_mult_both/intra_v.csv: "
                            "expected soft columns p0..p2 after hard_label"),
    "gt-past-infrared": (lambda w: edited_gt_argv(w, "eval", lambda rows: rows + ["48,0"]),
                         "prediction and ground-truth lengths differ"),
    "gt-visible-only-eval": (lambda w: edited_gt_argv(w, "eval", lambda rows: rows[:24]),
                             "ground-truth id vectors must be nonempty 1-d"),
    "gt-visible-only-pipeline": (
        lambda w: edited_gt_argv(w, "pipeline", lambda rows: rows[:24]),
        "ground-truth id vectors must be nonempty 1-d"),
    "identity-past-int64": (
        lambda w: edited_gt_argv(w, "eval", lambda rows: ["0,99999999999999999999999",
                                                          *rows[1:]]),
        "{w}/gt.csv: identity 99999999999999999999999 at line 2 does not fit int64"),
    "gt-column-after-identity": (noted_gt_argv, "{w}/gt.csv: expected an index,identity header"),
}


class TestErrors:
    @pytest.mark.parametrize("case", sorted(DATA_ERRORS))
    def test_data_error_exit_2_one_line_writes_nothing(self, workdir, capsys, case):
        build, message = DATA_ERRORS[case]
        argv = build(workdir)
        before = sorted(workdir.rglob("*"))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(w=workdir)}\n"
        assert sorted(workdir.rglob("*")) == before

    def test_a_key_error_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # only data, parameter and file errors become exit 2; a bug stays loud
        def broken(spec):
            raise KeyError("planted")
        monkeypatch.setattr("xmod.cli.generate", broken)
        with pytest.raises(KeyError, match="planted"):
            main(["synth", "--ids", "3", "--out", str(tmp_path / "synth")])

    def test_unknown_flag_exit_1_names_flag(self, tmp_path, capsys):
        code = main(["synth", "--ids", "3", "--out", str(tmp_path), "--bogus"])
        assert code == 1
        assert "--bogus" in capsys.readouterr().err

    def test_missing_required_flag_exit_1(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == 1
        assert "--ids" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_mismatched_dims_exit_2(self, workdir, tmp_path, capsys):
        assert main(["synth", "--ids", "3", "--dim", "8", "--seed", "5",
                     "--out", str(tmp_path / "other")]) == 0
        code = main([
            "associate",
            "--features-v", str(workdir / "data" / "visible.mfv1"),
            "--features-r", str(tmp_path / "other" / "infrared.mfv1"),
            "--method", "mult", "--out", str(tmp_path / "labels"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_feature_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mfv1"
        bad.write_bytes(b"not a feature file")
        code = main([
            "cluster", "--features", str(bad),
            "--out-labels", str(tmp_path / "l.csv"),
            "--out-prototypes", str(tmp_path / "p.mfv1"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_not_json_exit_2(self, workdir, capsys):
        broken = workdir / "broken.json"
        broken.write_text("{not json")
        code, _ = run_associate(workdir)
        code = main([
            "associate",
            "--features-v", str(workdir / "data" / "visible.mfv1"),
            "--features-r", str(workdir / "data" / "infrared.mfv1"),
            "--config", str(broken), "--out", str(workdir / "x"),
        ])
        assert code == 2

    def test_unknown_config_key_exit_2(self, workdir, capsys):
        odd = workdir / "odd.json"
        odd.write_text(json.dumps({"no_such_knob": 1}))
        code = main([
            "associate",
            "--features-v", str(workdir / "data" / "visible.mfv1"),
            "--features-r", str(workdir / "data" / "infrared.mfv1"),
            "--config", str(odd), "--out", str(workdir / "x"),
        ])
        assert code == 2
        assert "no_such_knob" in capsys.readouterr().err

    # Each error line names what is wrong. A temperature below the smallest
    # normal float64 would overflow the softmax logits.
    @pytest.mark.parametrize(
        "config, named",
        [({"kappa": "30"}, "kappa"), ({"kappa": 2.5}, "kappa"),
         ({"batch_size": True}, "batch_size"), ([1, 2], "JSON object"),
         ({"mu": 0.1}, "'mu'"), ({"seed": 0}, "'seed'"),
         ({"lambda": 10.0, "ot_lambda": 20.0}, "'lambda'"),
         ({"tau": 1e-320}, "tau must be"),
         ({"tau": 1e-307, "sharpen_divisor": 1e3}, "tau / sharpen_divisor must be")],
        ids=["str-int", "float-int", "bool-int", "list", "mu", "seed", "lambda",
             "subnormal-tau", "subnormal-sharp-tau"],
    )
    def test_bad_config_value_exit_2_one_line(self, workdir, capsys, config, named):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(config))
        code = main([
            "associate",
            "--features-v", str(workdir / "data" / "visible.mfv1"),
            "--features-r", str(workdir / "data" / "infrared.mfv1"),
            "--config", str(bad), "--out", str(workdir / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert "Traceback" not in err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize(
        "command,has_seed",
        [("synth", True), ("cluster", False), ("associate", False),
         ("loss-report", False), ("pipeline", False)],
    )
    def test_seed_flag_only_on_synth(self, command, has_seed, capsys):
        assert main([command, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) is has_seed


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def one_thread_env() -> dict:
    """This environment with BLAS pinned by XMOD_THREADS=1 alone, and this
    checkout's xmod first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["XMOD_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(xmod.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestThreads:
    def test_xmod_threads_pins_blas(self):
        if not os.access("/proc/self/status", os.R_OK):
            pytest.skip("no /proc/self/status to count threads")
        probe = (
            "import xmod.cli, numpy as np\n"
            "a = np.ones((512, 512)); a @ a\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('Threads:'):\n"
            "        print(line.split()[1])\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=one_thread_env(), check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["1"]

    def blas_vars_after_import(self, xmod_threads, preset=None) -> dict:
        """The BLAS thread variables a fresh ``import xmod`` leaves, with
        XMOD_THREADS as given (None: unset) and ``preset`` already set."""
        env = one_thread_env()
        del env["XMOD_THREADS"]
        if xmod_threads is not None:
            env["XMOD_THREADS"] = xmod_threads
        env.update(preset or {})
        probe = ("import json, os, xmod\n"
                 f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return json.loads(out)

    @pytest.mark.parametrize("value", [None, "0", "-1", "two"],
                             ids=["unset", "zero", "negative", "word"])
    def test_no_positive_count_leaves_blas_at_its_default(self, value):
        assert self.blas_vars_after_import(value) == dict.fromkeys(BLAS_VARS)

    def test_a_preset_blas_variable_wins(self):
        got = self.blas_vars_after_import("2", {"OPENBLAS_NUM_THREADS": "1"})
        assert got == {**dict.fromkeys(BLAS_VARS, "2"), "OPENBLAS_NUM_THREADS": "1"}

    def test_associate_byte_identical_across_processes(self, workdir):
        digests = []
        for run in ("a", "b"):
            out, trace = workdir / f"labels_{run}", workdir / f"trace_{run}"
            subprocess.run([
                sys.executable, "-m", "xmod.cli", "associate",
                "--features-v", str(workdir / "data" / "visible.mfv1"),
                "--features-r", str(workdir / "data" / "infrared.mfv1"),
                "--config", str(workdir / "config.json"),
                "--trace", str(trace), "--out", str(out),
            ], env=one_thread_env(), check=True, capture_output=True)
            files = [(f"labels/{p.name}", p) for p in out.iterdir()]
            files += [(f"trace/{p.name}", p) for p in trace.iterdir()]
            digests.append({name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for name, p in files})
        labels = sorted(name for name in digests[0] if name.startswith("labels/"))
        assert labels == ["labels/cross_r.csv", "labels/cross_v.csv",
                          "labels/intra_r.csv", "labels/intra_v.csv"]
        assert any(name.startswith("trace/v2r_t") for name in digests[0])
        assert any(name.startswith("trace/r2v_t") for name in digests[0])
        assert digests[0] == digests[1]

    def test_this_process_runs_one_thread_under_xmod_threads_1(self):
        # conftest imports xmod before numpy, so the pin reaches this process
        if os.environ.get("XMOD_THREADS") != "1":
            print("XMOD_THREADS is not 1: thread count not checked")
            pytest.skip("XMOD_THREADS is not 1")
        a = np.ones((1500, 1500))
        (a @ a).sum()
        with open("/proc/self/status") as fh:
            threads = [line.split()[1] for line in fh if line.startswith("Threads:")]
        print(f"XMOD_THREADS=1: the test process runs {threads[0]} thread(s)")
        assert threads == ["1"]
