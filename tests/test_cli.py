import json
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
from xmod.core import Modality
from xmod.fileio import read_features, read_labels

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


def run_associate(workdir, method="mult", direction="both", trace=None):
    out = workdir / f"labels_{method}_{direction}"
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


class TestCluster:
    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_labels_and_prototypes(self, workdir, metric):
        labels_path = workdir / f"labels_{metric}.csv"
        protos_path = workdir / f"protos_{metric}.mfv1"
        code = main([
            "cluster", "--features", str(workdir / "data" / "visible.mfv1"),
            "--metric", metric, "--min-samples", "3",
            "--config", str(workdir / "config.json"),
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
        labels_path = workdir / "labels.csv"
        protos_path = workdir / "protos.mfv1"
        code = main([
            "cluster", "--features", str(workdir / "data" / "visible.mfv1"),
            "--eps", "0.0001",
            "--out-labels", str(labels_path),
            "--out-prototypes", str(protos_path),
        ])
        assert code == 2
        assert "noise" in capsys.readouterr().err
        assert not labels_path.exists() and not protos_path.exists()


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


class TestEval:
    def test_metrics_json_validates_and_is_perfect(self, workdir):
        _, labels = run_associate(workdir)
        out = workdir / "metrics.json"
        code = main([
            "eval",
            "--labels-intra-v", str(labels / "intra_v.csv"),
            "--labels-cross-r", str(labels / "cross_r.csv"),
            "--labels-intra-r", str(labels / "intra_r.csv"),
            "--labels-cross-v", str(labels / "cross_v.csv"),
            "--gt", str(workdir / "data" / "ground_truth.csv"),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("metrics_report.schema.json"))
        assert all(value == 1.0 for value in payload.values())

    def test_exclude_self_flag(self, workdir):
        _, labels = run_associate(workdir)
        out = workdir / "metrics_noself.json"
        code = main([
            "eval",
            "--labels-intra-v", str(labels / "intra_v.csv"),
            "--labels-cross-r", str(labels / "cross_r.csv"),
            "--labels-intra-r", str(labels / "intra_r.csv"),
            "--labels-cross-v", str(labels / "cross_v.csv"),
            "--gt", str(workdir / "data" / "ground_truth.csv"),
            "--exclude-self", "--out", str(out),
        ])
        assert code == 0
        jsonschema.validate(json.loads(out.read_text()),
                            load_schema("metrics_report.schema.json"))


def loss_report_argv(workdir, labels, out):
    """Cluster both modalities for banks; return a loss-report command line."""
    banks = {}
    for tag, source in (("v", "visible"), ("r", "infrared")):
        banks[tag] = workdir / f"protos_{tag}.mfv1"
        code = main([
            "cluster", "--features", str(workdir / "data" / f"{source}.mfv1"),
            "--min-samples", "3", "--config", str(workdir / "config.json"),
            "--out-labels", str(workdir / f"scratch_{tag}.csv"),
            "--out-prototypes", str(banks[tag]),
        ])
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
        "--bank-shared", str(banks["v"]),
        "--bank-intra-cross", str(banks["v"]),
        "--mode", "v",
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


class TestErrors:
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

    @pytest.mark.parametrize(
        "config",
        [{"kappa": "30"}, {"kappa": 2.5}, {"batch_size": True}, [1, 2],
         {"mu": 0.1}, {"seed": 0}, {"lambda": 10.0, "ot_lambda": 20.0}],
        ids=["str-int", "float-int", "bool-int", "list", "mu", "seed", "lambda"],
    )
    def test_bad_config_value_exit_2_one_line(self, workdir, capsys, config):
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
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,has_seed",
        [("synth", True), ("cluster", False), ("associate", False),
         ("loss-report", False), ("pipeline", False)],
    )
    def test_seed_flag_only_on_synth(self, command, has_seed, capsys):
        assert main([command, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) is has_seed


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
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
        env["XMOD_THREADS"] = "1"
        src = os.path.dirname(os.path.dirname(os.path.abspath(xmod.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["1"]
