import json
import os
import re

import numpy as np
import pytest

from xmod.core import Modality, XmodError
from xmod import fileio

from conftest import random_unit_rows
from oracles import read_labels_csv, write_labels_csv


def file_error(path, message):
    """A match pattern for exactly ``<path>: <message>``."""
    return f"^{re.escape(f'{path}: {message}')}$"


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, rng):
        m = random_unit_rows(rng, 13, 8)
        path = tmp_path / "feats.mfv1"
        fileio.write_features(path, m)
        back = fileio.read_features(path, Modality.VISIBLE)
        # float32 on disk, rows re-normalized on read
        assert back.data.shape == (13, 8)
        assert np.allclose(back.data, m, atol=1e-6)
        assert np.allclose(np.linalg.norm(back.data, axis=1), 1.0, atol=1e-12)

    def test_layout_is_exactly_header_plus_f32(self, tmp_path):
        m = np.eye(2, 3)
        path = tmp_path / "feats.mfv1"
        fileio.write_features(path, m)
        blob = path.read_bytes()
        assert blob[:4] == b"MFV1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 3
        assert len(blob) == 12 + 4 * 6
        vals = np.frombuffer(blob, dtype="<f4", offset=12).reshape(2, 3)
        assert np.allclose(vals, m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mfv1"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(XmodError, match=file_error(path, "bad magic b'NOPE'")):
            fileio.read_features(path, Modality.VISIBLE)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "trunc.mfv1"
        fileio.write_features(path, random_unit_rows(rng, 4, 4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(XmodError, match=file_error(path, "expected 76 bytes for 4x4, got 71")):
            fileio.read_features(path, Modality.VISIBLE)


class TestLabelFiles:
    def test_hard_only_round_trip(self, tmp_path):
        hard = np.array([0, 2, -1, 1])
        path = tmp_path / "labels.csv"
        fileio.write_labels(path, hard)
        back, soft = fileio.read_labels(path)
        assert back.tolist() == hard.tolist()
        assert soft is None

    def test_soft_round_trip(self, tmp_path):
        hard = np.array([1, -1])
        soft = np.array([[0.25, 0.75], [0.0, 0.0]])  # zero row marks "no label"
        path = tmp_path / "labels.csv"
        fileio.write_labels(path, hard, soft)
        text = path.read_text().splitlines()
        assert text[0] == "index,hard_label,p0,p1"
        back_hard, back_soft = fileio.read_labels(path)
        assert back_hard.tolist() == [1, -1]
        assert np.array_equal(back_soft, soft)

    def test_non_contiguous_index_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,hard_label\n0,1\n2,0\n")
        with pytest.raises(XmodError, match=file_error(path, "non-contiguous index at line 3")):
            fileio.read_labels(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_soft_value_rejected(self, tmp_path, bad):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label,p0,p1\n0,0,1.0,0.0\n1,1,{bad},1.0\n")
        with pytest.raises(XmodError, match=file_error(path, "non-finite soft label at line 3")):
            fileio.read_labels(path)

    @pytest.mark.parametrize("bad", ["abc", "", "0.5.1"], ids=["word", "empty", "two-points"])
    def test_non_numeric_soft_value_names_its_file_line(self, tmp_path, bad):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label,p0,p1\n0,1,0.0,1.0\n1,1,{bad},0.5\n")
        with pytest.raises(XmodError, match=file_error(path, "non-numeric soft label at line 3")):
            fileio.read_labels(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,hard_label,p0,p1\n0,1,0.0,1.0\n\n1,0,1.0,0.0\n\n")
        hard, soft = fileio.read_labels(path)
        assert hard.tolist() == [1, 0]
        assert soft.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize(
        "row, error",
        [("2,1,0.0,1.0", "non-contiguous index at line 4"),
         ("1,1,nan,1.0", "non-finite soft label at line 4"),
         ("1,1,0.0", "line 4 has 3 fields, the header 4")],
        ids=["gap-in-index", "non-finite", "short"],
    )
    def test_error_after_blank_row_names_its_file_line(self, tmp_path, row, error):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label,p0,p1\n0,0,1.0,0.0\n\n{row}\n")
        with pytest.raises(XmodError, match=file_error(path, error)):
            fileio.read_labels(path)

    @pytest.mark.parametrize(
        "rows, error",
        [(["0,0,1.0,0.0", "1,1,0.0,1.0"], "line 2 has 4 fields, the header 5"),
         (["0,0,1.0,0.0,0.0,0.0", "1,1,0.0,1.0,0.0,0.0"], "line 2 has 6 fields, the header 5"),
         (["0,0,1.0,0.0,0.0", "1,1,0.0,1.0"], "line 3 has 4 fields, the header 5")],
        ids=["short", "long", "ragged"],
    )
    def test_row_field_count_must_match_header(self, tmp_path, rows, error):
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(["index,hard_label,p0,p1,p2"] + rows) + "\n")
        with pytest.raises(XmodError, match=file_error(path, error)):
            fileio.read_labels(path)

    @pytest.mark.parametrize("soft", [True, False], ids=["soft", "hard-only"])
    @pytest.mark.parametrize("label, error", [
        (-5, "hard label -5 below -1 at line 3"),
        (2, "hard label 2 at line 3 has no soft column"),
        (99, "hard label 99 at line 3 has no soft column"),
    ], ids=["below-noise", "k", "far-past-k"])
    def test_impossible_hard_label_names_its_file_line(self, tmp_path, soft, label, error):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label,p0,p1\n0,1,0.0,1.0\n1,{label},1.0,0.0\n")
        with pytest.raises(XmodError, match=file_error(path, error)):
            fileio.read_labels(path, soft=soft)

    def test_any_cluster_id_without_soft_columns(self, tmp_path):
        # a cluster file has no soft columns, so only NOISE bounds its labels
        path = tmp_path / "labels.csv"
        path.write_text("index,hard_label\n0,-1\n1,99\n")
        assert fileio.read_labels(path)[0].tolist() == [-1, 99]
        path.write_text("index,hard_label\n0,-2\n")
        with pytest.raises(XmodError, match=file_error(path, "hard label -2 below -1 at line 2")):
            fileio.read_labels(path)

    @pytest.mark.parametrize("row", ["1,1.5", "x,1", "1,"], ids=["label", "index", "empty"])
    def test_non_integer_field_names_its_file_line(self, tmp_path, row):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label\n0,1\n{row}\n")
        with pytest.raises(XmodError,
                           match=file_error(path, "line 3 needs an integer index and hard_label")):
            fileio.read_labels(path)


def _bitwise_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _oracle_cases():
    rng = np.random.default_rng(11)
    random_soft = rng.dirichlet(np.full(7, 0.3), size=40)
    random_hard = random_soft.argmax(axis=1)
    random_hard[::5] = -1
    random_soft[::5] = 0.0
    return {
        "special-values": (np.array([0, 1, 2]),
                           np.array([[0.0, -0.0, 5e-324],
                                     [1e-05, 1e16, 1 / 3],
                                     [0.1, 2.5e-300, 1.0]])),
        "k1": (np.array([0, 0, -1, 0]), np.array([[1.0], [1.0], [0.0], [1.0]])),
        "k0": (np.array([4, -1]), np.zeros((2, 0))),
        "noise-zero-rows": (np.array([-1, 1, -1, 0]),
                            np.array([[0.0, 0.0], [0.2, 0.8], [0.0, 0.0], [0.6, 0.4]])),
        "hard-only": (np.array([0, 2, -1, 1, 10, 123456]), None),
        "single-row": (np.array([1]), np.array([[0.25, 0.75]])),
        "single-row-hard-only": (np.array([-1]), None),
        "random": (random_hard, random_soft),
    }


ORACLE_CASES = _oracle_cases()


class TestLabelFilesMatchCsvModule:
    """The split/join reader and writer against the ``csv``-module oracle."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_written_bytes_equal(self, tmp_path, case):
        hard, soft = ORACLE_CASES[case]
        fileio.write_labels(tmp_path / "new.csv", hard, soft)
        write_labels_csv(tmp_path / "ref.csv", hard, soft)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_read_back_bitwise_equal(self, tmp_path, case):
        hard, soft = ORACLE_CASES[case]
        path = tmp_path / "labels.csv"
        write_labels_csv(path, hard, soft)
        back_hard, back_soft = fileio.read_labels(path)
        ref_hard, ref_soft = read_labels_csv(path)
        assert _bitwise_equal(back_hard, ref_hard)
        assert _bitwise_equal(back_soft, ref_soft)
        if soft is not None and soft.shape[1]:
            assert _bitwise_equal(back_soft, soft.astype(np.float64))
        hard_only, none = fileio.read_labels(path, soft=False)
        assert _bitwise_equal(hard_only, ref_hard) and none is None

    @pytest.mark.parametrize("case", ["special-values", "hard-only", "random"])
    def test_crlf_reads_as_lf(self, tmp_path, case):
        hard, soft = ORACLE_CASES[case]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        fileio.write_labels(lf, hard, soft)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        for soft_wanted in (True, False):
            new = fileio.read_labels(crlf, soft=soft_wanted)
            ref = fileio.read_labels(lf, soft=soft_wanted)
            assert all(_bitwise_equal(a, b) for a, b in zip(new, ref))
        assert all(_bitwise_equal(a, b) for a, b in zip(fileio.read_labels(crlf),
                                                          read_labels_csv(crlf)))


# (file text, the XmodError message after "<path>: "); the csv-module
# oracle raises the same message on each, except that it unquotes fields.
STRUCTURAL_ERRORS = {
    "ragged": ("index,hard_label,p0,p1,p2\n0,0,1.0,0.0,0.0\n1,1,0.0,1.0\n",
               "line 3 has 4 fields, the header 5"),
    "short": ("index,hard_label,p0,p1\n0,0,1.0\n", "line 2 has 3 fields, the header 4"),
    "long": ("index,hard_label,p0\n0,0,1.0,0.0\n", "line 2 has 4 fields, the header 3"),
    "non-integer-label": ("index,hard_label,p0\n0,1.5,1.0\n",
                          "line 2 needs an integer index and hard_label"),
    "non-integer-index": ("index,hard_label,p0\nx,1,1.0\n",
                          "line 2 needs an integer index and hard_label"),
    "gap-in-index": ("index,hard_label,p0\n0,0,1.0\n2,0,1.0\n",
                     "non-contiguous index at line 3"),
    "bad-header": ("index,label,p0\n0,0,1.0\n", "expected an index,hard_label header"),
    "empty-file": ("", "expected an index,hard_label header"),
    "no-rows": ("index,hard_label,p0\n\n", "no label rows"),
    "gap-after-blank": ("index,hard_label,p0,p1\n0,0,1.0,0.0\n\n2,1,0.0,1.0\n",
                        "non-contiguous index at line 4"),
    "short-after-blank": ("index,hard_label,p0,p1\n0,0,1.0,0.0\n\n1,1,0.0\n",
                          "line 4 has 3 fields, the header 4"),
    "quoted": ('index,hard_label,p0\n0,0,1.0\n1,1,"0.5"\n', "line 3 has a quote; xmod CSVs are unquoted"),
    "soft-column-name": ("index,hard_label,q0\n0,0,1.0\n",
                         "expected soft columns p0..p0 after hard_label"),
    "soft-column-order": ("index,hard_label,p1,p0\n0,0,1.0,0.0\n",
                          "expected soft columns p0..p1 after hard_label"),
}


class TestLabelFileStructure:
    @pytest.mark.parametrize("soft", [True, False], ids=["soft", "hard"])
    @pytest.mark.parametrize("case", sorted(STRUCTURAL_ERRORS))
    def test_same_error_with_or_without_soft(self, tmp_path, case, soft):
        text, error = STRUCTURAL_ERRORS[case]
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(XmodError, match=file_error(path, error)):
            fileio.read_labels(path, soft=soft)
        if case != "quoted":
            with pytest.raises(XmodError, match=file_error(path, error)):
                read_labels_csv(path)

    @pytest.mark.parametrize("label", ["99999999999999999999999", "-9223372036854775809"],
                             ids=["above", "below"])
    @pytest.mark.parametrize("soft", [True, False], ids=["soft", "hard"])
    def test_hard_label_past_int64_names_its_file_line(self, tmp_path, label, soft):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label\n0,{label}\n")
        with pytest.raises(XmodError, match=file_error(
                path, f"hard_label {label} at line 2 does not fit int64")):
            fileio.read_labels(path, soft=soft)

    @pytest.mark.parametrize("bad", ["abc", "", "nan", "inf", "-inf"])
    def test_hard_only_read_leaves_soft_values_unparsed(self, tmp_path, bad):
        path = tmp_path / "labels.csv"
        path.write_text(f"index,hard_label,p0,p1\n0,1,0.0,1.0\n1,0,{bad},0.5\n")
        hard, soft = fileio.read_labels(path, soft=False)
        assert hard.tolist() == [1, 0] and soft is None
        kind = "non-finite" if bad in ("nan", "inf", "-inf") else "non-numeric"
        with pytest.raises(XmodError, match=file_error(path, f"{kind} soft label at line 3")):
            fileio.read_labels(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_soft_value_is_not_written(self, tmp_path, bad):
        soft = np.array([[0.5, 0.5], [1.0, 0.0], [bad, 0.0], [bad, bad]])
        path = tmp_path / "labels.csv"
        with pytest.raises(XmodError, match=file_error(path, "non-finite soft label in row 2")):
            fileio.write_labels(path, np.array([0, 0, 1, 1]), soft)
        assert list(tmp_path.iterdir()) == []


class TestGroundTruthFiles:
    def test_concatenated_round_trip(self, tmp_path):
        ids_v = np.array([0, 0, 1])
        ids_r = np.array([1, 0])
        path = tmp_path / "gt.csv"
        fileio.write_ground_truth(path, ids_v, ids_r)
        assert path.read_text().splitlines()[0] == "index,identity"
        back_v, back_r = fileio.read_ground_truth(path, n_visible=3)
        assert back_v.tolist() == [0, 0, 1]
        assert back_r.tolist() == [1, 0]

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("index,identity\n0,3\n\n1,4\n\n2,5\n")
        back_v, back_r = fileio.read_ground_truth(path, n_visible=2)
        assert back_v.tolist() == [3, 4]
        assert back_r.tolist() == [5]

    def test_index_gap_after_blank_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("index,identity\n0,3\n\n2,4\n")
        with pytest.raises(XmodError, match=file_error(path, "non-contiguous index at line 4")):
            fileio.read_ground_truth(path, n_visible=1)

    @pytest.mark.parametrize("row", ["x,1", "1,one"], ids=["index", "identity"])
    def test_non_integer_field_names_its_file_line(self, tmp_path, row):
        path = tmp_path / "gt.csv"
        path.write_text(f"index,identity\n0,3\n{row}\n")
        with pytest.raises(XmodError,
                           match=file_error(path, "line 3 needs an integer index and identity")):
            fileio.read_ground_truth(path, n_visible=1)

    def test_identity_past_int64_names_its_file_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("index,identity\n0,9223372036854775807\n1,99999999999999999999999\n")
        with pytest.raises(XmodError, match=file_error(
                path, "identity 99999999999999999999999 at line 3 does not fit int64")):
            fileio.read_ground_truth(path, n_visible=1)
        path.write_text("index,identity\n0,9223372036854775807\n")
        assert fileio.read_ground_truth(path, n_visible=1)[0].tolist() == [2**63 - 1]

    def test_columns_after_identity_are_refused(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("index,identity,note\n0,3,x\n1,4,x\n")
        with pytest.raises(XmodError, match=file_error(path, "expected an index,identity header")):
            fileio.read_ground_truth(path, n_visible=1)

    def test_short_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("index,identity\n0,3\n1\n")
        with pytest.raises(XmodError, match=file_error(path, "line 3 has 1 fields, the header 2")):
            fileio.read_ground_truth(path, n_visible=1)

    def test_bytes(self, tmp_path):
        path = tmp_path / "gt.csv"
        fileio.write_ground_truth(path, np.array([0, 0, 7]), np.array([7, 12]))
        assert path.read_bytes() == b"index,identity\n0,0\n1,0\n2,7\n3,7\n4,12\n"

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        fileio.write_ground_truth(path, np.array([0]), np.array([0]))
        with pytest.raises(XmodError,
                           match=file_error(path, "2 rows but 5 visible instances expected")):
            fileio.read_ground_truth(path, n_visible=5)


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        fileio.atomic_write_text(tmp_path / "out.txt", "hello")
        assert (tmp_path / "out.txt").read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.atomic_write_text(path, "one")
        fileio.atomic_write_text(path, "two")
        assert path.read_text() == "two"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_get_the_umask_mode(self, tmp_path, monkeypatch, umask, mode):
        # The kernel applies the umask. Reading it means setting it, which is
        # process-wide, so a write that calls os.umask fails here.
        set_umask = os.umask
        old = set_umask(umask)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", lambda mask: pytest.fail("os.umask called"))
                fileio.write_json(tmp_path / "report.json", {"a": 1})
                fileio.write_labels(tmp_path / "labels.csv", np.array([0, 1]), np.eye(2))
        finally:
            set_umask(old)
        for name in ("report.json", "labels.csv"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # renaming a file onto a nonempty directory fails after the write
        (tmp_path / "out" / "kept").mkdir(parents=True)
        with pytest.raises(OSError):
            fileio.atomic_write_text(tmp_path / "out", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        fileio.write_json(path, {"b": 1.5, "a": None})
        with open(path) as fh:
            assert json.load(fh) == {"b": 1.5, "a": None}
