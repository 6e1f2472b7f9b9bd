"""Command-line behavior: flows, error lines, exit codes, reproducibility."""

import base64
import json
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qdetect.cli
from qdetect.cli import main
from qdetect.dataio import dumps_canonical, load_model, parse_sparse, serialize_sparse
from qdetect.metrics import predict_dataset
from qdetect.states import FeatureVector, LabeledDataset
from qdetect.synth import synth_corpus
from test_dataio import RETIRED_DOCUMENTS, format_four_document

# Corpora and the model, prediction and report files the version before the
# columnar corpus wrote for them (see GOLDEN_RUNS), apart from the
# predictions, rewritten by the dataset scorer, and the models, rewritten with
# model format 4 and then without the keys format 5 drops (the same vectors).
GOLDEN = Path(__file__).resolve().parent / "data" / "cli"
# The pgm model and predictions of the same run when M was Psi G^(-1/2) with
# G^(-1/2) formed as a matrix, before M came from the SVD of Psi.
INVERSE_ROOT = Path(__file__).resolve().parent / "data" / "inverse-root"
# The predictions of the same runs when each document was scattered into a
# dense row, normalized there and scored one column at a time.
DENSE_ROWS = Path(__file__).resolve().parent / "data" / "dense-rows"
# strategy -> (train file, extra train arguments, test file)
GOLDEN_RUNS = {
    "pgm": ("train.txt", [], "test.txt"),
    "ovr": ("train.txt", ["--dim", "30"], "test.txt"),
    "binary": ("binary-train.txt", [], "binary-test.txt"),
}

TWO_CLASS = """ham 0:3 1:1
ham 0:2
spam 2:1 3:2
spam 3:1
"""

FOUR_CLASS_FILE = None  # built per test from synth_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTrain:
    def test_single_class_is_a_degenerate_corpus(self, tmp_path, capsys):
        data = write(tmp_path, "one.txt", "only 0:1\nonly 1:2\n")
        rc = main(["train", "--data", data, "--strategy", "binary",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR degenerate-corpus:")
        assert err.count("\n") == 1

    def test_binary_train_writes_model(self, tmp_path):
        data = write(tmp_path, "two.txt", TWO_CLASS)
        out = tmp_path / "m.json"
        assert main(["train", "--data", data, "--strategy", "binary", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 5
        assert doc["strategy"] == "binary"
        assert doc["labels"] == ["ham", "spam"]
        # a mask of the 4 features, of which e uses the ham ones, 0 and 1, then their doubles
        raw = base64.b64decode(doc["vectors"], validate=True)
        assert (raw[:1], len(raw)) == (bytes([0b1100_0000]), 1 + 1 * 2 * 8)

    def test_nearly_parallel_classes_train_for_pgm(self, tmp_path):
        # cond(G) is about 1.6e9; M = U V^T from the SVD of Psi is orthogonal
        # to rounding, where forming G^(-1/2) left M^T M no projector within 1e-10
        text = "a 0:1\n" * 20000 + "a 1:1\n" + "b 0:1\n" * 20000 + "b 1:1\n" * 2 + "c 2:1\n" * 5
        data = write(tmp_path, "parallel.txt", text)
        model = str(tmp_path / "m.json")
        assert main(["train", "--data", data, "--strategy", "pgm", "--out", model]) == 0
        vectors = load_model(model).vectors
        assert np.linalg.norm(vectors.T @ vectors - np.eye(3)) <= 1e-13
        assert load_model(model).kind == "projective"
        assert main(["evaluate", "--model", model, "--data", data,
                     "--out", str(tmp_path / "report.json")]) == 0

    def test_prior_rejected_for_pgm(self, tmp_path, capsys):
        data = write(tmp_path, "two.txt", TWO_CLASS)
        rc = main(["train", "--data", data, "--strategy", "pgm", "--prior", "0.5",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR usage:")

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.txt"), "--strategy", "pgm",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR io:")

    def test_dim_flag_widens_feature_space(self, tmp_path):
        data = write(tmp_path, "two.txt", TWO_CLASS)
        out = tmp_path / "m.json"
        assert main(["train", "--data", data, "--strategy", "ovr", "--dim", "9",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 9


class TestPredictEvaluate:
    def run_pipeline(self, tmp_path, strategy="pgm"):
        corpus = synth_corpus("orthogonal", 6, 0.0, seed=13, n_classes=3)
        data = write(tmp_path, "data.txt", serialize_sparse(corpus))
        model = str(tmp_path / "model.json")
        preds = str(tmp_path / "preds.tsv")
        report = str(tmp_path / "report.json")
        assert main(["train", "--data", data, "--strategy", strategy, "--out", model]) == 0
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        assert main(["evaluate", "--model", model, "--data", data, "--out", report]) == 0
        return data, model, preds, report

    @pytest.mark.parametrize("strategy", ["pgm", "ovr"])
    def test_full_pipeline(self, tmp_path, strategy):
        _, _, preds, report = self.run_pipeline(tmp_path, strategy)
        lines = open(preds).read().splitlines()
        assert len(lines) == 18
        for i, line in enumerate(lines):
            idx, label, value = line.split("\t")
            assert int(idx) == i
            assert label.startswith("class")
            float(value)
        doc = json.loads(open(report).read())
        assert doc["accuracy"] == 1.0
        assert doc["micro_f1"] == doc["accuracy"]

    def test_perfect_report_contains_zero_cost_literal(self, tmp_path):
        _, _, _, report = self.run_pipeline(tmp_path)
        assert '"empirical_cost":0.0' in open(report).read()

    def test_cost_matrix_file(self, tmp_path):
        data, model, _, _ = self.run_pipeline(tmp_path)
        cost = write(tmp_path, "cost.json", "[[0,2,2],[2,0,2],[2,2,0]]")
        report = str(tmp_path / "weighted.json")
        assert main(["evaluate", "--model", model, "--data", data,
                     "--cost", cost, "--out", report]) == 0
        assert json.loads(open(report).read())["empirical_cost"] == 0.0

    def test_huge_costs_are_reported(self, tmp_path):
        cost = write(tmp_path, "cost.json", json.dumps((1e308 * (1 - np.eye(4))).tolist()))
        report = tmp_path / "report.json"
        assert main(["evaluate", "--model", str(GOLDEN / "pgm.json"), "--data",
                     str(GOLDEN / "test.txt"), "--cost", cost, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["empirical_cost"] == pytest.approx((1.0 - doc["accuracy"]) * 1e308, rel=1e-15)

    # numpy reads at most 32 nested lists
    @pytest.mark.parametrize("text", ["[[0,1e999,2],[2,0,2],[2,2,0]]",
                                      "[[0,-1,2],[2,0,2],[2,2,0]]", "[[0,1],[1,0]]",
                                      "[" * 40 + "0" + "]" * 40])
    def test_bad_cost_file(self, tmp_path, capsys, text):
        data, model, _, _ = self.run_pipeline(tmp_path)
        cost = write(tmp_path, "cost.json", text)
        rc = main(["evaluate", "--model", model, "--data", data, "--cost", cost,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "ERROR format: cost file must hold a finite nonnegative 3x3 JSON array\n")

    def test_cost_file_is_checked_before_the_data_is_read(self, tmp_path, capsys):
        cost = write(tmp_path, "cost.json", "[[0,1],[1,0]]")
        rc = main(["evaluate", "--model", str(GOLDEN / "pgm.json"),
                   "--data", str(tmp_path / "absent.txt"), "--cost", cost,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "ERROR format: cost file must hold a finite nonnegative 4x4 JSON array\n")

    def test_unseen_label(self, tmp_path, capsys):
        data, model, _, _ = self.run_pipeline(tmp_path)
        other = write(tmp_path, "other.txt", "mystery 0:1 1:1\n")
        rc = main(["evaluate", "--model", model, "--data", other,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR unseen-labels:")

    def test_wide_data_rejected(self, tmp_path, capsys):
        data, model, _, _ = self.run_pipeline(tmp_path)
        wide = write(tmp_path, "wide.txt", "class0 0:1 99:1\n")
        rc = main(["predict", "--model", model, "--data", wide,
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR dim-mismatch:")

    def test_extreme_values_score_like_moderate_ones(self, tmp_path, capsys):
        train = write(tmp_path, "train.txt", "a 0:2 1:1\na 0:1 1:3\nb 2:1\nb 1:1 2:4\n")
        model = str(tmp_path / "model.json")
        assert main(["train", "--data", train, "--strategy", "pgm", "--out", model]) == 0
        rows = {}
        for name, text in (("extreme", "a 0:1e308 1:1e308\nb 2:1e-320\n"),
                           ("moderate", "a 0:1 1:1\nb 2:1\n")):
            data = write(tmp_path, f"{name}.txt", text)
            preds = tmp_path / f"{name}.tsv"
            assert main(["predict", "--model", model, "--data", data, "--out", str(preds)]) == 0
            rows[name] = [line.split("\t") for line in preds.read_text().splitlines()]
        assert rows["extreme"] == rows["moderate"]
        assert [label for _, label, _ in rows["extreme"]] == ["a", "b"]
        infinite = write(tmp_path, "inf.txt", "a 0:inf\n")
        rc = main(["predict", "--model", model, "--data", infinite,
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR parse: line 1:")

    @pytest.mark.parametrize("bad, code", [
        ("data", "parse"), ("wide data", "dim-mismatch"), ("version", "unsupported-version"),
        ("label", "format"),
    ])
    def test_failed_predict_keeps_the_out_file(self, tmp_path, capsys, bad, code):
        _, model, preds, _ = self.run_pipeline(tmp_path)
        text = Path(model).read_text(encoding="utf-8")
        model_text = {"version": '{"format_version":99,"strategy":"pgm"}',
                      "label": text.replace('"class0"', '"\\udcff"')}.get(bad, text)
        data_text = {"data": "class0 0:1\nclass1 0:x\n",
                     "wide data": "class0 0:1 99:1\n"}.get(bad, "class0 0:1\n")
        before = Path(preds).read_bytes()
        capsys.readouterr()
        rc = main(["predict", "--model", write(tmp_path, "m.json", model_text),
                   "--data", write(tmp_path, "in.txt", data_text), "--out", preds])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ERROR {code}:")
        assert Path(preds).read_bytes() == before

    def test_unsupported_model_version(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", '{"format_version":99,"strategy":"binary"}')
        data = write(tmp_path, "two.txt", TWO_CLASS)
        rc = main(["predict", "--model", bad, "--data", data,
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR unsupported-version:")

    @pytest.mark.parametrize("version", sorted(RETIRED_DOCUMENTS))
    def test_retired_model_format(self, tmp_path, capsys, version):
        model = write(tmp_path, "old.json", json.dumps(RETIRED_DOCUMENTS[version]))
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", model, "--data", write(tmp_path, "data.txt", "a 0:1\n"),
                   "--out", str(out)])
        assert rc == 1
        assert re.match(r"ERROR unsupported-version: .*version \d \(expected 5\)",
                        capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("strategy", sorted(GOLDEN_RUNS))
    def test_format_four_golden_is_refused(self, tmp_path, capsys, strategy):
        _, _, test = GOLDEN_RUNS[strategy]
        doc = format_four_document(load_model(GOLDEN / f"{strategy}.json"))
        model = write(tmp_path, "old.json", dumps_canonical(doc))
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", model, "--data", str(GOLDEN / test), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "ERROR unsupported-version: unsupported model format_version 4 (expected 5)\n")
        assert not out.exists()

    def test_model_labels_no_dataset_line_can_hold(self, tmp_path, capsys):
        # predict once wrote these labels into its TSV as "0\ta\nb\t..." and "5\t\t..."
        doc = json.loads((GOLDEN / "pgm.json").read_text(encoding="utf-8"))
        doc["labels"][:2] = ["a\nb", ""]
        model = write(tmp_path, "labels.json", json.dumps(doc))
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", model, "--data", str(GOLDEN / "test.txt"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR format:")
        assert not out.exists()

    def format_errors(self, tmp_path, capsys, model, cost):
        """The stderr of ``predict --model model`` and of ``evaluate --cost cost``, each exit 1."""
        errs = []
        for argv in (["predict", "--model", model],
                     ["evaluate", "--model", str(GOLDEN / "pgm.json"), "--cost", cost]):
            assert main([*argv, "--data", str(GOLDEN / "test.txt"),
                         "--out", str(tmp_path / "out")]) == 1
            errs.append(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        return errs

    def test_nested_model_or_cost_file(self, tmp_path, capsys):
        # json.load recurses once per "[", past Python's recursion limit
        nested = write(tmp_path, "nested.json", "[" * 200_000)
        for err in self.format_errors(tmp_path, capsys, nested, nested):
            assert err.startswith("ERROR format: ") and err.count("\n") == 1

    def test_integer_too_large_for_a_double(self, tmp_path, capsys):
        huge = "9" * 400  # json.load reads it as an int, which float() and numpy refuse
        text, count = re.subn(r'"priors":\[[^,]+', f'"priors":[{huge}',
                              (GOLDEN / "pgm.json").read_text(encoding="utf-8"))
        assert count == 1
        model = write(tmp_path, "model.json", text)
        cost = write(tmp_path, "cost.json", json.dumps([[int(huge)] * 4] * 4))
        assert self.format_errors(tmp_path, capsys, model, cost) == [
            "ERROR format: model file is inconsistent: int too large to convert to float\n",
            "ERROR format: cost file must hold a finite nonnegative 4x4 JSON array\n"]

    def test_reruns_are_byte_identical(self, tmp_path):
        corpus = synth_corpus("orthogonal", 5, 0.1, seed=23, n_classes=2)
        data = write(tmp_path, "data.txt", serialize_sparse(corpus))
        outs = []
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.json"
            preds = tmp_path / f"preds_{tag}.tsv"
            assert main(["train", "--data", data, "--strategy", "ovr",
                         "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--data", data,
                         "--out", str(preds)]) == 0
            outs.append((model.read_bytes(), preds.read_bytes()))
        assert outs[0] == outs[1]


class TestOutFile:
    """Each command writes ``--out`` over its old bytes: what a fresh path gets, nothing more."""

    @pytest.fixture
    def commands(self, tmp_path):
        """The pgm golden run's arguments of each command, but for ``--out``."""
        train, extra, test = GOLDEN_RUNS["pgm"]
        train_args = ["train", "--data", str(GOLDEN / train), "--strategy", "pgm", *extra]
        model = str(tmp_path / "model.json")
        assert main(train_args + ["--out", model]) == 0
        return {"train": train_args,
                "predict": ["predict", "--model", model, "--data", str(GOLDEN / test)],
                "evaluate": ["evaluate", "--model", model, "--data", str(GOLDEN / test)]}

    @pytest.mark.parametrize("old", ["x" * 200_000, "x"], ids=["longer", "shorter"])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_an_existing_file_gets_the_bytes_of_a_fresh_one(self, tmp_path, commands, command,
                                                            old):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        out.write_text(old, encoding="utf-8")
        for path in (fresh, out):
            assert main(commands[command] + ["--out", str(path)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_a_symlink_is_written_through(self, tmp_path, commands, command):
        fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
        target.write_text("x" * 200_000, encoding="utf-8")
        link.symlink_to(target)
        for path in (fresh, link):
            assert main(commands[command] + ["--out", str(path)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_devnull(self, commands, command, capsys):
        assert main(commands[command] + ["--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""


class TestModelScalars:
    # json.load reads 1e999 as inf, which the NaN/Infinity literal check never sees
    @pytest.mark.parametrize("strategy, field, value, check", [
        ("binary", "threshold", "1.5", "threshold must lie in [0, 1]"),
        ("binary", "prior_negative", "1.0", "prior_negative must lie strictly inside (0, 1)"),
        ("binary", "eta", "1e999", "eta and beta must be finite, with eta > 0 > beta"),
        ("ovr", "beta", "0.0", "eta and beta must be finite, with eta > 0 > beta"),
    ])
    def test_out_of_range_scalar_is_a_format_error(self, tmp_path, capsys, strategy, field,
                                                   value, check):
        _, _, test = GOLDEN_RUNS[strategy]
        text, count = re.subn(f'"{field}":[^,}}]+', f'"{field}":{value}',
                              (GOLDEN / f"{strategy}.json").read_text(encoding="utf-8"), count=1)
        assert count == 1
        model = write(tmp_path, "model.json", text)
        rc = main(["predict", "--model", model, "--data", str(GOLDEN / test),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR format:")
        assert err.endswith(f"{check}\n")
        assert err.count("\n") == 1

    # a field that the writer does not write, such as a value format 4 stored and the
    # model now derives: lambda, or a one-vs-rest detector's prior or threshold
    @pytest.mark.parametrize("strategy, owner, field", [
        ("binary", "file", "lambda"),
        ("ovr", "detector", "threshold"),
        ("ovr", "detector", "prior_negative"),
        ("pgm", "file", "threshold"),
    ])
    def test_unwritten_field_is_a_format_error(self, tmp_path, capsys, strategy, owner,
                                               field):
        _, _, test = GOLDEN_RUNS[strategy]
        doc = json.loads((GOLDEN / f"{strategy}.json").read_text(encoding="utf-8"))
        (doc if owner == "file" else doc["detectors"][0])[field] = 0.5
        model = write(tmp_path, "model.json", json.dumps(doc))
        rc = main(["predict", "--model", model, "--data", str(GOLDEN / test),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        where = "model file" if owner == "file" else "a detector"
        assert capsys.readouterr().err == (
            f"ERROR format: {where} holds field '{field}', which format 5 does not write\n")


def test_pgm_kind_that_disagrees_with_its_vectors_is_a_format_error(tmp_path, capsys):
    # the golden pgm model has 4 orthonormal columns, so its kind is projective; the rank
    # decides the kind, so a file that states one is refused, whether it agrees or not
    assert load_model(GOLDEN / "pgm.json").kind == "projective"
    doc = json.loads((GOLDEN / "pgm.json").read_text(encoding="utf-8"))
    for kind in ("povm", "projective"):
        model = write(tmp_path, "model.json", json.dumps(dict(doc, kind=kind)))
        rc = main(["predict", "--model", model, "--data", str(GOLDEN / "test.txt"),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "ERROR format: model file holds field 'kind', which format 5 does not write\n")


def run_golden(tmp_path, strategy):
    """Train, predict and evaluate on the golden corpora; returns file name -> bytes."""
    train, extra, test = GOLDEN_RUNS[strategy]
    outs = {f"{strategy}.json": tmp_path / f"{strategy}.json",
            f"{strategy}.tsv": tmp_path / f"{strategy}.tsv",
            f"{strategy}.report.json": tmp_path / f"{strategy}.report.json"}
    model, preds, report = (str(path) for path in outs.values())
    assert main(["train", "--data", str(GOLDEN / train), "--strategy", strategy, *extra,
                 "--out", model]) == 0
    assert main(["predict", "--model", model, "--data", str(GOLDEN / test),
                 "--out", preds]) == 0
    assert main(["evaluate", "--model", model, "--data", str(GOLDEN / test),
                 "--out", report]) == 0
    return {name: path.read_bytes() for name, path in outs.items()}


def assert_last_bits_move(tmp_path, strategy, old_files, bound):
    """Golden outputs against the model and predictions in ``old_files``.

    The labels must be equal and the vectors within ``bound`` (Frobenius).  A
    unit row x scores s = (x . v)^2, so a change dv in v moves s by at most
    2 sqrt(s) |dv| to first order, plus the rounding of the two evaluations.
    Small scores therefore move by more ulps of s than large ones.
    """
    outs = run_golden(tmp_path, strategy)
    got = [line.split("\t") for line in outs[f"{strategy}.tsv"].decode().splitlines()]
    want = [line.split("\t") for line in (old_files / f"{strategy}.tsv").read_text().splitlines()]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    new = np.array([float(row[2]) for row in got])
    old = np.array([float(row[2]) for row in want])
    dv = float(np.linalg.norm(load_model(tmp_path / f"{strategy}.json").vectors
                              - load_model(old_files / f"{strategy}.json").vectors))
    assert dv <= bound
    assert np.all(np.abs(new - old) <= 2 * np.sqrt(old) * dv + 2 * np.spacing(old))
    return outs


class TestGoldenOutputs:
    @pytest.mark.parametrize("strategy", sorted(GOLDEN_RUNS))
    def test_outputs_are_byte_identical(self, tmp_path, strategy):
        for name, got in run_golden(tmp_path, strategy).items():
            assert got == (GOLDEN / name).read_bytes(), name

    @pytest.mark.parametrize("strategy", sorted(GOLDEN_RUNS))
    def test_tsv_rows_are_the_predict_dataset_rows(self, tmp_path, strategy):
        _, _, test = GOLDEN_RUNS[strategy]
        model, preds = GOLDEN / f"{strategy}.json", tmp_path / "p.tsv"
        assert main(["predict", "--model", str(model), "--data", str(GOLDEN / test),
                     "--out", str(preds)]) == 0
        with open(GOLDEN / test, encoding="utf-8") as fh:
            rows = predict_dataset(load_model(model), parse_sparse(fh))
        lines = [line.split("\t") for line in preds.read_text(encoding="utf-8").splitlines()]
        assert [(int(i), label, float(score)) for i, label, score in lines] == [
            (i, label, value) for i, (label, value, _) in enumerate(rows)]

    def test_pgm_scores_move_in_the_last_bits_from_the_inverse_root(self, tmp_path):
        # M = U V^T from the SVD of Psi is the matrix Psi G^(-1/2) was, up to rounding
        outs = assert_last_bits_move(tmp_path, "pgm", INVERSE_ROOT, 1e-13)
        assert outs["pgm.report.json"] == (INVERSE_ROOT / "pgm.report.json").read_bytes()

    @pytest.mark.parametrize("strategy", sorted(GOLDEN_RUNS))
    def test_scores_move_in_the_last_bits_from_dense_rows(self, tmp_path, strategy):
        # The dataset scorer normalizes each document on its own entries and
        # scores a block of rows by one product, so sums run in another order.
        outs = run_golden(tmp_path, strategy)
        got = [line.split("\t") for line in outs[f"{strategy}.tsv"].decode().splitlines()]
        want = [line.split("\t")
                for line in (DENSE_ROWS / f"{strategy}.tsv").read_text().splitlines()]
        assert [row[:2] for row in got] == [row[:2] for row in want]
        old = np.array([float(row[2]) for row in want])
        assert np.all(np.abs(np.array([float(row[2]) for row in got]) - old)
                      <= 8 * np.spacing(old))
        report = f"{strategy}.report.json"
        assert outs[report] == (GOLDEN / report).read_bytes()

    def test_no_feature_vector_on_the_command_path(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a FeatureVector was built on the command path")

        monkeypatch.setattr(FeatureVector, "__post_init__", refuse)
        for strategy in ("binary", "pgm", "ovr"):
            for name, got in run_golden(tmp_path, strategy).items():
                assert got == (GOLDEN / name).read_bytes(), name


class TestUndecodableData:
    # 2000 good lines: the bad byte lies past the first block the file is decoded in
    GOOD = b"a 0:1 1:2\nb 2:1\n" * 1000

    def write_data(self, tmp_path, bad):
        data = tmp_path / "data.txt"
        data.write_bytes(self.GOOD + b"# a comment\n" + bad + b"a 0:1\n")
        return str(data)

    @pytest.mark.parametrize("bad", [b"c\xffd 0:1\n", b"b 0:1 1:\xff\n"], ids=["label", "pair"])
    def test_train_names_the_line(self, tmp_path, capsys, bad):
        out = tmp_path / "m.json"
        rc = main(["train", "--data", self.write_data(tmp_path, bad), "--strategy", "pgm",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR parse: line 2002: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", [b"c\xffd 0:1\n", b"b 0:1 1:\xff\n"], ids=["label", "pair"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_scoring_names_the_line(self, tmp_path, capsys, bad, command):
        model = str(tmp_path / "m.json")
        assert main(["train", "--data", write(tmp_path, "two.txt", TWO_CLASS),
                     "--strategy", "binary", "--out", model]) == 0
        rc = main([command, "--model", model, "--data", self.write_data(tmp_path, bad),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR parse: line 2002: ")

    def test_utf8_labels_are_kept(self, tmp_path):
        out = tmp_path / "m.json"
        data = write(tmp_path, "data.txt", "caf\u00e9 0:1\n\u65e5\u672c 1:1\n")
        assert main(["train", "--data", data, "--strategy", "pgm", "--out", str(out)]) == 0
        labels = json.loads(out.read_text(encoding="utf-8"))["labels"]
        assert labels == ["caf\u00e9", "\u65e5\u672c"]


class TestResourceErrors:
    def test_memory_error_is_a_coded_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(qdetect.cli, "pgm_from_statistics", exhausted)
        data = write(tmp_path, "two.txt", TWO_CLASS)
        rc = main(["train", "--data", data, "--strategy", "pgm",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "ERROR memory: Unable to allocate 22.4 GiB for an array\n"

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "ovr"])
    def test_index_past_the_address_space(self, tmp_path, capsys, strategy):
        # dim 2**62 + 1: the count table cannot exist, so nothing is allocated
        data = write(tmp_path, "wide.txt", f"a 0:1\nb {2**62}:1\n")
        rc = main(["train", "--data", data, "--strategy", strategy,
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR memory:")

    def test_index_past_int64_is_a_parse_error(self, tmp_path, capsys):
        data = write(tmp_path, "huge.txt", "a 0:1\nb 99999999999999999999:1\n")
        rc = main(["train", "--data", data, "--strategy", "pgm",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR parse: line 2:")


class TestBench:
    @pytest.mark.parametrize("suite", ["helstrom", "trine", "synthetic"])
    def test_suite_passes(self, suite, capsys):
        assert main(["bench", "--suite", suite]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("suite", ["helstrom", "trine", "synthetic"])
    def test_negative_seed_is_a_usage_error(self, suite, capsys):
        assert main(["bench", "--suite", suite, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "ERROR usage: --seed must be nonnegative, got -1\n"
        assert captured.out == ""

    def test_synthetic_suite_trains_on_the_split_datasets(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("per-document objects were built from a dataset")

        monkeypatch.setattr(LabeledDataset, "documents", property(refuse))
        assert main(["bench", "--suite", "synthetic"]) == 0


class TestOracle:
    def test_helstrom_mode(self, capsys):
        assert main(["oracle", "--mode", "helstrom", "--angles", "0,45"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("helstrom_cost = 0.146446609")

    def test_grid_mode_trine(self, capsys):
        assert main(["oracle", "--mode", "grid", "--angles", "0,120,240",
                     "--resolution", "30000"]) == 0
        out = capsys.readouterr().out
        cost = float(out.splitlines()[0].split("=")[1])
        assert abs(cost - 1.0 / 3.0) <= 1e-3

    def test_bad_priors(self, capsys):
        rc = main(["oracle", "--mode", "helstrom", "--angles", "0,45",
                   "--priors", "0.9,0.9"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR usage:")


@pytest.mark.parametrize("argv", [
    ["train", "--strategy", "binary", "--threshold", "2"],
    ["train", "--strategy", "binary", "--threshold", "nan"],
    ["train", "--strategy", "ovr", "--threshold", "0.3"],
    ["oracle", "--mode", "grid", "--angles", "0"],
    ["oracle", "--mode", "grid", "--angles", "0,30,60,90"],
    ["oracle", "--mode", "grid", "--angles", "0,45", "--resolution", "10"],
    ["oracle", "--mode", "grid", "--angles", "0,45", "--priors", "0.5,0.5000000001"],
    ["oracle", "--mode", "helstrom", "--angles", "0,45", "--priors", "0.5,0.5000000001"],
    ["oracle", "--mode", "helstrom", "--angles", "0,nan"],
    ["oracle", "--mode", "grid", "--angles", ","],
    ["oracle", "--mode", "grid", "--angles", "0,x"],
    ["oracle", "--mode", "grid", "--angles", "0,45", "--priors", "0.5"],
    ["oracle", "--mode", "helstrom", "--angles", "0,45,90"],
])
def test_input_errors_are_one_coded_line(tmp_path, capsys, argv):
    if argv[0] == "train":
        argv = argv + ["--data", write(tmp_path, "two.txt", TWO_CLASS),
                       "--out", str(tmp_path / "m.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"ERROR usage: [^\n]+\n", captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestParser:
    def test_built_once_per_process(self, capsys):
        qdetect.cli._parser.cache_clear()
        with mock.patch.object(qdetect.cli, "build_parser", wraps=qdetect.cli.build_parser) as build:
            for angles in ("0,45", "0,30"):
                assert main(["oracle", "--mode", "helstrom", "--angles", angles]) == 0
        assert build.call_count == 1
        assert capsys.readouterr().out.count("helstrom_cost") == 2
