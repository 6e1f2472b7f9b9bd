"""Command-line behavior: flows, error lines, exit codes, reproducibility."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qdetect.cli
from qdetect.cli import main
from qdetect.dataio import load_model, serialize_sparse
from qdetect.states import FeatureVector, LabeledDataset
from qdetect.synth import synth_corpus

# Corpora and the model, prediction and report files the version before the
# columnar corpus wrote for them (see GOLDEN_RUNS), apart from the binary
# model and predictions, rewritten with model format 3.
GOLDEN = Path(__file__).resolve().parent / "data" / "cli"
# The format 2 model and prediction files of the same runs.
FORMAT_TWO = Path(__file__).resolve().parent / "data" / "v2"
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
        assert doc["format_version"] == 3
        assert doc["strategy"] == "binary"
        assert doc["labels"] == ["ham", "spam"]
        assert len(doc["vectors"]) == 1 and len(doc["vectors"][0]) == 4

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

    def test_unsupported_model_version(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", '{"format_version":99,"strategy":"binary"}')
        data = write(tmp_path, "two.txt", TWO_CLASS)
        rc = main(["predict", "--model", bad, "--data", data,
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR unsupported-version:")

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


class TestGoldenOutputs:
    @pytest.mark.parametrize("strategy", sorted(GOLDEN_RUNS))
    def test_outputs_are_byte_identical(self, tmp_path, strategy):
        for name, got in run_golden(tmp_path, strategy).items():
            assert got == (GOLDEN / name).read_bytes(), name

    def test_binary_scores_move_in_the_last_bits_from_format_two(self, tmp_path):
        # Format 2 recovered e from the stored projector by an eigensolve;
        # format 3 keeps e as trained.  A unit row x scores s = (x . e)^2, so
        # a change de in e moves s by at most 2 sqrt(s) |de| to first order,
        # plus the rounding of the two evaluations.  Small scores therefore
        # move by more ulps of s than large ones: 5 ulp at s = 0.093 here.
        outs = run_golden(tmp_path, "binary")
        got = [line.split("\t") for line in outs["binary.tsv"].decode().splitlines()]
        want = [line.split("\t") for line in (FORMAT_TWO / "binary.tsv").read_text().splitlines()]
        assert [row[:2] for row in got] == [row[:2] for row in want]
        new = np.array([float(row[2]) for row in got])
        old = np.array([float(row[2]) for row in want])
        de = float(np.linalg.norm(load_model(tmp_path / "binary.json").vectors
                                  - load_model(FORMAT_TWO / "binary.json").vectors))
        assert de <= 4 * np.finfo(float).eps
        assert np.all(np.abs(new - old) <= 2 * np.sqrt(old) * de + 2 * np.spacing(old))

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

        monkeypatch.setattr(qdetect.cli, "train_pgm", exhausted)
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


class TestParser:
    def test_built_once_per_process(self, capsys):
        qdetect.cli._parser.cache_clear()
        with mock.patch.object(qdetect.cli, "build_parser", wraps=qdetect.cli.build_parser) as build:
            for angles in ("0,45", "0,30"):
                assert main(["oracle", "--mode", "helstrom", "--angles", angles]) == 0
        assert build.call_count == 1
        assert capsys.readouterr().out.count("helstrom_cost") == 2
