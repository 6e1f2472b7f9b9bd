"""Command-line behavior: flows, error lines, exit codes, reproducibility."""

import json

import pytest

from qdetect.cli import main
from qdetect.dataio import serialize_sparse
from qdetect.synth import synth_corpus

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
        assert doc["format_version"] == 1
        assert doc["strategy"] == "binary"
        assert doc["labels"] == ["ham", "spam"]

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


class TestBench:
    @pytest.mark.parametrize("suite", ["helstrom", "trine", "synthetic"])
    def test_suite_passes(self, suite, capsys):
        assert main(["bench", "--suite", suite]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(line.startswith("PASS") for line in lines)


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
