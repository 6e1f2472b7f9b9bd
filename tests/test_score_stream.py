"""``qdetect predict`` and ``evaluate`` score their file a parse range at a time.

Each converted range of a batch of lines (``dataio.DocumentReader``) is
scored as it arrives: ``evaluate`` counts its (label, pick) pairs and
``predict`` keeps only its lines of text.  What they write must be what the
library writes for the whole parse, however the lines fall into batches;
their errors must come in the whole parse's order; and the memory of
``evaluate`` must not grow with the number of documents.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from qdetect import dataio
from qdetect.cli import main
from qdetect.dataio import dumps_canonical, load_model, parse_sparse
from qdetect.metrics import evaluate, predictions_tsv
from test_cli import GOLDEN, GOLDEN_RUNS
from test_rank_one import write_wide_corpus
from test_train_stream import many_docs_text, written

STRATEGIES = sorted(GOLDEN_RUNS)
CHUNKS = (40, 4000, dataio._CHUNK_CHARS)


def library_outputs(model_path, data_path):
    """The TSV and report bytes of the library's ``predictions_tsv`` and ``evaluate``."""
    model = load_model(model_path)
    with open(data_path, encoding="utf-8") as fh:
        ds = parse_sparse(fh)
    return ("".join(predictions_tsv(model, ds)).encode("utf-8"),
            dumps_canonical(evaluate(model, ds).to_dict()).encode("utf-8"))


def cli_outputs(tmp_path, model_path, data_path, chunk_chars):
    outs = []
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
        for command in ("predict", "evaluate"):
            out = tmp_path / f"{command}.out"
            assert main([command, "--model", str(model_path), "--data", str(data_path),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
    return tuple(outs)


def assert_same_outputs(got, want, chunk_chars):
    """The CLI's outputs against the library's on the whole parse.

    A file of one batch is scored in the library's blocks, so every byte
    agrees.  Smaller batches move where the blocks start, and the BLAS
    product may then sum a row's terms in another order (numpy takes a
    vector routine for a one-row block; a block over fewer features drops
    zero terms): a score may move in its last bits, but no pick does.
    """
    (tsv, report), (want_tsv, want_report) = got, want
    assert report == want_report
    if chunk_chars == dataio._CHUNK_CHARS:
        assert tsv == want_tsv
    rows, want_rows = ([line.split("\t") for line in text.decode().splitlines()]
                       for text in (tsv, want_tsv))
    assert [row[:2] for row in rows] == [row[:2] for row in want_rows]
    np.testing.assert_allclose([float(row[2]) for row in rows],
                               [float(row[2]) for row in want_rows], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_golden_commands_write_the_library_outputs(tmp_path, strategy, chunk_chars):
    model, data = GOLDEN / f"{strategy}.json", GOLDEN / GOLDEN_RUNS[strategy][2]
    assert_same_outputs(cli_outputs(tmp_path, model, data, chunk_chars),
                        library_outputs(model, data), chunk_chars)


@pytest.fixture(scope="module")
def wide_runs(tmp_path_factory):
    """strategy -> (model, data) on a write_wide_corpus file at D = 5000, one batch long."""
    root = tmp_path_factory.mktemp("wide")
    runs = {}
    for strategy in STRATEGIES:
        data = root / f"{strategy}.txt"
        write_wide_corpus(data, 5000, n_classes=2 if strategy == "binary" else 8,
                          docs_per_class=40, seed=3)
        with open(data, encoding="utf-8") as fh:
            assert len(list(dataio._batches(fh))) == 1
        model = root / f"{strategy}.json"
        assert main(["train", "--data", str(data), "--strategy", strategy,
                     "--out", str(model)]) == 0
        runs[strategy] = model, data
    return runs


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_wide_commands_write_the_library_outputs(tmp_path, wide_runs, strategy, chunk_chars):
    model, data = wide_runs[strategy]
    assert_same_outputs(cli_outputs(tmp_path, model, data, chunk_chars),
                        library_outputs(model, data), chunk_chars)


class TestErrors:
    """Errors of a read whose lines fall into batches of one line each."""

    MODEL_TEXT = "a 0:1 1:2\nb 2:1 3:2\nc 1:1 3:1\n"  # a pgm model of dim 4

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "m.json"
        assert main(["train", "--data", written(tmp_path, "train.txt", self.MODEL_TEXT),
                     "--strategy", "pgm", "--out", str(path)]) == 0
        return str(path)

    @staticmethod
    def run(tmp_path, capsys, model, command, text, out_exists):
        """The one stderr line of a failed command, which leaves ``--out`` as it was."""
        out = tmp_path / "out"
        if out_exists:
            out.write_text("kept\n", encoding="utf-8")
        with mock.patch.object(dataio, "_CHUNK_CHARS", 1):
            rc = main([command, "--model", model, "--data", written(tmp_path, "d.txt", text),
                       "--out", str(out)])
        assert rc == 1
        assert (out.read_text(encoding="utf-8") == "kept\n") if out_exists else not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("out_exists", [False, True])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_later_bad_pair_comes_before_the_dim(self, tmp_path, capsys, model, command,
                                                   out_exists):
        text = "a 0:1 9:1\nb 1:1\nc 2:1 x:1\nb 3:1\n"
        err = self.run(tmp_path, capsys, model, command, text, out_exists)
        assert err == "ERROR parse: line 3: malformed pair 'x:1'\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_the_dim_is_the_whole_files(self, tmp_path, capsys, model, command):
        text = "a 0:1 9:1\nb 1:1\nc 2:1 12:1\nb 3:1\n"
        err = self.run(tmp_path, capsys, model, command, text, True)
        assert err == "ERROR dim-mismatch: dataset dim 13 exceeds model dim 4\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_no_documents(self, tmp_path, capsys, model, command):
        err = self.run(tmp_path, capsys, model, command, "# a comment\n\n", False)
        assert err == "ERROR parse: dataset contains no documents\n"

    @pytest.mark.parametrize("out_exists", [False, True])
    def test_unseen_labels_of_every_batch_are_listed_sorted(self, tmp_path, capsys, model,
                                                            out_exists):
        text = "a 0:1\nz 1:1\nb 2:1\ny 3:1\nz 0:1\n"
        err = self.run(tmp_path, capsys, model, "evaluate", text, out_exists)
        assert err == "ERROR unseen-labels: test labels not known to the model: ['y', 'z']\n"

    @pytest.mark.parametrize("text", ["a 0:1 9:1\nb 1:1\nz 2:1\n", "z 0:1\nb 1:1\na 2:1 9:1\n"],
                             ids=["index-first", "label-first"])
    def test_unseen_labels_come_before_the_dim(self, tmp_path, capsys, model, text):
        err = self.run(tmp_path, capsys, model, "evaluate", text, True)
        assert err == "ERROR unseen-labels: test labels not known to the model: ['z']\n"

    def test_predict_takes_any_label(self, tmp_path, model):
        out = tmp_path / "p.tsv"
        with mock.patch.object(dataio, "_CHUNK_CHARS", 1):
            assert main(["predict", "--model", model, "--out", str(out), "--data",
                         written(tmp_path, "d.txt", "z 0:1\na 2:1\n")]) == 0
        assert [line.split("\t")[:2] for line in out.read_text().splitlines()] == [
            ["0", "a"], ["1", "b"]]


def traced_peaks(tmp_path, model, command):
    """Traced peaks of ``command`` on a many-docs-style file and on ten copies, and its outputs."""
    peaks, outs = [], []
    for copies in (1, 10):
        data = tmp_path / f"x{copies}.txt"
        data.write_text(many_docs_text(copies), encoding="utf-8")
        out = tmp_path / f"{command}{copies}.out"
        tracemalloc.start()
        try:
            assert main([command, "--model", model, "--data", str(data),
                         "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outs.append(out)
    return peaks, outs


@pytest.fixture(scope="module")
def many_docs_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("many")
    data, model = root / "train.txt", root / "m.json"
    data.write_text(many_docs_text(1), encoding="utf-8")
    assert main(["train", "--data", str(data), "--strategy", "pgm", "--out", str(model)]) == 0
    return str(model)


def test_evaluate_peak_does_not_grow_with_the_documents(tmp_path, many_docs_model):
    # Parsing the whole file, evaluate peaked at 5.5 MiB on 6,000 lines and 27 MiB on 60,000.
    peaks, outs = traced_peaks(tmp_path, many_docs_model, "evaluate")
    once, tenfold = (json.loads(out.read_text(encoding="utf-8")) for out in outs)
    assert tenfold["confusion"] == [[10 * c for c in row] for row in once["confusion"]]
    assert peaks[1] <= 1.25 * peaks[0], f"peaks {[p / 2**20 for p in peaks]} MiB"


def test_predict_peak_grows_only_by_its_text(tmp_path, many_docs_model):
    peaks, outs = traced_peaks(tmp_path, many_docs_model, "predict")
    sizes = [out.stat().st_size for out in outs]
    # the text is held as one ASCII string a range until --out opens
    assert peaks[1] - peaks[0] <= 1.1 * (sizes[1] - sizes[0]) + 0.25 * peaks[0], (
        f"peaks {[p / 2**20 for p in peaks]} MiB, text {[s / 2**20 for s in sizes]} MiB")
