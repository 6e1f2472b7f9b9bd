"""``qdetect train`` counts its file a batch at a time: bytes, errors and memory.

The trainers read only the class counts, so ``train`` folds each batch of
lines into them (``class_statistics`` of a ``dataio.DocumentReader``) and
never holds the parsed file.  The model it writes must be the one the
library trains from the whole parse, its errors must name the same first
bad line, and its memory must not grow with the number of documents.
"""

import io
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qdetect
from qdetect import dataio
from qdetect.binary import train_binary
from qdetect.cli import main
from qdetect.dataio import DocumentReader, parse_sparse, save_model
from qdetect.multiclass import train_one_vs_rest, train_pgm
from qdetect.states import class_statistics

STRATEGIES = ("binary", "pgm", "ovr")


def document(rng, label, dim=40):
    indices = np.flatnonzero(rng.random(dim) < 0.3).tolist() or [0]
    counts = rng.integers(1, 4, len(indices)).tolist()
    return f"{label} " + " ".join(f"{k}:{c}" for k, c in zip(indices, counts)) + "\n"


def batched_corpus(classes):
    """Over three batches of lines: the last class first appears in the third.

    The first batch also holds blank and comment lines and a line that only
    the token-by-token path reads.
    """
    rng = np.random.default_rng(7)
    lines = ["# a corpus over three batches\n", "\n"]
    early = classes[:-1]
    while sum(map(len, lines)) < 2 * dataio._CHUNK_CHARS + 1000:
        lines.append(document(rng, early[len(lines) % len(early)]))
        if len(lines) == 40:
            lines += ["  \n", f"{early[0]} 0:1 3:1e0 7:2\n", "# a comment\n"]
    lines += [document(rng, classes[k % len(classes)]) for k in range(300)]
    return "".join(lines)


def written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def library_model(strategy, ds):
    if strategy == "pgm":
        return train_pgm(ds, ds.dim)
    if strategy == "ovr":
        return train_one_vs_rest(ds, ds.dim)
    pos, neg = ([doc for label, doc in ds.documents if label == c] for c in ds.classes)
    return train_binary(pos, neg, ds.dim, labels=ds.classes)


@pytest.mark.parametrize("dim", [None, 45])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_train_writes_the_model_of_the_whole_parse(tmp_path, strategy, dim):
    classes = ("a", "b") if strategy == "binary" else ("a", "b", "c")
    text = batched_corpus(classes)
    batches = list(dataio._batches(io.StringIO(text)))
    assert len(batches) >= 3
    assert all(f"\n{classes[-1]} " not in "".join(batch) for batch in batches[:2])
    assert f"\n{classes[-1]} " in "".join(batches[2])
    data = written(tmp_path, "data.txt", text)
    extra = [] if dim is None else ["--dim", str(dim)]
    out = tmp_path / "cli.json"
    assert main(["train", "--data", data, "--strategy", strategy, "--out", str(out)] + extra) == 0
    with open(data, encoding="utf-8") as fh:
        ds = parse_sparse(fh, dim)
    assert ds.classes == classes and ds.dim == (40 if dim is None else dim)
    save_model(library_model(strategy, ds), tmp_path / "library.json")
    assert out.read_bytes() == (tmp_path / "library.json").read_bytes()


class TestErrors:
    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  # another\n"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_documents(self, tmp_path, capsys, strategy, text):
        err = self.train(tmp_path, capsys, strategy, text)
        assert err == "ERROR parse: dataset contains no documents\n"

    # a file of four batches whose largest index, 70, lies in its last batch
    WIDE = batched_corpus(("a", "b")) + "a 2:1 70:1\n" + "b 1:1 3:2\n" * 20

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_too_small_dim_names_the_whole_file_dim(self, tmp_path, capsys, strategy):
        assert len(list(dataio._batches(io.StringIO(self.WIDE)))) >= 3
        err = self.train(tmp_path, capsys, strategy, self.WIDE, "--dim", "50")
        assert err == ("ERROR parse: requested dim 50 is smaller than the largest "
                       "feature index + 1 (71)\n")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_later_malformed_line_comes_before_the_dim(self, tmp_path, capsys, strategy):
        lineno = self.WIDE.count("\n") + 1
        err = self.train(tmp_path, capsys, strategy, self.WIDE + "b 1:1 x:2\n", "--dim", "50")
        assert err == f"ERROR parse: line {lineno}: malformed pair 'x:2'\n"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_label_only_line_ends_its_batch(self, tmp_path, capsys, strategy):
        head = batched_corpus(("a", "b"))
        lineno = head.count("\n") + 2
        # the label-only line's error comes before a later bad line of its batch
        err = self.train(tmp_path, capsys, strategy, head + "a 0:1\nlabel-only\nb 1:x\n")
        assert err == f"ERROR parse: line {lineno}: expected LABEL followed by idx:val pairs\n"
        # and after an earlier one
        err = self.train(tmp_path, capsys, strategy, head + "a 0:x\nlabel-only\nb 1:1\n")
        assert err == f"ERROR parse: line {lineno - 1}: malformed pair '0:x'\n"

    # Line 2's index makes a 2 x (index + 1) count table that cannot exist: 2**62
    # lies past the address space, 10**17 past memory.  The table's error waits
    # for the whole parse, so line 8003's comes first.
    @pytest.mark.parametrize("out_exists", [False, True])
    @pytest.mark.parametrize("index", [2**62, 10**17])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_later_malformed_line_comes_before_the_table_size(self, tmp_path, capsys, strategy,
                                                                 index, out_exists):
        text = f"a 0:1\nb {index}:1\n" + "a 0:1 1:2 2:3\n" * 8000 + "c 1:x\n"
        assert len(list(dataio._batches(io.StringIO(text)))) >= 2
        err = self.train(tmp_path, capsys, strategy, text, out_exists=out_exists)
        assert err == "ERROR parse: line 8003: malformed pair '1:x'\n"

    @pytest.mark.parametrize("case", ["bad line", "small dim", "one class"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_an_existing_model_is_kept(self, tmp_path, capsys, strategy, case):
        text, extra, code = {
            "bad line": (self.WIDE + "b 1:1 x:2\n", (), "parse"),
            "small dim": (self.WIDE, ("--dim", "50"), "parse"),
            "one class": ("a 0:1\na 1:2\n", (), "degenerate-corpus"),
        }[case]
        err = self.train(tmp_path, capsys, strategy, text, *extra, out_exists=True)
        assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1

    @staticmethod
    def train(tmp_path, capsys, strategy, text, *extra, out_exists=False):
        """The one stderr line of a failed ``train``, which leaves ``--out`` as it was."""
        out = tmp_path / "m.json"
        if out_exists:
            out.write_text("kept\n", encoding="utf-8")
        rc = main(["train", "--data", written(tmp_path, "data.txt", text),
                   "--strategy", strategy, "--out", str(out), *extra])
        assert rc == 1
        assert (out.read_text(encoding="utf-8") == "kept\n") if out_exists else not out.exists()
        return capsys.readouterr().err


def many_docs_lines():
    """About 690 KB in 6000 lines, like the benchmark's many-docs train file."""
    rng = np.random.default_rng(0)
    lines = []
    for i in range(6000):
        indices = np.flatnonzero(rng.random(64) < 0.36).tolist()
        counts = rng.integers(1, 4, len(indices)).tolist()
        lines.append(f"c{i % 8:02d} " + " ".join(f"{k}:{c}" for k, c in zip(indices, counts)) + "\n")
    return lines


def many_docs_text(copies):
    return "".join(many_docs_lines()) * copies


def test_statistics_read_peak_does_not_grow_with_the_documents(tmp_path):
    # The whole parse and its class_statistics peak near 3.6 MiB on 6000
    # lines and grow about tenfold on 60,000; the statistics read holds one
    # batch and the 8 x 64 counts.
    peaks, results = [], []
    for copies in (1, 10):
        path = tmp_path / f"x{copies}.txt"
        path.write_text(many_docs_text(copies), encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                results.append(class_statistics(DocumentReader(fh)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    (classes, sizes, counts), (classes10, sizes10, counts10) = results
    assert (classes10, sizes10) == (classes, [10 * size for size in sizes])
    np.testing.assert_array_equal(counts10, 10 * counts)
    assert peaks[1] <= 1.25 * peaks[0], f"peaks {[p / 2**20 for p in peaks]} MiB"


# The interpreter writes four copies of many_docs_lines(), about 42 batches of
# 64K characters, a line at a time: a freed block of a MB or more, such as the
# joined text, would raise glibc's thresholds by itself.  It trains twice.
_FAULTS_OF_A_SECOND_TRAIN = """
import resource, sys
from test_train_stream import many_docs_lines
from qdetect.cli import main
path, out = sys.argv[1:]
lines = many_docs_lines()
with open(path, "w", encoding="utf-8") as fh:
    for _ in range(4):
        fh.writelines(lines)
argv = ["train", "--data", path, "--strategy", "pgm", "--out", out]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_a_second_train_faults_in_no_batch_memory(tmp_path):
    # Without the CLI's malloc thresholds glibc maps each batch's temporaries
    # of 100-400 KB afresh or trims them off the heap, about 60 faults a batch.
    path = tmp_path / "train.txt"
    search = [os.path.dirname(os.path.dirname(qdetect.__file__)), os.path.dirname(__file__),
              os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_A_SECOND_TRAIN, str(path), str(tmp_path / "m.json")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    batches = path.stat().st_size / dataio._CHUNK_CHARS
    assert batches >= 30
    faults = int(result.stdout)
    assert faults <= 4 * batches, f"{faults} minor faults over {batches:.0f} batches"
