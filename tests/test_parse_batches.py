"""The parse reads its source in batches of lines: every kind of source, every batch size.

A file or ``StringIO`` is read with ``readlines(_CHUNK_CHARS)``; a list or a
generator is cut by character count.  Whatever the source and the batch
size, ``parse_sparse`` must give what the per-token ``reference_parse`` gives,
or raise a ParseError with the same message, and ``class_statistics`` of a
``DocumentReader`` must give the ``class_statistics`` of that parse, or the
same message.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import dataio
from qdetect.dataio import DocumentReader, parse_sparse
from qdetect.errors import ParseError
from qdetect.states import class_statistics
from test_parse_reference import LINES, document_lines, reference_parse

SOURCES = ("stringio", "file", "list", "generator")
CHUNKS = (1, 40, dataio._CHUNK_CHARS)
# Lines that send a batch to the odd-line branch, and two that must not be
# mistaken for one: a label holding ``#`` after its first character, and a
# label outside ASCII.
ODD_LINES = ["", "   ", "# comment", "  #x 0:1", "label-only", "c#1 0:1 2:3", "ü 0:1",
             "日本 3:1.5"]


@contextlib.contextmanager
def opened(kind, text):
    """``text`` as a source of the given kind; lines end where ``\\n`` does."""
    lines = io.StringIO(text).readlines()
    if kind == "stringio":
        yield io.StringIO(text)
    elif kind == "list":
        yield lines
    elif kind == "generator":
        yield (line for line in lines)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.txt"
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
                yield fh


def outcome(parser, kind, text, chunk_chars):
    """The error message, or the labels, dim, row lengths, indices and value bytes."""
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars), opened(kind, text) as source:
        try:
            result = parser(source)
        except ParseError as exc:
            return str(exc)
    if parser is reference_parse:
        labels, dim, rows = result
        return (labels, dim, [len(row) for row in rows], [i for row in rows for i in row],
                np.array([v for row in rows for v in row.values()]).tobytes())
    return ([result.classes[k] for k in result.label_ids], result.dim,
            np.diff(result.indptr).tolist(), result.indices.tolist(), result.values.tobytes())


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(LINES, st.sampled_from(ODD_LINES)), min_size=1, max_size=10),
       kind=st.sampled_from(SOURCES), chunk_chars=st.sampled_from(CHUNKS))
def test_every_source_parses_like_the_reference(lines, kind, chunk_chars):
    text = "\n".join(lines) + "\n"
    assert (outcome(parse_sparse, kind, text, chunk_chars)
            == outcome(reference_parse, kind, text, chunk_chars))


# Six document lines of exactly 40 characters with their newline: at
# _CHUNK_CHARS = 40 every batch of them holds two lines, so a line inserted at
# an even position starts a batch and one at an odd position ends one.
BASE = [f"c{k} 0:1 1:2.5 2:3 3:4 5:6 7:8 9:1 11:2.5\n" for k in range(6)]


@pytest.mark.parametrize("kind", SOURCES)
@pytest.mark.parametrize("line", ODD_LINES + ["c9 0:1 junk"])
def test_a_line_at_either_end_of_a_batch(kind, line):
    assert {len(base) for base in BASE} == {40}
    for position in range(len(BASE) + 1):
        lines = BASE[:position] + [line + "\n"] + BASE[position:]
        with mock.patch.object(dataio, "_CHUNK_CHARS", 40):
            batch = next(b for b in dataio._batches(lines) if lines[position] in b)
        assert batch.index(lines[position]) == (0 if position % 2 == 0 else len(batch) - 1)
        text = "".join(lines)
        assert outcome(parse_sparse, kind, text, 40) == outcome(reference_parse, kind, text, 40)


@pytest.mark.parametrize("kind", ["stringio", "list"])
def test_a_clean_corpus_stays_on_the_batch_path(kind):
    # about 690 KB in 6000 lines, like the benchmark's many-docs train file, and a
    # ninth class first appearing inside a later batch, so that batch's id lookup
    # misses and its labels are numbered by the fallback, still on the batch path
    rng = np.random.default_rng(1)
    lines = []
    for i in range(6000):
        indices = np.flatnonzero(rng.random(64) < 0.36).tolist()
        counts = rng.integers(1, 4, len(indices)).tolist()
        label = "c08" if i == 3000 else f"c{i % 8:02d}"
        lines.append(f"{label} " + " ".join(f"{k}:{c}" for k, c in zip(indices, counts)))
    text = "\n".join(lines) + "\n"
    with opened(kind, text) as source:
        batches = [[line.split()[0] for line in batch] for batch in dataio._batches(source)]
    late = next(k for k, batch in enumerate(batches) if "c08" in batch)
    assert late > 0 and 0 < batches[late].index("c08") < len(batches[late]) - 1
    with mock.patch.object(dataio, "_document_lines", side_effect=AssertionError("odd lines")), \
            mock.patch.object(dataio, "_convert_chunk", wraps=dataio._convert_chunk) as convert, \
            opened(kind, text) as source:
        ds = parse_sparse(source)
    assert len(ds) == 6000
    assert ds.classes == tuple(f"c{k:02d}" for k in range(9))
    assert convert.call_count <= math.ceil(len(text) / dataio._CHUNK_CHARS) + 1
    assert outcome(parse_sparse, kind, text, dataio._CHUNK_CHARS) == outcome(
        reference_parse, kind, text, dataio._CHUNK_CHARS)


@pytest.mark.parametrize("source", ["c0 0:1\n", b"c0 0:1\n"])
def test_one_string_is_not_a_source(source):
    # read as an iterable, a str would be one line a character and bytes one an int
    for reader in (parse_sparse, DocumentReader):
        with pytest.raises(TypeError, match="pass lines of text or a text file"):
            reader(source)


def test_lines_of_bytes_are_not_a_source(tmp_path):
    # each batch's first line is checked, before the batch's labels are joined
    path = tmp_path / "data.txt"
    path.write_bytes(b"c0 0:1\nc1 1:2\n")
    for reader in (parse_sparse, lambda lines: list(DocumentReader(lines))):
        with open(path, "rb") as binary_file:
            for source in ([b"c0 0:1\n"], io.BytesIO(b"c0 0:1\n"), binary_file):
                with pytest.raises(TypeError, match="pass lines of text or a text file"):
                    reader(source)


def parsed_statistics(source, dim=None):
    """The reference for a read's ``class_statistics``: the whole parse, then its statistics."""
    ds = parse_sparse(source, dim)
    return class_statistics(ds, ds.dim)


def statistics(reader, kind, text, chunk_chars, dim):
    """The error message, or the classes, class sizes, and count table shape and bytes."""
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars), opened(kind, text) as source:
        try:
            classes, sizes, counts = reader(source, dim)
        except ParseError as exc:
            return str(exc)
    return classes, sizes, counts.shape, counts.tobytes()


# Indices below 41, so that every count table is small: a 17-digit index
# makes the table too large to exist, a MemoryError whose message names the
# table each side failed on (``test_a_table_too_large_fails_after_the_last_line``).
SMALL_INDEX_LINES = document_lines().filter(lambda line: "12345678901234567" not in line)


def error_or_statistics(reader, kind, text, chunk_chars, dim):
    """``statistics``, with a MemoryError as its type: its message names the table it failed on."""
    try:
        return statistics(reader, kind, text, chunk_chars, dim)
    except MemoryError:
        return MemoryError


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(document_lines(), st.sampled_from(ODD_LINES)),
                      min_size=1, max_size=10),
       kind=st.sampled_from(SOURCES), chunk_chars=st.sampled_from(CHUNKS),
       dim=st.one_of(st.none(), st.integers(0, 45)))
def test_a_table_too_large_fails_after_the_last_line(lines, kind, chunk_chars, dim):
    text = "\n".join(lines) + "\n"
    assert (error_or_statistics(lambda source, dim: class_statistics(DocumentReader(source), dim),
                                kind, text, chunk_chars, dim)
            == error_or_statistics(parsed_statistics, kind, text, chunk_chars, dim))


def test_a_reader_is_read_once():
    reader = DocumentReader(["a 0:1\n", "b 1:2 3:1\n"])
    (ids, counts, indices, values), = reader
    assert (ids.tolist(), counts.tolist(), indices.tolist(), values.tolist()) == (
        [0, 1], [1, 2], [0, 1, 3], [1.0, 2.0, 1.0])
    assert list(reader) == [] and reader.largest == 3


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(SMALL_INDEX_LINES, st.sampled_from(ODD_LINES)),
                      min_size=1, max_size=10),
       kind=st.sampled_from(SOURCES), chunk_chars=st.sampled_from(CHUNKS),
       dim=st.one_of(st.none(), st.integers(0, 45)))
def test_statistics_read_counts_like_the_parse(lines, kind, chunk_chars, dim):
    text = "\n".join(lines) + "\n"
    assert (statistics(lambda source, dim: class_statistics(DocumentReader(source), dim),
                       kind, text, chunk_chars, dim)
            == statistics(parsed_statistics, kind, text, chunk_chars, dim))
