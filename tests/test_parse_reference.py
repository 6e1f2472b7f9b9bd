"""The columnar parser against the per-token parser it replaced, on generated corpora.

``reference_parse`` is the earlier parser, kept here as the reference: it
walks every token of every line and keeps one dict per document.  For each
generated corpus, ``parse_sparse`` must give the same labels, dim and
bit-equal entries, or raise a ParseError with the same message.  The chunk
size is drawn too, so lines meet chunk boundaries anywhere.
"""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import dataio
from qdetect.dataio import parse_sparse
from qdetect.errors import ParseError


def reference_parse(source, dim=None):
    """(labels, dim, one {index: value} dict per document); raises ParseError."""
    labels = []
    rows = []
    max_index = -1
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected LABEL followed by idx:val pairs")
        label = tokens[0]
        entries = {}
        previous = -1
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed pair {token!r}")
            try:
                idx = int(head)
                value = float(tail)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed pair {token!r}") from None
            if idx < 0:
                raise ParseError(f"line {lineno}: negative feature index {idx}")
            if idx <= previous:
                raise ParseError(
                    f"line {lineno}: feature indices must be strictly increasing "
                    f"({idx} after {previous})"
                )
            if not 0.0 < value < math.inf:
                raise ParseError(f"line {lineno}: value must be positive and finite, got {tail}")
            previous = idx
            entries[idx] = value
        max_index = max(max_index, previous)
        labels.append(label)
        rows.append(entries)
    if not rows:
        raise ParseError("dataset contains no documents")
    inferred = max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise ParseError(
            f"requested dim {dim} is smaller than the largest feature index + 1 ({inferred})"
        )
    return labels, dim, rows


LABELS = st.text(alphabet="ab:#", min_size=1, max_size=4)
# whitespace that str.split() separates on, ASCII and not
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t", "\x0b", "\x1c", "\u3000"])
ASCII_SEPARATORS = st.sampled_from([" ", "\t", "\x0b", "\x1c", "  "])
# plain decimals of up to 15 digits are converted by array operations, the
# others token by token
PLAIN_VALUES = st.sampled_from(["1", "2.5", "0.1", "7.", ".5", "0.000123", "123456789012345",
                                "98765.4321", "3.00000000000001"])
GOOD_VALUES = st.one_of(PLAIN_VALUES, PLAIN_VALUES, st.sampled_from(
    ["3e2", "1e-320", "1e308", "1234567890123456", "0.1234567890123456"]))
ANY_VALUES = st.one_of(GOOD_VALUES, st.sampled_from(
    ["0", "0.0", "-2", "nan", "inf", "1e999", "-0", "+4", "1_0", "0x1", "", "x", ".", "1..2"]))
# malformed tokens, and tokens only the per-token path reads: 17 digits, and
# a fullwidth digit, which int() accepts
ODD_TOKENS = st.sampled_from(["3", ":5", "3:", "3:4:5", "x:1", "-:1", "3 4:5:6", "3.5:1", "1:2.5.",
                              "12345678901234567:1", "\uff13:1"])
# tokens that look plain byte by byte; each must send its chunk token by token
NEAR_MISS_TOKENS = ["3:.", "3:1..2", "3:1.2.", "3.5:1", ".3:1", "3:", ":5", "3:4:5", "3::4", "3:0",
                    "3:0.0", "3:00.000", "1234567890123456:1", "3:1234567890123456",
                    "3:.1234567890123456", "3.:1", "3: 4", "3 :4", "3:1234567890123456.",
                    "3 4:5:6", ":", "3:4:"]
NEAR_MISSES = st.sampled_from(NEAR_MISS_TOKENS)


@st.composite
def plain_tokens(draw):
    """``idx:val`` tokens with increasing indices and plain decimal values."""
    indices = sorted(draw(st.sets(st.integers(0, 10**15 - 1), min_size=1, max_size=6)))
    zero = st.sampled_from(["", "0"])  # a leading zero, where the digits stay within 15
    return [f"{draw(zero) if i < 10**14 else ''}{i}:{draw(PLAIN_VALUES)}" for i in indices]


@st.composite
def plain_lines(draw):
    """Lines whose pairs are all plain decimals: the array conversion takes them."""
    body = "".join(draw(ASCII_SEPARATORS) + token for token in draw(plain_tokens()))
    return draw(LABELS.filter(lambda label: not label.startswith("#"))) + body


@st.composite
def near_plain_lines(draw):
    """A plain line with one token replaced by a near miss, repeated, or swapped back."""
    tokens = draw(plain_tokens())
    k = draw(st.integers(0, len(tokens) - 1))
    change = draw(st.sampled_from(["replace", "repeat", "swap"]))
    if change == "replace":
        tokens[k] = draw(NEAR_MISSES)
    elif change == "repeat":
        tokens.insert(k, tokens[k])
    elif k > 0:
        tokens[k - 1], tokens[k] = tokens[k], tokens[k - 1]
    body = "".join(draw(ASCII_SEPARATORS) + token for token in tokens)
    return draw(LABELS.filter(lambda label: not label.startswith("#"))) + body


@st.composite
def document_lines(draw):
    """A document line: mostly well formed, or with any mix of bad tokens."""
    label = draw(LABELS)
    if draw(st.integers(0, 3)):
        indices = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=8)))
        tokens = [f"{draw(st.sampled_from(['', '0']))}{i}:{draw(GOOD_VALUES)}" for i in indices]
    else:
        pair = st.builds("{}:{}".format, st.integers(-3, 12), ANY_VALUES)
        tokens = draw(st.lists(st.one_of(pair, pair, ODD_TOKENS), min_size=1, max_size=6))
    body = "".join(draw(SEPARATORS) + token for token in tokens)
    return draw(st.sampled_from(["", " ", "\t"])) + label + body + draw(st.sampled_from(["", " "]))


LINES = st.one_of(
    document_lines(), document_lines(), plain_lines(), plain_lines(), near_plain_lines(),
    st.sampled_from(["", "   ", "\t", "# a comment", "#x 0:1", "  # indented", "label-only"]),
)


def parse(text, dim, chunk_chars):
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
        return parse_sparse(io.StringIO(text), dim)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, min_size=1, max_size=8),
       dim=st.one_of(st.none(), st.none(), st.integers(0, 45)),
       final_newline=st.booleans(),
       chunk_chars=st.sampled_from([1, 12, 40, dataio._CHUNK_CHARS]))
def test_parse_matches_the_per_token_reference(lines, dim, final_newline, chunk_chars):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    try:
        labels, want_dim, rows = reference_parse(io.StringIO(text), dim)
    except ParseError as exc:
        expected = str(exc)
        try:
            parse(text, dim, chunk_chars)
        except ParseError as got:
            assert str(got) == expected
        else:
            raise AssertionError(f"parse_sparse accepted a corpus rejected with {expected!r}")
        return
    ds = parse(text, dim, chunk_chars)
    assert [ds.classes[k] for k in ds.label_ids] == labels
    assert ds.dim == want_dim
    assert len(ds.indptr) == len(rows) + 1
    for row, start, stop in zip(rows, ds.indptr, ds.indptr[1:]):
        assert ds.indices[start:stop].tolist() == list(row)
        assert ds.values[start:stop].tobytes() == np.array(list(row.values())).tobytes()


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(plain_lines(), min_size=1, max_size=12),
       chunk_chars=st.sampled_from([1, 30, dataio._CHUNK_CHARS]))
def test_plain_corpora_take_the_array_path(lines, chunk_chars):
    text = "\n".join(lines)
    labels, dim, rows = reference_parse(io.StringIO(text))
    with mock.patch.object(dataio, "_checked_pairs", side_effect=AssertionError("per token")):
        ds = parse(text, None, chunk_chars)
    assert [ds.classes[k] for k in ds.label_ids] == labels
    assert ds.dim == dim
    assert np.diff(ds.indptr).tolist() == [len(row) for row in rows]
    assert ds.indices.tolist() == [i for row in rows for i in row]
    assert ds.values.tobytes() == np.array([v for row in rows for v in row.values()]).tobytes()


@pytest.mark.parametrize("token", NEAR_MISS_TOKENS)
def test_near_misses_take_the_per_token_path(token):
    text = f"a 0:1 {token} 99:2"
    assert dataio._convert_chunk([text.split(None, 1)[1]]) is None
    try:
        _, _, rows = reference_parse([text])
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_sparse([text])
        assert str(got.value) == str(exc)
        return
    ds = parse_sparse([text])
    assert ds.indices.tolist() == list(rows[0])
    assert ds.values.tolist() == list(rows[0].values())


@st.composite
def whole_pair_texts(draw):
    """Pair texts with whole values of at most 14 digits: still 15 once written as ``v.0``."""
    indices = sorted(draw(st.sets(st.integers(0, 10**15 - 1), min_size=1, max_size=6)))
    return [(i, draw(st.integers(1, 10**14 - 1))) for i in indices]


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(whole_pair_texts(), min_size=1, max_size=12))
def test_a_dot_free_batch_converts_as_its_dotted_twin(lines):
    # the batch without a dot skips the dot mapping; its twin goes through it
    got = dataio._convert_chunk([" ".join(f"{i}:{v}" for i, v in line) for line in lines])
    twin = dataio._convert_chunk([" ".join(f"{i}:{v}.0" for i, v in line) for line in lines])
    assert got is not None and twin is not None
    for array, want in zip(got, twin):
        assert array.dtype == want.dtype and array.tobytes() == want.tobytes()
    assert got[2].tolist() == [float(v) for line in lines for _, v in line]


def whole_corpus(n_lines):
    """Dot-free lines the array conversion takes, about 20 characters each."""
    return [f"c{i % 3} {i % 7}:1 {i % 7 + 3}:2 {i % 50 + 10}:{i % 9 + 1}" for i in range(n_lines)]


@pytest.mark.parametrize("chunk_chars", [40, dataio._CHUNK_CHARS])
@pytest.mark.parametrize("dotted", ["first", "last"])
def test_one_dotted_line_at_either_end_matches_the_reference(dotted, chunk_chars):
    lines = whole_corpus(400)
    if dotted == "first":
        lines[0] = "c0 0:0.5 3:2"  # the dot in the batch's first value
    else:
        lines[-1] += " 99:2.25"  # and in its last
    text = "\n".join(lines)
    labels, dim, rows = reference_parse(io.StringIO(text))
    with mock.patch.object(dataio, "_checked_pairs", side_effect=AssertionError("per token")):
        ds = parse(text, None, chunk_chars)
    assert [ds.classes[k] for k in ds.label_ids] == labels
    assert ds.dim == dim
    assert np.diff(ds.indptr).tolist() == [len(row) for row in rows]
    assert ds.indices.tolist() == [i for row in rows for i in row]
    assert ds.values.tobytes() == np.array([v for row in rows for v in row.values()]).tobytes()


@pytest.mark.parametrize("token", ["300.5:1", "300.:1", ".300:1", "300:1..2", "300:1.2.",
                                   "300:.1.", "300:1.2.3"])
@pytest.mark.parametrize("where", [0, -1])
def test_a_dotted_index_or_a_second_dot_rejects_a_dot_free_batch(token, where):
    # the index goes past every index of the line, so only the dots can reject it
    texts = [line.split(None, 1)[1] for line in whole_corpus(50)]
    assert dataio._convert_chunk(texts) is not None
    texts[where] += f" {token} 999:1"
    assert dataio._convert_chunk(texts) is None


def plain_corpus(n_lines):
    """Lines the array conversion takes, about 30 characters each."""
    return [f"c{i % 3} {i % 7}:1 {i % 7 + 3}:2.5 {i % 50 + 10}:{i % 9 + 1}" for i in range(n_lines)]


def test_an_odd_line_goes_token_by_token_alone():
    lines = plain_corpus(3000)
    lines.insert(1700, "c9 5:1e2")
    with mock.patch.object(dataio, "_checked_pairs", wraps=dataio._checked_pairs) as per_token:
        ds = parse_sparse(io.StringIO("\n".join(lines)))
    per_token.assert_called_once_with(["5:1e2"], 1701)
    _, _, rows = reference_parse(io.StringIO("\n".join(lines)))
    assert ds.indices.tolist() == [i for row in rows for i in row]
    assert ds.values.tobytes() == np.array([v for row in rows for v in row.values()]).tobytes()


@pytest.mark.parametrize("bad", [[], [2200], [2200, 2900], [2, 2200]])
def test_odd_lines_in_a_large_corpus_match_the_reference(bad):
    lines = plain_corpus(3000)
    for k in (10, 1500, 1501, 2199, 2201):
        lines[k] += " 90:3e-1"  # valid, but only the per-token path reads exponents
    for k in bad:
        lines[k] += " 95:-1"
    text = "\n".join(lines)
    try:
        _, dim, rows = reference_parse(io.StringIO(text))
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_sparse(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    ds = parse_sparse(io.StringIO(text))
    assert ds.dim == dim
    assert np.diff(ds.indptr).tolist() == [len(row) for row in rows]
    assert ds.indices.tolist() == [i for row in rows for i in row]
    assert ds.values.tobytes() == np.array([v for row in rows for v in row.values()]).tobytes()
