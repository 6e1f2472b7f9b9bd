"""Dataset parsing, deterministic splits, and model serialization.

The dataset format is line-oriented text: ``LABEL idx:val [idx:val ...]`` with
0-based, strictly increasing integer indices that fit int64 and positive
finite decimal values; ``#``-prefixed lines are comments.  Models are stored
as compact JSON of what training reads: the class sizes, and the class count
table as one base64 string of a mask of the features it uses and those
features' little-endian unsigned integers.  The loader trains again from
them, so a reload is bit-identical to training.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
import stat
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from qdetect.binary import binary_from_statistics
from qdetect.errors import (
    FormatError,
    ParseError,
    QdetectError,
    SplitError,
    UnsupportedVersionError,
)
from qdetect.multiclass import check_cost_matrix, one_vs_rest_from_statistics, pgm_from_statistics
from qdetect.states import LabeledDataset


# the largest feature index an int64 index array holds
_MAX_INDEX = np.iinfo(np.int64).max
# what a byte that is not UTF-8 becomes when read with errors="surrogateescape"
_SURROGATE = re.compile("[\ud800-\udfff]")


def _checked_pairs(tokens: list[str], lineno: int) -> tuple[list[int], list[float]]:
    """Indices and values of one line's ``idx:val`` tokens; the first bad token raises."""
    indices: list[int] = []
    values: list[float] = []
    previous = -1
    for token in tokens:
        head, _, tail = token.partition(":")  # without a colon, float("") raises
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
        if idx > _MAX_INDEX:
            raise ParseError(f"line {lineno}: feature index {idx} does not fit in int64")
        if not 0.0 < value < math.inf:
            raise ParseError(f"line {lineno}: value must be positive and finite, got {tail}")
        previous = idx
        indices.append(idx)
        values.append(value)
    return indices, values


# Lines are read and converted in batches of about this many characters.
_CHUNK_CHARS = 1 << 16
# Numbers of at most this many digits are exact doubles, and so are the powers
# of ten up to it: a decimal m / 10**k of such numbers, divided once, is the
# correctly rounded double that float() gives.
_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_DIGITS + 1)])
# The bytes the chunk conversion reads: digits, colons, dots and the ASCII
# whitespace that str.split() separates on (all of it below b"!").  Any other
# byte (a sign, an exponent, a letter, anything outside ASCII) sends the chunk
# to the per-token path.
_PLAIN_BYTES = bytes(c for c in range(128) if chr(c).isspace() or chr(c) in "0123456789:.")
_COLON, _DOT, _ZERO = b":.0"


def _number_bounds(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Where each number of a batch's bytes starts and ends, and the batch's colon count."""
    # a number is a run of digits and dots: it starts and ends where this mask flips
    not_colon = raw != _COLON
    inside = np.zeros(len(raw) + 2, dtype=bool)
    np.logical_and(raw > 32, not_colon, out=inside[1:-1])
    return np.flatnonzero(inside[1:] != inside[:-1]), len(raw) - np.count_nonzero(not_colon)


def _convert_chunk(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Entries of several lines' pair texts, by array operations over their numbers.

    Returns the entry count of each line, the indices and the values, or None
    unless every token is ``digits:digits[.digits]`` with at most 15 digits on
    either side, every value is positive and each line's indices increase;
    the per-token path then gives the same entries or the first error.
    """
    # a lone surrogate encodes to bytes above 127, which the check rejects
    text = "\n".join(texts).encode("utf-8", "surrogatepass")
    if text.translate(None, _PLAIN_BYTES):
        return None
    raw = np.frombuffer(text, dtype=np.uint8)
    bounds, colons = _number_bounds(raw)
    # Per pair: index start and end, value start and end.  Every index ends at
    # a colon and every value starts right after it, so with no other colon
    # every token is exactly ``number:number``.
    if len(bounds) != 4 * colons or (
            np.any(raw[bounds[1::4]] != _COLON) or np.any(bounds[2::4] - bounds[1::4] != 1)):
        return None
    line_ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)) + 1)
    counts = np.diff(np.searchsorted(bounds, line_ends) // 4, prepend=0)  # four bounds a pair
    starts, ends = bounds[0::2], bounds[1::2]  # of each number: index 0, value 0, ...
    digits = ends - starts
    # Horner's rule below reads each number's digits at ``packed[firsts]``: the
    # text itself, or, when it holds dots, the text without them
    packed, dotted = raw, None
    if _DOT in text:
        dots = np.flatnonzero(raw == _DOT)
        dotted = np.searchsorted(starts, dots, side="right") - 1  # the number holding each dot
        if np.any(dotted % 2 == 0) or np.any(np.diff(dotted) == 0):
            return None  # a dot in an index, or two in one value
        digits[dotted] -= 1
        packed = np.frombuffer(text.replace(b".", b""), dtype=np.uint8)
        firsts = starts - np.searchsorted(dots, starts)
        decimals = ends[dotted] - dots - 1  # the digits after each dot
    else:
        firsts = starts.copy()
    # the bounds are the conversion's largest array: dropped before Horner's rule
    del bounds, starts, ends
    longest = int(digits.max())
    if digits.min() < 1 or longest > _DIGITS:
        return None  # a value without digits, or too many, before any digit is read
    # one digit column at a time over the numbers that reach it
    numbers = packed[firsts].astype(np.int64) - _ZERO
    for j in range(1, longest):
        more = np.flatnonzero(digits > j)
        numbers[more] = numbers[more] * 10 + packed[firsts[more] + j] - _ZERO
    indices, values = numbers[0::2], numbers[1::2].astype(float)
    if dotted is not None:
        values[dotted // 2] /= _POW10[decimals]
    increasing = np.diff(indices) > 0
    increasing[np.cumsum(counts)[:-1] - 1] = True  # across a line boundary
    if not (values.min() > 0 and np.all(increasing)):
        return None
    return counts, indices, values


def _batches(source: Iterable[str] | IO[str]):
    """The source's lines in lists of about ``_CHUNK_CHARS`` characters."""
    if hasattr(source, "readlines"):
        yield from iter(lambda: source.readlines(_CHUNK_CHARS), [])
        return
    batch, chars = [], 0
    for line in source:
        batch.append(line)
        chars += len(line)
        if chars > _CHUNK_CHARS:
            yield batch
            batch, chars = [], 0
    if batch:
        yield batch


def _regular(labels: Sequence[str]) -> bool:
    """Whether a batch's labels, one a line, are ASCII and none starts a comment."""
    text = "\n".join(labels)
    return text.isascii() and not text.startswith("#") and "\n#" not in text


def _document_lines(fields: list[list[str]], linenos: Sequence[int]
                    ) -> tuple[list[list[str]], list[int], ParseError | None]:
    """A batch's document lines before its first bad line, their numbers, and its error.

    Blank and comment lines are dropped.  A label-only line, or a label that
    is not valid UTF-8, ends the batch: its error is raised after the lines
    before it are converted, so an error on an earlier line comes first.
    """
    kept, numbers = [], []
    for lineno, line in zip(linenos, fields):
        if not line or line[0].startswith("#"):
            continue
        if len(line) < 2:
            return kept, numbers, ParseError(
                f"line {lineno}: expected LABEL followed by idx:val pairs")
        if not line[0].isascii() and _SURROGATE.search(line[0]):
            return kept, numbers, ParseError(
                f"line {lineno}: label {line[0]!r} is not valid UTF-8")
        kept.append(line)
        numbers.append(lineno)
    return kept, numbers, None


def _ranges(ids: np.ndarray, texts: Sequence[str], linenos: Sequence[int], lo: int, hi: int,
            converted: tuple[np.ndarray, np.ndarray, np.ndarray] | None):
    """Lines ``lo`` to ``hi - 1`` of a batch, given their chunk conversion, as reader items.

    A rejected range is split in halves.  While one half converts, the
    other is split again, so a lone line the array path cannot take goes
    token by token alone.  When both halves are rejected, all their lines
    go token by token: a corpus the array path cannot take costs a few
    conversions per chunk, not one per line.  Conversions never raise, so
    an earlier line's error still comes first.
    """
    if converted is not None:
        yield ids[lo:hi], *converted
        return
    mid = (lo + hi) // 2
    if mid > lo:
        left, right = _convert_chunk(texts[lo:mid]), _convert_chunk(texts[mid:hi])
        if left is not None or right is not None:
            yield from _ranges(ids, texts, linenos, lo, mid, left)
            yield from _ranges(ids, texts, linenos, mid, hi, right)
            return
    rows = [_checked_pairs(text.split(), lineno)
            for text, lineno in zip(texts[lo:hi], linenos[lo:hi])]
    yield (ids[lo:hi], np.array([len(indices) for indices, _ in rows], dtype=np.intp),
           np.array([i for indices, _ in rows for i in indices], dtype=np.int64),
           np.array([v for _, values in rows for v in values], dtype=float))


_NOT_TEXT = "pass lines of text or a text file, not one str or bytes, nor lines of bytes"


class DocumentReader:
    """A source's documents in one pass, a converted range of a batch of lines at a time.

    Iterating yields each range's label ids (positions in ``classes``, which
    gains each new label in first-appearance order), the entry count of each
    of its documents, and their indices and values; iterating again goes on
    where the pass stopped.  ``largest`` is the largest index read so far,
    -1 before any.  The first bad line raises, after every range before it.
    ``states.class_statistics`` and the scorers of ``metrics`` read a reader
    as they read a ``LabeledDataset``.
    """

    def __init__(self, source: Iterable[str] | IO[str]):
        if isinstance(source, (str, bytes)):  # one string would be read a character a line
            raise TypeError(_NOT_TEXT)
        self.classes: dict[str, int] = {}
        self.largest = -1
        self._pass = self._read(source)

    def __iter__(self):
        return self._pass

    def _read(self, source: Iterable[str] | IO[str]):
        first = 1
        for lines in _batches(source):
            if not isinstance(lines[0], str):  # a binary file, or lines of bytes
                raise TypeError(_NOT_TEXT)
            fields = [line.split(None, 1) for line in lines]
            linenos, error = range(first, first + len(lines)), None
            columns = tuple(zip(*fields))  # two only if every line holds a label and pairs
            if len(columns) < 2 or not _regular(columns[0]):
                fields, linenos, error = _document_lines(fields, linenos)
                columns = tuple(zip(*fields))
            if columns:
                labels, texts = columns
                try:
                    ids = np.fromiter(map(self.classes.__getitem__, labels), np.int64, len(labels))
                except KeyError:  # a new label: numbered in first-appearance order
                    ids = np.array([self.classes.setdefault(label, len(self.classes))
                                    for label in labels], dtype=np.int64)
                for item in _ranges(ids, texts, linenos, 0, len(texts), _convert_chunk(texts)):
                    self.largest = max(self.largest, int(item[2].max()))
                    yield item
            if error is not None:
                raise error
            first += len(lines)

    def width(self, dim: int | None = None) -> int:
        """The feature count of the whole read: ``dim``, or the largest index + 1 without it.

        Checked once the last line is read, so that any bad line comes first.
        """
        if self.largest < 0:  # every document holds a pair
            raise ParseError("dataset contains no documents")
        inferred = self.largest + 1
        if dim is None:
            return inferred
        if dim < inferred:
            raise ParseError(
                f"requested dim {dim} is smaller than the largest feature index + 1 ({inferred})"
            )
        return dim


def parse_sparse(source: Iterable[str] | IO[str], dim: int | None = None) -> LabeledDataset:
    """Parse the line-oriented sparse format; ``dim`` may widen the feature space.

    The lines are read in batches of about ``_CHUNK_CHARS`` characters, and
    each batch fills the dataset's CSR buffers, so no per-document object is
    built; errors name the first bad line.
    """
    reader = DocumentReader(source)
    label_ids, indptr = array("q"), array("q", [0])
    indices, values = array("q"), array("d")
    for ids, counts, idx, vals in reader:
        indptr.frombytes((len(indices) + np.cumsum(counts)).tobytes())
        label_ids.frombytes(ids.tobytes())
        indices.frombytes(idx.tobytes())
        values.frombytes(vals.tobytes())
    return LabeledDataset.from_arrays(
        reader.width(dim), tuple(reader.classes),
        *(np.frombuffer(buffer, dtype=buffer.typecode)
          for buffer in (label_ids, indptr, indices, values)),
    )


def serialize_sparse(ds: LabeledDataset) -> str:
    """Render a dataset's rows as sparse text, which holds no dim.

    A parse infers the largest used index + 1, and ``parse_sparse(text, dim=ds.dim)``
    restores the dim.  Pairs are written in increasing index order, each value as the
    shortest digits that round-trip it, positionally (``2``, ``0.00001`` and
    ``300000000000000000000``, not ``2.0``, ``1e-05`` and ``3e+20``), so a value of at
    most 15 digits stays a plain decimal that the chunk conversion reads.  A row with
    no entries, or a label ``_is_label`` refuses, has no line: the first raises ValueError.
    """
    lengths = np.diff(ds.indptr)
    unwritable = [k for k, label in enumerate(ds.classes) if not _is_label(label)]
    bad = np.flatnonzero((lengths == 0) | np.isin(ds.label_ids, unwritable))
    if len(bad):
        row = int(bad[0])
        raise ValueError(f"row {row} cannot be written: label {ds.classes[ds.label_ids[row]]!r}"
                         f", {lengths[row]} entries; a line needs a label of nonempty UTF-8 "
                         "with no whitespace and no leading '#', and at least one pair")
    rows = np.repeat(np.arange(len(ds)), lengths)
    order = np.lexsort((ds.indices, rows))
    pairs = [f"{idx}:{np.format_float_positional(value, unique=True, trim='-')}"
             for idx, value in zip(ds.indices[order].tolist(), ds.values[order].tolist())]
    ptr = ds.indptr.tolist()
    lines = [f"{ds.classes[k]} {' '.join(pairs[a:b])}"
             for k, a, b in zip(ds.label_ids.tolist(), ptr, ptr[1:])]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split parameters."""

    train_fraction: float
    seed: int
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly inside (0, 1)")


class Lcg:
    """64-bit linear congruential generator, fixed across platforms.

    ``x <- (6364136223846793005 * x + 1442695040888963407) mod 2**64``; draws
    below ``n`` use the top 31 bits: ``(x >> 33) % n``.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def next_below(self, n: int) -> int:
        return (self.next_u64() >> 33) % n


def _shuffle(indices: list[int], rng: Lcg) -> list[int]:
    out = list(indices)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic split; stratified mode keeps per-class proportions."""
    rng = Lcg(spec.seed)
    # one group of rows per class in order of first appearance, or one group of all rows
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(ds.label_ids.tolist() if spec.stratified else [0] * len(ds)):
        groups.setdefault(k, []).append(i)
    train_idx: list[int] = []
    for k, indices in groups.items():
        if spec.stratified and len(indices) < 2:
            raise SplitError(f"class {ds.classes[k]!r} has only one document; "
                             "stratified split needs >= 2")
        train_idx += _shuffle(indices, rng)[:_round_half_up(spec.train_fraction * len(indices))]
    chosen = np.zeros(len(ds), dtype=bool)
    chosen[train_idx] = True
    train_rows, test_rows = np.flatnonzero(chosen), np.flatnonzero(~chosen)
    if not len(train_rows) or not len(test_rows):
        raise SplitError(
            f"split produced an empty side (train {len(train_rows)}, test {len(test_rows)})"
        )
    return ds.take(train_rows), ds.take(test_rows)


# ---------------------------------------------------------------------------
# Compact JSON; floats are written as the shortest repr that round-trips them

_JSON_SETTINGS = {"separators": (",", ":"), "allow_nan": False}


def dumps_canonical(obj) -> str:
    """Compact JSON, insertion-ordered keys, floats that reload bit-identically."""
    return json.dumps(obj, **_JSON_SETTINGS) + "\n"


# Format 6 stores what training reads, the class sizes and counts (README, Models)
FORMAT_VERSION = 6
_TRAINERS = {"binary": binary_from_statistics, "pgm": pgm_from_statistics,
             "one_vs_rest": one_vs_rest_from_statistics}
_BINARY_FIELDS = ("prior_negative", "threshold")


def _is_label(label) -> bool:
    """Whether a dataset line's first field can be ``label``.

    It must be nonempty UTF-8 with no whitespace, and not start with ``#``,
    which would make the line a comment.
    """
    return (isinstance(label, str) and label.split() == [label] and not label.startswith("#")
            and not _SURROGATE.search(label))


def model_to_dict(model) -> dict:
    """The model file's JSON object; ValueError for a label no dataset line holds, or no counts."""
    if not all(map(_is_label, model.labels)):
        raise ValueError("model labels must be nonempty UTF-8, no whitespace, no leading '#': "
                         f"{model.labels!r}")
    if model.counts is None:
        raise ValueError("only a trained model can be saved: this one holds no class counts")
    fields = {key: getattr(model, key) for key in _BINARY_FIELDS if model.strategy == "binary"}
    used = model.counts.any(axis=0)  # the table takes the fewest bytes a count (fit_counts)
    rows = model.counts[:, used].astype(f"<u{model.counts.itemsize}")
    return {
        "format_version": FORMAT_VERSION,
        "strategy": model.strategy,
        "dim": int(model.dim),
        "labels": list(model.labels),
        **fields,
        "sizes": list(model.sizes),
        "counts": binascii.b2a_base64(np.packbits(used).tobytes() + rows.tobytes(),
                                      newline=False).decode("ascii"),
    }


def write_text(path, blocks: Iterable[str]) -> None:
    """Write ``blocks`` to ``path`` as UTF-8 text: the bytes of mode ``"w"``, over the old ones.

    The file is opened without ``O_TRUNC``: the same inode, through symlinks and
    hard links, an existing file's mode kept and a new one's ``0o666 & ~umask``.
    A regular file is then cut at the end of what was written, also when a write
    raises, so no old byte follows a new one; a device or a pipe is never cut.
    Truncating to zero first would make ext4 free the blocks and write them back
    at close (``auto_da_alloc``).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wt", encoding="utf-8") as fh:  # a text wrapper of ``fd``: it truncates nothing
        try:
            fh.writelines(blocks)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                try:
                    fh.flush()
                finally:  # at what reached the file, if the flush fails too
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def save_model(model, path) -> None:
    text = dumps_canonical(model_to_dict(model))  # before the file is opened, as it may raise
    write_text(path, (text,))


_NUMBER = (int, float)


def _is_number(value) -> bool:
    """An int or a float: bool is a subclass of int but never a number of a model or cost file."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _require(doc: dict, key: str, kinds) -> object:
    if key not in doc:
        raise FormatError(f"model file is missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int but never a valid model field
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise FormatError(f"model field {key!r} has the wrong type")
    return value


def _count_table(text: str, dim: int, n: int) -> np.ndarray:
    """The read-only n x dim table of a ``counts`` string that the writer makes, each marked
    feature holding a nonzero count, or FormatError; the trainer checks the rest."""
    try:
        raw = binascii.a2b_base64(text)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise FormatError(f"model field 'counts' is not base64: {exc}") from exc
    # the decoder skips characters outside the alphabet; the encoder writes none
    if binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise FormatError("model field 'counts' is not padded standard base64")
    mask = raw[:-(-dim // 8)]
    # before unpacking, which takes dim bytes however short the string is
    if not 0 < dim <= 8 * len(mask):
        raise FormatError(f"model field 'counts' has no mask of dim {dim} features")
    used = np.unpackbits(np.frombuffer(mask, dtype=np.uint8), count=dim).astype(bool)
    if np.packbits(used).tobytes() != mask:
        raise FormatError(f"model field 'counts' has no mask of dim {dim} features")
    n_used, body = int(used.sum()), len(raw) - len(mask)
    width = body // (n * n_used) if n * n_used else 0
    if width not in (1, 2, 4, 8) or body != width * n * n_used:
        raise FormatError(f"model field 'counts' holds {body} bytes after its mask, not whole "
                          f"rows of {n_used} counts for {n} labels (dim {dim})")
    kept = np.frombuffer(raw, dtype=f"<u{width}", offset=len(mask)).reshape(n, n_used)
    if not kept.any(axis=0).all():
        raise FormatError("model field 'counts' marks a feature whose counts are all 0")
    # read-only, so a trainer keeps it without a copy when its width is the fewest bytes
    table = np.zeros((n, dim), dtype=kept.dtype)
    table[:, used] = kept
    table.flags.writeable = False
    return table


def model_from_dict(doc: dict):
    """A model from a format 6 JSON object, trained from its counts; raises FormatError."""
    if not isinstance(doc, dict):
        raise FormatError("model file must contain a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported model format_version {version} (expected {FORMAT_VERSION})")
    strategy = _require(doc, "strategy", str)
    if strategy not in _TRAINERS:
        raise FormatError(f"unknown strategy {strategy!r}")
    scalars = _BINARY_FIELDS if strategy == "binary" else ()
    for key in doc:
        if key not in ("format_version", "strategy", "dim", "labels", *scalars, "sizes", "counts"):
            raise FormatError(f"model file holds field {key!r}, which format {FORMAT_VERSION} "
                              "does not write")
    dim = _require(doc, "dim", int)
    labels = tuple(_require(doc, "labels", list))
    if not all(map(_is_label, labels)):  # JSON can escape a lone surrogate, which is no UTF-8
        raise FormatError("model field 'labels' must hold strings, nonempty UTF-8 with no "
                          f"whitespace and no leading '#': {labels!r}")
    sizes = _require(doc, "sizes", list)
    values = [_require(doc, key, _NUMBER) for key in scalars]
    table = _count_table(_require(doc, "counts", str), dim, len(labels))
    try:  # the trainer checks the sizes, the counts, the labels, the prior and the threshold
        return _TRAINERS[strategy](labels, sizes, table, *map(float, values))
    except (ValueError, TypeError, OverflowError, QdetectError) as exc:
        # a table or a model the counts cannot train, or an integer too large for a double
        raise FormatError(f"model file is inconsistent: {exc}") from exc


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name} in JSON file")


def _read_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # invalid, undecodable or too deeply nested
        raise FormatError(f"{what} file is not valid: {exc}") from exc


def load_model(path):
    """Load a model JSON file; raises FormatError / UnsupportedVersionError."""
    return model_from_dict(_read_json(path, "model"))


def load_cost_matrix(path, n: int) -> np.ndarray:
    """Read an N x N finite nonnegative cost matrix from a JSON file."""
    doc = _read_json(path, "cost")
    # checked in Python first: numpy would also read numeric strings and booleans
    # as numbers, and fail on lists nested past its 32 dimensions
    if isinstance(doc, list) and all(isinstance(row, list) and all(map(_is_number, row))
                                     for row in doc):
        try:
            return check_cost_matrix(np.array(doc, dtype=float), n)
        except (ValueError, OverflowError, QdetectError):  # ragged, huge, misshapen or negative
            pass
    raise FormatError(f"cost file must hold a finite nonnegative {n}x{n} JSON array")
