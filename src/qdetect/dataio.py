"""Dataset parsing, deterministic splits, and model serialization.

The dataset format is line-oriented text: ``LABEL idx:val [idx:val ...]`` with
0-based, strictly increasing integer indices that fit int64 and positive
finite decimal values; ``#``-prefixed lines are comments.  Models are stored
as compact JSON whose floats are written as the shortest repr that round-trips
each double, so reloads are bit-identical.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from qdetect import linalg
from qdetect.binary import BinaryModel, DetectorScalars
from qdetect.errors import (
    FormatError,
    ParseError,
    QdetectError,
    SplitError,
    UnsupportedVersionError,
)
from qdetect.multiclass import Measurement, MulticlassModel, measurement_vectors
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
        if idx > _MAX_INDEX:
            raise ParseError(f"line {lineno}: feature index {idx} does not fit in int64")
        if not 0.0 < value < math.inf:
            raise ParseError(f"line {lineno}: value must be positive and finite, got {tail}")
        previous = idx
        indices.append(idx)
        values.append(value)
    return indices, values


# Lines are converted in chunks of about this many characters of pairs.
_CHUNK_CHARS = 1 << 15
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


def _convert_chunk(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
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
    # a number is a run of digits and dots: it starts and ends where this mask flips
    inside = np.zeros(len(raw) + 2, dtype=bool)
    np.logical_and(raw > 32, raw != _COLON, out=inside[1:-1])
    bounds = np.flatnonzero(inside[1:] != inside[:-1])
    # Per pair: index start and end, value start and end.  Every index ends at
    # a colon and every value starts right after it, so with no other colon
    # every token is exactly ``number:number``.
    if len(bounds) != 4 * text.count(b":") or (
            np.any(raw[bounds[1::4]] != _COLON) or np.any(bounds[2::4] - bounds[1::4] != 1)):
        return None
    starts, ends = bounds[0::2], bounds[1::2]  # of each number: index 0, value 0, ...
    digits = ends - starts
    if digits.max() > _DIGITS + 1:
        return None  # longer than 15 digits and a dot, before any digit is read
    dots = np.flatnonzero(raw == _DOT) if _DOT in text else np.zeros(0, dtype=np.intp)
    dotted = np.searchsorted(starts, dots, side="right") - 1  # the number holding each dot
    if np.any(dotted % 2 == 0) or np.any(np.diff(dotted) == 0):
        return None  # a dot in an index, or two in one value
    digits[dotted] -= 1
    longest = int(digits.max())
    if digits.min() < 1 or longest > _DIGITS:
        return None  # a value without digits, or too many
    # Horner's rule over the text without its dots, one digit column at a
    # time over the numbers that reach it
    packed = np.frombuffer(text.replace(b".", b""), dtype=np.uint8)
    firsts = starts - np.searchsorted(dots, starts)
    numbers = packed[firsts].astype(np.int64) - _ZERO
    for j in range(1, longest):
        more = np.flatnonzero(digits > j)
        numbers[more] = numbers[more] * 10 + packed[firsts[more] + j] - _ZERO
    indices, values = numbers[0::2], numbers[1::2].astype(float)
    values[dotted // 2] /= _POW10[ends[dotted] - dots - 1]  # the digits after each dot
    line_ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)) + 1)
    counts = np.diff(np.searchsorted(bounds, line_ends) // 4, prepend=0)  # four bounds a pair
    increasing = np.diff(indices) > 0
    increasing[np.cumsum(counts)[:-1] - 1] = True  # across a line boundary
    if not (values.min() > 0 and np.all(increasing)):
        return None
    return counts, indices, values


class _Columns:
    """The growing CSR buffers of a parse; lines are queued and converted in chunks."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.label_ids, self.indptr = array("q"), array("q", [0])
        self.indices, self.values = array("q"), array("d")
        self.max_index = -1
        self._queued: list[tuple[int, list[str]]] = []  # line number, [label, pair text]
        self._chars = 0

    def add(self, lineno: int, fields: list[str]) -> None:
        self._queued.append((lineno, fields))
        self._chars += len(fields[1])
        if self._chars >= _CHUNK_CHARS:
            self.flush()

    def flush(self) -> None:
        """Convert the queued lines; the first bad token among them raises."""
        if self._queued:
            index = self.index
            self.label_ids.extend(
                [index.setdefault(label, len(index)) for _, (label, _) in self._queued])
            texts = [text for _, (_, text) in self._queued]
            self._append(texts, 0, len(texts), _convert_chunk(texts))
        self._queued.clear()
        self._chars = 0

    def _append(self, texts: list[str], lo: int, hi: int,
                converted: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> None:
        """Append queued lines ``lo`` to ``hi - 1``, given their chunk conversion.

        A rejected range is split in halves.  While one half converts, the
        other is split again, so a lone line the array path cannot take goes
        token by token alone.  When both halves are rejected, all their lines
        go token by token: a corpus the array path cannot take costs a few
        conversions per chunk, not one per line.  Conversions never raise, so
        an earlier line's error still comes first.
        """
        if converted is not None:
            counts, indices, values = converted
            ends = len(self.indices) + np.cumsum(counts)
            self.indices.frombytes(indices.tobytes())
            self.values.frombytes(values.tobytes())
            self.indptr.frombytes(ends.tobytes())
            self.max_index = max(self.max_index, int(indices.max()))
            return
        mid = (lo + hi) // 2
        if mid > lo:
            left, right = _convert_chunk(texts[lo:mid]), _convert_chunk(texts[mid:hi])
            if left is not None or right is not None:
                self._append(texts, lo, mid, left)
                self._append(texts, mid, hi, right)
                return
        for text, (lineno, _) in zip(texts[lo:hi], self._queued[lo:hi]):
            indices, values = _checked_pairs(text.split(), lineno)
            self.indices.extend(indices)
            self.values.extend(values)
            self.indptr.append(len(self.indices))
            self.max_index = max(self.max_index, indices[-1])


def parse_sparse(source: Iterable[str] | IO[str], dim: int | None = None) -> LabeledDataset:
    """Parse the line-oriented sparse format; ``dim`` may widen the feature space.

    One pass over the lines fills the dataset's CSR buffers, so no
    per-document object is built; errors name the first bad line.
    """
    columns = _Columns()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        if len(fields) < 2:
            columns.flush()  # an error on an earlier line comes first
            raise ParseError(f"line {lineno}: expected LABEL followed by idx:val pairs")
        if not fields[0].isascii() and _SURROGATE.search(fields[0]):
            columns.flush()
            raise ParseError(f"line {lineno}: label {fields[0]!r} is not valid UTF-8")
        columns.add(lineno, fields)
    columns.flush()
    if not columns.label_ids:
        raise ParseError("dataset contains no documents")
    inferred = columns.max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise ParseError(
            f"requested dim {dim} is smaller than the largest feature index + 1 ({inferred})"
        )
    return LabeledDataset.from_arrays(
        dim, tuple(columns.index),
        *(np.frombuffer(buffer, dtype=buffer.typecode) for buffer in
          (columns.label_ids, columns.indptr, columns.indices, columns.values)),
    )


def serialize_sparse(ds: LabeledDataset) -> str:
    """Render a dataset back to the sparse text format (parse round-trips it).

    Each row's pairs are written in increasing index order, each value as the
    shortest repr that round-trips it, so 0.1 stays a plain decimal that the
    chunk conversion reads.
    """
    rows = np.repeat(np.arange(len(ds)), np.diff(ds.indptr))
    order = np.lexsort((ds.indices, rows))
    pairs = [f"{idx}:{value!r}"
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
    train_idx: list[int] = []
    if spec.stratified:
        by_class: dict[int, list[int]] = {}
        for i, k in enumerate(ds.label_ids.tolist()):
            by_class.setdefault(k, []).append(i)
        for k, indices in by_class.items():
            if len(indices) < 2:
                raise SplitError(
                    f"class {ds.classes[k]!r} has only one document; stratified split needs >= 2"
                )
            shuffled = _shuffle(indices, rng)
            take = _round_half_up(spec.train_fraction * len(indices))
            train_idx.extend(shuffled[:take])
    else:
        shuffled = _shuffle(list(range(len(ds))), rng)
        take = _round_half_up(spec.train_fraction * len(ds))
        train_idx = shuffled[:take]
    chosen = np.zeros(len(ds), dtype=bool)
    chosen[train_idx] = True
    train_rows, test_rows = np.flatnonzero(chosen), np.flatnonzero(~chosen)
    if not len(train_rows) or not len(test_rows):
        raise SplitError(
            f"split produced an empty side (train {len(train_rows)}, test {len(test_rows)})"
        )
    return ds.take(train_rows), ds.take(test_rows)


# ---------------------------------------------------------------------------
# Compact JSON; floats are written as the shortest repr that round-trips them,
# and an array becomes nested lists only when the encoder reaches it

_JSON_SETTINGS = {"separators": (",", ":"), "allow_nan": False, "default": np.ndarray.tolist}


def dumps_canonical(obj) -> str:
    """Compact JSON, insertion-ordered keys, floats that reload bit-identically."""
    return json.dumps(obj, **_JSON_SETTINGS) + "\n"


# Format 3 stores every model's dim x r vectors as r rows of length dim next
# to the scalars of its decision rule.  Format 2 stored a binary model's
# projector as a dense matrix; format 1 stored every measurement element and
# projector that way.
FORMAT_VERSION = 3
# each ``DetectorScalars`` field and its key in a model file, in file order
_SCALAR_KEYS = {"prior_negative": "prior_negative", "lam": "lambda", "eta": "eta",
                "beta": "beta", "threshold": "threshold"}


def _scalar_payload(det) -> dict:
    return {key: getattr(det, name) for name, key in _SCALAR_KEYS.items()}


def model_to_dict(model) -> dict:
    """The model file's JSON object; its arrays are the model's own arrays."""
    if model.strategy == "binary":
        fields = _scalar_payload(model)
    else:
        fields = {"priors": list(model.priors)}
        if model.strategy == "pgm":
            fields["kind"] = model.kind
        else:
            fields["detectors"] = [_scalar_payload(s) for s in model.detector_scalars]
    return {
        "format_version": FORMAT_VERSION,
        "strategy": model.strategy,
        "dim": int(model.dim),
        "labels": list(model.labels),
        **fields,
        "vectors": model.vectors.T,
    }


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(model_to_dict(model)))


_NUMBER = (int, float)
_ARRAY = (list, np.ndarray)


def _require(doc: dict, key: str, kinds) -> object:
    if key not in doc:
        raise FormatError(f"model file is missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int but never a valid model field
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise FormatError(f"model field {key!r} has the wrong type")
    return value


def _scalars(payload: dict) -> dict:
    """``DetectorScalars`` keyword arguments from a detector's fields."""
    return {name: float(_require(payload, key, _NUMBER)) for name, key in _SCALAR_KEYS.items()}


def _float_array(value) -> np.ndarray:
    """A float array from nested lists of numbers, or from a numeric array.

    ``np.array(value, dtype=float)`` alone would also turn numeric strings and
    booleans into numbers, so the type of every item is checked first.
    """
    items = np.array(value, dtype=object)
    if not all(issubclass(kind, _NUMBER) and not issubclass(kind, bool)
               for kind in set(map(type, items.flat))):
        raise FormatError("model arrays must hold only numbers")
    return items.astype(float)


def _projector_vectors(payload: dict, dim: int) -> np.ndarray:
    """Orthonormal basis of the dense ``projector`` a format 1 or 2 detector stored.

    The eigenvectors of eigenvalues above 1/2 must rebuild it within 1e-10.
    """
    p = _float_array(_require(payload, "projector", _ARRAY))
    if p.shape != (dim, dim):
        raise FormatError(f"projector of shape {p.shape} does not match dim {dim}")
    if not np.all(np.abs(p) <= 1.0 + 1e-10):
        raise FormatError("projector entries must be finite and within [-1, 1]")
    es = linalg.eigh(p)
    vectors = es.eigenvectors[:, es.eigenvalues > 0.5]
    if float(np.linalg.norm(vectors @ vectors.T - p)) > 1e-10:
        raise FormatError("projector is not an orthogonal projector within 1e-10")
    return vectors


def _dense_vectors(doc: dict, strategy: str, dim: int) -> np.ndarray:
    """The vectors of a file that stored dense matrices: format 1, or a format 2 binary.

    A detector's projector gives an orthonormal basis of its acceptance
    subspace, and each rank-1 pgm element is ``trace * outer(v, v)`` for its
    unit vector ``v``.
    """
    if strategy == "binary":
        return _projector_vectors(doc, dim)
    if strategy == "one_vs_rest":
        bases = [_projector_vectors(payload, dim) for payload in doc["detectors"]]
        if any(basis.shape[1] != 1 for basis in bases):
            raise FormatError("a one-vs-rest detector does not accept on a single vector")
        return np.hstack(bases)
    residual = doc.get("residual")
    m = Measurement(
        elements=tuple(_float_array(e) for e in _require(doc, "elements", _ARRAY)),
        kind=doc["kind"],
        residual=None if residual is None else _float_array(residual),
    )
    return np.column_stack(
        [math.sqrt(np.trace(e)) * v for e, v in zip(m.elements, measurement_vectors(m))])


def model_from_dict(doc: dict):
    """A model from a format 1, 2 or 3 JSON object; raises FormatError."""
    if not isinstance(doc, dict):
        raise FormatError("model file must contain a JSON object")
    version = _require(doc, "format_version", int)
    if version not in (1, 2, FORMAT_VERSION):
        raise UnsupportedVersionError(
            f"unsupported model format_version {version} (expected 1 to {FORMAT_VERSION})"
        )
    strategy = _require(doc, "strategy", str)
    dim = int(_require(doc, "dim", int))
    labels = tuple(_require(doc, "labels", list))
    if not all(isinstance(x, str) for x in labels):
        raise FormatError("model field 'labels' must hold strings")
    try:
        if strategy == "binary":
            if len(labels) != 2:
                raise FormatError("binary models need exactly two labels")
            fields = _scalars(doc)
        elif strategy == "pgm":
            fields = {"kind": _require(doc, "kind", str)}
        elif strategy == "one_vs_rest":
            payloads = _require(doc, "detectors", list)
            if len(payloads) != len(labels):
                raise FormatError("one detector per label is required")
            fields = {"detector_scalars": tuple(DetectorScalars(**_scalars(p)) for p in payloads)}
        else:
            raise FormatError(f"unknown strategy {strategy!r}")
        dense = version == 1 or (version == 2 and strategy == "binary")
        vectors = (_dense_vectors(doc, strategy, dim) if dense
                   else _float_array(_require(doc, "vectors", _ARRAY)).T)
        if strategy == "binary":
            return BinaryModel(dim=dim, vectors=vectors, labels=labels, **fields)
        priors = _require(doc, "priors", list)
        if not all(isinstance(x, _NUMBER) and not isinstance(x, bool) for x in priors):
            raise FormatError("model field 'priors' must hold numbers")
        return MulticlassModel(
            strategy=strategy, dim=dim, labels=labels, priors=tuple(float(x) for x in priors),
            vectors=vectors, **fields,
        )
    except FormatError:
        raise
    except (ValueError, TypeError, QdetectError) as exc:
        # an inconsistent array: a shape, norm or spectrum the model rejects
        raise FormatError(f"model file is inconsistent: {exc}") from exc


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name} in JSON file")


def _read_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise FormatError(f"{what} file is not valid: {exc}") from exc


def load_model(path):
    """Load a model JSON file; raises FormatError / UnsupportedVersionError."""
    return model_from_dict(_read_json(path, "model"))


def load_cost_matrix(path, n: int) -> np.ndarray:
    """Read an N x N nonnegative cost matrix from a JSON file."""
    doc = _read_json(path, "cost")
    try:
        matrix = _float_array(doc) if isinstance(doc, list) else None
    except (ValueError, FormatError):  # ragged or non-numeric arrays
        matrix = None
    if matrix is None or matrix.shape != (n, n) or not np.all((0 <= matrix) & (matrix < np.inf)):
        raise FormatError(f"cost file must hold a finite nonnegative {n}x{n} JSON array")
    return matrix
