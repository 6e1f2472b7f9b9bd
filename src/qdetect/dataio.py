"""Dataset parsing, deterministic splits, and model serialization.

The dataset format is line-oriented text: ``LABEL idx:val [idx:val ...]`` with
0-based, strictly increasing integer indices and positive finite decimal
values; ``#``-prefixed lines are comments.  Models are stored as compact JSON
whose floats are written as the shortest repr that round-trips each double, so
reloads are bit-identical.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from qdetect.binary import BinaryModel
from qdetect.errors import (
    FormatError,
    ParseError,
    SplitError,
    UnsupportedVersionError,
)
from qdetect.multiclass import Measurement, MulticlassModel
from qdetect.states import FeatureVector


@dataclass(frozen=True)
class LabeledDataset:
    """Ordered labeled documents over a shared feature space."""

    dim: int
    documents: tuple[tuple[str, FeatureVector], ...]

    def __post_init__(self):
        if not self.documents:
            raise ValueError("a dataset needs at least one document")
        for label, doc in self.documents:
            if not label:
                raise ValueError("labels must be nonempty strings")
            if doc.dim != self.dim:
                raise ValueError("all documents must share the dataset dim")

    @property
    def class_index(self) -> dict[str, int]:
        """Label -> dense index, assigned in first-appearance order."""
        index: dict[str, int] = {}
        for label, _ in self.documents:
            if label not in index:
                index[label] = len(index)
        return index

    def __len__(self) -> int:
        return len(self.documents)


def parse_sparse(source: Iterable[str] | IO[str], dim: int | None = None) -> LabeledDataset:
    """Parse the line-oriented sparse format; ``dim`` may widen the feature space."""
    labels: list[str] = []
    rows: list[dict[int, float]] = []
    max_index = -1
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected LABEL followed by idx:val pairs")
        label = tokens[0]
        entries: dict[int, float] = {}
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
    vectors = [FeatureVector(dim=dim, entries=entries) for entries in rows]
    return LabeledDataset(dim=dim, documents=tuple(zip(labels, vectors)))


def serialize_sparse(ds: LabeledDataset) -> str:
    """Render a dataset back to the sparse text format (parse round-trips it)."""
    lines = []
    for label, doc in ds.documents:
        pairs = " ".join(
            f"{idx}:{format(value, '.17g')}" for idx, value in sorted(doc.entries.items())
        )
        lines.append(f"{label} {pairs}")
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
        by_class: dict[str, list[int]] = {}
        for i, (label, _) in enumerate(ds.documents):
            by_class.setdefault(label, []).append(i)
        for label, indices in by_class.items():
            if len(indices) < 2:
                raise SplitError(
                    f"class {label!r} has only one document; stratified split needs >= 2"
                )
            shuffled = _shuffle(indices, rng)
            take = _round_half_up(spec.train_fraction * len(indices))
            train_idx.extend(shuffled[:take])
    else:
        shuffled = _shuffle(list(range(len(ds))), rng)
        take = _round_half_up(spec.train_fraction * len(ds))
        train_idx = shuffled[:take]
    chosen = set(train_idx)
    train_docs = tuple(ds.documents[i] for i in range(len(ds)) if i in chosen)
    test_docs = tuple(ds.documents[i] for i in range(len(ds)) if i not in chosen)
    if not train_docs or not test_docs:
        raise SplitError(
            f"split produced an empty side (train {len(train_docs)}, test {len(test_docs)})"
        )
    return (
        LabeledDataset(dim=ds.dim, documents=train_docs),
        LabeledDataset(dim=ds.dim, documents=test_docs),
    )


# ---------------------------------------------------------------------------
# Compact JSON; floats are written as the shortest repr that round-trips them,
# and an array becomes nested lists only when the encoder reaches it

_JSON_SETTINGS = {"separators": (",", ":"), "allow_nan": False, "default": np.ndarray.tolist}


def dumps_canonical(obj) -> str:
    """Compact JSON, insertion-ordered keys, floats that reload bit-identically."""
    return json.dumps(obj, **_JSON_SETTINGS) + "\n"


FORMAT_VERSION = 1


def _binary_payload(model: BinaryModel) -> dict:
    return {
        "prior_negative": model.prior_negative,
        "lambda": model.lam,
        "eta": model.eta,
        "beta": model.beta,
        "threshold": model.threshold,
        "projector": model.projector,
    }


def model_to_dict(model) -> dict:
    """The model file's JSON object; its matrices are the model's own arrays."""
    if isinstance(model, BinaryModel):
        strategy, fields = "binary", _binary_payload(model)
    elif isinstance(model, MulticlassModel):
        strategy, fields = model.strategy, {"priors": list(model.priors)}
        if strategy == "pgm":
            m = model.measurement
            fields["kind"] = m.kind
            fields["elements"] = list(m.elements)
            fields["residual"] = m.residual
        else:
            fields["detectors"] = [_binary_payload(det) for det in model.detectors]
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "format_version": FORMAT_VERSION,
        "strategy": strategy,
        "dim": int(model.dim),
        "labels": list(model.labels),
        **fields,
    }


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # streamed matrix by matrix, so the document is never held in memory whole
        json.dump(model_to_dict(model), fh, **_JSON_SETTINGS)
        fh.write("\n")


def _require(doc: dict, key: str, kinds) -> object:
    if key not in doc:
        raise FormatError(f"model file is missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int but never a valid model field
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise FormatError(f"model field {key!r} has the wrong type")
    return value


def _binary_from_payload(payload: dict, dim: int, labels: tuple[str, str]) -> BinaryModel:
    return BinaryModel(
        dim=dim,
        projector=np.array(_require(payload, "projector", (list, np.ndarray)), dtype=float),
        lam=float(_require(payload, "lambda", (int, float))),
        eta=float(_require(payload, "eta", (int, float))),
        beta=float(_require(payload, "beta", (int, float))),
        threshold=float(_require(payload, "threshold", (int, float))),
        prior_negative=float(_require(payload, "prior_negative", (int, float))),
        labels=labels,
    )


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise FormatError("model file must contain a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported model format_version {version} (expected {FORMAT_VERSION})"
        )
    strategy = _require(doc, "strategy", str)
    dim = int(_require(doc, "dim", int))
    labels = [str(x) for x in _require(doc, "labels", list)]
    try:
        if strategy == "binary":
            if len(labels) != 2:
                raise FormatError("binary models need exactly two labels")
            return _binary_from_payload(doc, dim, (labels[0], labels[1]))
        if strategy == "pgm":
            residual = doc.get("residual")
            fields = {"measurement": Measurement(
                elements=tuple(np.array(e, dtype=float) for e in _require(doc, "elements", list)),
                kind=str(_require(doc, "kind", str)),
                residual=None if residual is None else np.array(residual, dtype=float),
            )}
        elif strategy == "one_vs_rest":
            detectors = tuple(
                _binary_from_payload(payload, dim, (label, f"not-{label}"))
                for label, payload in zip(labels, _require(doc, "detectors", list))
            )
            if len(detectors) != len(labels):
                raise FormatError("one detector per label is required")
            fields = {"detectors": detectors}
        else:
            raise FormatError(f"unknown strategy {strategy!r}")
        priors = tuple(float(x) for x in _require(doc, "priors", list))
        return MulticlassModel(
            strategy=strategy, dim=dim, labels=tuple(labels), priors=priors, **fields
        )
    except (ValueError, TypeError) as exc:
        raise FormatError(f"model file is inconsistent: {exc}") from exc


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name} in JSON file")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_scan_value = _DECODER.scan_once  # the C scanner: one whole JSON value


def _scan(text: str, idx: int):
    # Objects are read field by field and arrays item by item, and the lists in
    # an item become float arrays at once, so at most one matrix of a model
    # file exists as Python floats at a time.
    if text.startswith("{", idx):
        return json.decoder.JSONObject((text, idx + 1), True, _scan, None, None)
    if text.startswith("[", idx):
        return json.decoder.JSONArray((text, idx + 1), _scan_item)
    return _scan_value(text, idx)


def _scan_item(text: str, idx: int):
    item, end = _scan_value(text, idx)
    if isinstance(item, dict):  # a one-vs-rest detector
        item = {k: np.array(v, dtype=float) if isinstance(v, list) else v for k, v in item.items()}
    return (np.array(item, dtype=float) if isinstance(item, list) else item), end


_DECODER.scan_once = _scan  # decode() reads the document through _scan


def _read_json(path, what: str):
    try:
        # decoded straight from the mapped file: the text is never also held as bytes
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            text = str(mm, "utf-8")
        return _DECODER.decode(text)
    except (ValueError, TypeError) as exc:  # invalid JSON, or a non-numeric array item
        raise FormatError(f"{what} file is not valid: {exc}") from exc


def load_model(path):
    """Load a model JSON file; raises FormatError / UnsupportedVersionError."""
    return model_from_dict(_read_json(path, "model"))


def load_cost_matrix(path, n: int) -> np.ndarray:
    """Read an N x N nonnegative cost matrix from a JSON file."""
    doc = _read_json(path, "cost")
    try:
        matrix = np.asarray(doc, dtype=float) if isinstance(doc, list) else None
    except ValueError:  # ragged or non-numeric arrays
        matrix = None
    if matrix is None or matrix.shape != (n, n) or not np.all((0 <= matrix) & (matrix < np.inf)):
        raise FormatError(f"cost file must hold a finite nonnegative {n}x{n} JSON array")
    return matrix
