"""Labeled corpora, feature statistics vectors and density operators.

A document is a sparse nonnegative feature vector; a corpus holds its
documents as CSR arrays.  Each class contributes one statistics vector (per
feature, the number of class documents in which the feature is nonzero) which
is normalized into a rank-1 density operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from qdetect.errors import DegenerateClassError, DegenerateCorpusError, DegenerateDocumentError


@dataclass(frozen=True)
class FeatureVector:
    """Sparse document: feature index -> positive value, indices below ``dim``.

    Zero values are dropped on construction; negative and non-finite values
    are rejected.
    """

    dim: int
    entries: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        cleaned = {}
        for idx, value in self.entries.items():
            idx = int(idx)
            value = float(value)
            if idx < 0 or idx >= self.dim:
                raise ValueError(f"feature index {idx} out of range for dim {self.dim}")
            if not 0.0 <= value < math.inf:  # False for NaN
                raise ValueError(f"feature {idx} has value {value}, not finite and nonnegative")
            if value > 0.0:
                cleaned[idx] = value
        object.__setattr__(self, "entries", cleaned)

    def is_empty(self) -> bool:
        return not self.entries


# numpy refuses an array larger than the address space with a ValueError;
# that is an out-of-memory condition like any other
_MAX_ITEMS = np.iinfo(np.intp).max // 8


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > _MAX_ITEMS:
        raise MemoryError(f"a {rows} x {cols} array of 8-byte numbers exceeds the address space")


def _readonly(values, dtype) -> np.ndarray:
    out = np.asarray(values, dtype=dtype).view()  # the caller's array keeps its flags
    out.flags.writeable = False
    return out


def _csr(docs: Sequence[FeatureVector], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``indptr``, ``indices`` and ``values`` of documents no wider than ``dim``."""
    for doc in docs:
        if doc.dim > dim:
            raise ValueError(f"document dim {doc.dim} exceeds corpus dim {dim}")
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(doc.entries) for doc in docs], dtype=np.int64)
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(doc.entries for doc in docs), np.int64, nnz)
    values = np.fromiter(chain.from_iterable(doc.entries.values() for doc in docs), float, nnz)
    return indptr, indices, values


class LabeledDataset:
    """Ordered labeled documents over a shared feature space, held as CSR arrays.

    ``classes`` lists the distinct labels in first-appearance order.  Row i has
    label ``classes[label_ids[i]]`` and holds the features
    ``indices[indptr[i]:indptr[i + 1]]`` with their ``values`` (int64 and
    float64, read-only).  ``documents`` holds the same rows as
    ``(label, FeatureVector)`` pairs, built on first use.  Iterating yields
    all the rows as one CSR range, so ``class_statistics`` and the scorers
    of ``metrics`` read a dataset as they read a ``dataio.DocumentReader``.
    """

    def __init__(self, dim: int, documents: Iterable[tuple[str, FeatureVector]]):
        documents = tuple(documents)
        if not documents:
            raise ValueError("a dataset needs at least one document")
        for label, doc in documents:
            if not label:
                raise ValueError("labels must be nonempty strings")
            if doc.dim != dim:
                raise ValueError("all documents must share the dataset dim")
        columns = _csr([doc for _, doc in documents], dim)
        self._store(dim, *_label_ids(label for label, _ in documents), *columns)
        self.__dict__["documents"] = documents

    @classmethod
    def from_arrays(cls, dim: int, classes, label_ids, indptr, indices, values) -> LabeledDataset:
        """A dataset over arrays whose entries the caller has checked.

        Unlike the constructor, any number of rows is accepted, including none.
        """
        ds = cls.__new__(cls)
        ds._store(dim, classes, label_ids, indptr, indices, values)
        return ds

    def _store(self, dim, classes, label_ids, indptr, indices, values) -> None:
        self.dim = dim
        self.classes = tuple(classes)
        self.label_ids = _readonly(label_ids, np.int64)
        self.indptr = _readonly(indptr, np.int64)
        self.indices = _readonly(indices, np.int64)
        self.values = _readonly(values, float)

    @cached_property
    def documents(self) -> tuple[tuple[str, FeatureVector], ...]:
        ptr, idx, val = self.indptr.tolist(), self.indices.tolist(), self.values.tolist()
        return tuple(
            (self.classes[k], FeatureVector(dim=self.dim, entries=dict(zip(idx[a:b], val[a:b]))))
            for k, a, b in zip(self.label_ids.tolist(), ptr, ptr[1:])
        )

    @property
    def class_index(self) -> dict[str, int]:
        """Label -> dense index, assigned in first-appearance order."""
        return {label: k for k, label in enumerate(self.classes)}

    def take(self, rows) -> LabeledDataset:
        """The given rows, in that order, as a dataset over the same features.

        Its ``classes`` are the labels of those rows in first-appearance order.
        """
        rows = np.asarray(rows, dtype=np.intp)
        label_ids = self.label_ids[rows]
        present, first = np.unique(label_ids, return_index=True)
        order = present[np.argsort(first)]
        renumber = np.zeros(len(self.classes), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # each kept entry's position in this dataset's entry arrays
        entries = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return LabeledDataset.from_arrays(
            self.dim, [self.classes[k] for k in order.tolist()], renumber[label_ids],
            indptr, self.indices[entries], self.values[entries],
        )

    def __len__(self) -> int:
        return len(self.label_ids)

    def __iter__(self):
        """All rows as one range ``(label_ids, lengths, indices, values)``, as a reader's are."""
        yield self.label_ids, np.diff(self.indptr), self.indices, self.values

    @property
    def largest(self) -> int:
        """The largest feature index this dataset's dim allows."""
        return self.dim - 1

    def width(self, dim: int | None = None) -> int:
        """The feature count to read the rows at: ``dim``, or this dataset's own without it."""
        if dim is None:
            return self.dim
        if self.dim > dim:
            raise ValueError(f"document dim {self.dim} exceeds corpus dim {dim}")
        return dim


def _label_ids(labels: Iterable[str]) -> tuple[tuple[str, ...], list[int]]:
    """Distinct labels in first-appearance order, and each label's position there."""
    index: dict[str, int] = {}
    ids = [index.setdefault(label, len(index)) for label in labels]
    return tuple(index), ids


def as_dataset(corpus, dim: int) -> LabeledDataset:
    """``corpus`` itself, or its ``(label, FeatureVector)`` pairs as a dataset of width ``dim``."""
    if isinstance(corpus, LabeledDataset):
        return corpus
    pairs = tuple(corpus)
    columns = _csr([doc for _, doc in pairs], dim)
    return LabeledDataset.from_arrays(dim, *_label_ids(label for label, _ in pairs), *columns)


def class_statistics(documents, dim: int | None = None
                     ) -> tuple[tuple[str, ...], list[float], np.ndarray]:
    """The classes of labeled documents, their document-frequency priors and N x dim counts.

    ``documents`` yields CSR ranges ``(label_ids, lengths, indices, values)``
    and has ``classes``, ``largest`` and ``width(dim)``, as a
    ``LabeledDataset`` and a ``dataio.DocumentReader`` have.  Each range is
    counted into an N x width table and dropped, so a read's memory does not
    grow with its documents.  The table widens as new classes and larger
    indices arrive; its entries are counted by ``np.add.at``, whose cost is
    the entries' and not the table's.  Past ``dim``, or once the table
    cannot exist, nothing more is counted: the errors of ``width(dim)`` and
    the table's MemoryError wait for the last range, so an error on any line
    comes first.  No documents raise DegenerateCorpusError, and a class
    whose row is all zero DegenerateClassError, naming the first.
    """
    sizes, counts = np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    unallocated = None  # the MemoryError of a table that memory cannot hold
    for ids, lengths, indices, _ in documents:
        n, width = len(documents.classes), documents.largest + 1
        batch = np.bincount(ids, minlength=n)
        batch[:len(sizes)] += sizes
        sizes = batch
        # past dim, the address space or memory the read ends in an error; the
        # size check also comes before any key ``id * width + index`` can overflow
        if dim is not None and width > dim or n * width > _MAX_ITEMS or unallocated:
            continue
        if counts.shape != (n, width):
            try:
                grown = np.zeros((n, width), dtype=np.int64)
            except MemoryError as exc:
                unallocated = exc
                continue
            grown[:counts.shape[0], :counts.shape[1]] = counts
            counts = grown
        np.add.at(counts.reshape(-1), np.repeat(ids * width, lengths) + indices, 1)
    classes = tuple(documents.classes)
    dim = documents.width(dim)
    _check_size(len(classes), dim)
    if unallocated is not None:
        raise unallocated
    table = np.zeros((len(classes), dim))
    table[:, :counts.shape[1]] = counts
    sizes = list(map(int, sizes))
    total = sum(sizes)
    if not total:  # a read with no documents has failed in width() already
        raise DegenerateCorpusError("dataset contains no documents")
    priors = [size / total for size in sizes]
    empty = ~table.any(axis=1)
    if empty.any():
        label = classes[int(np.argmax(empty))]
        raise DegenerateClassError(f"class {label!r} has an all-zero statistics vector")
    return classes, priors, table


def feature_statistics(
    docs: Sequence[FeatureVector], dim: int, label: str | None = None
) -> np.ndarray:
    """Count, per feature, the documents of a class with a nonzero value there.

    Counts depend only on which features are nonzero, so rescaling document
    values leaves the result unchanged, as does document order.
    """
    if not docs:
        raise DegenerateClassError(f"class {label!r} has no documents")
    _, _, counts = class_statistics(as_dataset([(label, doc) for doc in docs], dim), dim)
    return counts[0]


def density_from_vector(v) -> np.ndarray:
    """Rank-1 unit-trace density operator ``outer(v, v) / ||v||^2``.

    ``v`` is divided by its largest magnitude first, so that values near the
    overflow or subnormal limits give no infinite or zero norm.  A zero or
    non-finite ``v`` raises DegenerateClassError.
    """
    v = np.asarray(v, dtype=float)
    peak = float(np.max(np.abs(v), initial=0.0))
    if not 0.0 < peak < math.inf:  # False for NaN
        raise DegenerateClassError("cannot build a density operator from a zero or "
                                   "non-finite vector")
    u = v / peak
    return np.outer(u, u) / float(u @ u)


def unit_entries(indptr, values) -> np.ndarray:
    """Positive CSR entry values, scaled so that each nonempty row has norm 1.

    Each row is divided by its largest value before its norm is taken, so that
    values near the overflow or subnormal limits give no infinite or zero norm.
    """
    lengths = np.diff(indptr)
    starts, sizes = indptr[:-1][lengths > 0], lengths[lengths > 0]
    if not starts.size:  # reduceat rejects an empty index list
        return np.zeros(len(values))
    scaled = values / np.repeat(np.maximum.reduceat(values, starts), sizes)
    return scaled / np.repeat(np.sqrt(np.add.reduceat(np.square(scaled), starts)), sizes)


def dense_rows(indptr, columns, values, width: int) -> np.ndarray:
    """CSR rows as a dense matrix ``width`` wide: row i holds its ``values`` at its ``columns``."""
    n = len(indptr) - 1
    _check_size(n, width)
    rows = np.zeros((n, width))
    rows.reshape(-1)[np.repeat(np.arange(n) * width, np.diff(indptr)) + columns] = values
    return rows


def normalize_documents(docs: Sequence[FeatureVector], dim: int) -> np.ndarray:
    """Dense L2-normalized rows zero-padded to ``dim``; empty documents give zero rows."""
    indptr, indices, values = _csr(docs, dim)
    return dense_rows(indptr, indices, unit_entries(indptr, values), dim)


def normalize_document(doc: FeatureVector, dim: int | None = None) -> np.ndarray:
    """Dense L2-normalized copy of a document's raw values.

    Raises
    ------
    DegenerateDocumentError
        If the document has no nonzero entries; callers decide the fallback.
    """
    if doc.is_empty():
        raise DegenerateDocumentError("document has no nonzero features")
    return normalize_documents([doc], doc.dim if dim is None else dim)[0]
