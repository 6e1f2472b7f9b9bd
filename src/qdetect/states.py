"""Feature statistics vectors and density operators built from labeled documents.

A document is a sparse nonnegative feature vector.  Each class contributes one
statistics vector (per feature, the number of class documents in which the
feature is nonzero) which is normalized into a rank-1 density operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from qdetect.errors import DegenerateClassError, DegenerateDocumentError


@dataclass(frozen=True)
class FeatureVector:
    """Sparse document: feature index -> positive value, indices below ``dim``.

    Zero values are dropped on construction; negative values are rejected.
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
            if value < 0.0:
                raise ValueError(f"feature {idx} has negative value {value}")
            if value > 0.0:
                cleaned[idx] = value
        object.__setattr__(self, "entries", cleaned)

    def is_empty(self) -> bool:
        return not self.entries

    def to_dense(self, dim: int | None = None) -> np.ndarray:
        """Dense copy, optionally zero-padded up to a larger ``dim``."""
        dim = self.dim if dim is None else dim
        if dim < self.dim:
            raise ValueError(f"cannot shrink dim {self.dim} to {dim}")
        dense = np.zeros(dim)
        for idx, value in self.entries.items():
            dense[idx] = value
        return dense


@dataclass(frozen=True)
class ClassStatVector:
    """Per-feature document counts for one class; never all-zero."""

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("class statistics must be a vector")
        if not np.any(values > 0.0):
            raise DegenerateClassError(
                f"class {self.label!r} has an all-zero statistics vector"
            )
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def feature_statistics(
    docs: Sequence[FeatureVector], dim: int, label: str | None = None
) -> ClassStatVector:
    """Count, per feature, the documents of a class with a nonzero value there.

    Counts depend only on which features are nonzero, so rescaling document
    values leaves the result unchanged, as does document order.
    """
    if not docs:
        raise DegenerateClassError(f"class {label!r} has no documents")
    counts = np.zeros(dim)
    for doc in docs:
        if doc.dim > dim:
            raise ValueError(f"document dim {doc.dim} exceeds corpus dim {dim}")
        for idx in doc.entries:
            counts[idx] += 1.0
    return ClassStatVector(values=counts, label=label)


def density_from_vector(v) -> np.ndarray:
    """Rank-1 unit-trace density operator ``outer(v, v) / ||v||^2``."""
    if isinstance(v, ClassStatVector):
        v = v.values
    v = np.asarray(v, dtype=float)
    norm_sq = float(v @ v)
    if norm_sq <= 0.0:
        raise DegenerateClassError("cannot build a density operator from a zero vector")
    return np.outer(v, v) / norm_sq


def normalize_documents(docs: Sequence[FeatureVector], dim: int) -> np.ndarray:
    """Dense L2-normalized rows zero-padded to ``dim``; empty documents give zero rows.

    Dividing each row by its largest value before taking the norm keeps values
    near the overflow or subnormal limits from giving an infinite or zero norm.
    """
    rows = np.array([doc.to_dense(dim) for doc in docs])
    peak = rows.max(axis=1, keepdims=True)
    rows /= np.where(peak > 0.0, peak, 1.0)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, np.where(norms > 0.0, norms, 1.0), out=rows)


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


def check_density(m, atol: float = 1e-10) -> np.ndarray:
    """Validate trace 1 and positive semidefiniteness; returns the array."""
    m = np.asarray(m, dtype=float)
    trace = float(np.trace(m))
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"density operator trace {trace!r} is not 1")
    min_eig = float(np.min(np.linalg.eigvalsh((m + m.T) / 2.0)))
    if min_eig < -atol:
        raise ValueError(f"density operator has negative eigenvalue {min_eig:.3e}")
    return m
