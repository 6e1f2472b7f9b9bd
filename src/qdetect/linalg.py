"""Deterministic real symmetric matrix toolkit.

Eigendecompositions, spectral projectors, pseudo-inverse square roots and
trace norms, with a fixed eigenvector sign convention so that identical
inputs always produce bit-identical outputs.  Only the real symmetric case
is supported; matrices are plain ``numpy.ndarray`` objects and are
symmetrized on entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdetect.errors import ConvergenceError, DimensionMismatchError, NotPsdError

# Relative cutoff below which an eigenvalue counts as zero.
ZERO_EIGENVALUE_RTOL = 1e-12
# Relative cutoff for the support of a PSD matrix (pseudo-inverse).
SUPPORT_RTOL = 1e-10


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a float array; entries are exactly symmetric."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.T) / 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted descending with aligned orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive.

    A component counts as nonzero when its magnitude exceeds
    ``1e-12 * max |component|`` of its column.
    """
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        cutoff = 1e-12 * np.max(np.abs(col))
        for value in col:
            if abs(value) > cutoff:
                if value < 0:
                    vectors[:, j] = -col
                break
    return vectors


def eigh(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, deterministic and descending.

    Raises
    ------
    ConvergenceError
        If the underlying iteration fails, or the decomposition does not
        reconstruct the input within tolerance; the message carries the
        residual Frobenius norm.
    """
    m = symmetrize(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed to converge: {exc}") from exc
    # numpy returns ascending order; the toolkit contract is descending.
    w = w[::-1].copy()
    v = _fix_signs(v[:, ::-1])
    residual = float(np.linalg.norm((v * w) @ v.T - m))
    bound = 1e-10 * m.shape[0] * max(1.0, float(np.linalg.norm(m)))
    if residual > bound:
        raise ConvergenceError(
            f"eigendecomposition residual norm {residual:.3e} exceeds bound {bound:.3e}"
        )
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def projector_from_eigenspace(es: EigenSystem, which: str) -> np.ndarray:
    """Orthogonal projector onto the selected part of the spectrum.

    ``which`` is one of ``"positive"``, ``"negative"`` or ``"zero"``.
    Eigenvalues with ``|w| <= 1e-12 * max|w|`` count as zero and are excluded
    from both signed selections.
    """
    w = es.eigenvalues
    cutoff = ZERO_EIGENVALUE_RTOL * (np.max(np.abs(w)) if w.size else 0.0)
    if which == "positive":
        mask = w > cutoff
    elif which == "negative":
        mask = w < -cutoff
    elif which == "zero":
        mask = np.abs(w) <= cutoff
    else:
        raise ValueError(f"unknown eigenspace selector {which!r}")
    sel = es.eigenvectors[:, mask]
    return symmetrize(sel @ sel.T)


def inv_sqrt_psd(m) -> np.ndarray:
    """Pseudo-inverse square root ``R`` of a PSD matrix: ``R m R`` projects onto support.

    Eigenvalues below ``1e-10 * max(w)`` map to zero (pseudo-inverse on the
    support); slightly negative eigenvalues are clamped to zero.

    Raises
    ------
    NotPsdError
        If the smallest eigenvalue is below ``-1e-10 * max|w|``.
    """
    es = eigh(m)
    w = es.eigenvalues
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale > 0.0 and float(np.min(w)) < -SUPPORT_RTOL * scale:
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {np.min(w):.3e} vs max {scale:.3e}"
        )
    w = np.clip(w, 0.0, None)
    cutoff = SUPPORT_RTOL * scale
    inv_roots = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    v = es.eigenvectors
    return symmetrize((v * inv_roots) @ v.T)


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a symmetric matrix."""
    m = symmetrize(m)
    w = np.linalg.eigvalsh(m)
    return float(np.sum(np.abs(w)))


def born_scores(rows, vectors) -> np.ndarray:
    """Per-column Born-rule scores ``(rows @ v) ** 2`` of unit rows, shape (len(rows), r).

    ``vectors`` is dim x r.  Each column is projected on its own, so a score
    does not depend on the other columns.  A ``rows`` that is not a matrix as
    wide as ``vectors`` is tall raises DimensionMismatchError.
    """
    rows = np.asarray(rows, dtype=float)
    dim = vectors.shape[0]
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionMismatchError(
            f"document dim {rows.shape[1:]} does not match model dim {dim}"
        )
    return np.hstack([np.square(rows @ vectors[:, k:k + 1]) for k in range(vectors.shape[1])])
