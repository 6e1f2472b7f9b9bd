"""Deterministic real symmetric matrix toolkit.

Eigendecompositions, spectral projectors, pseudo-inverse square roots and
trace norms, with a fixed eigenvector sign convention so that identical
inputs always produce bit-identical outputs.  Only the real symmetric case
is supported; matrices are plain ``numpy.ndarray`` objects and are
symmetrized on entry.
"""

from __future__ import annotations

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


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive.

    A component counts as nonzero when its magnitude exceeds
    ``1e-12 * max |component|`` of its column.
    """
    vectors = vectors.copy()
    if not vectors.size:  # argmax refuses an empty axis
        return vectors
    above = np.abs(vectors) > 1e-12 * np.max(np.abs(vectors), axis=0)
    first = vectors[np.argmax(above, axis=0), np.arange(vectors.shape[1])]
    # argmax is 0 in a column with no such component, which then keeps its sign
    np.negative(vectors, out=vectors, where=above.any(axis=0) & (first < 0))
    return vectors


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w``, descending, and aligned orthonormal column eigenvectors ``v``.

    Deterministic: each eigenvector's first nonzero component is positive.

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
    v = fix_signs(v[:, ::-1])
    residual = float(np.linalg.norm((v * w) @ v.T - m))
    bound = 1e-10 * m.shape[0] * max(1.0, float(np.linalg.norm(m)))
    if residual > bound:
        raise ConvergenceError(
            f"eigendecomposition residual norm {residual:.3e} exceeds bound {bound:.3e}"
        )
    return w, v


def inv_sqrt_psd(m) -> np.ndarray:
    """Pseudo-inverse square root ``R`` of a PSD matrix: ``R m R`` projects onto support.

    The dense reference for ``S^(-1/2)``: ``pgm`` takes the square-root
    measurement from a polar factor instead, which needs no inverse root.
    Eigenvalues below ``1e-10 * max(w)`` map to zero (pseudo-inverse on the
    support); slightly negative eigenvalues are clamped to zero.

    Raises
    ------
    NotPsdError
        If the smallest eigenvalue is below ``-1e-10 * max|w|``.
    """
    w, v = eigh(m)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale > 0.0 and float(np.min(w)) < -SUPPORT_RTOL * scale:
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {np.min(w):.3e} vs max {scale:.3e}"
        )
    w = np.clip(w, 0.0, None)
    cutoff = SUPPORT_RTOL * scale
    inv_roots = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    return symmetrize((v * inv_roots) @ v.T)


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a symmetric matrix."""
    m = symmetrize(m)
    w = np.linalg.eigvalsh(m)
    return float(np.sum(np.abs(w)))


def frozen(a) -> np.ndarray:
    """``a`` as a read-only C-ordered float64 array, copied unless it already is one.

    A read-only array that owns its memory is taken as it is, so a loader
    hands over the array it built without a second copy; nothing writes to
    it without first setting it writable again.  Any other input is copied,
    so the result never shares memory with an array a caller can write.
    """
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
            and not a.flags.writeable and a.base is None):
        return a
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


def bounded(a: np.ndarray) -> bool:
    """``np.all(np.abs(a) <= 1 + 1e-10)``, NaN included, with no temporary as large as ``a``."""
    return bool(-1.0 - 1e-10 <= a.min(initial=0.0) <= a.max(initial=0.0) <= 1.0 + 1e-10)


def unit_row(x) -> np.ndarray:
    """``x`` as a 1 x dim matrix; ValueError unless it is finite with norm 1 within 1e-10."""
    x = np.asarray(x, dtype=float)
    # entries within [-1, 1] keep the norm from overflowing
    if not (bounded(x) and abs(np.linalg.norm(x) - 1.0) <= 1e-10):
        raise ValueError("expected a finite unit vector, with norm 1 within 1e-10")
    return x[None]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for each row k of two n x d arrays, in one batched product.

    Both forms agree bit for bit on the same memory.  Under OpenBLAS's
    Prescott kernel ``ddot`` also depends on a row's alignment, so the same
    values in another buffer can differ in the last bits.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` divided by its norm."""
    return a / np.sqrt(row_dots(a, a))[:, None]


def born_scores(rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Born-rule scores ``(rows @ vectors) ** 2`` of unit rows, shape (len(rows), r).

    ``vectors`` is dim x r.  A ``rows`` that is not a matrix as wide as
    ``vectors`` is tall raises DimensionMismatchError.
    """
    if rows.ndim != 2 or rows.shape[1] != len(vectors):
        raise DimensionMismatchError(
            f"document dim {rows.shape[1:]} does not match model dim {len(vectors)}")
    scores = rows @ vectors
    return np.square(scores, out=scores)
