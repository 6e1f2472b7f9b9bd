"""Two-hypothesis detector: positive eigenspace of the weighted density difference.

Training eigendecomposes ``rho_pos - lam * rho_neg`` with ``lam = xi / (1 - xi)``
(``xi`` the prior of the negative class) and keeps an orthonormal basis of the
positive eigenspace.  For two rank-1 class states that eigenspace is one unit
vector ``e``, found from a closed-form 2x2 problem.  A document is accepted
when its Born-rule score on the eigenspace's projector reaches the decision
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from qdetect import linalg
from qdetect.errors import (
    DegenerateSeparationError,
    DimensionMismatchError,
    InvalidPriorError,
)
from qdetect.states import ClassStatVector, FeatureVector, feature_statistics


@dataclass(frozen=True)
class DetectorScalars:
    """Everything of a detector but its acceptance subspace.

    ``eta``/``beta`` are the extreme positive/negative eigenvalues of the
    difference operator for ``lam = prior_negative / (1 - prior_negative)``.
    """

    lam: float
    eta: float
    beta: float
    threshold: float
    prior_negative: float

    def __post_init__(self):
        # a NaN compares False, so finiteness is checked explicitly first
        if not np.all(np.isfinite([self.lam, self.eta, self.beta])):
            raise ValueError("lam, eta and beta must be finite")
        if not (self.eta > 0.0 and self.beta < 0.0):
            raise ValueError("expected eta > 0 and beta < 0")
        if not 0.0 < self.prior_negative < 1.0:
            raise ValueError("prior_negative must lie strictly inside (0, 1)")
        expected_lam = self.prior_negative / (1.0 - self.prior_negative)
        if abs(self.lam - expected_lam) > 1e-12 * max(1.0, abs(expected_lam)):
            raise ValueError("lam is inconsistent with prior_negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class BinaryModel(DetectorScalars):
    """Immutable trained detector: its scalars and its acceptance subspace.

    ``vectors`` (dim x r) holds an orthonormal basis of the acceptance
    subspace, one unit vector ``e`` for two rank-1 class states, and
    ``labels`` names the (positive, negative) classes.  ``projector`` is the
    dense view, built on demand.  Safe to score from many threads.
    """

    dim: int
    vectors: np.ndarray
    labels: tuple[str, str] = ("positive", "negative")
    strategy: ClassVar[str] = "binary"

    def __post_init__(self):
        super().__post_init__()
        vectors = np.array(self.vectors, dtype=float, order="C")
        if vectors.ndim != 2 or vectors.shape[0] != self.dim or not vectors.shape[1]:
            raise ValueError(f"vectors of shape {vectors.shape} do not match dim {self.dim}")
        # orthonormal columns have entries in [-1, 1]; a larger entry could
        # overflow below, and a NaN would compare False there
        if not np.all(np.abs(vectors) <= 1.0 + 1e-10):
            raise ValueError("vectors must be finite, with entries in [-1, 1]")
        gram = vectors.T @ vectors
        if float(np.linalg.norm(gram - np.eye(len(gram)))) > 1e-10:
            raise ValueError("vectors are not orthonormal within 1e-10")
        if self.labels[0] == self.labels[1]:
            raise ValueError("the two labels must differ")
        object.__setattr__(self, "vectors", vectors)

    @property
    def priors(self) -> tuple[float, float]:
        """(positive, negative) class priors, aligned with ``labels``."""
        return (1.0 - self.prior_negative, self.prior_negative)

    @property
    def projector(self) -> np.ndarray:
        """Dense acceptance projector ``V V^T``, for small dims."""
        return linalg.symmetrize(self.vectors @ self.vectors.T)

    def decisions(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Label index and acceptance score per row of per-column scores.

        The acceptance score is the row sum; reaching the threshold accepts
        (index 0), boundary inclusive.
        """
        accept = scores.sum(axis=1)
        return np.where(accept >= self.threshold, 0, 1), accept


def detector_from_densities(
    rho_pos: np.ndarray,
    rho_neg: np.ndarray,
    prior_negative: float,
    threshold: float = 0.5,
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """Build the detector directly from two density operators."""
    if not 0.0 < prior_negative < 1.0:
        raise InvalidPriorError(
            f"negative-class prior must lie in (0, 1), got {prior_negative}"
        )
    rho_pos = np.asarray(rho_pos, dtype=float)
    rho_neg = np.asarray(rho_neg, dtype=float)
    if rho_pos.shape != rho_neg.shape:
        raise DimensionMismatchError(
            f"density shapes differ: {rho_pos.shape} vs {rho_neg.shape}"
        )
    lam = prior_negative / (1.0 - prior_negative)
    es = linalg.eigh(rho_pos - lam * rho_neg)
    w = es.eigenvalues
    cutoff = linalg.ZERO_EIGENVALUE_RTOL * float(np.max(np.abs(w)) if w.size else 0.0)
    eta = float(w[0])
    beta = float(w[-1])
    if eta <= cutoff or beta >= -cutoff:
        raise DegenerateSeparationError(
            "difference operator lacks a strictly positive or strictly negative "
            "eigenvalue; the classes cannot be separated at this prior"
        )
    return BinaryModel(
        dim=rho_pos.shape[0],
        vectors=es.eigenvectors[:, w > cutoff],
        lam=lam,
        eta=eta,
        beta=beta,
        threshold=threshold,
        prior_negative=prior_negative,
        labels=labels,
    )


def detector_from_statistics(
    v_pos: ClassStatVector,
    v_neg: ClassStatVector,
    prior_negative: float,
    threshold: float = 0.5,
) -> tuple[np.ndarray, DetectorScalars]:
    """Unit acceptance vector ``e`` and scalars of the detector for two class statistics.

    With unit class vectors ``u+``, ``u-``, ``c = u+ . u-`` and ``r = u- - c u+``
    of norm ``s``, the difference operator ``u+ u+^T - lam u- u-^T`` is zero off
    ``span(u+, r)`` and acts on the orthonormal pair ``(u+, r / s)`` as
    ``[[1 - lam c^2, -lam c s], [-lam c s, -lam s^2]]``.  Its eigenvalues
    ``eta > 0 > beta`` have product ``-lam s^2``, so the acceptance projector is
    ``e e^T`` for the eigenvector ``e`` of ``eta``.
    """
    u_pos = v_pos.values / np.linalg.norm(v_pos.values)
    u_neg = v_neg.values / np.linalg.norm(v_neg.values)
    c = float(u_pos @ u_neg)
    if abs(c) > 1.0 - 1e-12:
        raise DegenerateSeparationError(
            f"class statistics vectors are numerically parallel (cosine {abs(c)!r})"
        )
    if not 0.0 < prior_negative < 1.0:
        raise InvalidPriorError(
            f"negative-class prior must lie in (0, 1), got {prior_negative}"
        )
    lam = prior_negative / (1.0 - prior_negative)
    r = u_neg - c * u_pos
    s = float(np.linalg.norm(r))
    a, b, d = 1.0 - lam * c * c, -lam * c * s, -lam * s * s
    # the eigenvalue of larger magnitude by addition, the other from the
    # product, so that neither comes from a cancelling difference
    mean, spread = (a + d) / 2.0, math.hypot((a - d) / 2.0, b)
    if mean >= 0.0:
        eta = mean + spread
        beta = -lam * s * s / eta
    else:
        beta = mean - spread
        eta = -lam * s * s / beta
    cutoff = linalg.ZERO_EIGENVALUE_RTOL * max(eta, -beta)
    if eta <= cutoff or beta >= -cutoff:
        raise DegenerateSeparationError(
            "difference operator lacks a strictly positive or strictly negative "
            "eigenvalue; the classes cannot be separated at this prior"
        )
    # (eta - d, b) is an eigenvector of eta, and its first entry eta - d > 0
    e = (eta - d) * u_pos + b * (r / s)
    e /= np.linalg.norm(e)
    return e, DetectorScalars(lam=lam, eta=eta, beta=beta, threshold=threshold,
                              prior_negative=prior_negative)


def train_binary(
    pos: Sequence[FeatureVector],
    neg: Sequence[FeatureVector],
    dim: int,
    prior_negative: float | None = None,
    threshold: float = 0.5,
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """Train from raw documents; the prior defaults to the negative proportion."""
    v_pos = feature_statistics(pos, dim, label=labels[0])
    v_neg = feature_statistics(neg, dim, label=labels[1])
    if prior_negative is None:
        prior_negative = len(neg) / (len(pos) + len(neg))
    return binary_from_statistics(v_pos, v_neg, prior_negative, threshold, labels)


def binary_from_statistics(
    v_pos: ClassStatVector,
    v_neg: ClassStatVector,
    prior_negative: float,
    threshold: float = 0.5,
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """The trained detector for two class statistics vectors."""
    e, scalars = detector_from_statistics(v_pos, v_neg, prior_negative, threshold)
    return BinaryModel(dim=v_pos.dim, vectors=e[:, None], labels=labels, **vars(scalars))


def score(model: BinaryModel, x: np.ndarray) -> float:
    """Born-rule acceptance score ``<x|P|x>`` of a unit vector, in [0, 1]."""
    scores = linalg.born_scores(np.asarray(x, dtype=float)[None], model.vectors)
    return float(model.decisions(scores)[1][0])


def decide(model: BinaryModel, x: np.ndarray) -> bool:
    """Accept when the score reaches the threshold (boundary inclusive)."""
    return score(model, x) >= model.threshold


def binary_bayes_cost(
    model: BinaryModel, rho_pos: np.ndarray, rho_neg: np.ndarray, prior_negative: float
) -> float:
    """Average zero-one decision cost of the detector against the given pair.

    ``xi * Tr(rho_neg P) + (1 - xi) * Tr(rho_pos (I - P))`` where ``P = V V^T``
    accepts, so ``Tr(rho P) = Tr(V^T rho V)``.
    """
    rho_pos = np.asarray(rho_pos, dtype=float)
    rho_neg = np.asarray(rho_neg, dtype=float)
    if rho_pos.shape != (model.dim, model.dim) or rho_neg.shape != (model.dim, model.dim):
        raise DimensionMismatchError("density shape does not match model dim")
    v = model.vectors
    false_accept = float(np.trace(v.T @ rho_neg @ v))
    false_reject = float(np.trace(rho_pos)) - float(np.trace(v.T @ rho_pos @ v))
    return prior_negative * false_accept + (1.0 - prior_negative) * false_reject
