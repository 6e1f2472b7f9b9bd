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
from qdetect.states import FeatureVector, feature_statistics


@dataclass(frozen=True)
class DetectorScalars:
    """The extreme eigenvalues of ``rho_pos - lam * rho_neg``: all a one-vs-rest detector stores."""

    eta: float
    beta: float

    def __post_init__(self):
        # a NaN or an infinity fails one of these comparisons
        if not (0.0 < self.eta < math.inf and -math.inf < self.beta < 0.0):
            raise ValueError("eta and beta must be finite, with eta > 0 > beta")


@dataclass(frozen=True)
class BinaryModel(DetectorScalars):
    """Immutable trained detector: its scalars, prior, threshold and acceptance subspace.

    ``vectors`` (dim x r, read-only) holds an orthonormal basis of the acceptance
    subspace, one unit vector ``e`` for two rank-1 class states, and
    ``labels`` names the (positive, negative) classes.  ``lam`` and the dense
    ``projector`` are derived on demand.  Safe to score from many threads.
    """

    prior_negative: float
    threshold: float
    dim: int
    vectors: np.ndarray
    labels: tuple[str, str] = ("positive", "negative")
    strategy: ClassVar[str] = "binary"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.prior_negative < 1.0:
            raise ValueError("prior_negative must lie strictly inside (0, 1)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        vectors = linalg.frozen(self.vectors)
        if vectors.ndim != 2 or vectors.shape[0] != self.dim or not vectors.shape[1]:
            raise ValueError(f"vectors of shape {vectors.shape} do not match dim {self.dim}")
        # orthonormal columns have entries in [-1, 1]; a larger entry could overflow below
        if not linalg.bounded(vectors):
            raise ValueError("vectors must be finite, with entries in [-1, 1]")
        gram = vectors.T @ vectors
        if float(np.linalg.norm(gram - np.eye(len(gram)))) > 1e-10:
            raise ValueError("vectors are not orthonormal within 1e-10")
        if len(self.labels) != 2 or self.labels[0] == self.labels[1]:
            raise ValueError(f"binary models need exactly two distinct labels: {self.labels!r}")
        object.__setattr__(self, "vectors", vectors)

    @property
    def lam(self) -> float:
        """``xi / (1 - xi)`` of the negative prior ``xi``, as training computes it."""
        return self.prior_negative / (1.0 - self.prior_negative)

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


def _check_prior_negative(prior_negative: float) -> None:
    if not 0.0 < prior_negative < 1.0:  # False for NaN
        raise InvalidPriorError(f"negative-class prior must lie in (0, 1), got {prior_negative}")


def _check_densities(**states: np.ndarray) -> None:
    """Raise ValueError unless every state is finite, symmetric and PSD with trace 1.

    Each condition holds within 1e-10.  ``oracles.helstrom_oracle`` checks its
    states on its own, so that the oracle shares no code with the detector.
    """
    for name, rho in states.items():
        if (rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not np.all(np.isfinite(rho))
                or abs(np.trace(rho) - 1.0) > 1e-10 or np.abs(rho - rho.T).max() > 1e-10
                or np.linalg.eigvalsh(rho)[0] < -1e-10):
            raise ValueError(f"{name} is not a density operator within 1e-10")


def _check_separated(eta: float, beta: float) -> float:
    """The cutoff ``1e-12 * max|w|`` of a spectrum w from eta down to beta; both must clear it."""
    cutoff = linalg.ZERO_EIGENVALUE_RTOL * max(eta, -beta, 0.0)
    if eta <= cutoff or beta >= -cutoff:
        raise DegenerateSeparationError(
            "difference operator lacks a strictly positive or strictly negative "
            "eigenvalue; the classes cannot be separated at this prior"
        )
    return cutoff


def detector_from_densities(
    rho_pos: np.ndarray,
    rho_neg: np.ndarray,
    prior_negative: float,
    threshold: float = 0.5,
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """Build the detector directly from two density operators.

    A state that is not a density operator within 1e-10 raises ValueError.
    """
    _check_prior_negative(prior_negative)
    rho_pos = np.asarray(rho_pos, dtype=float)
    rho_neg = np.asarray(rho_neg, dtype=float)
    if rho_pos.shape != rho_neg.shape:
        raise DimensionMismatchError(
            f"density shapes differ: {rho_pos.shape} vs {rho_neg.shape}"
        )
    _check_densities(rho_pos=rho_pos, rho_neg=rho_neg)
    lam = prior_negative / (1.0 - prior_negative)
    w, v = linalg.eigh(rho_pos - lam * rho_neg)
    eta, beta = float(w[0]), float(w[-1])
    cutoff = _check_separated(eta, beta)
    return BinaryModel(
        dim=rho_pos.shape[0],
        vectors=v[:, w > cutoff],
        eta=eta,
        beta=beta,
        threshold=threshold,
        prior_negative=prior_negative,
        labels=labels,
    )


def detectors_from_statistics(
    pos: np.ndarray,
    neg: np.ndarray,
    priors_negative: Sequence[float],
) -> tuple[np.ndarray, tuple[DetectorScalars, ...]]:
    """Unit acceptance vectors ``e`` (n x dim) and scalars of n detectors, one per pair of rows.

    Detector k separates row k of ``pos`` from row k of ``neg`` at negative
    prior ``priors_negative[k]``; the first in row order that fails raises.
    With unit class vectors ``u+``, ``u-``, ``c = u+ . u-`` and ``r = u- - c
    u+`` of norm ``s``, ``u+ u+^T - lam u- u-^T`` is zero off ``span(u+, r)``
    and acts on the orthonormal pair ``(u+, r / s)`` as ``[[1 - lam c^2, -lam c
    s], [-lam c s, -lam s^2]]``.  Its eigenvalues ``eta > 0 > beta`` have product
    ``-lam s^2``, so the acceptance projector is ``e e^T`` for the ``e`` of ``eta``.
    """
    u_pos, u_neg = linalg.unit_rows(pos), linalg.unit_rows(neg)
    cosines = linalg.row_dots(u_pos, u_neg)
    r = np.subtract(u_neg, cosines[:, None] * u_pos, out=u_neg)
    norms = np.sqrt(linalg.row_dots(r, r))
    scalars, weights = [], []
    for c, s, prior_negative in zip(cosines.tolist(), norms.tolist(), priors_negative):
        if abs(c) > 1.0 - 1e-12:
            raise DegenerateSeparationError(
                f"class statistics vectors are numerically parallel (cosine {abs(c)!r})"
            )
        _check_prior_negative(prior_negative)
        lam = prior_negative / (1.0 - prior_negative)
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
        _check_separated(eta, beta)
        scalars.append(DetectorScalars(eta, beta))
        weights.append((eta - d, b))
    # (eta - d, b) is an eigenvector of eta, and its first entry eta - d > 0
    weights = np.array(weights)
    u_pos *= weights[:, :1]
    u_pos += np.multiply(np.divide(r, norms[:, None], out=r), weights[:, 1:], out=r)
    u_pos /= np.sqrt(linalg.row_dots(u_pos, u_pos))[:, None]
    return u_pos, tuple(scalars)


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
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    prior_negative: float,
    threshold: float = 0.5,
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """The trained detector for two class count rows."""
    e, (s,) = detectors_from_statistics(v_pos[None], v_neg[None], [prior_negative])
    return BinaryModel(dim=len(v_pos), vectors=e.T, labels=labels, prior_negative=prior_negative,
                       threshold=threshold, **vars(s))


def score(model: BinaryModel, x: np.ndarray) -> float:
    """Born-rule acceptance score ``<x|P|x>`` of a unit vector, in [0, 1]."""
    return float(model.decisions(linalg.born_scores(linalg.unit_row(x), model.vectors))[1][0])


def decide(model: BinaryModel, x: np.ndarray) -> bool:
    """Accept (``decisions`` index 0) when the score reaches the threshold, boundary inclusive."""
    return bool(model.decisions(np.array([[score(model, x)]]))[0][0] == 0)


def binary_bayes_cost(
    model: BinaryModel, rho_pos: np.ndarray, rho_neg: np.ndarray, prior_negative: float
) -> float:
    """Average zero-one decision cost of the detector against the given pair.

    ``xi * Tr(rho_neg P) + (1 - xi) * Tr(rho_pos (I - P))`` where ``P = V V^T``
    accepts, so ``Tr(rho P) = Tr(V^T rho V)``.  A state that is not a density
    operator within 1e-10 raises ValueError.
    """
    _check_prior_negative(prior_negative)
    rho_pos = np.asarray(rho_pos, dtype=float)
    rho_neg = np.asarray(rho_neg, dtype=float)
    if rho_pos.shape != (model.dim, model.dim) or rho_neg.shape != (model.dim, model.dim):
        raise DimensionMismatchError("density shape does not match model dim")
    _check_densities(rho_pos=rho_pos, rho_neg=rho_neg)
    v = model.vectors
    false_accept = float(np.trace(v.T @ rho_neg @ v))
    false_reject = float(np.trace(rho_pos)) - float(np.trace(v.T @ rho_pos @ v))
    return prior_negative * false_accept + (1.0 - prior_negative) * false_reject
