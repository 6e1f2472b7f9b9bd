"""Two-hypothesis detector: eigenspace projector of the weighted density difference.

Training builds the per-class density operators, eigendecomposes
``rho_pos - lam * rho_neg`` with ``lam = xi / (1 - xi)`` (``xi`` the prior of
the negative class), and keeps the projector onto the positive eigenspace.
A document is accepted when its Born-rule score on that projector reaches the
decision threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdetect import linalg
from qdetect.errors import (
    DegenerateSeparationError,
    DimensionMismatchError,
    InvalidPriorError,
)
from qdetect.states import ClassStatVector, FeatureVector, density_from_vector, feature_statistics


@dataclass(frozen=True)
class BinaryModel:
    """Immutable trained detector; safe to score from many threads.

    ``projector`` spans the acceptance subspace, ``eta``/``beta`` are the
    extreme positive/negative eigenvalues of the difference operator, and
    ``labels`` names the (positive, negative) classes.
    """

    dim: int
    projector: np.ndarray
    lam: float
    eta: float
    beta: float
    threshold: float
    prior_negative: float
    labels: tuple[str, str] = ("positive", "negative")

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=float)
        if p.shape != (self.dim, self.dim):
            raise ValueError(f"projector shape {p.shape} does not match dim {self.dim}")
        # a NaN norm compares False, so finiteness is checked explicitly first
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite([self.lam, self.eta, self.beta]))):
            raise ValueError("projector and eigenvalues must be finite")
        if float(np.linalg.norm(p @ p - p)) > 1e-10:
            raise ValueError("projector is not idempotent within 1e-10")
        if not (self.eta > 0.0 and self.beta < 0.0):
            raise ValueError("expected eta > 0 and beta < 0")
        if not 0.0 < self.prior_negative < 1.0:
            raise ValueError("prior_negative must lie strictly inside (0, 1)")
        expected_lam = self.prior_negative / (1.0 - self.prior_negative)
        if abs(self.lam - expected_lam) > 1e-12 * max(1.0, abs(expected_lam)):
            raise ValueError("lam is inconsistent with prior_negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.labels[0] == self.labels[1]:
            raise ValueError("the two labels must differ")
        object.__setattr__(self, "projector", p)

    @property
    def priors(self) -> tuple[float, float]:
        """(positive, negative) class priors, aligned with ``labels``."""
        return (1.0 - self.prior_negative, self.prior_negative)

    @property
    def operators(self) -> tuple[np.ndarray]:
        """The operator whose Born-rule score is the acceptance score."""
        return (self.projector,)


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
    dim = rho_pos.shape[0]
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
    projector = linalg.projector_from_eigenspace(es, "positive")
    return BinaryModel(
        dim=dim,
        projector=projector,
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
    labels: tuple[str, str] = ("positive", "negative"),
) -> BinaryModel:
    """Build the detector from two class statistics vectors."""
    cos = abs(float(v_pos.values @ v_neg.values)) / (
        float(np.linalg.norm(v_pos.values)) * float(np.linalg.norm(v_neg.values))
    )
    if cos > 1.0 - 1e-12:
        raise DegenerateSeparationError(
            f"class statistics vectors are numerically parallel (cosine {cos!r})"
        )
    return detector_from_densities(
        density_from_vector(v_pos),
        density_from_vector(v_neg),
        prior_negative,
        threshold=threshold,
        labels=labels,
    )


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
    return detector_from_statistics(v_pos, v_neg, prior_negative, threshold, labels)


def score(model: BinaryModel, x: np.ndarray) -> float:
    """Born-rule acceptance score ``<x|P|x>`` of a unit vector, in [0, 1]."""
    return float(linalg.born_scores(np.asarray(x, dtype=float)[None], model.operators)[0, 0])


def decide(model: BinaryModel, x: np.ndarray) -> bool:
    """Accept when the score reaches the threshold (boundary inclusive)."""
    return score(model, x) >= model.threshold


def binary_bayes_cost(
    model: BinaryModel, rho_pos: np.ndarray, rho_neg: np.ndarray, prior_negative: float
) -> float:
    """Average zero-one decision cost of the detector against the given pair.

    ``xi * Tr(rho_neg P) + (1 - xi) * Tr(rho_pos (I - P))`` where ``P`` accepts.
    """
    rho_pos = np.asarray(rho_pos, dtype=float)
    rho_neg = np.asarray(rho_neg, dtype=float)
    if rho_pos.shape != (model.dim, model.dim) or rho_neg.shape != (model.dim, model.dim):
        raise DimensionMismatchError("density shape does not match model dim")
    p = model.projector
    false_accept = float(np.trace(rho_neg @ p))
    false_reject = float(np.trace(rho_pos @ (np.eye(model.dim) - p)))
    return prior_negative * false_accept + (1.0 - prior_negative) * false_reject
