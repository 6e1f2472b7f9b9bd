"""N-hypothesis measurements: square-root construction, Bayes costs, classification.

A measurement is a family of PSD operators resolving the identity, one element
per hypothesis plus an optional residual element covering the complement of
the training support; ``Measurement`` holds each element as a factor.  The
square-root ("pretty good") measurement is the constructive default; a
one-vs-rest bank of binary detectors is the pragmatic alternative.  Trained
models keep both in rank-1 form, one vector per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from qdetect import linalg, states
from qdetect.binary import BinaryModel, DetectorScalars, detectors_from_statistics, trained
from qdetect.errors import (
    ConvergenceError,
    DegenerateCorpusError,
    DimensionMismatchError,
    NotRankOneError,
)
from qdetect.states import FeatureVector, LabeledDataset, as_dataset, class_statistics

PSD_ATOL = 1e-10
RESOLUTION_ATOL = 1e-10
# Doubles in one block of rows (1 MiB), for the dataset scorer and the one-vs-rest trainer.
_BLOCK_DOUBLES = 1 << 17


def _check_priors(priors) -> None:
    if not np.all(np.asarray(priors) > 0.0):
        raise ValueError("all priors must be strictly positive")
    if abs(float(np.sum(priors)) - 1.0) > 1e-12:
        raise ValueError("priors must sum to 1 within 1e-12")


@dataclass(frozen=True)
class HypothesisSet:
    """Priors paired with per-class states, each given by a D x r_k factor: ``rho_k = F_k F_k^T``.

    A factor is finite with ``||F_k||_F^2 = Tr(rho_k) = 1`` within 1e-10, so
    every state is a density operator by construction; a rank-1 state has
    one column, its unit vector.
    """

    priors: np.ndarray
    factors: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if priors.ndim != 1 or priors.size != len(self.factors):
            raise ValueError("priors and factors must have matching lengths")
        if len(self.labels) != priors.size:
            raise ValueError("labels and factors must have matching lengths")
        _check_priors(priors)
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        if any(f.ndim != 2 for f in factors):
            raise ValueError("each factor must be a matrix")
        if any(len(f) != len(factors[0]) for f in factors):
            raise DimensionMismatchError("hypothesis states have mixed dimensions")
        for k, f in enumerate(factors):
            # entries beyond [-1, 1] could overflow the norm
            if not (linalg.bounded(f) and abs(np.vdot(f, f) - 1.0) <= PSD_ATOL):
                raise ValueError(f"factor {k} must be finite with unit Frobenius norm, "
                                 "its state of trace 1, within 1e-10")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "factors", factors)

    @property
    def states(self) -> tuple[np.ndarray, ...]:
        """Dense density operators ``F_k F_k^T``, for small dims."""
        return tuple(f @ f.T for f in self.factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return len(self.factors[0])


@dataclass(frozen=True)
class Measurement:
    """Elements ``mu_k = M_k M_k^T`` of D x r_k factors; ``elements[k]`` answers hypothesis k.

    ``M = [M_1, ..., M_N]`` is finite with ``lambda_max(M^T M) <= 1`` within
    1e-10, so the elements are PSD and sum to at most I by construction (Eldar
    & Forney 2001); the residual ``I - M M^T`` resolves the rest of the
    identity.  ``elements`` and ``residual`` are read-only dense views.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        if not factors or any(f.ndim != 2 or not f.shape[1] for f in factors):
            raise ValueError("a measurement needs at least one factor, each a matrix with columns")
        if any(len(f) != len(factors[0]) for f in factors):
            raise DimensionMismatchError("measurement factors have mixed dimensions")
        # M M^T <= I bounds every entry by 1; a larger one could overflow G, a NaN break eigvalsh
        if not all(linalg.bounded(f) for f in factors):
            raise ValueError("measurement factor entries must be finite and within [-1, 1]")
        r = sum(f.shape[1] for f in factors)
        gram, step = np.zeros((r, r)), max(1, _BLOCK_DOUBLES // r)  # M^T M by chunks of rows
        for a in range(0, len(factors[0]), step):
            m = np.hstack([f[a:a + step] for f in factors])
            gram += m.T @ m
        if float(np.linalg.eigvalsh(gram)[-1]) > 1.0 + RESOLUTION_ATOL:
            raise ValueError("measurement elements sum beyond the identity")
        object.__setattr__(self, "factors", factors)

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """Dense elements ``M_k M_k^T``, for small dims."""
        return tuple(linalg.symmetrize(f @ f.T) for f in self.factors)

    @property
    def has_residual(self) -> bool:
        """Whether the residual's trace ``dim - ||M||_F^2`` exceeds 1e-10."""
        return self.dim - sum(float(np.sum(f * f)) for f in self.factors) > RESOLUTION_ATOL

    @property
    def residual(self) -> np.ndarray | None:
        """Dense residual element ``I - M M^T``, or None when the elements resolve I."""
        return np.eye(self.dim) - sum(self.elements) if self.has_residual else None

    def all_elements(self) -> list[np.ndarray]:
        """Per-hypothesis elements followed by the residual element, if any."""
        return list(self.elements) + ([] if self.residual is None else [self.residual])

    @property
    def kind(self) -> str:
        """``"projective"`` when every element is a projector, ``"povm"`` otherwise.

        ``||G_k^2 - G_k||_F`` of ``G_k = M_k^T M_k`` is ``||mu_k^2 - mu_k||_F``;
        projectors summing to at most I are orthogonal, and so is their residual.
        """
        grams = (f.T @ f for f in self.factors)
        projective = all(np.linalg.norm(g @ g - g) <= PSD_ATOL for g in grams)
        return "projective" if projective else "povm"

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return len(self.factors[0])


def zero_one_cost(n: int) -> np.ndarray:
    """Cost matrix with free correct decisions and unit-cost mistakes."""
    return np.ones((n, n)) - np.eye(n)


def check_cost_matrix(k, n: int) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (n, n):
        raise DimensionMismatchError(f"cost matrix shape {k.shape} does not match N={n}")
    if not np.all((k >= 0.0) & (k < np.inf)):  # False for NaN
        raise ValueError("cost matrix entries must be finite and nonnegative")
    return k


# A corpus is a LabeledDataset or a sequence of (label, FeatureVector) pairs.
Corpus = Union[LabeledDataset, Sequence[tuple[str, FeatureVector]]]


def _class_statistics(corpus: Corpus, dim: int) -> tuple[tuple[str, ...], list[int], np.ndarray]:
    """Labels in first-appearance order, their document counts, one count row per label."""
    return class_statistics(as_dataset(corpus, dim), dim)


def _check_classes(labels: Sequence[str], training: str) -> None:
    if len(labels) < 2:
        raise DegenerateCorpusError(
            f"{training} training needs at least 2 classes, found {len(labels)}"
        )


def build_hypotheses(corpus: Corpus, dim: int) -> HypothesisSet:
    """One prior/state pair per class, priors from document frequencies.

    Each state is rank-1: its factor is the unit count row as one column.
    """
    labels, sizes, counts = _class_statistics(corpus, dim)
    _check_classes(labels, "multi-class")
    factors = tuple(linalg.unit_rows(counts)[..., None])
    return HypothesisSet(states.class_priors(sizes), factors, tuple(labels))


def pgm(h: HypothesisSet) -> Measurement:
    """Square-root measurement of the hypothesis set, from the polar factor of its factors.

    ``Psi = [sqrt(xi_1) F_1, ..., sqrt(xi_N) F_N]`` and ``M =
    square_root_vectors(Psi)``; element k is ``M_k M_k^T`` over class k's
    block of columns, which is ``S^(-1/2) (xi_k rho_k) S^(-1/2)`` with ``S``
    the prior-weighted average state and the inverse square root taken on
    its support (Eldar & Forney 2001).  Pure and mixed states take the same
    route.  When the support is a proper subspace, the residual ``I - M M^T``
    resolves the rest of the identity.
    """
    psi = np.hstack([np.sqrt(xi) * f for xi, f in zip(h.priors, h.factors)])
    edges = np.cumsum([f.shape[1] for f in h.factors])[:-1]
    return Measurement(np.split(square_root_vectors(psi), edges, axis=1))


def measurement_vectors(m: Measurement) -> list[np.ndarray]:
    """Unit vectors generating each rank-1 element (element = trace * outer(v, v)).

    Element k shares its nonzero eigenvalues w with ``G_k = M_k^T M_k``, and
    ``M_k u / sqrt(w)`` is its eigenvector, signed as ``linalg.eigh`` signs it.
    Raises NotRankOneError if any element has numerical rank other than one.
    """
    vectors = []
    for k, f in enumerate(m.factors):
        # scaled to a largest entry of 1, so that the Gram block does not underflow
        f = f / max(float(np.max(np.abs(f))), np.finfo(float).tiny)
        w, u = linalg.eigh(f.T @ f)
        top = float(w[0])
        if top <= 0.0:
            raise NotRankOneError(f"measurement element {k} is numerically zero")
        rest = float(np.max(np.abs(w[1:]), initial=0.0))
        if rest > 1e-8 * top:
            raise NotRankOneError(f"measurement element {k} has rank > 1 (eigenvalue {rest:.3e})")
        vectors.append(linalg.fix_signs(f @ u[:, :1] / np.sqrt(top))[:, 0])
    return vectors


def average_cost(m: Measurement, h: HypothesisSet, cost) -> float:
    """Prior-weighted expected decision cost of the measurement.

    ``sum_ij xi_j K[i][j] Tr(rho_j mu_i)`` with ``Tr(rho_j mu_i) = ||M_i^T
    F_j||_F^2``; a residual outcome, of probability one minus the others, is
    charged the maximum cost of its true class's column.
    """
    if m.n != h.n:
        raise DimensionMismatchError(f"measurement has {m.n} elements for {h.n} hypotheses")
    if m.dim != h.dim:
        raise DimensionMismatchError(f"measurement dim {m.dim} is not hypothesis dim {h.dim}")
    k = check_cost_matrix(cost, h.n)
    total = 0.0
    for j, (xi, f) in enumerate(zip(h.priors, h.factors)):
        probabilities = [float(np.sum(np.square(mi.T @ f))) for mi in m.factors]
        total += float(xi) * float(k[:, j] @ probabilities)
        if m.has_residual:
            total += float(xi) * float(np.max(k[:, j])) * (1.0 - sum(probabilities))
    return total


def square_root_vectors(psi) -> np.ndarray:
    """Square-root measurement ``M = Psi G^(-1/2) = U V^T``, shaped like ``Psi``.

    ``Psi = U S V^T`` holds each class's factor scaled by the square root of
    its prior, one column per rank-1 state, and ``G = Psi^T Psi``.  ``M`` is
    the polar factor of ``Psi`` on its singular values above 1e-5 of the
    largest, the eigenvalues of ``G`` above ``SUPPORT_RTOL``; element k is
    ``M_k M_k^T`` over class k's columns, and the residual ``I - M M^T``.
    Raises ConvergenceError if the singular value decomposition fails to
    converge.
    """
    try:
        u, s, vt = np.linalg.svd(psi, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value decomposition failed to converge: {exc}") from exc
    rank = int(np.sum(s > np.sqrt(linalg.SUPPORT_RTOL) * s[0]))
    return u[:, :rank] @ vt[:rank]


@dataclass(frozen=True)
class MulticlassModel:
    """Trained multi-class classifier in rank-1 form: one column of ``vectors`` per class.

    For ``pgm`` the columns are ``m_k`` of ``M = Psi G^(-1/2)`` (see
    ``square_root_vectors``); for ``one_vs_rest`` they are the unit acceptance
    vectors ``e_k`` of the detectors, whose eigenvalues are ``detector_scalars``.
    Class k scores ``(x . column_k)^2`` and the top score decides.
    ``vectors`` is held read-only (see ``linalg.frozen``); ``measurement`` and
    ``detectors`` are views built on demand.  ``sizes`` and ``counts`` are what
    a trainer read (``binary.trained``), None otherwise.
    """

    strategy: str
    dim: int
    labels: tuple[str, ...]
    priors: tuple[float, ...]
    vectors: np.ndarray
    detector_scalars: tuple[DetectorScalars, ...] = ()
    sizes: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    counts: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        vectors = linalg.frozen(self.vectors)
        if vectors.shape != (self.dim, n):
            raise ValueError(
                f"vectors of shape {vectors.shape} do not match dim {self.dim} and {n} labels"
            )
        # columns of norm at most 1 have entries in [-1, 1]; a larger entry could overflow below
        if not linalg.bounded(vectors):
            raise ValueError("vectors must be finite, with entries in [-1, 1]")
        if self.strategy == "pgm":
            gram = vectors.T @ vectors
            if float(np.linalg.norm(gram @ gram - gram)) > RESOLUTION_ATOL:
                raise ValueError("M^T M is not an orthogonal projector within 1e-10")
        elif self.strategy == "one_vs_rest":
            if len(self.detector_scalars) != n:
                raise ValueError("one_vs_rest strategy requires one detector per label")
            if np.any(np.abs(np.sqrt(np.einsum("ij,ij->j", vectors, vectors)) - 1.0) > 1e-10):
                raise ValueError("acceptance vectors must have unit norm within 1e-10")
        else:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if len(self.priors) != n:
            raise ValueError("priors and labels must have matching lengths")
        _check_priors(self.priors)
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "vectors", vectors)

    def decisions(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Label index and score of the top class per row of per-column scores.

        Exact ties go to the lowest class index.
        """
        picks = np.argmax(scores, axis=1)
        return picks, scores[np.arange(len(picks)), picks]

    @property
    def rank(self) -> int:
        """Rank of a pgm ``M``: the trace ``||M||_F^2`` of the projector ``M^T M``."""
        return round(float(np.vdot(self.vectors, self.vectors)))

    @property
    def kind(self) -> str | None:
        """``"projective"`` for a pgm of rank N (``M^T M = I``), ``"povm"`` below; None for ovr."""
        if self.strategy != "pgm":
            return None
        return "projective" if self.rank == len(self.labels) else "povm"

    @property
    def measurement(self) -> Measurement | None:
        """Pgm view: one-column factors ``m_k``, elements ``m_k m_k^T``."""
        if self.strategy != "pgm":
            return None
        return Measurement(np.split(self.vectors, len(self.labels), axis=1))

    @property
    def detectors(self) -> tuple[BinaryModel, ...] | None:
        """One-vs-rest view: detector k on ``e_k``, with prior ``1 - p_k`` and threshold 0.5."""
        if self.strategy != "one_vs_rest":
            return None
        return tuple(
            BinaryModel(dim=self.dim, vectors=self.vectors[:, k:k + 1], prior_negative=1.0 - p,
                        threshold=0.5, labels=(label, f"not-{label}"), **vars(s))
            for k, (label, p, s) in enumerate(zip(self.labels, self.priors, self.detector_scalars))
        )


def train_pgm(corpus: Corpus, dim: int) -> MulticlassModel:
    """Square-root measurement of a corpus's class states (``pgm_from_statistics``)."""
    return pgm_from_statistics(*_class_statistics(corpus, dim))


def pgm_from_statistics(labels: Sequence[str], sizes: Sequence[int],
                        counts: np.ndarray) -> MulticlassModel:
    """Square-root measurement of the states of N x dim class counts, from the SVD of ``Psi``."""
    _check_classes(labels, "multi-class")
    table, used, kept = states.fit_counts(sizes, counts)
    priors = states.class_priors(sizes)
    vectors = square_root_vectors(linalg.unit_rows(kept).T * np.sqrt(priors))
    model = MulticlassModel(strategy="pgm", dim=table.shape[1], labels=tuple(labels),
                            priors=tuple(priors), vectors=states.feature_rows(used, vectors))
    return trained(model, sizes, table)


def train_one_vs_rest(corpus: Corpus, dim: int) -> MulticlassModel:
    """A corpus's one-vs-rest detector bank (``one_vs_rest_from_statistics``)."""
    return one_vs_rest_from_statistics(*_class_statistics(corpus, dim))


def one_vs_rest_from_statistics(labels: Sequence[str], sizes: Sequence[int],
                                counts: np.ndarray) -> MulticlassModel:
    """One binary detector per row of N x dim class counts against the sum of the other rows.

    Each detector's negative-class prior is one minus its class's share of the
    ``sizes``; prediction picks the class with the highest acceptance score, so
    no detector's threshold is read.  ``detectors`` supplies both.
    """
    _check_classes(labels, "one-vs-rest")
    table, used, kept = states.fit_counts(sizes, counts)
    priors = states.class_priors(sizes)
    # counts are integers held in floats, so the total and each difference are exact
    total = kept.sum(axis=0)
    step = max(1, _BLOCK_DOUBLES // (4 * len(total)))  # a block's four step x width temporaries fit
    vectors, scalars = np.empty((len(total), len(kept))), ()
    for a in range(0, len(kept), step):
        block = kept[a:a + step]
        e, s = detectors_from_statistics(block, total - block, [1 - p for p in priors[a:a + step]])
        vectors[:, a:a + step] = e.T
        scalars += s
    model = MulticlassModel(strategy="one_vs_rest", dim=table.shape[1], labels=tuple(labels),
                            priors=tuple(priors), detector_scalars=scalars,
                            vectors=states.feature_rows(used, vectors))
    return trained(model, sizes, table)


def class_scores(model: MulticlassModel, x: np.ndarray) -> np.ndarray:
    """Per-class decision scores of a unit vector, aligned with ``model.labels``.

    A vector with a non-finite entry, or a norm off 1 by more than 1e-10,
    raises ValueError.
    """
    return linalg.born_scores(linalg.unit_row(x), model.vectors)[0]


def classify(model: MulticlassModel, x: np.ndarray) -> str:
    """Label with the highest score; exact ties go to the lowest class index."""
    picks, _ = model.decisions(class_scores(model, x)[None])
    return model.labels[int(picks[0])]
