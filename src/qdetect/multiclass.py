"""N-hypothesis measurements: square-root construction, Bayes costs, classification.

A measurement is a family of PSD operators resolving the identity, one element
per hypothesis plus an optional residual element covering the complement of
the training support.  The square-root ("pretty good") measurement is the
constructive default; a one-vs-rest bank of binary detectors is the pragmatic
alternative.  Trained models keep both in rank-1 form, one vector per class;
the dense ``Measurement`` and ``pgm`` are the small-dim reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from qdetect import linalg
from qdetect.binary import BinaryModel, DetectorScalars, detector_from_statistics
from qdetect.errors import (
    ConvergenceError,
    DegenerateCorpusError,
    DimensionMismatchError,
    NotRankOneError,
    QdetectError,
)
from qdetect.states import (
    FeatureVector,
    LabeledDataset,
    as_dataset,
    class_statistics,
    density_from_vector,
)

PSD_ATOL = 1e-10
RESOLUTION_ATOL = 1e-10


def _check_priors(priors) -> None:
    if not np.all(np.asarray(priors) > 0.0):
        raise ValueError("all priors must be strictly positive")
    if abs(float(np.sum(priors)) - 1.0) > 1e-12:
        raise ValueError("priors must sum to 1 within 1e-12")


@dataclass(frozen=True)
class HypothesisSet:
    """Priors paired with per-class density operators (and pure vectors if rank-1)."""

    priors: np.ndarray
    states: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    pure_vectors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if priors.ndim != 1 or priors.size != len(self.states):
            raise ValueError("priors and states must have matching lengths")
        if len(self.labels) != priors.size:
            raise ValueError("labels and states must have matching lengths")
        _check_priors(priors)
        dim = self.states[0].shape[0]
        states = tuple(np.asarray(s, float) for s in self.states)
        if any(rho.shape != (dim, dim) for rho in states):
            raise DimensionMismatchError("hypothesis states have mixed dimensions")
        for k, rho in enumerate(states):
            if not np.all(np.isfinite(rho)):
                raise ValueError(f"state {k} must be finite")
            if abs(np.trace(rho) - 1.0) > PSD_ATOL or np.abs(rho - rho.T).max() > PSD_ATOL:
                raise ValueError(f"state {k} must be symmetric with trace 1 within 1e-10")
            # a state given with its pure vector is checked against outer(v, v) below
            if self.pure_vectors is None and np.linalg.eigvalsh(rho)[0] < -PSD_ATOL:
                raise ValueError(f"state {k} must be PSD within 1e-10")
        if self.pure_vectors is not None:
            vectors = tuple(np.asarray(v, float) for v in self.pure_vectors)
            if len(vectors) != len(states) or any(
                v.shape != (dim,) or not np.all(np.isfinite(v))
                or np.linalg.norm(np.outer(v, v) - rho) > PSD_ATOL
                for v, rho in zip(vectors, states)
            ):
                raise ValueError("pure_vectors must hold one v_k per state with "
                                 "outer(v_k, v_k) = states[k] within 1e-10")
            object.__setattr__(self, "pure_vectors", vectors)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]


def _is_projective(elements: Sequence[np.ndarray]) -> bool:
    for i, p in enumerate(elements):
        if float(np.linalg.norm(p @ p - p)) > PSD_ATOL:
            return False
        for q in elements[i + 1 :]:
            if float(np.linalg.norm(p @ q)) > PSD_ATOL:
                return False
    return True


@dataclass(frozen=True)
class Measurement:
    """PSD elements summing to the identity; ``elements[k]`` answers hypothesis k.

    ``residual`` (when present) absorbs the complement of the support of the
    averaged state so the resolution of the identity holds exactly in
    rank-deficient feature spaces.
    """

    elements: tuple[np.ndarray, ...]
    residual: np.ndarray | None = None

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=float) for e in self.elements)
        object.__setattr__(self, "elements", elements)
        if self.residual is not None:
            object.__setattr__(self, "residual", np.asarray(self.residual, dtype=float))
        if not elements or elements[0].ndim != 2:
            raise ValueError("a measurement needs at least one element, each a matrix")
        dim = elements[0].shape[0]
        for e in self.all_elements():
            if e.shape != (dim, dim):
                raise DimensionMismatchError("measurement elements have mixed dimensions")
            # 0 <= e <= I bounds every entry by 1, and keeps the sums below finite
            if not np.all(np.abs(e) <= 1.0 + PSD_ATOL):
                raise ValueError("measurement element entries must be finite and within [-1, 1]")
            if float(np.min(np.linalg.eigvalsh((e + e.T) / 2.0))) < -PSD_ATOL:
                raise ValueError("measurement element is not PSD within 1e-10")
        total = sum(self.all_elements(), np.zeros((dim, dim)))
        if float(np.linalg.norm(total - np.eye(dim))) > RESOLUTION_ATOL:
            raise ValueError("measurement elements do not resolve the identity")

    def all_elements(self) -> list[np.ndarray]:
        """Per-hypothesis elements followed by the residual element, if any."""
        return list(self.elements) + ([] if self.residual is None else [self.residual])

    @property
    def kind(self) -> str:
        """``"projective"`` when the elements are orthogonal projectors, ``"povm"`` otherwise."""
        return "projective" if _is_projective(self.all_elements()) else "povm"

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def zero_one_cost(n: int) -> np.ndarray:
    """Cost matrix with free correct decisions and unit-cost mistakes."""
    return np.ones((n, n)) - np.eye(n)


def check_cost_matrix(k, n: int) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (n, n):
        raise DimensionMismatchError(f"cost matrix shape {k.shape} does not match N={n}")
    if np.any(k < 0.0):
        raise ValueError("cost matrix entries must be nonnegative")
    return k


# A corpus is a LabeledDataset or a sequence of (label, FeatureVector) pairs.
Corpus = Union[LabeledDataset, Sequence[tuple[str, FeatureVector]]]


def _class_statistics(
    corpus: Corpus, dim: int, training: str
) -> tuple[list[str], list[float], np.ndarray]:
    """Labels in first-appearance order, document-frequency priors, one count row per label."""
    ds = as_dataset(corpus, dim)
    if len(ds.classes) < 2:
        raise DegenerateCorpusError(
            f"{training} training needs at least 2 classes, found {len(ds.classes)}"
        )
    priors, counts = class_statistics(ds, dim)
    return list(ds.classes), priors, counts


def build_hypotheses(corpus: Corpus, dim: int) -> HypothesisSet:
    """One prior/density pair per class, priors from document frequencies."""
    labels, priors, counts = _class_statistics(corpus, dim, "multi-class")
    states = tuple(density_from_vector(row) for row in counts)
    pure = tuple(row / np.linalg.norm(row) for row in counts)
    return HypothesisSet(
        priors=np.array(priors), states=states, labels=tuple(labels), pure_vectors=pure
    )


def pgm(h: HypothesisSet) -> Measurement:
    """Square-root measurement of the hypothesis set.

    ``mu_k = S^(-1/2) (xi_k rho_k) S^(-1/2)`` with ``S`` the prior-weighted
    average state and the inverse square root taken on the support of ``S``.
    When the support is a proper subspace, the complement is appended as a
    residual element so the identity is resolved exactly.
    """
    s = sum(xi * rho for xi, rho in zip(h.priors, h.states))
    root = linalg.inv_sqrt_psd(s)
    elements = []
    for k in range(h.n):
        if h.pure_vectors is not None:
            u = root @ h.pure_vectors[k]
            mu = float(h.priors[k]) * np.outer(u, u)
        else:
            mu = root @ (float(h.priors[k]) * h.states[k]) @ root
        elements.append(linalg.symmetrize(mu))
    w = np.linalg.eigvalsh(s)
    support = w[w > linalg.SUPPORT_RTOL * np.max(np.abs(w))]
    residual = None if support.size == h.dim else linalg.symmetrize(np.eye(h.dim) - sum(elements))
    try:
        return Measurement(elements=tuple(elements), residual=residual)
    except ValueError as exc:  # S^(-1/2) amplifies rounding by about cond(S)
        raise QdetectError(f"{exc}: the average state has condition number "
                           f"{support[-1] / support[0]:.3g}", code="ill-conditioned") from exc


def measurement_vectors(m: Measurement) -> list[np.ndarray]:
    """Unit vectors generating each rank-1 element (element = trace * outer(v, v)).

    Raises
    ------
    NotRankOneError
        If any non-residual element has numerical rank above one.
    """
    vectors = []
    for k, element in enumerate(m.elements):
        w, v = linalg.eigh(element)
        top = float(w[0])
        if top <= 0.0:
            raise NotRankOneError(f"measurement element {k} is numerically zero")
        rest = float(np.max(np.abs(w[1:]))) if len(w) > 1 else 0.0
        if rest > 1e-8 * top:
            raise NotRankOneError(
                f"measurement element {k} has rank > 1 (second eigenvalue {rest:.3e})"
            )
        vectors.append(v[:, 0])
    return vectors


def average_cost(m: Measurement, h: HypothesisSet, cost) -> float:
    """Prior-weighted expected decision cost of the measurement.

    ``sum_ij xi_j K[i][j] Tr(rho_j mu_i)``; a residual outcome is charged the
    maximum cost of its true class's column.
    """
    if m.n != h.n:
        raise DimensionMismatchError(
            f"measurement has {m.n} elements for {h.n} hypotheses"
        )
    if m.dim != h.dim:
        raise DimensionMismatchError(
            f"measurement dim {m.dim} does not match hypothesis dim {h.dim}"
        )
    k = check_cost_matrix(cost, h.n)
    total = 0.0
    for j, (xi, rho) in enumerate(zip(h.priors, h.states)):
        for i, mu in enumerate(m.elements):
            total += float(xi) * k[i, j] * float(np.trace(rho @ mu))
        if m.residual is not None:
            total += float(xi) * float(np.max(k[:, j])) * float(np.trace(rho @ m.residual))
    return total


def square_root_vectors(unit_vectors, priors) -> np.ndarray:
    """Square-root measurement ``M = Psi G^(-1/2) = U V^T`` of rank-1 states, dim x N.

    ``Psi = U S V^T`` holds the columns ``sqrt(xi_k) u_k`` for unit class
    vectors ``u_k``, and ``G = Psi^T Psi``.  ``M`` is the polar factor of
    ``Psi`` on its singular values above 1e-5 of the largest, the eigenvalues
    of ``G`` above ``SUPPORT_RTOL``; element k is ``m_k m_k^T``, and the
    residual ``I - M M^T`` stays implicit.  Raises ConvergenceError if the
    singular value decomposition fails to converge.
    """
    psi = np.asarray(unit_vectors, dtype=float) * np.sqrt(np.asarray(priors, dtype=float))
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
    vectors ``e_k`` of the detectors, whose scalars are ``detector_scalars``.
    Class k scores ``(x . column_k)^2`` and the top score decides.
    ``measurement`` (dense, for small dims) and ``detectors`` are views built
    on demand.
    """

    strategy: str
    dim: int
    labels: tuple[str, ...]
    priors: tuple[float, ...]
    vectors: np.ndarray
    detector_scalars: tuple[DetectorScalars, ...] = ()

    def __post_init__(self):
        n = len(self.labels)
        vectors = np.array(self.vectors, dtype=float, order="C")
        if vectors.shape != (self.dim, n):
            raise ValueError(
                f"vectors of shape {vectors.shape} do not match dim {self.dim} and {n} labels"
            )
        # columns of norm at most 1 have entries in [-1, 1]; a larger entry
        # could overflow below, and a NaN would compare False there
        if not np.all(np.abs(vectors) <= 1.0 + PSD_ATOL):
            raise ValueError("vectors must be finite, with entries in [-1, 1]")
        if self.strategy == "pgm":
            gram = vectors.T @ vectors
            if float(np.linalg.norm(gram @ gram - gram)) > RESOLUTION_ATOL:
                raise ValueError("M^T M is not an orthogonal projector within 1e-10")
        elif self.strategy == "one_vs_rest":
            if len(self.detector_scalars) != n:
                raise ValueError("one_vs_rest strategy requires one detector per label")
            if np.any(np.abs(np.linalg.norm(vectors, axis=0) - 1.0) > 1e-10):
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
        return round(float(np.sum(np.square(self.vectors))))

    @property
    def kind(self) -> str | None:
        """``"projective"`` for a pgm of rank N (``M^T M = I``), ``"povm"`` below; None for ovr."""
        if self.strategy != "pgm":
            return None
        return "projective" if self.rank == len(self.labels) else "povm"

    @property
    def measurement(self) -> Measurement | None:
        """Dense pgm view: elements ``m_k m_k^T`` and, below rank ``dim``, the residual."""
        if self.strategy != "pgm":
            return None
        elements = tuple(np.outer(v, v) for v in self.vectors.T)
        full_rank = self.rank == self.dim
        residual = None if full_rank else linalg.symmetrize(np.eye(self.dim) - sum(elements))
        return Measurement(elements=elements, residual=residual)

    @property
    def detectors(self) -> tuple[BinaryModel, ...] | None:
        """One-vs-rest view: one detector on the column ``e_k`` per class."""
        if self.strategy != "one_vs_rest":
            return None
        return tuple(
            BinaryModel(dim=self.dim, vectors=self.vectors[:, k:k + 1],
                        labels=(label, f"not-{label}"), **vars(s))
            for k, (label, s) in enumerate(zip(self.labels, self.detector_scalars))
        )


def train_pgm(corpus: Corpus, dim: int) -> MulticlassModel:
    """Square-root measurement of the class states, from the SVD of ``Psi``."""
    labels, priors, counts = _class_statistics(corpus, dim, "multi-class")
    units = np.column_stack([row / np.linalg.norm(row) for row in counts])
    return MulticlassModel(
        strategy="pgm",
        dim=dim,
        labels=tuple(labels),
        priors=tuple(priors),
        vectors=square_root_vectors(units, priors),
    )


def train_one_vs_rest(corpus: Corpus, dim: int) -> MulticlassModel:
    """One binary detector per class against the union of all other classes.

    Each detector's negative-class prior is one minus the class proportion;
    prediction picks the class with the highest acceptance score, so no
    detector's threshold is read and each stores the default 0.5.
    """
    labels, priors, counts = _class_statistics(corpus, dim, "one-vs-rest")
    # counts are integers held in floats, so the total and each difference are exact
    total = counts.sum(axis=0)
    vectors, scalars = [], []
    for k, row in enumerate(counts):
        e, s = detector_from_statistics(row, total - row, 1.0 - priors[k])
        vectors.append(e)
        scalars.append(s)
    return MulticlassModel(
        strategy="one_vs_rest",
        dim=dim,
        labels=tuple(labels),
        priors=tuple(priors),
        vectors=np.column_stack(vectors),
        detector_scalars=tuple(scalars),
    )


def class_scores(model: MulticlassModel, x: np.ndarray) -> np.ndarray:
    """Per-class decision scores of a unit vector, aligned with ``model.labels``."""
    return linalg.born_scores(np.asarray(x, dtype=float)[None], model.vectors)[0]


def classify(model: MulticlassModel, x: np.ndarray) -> str:
    """Label with the highest score; exact ties go to the lowest class index."""
    picks, _ = model.decisions(class_scores(model, x)[None])
    return model.labels[int(picks[0])]
