"""Reference scorer and output checks, independent of qdetect's model layout.

Class scores are recomputed from the raw training file in the N-dimensional
span of the class vectors:

* pgm: the Gram-form square-root measurement ``M = Psi G^(-1/2)`` with
  ``Psi = [sqrt(xi_k) psi_k]`` and ``G = Psi^T Psi``; class ``k`` scores
  ``(x . m_k)^2``;
* one-vs-rest: detector ``k`` keeps the positive eigenvector of the 2x2
  restriction of ``u+ u+^T - lam u- u-^T`` to ``span(u+, u-)`` and scores the
  squared projection of ``x`` on it.

Only the sparse text format and the prediction TSV are read, so the check
stays valid when the model file format changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCORE_ATOL = 1e-9
TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class Corpus:
    """Labels in file order, first-appearance class order, dense raw values."""

    labels: list[str]
    classes: list[str]
    values: np.ndarray  # (docs, dim) raw term counts

    def class_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per class: documents with a nonzero count per feature, and class size."""
        index = {c: k for k, c in enumerate(self.classes)}
        rows = np.array([index[label] for label in self.labels])
        stats = np.zeros((len(self.classes), self.values.shape[1]))
        np.add.at(stats, rows, (self.values > 0).astype(float))
        sizes = np.bincount(rows, minlength=len(self.classes)).astype(float)
        return stats, sizes

    def unit_rows(self) -> np.ndarray:
        return self.values / np.linalg.norm(self.values, axis=1, keepdims=True)


def read_corpus(path: str, dim: int) -> Corpus:
    labels: list[str] = []
    rows: list[tuple[list[int], list[float]]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            label, *pairs = line.split()
            labels.append(label)
            idx, val = zip(*(p.split(":") for p in pairs))
            rows.append(([int(i) for i in idx], [float(v) for v in val]))
    values = np.zeros((len(rows), dim))
    for d, (idx, val) in enumerate(rows):
        values[d, idx] = val
    classes = list(dict.fromkeys(labels))
    return Corpus(labels=labels, classes=classes, values=values)


def pgm_directions(stats: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Columns ``m_k`` of ``Psi G^(-1/2)``, shape (dim, classes)."""
    priors = sizes / sizes.sum()
    psi = stats / np.linalg.norm(stats, axis=1, keepdims=True)
    big_psi = (np.sqrt(priors)[:, None] * psi).T
    w, u = np.linalg.eigh(big_psi.T @ big_psi)
    return big_psi @ (u / np.sqrt(w)) @ u.T


def ovr_directions(stats: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Unit positive eigenvector of each one-vs-rest detector, shape (dim, classes)."""
    total = sizes.sum()
    out = np.empty((stats.shape[1], stats.shape[0]))
    for k in range(stats.shape[0]):
        u_pos = stats[k] / np.linalg.norm(stats[k])
        rest = stats.sum(axis=0) - stats[k]
        u_neg = rest / np.linalg.norm(rest)
        xi = 1.0 - sizes[k] / total
        lam = xi / (1.0 - xi)
        overlap = float(u_neg @ u_pos)
        r = u_neg - overlap * u_pos
        r_norm = float(np.linalg.norm(r))
        c_neg = np.array([overlap, r_norm])
        b = np.array([[1.0, 0.0], [0.0, 0.0]]) - lam * np.outer(c_neg, c_neg)
        _, vecs = np.linalg.eigh(b)
        e = vecs[:, 1]  # ascending order: the single positive eigenvalue is last
        out[:, k] = e[0] * u_pos + e[1] * (r / r_norm)
    return out


def reference_scores(train: Corpus, test: Corpus, strategy: str) -> np.ndarray:
    """(test docs, classes) scores aligned with ``train.classes``."""
    stats, sizes = train.class_stats()
    directions = pgm_directions if strategy == "pgm" else ovr_directions
    return (test.unit_rows() @ directions(stats, sizes)) ** 2


def read_predictions(path: str) -> list[tuple[str, float]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            index, label, value = line.rstrip("\n").split("\t")
            if int(index) != i:
                raise ValueError(f"prediction row {i} has index {index}")
            out.append((label, float(value)))
    return out


def prediction_mismatches(
    predictions: list[tuple[str, float]], scores: np.ndarray, classes: list[str]
) -> list[str]:
    """Descriptions of rows whose score or label disagrees with the reference."""
    if len(predictions) != scores.shape[0]:
        return [f"{len(predictions)} predictions for {scores.shape[0]} documents"]
    index = {c: k for k, c in enumerate(classes)}
    top2 = np.sort(scores, axis=1)[:, -2:]
    best = np.argmax(scores, axis=1)
    bad = []
    for i, (label, value) in enumerate(predictions):
        k = index.get(label)
        if k is None:
            bad.append(f"doc {i}: unknown label {label!r}")
        elif abs(value - scores[i, k]) > SCORE_ATOL or abs(value - top2[i, 1]) > SCORE_ATOL:
            bad.append(f"doc {i}: score {value!r} vs reference {scores[i, k]!r}")
        elif k != best[i] and top2[i, 1] - top2[i, 0] >= TIE_MARGIN:
            bad.append(f"doc {i}: label {label} vs reference {classes[best[i]]}")
    return bad
