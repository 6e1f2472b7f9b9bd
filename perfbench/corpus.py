"""Seeded corpus generator for the benchmark, independent of ``qdetect.synth``.

Each class owns a Zipf-weighted topic over its own permutation of the
vocabulary, mixed with a uniform background at a fixed noise share.  A document
draws a fixed number of tokens and stores term counts.  Topics overlap through
their tails and the background, so the class statistics vectors are
non-orthogonal and accuracy stays below 1: a scoring bug shows up in accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZIPF_EXPONENT = 1.1
TOKENS_PER_DOC = 30


@dataclass(frozen=True)
class CorpusSpec:
    """Generator parameters; document counts are totals over all classes."""

    dim: int
    classes: int
    train_docs: int
    test_docs: int
    noise_share: float

    def __post_init__(self):
        if self.train_docs % self.classes or self.test_docs % self.classes:
            raise ValueError("document counts must split evenly over the classes")


def _balanced_labels(rng: np.random.Generator, classes: int, total: int) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(classes), total // classes))


def _render(labels: np.ndarray, tokens: np.ndarray, dim: int) -> str:
    """Sparse text lines ``LABEL idx:count ...`` with increasing indices."""
    n_docs = labels.shape[0]
    keys = (np.arange(n_docs)[:, None] * dim + tokens).ravel()
    uniq, counts = np.unique(keys, return_counts=True)
    doc_of = uniq // dim
    idx = (uniq % dim).tolist()
    counts = counts.tolist()
    bounds = np.searchsorted(doc_of, np.arange(n_docs + 1)).tolist()
    lines = []
    for d in range(n_docs):
        lo, hi = bounds[d], bounds[d + 1]
        pairs = " ".join(f"{idx[j]}:{counts[j]}" for j in range(lo, hi))
        lines.append(f"c{int(labels[d]):02d} {pairs}")
    return "\n".join(lines) + "\n"


def generate(spec: CorpusSpec, seed: int) -> tuple[str, str]:
    """Train and test files as text; equal seeds give byte-identical output."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, spec.dim + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    topics = np.stack([rng.permutation(spec.dim) for _ in range(spec.classes)])
    out = []
    for total in (spec.train_docs, spec.test_docs):
        labels = _balanced_labels(rng, spec.classes, total)
        shape = (total, TOKENS_PER_DOC)
        ranks = rng.choice(spec.dim, size=shape, p=weights)
        background = rng.integers(0, spec.dim, size=shape)
        noisy = rng.random(shape) < spec.noise_share
        tokens = np.where(noisy, background, topics[labels[:, None], ranks])
        out.append(_render(labels, tokens, spec.dim))
    return out[0], out[1]
