"""Synthetic corpus generation for desk-scale benchmarks.

Classes write into per-class feature blocks; the ``overlap`` kind adds a pool
of features shared by every class, sized so the class statistics vectors meet
at a requested angle, and ``trine-like`` is the symmetric three-class variant.
Noise moves individual feature occurrences into a uniformly chosen other
class's block.  Generation is driven by the same fixed 64-bit generator used
for splits, so a seed pins the corpus bytes.
"""

from __future__ import annotations

import math

from qdetect.dataio import LabeledDataset, Lcg
from qdetect.states import FeatureVector

KINDS = ("orthogonal", "overlap", "trine-like")


def _shared_pool_size(block_size: int, angle: float) -> int:
    # Pairwise cosine of class statistics vectors is shared / (own + shared)
    # when every document carries its full block, so size the pool to hit
    # cos(angle) and cap the blow-up at 8 blocks as the angle closes.  Past
    # c = 8/9 the divisor c / 8 gives the cap itself, also once c rounds to 1.
    c = math.cos(angle)
    return min(8 * block_size, round(block_size * c / max(1.0 - c, c / 8)))


def _uniform(rng: Lcg) -> float:
    return rng.next_u64() / 2.0**64


def synth_corpus(
    kind: str,
    docs_per_class: int,
    noise_rate: float,
    seed: int,
    n_classes: int = 4,
    block_size: int = 4,
    angle: float = math.pi / 3,
) -> LabeledDataset:
    """Deterministic labeled corpus of the requested geometry.

    ``orthogonal`` gives each class a disjoint feature block; ``overlap`` adds
    a shared pool sized from ``angle``; ``trine-like`` is three classes with a
    common pool giving equal pairwise overlaps.  Every document contains its
    class's features once, then each occurrence is flipped into a random other
    class's block with probability ``noise_rate``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}; expected one of {KINDS}")
    if docs_per_class < 2:
        raise ValueError("docs_per_class must be at least 2")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must lie in [0, 1)")
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")

    if kind == "trine-like":
        n_classes = 3
        shared = block_size
    elif kind == "overlap":
        if not 0.0 < angle <= math.pi / 2:
            raise ValueError("angle must lie in (0, pi/2]")
        shared = _shared_pool_size(block_size, angle)
    else:
        shared = 0

    dim = n_classes * block_size + shared
    shared_start = n_classes * block_size
    rng = Lcg(seed)
    documents = []
    for k in range(n_classes):
        own = list(range(k * block_size, (k + 1) * block_size))
        base = own + list(range(shared_start, shared_start + shared))
        for _ in range(docs_per_class):
            entries: dict[int, float] = {}
            for feature in base:
                if noise_rate > 0.0 and _uniform(rng) < noise_rate:
                    other = rng.next_below(n_classes - 1)
                    if other >= k:
                        other += 1
                    feature = other * block_size + rng.next_below(block_size)
                entries[feature] = 1.0
            documents.append((f"class{k}", FeatureVector(dim=dim, entries=entries)))
    return LabeledDataset(dim=dim, documents=tuple(documents))
