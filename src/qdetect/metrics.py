"""Evaluation: confusion matrices, precision/recall/F1, empirical decision cost.

Degenerate (all-zero) test documents are assigned the class with the largest
prior and counted separately instead of aborting a batch run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdetect.errors import DimensionMismatchError, UnseenLabelError
from qdetect.linalg import born_scores
from qdetect.multiclass import _BLOCK_DOUBLES, check_cost_matrix, zero_one_cost
from qdetect.states import dense_rows, unit_entries


def _decisions(model, documents, check_labels: bool = False):
    """Per scorer block of ``documents``: its label ids, and each row's pick, score and empty flag.

    ``documents`` is read as ``class_statistics`` reads it, a ``LabeledDataset``
    or a ``DocumentReader``; the pick is the chosen label's index.  A range is
    scored while every index read so far is below the model's dim and, with
    ``check_labels``, every class read so far is the model's.  After that the
    read goes on to its end unscored, so that a parse error on any later line
    comes first.  Once the last line is read, in this order: the errors of
    ``width()`` (no documents), classes the model lacks (all of them,
    sorted), and a width past the model's dim.

    Each range is scored a block of rows at a time (``_block_decisions``),
    and each block is one item; its n rows fit ``_BLOCK_DOUBLES``, so a block
    holds at most 65,536 rows for dim >= 2.  Degenerate (empty) documents
    take the largest-prior class with score 0.
    """
    dim, fallback = model.dim, int(np.argmax(model.priors))
    known = set(model.labels)
    for ids, lengths, indices, values in documents:
        if documents.largest >= dim or check_labels and not known.issuperset(documents.classes):
            continue
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        longest = int(lengths.max(initial=1))
        step = max(1, _BLOCK_DOUBLES // dim, math.isqrt(_BLOCK_DOUBLES // longest))
        for a in range(0, len(lengths), step):
            ptr = indptr[a:a + step + 1]
            picks, scores = _block_decisions(
                model, ptr - ptr[0], indices[ptr[0]:ptr[-1]], values[ptr[0]:ptr[-1]])
            empty = lengths[a:a + step] == 0
            picks[empty] = fallback
            yield ids[a:a + step], picks, scores, empty  # an empty row scores 0 in every column
    width = documents.width()
    unseen = sorted(set(documents.classes) - known) if check_labels else []
    if unseen:
        raise UnseenLabelError(f"test labels not known to the model: {unseen}")
    if width > dim:
        raise DimensionMismatchError(f"dataset dim {width} exceeds model dim {dim}")


def _block_decisions(model, ptr, cols, vals) -> tuple[np.ndarray, np.ndarray]:
    """Pick and score of each row of a block, normalized, scored and decided in one pass.

    The block's entries are scattered into a dense array.  A block of fewer
    entries than dim has a column only for each feature it uses, found by
    sorting its entries; a larger one has all dim columns, each feature's at
    its own index, and is scored against the model's vectors as they are.
    """
    # n x dim fits _BLOCK_DOUBLES for a block of at least dim entries: dim <= entries <=
    # n * longest gives n * dim <= n^2 * longest under the isqrt step of _decisions, and
    # its dim step bounds n * dim itself
    vectors = model.vectors
    if len(cols) < model.dim:
        used, cols = np.unique(cols, return_inverse=True)
        vectors = vectors[used]
    rows = dense_rows(ptr, cols, unit_entries(ptr, vals), len(vectors))
    return model.decisions(born_scores(rows, vectors))


def predict_dataset(model, documents) -> list[tuple[str, float, bool]]:
    """(label, score, degenerate_flag) per document, decided by the model's rule.

    Degenerate documents take the fallback label with score 0.
    """
    return [(model.labels[k], v, flag) for _, picks, values, empty in _decisions(model, documents)
            for k, v, flag in zip(picks.tolist(), values.tolist(), empty.tolist())]


def predictions_tsv(model, documents) -> list[str]:
    """The ``doc_index<TAB>label<TAB>score`` lines of ``predict_dataset``, in blocks of text.

    Documents are numbered from 0 and scores written with 17 significant
    digits (``%.17g``), which read back as the same double.  Each scorer
    block of ``_decisions`` is one block of text, formatted by one ``%`` on a
    tuple of fields; of a read, only the text is kept.
    """
    prefixes = [f"\t{label}\t" for label in model.labels]
    blocks, first = [], 0
    for _, picks, values, _ in _decisions(model, documents):
        fields = [None] * (3 * len(picks))
        fields[0::3] = range(first, first + len(picks))
        fields[1::3] = map(prefixes.__getitem__, picks.tolist())
        fields[2::3] = values.tolist()
        blocks.append("%d%s%.17g\n" * len(picks) % tuple(fields))
        first += len(picks)
    return blocks


@dataclass(frozen=True)
class EvalReport:
    """Per-class and aggregate classification quality plus empirical cost."""

    labels: tuple[str, ...]
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    flags: tuple[tuple[str, ...], ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    empirical_cost: float
    degenerate_count: int
    evaluated_count: int

    def to_dict(self) -> dict:
        """Snake_case JSON layout of the report.

        With one label per document every micro average is the accuracy.
        """
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "empirical_cost": self.empirical_cost,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "micro_precision": self.accuracy,
            "micro_recall": self.accuracy,
            "micro_f1": self.accuracy,
            "per_class": [
                {"label": label, "precision": p, "recall": r, "f1": f1, "support": n,
                 "flags": list(flags)}
                for label, p, r, f1, n, flags in zip(
                    self.labels, self.precision.tolist(), self.recall.tolist(),
                    self.f1.tolist(), self.support.tolist(), self.flags)
            ],
            "confusion": self.confusion.tolist(),
            "degenerate_count": self.degenerate_count,
            "evaluated_count": self.evaluated_count,
        }


def report_from_confusion(
    labels, confusion, cost=None, degenerate_count: int = 0
) -> EvalReport:
    """Metrics from a rows-are-true-classes confusion matrix.

    The empirical cost charges ``cost[pred][true]`` per document; with the
    default zero-one matrix it is exactly one minus the accuracy.
    """
    labels = tuple(labels)
    n = len(labels)
    confusion = np.asarray(confusion, dtype=int)
    if confusion.shape != (n, n) or np.any(confusion < 0):
        raise ValueError(f"confusion must be a nonnegative {n}x{n} matrix")
    k_cost = zero_one_cost(n) if cost is None else check_cost_matrix(cost, n)
    total = int(confusion.sum())
    if total == 0:
        raise ValueError("cannot report on zero evaluated documents")

    diag = np.diag(confusion).astype(float)
    col_sums = confusion.sum(axis=0).astype(float)
    row_sums = confusion.sum(axis=1).astype(float)
    precision = np.where(col_sums > 0, diag / np.where(col_sums > 0, col_sums, 1.0), 0.0)
    recall = np.where(row_sums > 0, diag / np.where(row_sums > 0, row_sums, 1.0), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    undefined = (("precision_undefined", col_sums == 0), ("recall_undefined", row_sums == 0))
    flags = tuple(tuple(name for name, mask in undefined if mask[k]) for k in range(n))

    accuracy = float(diag.sum() / total)
    present = row_sums > 0
    macro_precision = float(np.mean(precision[present]))
    macro_recall = float(np.mean(recall[present]))
    macro_f1 = float(np.mean(f1[present]))
    # cost[pred][true] summed over cells: confusion[true, pred] * k_cost[pred, true], with
    # costs scaled by a power of two to at most 1: no overflow, and no bit lost otherwise
    _, e = np.frexp(np.max(k_cost))
    empirical_cost = float(np.ldexp(np.sum(confusion * np.ldexp(k_cost.T, -e)) / total, e))

    return EvalReport(
        labels=labels,
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        support=row_sums.astype(int),
        flags=flags,
        accuracy=accuracy,
        macro_precision=macro_precision,
        macro_recall=macro_recall,
        macro_f1=macro_f1,
        empirical_cost=empirical_cost,
        degenerate_count=degenerate_count,
        evaluated_count=total,
    )


def evaluate(model, documents, cost=None) -> EvalReport:
    """Score a model on labeled documents; rows of the confusion are true classes.

    ``documents`` is a ``LabeledDataset`` or a ``DocumentReader``, counted a
    scorer block at a time, so a read's memory does not grow with its documents.
    ``cost`` defaults to the zero-one matrix, making the empirical cost the
    error rate; passing another matrix reweights mistakes per class pair.
    """
    n = len(model.labels)
    pairs, degenerate = np.zeros((n, n), dtype=np.int64), 0
    for ids, picks, _, empty in _decisions(model, documents, check_labels=True):
        np.add.at(pairs, (ids, picks), 1)
        degenerate += int(np.count_nonzero(empty))
    # the label ids index the read's classes, each of them a model label
    index = {label: k for k, label in enumerate(model.labels)}
    rows = [index[label] for label in documents.classes]
    confusion = np.zeros((n, n), dtype=np.int64)
    confusion[rows] = pairs[:len(rows)]
    return report_from_confusion(model.labels, confusion, cost, degenerate)
