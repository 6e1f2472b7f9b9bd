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
from qdetect.states import LabeledDataset, dense_rows, unit_entries

# Lines of predictions formatted by one string operation.
_TSV_BLOCK_ROWS = 1 << 16


def _decisions(model, ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per document: the chosen label's index, its score, and the degenerate flag.

    Each block of n rows is normalized, scored and decided in one pass; it spans at
    most min(dim, n * longest row) features, and n fits ``_BLOCK_DOUBLES``.
    Degenerate (empty) documents take the largest-prior class with score 0.
    """
    if ds.dim > model.dim:
        raise DimensionMismatchError(f"dataset dim {ds.dim} exceeds model dim {model.dim}")
    longest = int(np.diff(ds.indptr).max(initial=1))
    step = max(1, _BLOCK_DOUBLES // ds.dim, math.isqrt(_BLOCK_DOUBLES // longest))
    picks, values = np.empty(len(ds), dtype=np.int64), np.empty(len(ds))
    position = np.zeros(ds.dim, dtype=np.int64)
    for a in range(0, len(ds), step):
        ptr = ds.indptr[a:a + step + 1]
        cols, vals = ds.indices[ptr[0]:ptr[-1]], ds.values[ptr[0]:ptr[-1]]
        used = np.flatnonzero(np.bincount(cols, minlength=ds.dim))
        position[used] = np.arange(len(used))
        ptr = ptr - ptr[0]
        rows = dense_rows(ptr, position[cols], unit_entries(ptr, vals), len(used))
        picks[a:a + step], values[a:a + step] = model.decisions(
            born_scores(rows, model.vectors[used]))
    empty = ds.indptr[1:] == ds.indptr[:-1]
    picks[empty] = int(np.argmax(model.priors))
    return picks, values, empty  # an empty row scores 0 in every column


def predict_dataset(model, ds: LabeledDataset) -> list[tuple[str, float, bool]]:
    """(label, score, degenerate_flag) per document, decided by the model's rule.

    Degenerate documents take the fallback label with score 0.
    """
    picks, values, empty = _decisions(model, ds)
    return [(model.labels[k], v, flag)
            for k, v, flag in zip(picks.tolist(), values.tolist(), empty.tolist())]


def predictions_tsv(model, ds: LabeledDataset) -> list[str]:
    """The ``doc_index<TAB>label<TAB>score`` lines of ``predict_dataset``, in blocks of text.

    Documents are numbered from 0 and scores written with 17 significant
    digits (``%.17g``), which read back as the same double.  A block holds at
    most ``_TSV_BLOCK_ROWS`` lines, formatted by one ``%`` on a tuple of fields.
    """
    picks, values, _ = _decisions(model, ds)
    prefixes = [f"\t{label}\t" for label in model.labels]
    blocks = []
    for a in range(0, len(picks), _TSV_BLOCK_ROWS):
        k = picks[a:a + _TSV_BLOCK_ROWS].tolist()
        fields = [None] * (3 * len(k))
        fields[0::3] = range(a, a + len(k))
        fields[1::3] = map(prefixes.__getitem__, k)
        fields[2::3] = values[a:a + len(k)].tolist()
        blocks.append("%d%s%.17g\n" * len(k) % tuple(fields))
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


def evaluate(model, test: LabeledDataset, cost=None) -> EvalReport:
    """Score a model on labeled data; rows of the confusion are true classes.

    ``cost`` defaults to the zero-one matrix, making the empirical cost the
    error rate; passing another matrix reweights mistakes per class pair.
    """
    labels = list(model.labels)
    index = {label: k for k, label in enumerate(labels)}
    unseen = sorted(set(test.classes) - set(labels))
    if unseen:
        raise UnseenLabelError(f"test labels not known to the model: {unseen}")
    picks, _, empty = _decisions(model, test)
    truth = np.array([index[label] for label in test.classes], dtype=np.int64)[test.label_ids]
    n = len(labels)
    confusion = np.bincount(truth * n + picks, minlength=n * n).reshape(n, n)
    return report_from_confusion(labels, confusion, cost, int(np.sum(empty)))
