"""Evaluation: confusion matrices, precision/recall/F1, empirical decision cost.

Degenerate (all-zero) test documents are assigned the class with the largest
prior and counted separately instead of aborting a batch run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdetect.errors import DimensionMismatchError, UnseenLabelError
from qdetect.linalg import born_scores
from qdetect.multiclass import check_cost_matrix, zero_one_cost
from qdetect.states import LabeledDataset


def default_label(model) -> str:
    """Fallback class for unclassifiable documents: the largest prior wins."""
    return model.labels[int(np.argmax(model.priors))]


def _decisions(model, ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per document: the chosen label's index, its score, and the degenerate flag.

    Degenerate (empty) documents take the largest-prior class with score 0.
    """
    if ds.dim > model.dim:
        raise DimensionMismatchError(
            f"dataset dim {ds.dim} exceeds model dim {model.dim}"
        )
    picks, values = model.decisions(born_scores(ds.unit_rows(model.dim), model.vectors))
    empty = ds.empty_rows()
    picks = np.where(empty, int(np.argmax(model.priors)), picks)
    return picks, np.where(empty, 0.0, values), empty


def predict_dataset(model, ds: LabeledDataset) -> list[tuple[str, float, bool]]:
    """(label, score, degenerate_flag) per document, decided by the model's rule.

    Degenerate documents take the fallback label with score 0.
    """
    picks, values, empty = _decisions(model, ds)
    return [(model.labels[k], v, flag)
            for k, v, flag in zip(picks.tolist(), values.tolist(), empty.tolist())]


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
    micro_precision: float
    micro_recall: float
    micro_f1: float
    empirical_cost: float
    degenerate_count: int
    evaluated_count: int

    def to_dict(self) -> dict:
        """Snake_case JSON layout of the report."""
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "empirical_cost": self.empirical_cost,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "micro_precision": self.micro_precision,
            "micro_recall": self.micro_recall,
            "micro_f1": self.micro_f1,
            "per_class": [
                {
                    "label": label,
                    "precision": float(self.precision[k]),
                    "recall": float(self.recall[k]),
                    "f1": float(self.f1[k]),
                    "support": int(self.support[k]),
                    "flags": list(self.flags[k]),
                }
                for k, label in enumerate(self.labels)
            ],
            "confusion": [[int(x) for x in row] for row in self.confusion],
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
    flags = tuple(
        tuple(
            name
            for name, undefined in (
                ("precision_undefined", col_sums[k] == 0),
                ("recall_undefined", row_sums[k] == 0),
            )
            if undefined
        )
        for k in range(n)
    )

    accuracy = float(diag.sum() / total)
    present = row_sums > 0
    macro_precision = float(np.mean(precision[present]))
    macro_recall = float(np.mean(recall[present]))
    macro_f1 = float(np.mean(f1[present]))
    micro = float(diag.sum() / total)
    # cost[pred][true] summed over cells: confusion[true, pred] * k_cost[pred, true]
    empirical_cost = float(np.sum(confusion * k_cost.T) / total)

    report = EvalReport(
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
        micro_precision=micro,
        micro_recall=micro,
        micro_f1=micro,
        empirical_cost=empirical_cost,
        degenerate_count=degenerate_count,
        evaluated_count=total,
    )
    # Single-label sanity: micro-averaged F1 must equal accuracy exactly.
    if abs(report.micro_f1 - report.accuracy) > 1e-12:
        raise ValueError(f"micro F1 {report.micro_f1!r} differs from accuracy {report.accuracy!r}")
    return report


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
