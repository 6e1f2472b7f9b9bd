"""Evaluation metric tests against hand-computed confusion matrices."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import metrics
from qdetect.binary import train_binary
from qdetect.errors import DimensionMismatchError, UnseenLabelError
from qdetect.dataio import LabeledDataset
from qdetect.metrics import (
    evaluate,
    predict_dataset,
    predictions_tsv,
    report_from_confusion,
)
from qdetect.multiclass import train_pgm, train_one_vs_rest
from qdetect.states import FeatureVector


def fv(dim, entries):
    return FeatureVector(dim=dim, entries=entries)


def orthogonal_corpus(n_per_class=3, dim=3):
    docs = []
    for k in range(dim):
        docs.extend((f"c{k}", fv(dim, {k: float(j + 1)})) for j in range(n_per_class))
    return docs


class TestReportFromConfusion:
    def test_two_class_reference_values(self):
        report = report_from_confusion(("a", "b"), [[2, 1], [0, 3]])
        assert report.precision[0] == pytest.approx(1.0)
        assert report.recall[0] == pytest.approx(2.0 / 3.0)
        assert report.f1[0] == pytest.approx(0.8)
        assert report.precision[1] == pytest.approx(0.75)
        assert report.recall[1] == pytest.approx(1.0)
        assert report.f1[1] == pytest.approx(6.0 / 7.0)
        assert report.accuracy == pytest.approx(5.0 / 6.0)
        assert report.empirical_cost == pytest.approx(1.0 / 6.0)

    def test_perfect_predictions(self):
        report = report_from_confusion(("a", "b"), [[4, 0], [0, 6]])
        assert report.accuracy == 1.0
        assert report.empirical_cost == 0.0
        assert report.macro_f1 == 1.0
        assert report.to_dict()["micro_f1"] == 1.0

    def test_all_wrong_two_class(self):
        report = report_from_confusion(("a", "b"), [[0, 2], [3, 0]])
        assert report.accuracy == 0.0
        assert report.empirical_cost == 1.0

    def test_micro_f1_equals_accuracy_on_random_confusions(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            confusion = rng.integers(0, 9, size=(n, n))
            confusion[0, 0] += 1  # never all-zero
            report = report_from_confusion([f"c{k}" for k in range(n)], confusion)
            # pooled over classes: every false positive of one class is a false negative of another
            tp = np.trace(confusion)
            fp = np.sum(confusion.sum(axis=0) - np.diag(confusion))
            fn = np.sum(confusion.sum(axis=1) - np.diag(confusion))
            micro_p, micro_r = tp / (tp + fp), tp / (tp + fn)
            micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r)
            doc = report.to_dict()
            assert doc["micro_precision"] == pytest.approx(micro_p, abs=1e-12)
            assert doc["micro_recall"] == pytest.approx(micro_r, abs=1e-12)
            assert doc["micro_f1"] == pytest.approx(micro_f1, abs=1e-12)
            assert doc["micro_f1"] == report.accuracy
            assert report.empirical_cost == pytest.approx(1.0 - report.accuracy, abs=1e-12)

    def test_report_dict_holds_the_per_element_numbers(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            confusion = rng.integers(0, 9, size=(n, n))
            confusion[0, 0] += 1  # never all-zero
            report = report_from_confusion([f"c{k}" for k in range(n)], confusion)
            doc = report.to_dict()
            assert doc["confusion"] == [[int(x) for x in row] for row in report.confusion]
            assert doc["per_class"] == [
                {"label": label, "precision": float(report.precision[k]),
                 "recall": float(report.recall[k]), "f1": float(report.f1[k]),
                 "support": int(report.support[k]), "flags": list(report.flags[k])}
                for k, label in enumerate(report.labels)
            ]
            # plain Python numbers, as the JSON writer expects
            assert {type(x) for row in doc["confusion"] for x in row} == {int}
            assert {type(c["support"]) for c in doc["per_class"]} == {int}
            assert {type(c[key]) for c in doc["per_class"]
                    for key in ("precision", "recall", "f1")} == {float}

    def test_zero_denominator_flags(self):
        # class b never predicted, class c absent from the truth
        report = report_from_confusion(("a", "b", "c"), [[2, 0, 1], [1, 0, 0], [0, 0, 0]])
        assert report.precision[1] == 0.0
        assert "precision_undefined" in report.flags[1]
        assert report.recall[2] == 0.0
        assert "recall_undefined" in report.flags[2]
        # macro averages run over classes present in the truth only
        assert report.macro_recall == pytest.approx((2.0 / 3.0 + 0.0) / 2.0)

    def test_custom_cost_matrix(self):
        cost = np.array([[0.0, 5.0], [1.0, 0.0]])
        report = report_from_confusion(("a", "b"), [[2, 1], [1, 2]], cost=cost)
        # one a->b mistake costs K[b][a]=1, one b->a mistake costs K[a][b]=5
        assert report.empirical_cost == pytest.approx((1.0 + 5.0) / 6.0)

    @pytest.mark.parametrize("huge", [1e308, np.finfo(float).max])
    def test_huge_costs_give_a_finite_cost(self, huge):
        # the products confusion * cost overflow; the cost is an average of finite costs
        confusion = [[3, 1, 0], [2, 4, 1], [0, 0, 5]]
        cost = np.full((3, 3), huge) - np.diag(np.full(3, huge))
        report = report_from_confusion(("a", "b", "c"), confusion, cost=cost)
        assert report.empirical_cost == pytest.approx((1.0 - report.accuracy) * huge, rel=1e-15)

    @pytest.mark.parametrize("confusion", [[[1, 2, 3]], [[2, -1], [0, 3]]],
                             ids=["misshapen", "negative"])
    def test_confusion_must_be_a_nonnegative_square(self, confusion):
        with pytest.raises(ValueError, match="nonnegative 2x2 matrix"):
            report_from_confusion(("a", "b"), confusion)

    def test_zero_one_cost_is_exactly_the_error_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            confusion = rng.integers(0, 50, size=(n, n))
            report = report_from_confusion([f"c{k}" for k in range(n)], confusion)
            errors = confusion.sum() - np.trace(confusion)
            assert report.empirical_cost == float(errors / confusion.sum())


class TestEvaluate:
    def test_perfect_model_on_orthogonal_corpus(self):
        corpus = orthogonal_corpus()
        ds = LabeledDataset(dim=3, documents=tuple(corpus))
        for model in (train_pgm(corpus, 3), train_one_vs_rest(corpus, 3)):
            report = evaluate(model, ds)
            assert report.accuracy == 1.0
            assert report.empirical_cost == 0.0
            assert report.degenerate_count == 0

    @pytest.mark.parametrize("cost", [[[0.0, np.nan], [1.0, 0.0]], [[0.0, 1.0], [np.inf, 0.0]]])
    def test_non_finite_costs(self, cost):
        corpus = orthogonal_corpus(dim=2)
        ds = LabeledDataset(dim=2, documents=tuple(corpus))
        with pytest.raises(ValueError, match="finite"):
            evaluate(train_pgm(corpus, 2), ds, cost=cost)

    def test_unseen_label_rejected(self):
        corpus = orthogonal_corpus()
        model = train_pgm(corpus, 3)
        bad = LabeledDataset(dim=3, documents=(("mystery", fv(3, {0: 1})),))
        with pytest.raises(UnseenLabelError, match="mystery"):
            evaluate(model, bad)

    def test_degenerate_document_takes_largest_prior(self):
        corpus = [("a", fv(2, {0: 1}))] * 3 + [("b", fv(2, {1: 1}))] * 2
        model = train_pgm(corpus, 2)
        ds = LabeledDataset(dim=2, documents=(("b", fv(2, {})),))
        report = evaluate(model, ds)
        assert report.degenerate_count == 1
        assert report.confusion[1, 0] == 1  # true b, predicted a

    def test_smaller_test_dim_zero_padded(self):
        corpus = orthogonal_corpus(dim=3)
        model = train_pgm(corpus, 3)
        narrow = LabeledDataset(dim=2, documents=(("c0", fv(2, {0: 2})), ("c1", fv(2, {1: 1}))))
        report = evaluate(model, narrow)
        assert report.accuracy == 1.0

    def test_larger_test_dim_rejected(self):
        corpus = orthogonal_corpus(dim=2)
        model = train_pgm(corpus, 2)
        wide = LabeledDataset(dim=4, documents=(("c0", fv(4, {0: 1})),))
        with pytest.raises(DimensionMismatchError):
            evaluate(model, wide)

    def test_unseen_label_is_reported_before_a_dim_past_the_model(self):
        model = train_pgm(orthogonal_corpus(dim=2), 2)
        bad = LabeledDataset(dim=4, documents=(("c0", fv(4, {0: 1})), ("mystery", fv(4, {3: 1}))))
        with pytest.raises(UnseenLabelError, match="mystery"):
            evaluate(model, bad)


class TestPredictDataset:
    def test_rows_align_with_documents(self):
        corpus = orthogonal_corpus()
        model = train_pgm(corpus, 3)
        ds = LabeledDataset(dim=3, documents=tuple(corpus))
        rows = predict_dataset(model, ds)
        assert len(rows) == len(ds)
        for (label, _), (pred, value, flagged) in zip(ds.documents, rows):
            assert pred == label
            assert 0.0 <= value <= 1.0 + 1e-10
            assert not flagged

    def test_zero_rows_give_no_lines_and_no_report(self):
        model = train_pgm(orthogonal_corpus(), 3)
        empty = LabeledDataset.from_arrays(3, (), [], [0], [], [])
        assert predict_dataset(model, empty) == []
        assert predictions_tsv(model, empty) == []
        with pytest.raises(ValueError, match="^cannot report on zero evaluated documents$"):
            evaluate(model, empty)


# strategy -> a model trained on a tiny corpus, relabelled by the tests
TSV_MODELS = {
    "pgm": train_pgm(orthogonal_corpus(), 3),
    "ovr": train_one_vs_rest(orthogonal_corpus(), 3),
    "binary": train_binary([fv(3, {0: 2, 1: 1})], [fv(3, {2: 1})], 3,
                           prior_negative=0.5, labels=("a", "b")),
}
SCORES = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
LABELS = st.one_of(st.sampled_from(["caf\u00e9", "\u65e5\u672c", "\u03a9", "100%", "%s%d"]),
                   st.text(min_size=1, max_size=6))


@st.composite
def drawn_predictions(draw):
    """A relabelled model and the per-column scores of 1 to 13 documents."""
    model = TSV_MODELS[draw(st.sampled_from(sorted(TSV_MODELS)))]
    labels = draw(st.lists(LABELS, min_size=len(model.labels), max_size=len(model.labels),
                           unique=True))
    rows = draw(st.integers(1, 13))
    scores = draw(st.lists(st.lists(SCORES, min_size=model.vectors.shape[1],
                                    max_size=model.vectors.shape[1]),
                           min_size=rows, max_size=rows))
    return dataclasses.replace(model, labels=tuple(labels)), np.array(scores)


@settings(max_examples=300, deadline=None)
@given(drawn_predictions())
def test_tsv_blocks_are_the_per_row_lines(drawn):
    model, scores = drawn
    ds = LabeledDataset(dim=3, documents=(("x", fv(3, {0: 1.0})),) * len(scores))
    drawn_rows = itertools.cycle(scores)  # each of the two reads takes every row once

    def block_scores(rows, vectors):
        """The drawn scores of a block's own rows, in order."""
        return np.array([next(drawn_rows) for _ in rows])

    # scorer blocks of 4 rows at dim 3, so 1 to 13 rows fall on both sides of a block boundary
    with mock.patch.object(metrics, "born_scores", block_scores), \
            mock.patch.object(metrics, "_BLOCK_DOUBLES", 12):
        blocks = predictions_tsv(model, ds)
        rows = predict_dataset(model, ds)
    want = [f"{i}\t{label}\t{format(value, '.17g')}\n" for i, (label, value, _) in enumerate(rows)]
    assert blocks == ["".join(want[a:a + 4]) for a in range(0, len(want), 4)]
