"""Batch scoring and one-pass one-vs-rest training against the plain per-item paths."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qdetect import binary, metrics
from qdetect.binary import BinaryModel, train_binary
from qdetect.dataio import LabeledDataset
from qdetect.errors import DegenerateSeparationError
from qdetect.metrics import evaluate, predict_dataset
from qdetect.multiclass import class_scores, train_one_vs_rest, train_pgm
from qdetect.states import FeatureVector, normalize_document


def random_corpus(rng, n_classes, dim, docs_per_class):
    """Count documents whose features lean towards a class-specific subset."""
    corpus = []
    for k in range(n_classes):
        weights = np.ones(dim)
        weights[k::n_classes] += 3.0
        for _ in range(docs_per_class + k):
            idx = rng.choice(dim, size=int(rng.integers(1, dim)), replace=False,
                             p=weights / weights.sum())
            entries = {int(i): float(rng.integers(1, 5)) for i in idx}
            corpus.append((f"c{k}", FeatureVector(dim=dim, entries=entries)))
    return corpus


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ovr_detectors_match_train_binary_against_the_rest(seed):
    corpus = random_corpus(np.random.default_rng(seed), n_classes=4, dim=9, docs_per_class=5)
    model = train_one_vs_rest(corpus, 9)
    for label, detector in zip(model.labels, model.detectors):
        pos = [doc for other, doc in corpus if other == label]
        rest = [doc for other, doc in corpus if other != label]
        reference = train_binary(pos, rest, 9, prior_negative=1.0 - len(pos) / len(corpus),
                                 labels=(label, f"not-{label}"))
        assert detector.projector.tobytes() == reference.projector.tobytes()
        assert (detector.eta, detector.beta, detector.lam) == (
            reference.eta, reference.beta, reference.lam)


def per_document(model, ds):
    """Predictions the plain way: ``x @ A @ x`` for each document and operator."""
    binary = isinstance(model, BinaryModel)
    if binary:
        operators = [model.projector]
        priors = [1.0 - model.prior_negative, model.prior_negative]
    elif model.strategy == "pgm":
        operators, priors = model.measurement.elements, model.priors
    else:
        operators, priors = [det.projector for det in model.detectors], model.priors
    rows = []
    for _, doc in ds.documents:
        if doc.is_empty():
            rows.append((model.labels[int(np.argmax(priors))], 0.0, True))
            continue
        x = np.zeros(model.dim)
        for idx, value in doc.entries.items():
            x[idx] = value
        x /= np.linalg.norm(x)
        scores = [float(x @ a @ x) for a in operators]
        if binary:
            k = 0 if scores[0] >= model.threshold else 1
            rows.append((model.labels[k], scores[0], False))
        else:
            k = int(np.argmax(scores))
            rows.append((model.labels[k], scores[k], False))
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["binary", "pgm", "ovr"])
def test_predict_dataset_matches_per_document_scoring(seed, strategy):
    rng = np.random.default_rng(seed)
    dim, narrow = 8, 6
    corpus = random_corpus(rng, 2 if strategy == "binary" else 4, dim, 6)
    if strategy == "binary":
        pos = [doc for label, doc in corpus if label == "c0"]
        neg = [doc for label, doc in corpus if label == "c1"]
        model = train_binary(pos, neg, dim, threshold=0.4, labels=("c0", "c1"))
    else:
        model = (train_pgm if strategy == "pgm" else train_one_vs_rest)(corpus, dim)
    # a dataset narrower than the model, ending with an empty document
    narrow_docs = [
        (label, FeatureVector(dim=narrow, entries={i: v for i, v in doc.entries.items()
                                                    if i < narrow}))
        for label, doc in random_corpus(rng, len(model.labels), dim, 5)
    ] + [("c1", FeatureVector(dim=narrow))]
    for ds in (LabeledDataset(dim=dim, documents=tuple(corpus)),
               LabeledDataset(dim=narrow, documents=tuple(narrow_docs))):
        got = predict_dataset(model, ds)
        want = per_document(model, ds)
        assert [(label, flagged) for label, _, flagged in got] == [
            (label, flagged) for label, _, flagged in want]
        np.testing.assert_allclose([row[1] for row in got], [row[1] for row in want],
                                   rtol=0.0, atol=1e-12)
    assert got[-1][2]


@st.composite
def scored_datasets(draw):
    """A trained model and a test dataset no wider than it, with its block budget.

    Test values span the positive doubles from the smallest subnormal to 1e308;
    empty documents fall anywhere, and every document may be empty.
    """
    strategy = draw(st.sampled_from(["binary", "pgm", "ovr"]))
    n = 2 if strategy == "binary" else draw(st.integers(2, 32))
    dim = draw(st.integers(1, 40))
    counts = st.dictionaries(st.integers(0, dim - 1), st.integers(1, 5), max_size=6)
    corpus = [(f"c{k}", FeatureVector(dim=dim, entries={k % dim: 1, **draw(counts)}))
              for k in range(n) for _ in range(draw(st.integers(1, 3)))]
    try:
        if strategy == "binary":
            pos = [doc for label, doc in corpus if label == "c0"]
            neg = [doc for label, doc in corpus if label == "c1"]
            model = train_binary(pos, neg, dim, threshold=draw(st.floats(0.0, 1.0)),
                                 labels=("c0", "c1"))
        else:
            model = (train_pgm if strategy == "pgm" else train_one_vs_rest)(corpus, dim)
    except DegenerateSeparationError:
        assume(False)  # a class whose statistics are parallel to the rest's
    width = draw(st.integers(1, dim))
    values = st.floats(5e-324, 1e308, allow_subnormal=True)
    entries = st.dictionaries(st.integers(0, width - 1), values, max_size=width)
    if draw(st.booleans()):
        entries = st.just({})
    docs = draw(st.lists(st.tuples(st.sampled_from(model.labels), entries), min_size=1,
                         max_size=30))
    test = LabeledDataset(dim=width, documents=tuple(
        (label, FeatureVector(dim=width, entries=e)) for label, e in docs))
    budget = draw(st.sampled_from([1, 2, 5, 16, metrics._BLOCK_DOUBLES]))
    return model, test, budget


def one_at_a_time(model, ds):
    """Labels, scores, flags and tie marks from the one-row reference API."""
    fallback = model.labels[int(np.argmax(model.priors))]
    rows = []
    for _, doc in ds.documents:
        if doc.is_empty():
            rows.append((fallback, 0.0, True, False))
            continue
        x = normalize_document(doc, model.dim)
        if isinstance(model, BinaryModel):
            s = binary.score(model, x)
            label = model.labels[0 if s >= model.threshold else 1]
            rows.append((label, s, False, abs(s - model.threshold) <= 1e-12))
        else:
            scores = class_scores(model, x)
            top2 = np.sort(scores)[-2:]
            rows.append((model.labels[int(np.argmax(scores))], float(scores.max()), False,
                         top2[1] - top2[0] <= 1e-12))
    return rows


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scored_datasets())
def test_dataset_scorer_matches_the_one_row_reference(drawn):
    model, ds, budget = drawn
    with mock.patch.object(metrics, "_BLOCK_DOUBLES", budget):
        got = predict_dataset(model, ds)
        report = evaluate(model, ds)
    want = one_at_a_time(model, ds)
    assert [row[2] for row in got] == [row[2] for row in want]
    np.testing.assert_allclose([row[1] for row in got], [row[1] for row in want],
                               rtol=0.0, atol=1e-12)
    for (label, _, _), (expected, _, _, tied) in zip(got, want):
        assert label == expected or tied
    index = {label: k for k, label in enumerate(model.labels)}
    n = len(model.labels)
    confusion = np.zeros((n, n), dtype=int)
    for (true, _), (label, _, _) in zip(ds.documents, got):
        confusion[index[true], index[label]] += 1
    assert np.array_equal(report.confusion, confusion)
    assert report.degenerate_count == sum(row[2] for row in want)
