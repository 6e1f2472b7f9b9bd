"""Batch scoring and one-pass one-vs-rest training against the plain per-item paths."""

import numpy as np
import pytest

from qdetect.binary import BinaryModel, train_binary
from qdetect.dataio import LabeledDataset
from qdetect.metrics import predict_dataset
from qdetect.multiclass import train_one_vs_rest, train_pgm
from qdetect.states import FeatureVector


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
