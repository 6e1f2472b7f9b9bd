"""Tests of the benchmark's own parts: generator, reference scorer, span accounting.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import reference  # noqa: E402
from perfbench.corpus import TOKENS_PER_DOC, CorpusSpec, generate  # noqa: E402
from perfbench.spans import Installed, Span, Tracer, self_times  # noqa: E402
from qdetect import multiclass  # noqa: E402
from qdetect.dataio import parse_sparse  # noqa: E402
from qdetect.metrics import predict_dataset  # noqa: E402
from qdetect.states import normalize_document  # noqa: E402

SMALL = CorpusSpec(dim=12, classes=3, train_docs=30, test_docs=12, noise_share=0.4)


def test_generator_is_byte_identical_for_equal_seeds():
    assert generate(SMALL, 5) == generate(SMALL, 5)


def test_generator_differs_for_different_seeds():
    train_a, test_a = generate(SMALL, 5)
    train_b, test_b = generate(SMALL, 6)
    assert train_a != train_b and test_a != test_b


def test_generator_output_parses_with_the_requested_shape():
    train, test = generate(SMALL, 1)
    ds = parse_sparse(io.StringIO(train), dim=SMALL.dim)
    assert len(ds) == SMALL.train_docs
    assert len(ds.class_index) == SMALL.classes
    assert all(sum(doc.entries.values()) == TOKENS_PER_DOC for _, doc in ds.documents)
    assert len(parse_sparse(io.StringIO(test))) == SMALL.test_docs


def _corpora(tmp_path, seed):
    train, test = generate(SMALL, seed)
    (tmp_path / "train.txt").write_text(train)
    (tmp_path / "test.txt").write_text(test)
    return (
        parse_sparse(io.StringIO(train), dim=SMALL.dim),
        parse_sparse(io.StringIO(test), dim=SMALL.dim),
        reference.read_corpus(str(tmp_path / "train.txt"), SMALL.dim),
        reference.read_corpus(str(tmp_path / "test.txt"), SMALL.dim),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "strategy, trainer",
    [("pgm", multiclass.train_pgm), ("ovr", multiclass.train_one_vs_rest)],
)
def test_reference_scores_match_qdetect(tmp_path, seed, strategy, trainer):
    train_ds, test_ds, train, test = _corpora(tmp_path, seed)
    model = trainer(train_ds.documents, SMALL.dim)
    assert list(model.labels) == train.classes
    expected = np.array([
        multiclass.class_scores(model, normalize_document(doc, SMALL.dim))
        for _, doc in test_ds.documents
    ])
    got = reference.reference_scores(train, test, strategy)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    predictions = [(label, value) for label, value, _ in predict_dataset(model, test_ds)]
    assert reference.prediction_mismatches(predictions, got, train.classes) == []


def test_prediction_mismatches_flags_wrong_labels_and_scores(tmp_path):
    train_ds, test_ds, train, test = _corpora(tmp_path, 1)
    model = multiclass.train_pgm(train_ds.documents, SMALL.dim)
    scores = reference.reference_scores(train, test, "pgm")
    predictions = [(label, value) for label, value, _ in predict_dataset(model, test_ds)]
    worst = int(np.argmax(np.ptp(scores, axis=1)))
    runner_up = train.classes[int(np.argsort(scores[worst])[-2])]
    wrong_label = list(predictions)
    wrong_label[worst] = (runner_up, scores[worst].max())
    wrong_score = list(predictions)
    wrong_score[0] = (predictions[0][0], predictions[0][1] + 1e-6)
    assert len(reference.prediction_mismatches(wrong_label, scores, train.classes)) == 1
    assert len(reference.prediction_mismatches(wrong_score, scores, train.classes)) == 1
    assert reference.prediction_mismatches(predictions[:-1], scores, train.classes)


def _span(name, start, end, parent):
    return Span(name, start, end, parent, (0, "pgm.train"))


def test_self_times_of_a_command_and_its_descendants_sum_to_its_duration():
    spans = [
        _span("cli", 0.0, 10.0, -1),
        _span("dataio.parse", 0.5, 3.0, 0),
        _span("multiclass.pgm", 3.0, 9.0, 0),
        _span("linalg.inv_sqrt_psd", 3.5, 6.0, 2),
        _span("linalg.eigh", 4.0, 5.5, 3),
        _span("multiclass.measurement_check", 6.5, 8.0, 2),
        _span("cli", 10.0, 11.0, -1),
    ]
    own = self_times(spans)
    assert own == pytest.approx([1.5, 2.5, 2.0, 1.0, 1.5, 1.5, 1.0], abs=0.0)
    assert sum(own[:6]) == pytest.approx(10.0, abs=0.0)


def test_tracer_nests_spans_and_installed_restores_hooks():
    import qdetect.linalg

    original = vars(qdetect.linalg)["eigh"]
    hooks = (
        ("qdetect.linalg", "inv_sqrt_psd", "linalg.inv_sqrt_psd", None),
        ("qdetect.linalg", "eigh", "linalg.eigh", lambda args, kwargs, result: len(args[0])),
        ("qdetect.linalg", "no_such_function", "linalg.missing", None),
    )
    tracer = Tracer()
    with Installed(tracer, hooks) as installed:
        assert qdetect.linalg.eigh is not original
        qdetect.linalg.inv_sqrt_psd(np.eye(3))
    assert qdetect.linalg.eigh is original
    assert installed.absent == ["qdetect.linalg.no_such_function"]
    assert [(s.name, s.parent, s.count) for s in tracer.spans] == [
        ("linalg.inv_sqrt_psd", -1, 0),
        ("linalg.eigh", 0, 3),
    ]
