"""The rank-1 training path against the dense reference, on random ensembles.

Trained pgm and one-vs-rest models keep dim x N vectors; the dense
``pgm()``, ``detector_from_densities`` and ``helstrom_oracle`` work on dim x dim
matrices and serve as the reference here.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qdetect.binary import binary_bayes_cost, detector_from_densities
from qdetect.cli import main
from qdetect.dataio import load_model, save_model
from qdetect.errors import DegenerateSeparationError
from qdetect.linalg import born_scores
from qdetect.multiclass import build_hypotheses, pgm, train_one_vs_rest, train_pgm
from qdetect.oracles import helstrom_oracle
from qdetect.states import (
    FeatureVector,
    density_from_vector,
    feature_statistics,
    normalize_documents,
)

SCORE_ATOL = 1e-12
# argmax agreement is required where the top two reference scores differ by more
TIE_MARGIN = 1e-10


@st.composite
def corpora(draw):
    """Labeled count documents: 2-6 classes over 1-16 features.

    Small dims give more classes than features, and ``duplicate`` repeats the
    first class's documents under the last label, so rank-deficient Gram
    matrices are drawn as well as full-rank ones.
    """
    dim = draw(st.integers(1, 16))
    n_classes = draw(st.integers(2, 6))
    doc = st.dictionaries(st.integers(0, dim - 1), st.integers(1, 5), min_size=1, max_size=dim)
    classes = [draw(st.lists(doc, min_size=1, max_size=4)) for _ in range(n_classes)]
    if draw(st.booleans()):  # duplicate
        classes[-1] = classes[0]
    corpus = [(f"c{k}", FeatureVector(dim=dim, entries=entries))
              for k, docs in enumerate(classes) for entries in docs]
    probes = draw(st.lists(doc, min_size=1, max_size=6))
    rows = normalize_documents([FeatureVector(dim=dim, entries=e) for e in probes], dim)
    return corpus, dim, rows


def dense_scores(rows, operators):
    return np.array([[x @ a @ x for a in operators] for x in rows])


def assert_same_decisions(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=SCORE_ATOL)
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > TIE_MARGIN
    assert np.array_equal(np.argmax(got, axis=1)[clear], np.argmax(want, axis=1)[clear])


def reloaded(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return load_model(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_pgm_gram_form_matches_dense_measurement(drawn):
    corpus, dim, rows = drawn
    model = train_pgm(corpus, dim)
    reference = pgm(build_hypotheses(corpus, dim))
    assert model.kind == reference.kind
    assert_same_decisions(born_scores(rows, model.vectors),
                          dense_scores(rows, reference.elements))
    view = model.measurement
    for got, want in zip(view.elements, reference.elements):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=SCORE_ATOL)
    assert (view.residual is None) == (reference.residual is None)
    again = reloaded(model)
    assert again.vectors.tobytes() == model.vectors.tobytes()
    assert (again.labels, again.priors, again.kind) == (model.labels, model.priors, model.kind)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_one_vs_rest_closed_form_matches_dense_detectors(drawn):
    corpus, dim, rows = drawn
    try:
        model = train_one_vs_rest(corpus, dim)
    except DegenerateSeparationError:
        assume(False)  # a class whose statistics are parallel to the rest's
    reference = []
    for label, det in zip(model.labels, model.detectors):
        pos = [doc for other, doc in corpus if other == label]
        rest = [doc for other, doc in corpus if other != label]
        rho_pos = density_from_vector(feature_statistics(pos, dim))
        rho_neg = density_from_vector(feature_statistics(rest, dim))
        xi = 1.0 - len(pos) / len(corpus)
        dense = detector_from_densities(rho_pos, rho_neg, xi)
        assert abs(det.eta - dense.eta) <= SCORE_ATOL
        assert abs(det.beta - dense.beta) <= SCORE_ATOL
        cost = binary_bayes_cost(det, rho_pos, rho_neg, xi)
        assert abs(cost - helstrom_oracle(rho_pos, rho_neg, 1.0 - xi, xi)) <= 1e-9
        reference.append(dense.projector)
    assert_same_decisions(born_scores(rows, model.vectors), dense_scores(rows, reference))
    again = reloaded(model)
    assert again.vectors.tobytes() == model.vectors.tobytes()
    assert again.detector_scalars == model.detector_scalars


def write_wide_corpus(path, dim, n_classes, docs_per_class, seed):
    """Documents drawing 20 features from their class's quarter of a wide vocabulary."""
    rng = np.random.default_rng(seed)
    block = dim // n_classes
    lines = []
    for k in range(n_classes):
        for _ in range(docs_per_class):
            own = rng.choice(np.arange(k * block, (k + 1) * block), size=16, replace=False)
            idx = sorted(set(own) | set(rng.choice(dim, size=4, replace=False)) | {dim - 1})
            lines.append(f"class{k} " + " ".join(f"{i}:{int(rng.integers(1, 4))}" for i in idx))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("strategy", ["binary", "pgm", "ovr"])
def test_commands_build_no_dim_by_dim_array(tmp_path, strategy):
    # one dense 3000 x 3000 matrix of doubles would take 72 MB
    dim, limit = 3000, 10 * 2**20
    n_classes = 2 if strategy == "binary" else 4
    data = tmp_path / "data.txt"
    write_wide_corpus(data, dim, n_classes=n_classes, docs_per_class=9, seed=11)
    model, out = str(tmp_path / "model.json"), str(tmp_path / "out")
    tracemalloc.start()
    try:
        assert main(["train", "--data", str(data), "--strategy", strategy, "--out", model]) == 0
        assert main(["predict", "--model", model, "--data", str(data), "--out", out]) == 0
        assert main(["evaluate", "--model", model, "--data", str(data), "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_model(model).vectors.shape == (dim, 1 if strategy == "binary" else n_classes)
    assert peak < limit, f"peak {peak / 2**20:.1f} MB"
    # a dense dim x dim model file would hold 9 million numbers
    assert Path(model).stat().st_size < 100_000
