"""The rank-1 training path against the dense reference, on random ensembles.

Trained pgm and one-vs-rest models keep dim x N vectors; the dense
``S^(-1/2) (xi_k rho_k) S^(-1/2)`` from ``inv_sqrt_psd``,
``detector_from_densities`` and ``helstrom_oracle`` work on dim x dim matrices
and serve as the reference here.
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
from qdetect.dataio import load_model, parse_sparse, save_model
from qdetect.errors import DegenerateSeparationError
from qdetect.linalg import SUPPORT_RTOL, born_scores, inv_sqrt_psd
from qdetect.metrics import evaluate
from qdetect.multiclass import (
    MulticlassModel,
    average_cost,
    build_hypotheses,
    measurement_vectors,
    train_one_vs_rest,
    train_pgm,
    zero_one_cost,
)
from qdetect.oracles import helstrom_oracle
from qdetect.states import (
    FeatureVector,
    LabeledDataset,
    density_from_vector,
    feature_statistics,
    normalize_documents,
)

SCORE_ATOL = 1e-12
# argmax agreement is required where the top two reference scores differ by more
TIE_MARGIN = 1e-10
# The reference forms S = sum_k xi_k rho_k and its eigensolve with a backward
# error E of at most GAMMA eps ||S||_2.  To first order that moves each element
# (R psi_k)(R psi_k)^T, R = S^(-1/2), by at most 2 ||E||_F / lambda_min(S), so
# by 2 GAMMA eps kappa(S) with kappa(S) taken on the support of S.  GAMMA is a
# budget: over 60000 drawn corpora with kappa(S) above 1100 the element error
# stayed below 1.5 eps kappa(S).
GAMMA = 8


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


def assert_same_decisions(got, want, atol=SCORE_ATOL):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > max(TIE_MARGIN, 2 * atol)
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
    gram = model.vectors.T @ model.vectors
    assert np.linalg.norm(gram @ gram - gram) <= 1e-13
    hypotheses = build_hypotheses(corpus, dim)
    s = sum(xi * rho for xi, rho in zip(hypotheses.priors, hypotheses.states))
    root = inv_sqrt_psd(s)
    reference = [xi * (root @ f) @ (root @ f).T
                 for xi, f in zip(hypotheses.priors, hypotheses.factors)]
    w = np.linalg.eigvalsh(s)
    support = w[w > SUPPORT_RTOL * w[-1]]
    assert model.rank == support.size
    atol = max(SCORE_ATOL, 2 * GAMMA * np.finfo(float).eps * support[-1] / support[0])
    assert_same_decisions(born_scores(rows, model.vectors), dense_scores(rows, reference), atol)
    view = model.measurement
    for got, want in zip(view.elements, reference):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
    assert (view.residual is None) == (support.size == dim)
    assert view.kind == model.kind
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


def test_measurement_view_builds_no_dim_by_dim_array(tmp_path):
    # the factor form checks, classifies and costs through D x N and N x N arrays
    dim, limit = 3000, 10 * 2**20
    data = tmp_path / "data.txt"
    write_wide_corpus(data, dim, n_classes=4, docs_per_class=9, seed=11)
    ds = parse_sparse(data.read_text(encoding="utf-8").splitlines(), dim=dim)
    model = train_pgm(ds, dim)
    tracemalloc.start()
    try:
        view = model.measurement
        kind = view.kind
        vectors = measurement_vectors(view)
        cost = average_cost(model.measurement, build_hypotheses(ds, dim), zero_one_cost(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kind == model.kind
    assert len(vectors) == 4 and 0.0 <= cost <= 1.0
    assert peak < limit, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("strategy", ["pgm", "ovr"])
def test_scoring_memory_does_not_grow_with_the_vocabulary(tmp_path, strategy):
    # dense rows of the 200 documents would take 160 MB at this dim
    dim, limit = 100_000, 32 * 2**20
    data = tmp_path / "data.txt"
    write_wide_corpus(data, dim, n_classes=8, docs_per_class=25, seed=5)
    model, out = str(tmp_path / "model.json"), str(tmp_path / "out")
    assert main(["train", "--data", str(data), "--strategy", strategy, "--out", model]) == 0
    tracemalloc.start()
    try:
        assert main(["predict", "--model", model, "--data", str(data), "--out", out]) == 0
        assert main(["evaluate", "--model", model, "--data", str(data), "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak / 2**20:.1f} MB"


def test_scoring_memory_does_not_grow_with_documents_times_classes():
    # the 20_000 x 256 scores would take 39 MiB, the 400_000 normalized entries 3.1 MiB
    dim, n_classes, n, length, limit = 1024, 256, 20_000, 20, 8 * 2**20
    rng = np.random.default_rng(3)
    vectors = np.linalg.qr(rng.standard_normal((dim, n_classes)))[0]
    labels = tuple(f"c{k}" for k in range(n_classes))
    model = MulticlassModel("pgm", dim, labels, (1.0 / n_classes,) * n_classes, vectors)
    # distinct features per row: 51 is odd, so k * 51 differ mod 1024 for k < 20
    cols = np.sort((rng.integers(0, dim, (n, 1)) + 51 * np.arange(length)) % dim, axis=1)
    ds = LabeledDataset.from_arrays(dim, labels, rng.integers(0, n_classes, n),
                                    np.arange(n + 1) * length, cols.ravel(),
                                    rng.random(n * length) + 0.5)
    tracemalloc.start()
    try:
        report = evaluate(model, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.evaluated_count == n
    assert peak < limit, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("strategy", ["pgm", "ovr"])
def test_loaded_model_holds_one_array_of_its_vectors(tmp_path, strategy):
    # the 100_000 x 8 vectors take 6.1 MB: a second copy, or a temporary as large, exceeds 9 MB
    dim, limit = 100_000, 9 * 2**20
    data = tmp_path / "data.txt"
    write_wide_corpus(data, dim, n_classes=8, docs_per_class=25, seed=5)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", str(data), "--strategy", strategy, "--out", model]) == 0
    tracemalloc.start()
    try:
        loaded = load_model(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.vectors.shape == (dim, 8)
    assert peak < limit, f"peak {peak / 2**20:.1f} MB"
    ds = parse_sparse(data.read_text(encoding="utf-8").splitlines(), dim=dim)
    trained = (train_pgm if strategy == "pgm" else train_one_vs_rest)(ds, dim)
    assert loaded.vectors.tobytes() == trained.vectors.tobytes()
