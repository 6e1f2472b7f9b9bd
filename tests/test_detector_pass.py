"""The one-vs-rest detector pass against a per-class copy of the closed form it replaced.

``detectors_from_statistics`` forms every detector of a block of count rows in
one array pass, and ``train_one_vs_rest`` runs it over blocks of classes.  The
reference below forms one detector at a time with the same float operations,
so vectors must match bit for bit and scalars exactly, and the same class must
fail first with the same error.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import multiclass
from qdetect.binary import (
    DetectorScalars,
    binary_from_statistics,
    detectors_from_statistics,
)
from qdetect.errors import DegenerateSeparationError, InvalidPriorError
from qdetect.linalg import ZERO_EIGENVALUE_RTOL
from qdetect.states import fit_counts


def reference_detector(v_pos, v_neg, prior_negative):
    """Unit acceptance vector and eigenvalues of one detector, one class at a time."""
    u_pos = v_pos / np.linalg.norm(v_pos)
    u_neg = v_neg / np.linalg.norm(v_neg)
    c = float(u_pos @ u_neg)
    if abs(c) > 1.0 - 1e-12:
        raise DegenerateSeparationError(
            f"class statistics vectors are numerically parallel (cosine {abs(c)!r})"
        )
    if not 0.0 < prior_negative < 1.0:
        raise InvalidPriorError(f"negative-class prior must lie in (0, 1), got {prior_negative}")
    lam = prior_negative / (1.0 - prior_negative)
    r = u_neg - c * u_pos
    s = float(np.linalg.norm(r))
    a, b, d = 1.0 - lam * c * c, -lam * c * s, -lam * s * s
    mean, spread = (a + d) / 2.0, math.hypot((a - d) / 2.0, b)
    if mean >= 0.0:
        eta = mean + spread
        beta = -lam * s * s / eta
    else:
        beta = mean - spread
        eta = -lam * s * s / beta
    cutoff = ZERO_EIGENVALUE_RTOL * max(eta, -beta)
    if eta <= cutoff or beta >= -cutoff:
        raise DegenerateSeparationError(
            "difference operator lacks a strictly positive or strictly negative "
            "eigenvalue; the classes cannot be separated at this prior"
        )
    e = (eta - d) * u_pos + b * (r / s)
    e /= np.linalg.norm(e)
    return e, DetectorScalars(eta=eta, beta=beta)


def outcome(build):
    """What ``build()`` returns, or the type and message of the error it raises."""
    try:
        return build()
    except (DegenerateSeparationError, InvalidPriorError) as exc:
        return type(exc), str(exc)


def reference_pass(pos, neg, priors_negative):
    """Rows ``e`` and scalars, one reference detector at a time."""
    detectors = [reference_detector(p, q, xi) for p, q, xi in zip(pos, neg, priors_negative)]
    return np.array([e for e, _ in detectors]), tuple(s for _, s in detectors)


def assert_same(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


@st.composite
def count_rows(draw):
    """N x D nonzero count rows up to 1e6; some rows repeat a multiple of another."""
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 3, 1000, 10**6]))
    counts = rng.integers(0, top + 1, size=(n, dim)).astype(float)
    counts[np.arange(n), rng.integers(0, dim, size=n)] += 1.0  # no row is all-zero
    for k in draw(st.lists(st.integers(1, n), max_size=2)):
        counts[k % n] = counts[(k * 7) % n] * draw(st.integers(1, 3))
    return counts, rng


@settings(max_examples=300, deadline=None)
@given(count_rows())
def test_detector_pass_matches_the_per_class_reference(drawn):
    counts, rng = drawn
    n = len(counts)
    neg = counts[rng.permutation(n)] + (rng.random(counts.shape) < 0.5)
    parallel = rng.random(n) < 0.02
    neg[parallel] = 2.0 * counts[parallel]
    # a few priors out of range, or so extreme that the detector degenerates
    extreme = rng.choice([0.0, 1.5, 5e-324, 1e-20, 1.0 - 2**-53], size=n)
    priors_negative = np.where(rng.random(n) < 0.02, extreme,
                               rng.uniform(0.01, 0.99, size=n)).tolist()
    assert_same(outcome(lambda: detectors_from_statistics(counts, neg, priors_negative)),
                outcome(lambda: reference_pass(counts, neg, priors_negative)))


@settings(max_examples=300, deadline=None)
@given(count_rows(), st.sampled_from([1, 2, 5, 24, 96, 480, multiclass._BLOCK_DOUBLES]))
def test_blocks_of_classes_match_the_per_class_reference(drawn, budget):
    counts, rng = drawn
    if len(counts) < 2:
        counts = np.vstack([counts, counts[::-1] + 1.0])
    n, dim = counts.shape
    # class sizes that hold every count, and the priors the trainer takes from them
    sizes = (rng.integers(1, 10, size=n) * int(counts.max())).tolist()
    priors = [size / sum(sizes) for size in sizes]
    # the trainer fits the columns that fit_counts keeps; the rest get zero rows
    _, used, kept = fit_counts(sizes, counts)
    total = kept.sum(axis=0)
    stats = ([f"c{k}" for k in range(n)], sizes, counts)
    with mock.patch.object(multiclass, "_class_statistics", return_value=stats), \
            mock.patch.object(multiclass, "_BLOCK_DOUBLES", budget):
        got = outcome(lambda: multiclass.train_one_vs_rest(None, dim))
    want = outcome(lambda: reference_pass(kept, total - kept, [1.0 - p for p in priors]))
    if not isinstance(want[0], type):
        assert not got.vectors[~used].any()
        got = (got.vectors[used].T.copy(), got.detector_scalars)
    assert_same(got, want)


def test_first_failing_class_raises_its_own_error():
    pos = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    neg = np.array([[0.0, 1.0, 0.0], [2.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
    kind, message = outcome(lambda: reference_detector(pos[1], neg[1], 0.5))
    assert kind is DegenerateSeparationError and "numerically parallel" in message
    with pytest.raises(DegenerateSeparationError) as caught:
        detectors_from_statistics(pos, neg, [0.5, 0.5, 0.5])
    assert str(caught.value) == message
    # a bad prior on an earlier class raises before the later parallel class
    with pytest.raises(InvalidPriorError):
        detectors_from_statistics(pos, neg, [1.5, 0.5, 0.5])
    with pytest.raises(DegenerateSeparationError):
        detectors_from_statistics(pos, neg, [0.5, 0.5, 1.5])


@pytest.mark.parametrize("prior_negative", [0.0, 1.0, -0.2, float("nan")])
def test_binary_path_rejects_a_bad_prior(prior_negative):
    with pytest.raises(InvalidPriorError):
        binary_from_statistics(("a", "b"), [1, 1], np.array([[1.0, 0.0], [1.0, 1.0]]),
                               prior_negative)


def test_detector_pass_peak_memory():
    # 256 detectors at D=1024: the vectors take 2 MiB, and the per-class loop
    # with its column_stack and model copy peaked at 6.1 MiB; a block's
    # temporaries take at most 1 MiB
    n, dim = 256, 1024
    counts = np.random.default_rng(3).integers(0, 50, size=(n, dim)).astype(float)
    stats = ([f"c{k}" for k in range(n)], [50] * n, counts)
    with mock.patch.object(multiclass, "_class_statistics", return_value=stats):
        tracemalloc.start()
        try:
            model = multiclass.train_one_vs_rest(None, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert model.vectors.shape == (dim, n)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
