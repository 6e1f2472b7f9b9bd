"""Symmetric matrix toolkit tests.

The 2x2 reference values are frozen from the characteristic polynomial:
for trace t and determinant d the eigenvalues are t/2 +- sqrt(t^2/4 - d),
and the eigenvector solves (M - w I) x = 0.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qdetect import linalg
from qdetect.binary import BinaryModel
from qdetect.errors import NotPsdError
from qdetect.multiclass import HypothesisSet, Measurement

# [[-0.5, 0.5], [0.5, 0.5]]: trace 0, det -0.5 -> eigenvalues +-sqrt(0.5)
TILTED = np.array([[-0.5, 0.5], [0.5, 0.5]])
TILTED_EIG = math.sqrt(0.5)  # 0.7071067811865476


def char_poly_roots_2x2(m):
    t = m[0, 0] + m[1, 1]
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = math.sqrt(t * t / 4.0 - d)
    return t / 2.0 + disc, t / 2.0 - disc


class TestEigh:
    def test_already_diagonal(self):
        w, v = linalg.eigh(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-14)

    def test_tilted_matches_characteristic_polynomial(self):
        w, _ = linalg.eigh(TILTED)
        expected = char_poly_roots_2x2(TILTED)
        np.testing.assert_allclose(w, expected, atol=1e-12)
        np.testing.assert_allclose(w, [TILTED_EIG, -TILTED_EIG], atol=1e-12)

    def test_identity_dim3(self):
        w, v = linalg.eigh(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_sign_convention(self):
        _, v = linalg.eigh(TILTED)
        for j in range(2):
            col = v[:, j]
            first = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
            assert first > 0

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(100):
            m = linalg.symmetrize(rng.normal(size=(dim, dim)))
            w, v = linalg.eigh(m)
            rebuilt = (v * w) @ v.T
            assert np.linalg.norm(rebuilt - m) <= 1e-9 * np.linalg.norm(m)
            np.testing.assert_allclose(v.T @ v, np.eye(dim), atol=1e-10)
            assert np.all(np.diff(w) <= 0)

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(7)
        m = linalg.symmetrize(rng.normal(size=(9, 9)))
        first = linalg.eigh(m)
        second = linalg.eigh(m)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.zeros((2, 3)))

    def test_empty_matrix(self):
        w, v = linalg.eigh(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)
        assert linalg.inv_sqrt_psd(np.zeros((0, 0))).shape == (0, 0)


class TestInvSqrtPsd:
    @pytest.mark.parametrize(
        "diag_in,diag_out",
        [
            ([4.0, 1.0], [0.5, 1.0]),
            ([4.0, 0.0], [0.5, 0.0]),
            ([9.0, 4.0, 0.0], [1.0 / 3.0, 0.5, 0.0]),
        ],
    )
    def test_diagonal_cases(self, diag_in, diag_out):
        np.testing.assert_allclose(
            linalg.inv_sqrt_psd(np.diag(diag_in)), np.diag(diag_out), atol=1e-12
        )

    def test_support_projection(self):
        rng = np.random.default_rng(21)
        for rank in (2, 4):
            a = rng.normal(size=(5, rank))
            m = a @ a.T
            r = linalg.inv_sqrt_psd(m)
            w, v = linalg.eigh(m)
            positive = v[:, w > 1e-12 * w.max()]
            support = positive @ positive.T
            assert np.linalg.norm(r @ m @ r - support) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            linalg.inv_sqrt_psd(np.diag([1.0, -1.0]))

    def test_zero_matrix(self):
        np.testing.assert_allclose(linalg.inv_sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)))


class TestTraceNorm:
    def test_diagonal(self):
        assert linalg.trace_norm(np.diag([0.3, -0.7])) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert linalg.trace_norm(np.zeros((4, 4))) == 0.0

    def test_tilted(self):
        assert linalg.trace_norm(TILTED) == pytest.approx(2.0 * TILTED_EIG, abs=1e-12)

    def test_dominates_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = linalg.symmetrize(rng.normal(size=(5, 5)))
            assert linalg.trace_norm(m) >= abs(np.trace(m)) - 1e-12

    def test_equals_trace_for_psd(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            m = a @ a.T
            assert linalg.trace_norm(m) == pytest.approx(np.trace(m), rel=1e-12)


# the entry bound 1 + 1e-10, one ulp either side of it, and the values at
# which a range check most easily goes wrong
EDGE = 1.0 + 1e-10
SPECIAL = [math.nan, math.inf, 0.0, 1.0, EDGE, math.nextafter(EDGE, 2.0),
           math.nextafter(EDGE, 0.0), 5e-324, 2.2250738585072014e-308, 1e308]
ENTRIES = st.sampled_from(SPECIAL + [-v for v in SPECIAL]) | st.floats(-2.0, 2.0) | st.floats()


@settings(max_examples=500, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
              elements=ENTRIES))
def test_bounded_is_the_abs_check(a):
    assert linalg.bounded(a) is bool(np.all(np.abs(a) <= 1.0 + 1e-10))


def fix_signs_by_column(vectors):
    """The column loop that ``linalg.fix_signs`` replaced, as its reference."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        cutoff = 1e-12 * np.max(np.abs(col))
        for value in col:
            if abs(value) > cutoff:
                if value < 0:
                    vectors[:, j] = -col
                break
    return vectors


@settings(max_examples=500, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
              elements=ENTRIES | st.sampled_from([1e-13, -1e-13, -0.0])))
def test_fix_signs_flips_the_columns_the_loop_flips(v):
    # only signs change, so every bit must match; eigh passes a reversed view, and
    # the C layout of the copy keeps the bits of the products taken from it
    assert linalg.fix_signs(v).tobytes() == fix_signs_by_column(v).tobytes()
    flipped = linalg.fix_signs(v[:, ::-1])
    assert flipped.tobytes() == fix_signs_by_column(v[:, ::-1]).tobytes()
    assert flipped.flags.c_contiguous


@pytest.mark.parametrize("value, ok", [(-0.0, True), (-EDGE, True), (math.nan, False),
                                       (-math.inf, False), (math.nextafter(-EDGE, -2.0), False)])
def test_bounded_single_entries(value, ok):
    assert linalg.bounded(np.array([0.5, value])) is ok
    assert linalg.bounded(np.array([[value], [0.5]])) is ok


def _unit(shape, k: int) -> np.ndarray:
    """The k-th basis vector, of the given shape, read-only and owning its memory."""
    e = np.zeros(shape)
    e.flat[k] = 1.0
    e.flags.writeable = False
    return e


CHECKS = {
    "unit_row": lambda dim: (linalg.unit_row, _unit(dim, 0)),
    "BinaryModel": lambda dim: (
        lambda v: BinaryModel(eta=0.5, beta=-0.5, threshold=0.5, prior_negative=0.5,
                              dim=dim, vectors=v),
        _unit((dim, 1), 0)),
    "HypothesisSet": lambda dim: (
        lambda factors: HypothesisSet([0.5, 0.5], factors, ("a", "b")),
        (_unit((dim, 1), 0), _unit((dim, 1), 1))),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_entry_checks_build_no_array_sized_temporary(name):
    # one D = 10**6 array of doubles takes 7.6 MiB; its bool mask 0.95 MiB
    check, argument = CHECKS[name](10**6)
    tracemalloc.start()
    try:
        check(argument)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_measurement_check_copies_no_factor():
    # the two D = 10**6 factors take 15.3 MiB; one D x 2 copy of them as much again
    factors = (_unit((10**6, 1), 0), _unit((10**6, 1), 1))
    tracemalloc.start()
    try:
        Measurement(factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # a unit column spread over every chunk of rows, twice: M^T M has eigenvalue 2
    spread = np.full((10**6, 1), 1e-3)
    with pytest.raises(ValueError, match="beyond the identity"):
        Measurement((spread, spread))
