"""Two-hypothesis detector tests.

The independent optimality reference is the trace-norm closed form
``(1 - ||xi1 rho1 - xi0 rho0||_1) / 2``, which never touches the projector
construction it checks.
"""

import dataclasses
import math

import numpy as np
import pytest

from qdetect.binary import (
    BinaryModel,
    DetectorScalars,
    binary_bayes_cost,
    decide,
    detector_from_densities,
    score,
    train_binary,
)
from qdetect.errors import (
    DegenerateSeparationError,
    DimensionMismatchError,
    InvalidPriorError,
)
from qdetect.linalg import trace_norm
from qdetect.states import FeatureVector


def fv(dim, entries):
    return FeatureVector(dim=dim, entries=entries)


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


# eigenvector of [[-0.5, 0.5], [0.5, 0.5]] for eigenvalue sqrt(0.5), from the
# null-space direction (0.5, 0.5 + sqrt(0.5))
ACCEPT_VEC = np.array([0.5, 0.5 + math.sqrt(0.5)])
ACCEPT_VEC = ACCEPT_VEC / np.linalg.norm(ACCEPT_VEC)
HALF_ERR_45 = 0.5 * (1.0 - math.sqrt(0.5))


def closed_form_cost(rho1, rho0, xi):
    return 0.5 * (1.0 - trace_norm((1.0 - xi) * rho1 - xi * rho0))


class TestTrainBinary:
    def test_orthogonal_classes(self):
        model = train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2, prior_negative=0.5)
        assert model.lam == pytest.approx(1.0)
        assert model.eta == pytest.approx(1.0, abs=1e-12)
        assert model.beta == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(model.projector, np.diag([1.0, 0.0]), atol=1e-12)

    def test_tilted_classes(self):
        model = train_binary([fv(2, {0: 1, 1: 1})], [fv(2, {0: 1})], 2, prior_negative=0.5)
        assert model.eta == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert model.beta == pytest.approx(-math.sqrt(0.5), abs=1e-12)
        np.testing.assert_allclose(model.projector, np.outer(ACCEPT_VEC, ACCEPT_VEC), atol=1e-12)

    def test_lambda_from_prior(self):
        model = train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2, prior_negative=0.25)
        assert model.lam == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_default_prior_is_negative_proportion(self):
        model = train_binary(
            [fv(2, {0: 1})], [fv(2, {1: 1}), fv(2, {1: 2}), fv(2, {1: 3})], 2
        )
        assert model.prior_negative == pytest.approx(0.75)

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_prior(self, xi):
        with pytest.raises(InvalidPriorError):
            train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2, prior_negative=xi)

    def test_parallel_classes_rejected(self):
        with pytest.raises(DegenerateSeparationError):
            train_binary([fv(2, {0: 1})], [fv(2, {0: 2})], 2, prior_negative=0.5)

    def test_model_is_frozen(self):
        model = train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.threshold = 0.9


class TestScoreAndDecide:
    def setup_method(self):
        self.model = train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2, prior_negative=0.5)

    def test_quadratic_form(self):
        assert score(self.model, np.array([0.6, 0.8])) == pytest.approx(0.36)

    def test_full_projector_scores_one(self):
        full = dataclasses.replace(self.model, vectors=np.eye(2))
        assert score(full, np.array([0.6, 0.8])) == pytest.approx(1.0)

    def test_tilted_score(self):
        model = train_binary([fv(2, {0: 1, 1: 1})], [fv(2, {0: 1})], 2, prior_negative=0.5)
        assert score(model, np.array([1.0, 0.0])) == pytest.approx(ACCEPT_VEC[0] ** 2, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            score(self.model, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("x", [[math.nan, math.nan], [3.0, 0.0], [1e300, 0.0]],
                             ids=["nan", "norm-3", "1e300"])
    def test_vector_that_is_not_unit_raises(self, x):
        # these gave nan and False, a score of 9.0, and an overflow
        model = detector_from_densities(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        for call in (score, decide):
            with pytest.raises(ValueError, match="unit vector"):
                call(model, np.array(x))

    def test_decide_threshold(self):
        assert not decide(self.model, np.array([0.6, 0.8]))
        assert decide(self.model, np.array([1.0, 0.0]))

    def test_boundary_is_inclusive(self):
        at_boundary = dataclasses.replace(self.model, threshold=0.36)
        assert decide(at_boundary, np.array([0.6, 0.8]))

    def test_complement_scores_sum_to_one(self):
        model = train_binary([fv(2, {0: 1, 1: 1})], [fv(2, {0: 1})], 2, prior_negative=0.5)
        (e0, e1), = model.vectors.T
        complement = dataclasses.replace(model, vectors=np.array([[-e1], [e0]]))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=2)
            x /= np.linalg.norm(x)
            assert score(model, x) + score(complement, x) == pytest.approx(1.0, abs=1e-10)

    def test_raising_threshold_never_accepts_more(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=2)
            x /= np.linalg.norm(x)
            low = decide(dataclasses.replace(self.model, threshold=0.2), x)
            high = decide(dataclasses.replace(self.model, threshold=0.8), x)
            assert low or not high


class TestBayesCost:
    def test_orthogonal_is_free(self):
        rho1, rho0 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        model = detector_from_densities(rho1, rho0, 0.5)
        assert binary_bayes_cost(model, rho1, rho0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_identical_states_cost_half(self):
        rho1, rho0 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        model = detector_from_densities(rho1, rho0, 0.5)
        rho = np.full((2, 2), 0.5)
        assert binary_bayes_cost(model, rho, rho, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_45_degree_spot_value(self):
        rho1 = np.outer(pure(math.pi / 4), pure(math.pi / 4))
        rho0 = np.diag([1.0, 0.0])
        model = detector_from_densities(rho1, rho0, 0.5)
        assert binary_bayes_cost(model, rho1, rho0, 0.5) == pytest.approx(HALF_ERR_45, abs=1e-12)

    def test_matches_trace_norm_closed_form(self):
        rng = np.random.default_rng(20)
        for dim in (2, 3, 5, 9, 16):
            for _ in range(40):
                a = rng.normal(size=dim)
                b = rng.normal(size=dim)
                rho1 = np.outer(a, a) / (a @ a)
                rho0 = np.outer(b, b) / (b @ b)
                xi = float(rng.uniform(0.05, 0.95))
                model = detector_from_densities(rho1, rho0, xi)
                cost = binary_bayes_cost(model, rho1, rho0, xi)
                assert abs(cost - closed_form_cost(rho1, rho0, xi)) <= 1e-9

    def test_rank_one_pair_has_one_positive_one_negative(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            rho1 = np.outer(a, a) / (a @ a)
            rho0 = np.outer(b, b) / (b @ b)
            lam = float(rng.uniform(0.1, 4.0))
            w = np.linalg.eigvalsh(rho1 - lam * rho0)
            cutoff = 1e-12 * np.max(np.abs(w))
            assert np.sum(w > cutoff) == 1
            assert np.sum(w < -cutoff) == 1

    def test_dim_mismatch(self):
        model = detector_from_densities(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        with pytest.raises(DimensionMismatchError):
            binary_bayes_cost(model, np.eye(3) / 3, np.eye(3) / 3, 0.5)

    @pytest.mark.parametrize("xi", [math.nan, 0.0, 1.0, -0.2, 1.5])
    def test_invalid_prior(self, xi):
        rho1, rho0 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        model = detector_from_densities(rho1, rho0, 0.5)
        with pytest.raises(InvalidPriorError):
            binary_bayes_cost(model, rho1, rho0, xi)


# Each fails one condition of a density operator by more than 1e-10: trace 2
# (the matrix that built eta 2.0 and cost 0.0 when states were unchecked),
# trace 0.5, a negative eigenvalue, asymmetry, and a NaN or inf entry.
NOT_DENSITIES = [
    np.diag([2.0, 0.0]),
    np.diag([0.5, 0.0]),
    np.diag([1.5, -0.5]),
    np.array([[0.5, 0.1], [0.0, 0.5]]),
    np.array([[math.nan, 0.0], [0.0, 0.0]]),
    np.array([[math.inf, 0.0], [0.0, 1.0]]),
]


NOT_DENSITY_IDS = ["trace-2", "trace-half", "negative", "asymmetric", "nan", "inf"]


class TestStatesMustBeDensities:
    @pytest.mark.parametrize("rho", NOT_DENSITIES, ids=NOT_DENSITY_IDS)
    def test_detector_from_densities(self, rho):
        with pytest.raises(ValueError, match="rho_pos is not a density operator"):
            detector_from_densities(rho, np.diag([0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="rho_neg is not a density operator"):
            detector_from_densities(np.diag([1.0, 0.0]), rho, 0.5)

    @pytest.mark.parametrize("rho", NOT_DENSITIES, ids=NOT_DENSITY_IDS)
    def test_binary_bayes_cost(self, rho):
        model = detector_from_densities(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="rho_pos is not a density operator"):
            binary_bayes_cost(model, rho, np.diag([0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="rho_neg is not a density operator"):
            binary_bayes_cost(model, np.diag([1.0, 0.0]), rho, 0.5)

    def test_shapes_must_match(self):
        with pytest.raises(DimensionMismatchError, match="density shapes differ"):
            detector_from_densities(np.diag([1.0, 0.0]), np.diag([0.0, 0.0, 1.0]), 0.5)

    def test_rounding_off_a_density_operator_is_accepted(self):
        rho1 = np.diag([1.0 + 5e-11, 0.0])
        rho0 = np.array([[0.0, 5e-11], [0.0, 1.0 - 5e-11]])
        model = detector_from_densities(rho1, rho0, 0.5)
        assert binary_bayes_cost(model, rho1, rho0, 0.5) == pytest.approx(0.0, abs=1e-10)


class TestModelInvariants:
    @pytest.mark.parametrize("field", ["lam", "eta", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_rejected(self, field, value):
        fields = dict(eta=1.0, beta=-1.0)
        DetectorScalars(**fields)
        # lam follows from prior_negative, so a detector takes no lam, finite or not
        error, match = (TypeError, "'lam'") if field == "lam" else (ValueError, "must be finite")
        with pytest.raises(error, match=match):
            DetectorScalars(**dict(fields, **{field: value}))

    def test_invalid_eta_sign(self):
        with pytest.raises(ValueError):
            BinaryModel(
                dim=2, vectors=np.array([[1.0], [0.0]]), eta=-1.0, beta=-1.0,
                threshold=0.5, prior_negative=0.5,
            )

    def test_lambda_consistency_enforced(self):
        # lam is derived from prior_negative by training's own expression, never stored
        with pytest.raises(TypeError, match="'lam'"):
            BinaryModel(
                dim=2, vectors=np.array([[1.0], [0.0]]), lam=2.0, eta=1.0, beta=-1.0,
                threshold=0.5, prior_negative=0.5,
            )
        model = train_binary([fv(2, {0: 1})], [fv(2, {1: 1})], 2, prior_negative=0.3)
        assert model.lam == 0.3 / (1.0 - 0.3)
        assert dataclasses.replace(model, prior_negative=0.8).lam == 0.8 / (1.0 - 0.8)

    def test_non_idempotent_projector_rejected(self):
        with pytest.raises(ValueError):
            BinaryModel(
                dim=2, vectors=np.full((2, 1), 0.7), eta=1.0, beta=-1.0,
                threshold=0.5, prior_negative=0.5,
            )

    def test_non_orthogonal_columns_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            BinaryModel(
                dim=2, vectors=np.array([[1.0, 0.6], [0.0, 0.8]]), eta=1.0, beta=-1.0,
                threshold=0.5, prior_negative=0.5,
            )

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (2, 0)])
    def test_vectors_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            BinaryModel(
                dim=2, vectors=np.ones(shape) / np.sqrt(shape[0]), eta=1.0, beta=-1.0,
                threshold=0.5, prior_negative=0.5,
            )

    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c"), ("a", "a")])
    def test_labels_other_than_two_distinct_rejected(self, labels):
        # one label used to raise IndexError, and three to save a file the loader refused
        with pytest.raises(ValueError, match="two distinct labels"):
            detector_from_densities(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5, labels=labels)

    def test_projector_annihilates_complement(self):
        model = train_binary([fv(2, {0: 1, 1: 1})], [fv(2, {0: 1})], 2, prior_negative=0.5)
        p = model.projector
        assert np.linalg.norm(p @ (np.eye(2) - p)) <= 1e-10
