"""Oracle tests: closed-form two-state bound and the brute-force angle sweep."""

import math

import numpy as np
import pytest

from qdetect import oracles
from qdetect.errors import DimensionMismatchError
from qdetect.multiclass import HypothesisSet, zero_one_cost
from qdetect.oracles import grid_oracle_dim2, helstrom_oracle


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def pure_hypotheses(angles, priors=None):
    factors = tuple(pure(a)[:, None] for a in angles)
    n = len(factors)
    priors = np.full(n, 1.0 / n) if priors is None else np.asarray(priors)
    return HypothesisSet(priors=priors, factors=factors, labels=tuple(f"h{k}" for k in range(n)))


class TestHelstromOracle:
    def test_orthogonal(self):
        value = helstrom_oracle(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_identical_states(self):
        rho = np.full((2, 2), 0.5)
        assert helstrom_oracle(rho, rho, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert helstrom_oracle(rho, rho, 0.7, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_45_degrees(self):
        rho1 = np.outer(pure(math.pi / 4), pure(math.pi / 4))
        rho0 = np.diag([1.0, 0.0])
        expected = 0.5 * (1.0 - math.sqrt(0.5))
        assert helstrom_oracle(rho1, rho0, 0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_invalid_priors(self):
        rho = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            helstrom_oracle(rho, rho, 0.6, 0.6)
        with pytest.raises(ValueError):
            helstrom_oracle(rho, rho, 1.0, 0.0)

    @pytest.mark.parametrize("xi1, xi0", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_priors(self, xi1, xi0):
        # a NaN compares False, so a check written as "xi <= 0 fails" would pass it
        with pytest.raises(ValueError):
            helstrom_oracle(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), xi1, xi0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            helstrom_oracle(np.eye(2) / 2, np.eye(3) / 3, 0.5, 0.5)

    @pytest.mark.parametrize("rho1", [
        np.diag([2.0, 0.0]),  # trace 2: the bound would read -0.25
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # not symmetric
        np.diag([1.5, -0.5]),  # trace 1, but an eigenvalue of -0.5
        np.diag([np.nan, 1.0]),  # not a NaN bound, nor a LinAlgError
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
    ])
    def test_non_density_states_rejected(self, rho1):
        with pytest.raises(ValueError, match="density operator"):
            helstrom_oracle(rho1, np.diag([0.0, 1.0]), 0.5, 0.5)
        with pytest.raises(ValueError, match="density operator"):
            helstrom_oracle(np.diag([0.0, 1.0]), rho1, 0.5, 0.5)

    def test_rounding_off_a_density_operator_is_accepted(self):
        rho1 = np.array([[1.0 + 4e-11, 3e-11], [3e-11 + 5e-11, -4e-11]])
        assert helstrom_oracle(rho1, np.diag([0.0, 1.0]), 0.5, 0.5) == pytest.approx(0.0, abs=1e-9)


class TestGridTwoHypotheses:
    def test_orthogonal_aligned(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        cost, partition = grid_oracle_dim2(h, zero_one_cost(2), resolution=2000)
        assert cost == pytest.approx(0.0, abs=1e-9)
        # the accepting projector sits on the first state
        assert min(partition.angles[0], math.pi - partition.angles[0]) <= math.pi / 2000 + 1e-12

    def test_45_degrees_matches_closed_form(self):
        h = pure_hypotheses([0.0, math.pi / 4.0])
        cost, _ = grid_oracle_dim2(h, zero_one_cost(2), resolution=100_000)
        assert cost == pytest.approx(0.5 * (1.0 - math.sqrt(0.5)), abs=1e-4)

    def test_random_instances_match_helstrom(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            angles = rng.uniform(0.0, math.pi, size=2)
            xi = float(rng.uniform(0.2, 0.8))
            h = pure_hypotheses(angles, priors=[xi, 1.0 - xi])
            cost, _ = grid_oracle_dim2(h, zero_one_cost(2), resolution=20_000)
            bound = helstrom_oracle(h.states[0], h.states[1], xi, 1.0 - xi)
            assert cost == pytest.approx(bound, abs=1e-4)
            assert cost >= bound - 1e-12  # a sweep can never beat the optimum


class TestGridThreeHypotheses:
    def test_trine(self):
        h = pure_hypotheses([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        cost, partition = grid_oracle_dim2(h, zero_one_cost(3), resolution=100_000)
        assert cost == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert cost >= 1.0 / 3.0 - 1e-9
        np.testing.assert_allclose(partition.weights, np.full(3, 2.0 / 3.0), atol=1e-6)

    def test_orthogonal_pair_plus_zero_weight(self):
        # two orthogonal states and a third in between: the sweep includes
        # projective solutions where one weight collapses to zero
        h = pure_hypotheses([0.0, math.pi / 2.0, math.pi / 4.0])
        cost, _ = grid_oracle_dim2(h, zero_one_cost(3), resolution=30_000)
        assert 0.0 <= cost <= 1.0 / 3.0 + 1e-9


class TestGridPreconditions:
    def test_needs_dim_two(self):
        factors = (np.eye(3) / np.sqrt(3.0), np.eye(3)[:, :1])
        h = HypothesisSet(priors=np.array([0.5, 0.5]), factors=factors, labels=("a", "b"))
        with pytest.raises(DimensionMismatchError):
            grid_oracle_dim2(h, zero_one_cost(2), resolution=2000)

    def test_resolution_floor(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        with pytest.raises(ValueError):
            grid_oracle_dim2(h, zero_one_cost(2), resolution=500)

    @pytest.mark.parametrize("angles", [[0.0, math.pi / 2.0], [0.0, 2.0, 4.0]])
    def test_resolution_ceiling(self, monkeypatch, angles):
        # checked before a sweep takes memory that grows with the resolution
        def sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(oracles, "_sweep_two", sweep)
        monkeypatch.setattr(oracles, "_sweep_three", sweep)
        h = pure_hypotheses(angles)
        with pytest.raises(AssertionError, match="the sweep ran"):
            grid_oracle_dim2(h, zero_one_cost(len(angles)), resolution=10**7)
        with pytest.raises(ValueError, match="resolution"):
            grid_oracle_dim2(h, zero_one_cost(len(angles)), resolution=10**7 + 1)

    @pytest.mark.parametrize("cost", [[[0.0, math.nan], [1.0, 0.0]],
                                      [[0.0, math.inf], [1.0, 0.0]]])
    def test_non_finite_costs(self, cost):
        h = pure_hypotheses([0.0, math.pi / 4.0])
        with pytest.raises(ValueError, match="finite"):
            grid_oracle_dim2(h, cost, resolution=2000)

    def test_unsupported_hypothesis_count(self):
        h = pure_hypotheses([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(ValueError):
            grid_oracle_dim2(h, zero_one_cost(4), resolution=2000)
