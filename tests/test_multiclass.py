"""Multi-hypothesis measurement tests: square-root construction, costs, classify."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdetect.binary import BinaryModel
from qdetect.errors import (
    DegenerateCorpusError,
    DimensionMismatchError,
    NotRankOneError,
    QdetectError,
)
from qdetect.multiclass import (
    HypothesisSet,
    Measurement,
    MulticlassModel,
    average_cost,
    build_hypotheses,
    class_scores,
    classify,
    measurement_vectors,
    pgm,
    train_one_vs_rest,
    train_pgm,
    zero_one_cost,
)
from qdetect.linalg import SUPPORT_RTOL, inv_sqrt_psd
from qdetect.oracles import helstrom_oracle
from qdetect.states import FeatureVector, normalize_document
from qdetect.synth import synth_corpus


def fv(dim, entries):
    return FeatureVector(dim=dim, entries=entries)


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def pure_hypotheses(angles, priors=None):
    factors = tuple(pure(a)[:, None] for a in angles)
    n = len(factors)
    priors = np.full(n, 1.0 / n) if priors is None else np.asarray(priors)
    return HypothesisSet(priors=priors, factors=factors, labels=tuple(f"h{k}" for k in range(n)))


def trine():
    return pure_hypotheses([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])


class TestBuildHypotheses:
    def test_orthogonal_two_class(self):
        corpus = [
            ("a", fv(2, {0: 1})), ("a", fv(2, {0: 3})),
            ("b", fv(2, {1: 2})), ("b", fv(2, {1: 1})),
        ]
        h = build_hypotheses(corpus, 2)
        np.testing.assert_allclose(h.priors, [0.5, 0.5])
        np.testing.assert_allclose(h.states[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(h.states[1], np.diag([0.0, 1.0]))
        assert h.labels == ("a", "b")

    def test_frequency_priors(self):
        corpus = [("a", fv(2, {0: 1}))] * 3 + [("b", fv(2, {1: 1}))]
        h = build_hypotheses(corpus, 2)
        np.testing.assert_allclose(h.priors, [0.75, 0.25])

    def test_a_document_wider_than_dim_is_rejected(self):
        # its entry lies inside dim, so only the document's own dim is wrong
        with pytest.raises(ValueError, match="document dim 4 exceeds corpus dim 3"):
            train_pgm([("a", fv(3, {0: 1})), ("b", fv(4, {1: 1}))], 3)

    def test_priors_factors_and_labels_must_match(self):
        e0, e1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        with pytest.raises(ValueError, match="priors and factors"):
            HypothesisSet(priors=np.array([0.5, 0.5]), factors=(e0,), labels=("a",))
        with pytest.raises(ValueError, match="labels and factors"):
            HypothesisSet(priors=np.array([0.5, 0.5]), factors=(e0, e1), labels=("a",))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateCorpusError):
            build_hypotheses([("a", fv(2, {0: 1})), ("a", fv(2, {0: 2}))], 2)

    # each state is given by its factor F, rho = F F^T
    @pytest.mark.parametrize("state, message", [
        # trace 2: pgm and the grid oracle would report cost 0
        (np.array([[math.sqrt(2.0)], [0.0]]), "trace 1"),
        (np.eye(2), "trace 1"),  # rank 2, trace 2
        (np.array([[0.5], [0.5]]), "trace 1"),
        (np.array([[np.nan], [1.0]]), "finite"),  # a NaN would pass the norm check
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "finite"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "finite"),
        (np.array([[1e200], [1e200]]), "finite"),  # its norm would overflow
        (np.zeros((2, 0)), "trace 1"),  # no column
    ])
    def test_states_must_be_density_operators(self, state, message):
        with pytest.raises(ValueError, match=message):
            HypothesisSet(priors=np.array([0.5, 0.5]), factors=(state, np.array([[0.0], [1.0]])),
                          labels=("a", "b"))

    def test_factors_must_be_matrices(self):
        with pytest.raises(ValueError, match="matrix"):
            HypothesisSet(priors=np.array([0.5, 0.5]),
                          factors=(np.array([1.0, 0.0]), np.array([[0.0], [1.0]])),
                          labels=("a", "b"))

    def test_factors_must_share_one_dimension(self):
        with pytest.raises(DimensionMismatchError):
            HypothesisSet(priors=np.array([0.5, 0.5]),
                          factors=(np.array([[1.0], [0.0]]), np.array([[0.0], [0.0], [1.0]])),
                          labels=("a", "b"))

    def test_rounding_off_a_density_operator_is_accepted(self):
        factor = np.array([[1.0 + 4e-11, 3e-11], [5e-11, -4e-11]])
        h = HypothesisSet(priors=np.array([0.5, 0.5]), factors=(factor, np.array([[0.0], [1.0]])),
                          labels=("a", "b"))
        np.testing.assert_array_equal(h.states[0], factor @ factor.T)

    def test_pure_states_skip_the_eigenvalue_check(self):
        # F F^T is PSD by construction: no eigvalsh per class
        corpus = [("a", fv(3, {0: 1, 1: 2})), ("b", fv(3, {2: 1})), ("c", fv(3, {1: 1}))]
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            h = build_hypotheses(corpus, 3)
        assert h.n == 3

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HypothesisSet(priors=np.array([0.5, 0.4]),
                          factors=(np.eye(2)[:, :1], np.eye(2)[:, 1:]), labels=("a", "b"))


class TestPgm:
    def test_orthogonal_states_give_projective_measurement(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        m = pgm(h)
        np.testing.assert_allclose(m.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(m.elements[1], np.diag([0.0, 1.0]), atol=1e-12)
        assert m.residual is None
        assert m.kind == "projective"

    def test_two_state_cost_matches_helstrom(self):
        h = pure_hypotheses([0.0, math.pi / 4.0])
        cost = average_cost(pgm(h), h, zero_one_cost(2))
        bound = helstrom_oracle(h.states[0], h.states[1], 0.5, 0.5)
        assert abs(cost - bound) <= 1e-9
        assert pgm(h).kind == "projective"

    def test_two_random_pure_states_equal_priors_optimal(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            factors = ((a / np.linalg.norm(a))[:, None], (b / np.linalg.norm(b))[:, None])
            if abs((factors[0].T @ factors[1]).item()) > 1.0 - 1e-9:
                continue
            h = HypothesisSet(priors=np.array([0.5, 0.5]), factors=factors, labels=("a", "b"))
            cost = average_cost(pgm(h), h, zero_one_cost(2))
            bound = helstrom_oracle(h.states[0], h.states[1], 0.5, 0.5)
            assert abs(cost - bound) <= 1e-9

    def test_trine_elements_and_cost(self):
        h = trine()
        m = pgm(h)
        for mu, rho in zip(m.elements, h.states):
            np.testing.assert_allclose(mu, (2.0 / 3.0) * rho, atol=1e-12)
        assert m.kind == "povm"
        assert average_cost(m, h, zero_one_cost(3)) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_trine_given_as_states_only(self):
        # each pure state as a two-column factor [v, v] / sqrt(2): element k is
        # M_k M_k^T over a block of two columns
        h = trine()
        wide = HypothesisSet(priors=h.priors, labels=h.labels,
                             factors=tuple(np.hstack([f, f]) / math.sqrt(2.0) for f in h.factors))
        m = pgm(wide)
        for mu, rho in zip(m.elements, h.states):
            np.testing.assert_allclose(mu, (2.0 / 3.0) * rho, atol=1e-12)
        assert average_cost(m, wide, zero_one_cost(3)) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_rank_two_pair_is_no_better_than_helstrom(self):
        # two rank-2 states in D=3 whose average has condition number 3.1
        e0, e1 = np.eye(3)[:2]
        f = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        g = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        factors = (np.column_stack([math.sqrt(0.7) * e0, math.sqrt(0.3) * e1]),
                   np.column_stack([math.sqrt(0.6) * f, math.sqrt(0.4) * g]))
        h = HypothesisSet(priors=np.array([0.4, 0.6]), factors=factors, labels=("a", "b"))
        cost = average_cost(pgm(h), h, zero_one_cost(2))
        assert cost >= helstrom_oracle(*h.states, 0.4, 0.6) - 1e-9

    def test_ill_conditioned_mixed_states_build(self):
        # a dense S^(-1/2) amplifies rounding by about cond(S), which reaches
        # 3.7e8 here, past the 1e-10 checks of Measurement; the polar factor
        # of the factors forms no inverse root
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(2000):
            factors = tuple(f / np.linalg.norm(f) for f in rng.normal(size=(2, 4, 2)))
            xi = rng.uniform(0.05, 0.95)
            h = HypothesisSet(priors=np.array([xi, 1.0 - xi]), factors=factors, labels=("a", "b"))
            m = pgm(h)
            worst = max(worst, float(np.linalg.norm(sum(m.all_elements()) - np.eye(4))))
        assert worst <= 1e-10

    def test_rank_deficient_support_gets_residual(self):
        corpus = [
            ("a", fv(3, {0: 1})), ("a", fv(3, {0: 1})),
            ("b", fv(3, {1: 1})), ("b", fv(3, {1: 1})),
        ]
        h = build_hypotheses(corpus, 3)
        m = pgm(h)
        assert m.residual is not None
        assert np.trace(m.residual) == pytest.approx(1.0, abs=1e-10)
        total = sum(m.all_elements())
        np.testing.assert_allclose(total, np.eye(3), atol=1e-10)

    def test_resolution_and_psd_over_random_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 13))
            priors = rng.uniform(0.05, 1.0, n)
            priors /= priors.sum()
            factors = []
            for _ in range(n):
                v = rng.normal(size=(dim, 1))
                factors.append(v / np.linalg.norm(v))
            h = HypothesisSet(priors=priors, factors=tuple(factors),
                              labels=tuple(f"c{k}" for k in range(n)))
            m = pgm(h)
            total = sum(m.all_elements())
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-10
            for element in m.all_elements():
                assert np.min(np.linalg.eigvalsh(element)) >= -1e-10
            for element in m.elements:
                assert np.trace(element) <= 1.0 + 1e-10


# As in test_rank_one: S^(-1/2) from an eigensolve of S with backward error
# GAMMA eps ||S|| moves each element by about 2 GAMMA eps kappa(S).
GAMMA = 8


@st.composite
def factor_sets(draw):
    """Priors and 1-4 unit-norm factors of rank 1-3 in dims 1-6."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    factors = []
    for _ in range(n):
        f = draw(hnp.arrays(float, (dim, draw(st.integers(1, 3))), elements=entries))
        assume(np.any(f))
        f /= np.max(np.abs(f))  # so that tiny entries do not underflow the norm
        factors.append(f / np.linalg.norm(f))
    priors = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return priors / priors.sum(), tuple(factors)


@settings(max_examples=300, deadline=None)
@given(factor_sets())
def test_pgm_of_drawn_factors_matches_the_inverse_root(drawn):
    priors, factors = drawn
    h = HypothesisSet(priors=priors, factors=factors,
                      labels=tuple(f"c{k}" for k in range(len(factors))))
    m = pgm(h)
    assert np.linalg.norm(sum(m.all_elements()) - np.eye(h.dim)) <= 1e-10
    for element in m.all_elements():
        assert np.linalg.eigvalsh(element)[0] >= -1e-10
    s = sum(xi * rho for xi, rho in zip(h.priors, h.states))
    w = np.linalg.eigvalsh(s)
    cut = SUPPORT_RTOL * w[-1]
    # an eigenvalue near the support cut may fall on either side of it
    assume(not np.any((w > cut / 10.0) & (w < cut * 10.0)))
    try:
        root = inv_sqrt_psd(s)
    except QdetectError:
        assume(False)
    support = w[w > cut]
    atol = max(1e-12, 2 * GAMMA * np.finfo(float).eps * support[-1] / support[0])
    for mu, xi, rho in zip(m.elements, h.priors, h.states):
        np.testing.assert_allclose(mu, root @ (xi * rho) @ root, rtol=0.0, atol=atol)
    assert (m.residual is None) == (support.size == h.dim)


@st.composite
def drawn_measurements(draw):
    """A hypothesis set of drawn factors, and its pgm or a drawn measurement below I."""
    priors, factors = draw(factor_sets())
    h = HypothesisSet(priors=priors, factors=factors,
                      labels=tuple(f"c{k}" for k in range(len(factors))))
    if draw(st.booleans()):
        return h, pgm(h)
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    blocks = []
    for _ in range(h.n):
        b = draw(hnp.arrays(float, (h.dim, draw(st.integers(1, 3))), elements=entries))
        assume(np.any(b))
        # a weight of at least 1e-6 keeps the dense element M_k M_k^T from underflowing
        blocks.append(b / np.max(np.abs(b)) * draw(st.floats(1e-6, 1.0)))
    # scaled so that the largest singular value of M is at most 1
    scale = np.linalg.norm(np.hstack(blocks), 2) * draw(st.floats(1.0, 4.0))
    return h, Measurement(tuple(b / scale for b in blocks))


@settings(max_examples=300, deadline=None)
@given(drawn_measurements(), st.data())
def test_factor_form_matches_the_dense_formulas(drawn, data):
    h, m = drawn
    cost = data.draw(hnp.arrays(float, (h.n, h.n), elements=st.floats(0.0, 5.0)))
    residual = np.zeros((h.dim, h.dim)) if m.residual is None else m.residual
    dense = sum(xi * (sum(cost[i, j] * np.trace(rho @ mu) for i, mu in enumerate(m.elements))
                      + np.max(cost[:, j]) * np.trace(rho @ residual))
                for j, (xi, rho) in enumerate(zip(h.priors, h.states)))
    assert abs(average_cost(m, h, cost) - dense) <= 1e-12
    # the D x D projector test; projectors summing to at most I are orthogonal
    assert (m.kind == "projective") == all(np.linalg.norm(mu @ mu - mu) <= 1e-10
                                           for mu in m.elements)
    want = []
    for element in m.elements:
        w, v = np.linalg.eigh(element)
        if w[-1] <= 0.0 or np.max(np.abs(w[:-1]), initial=0.0) > 1e-8 * w[-1]:
            with pytest.raises(NotRankOneError):
                measurement_vectors(m)
            return
        top = v[:, -1]
        want.append(top if top[np.abs(top) > 1e-12 * np.max(np.abs(top))][0] > 0 else -top)
    for got, vector in zip(measurement_vectors(m), want):
        np.testing.assert_allclose(got, vector, rtol=0.0, atol=1e-12)


class TestMeasurementVectors:
    def test_basis_projector(self):
        m = Measurement((np.eye(2)[:, :1], np.eye(2)[:, 1:]))
        vectors = measurement_vectors(m)
        np.testing.assert_allclose(vectors[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(vectors[1], [0.0, 1.0], atol=1e-12)

    def test_weighted_trine_element(self):
        h = trine()
        vectors = measurement_vectors(pgm(h))
        for got, want in zip(vectors, (f[:, 0] for f in h.factors)):
            # sign convention: first (significant) nonzero component positive
            aligned = want if want[np.abs(want) > 1e-12][0] > 0 else -want
            np.testing.assert_allclose(got, aligned, atol=1e-12)

    def test_rank_two_element_rejected(self):
        m = Measurement((np.eye(2) / math.sqrt(2.0), np.eye(2) / math.sqrt(2.0)))
        with pytest.raises(NotRankOneError):
            measurement_vectors(m)

    def test_zero_element_rejected(self):
        m = Measurement((np.zeros((2, 1)), np.eye(2)[:, 1:]))
        with pytest.raises(NotRankOneError, match="element 0 is numerically zero"):
            measurement_vectors(m)


class TestMeasurementInvariants:
    def test_elements_must_resolve_identity(self):
        # elements below I get the residual I - M M^T; elements beyond I are rejected
        m = Measurement((np.eye(2)[:, :1], math.sqrt(0.5) * np.eye(2)[:, 1:]))
        np.testing.assert_allclose(m.residual, np.diag([0.0, 0.5]), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(sum(m.all_elements()), np.eye(2), rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError, match="beyond the identity"):
            Measurement((np.eye(2)[:, :1], np.eye(2)[:, :1]))

    def test_kind_follows_from_the_elements(self):
        assert Measurement((np.eye(2)[:, :1], np.eye(2)[:, 1:])).kind == "projective"
        assert Measurement(pgm(trine()).factors).kind == "povm"

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="at least one factor"):
            Measurement(())

    def test_factors_share_the_dim(self):
        with pytest.raises(DimensionMismatchError, match="mixed dimensions"):
            Measurement((np.eye(2)[:, :1], np.eye(3)[:, 1:2]))

    def test_entries_lie_within_one(self):
        with pytest.raises(ValueError, match=r"within \[-1, 1\]"):
            Measurement((np.array([[2.0]]),))


class TestAverageCost:
    def test_single_hypothesis_identity(self):
        h = HypothesisSet(priors=np.array([1.0]), factors=(np.eye(2)[:, :1],), labels=("only",))
        m = Measurement((np.eye(2),))
        assert average_cost(m, h, np.zeros((1, 1))) == 0.0

    def test_matched_orthogonal_measurement_is_free(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        m = Measurement((np.eye(2)[:, :1], np.eye(2)[:, 1:]))
        assert average_cost(m, h, zero_one_cost(2)) == pytest.approx(0.0, abs=1e-12)

    def test_residual_outcome_charged_max_column_cost(self):
        # measurement trained on e1/e2 in dim 3 leaves e3 as residual
        base = [
            ("a", fv(3, {0: 1})), ("a", fv(3, {0: 1})),
            ("b", fv(3, {1: 1})), ("b", fv(3, {1: 1})),
        ]
        m = pgm(build_hypotheses(base, 3))
        leaning = np.array([[1.0], [0.0], [1.0]]) / math.sqrt(2.0)
        h_eval = HypothesisSet(priors=np.array([0.5, 0.5]), factors=(leaning, np.eye(3)[:, 1:2]),
                               labels=("a", "b"))
        # half of state "a" lands on the residual; zero-one charges it fully
        assert average_cost(m, h_eval, zero_one_cost(2)) == pytest.approx(0.25, abs=1e-10)

    def test_cost_scales_linearly(self):
        h = trine()
        m = pgm(h)
        base = average_cost(m, h, zero_one_cost(3))
        assert average_cost(m, h, 3.5 * zero_one_cost(3)) == pytest.approx(3.5 * base, rel=1e-12)

    @pytest.mark.parametrize("cost", [[[0.0, math.inf], [math.inf, 0.0]],
                                      [[0.0, math.nan], [1.0, 0.0]]])
    def test_non_finite_costs(self, cost):
        h = pure_hypotheses([0.0, math.pi / 4.0])
        with pytest.raises(ValueError, match="finite"):
            average_cost(pgm(h), h, cost)

    def test_size_mismatch(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        m = Measurement((np.eye(2),))
        with pytest.raises(DimensionMismatchError):
            average_cost(m, h, zero_one_cost(2))

    def test_dim_mismatch(self):
        h = pure_hypotheses([0.0, math.pi / 2.0])
        m = Measurement((np.eye(3)[:, :1], np.eye(3)[:, 1:2]))
        with pytest.raises(DimensionMismatchError, match="measurement dim 3 is not hypothesis dim 2"):
            average_cost(m, h, zero_one_cost(2))


class TestOneVsRest:
    def test_three_orthogonal_classes(self):
        corpus = [
            ("a", fv(3, {0: 1})), ("a", fv(3, {0: 1})),
            ("b", fv(3, {1: 1})), ("b", fv(3, {1: 1})),
            ("c", fv(3, {2: 1})), ("c", fv(3, {2: 1})),
        ]
        model = train_one_vs_rest(corpus, 3)
        for k, label in enumerate(("a", "b", "c")):
            x = normalize_document(fv(3, {k: 2}))
            scores = class_scores(model, x)
            assert scores[k] == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.delete(scores, k) <= 1e-10)
            assert classify(model, x) == label

    def test_balanced_two_class_agrees_with_binary_decision(self):
        corpus = [
            ("a", fv(2, {0: 1, 1: 1})), ("a", fv(2, {0: 1, 1: 1})),
            ("b", fv(2, {0: 1})), ("b", fv(2, {0: 1})),
        ]
        model = train_one_vs_rest(corpus, 2)
        detector = model.detectors[0]
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=2)
            x /= np.linalg.norm(x)
            scores = class_scores(model, x)
            if scores[0] != scores[1]:
                from qdetect.binary import decide

                assert (classify(model, x) == "a") == decide(detector, x)

    def test_tie_goes_to_lowest_index(self):
        corpus = [
            ("a", fv(2, {0: 1})), ("a", fv(2, {0: 1})),
            ("b", fv(2, {1: 1})), ("b", fv(2, {1: 1})),
        ]
        model = train_one_vs_rest(corpus, 2)
        x = normalize_document(fv(2, {0: 1, 1: 1}))
        assert classify(model, x) == "a"

    def test_each_strategy_has_only_its_own_view(self):
        corpus = [("a", fv(2, {0: 1})), ("b", fv(2, {0: 1, 1: 1}))]
        assert train_pgm(corpus, 2).detectors is None
        assert train_one_vs_rest(corpus, 2).measurement is None

    def test_kind_is_a_pgm_property(self):
        corpus = [("a", fv(2, {0: 1})), ("b", fv(2, {1: 1}))]
        assert train_one_vs_rest(corpus, 2).kind is None

    def test_needs_two_classes(self):
        with pytest.raises(DegenerateCorpusError):
            train_one_vs_rest([("a", fv(2, {0: 1})), ("a", fv(2, {0: 1}))], 2)


class TestModelVectors:
    @pytest.mark.parametrize("strategy", ["pgm", "binary"])
    def test_model_keeps_a_read_only_copy(self, strategy):
        vectors = np.eye(2) if strategy == "pgm" else np.array([[0.6], [0.8]])
        if strategy == "pgm":
            model = MulticlassModel(strategy="pgm", dim=2, labels=("c0", "c1"),
                                    priors=(0.5, 0.5), vectors=vectors)
        else:
            model = BinaryModel(eta=1.0, beta=-1.0, threshold=0.5,
                                prior_negative=0.5, dim=2, vectors=vectors)
        assert not np.shares_memory(model.vectors, vectors)
        assert not model.vectors.flags.writeable
        vectors[0, 0] = 0.5
        assert model.vectors[0, 0] != 0.5

    def test_read_only_array_that_owns_its_memory_is_kept(self):
        vectors = np.eye(2)
        vectors.flags.writeable = False
        model = MulticlassModel(strategy="pgm", dim=2, labels=("c0", "c1"), priors=(0.5, 0.5),
                                vectors=vectors)
        assert model.vectors is vectors
        # a read-only view may share a writable array's memory, so it is copied
        view = np.eye(2)[:, :]
        view.flags.writeable = False
        model = MulticlassModel(strategy="pgm", dim=2, labels=("c0", "c1"), priors=(0.5, 0.5),
                                vectors=view)
        assert not np.shares_memory(model.vectors, view)


    @pytest.mark.parametrize("excess, accepted", [(5e-11, True), (5e-10, False)])
    def test_one_vs_rest_vectors_have_unit_norm_within_1e_10(self, excess, accepted):
        trained = train_one_vs_rest([("a", fv(3, {0: 1})), ("b", fv(3, {1: 1}))], 3)
        vectors = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]]) * [1.0 + excess, 1.0]

        def build():
            return MulticlassModel(strategy="one_vs_rest", dim=3, labels=("a", "b"),
                                   priors=(0.5, 0.5), vectors=vectors,
                                   detector_scalars=trained.detector_scalars)

        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="unit norm"):
                build()


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy 'x'"):
        MulticlassModel(strategy="x", dim=2, labels=("a", "b"), priors=(0.5, 0.5),
                        vectors=np.eye(2))


class TestClassify:
    def setup_method(self):
        # elements diag(1, 0) and diag(0, 1): the outer products of the basis vectors
        self.model = MulticlassModel(
            strategy="pgm", dim=2, labels=("c0", "c1"), priors=(0.5, 0.5),
            vectors=np.eye(2),
        )

    def test_argmax(self):
        assert classify(self.model, np.array([0.6, 0.8])) == "c1"
        np.testing.assert_allclose(class_scores(self.model, np.array([0.6, 0.8])), [0.36, 0.64])

    def test_basis_vector(self):
        assert classify(self.model, np.array([1.0, 0.0])) == "c0"

    def test_exact_tie_breaks_low(self):
        x = np.full(2, math.sqrt(0.5))
        assert classify(self.model, x) == "c0"

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            classify(self.model, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("x", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0],
                                   [1e300, 1e300], [0.6, 0.8 + 2e-10], [0.0, 0.0]],
                             ids=["nan", "one-nan", "inf", "1e300", "norm-off-1", "zero"])
    def test_vector_that_is_not_unit_raises(self, x):
        # a NaN vector used to classify as "c0", and 1e300 overflowed in the scores
        for call in (classify, class_scores):
            with pytest.raises(ValueError, match="unit vector"):
                call(self.model, np.array(x))

    def test_trained_model_rejects_a_nan_document(self):
        ds = synth_corpus("orthogonal", 10, 0.1, seed=1)
        with pytest.raises(ValueError, match="unit vector"):
            classify(train_pgm(ds, ds.dim), np.full(ds.dim, math.nan))

    def test_rounding_off_a_unit_vector_is_accepted(self):
        assert classify(self.model, np.array([0.6, 0.8 + 5e-11])) == "c1"

    def test_scale_invariance_through_normalization(self):
        doc = fv(2, {0: 2, 1: 3})
        scaled = fv(2, {0: 20, 1: 30})
        np.testing.assert_allclose(normalize_document(doc), normalize_document(scaled))
        assert classify(self.model, normalize_document(doc)) == classify(
            self.model, normalize_document(scaled)
        )
