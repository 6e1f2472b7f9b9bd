"""Feature statistics and density operator tests."""

import numpy as np
import pytest

from qdetect.errors import DegenerateClassError, DegenerateCorpusError, DegenerateDocumentError
from qdetect.states import (
    FeatureVector,
    LabeledDataset,
    class_statistics,
    density_from_vector,
    feature_statistics,
    normalize_document,
)


def fv(dim, entries):
    return FeatureVector(dim=dim, entries=entries)


class TestFeatureVector:
    def test_zeros_dropped(self):
        doc = fv(3, {0: 2.0, 1: 0.0})
        assert doc.entries == {0: 2.0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fv(3, {0: -1.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        # a NaN must not be dropped like a zero, nor an inf give a NaN unit row
        with pytest.raises(ValueError, match="finite"):
            fv(3, {0: value, 1: 2.0})

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fv(3, {3: 1.0})

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            fv(0, {})


class TestLabeledDataset:
    def test_needs_a_document(self):
        with pytest.raises(ValueError, match="at least one document"):
            LabeledDataset(dim=2, documents=[])

    def test_labels_must_be_nonempty(self):
        with pytest.raises(ValueError, match="labels must be nonempty"):
            LabeledDataset(dim=2, documents=[("a", fv(2, {0: 1.0})), ("", fv(2, {1: 1.0}))])

    def test_documents_share_the_dim(self):
        with pytest.raises(ValueError, match="share the dataset dim"):
            LabeledDataset(dim=3, documents=[("a", fv(3, {0: 1.0})), ("b", fv(2, {1: 1.0}))])


class TestFeatureStatistics:
    def test_document_frequency_counts(self):
        docs = [fv(5, {0: 2, 2: 1}), fv(5, {0: 1}), fv(5, {2: 4, 4: 1})]
        stats = feature_statistics(docs, 5)
        np.testing.assert_allclose(stats, [2, 0, 2, 0, 1])

    def test_single_document(self):
        np.testing.assert_allclose(feature_statistics([fv(2, {0: 7})], 2), [1, 0])

    def test_identical_documents_accumulate(self):
        docs = [fv(2, {1: 1}), fv(2, {1: 1})]
        np.testing.assert_allclose(feature_statistics(docs, 2), [0, 2])

    def test_empty_class_rejected(self):
        with pytest.raises(DegenerateClassError):
            feature_statistics([], 3)

    def test_all_zero_class_rejected(self):
        with pytest.raises(DegenerateClassError):
            feature_statistics([fv(3, {})], 3)

    def test_first_all_zero_class_is_named(self):
        ds = LabeledDataset(3, [("a", fv(3, {0: 1})), ("b", fv(3, {})), ("c", fv(3, {}))])
        with pytest.raises(DegenerateClassError,
                           match=r"^class 'b' has an all-zero statistics vector$"):
            class_statistics(ds, 3)

    @pytest.mark.parametrize("classes", [("a",), ()])
    def test_a_dataset_with_no_rows_is_a_degenerate_corpus(self, classes):
        # no prior can be counted; a read with no documents fails in width() instead
        ds = LabeledDataset.from_arrays(3, classes, [], [0], [], [])
        with pytest.raises(DegenerateCorpusError, match="^dataset contains no documents$"):
            class_statistics(ds)

    def test_dim_below_the_dataset_dim_is_refused(self):
        ds = LabeledDataset(3, [("a", fv(3, {2: 1})), ("b", fv(3, {0: 1}))])
        with pytest.raises(ValueError, match="exceeds corpus dim"):
            class_statistics(ds, 2)

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        docs = [
            fv(8, {int(i): float(rng.uniform(0.1, 3.0)) for i in rng.choice(8, 3, replace=False)})
            for _ in range(10)
        ]
        forward = feature_statistics(docs, 8)
        backward = feature_statistics(docs[::-1], 8)
        np.testing.assert_array_equal(forward, backward)

    def test_scaling_invariant(self):
        docs = [fv(4, {0: 1.0, 2: 2.5}), fv(4, {2: 0.5})]
        scaled = [fv(4, {k: 10.0 * v for k, v in d.entries.items()}) for d in docs]
        np.testing.assert_array_equal(
            feature_statistics(docs, 4), feature_statistics(scaled, 4)
        )


class TestDensityFromVector:
    def test_count_vector(self):
        rho = density_from_vector(np.array([2.0, 0.0, 2.0, 0.0, 1.0]))
        np.testing.assert_allclose(np.diag(rho), [4 / 9, 0, 4 / 9, 0, 1 / 9], atol=1e-15)
        assert rho[0, 2] == pytest.approx(4 / 9)
        assert rho[0, 4] == pytest.approx(2 / 9)
        assert rho[2, 4] == pytest.approx(2 / 9)

    def test_basis_vector(self):
        np.testing.assert_allclose(density_from_vector(np.array([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_uniform_pair(self):
        np.testing.assert_allclose(
            density_from_vector(np.array([1.0, 1.0])), [[0.5, 0.5], [0.5, 0.5]]
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateClassError):
            density_from_vector(np.zeros(3))

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [np.nan, 1.0], [1.0, -np.inf]])
    def test_non_finite_vector_rejected(self, v):
        with pytest.raises(DegenerateClassError):
            density_from_vector(np.array(v))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
    def test_extreme_scales_give_the_moderate_state(self, scale):
        # ||v||^2 would overflow or underflow without the division by the peak
        np.testing.assert_array_equal(density_from_vector(scale * np.array([1.0, 1.0])),
                                      density_from_vector(np.array([1.0, 1.0])))

    def test_pure_spectrum(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            v = rng.uniform(0.0, 4.0, size=6)
            v[0] = 1.0  # never all-zero
            rho = density_from_vector(v)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            w = np.linalg.eigvalsh(rho)
            assert abs(w[-1] - 1.0) <= 1e-10
            assert np.all(np.abs(w[:-1]) <= 1e-10)


class TestNormalizeDocument:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_document(fv(2, {0: 3, 1: 4})), [0.6, 0.8])

    def test_single_feature(self):
        np.testing.assert_allclose(normalize_document(fv(3, {2: 5})), [0.0, 0.0, 1.0])

    def test_equal_pair(self):
        np.testing.assert_allclose(
            normalize_document(fv(2, {0: 1, 1: 1})), np.full(2, np.sqrt(0.5)), atol=1e-15
        )

    def test_empty_document_rejected(self):
        with pytest.raises(DegenerateDocumentError):
            normalize_document(fv(2, {}))

    def test_unit_norm_and_padding(self):
        x = normalize_document(fv(2, {0: 2, 1: 5}), dim=6)
        assert x.shape == (6,)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
