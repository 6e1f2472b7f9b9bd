"""Synthetic corpus generator tests."""

import math

import numpy as np
import pytest

from qdetect.dataio import serialize_sparse
from qdetect.metrics import evaluate
from qdetect.multiclass import build_hypotheses, train_one_vs_rest, train_pgm
from qdetect.synth import synth_corpus


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        a = synth_corpus("orthogonal", 5, 0.3, seed=99)
        b = synth_corpus("orthogonal", 5, 0.3, seed=99)
        assert serialize_sparse(a) == serialize_sparse(b)

    def test_different_seed_differs(self):
        a = synth_corpus("orthogonal", 10, 0.3, seed=1)
        b = synth_corpus("orthogonal", 10, 0.3, seed=2)
        assert serialize_sparse(a) != serialize_sparse(b)


class TestGeometry:
    def test_orthogonal_blocks_are_disjoint(self):
        ds = synth_corpus("orthogonal", 4, 0.0, seed=3, n_classes=3, block_size=2)
        assert ds.dim == 6
        for label, doc in ds.documents:
            k = int(label.removeprefix("class"))
            assert set(doc.entries) == {2 * k, 2 * k + 1}

    def test_orthogonal_noise_free_is_perfectly_separable(self):
        ds = synth_corpus("orthogonal", 6, 0.0, seed=4)
        for model in (train_pgm(ds.documents, ds.dim), train_one_vs_rest(ds.documents, ds.dim)):
            assert evaluate(model, ds).accuracy == 1.0

    def test_overlap_angle_controls_cosine(self):
        ds = synth_corpus("overlap", 8, 0.0, seed=5, n_classes=2, block_size=6,
                          angle=math.pi / 3)
        h = build_hypotheses(ds.documents, ds.dim)
        cosine = (h.factors[0].T @ h.factors[1]).item()
        assert cosine == pytest.approx(math.cos(math.pi / 3), abs=0.1)

    def test_right_angle_overlap_is_orthogonal(self):
        ds = synth_corpus("overlap", 4, 0.0, seed=6, n_classes=2, angle=math.pi / 2)
        h = build_hypotheses(ds.documents, ds.dim)
        assert (h.factors[0].T @ h.factors[1]).item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("angle", [1e-7, 1e-9])
    def test_a_closing_angle_caps_the_pool_at_eight_blocks(self, angle):
        # at 1e-9 the cosine rounds to 1
        ds = synth_corpus("overlap", 4, 0.0, seed=1, n_classes=2, angle=angle)
        assert ds.dim == 2 * 4 + 8 * 4

    def test_trine_like_has_three_symmetric_classes(self):
        ds = synth_corpus("trine-like", 5, 0.0, seed=7, block_size=3)
        h = build_hypotheses(ds.documents, ds.dim)
        assert h.n == 3
        cosines = [
            (h.factors[i].T @ h.factors[j]).item()
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        np.testing.assert_allclose(cosines, [0.5, 0.5, 0.5], atol=1e-12)


class TestNoise:
    def test_noise_degrades_two_class_accuracy_sanely(self):
        ds = synth_corpus("orthogonal", 40, 0.5, seed=8, n_classes=2)
        model = train_pgm(ds.documents, ds.dim)
        report = evaluate(model, ds)
        assert report.accuracy < 1.0
        assert report.accuracy >= 0.5

    def test_noise_moves_features_between_blocks(self):
        ds = synth_corpus("orthogonal", 20, 0.4, seed=9, n_classes=2, block_size=4)
        out_of_block = 0
        for label, doc in ds.documents:
            k = int(label.removeprefix("class"))
            own = set(range(4 * k, 4 * k + 4))
            out_of_block += sum(1 for f in doc.entries if f not in own)
        assert out_of_block > 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            synth_corpus("orthogonal", 1, 0.0, seed=1)
        with pytest.raises(ValueError):
            synth_corpus("orthogonal", 5, 1.0, seed=1)
        with pytest.raises(ValueError):
            synth_corpus("mystery", 5, 0.0, seed=1)
        with pytest.raises(ValueError):
            synth_corpus("orthogonal", 5, 0.0, seed=1, n_classes=1)
        with pytest.raises(ValueError):
            synth_corpus("overlap", 5, 0.0, seed=1, angle=0.0)

    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError, match="block_size"):
            synth_corpus("orthogonal", 5, 0.0, seed=1, block_size=0)
