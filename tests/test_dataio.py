"""Parsing, splits, and model serialization tests."""

import io
import json
import math

import numpy as np
import pytest

from qdetect.binary import train_binary
from qdetect.dataio import (
    Lcg,
    SplitSpec,
    dumps_canonical,
    load_cost_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_sparse,
    save_model,
    serialize_sparse,
    split,
)
from qdetect.errors import (
    FormatError,
    ParseError,
    SplitError,
    UnsupportedVersionError,
)
from qdetect.multiclass import train_one_vs_rest, train_pgm
from qdetect.states import FeatureVector


def fv(dim, entries):
    return FeatureVector(dim=dim, entries=entries)


def parse(text, dim=None):
    return parse_sparse(io.StringIO(text), dim=dim)


SMALL_CORPUS = """# two classes over four features
sports 0:2 3:1
politics 1:1 2:4
sports 0:1 3:2
politics 2:1
"""


class TestParseSparse:
    def test_basic_line(self):
        ds = parse("sports 0:2 3:1\n")
        assert ds.dim == 4
        label, doc = ds.documents[0]
        assert label == "sports"
        assert doc.entries == {0: 2.0, 3: 1.0}

    def test_class_index_first_appearance(self):
        ds = parse("a 0:1\nb 1:1\n")
        assert ds.dim == 2
        assert ds.class_index == {"a": 0, "b": 1}

    def test_comments_and_blanks_skipped(self):
        ds = parse("\n# header\n  \na 0:1\n")
        assert len(ds) == 1

    def test_decreasing_index_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("a 3:1 1:2\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse("a 1:1 1:2\n")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse("a 0:0\n")
        with pytest.raises(ParseError, match="positive"):
            parse("a 0:-2\n")

    @pytest.mark.parametrize("value", ["inf", "Infinity", "1e999"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ParseError, match="line 2"):
            parse(f"a 0:1\nb 0:{value}\n")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ParseError, match="malformed"):
            parse("a 0:1 junk\n")
        with pytest.raises(ParseError, match="malformed"):
            parse("a x:1\n")

    def test_label_only_line_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("a 0:1\nb\n")

    def test_empty_stream_rejected(self):
        with pytest.raises(ParseError, match="no documents"):
            parse("# only a comment\n")

    def test_dim_override_widens(self):
        ds = parse("a 0:1\nb 1:1\n", dim=10)
        assert ds.dim == 10

    def test_dim_override_too_small(self):
        with pytest.raises(ParseError, match="smaller"):
            parse("a 0:1\nb 5:1\n", dim=3)

    def test_serialize_round_trip(self):
        ds = parse(SMALL_CORPUS)
        again = parse(serialize_sparse(ds))
        assert again.dim == ds.dim
        for (l1, d1), (l2, d2) in zip(ds.documents, again.documents):
            assert l1 == l2
            assert d1.entries == d2.entries


class TestSplit:
    def test_sizes_and_determinism(self):
        ds = parse("\n".join(f"c{i % 2} {i % 4}:{i + 1}" for i in range(10)) + "\n")
        first = split(ds, SplitSpec(0.8, 42))
        second = split(ds, SplitSpec(0.8, 42))
        assert len(first[0]) == 8 and len(first[1]) == 2
        assert first[0].documents == second[0].documents
        assert first[1].documents == second[1].documents

    def test_partition(self):
        ds = parse("\n".join(f"c{i % 3} {i % 5}:{i + 1}" for i in range(17)) + "\n")
        train, test = split(ds, SplitSpec(0.6, 9))
        combined = sorted(train.documents + test.documents, key=str)
        assert combined == sorted(ds.documents, key=str)
        assert not set(map(str, train.documents)) & set(map(str, test.documents))

    def test_stratified_proportions(self):
        lines = ["a 0:1"] * 6 + ["b 1:1"] * 4
        ds = parse("\n".join(lines) + "\n")
        train, test = split(ds, SplitSpec(0.5, 1, stratified=True))
        train_labels = [label for label, _ in train.documents]
        assert train_labels.count("a") == 3
        assert train_labels.count("b") == 2

    def test_empty_side_rejected(self):
        ds = parse("a 0:1\nb 1:1\n")
        with pytest.raises(SplitError):
            split(ds, SplitSpec(0.99, 3))

    def test_stratified_singleton_class_rejected(self):
        ds = parse("a 0:1\na 0:2\nb 1:1\n")
        with pytest.raises(SplitError, match="'b'"):
            split(ds, SplitSpec(0.5, 3, stratified=True))

    def test_different_seeds_differ(self):
        ds = parse("\n".join(f"c{i % 2} {i % 4}:{i + 1}" for i in range(40)) + "\n")
        a, _ = split(ds, SplitSpec(0.5, 1))
        b, _ = split(ds, SplitSpec(0.5, 2))
        assert a.documents != b.documents

    def test_lcg_reference_sequence(self):
        # Knuth MMIX constants; frozen values pin the generator across platforms
        rng = Lcg(1)
        assert rng.next_u64() == (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        rng = Lcg(42)
        first = [Lcg(42).next_u64(), rng.next_u64()]
        assert first[0] == first[1]

    def test_golden_split_membership(self):
        # frozen output of the documented generator; catches silent drift
        ds = parse("\n".join(f"c{i % 2} {i % 4}:{i + 1}" for i in range(10)) + "\n")
        train, test = split(ds, SplitSpec(0.8, 42))
        test_positions = [ds.documents.index(doc) for doc in test.documents]
        assert test_positions == [4, 5]


def make_models():
    docs_a = [fv(3, {0: 1, 1: 1}), fv(3, {0: 2})]
    docs_b = [fv(3, {1: 1, 2: 1}), fv(3, {2: 3})]
    corpus = [("a", d) for d in docs_a] + [("b", d) for d in docs_b]
    return {
        "binary": train_binary(docs_a, docs_b, 3, prior_negative=0.5, labels=("a", "b")),
        "pgm": train_pgm(corpus, 3),
        "one_vs_rest": train_one_vs_rest(corpus, 3),
    }


class TestModelSerialization:
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_round_trip_bit_identical(self, tmp_path, strategy):
        model = make_models()[strategy]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        if strategy == "binary":
            assert loaded.projector.tobytes() == model.projector.tobytes()
            assert loaded.lam == model.lam
            assert loaded.eta == model.eta
            assert loaded.beta == model.beta
            assert loaded.threshold == model.threshold
        elif strategy == "pgm":
            for got, want in zip(loaded.measurement.elements, model.measurement.elements):
                assert got.tobytes() == want.tobytes()
            if model.measurement.residual is None:
                assert loaded.measurement.residual is None
        else:
            for got, want in zip(loaded.detectors, model.detectors):
                assert got.projector.tobytes() == want.projector.tobytes()
                assert got.prior_negative == want.prior_negative

    def test_save_bytes_are_stable(self, tmp_path):
        model = make_models()["binary"]
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version(self, tmp_path):
        model = make_models()["binary"]
        doc = model_to_dict(model)
        doc["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(dumps_canonical(doc))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = make_models()["binary"]
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_any_json_layout_loads_bit_identically(self, tmp_path, strategy):
        model = make_models()[strategy]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model), indent=2, default=np.ndarray.tolist))
        loaded = load_model(path)
        assert [a.tobytes() for a in loaded.operators] == [a.tobytes() for a in model.operators]

    @pytest.mark.parametrize(
        "text", ["", "{} extra", '{"elements": [[[{"a": 1}]]]}',
                 '{"detectors": [{"projector": [["x"]]}]}'])
    def test_unreadable_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_model(path)

    def test_missing_field(self):
        doc = model_to_dict(make_models()["binary"])
        del doc["projector"]
        with pytest.raises(FormatError, match="projector"):
            model_from_dict(doc)

    def test_corrupt_matrix(self):
        doc = model_to_dict(make_models()["binary"])
        doc["projector"] = [[0.7, 0.7], [0.7, 0.7], [0.7, 0.7]]
        with pytest.raises(FormatError):
            model_from_dict(doc)


class TestModelValidation:
    """Model files that violate an invariant of the model raise FormatError."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal(self, tmp_path, literal):
        text = dumps_canonical(model_to_dict(make_models()["binary"]))
        path = tmp_path / "model.json"
        path.write_text(text.replace('"lambda":1.0', f'"lambda":{literal}'))
        with pytest.raises(FormatError, match=literal):
            load_model(path)

    @pytest.mark.parametrize("strategy", ["binary", "one_vs_rest"])
    def test_nan_projector_entry(self, strategy):
        doc = model_to_dict(make_models()[strategy])
        payload = doc if strategy == "binary" else doc["detectors"][1]
        payload["projector"][0][0] = float("nan")
        with pytest.raises(FormatError, match="finite"):
            model_from_dict(doc)

    def test_nan_measurement_element(self):
        doc = model_to_dict(make_models()["pgm"])
        doc["elements"][0][1][1] = float("nan")
        with pytest.raises(FormatError, match="finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["pgm", "one_vs_rest"])
    @pytest.mark.parametrize("priors", [[5.0, -3.0], [0.25, 0.25], [1.0, float("nan")]])
    def test_bad_priors(self, strategy, priors):
        doc = model_to_dict(make_models()[strategy])
        doc["priors"] = priors
        with pytest.raises(FormatError, match="priors"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_duplicate_labels(self, strategy):
        doc = model_to_dict(make_models()[strategy])
        doc["labels"] = ["a", "a"]
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    def test_dim_disagrees_with_elements(self):
        doc = model_to_dict(make_models()["pgm"])
        doc["dim"] = 5
        with pytest.raises(FormatError, match="dim 5"):
            model_from_dict(doc)

    def test_boolean_dim(self):
        # a consistent one-dimensional model apart from the type of its dim
        doc = {
            "format_version": 1, "strategy": "pgm", "dim": True, "labels": ["a", "b"],
            "priors": [0.5, 0.5], "kind": "povm", "elements": [[[0.5]], [[0.5]]],
            "residual": None,
        }
        with pytest.raises(FormatError, match="'dim'"):
            model_from_dict(doc)
        doc["dim"] = 1
        assert model_from_dict(doc).dim == 1


class TestCanonicalJson:
    def test_seventeen_digit_floats_round_trip(self):
        values = [1.0 / 3.0, math.sqrt(0.5), 0.1 + 0.2, -0.0, 1e-300, 2.0]
        text = dumps_canonical(values)
        loaded = json.loads(text)
        for got, want in zip(loaded, values):
            assert float(got) == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_floats_stay_float_typed(self):
        assert dumps_canonical(1.0).strip() == "1.0"
        assert dumps_canonical(0.0).strip() == "0.0"
        assert dumps_canonical({"empirical_cost": 0.0}).strip() == '{"empirical_cost":0.0}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))


class TestCostMatrixFile:
    def test_load(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text("[[0.0, 2.0], [1.0, 0.0]]")
        np.testing.assert_allclose(load_cost_matrix(path, 2), [[0.0, 2.0], [1.0, 0.0]])

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text("[[0.0, 2.0]]")
        with pytest.raises(FormatError):
            load_cost_matrix(path, 2)

    @pytest.mark.parametrize(
        "text", ["[[0.0, NaN], [1.0, 0.0]]", "[[0.0, 1e999], [1.0, 0.0]]", "[[0.0, 1.0], [1.0]]",
                 '[["a", "b"], [1.0, 0.0]]'])
    def test_non_finite_or_ragged(self, tmp_path, text):
        path = tmp_path / "cost.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_cost_matrix(path, 2)

    def test_negative_entry(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text("[[0.0, -1.0], [1.0, 0.0]]")
        with pytest.raises(FormatError):
            load_cost_matrix(path, 2)
