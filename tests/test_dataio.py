"""Parsing, splits, and model serialization tests."""

import copy
import io
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import dataio
from qdetect.binary import train_binary
from qdetect.dataio import (
    Lcg,
    SplitSpec,
    _round_half_up,
    _shuffle,
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
from qdetect.metrics import predict_dataset
from qdetect.multiclass import train_one_vs_rest, train_pgm
from qdetect.states import FeatureVector, LabeledDataset, as_dataset

DATA = Path(__file__).resolve().parent / "data"
# Format 1 model files written by the version before format 2, with the
# predictions that version made for test.txt (see FORMAT_ONE_FILES).
V1_DATA = DATA / "v1"
FORMAT_ONE_FILES = {"binary": "binary", "pgm": "pgm", "one_vs_rest": "ovr"}
# Format 2 model files written by the version before format 3, with the
# predictions that version made for the test corpus in data/cli.
V2_DATA = DATA / "v2"
FORMAT_TWO_TEST = {"binary": DATA / "cli" / "binary-test.txt",
                   "pgm": DATA / "cli" / "test.txt", "one_vs_rest": DATA / "cli" / "test.txt"}


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

    def test_index_past_int64_rejected(self):
        with pytest.raises(ParseError, match="line 2: feature index 99999999999999999999"):
            parse("a 0:1\nb 3:1 99999999999999999999:1\n")
        assert parse(f"a {2**63 - 1}:1\n").dim == 2**63

    def test_columns(self):
        ds = parse(SMALL_CORPUS)
        assert ds.classes == ("sports", "politics")
        assert ds.label_ids.tolist() == [0, 1, 0, 1]
        assert ds.indptr.tolist() == [0, 2, 4, 6, 7]
        assert ds.indices.tolist() == [0, 3, 1, 2, 0, 3, 2]
        assert ds.values.tolist() == [2.0, 1.0, 1.0, 4.0, 1.0, 2.0, 1.0]
        assert (ds.indices.dtype, ds.values.dtype) == (np.int64, np.float64)
        assert not ds.values.flags.writeable
        assert ds.documents is ds.documents
        assert ds.documents[1] == ("politics", fv(4, {1: 1.0, 2: 4.0}))

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

    def test_lone_surrogate_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1: malformed pair"):
            parse_sparse(["a 0:1 1:\ud800\n"])

    def test_lone_surrogate_in_a_label_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 2: label 'b\\\\udcff' is not valid UTF-8"):
            parse_sparse(["a 0:1\n", "b\udcff 0:1\n"])
        # an earlier line's error still comes first
        with pytest.raises(ParseError, match="line 1: malformed pair"):
            parse_sparse(["a 0:x\n", "b\udcff 0:1\n"])

    def test_peak_memory_of_a_chunked_parse(self):
        # About 690 KB in 6000 lines, like the benchmark's many-docs train
        # file.  The parse peaks near 3 MB; converting the whole file at once
        # instead of 32K characters at a time peaks above 17 MB.
        rng = np.random.default_rng(0)
        lines = []
        for i in range(6000):
            indices = np.flatnonzero(rng.random(64) < 0.36).tolist()
            counts = rng.integers(1, 4, len(indices)).tolist()
            pairs = " ".join(f"{k}:{c}" for k, c in zip(indices, counts))
            lines.append(f"c{i % 8:02d} {pairs}\n")
        tracemalloc.start()
        try:
            ds = parse_sparse(lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 6000
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_serialize_round_trip(self):
        ds = parse(SMALL_CORPUS)
        again = parse(serialize_sparse(ds))
        assert again.dim == ds.dim
        for (l1, d1), (l2, d2) in zip(ds.documents, again.documents):
            assert l1 == l2
            assert d1.entries == d2.entries


# Values serialize_sparse must write so that parse reads them back bit for bit.
SUBNORMALS = st.floats(min_value=5e-324, max_value=2.225073858507201e-308)
HUGE = st.sampled_from([1e308, 1.7976931348623157e308])
SEVENTEEN_DIGITS = st.builds(lambda m, e: float(f"{m}e{e}"),
                             st.integers(10**16, 10**17 - 1), st.integers(-40, 40))
DECIMALS = st.builds(lambda k, j: k / 10**j, st.integers(1, 10**15 - 1), st.integers(0, 15))


@st.composite
def short_decimals(draw):
    """Positive k / 10**j whose repr is a plain decimal of at most 15 digits.

    With k below 10**14 and j at most 14, repr writes at most 15 digits: at
    most 14 of k, with ``.0`` when j is 0, or ``0.`` and j digits when k is
    below 10**j.  Below 1e-4 it would write an exponent, as in ``1e-05``, so
    k is kept at or above 10**(j - 4).
    """
    j = draw(st.integers(0, 14))
    return draw(st.integers(max(1, 10 ** (j - 4)), 10**14 - 1)) / 10**j


@st.composite
def datasets(draw, values):
    """Up to six labeled documents of one to five entries, in increasing index order."""
    docs = []
    for _ in range(draw(st.integers(1, 6))):
        indices = draw(st.sets(st.integers(0, 40), min_size=1, max_size=5))
        label = draw(st.text(alphabet="abc-_", min_size=1, max_size=3))
        docs.append((label, fv(41, {i: draw(values) for i in sorted(indices)})))
    return LabeledDataset(dim=41, documents=docs)


def assert_same_rows(got, want):
    assert got.classes == want.classes
    for name in ("label_ids", "indptr", "indices"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert got.values.tobytes() == want.values.tobytes()


class TestSerializeProperties:
    @settings(max_examples=150, deadline=None)
    @given(datasets(st.one_of(SUBNORMALS, HUGE, SEVENTEEN_DIGITS, DECIMALS)))
    def test_parse_inverts_serialize(self, ds):
        assert_same_rows(parse(serialize_sparse(ds)), ds)

    @settings(max_examples=150, deadline=None)
    @given(datasets(short_decimals()))
    def test_short_decimals_stay_off_the_per_token_path(self, ds):
        # the per-token path would also read them exactly, token by token
        with mock.patch.object(dataio, "_checked_pairs",
                               side_effect=AssertionError("per-token path")):
            assert_same_rows(parse(serialize_sparse(ds)), ds)

    def test_values_are_written_as_their_repr(self):
        ds = parse("a 0:0.1 1:2 2:0.30000000000000004 3:1e-05\n")
        assert serialize_sparse(ds) == "a 0:0.1 1:2.0 2:0.30000000000000004 3:1e-05\n"


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


def documents_split(ds, spec):
    """The split as written over ``documents``, kept as the reference."""
    rng = Lcg(spec.seed)
    train_idx = []
    if spec.stratified:
        by_class = {}
        for i, (label, _) in enumerate(ds.documents):
            by_class.setdefault(label, []).append(i)
        for indices in by_class.values():
            take = _round_half_up(spec.train_fraction * len(indices))
            train_idx.extend(_shuffle(indices, rng)[:take])
    else:
        take = _round_half_up(spec.train_fraction * len(ds))
        train_idx = _shuffle(list(range(len(ds))), rng)[:take]
    chosen = set(train_idx)
    sides = ([doc for i, doc in enumerate(ds.documents) if i in chosen],
             [doc for i, doc in enumerate(ds.documents) if i not in chosen])
    return tuple(LabeledDataset(dim=ds.dim, documents=side) for side in sides)


def documents_serialize(ds):
    """``serialize_sparse`` as written over ``documents``, kept as the reference."""
    lines = []
    for label, doc in ds.documents:
        pairs = " ".join(
            f"{idx}:{value!r}" for idx, value in sorted(doc.entries.items())
        )
        lines.append(f"{label} {pairs}")
    return "\n".join(lines) + "\n"


class TestColumnarSplitAndSerialize:
    """``split`` and ``serialize_sparse`` read the CSR arrays, not ``documents``."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(5)
        docs = []
        for i in range(60):
            features = rng.permutation(30)[: rng.integers(1, 8)].tolist()  # unsorted
            values = np.round(rng.uniform(0.1, 5.0, len(features)), 3).tolist()
            docs.append((("z", "a", "m", "q")[rng.integers(4)], fv(30, dict(zip(features, values)))))
        return docs

    def test_match_the_documents_based_versions(self):
        docs = self.corpus()
        reference = LabeledDataset(dim=30, documents=docs)
        specs = [SplitSpec(0.7, 3), SplitSpec(0.5, 11, stratified=True), SplitSpec(0.25, 1)]
        want = [documents_split(reference, spec) for spec in specs]
        ds = as_dataset(docs, 30)  # the same arrays, with no documents built yet
        with mock.patch.object(FeatureVector, "__post_init__",
                               side_effect=AssertionError("a FeatureVector was built")):
            got = [split(ds, spec) for spec in specs]
            text = serialize_sparse(ds)
        assert text == documents_serialize(reference)
        for sides, want_sides in zip(got, want):
            for side, want_side in zip(sides, want_sides):
                assert (side.dim, side.classes) == (want_side.dim, want_side.classes)
                for name in ("label_ids", "indptr", "indices", "values"):
                    assert getattr(side, name).tobytes() == getattr(want_side, name).tobytes()


def make_models():
    docs_a = [fv(3, {0: 1, 1: 1}), fv(3, {0: 2})]
    docs_b = [fv(3, {1: 1, 2: 1}), fv(3, {2: 3})]
    corpus = [("a", d) for d in docs_a] + [("b", d) for d in docs_b]
    return {
        "binary": train_binary(docs_a, docs_b, 3, prior_negative=0.5, labels=("a", "b")),
        "pgm": train_pgm(corpus, 3),
        "one_vs_rest": train_one_vs_rest(corpus, 3),
    }


def v1_document(strategy):
    """The JSON object of a format 1 model file."""
    return json.loads((V1_DATA / f"{FORMAT_ONE_FILES[strategy]}.json").read_text())


def v2_document(strategy):
    """The JSON object of a format 2 model file."""
    return json.loads((V2_DATA / f"{FORMAT_ONE_FILES[strategy]}.json").read_text())


def v3_document(strategy):
    """The JSON object of a format 3 model file, for a model of dim 3."""
    return json.loads(dumps_canonical(model_to_dict(make_models()[strategy])))


DOCUMENTS = {1: v1_document, 2: v2_document, 3: v3_document}


class TestModelSerialization:
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_round_trip_bit_identical(self, tmp_path, strategy):
        model = make_models()[strategy]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.vectors.tobytes() == model.vectors.tobytes()
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
        assert loaded.vectors.tobytes() == model.vectors.tobytes()

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
        del doc["vectors"]
        with pytest.raises(FormatError, match="vectors"):
            model_from_dict(doc)

    def test_corrupt_matrix(self):
        doc = model_to_dict(make_models()["binary"])
        doc["vectors"] = [[0.7, 0.7], [0.7, 0.7], [0.7, 0.7]]
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
        doc = v1_document(strategy)
        payload = doc if strategy == "binary" else doc["detectors"][1]
        payload["projector"][0][0] = float("nan")
        with pytest.raises(FormatError, match="finite"):
            model_from_dict(doc)

    def test_nan_measurement_element(self):
        doc = v1_document("pgm")
        doc["elements"][0][1][1] = float("nan")
        with pytest.raises(FormatError, match="finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_nan_vector_entry(self, strategy):
        doc = v3_document(strategy)
        doc["vectors"][-1][0] = float("nan")
        with pytest.raises(FormatError, match="finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_wrong_vector_length(self, strategy):
        doc = v3_document(strategy)
        doc["vectors"] = [row[:-1] for row in doc["vectors"]]
        with pytest.raises(FormatError, match="dim 3"):
            model_from_dict(doc)
        doc["vectors"][0].append(0.0)  # ragged rows
        with pytest.raises(FormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_missing_vectors(self, strategy):
        doc = v3_document(strategy)
        del doc["vectors"]
        with pytest.raises(FormatError, match="vectors"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_non_orthonormal_vectors(self, strategy):
        doc = v3_document(strategy)
        doc["vectors"][0] = [1.01 * x for x in doc["vectors"][0]]
        with pytest.raises(FormatError, match="projector|unit norm|orthonormal"):
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
        doc = v1_document("pgm")
        doc["dim"] = 5
        with pytest.raises(FormatError, match="dim 5"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_dim_disagrees_with_vectors(self, strategy):
        doc = v3_document(strategy)
        doc["dim"] = 5
        with pytest.raises(FormatError, match="dim 5"):
            model_from_dict(doc)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_non_string_labels(self, version, strategy):
        doc = DOCUMENTS[version](strategy)
        doc["labels"] = list(range(1, len(doc["labels"]) + 1))
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["pgm", "one_vs_rest"])
    def test_non_numeric_priors(self, version, strategy):
        doc = DOCUMENTS[version](strategy)
        doc["priors"] = [str(x) for x in doc["priors"]]
        with pytest.raises(FormatError, match="priors"):
            model_from_dict(doc)

    # the identity in two dims, a valid projective pgm model apart from its item types
    IDENTITY_PGM = {"format_version": 3, "strategy": "pgm", "dim": 2, "labels": ["a", "b"],
                    "priors": [0.5, 0.5], "kind": "projective"}

    def test_string_vector_entries(self):
        doc = dict(self.IDENTITY_PGM, vectors=[[1.0, 0.0], [0.0, 1.0]])
        assert model_from_dict(doc).dim == 2
        doc["vectors"] = [["1.0", "0.0"], ["0.0", "1.0"]]
        with pytest.raises(FormatError, match="numbers"):
            model_from_dict(doc)

    @pytest.mark.parametrize("vectors", [[[True, False], [False, True]],
                                         [[1.0, False], [0.0, 1.0]]])
    def test_boolean_vector_entries(self, vectors):
        with pytest.raises(FormatError, match="numbers"):
            model_from_dict(dict(self.IDENTITY_PGM, vectors=vectors))

    def test_string_projector_entries(self):
        doc = v1_document("binary")
        doc["projector"] = [[str(x) for x in row] for row in doc["projector"]]
        with pytest.raises(FormatError, match="numbers"):
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


# Every model document the fuzzer starts from: format 3 documents and the
# format 1 and 2 fixture files, for each strategy.
FUZZ_BASES = [documents(strategy) for documents in (v1_document, v2_document, v3_document)
              for strategy in ("binary", "pgm", "one_vs_rest")]
MATRICES = ("vectors", "projector", "elements", "residual")
JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                 st.lists(st.integers(0, 3), max_size=3))
DELTAS = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-2.0, 2.0), st.sampled_from([1e300, -1e300]))


def number_paths(value, path=()):
    """Index paths of the numbers inside nested lists."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from number_paths(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@st.composite
def mutated_documents(draw):
    """A fuzz base with one mutation, in it or in one of its detectors."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    owner = draw(st.sampled_from([doc] + [d for d in doc.get("detectors", []) if d]))
    matrices = [key for key in MATRICES if isinstance(owner.get(key), list) and owner[key]]
    mutation = draw(st.sampled_from(["drop", "retype", "perturb", "truncate", "transpose",
                                     "dim", "reorder"]))
    if mutation in ("drop", "retype"):
        key = draw(st.sampled_from(sorted(owner)))
        if mutation == "drop":
            del owner[key]
        else:
            owner[key] = draw(JUNK)
    elif mutation == "dim":
        doc["dim"] = draw(st.integers(-1, 2 * doc["dim"] + 1))
    elif mutation == "reorder":
        doc["labels"] = draw(st.permutations(doc["labels"]))
    elif matrices:
        key = draw(st.sampled_from(matrices))
        rows = owner[key]
        if mutation == "perturb":
            *path, last = draw(st.sampled_from(list(number_paths(rows))))
            entry = rows
            for i in path:
                entry = entry[i]
            entry[last] += draw(DELTAS)
        elif mutation == "truncate":
            if draw(st.booleans()):
                owner[key] = rows[:draw(st.integers(0, len(rows) - 1))]
            else:
                owner[key] = [row[:-1] if isinstance(row, list) else row for row in rows]
        elif all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
            owner[key] = [list(column) for column in zip(*rows)]
    return doc


class TestModelDocumentFuzzing:
    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_mutation_is_rejected_or_round_trips(self, doc):
        try:
            model = model_from_dict(doc)
        except (FormatError, UnsupportedVersionError):
            return
        text = dumps_canonical(model_to_dict(model))
        again = model_from_dict(json.loads(text))
        assert dumps_canonical(model_to_dict(again)) == text
        assert again.vectors.tobytes() == model.vectors.tobytes()


class TestFormatOneFiles:
    """Format 1 files still load and predict what the version that wrote them did."""

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_predictions_match_the_writing_version(self, strategy):
        model = load_model(V1_DATA / f"{FORMAT_ONE_FILES[strategy]}.json")
        ds = parse_sparse((V1_DATA / "test.txt").read_text().splitlines())
        got = predict_dataset(model, ds)
        want = [line.split("\t") for line in
                (V1_DATA / f"{FORMAT_ONE_FILES[strategy]}.tsv").read_text().splitlines()]
        assert [label for label, _, _ in got] == [label for _, label, _ in want]
        np.testing.assert_allclose([score for _, score, _ in got],
                                   [float(score) for _, _, score in want], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_resaved_in_the_current_format(self, tmp_path, strategy):
        model = load_model(V1_DATA / f"{FORMAT_ONE_FILES[strategy]}.json")
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["format_version"] == 3
        assert again.vectors.tobytes() == model.vectors.tobytes()


class TestFormatTwoFiles:
    """Format 2 files still load and predict what the version that wrote them did."""

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_predictions_match_the_writing_version(self, strategy):
        model = load_model(V2_DATA / f"{FORMAT_ONE_FILES[strategy]}.json")
        ds = parse_sparse(FORMAT_TWO_TEST[strategy].read_text().splitlines())
        got = predict_dataset(model, ds)
        want = [line.split("\t") for line in
                (V2_DATA / f"{FORMAT_ONE_FILES[strategy]}.tsv").read_text().splitlines()]
        assert [label for label, _, _ in got] == [label for _, label, _ in want]
        np.testing.assert_allclose([score for _, score, _ in got],
                                   [float(score) for _, _, score in want], rtol=0.0, atol=1e-12)

    def test_binary_resaved_as_one_vector(self, tmp_path):
        model = load_model(V2_DATA / "binary.json")
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert (doc["format_version"], "projector" in doc) == (3, False)
        assert np.array(doc["vectors"]).shape == (1, model.dim)
        assert load_model(tmp_path / "model.json").vectors.tobytes() == model.vectors.tobytes()

    def test_projector_of_rank_two_loads_as_two_vectors(self):
        doc = v2_document("binary")
        doc["projector"] = np.diag([1.0, 1.0] + [0.0] * (doc["dim"] - 2)).tolist()
        model = model_from_dict(doc)
        assert model.vectors.shape == (doc["dim"], 2)
        np.testing.assert_array_equal(model.projector, doc["projector"])


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

    @pytest.mark.parametrize("text", ['[["0", "1"], ["1", "0"]]', "[[false, true], [true, false]]"])
    def test_non_numeric_items(self, tmp_path, text):
        path = tmp_path / "cost.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_cost_matrix(path, 2)

    def test_negative_entry(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text("[[0.0, -1.0], [1.0, 0.0]]")
        with pytest.raises(FormatError):
            load_cost_matrix(path, 2)
