"""Parsing, splits, and model serialization tests."""

import base64
import copy
import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetect import dataio
from qdetect.binary import (
    BinaryModel,
    binary_from_statistics,
    detector_from_densities,
    train_binary,
)
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
    write_text,
)
from qdetect.errors import (
    FormatError,
    ParseError,
    SplitError,
    UnsupportedVersionError,
)
from qdetect.multiclass import (
    MulticlassModel,
    one_vs_rest_from_statistics,
    pgm_from_statistics,
    train_one_vs_rest,
    train_pgm,
)
from qdetect.states import FeatureVector, LabeledDataset, as_dataset

DATA = Path(__file__).resolve().parent / "data"


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

    def test_pair_without_a_colon_rejected(self):
        # a digit string alone reads as an index, and the empty value after it fails
        with pytest.raises(ParseError, match="^line 1: malformed pair '5'$"):
            parse_sparse(["a 5\n"])

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
        # file.  The parse peaks near 3.6 MiB; converting the whole file at
        # once instead of 64K characters at a time peaks near 17 MiB.
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

    def test_serialized_text_holds_no_dim(self):
        ds = LabeledDataset(dim=10, documents=[("a", fv(10, {1: 2})), ("b", fv(10, {3: 1}))])
        text = serialize_sparse(ds)
        assert parse_sparse(io.StringIO(text)).dim == 4  # the largest used index + 1
        again = parse_sparse(io.StringIO(text), dim=ds.dim)
        assert again.dim == 10
        assert again.documents == ds.documents

    # a comment line, a label-only line, and a line whose label is two fields
    @pytest.mark.parametrize("label, entries", [("#a", {0: 1}), ("b", {}), ("a b", {0: 1})])
    def test_serialize_refuses_a_row_it_cannot_write(self, label, entries):
        ds = LabeledDataset(dim=2, documents=[("b", fv(2, {1: 1})), (label, fv(2, entries)),
                                              ("c", fv(2, {0: 1}))])
        with pytest.raises(ValueError, match=r"^row 1 cannot be written: label "):
            serialize_sparse(ds)


# Values serialize_sparse must write so that parse reads them back bit for bit.
SUBNORMALS = st.floats(min_value=5e-324, max_value=2.225073858507201e-308)
HUGE = st.sampled_from([1e308, 1.7976931348623157e308])
SEVENTEEN_DIGITS = st.builds(lambda m, e: float(f"{m}e{e}"),
                             st.integers(10**16, 10**17 - 1), st.integers(-40, 40))
DECIMALS = st.builds(lambda k, j: k / 10**j, st.integers(1, 10**15 - 1), st.integers(0, 15))
BELOW_1E_4 = st.floats(min_value=2.2250738585072014e-308, max_value=1e-4, exclude_max=True)


@st.composite
def short_decimals(draw):
    """Positive k / 10**j that serialize writes as a plain decimal of at most 15 digits.

    With j = 0 the value is a whole number below 10**15, written as its
    digits.  With k below 10**14 and j from 1 to 14, the shortest digits,
    written positionally, are at most 15: at most 14 of k, or ``0.`` and j
    digits when k is below 10**j, as in ``0.00001`` for 1e-05.
    """
    j = draw(st.integers(0, 14))
    top = 10**15 if j == 0 else 10**14
    return draw(st.integers(1, top - 1)) / 10**j


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
    @given(datasets(st.one_of(SUBNORMALS, HUGE, SEVENTEEN_DIGITS, DECIMALS, BELOW_1E_4)))
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
        # the shortest round-trip digits, written positionally: no exponent, no ``.0``
        ds = parse("a 0:0.1 1:2 2:0.30000000000000004 3:1e-05 4:1e15 5:3e20\n")
        assert serialize_sparse(ds) == (
            "a 0:0.1 1:2 2:0.30000000000000004 3:0.00001 4:1000000000000000"
            " 5:300000000000000000000\n")


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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan])
    def test_fraction_lies_inside_zero_and_one(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            SplitSpec(fraction, 0)

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
            f"{idx}:{np.format_float_positional(value, unique=True, trim='-')}"
            for idx, value in sorted(doc.entries.items())
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


# each strategy's trainer from class sizes and an N x dim count table
TRAINERS = {"binary": binary_from_statistics, "pgm": pgm_from_statistics,
            "one_vs_rest": one_vs_rest_from_statistics}


def make_models():
    docs_a = [fv(3, {0: 1, 1: 1}), fv(3, {0: 2})]
    docs_b = [fv(3, {1: 1, 2: 1}), fv(3, {2: 3})]
    corpus = [("a", d) for d in docs_a] + [("b", d) for d in docs_b]
    return {
        "binary": train_binary(docs_a, docs_b, 3, prior_negative=0.5, labels=("a", "b")),
        "pgm": train_pgm(corpus, 3),
        "one_vs_rest": train_one_vs_rest(corpus, 3),
    }


def model_document(strategy):
    """The JSON object of a model file, for a model of dim 3 trained from 2 x 3 counts."""
    return json.loads(dumps_canonical(model_to_dict(make_models()[strategy])))


def format_five_document(model):
    """The JSON object that model format 5 wrote: the vectors, and the values that training
    decides and the vectors do not.

    Those are a binary model's ``prior_negative``, ``eta``, ``beta`` and
    ``threshold``, the priors of a pgm or one-vs-rest model, and each
    one-vs-rest detector's ``eta`` and ``beta``.
    """
    if model.strategy == "binary":
        fields = {"prior_negative": model.prior_negative, "eta": model.eta, "beta": model.beta,
                  "threshold": model.threshold}
    else:
        fields = {"priors": list(model.priors)}
        if model.strategy == "one_vs_rest":
            fields["detectors"] = [dict(vars(s)) for s in model.detector_scalars]
    return {"format_version": 5, "strategy": model.strategy, "dim": model.dim,
            "labels": list(model.labels), **fields, "vectors": encode_rows(model.vectors.T)}


def format_four_document(model):
    """The JSON object that model format 4 wrote: format 5's, with the values the model derives.

    Those are a binary model's ``lambda``, a pgm model's ``kind``, and each
    one-vs-rest detector's ``prior_negative``, ``lambda`` and ``threshold``.
    """
    def scalars(detector):
        return {"prior_negative": detector.prior_negative, "lambda": detector.lam,
                "eta": detector.eta, "beta": detector.beta, "threshold": detector.threshold}

    doc = format_five_document(model)
    if model.strategy == "binary":
        fields = scalars(model)
    elif model.strategy == "pgm":
        fields = {"priors": doc["priors"], "kind": model.kind}
    else:
        fields = {"priors": doc["priors"], "detectors": list(map(scalars, model.detectors))}
    return {"format_version": 4, "strategy": doc["strategy"], "dim": doc["dim"],
            "labels": doc["labels"], **fields, "vectors": doc["vectors"]}


BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def encode_mask(used) -> bytes:
    """The feature mask of a base64 rows string: a bit a feature, high bit first."""
    size = -(-len(used) // 8)
    bits = "".join("1" if u else "0" for u in used).ljust(8 * size, "0")
    return int(bits, 2).to_bytes(size, "big")


def decode_mask(raw, dim) -> np.ndarray:
    """The features that the mask at the head of ``raw`` marks."""
    size = -(-dim // 8)
    bits = bin(int.from_bytes(raw[:size], "big"))[2:].zfill(8 * size)
    return np.array([c == "1" for c in bits[:dim]], dtype=bool)


def encode_rows(rows) -> str:
    """A format 4 and 5 ``vectors`` string: the mask of the features whose column
    holds a double with a set bit, then those columns' little-endian doubles,
    row after row, in base64."""
    rows = np.asarray(rows, dtype="<f8").reshape(-1, np.shape(rows)[-1])
    used = [any(value.tobytes() != bytes(8) for value in column) for column in rows.T]
    raw = encode_mask(used) + rows[:, np.array(used, dtype=bool)].tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_rows(doc) -> np.ndarray:
    """The rows of a format 4 or 5 document's ``vectors``, as a writable array."""
    raw = base64.b64decode(doc["vectors"], validate=True)
    used = decode_mask(raw, doc["dim"])
    kept = np.frombuffer(raw[-(-doc["dim"] // 8):], dtype="<f8").reshape(-1, used.sum())
    rows = np.zeros((len(kept), doc["dim"]))
    rows[:, used] = kept
    return rows


def encode_counts(rows, width=None) -> str:
    """A ``counts`` string: the mask of the features whose column holds a nonzero
    count, then those columns' little-endian unsigned integers of ``width``
    bytes, by default the fewest that hold the largest, row after row, in base64."""
    rows = np.asarray(rows, dtype=np.uint64).reshape(-1, np.shape(rows)[-1])
    used = rows.any(axis=0)
    kept = rows[:, used]
    top = int(kept.max(initial=0))
    width = width or next(w for w in (1, 2, 4, 8) if top < 256**w)
    raw = encode_mask(used) + kept.astype(f"<u{width}").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_counts(doc) -> np.ndarray:
    """The rows of a document's ``counts``, one per label, as a writable uint64 array."""
    raw = base64.b64decode(doc["counts"], validate=True)
    n, used = len(doc["labels"]), decode_mask(raw, doc["dim"])
    body = raw[-(-doc["dim"] // 8):]
    kept = np.frombuffer(body, dtype=f"<u{len(body) // (n * used.sum())}").reshape(n, -1)
    rows = np.zeros((n, doc["dim"]), dtype=np.uint64)
    rows[:, used] = kept
    return rows


class TestModelSerialization:
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_round_trip_bit_identical(self, tmp_path, strategy):
        model = make_models()[strategy]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.vectors.tobytes() == model.vectors.tobytes()
        assert (loaded.sizes, loaded.counts.tobytes()) == (model.sizes, model.counts.tobytes())
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
                assert (got.eta, got.beta) == (want.eta, want.beta)

    def test_derived_values_are_the_training_values(self, tmp_path):
        # bit for bit what training forms and format 4 stored: lam = xi / (1 - xi),
        # and each one-vs-rest detector's xi = 1 - p_k and threshold 0.5
        corpus = [("a", fv(3, {0: 1, 1: 1})), ("b", fv(3, {1: 1, 2: 1})), ("b", fv(3, {2: 3})),
                  ("c", fv(3, {0: 2, 2: 1}))]
        ovr = train_one_vs_rest(corpus, 3)
        binary = train_binary([corpus[0][1]], [corpus[1][1], corpus[2][1]], 3)
        path = tmp_path / "model.json"
        for model, priors_negative in ((ovr, [1 - p for p in ovr.priors]), (binary, [2 / 3])):
            save_model(model, path)
            expected = [(xi.hex(), (xi / (1.0 - xi)).hex(), 0.5) for xi in priors_negative]
            for got in (model, load_model(path)):
                detectors = got.detectors if got.strategy == "one_vs_rest" else (got,)
                assert [(d.prior_negative.hex(), d.lam.hex(), d.threshold)
                        for d in detectors] == expected

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
        path.write_text(json.dumps(model_to_dict(model), indent=2))
        loaded = load_model(path)
        assert loaded.vectors.tobytes() == model.vectors.tobytes()

    @pytest.mark.parametrize(
        "text", ["", "{} extra", '{"elements": [[[{"a": 1}]]]}',
                 '{"detectors": [{"projector": [["x"]]}]}', '["format_version", 4]'])
    def test_unreadable_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_model(path)

    def test_missing_field(self):
        doc = model_to_dict(make_models()["binary"])
        del doc["counts"]
        with pytest.raises(FormatError, match="counts"):
            model_from_dict(doc)

    def test_corrupt_matrix(self):
        # parallel class rows, which no detector separates
        doc = model_document("binary")
        doc["counts"] = encode_counts([[1, 1, 1], [2, 2, 2]])
        with pytest.raises(FormatError, match="inconsistent: .* numerically parallel"):
            model_from_dict(doc)

    @pytest.mark.parametrize("top, width", [(255, 1), (256, 2), (65535, 2), (65536, 4),
                                            (2**32 - 1, 4), (2**32, 8), (2**53, 8)])
    def test_counts_take_the_fewest_bytes_that_hold_the_largest(self, tmp_path, top, width):
        # one document of each class holds feature 2; the rest of the top count, feature 0 or 1
        doc = dict(model_document("pgm"), sizes=[top, top])
        doc["counts"] = encode_counts([[top, 0, 1], [0, top, 1]])
        assert len(base64.b64decode(doc["counts"])) == 1 + 2 * 3 * width
        model = model_from_dict(doc)
        assert (model.sizes, model.counts.tolist()) == ((top, top), [[top, 0, 1], [0, top, 1]])
        assert model_to_dict(model)["counts"] == doc["counts"]

    def test_a_wider_width_than_the_writer_takes_loads(self):
        doc = model_document("pgm")
        rows = decode_counts(doc)
        wide = dict(doc, counts=encode_counts(rows, width=8))
        assert model_from_dict(wide).vectors.tobytes() == model_from_dict(doc).vectors.tobytes()

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_a_count_above_its_class_size(self, strategy):
        doc = model_document(strategy)
        assert doc["sizes"] == [2, 2] and decode_counts(doc).max() == 2
        doc["sizes"] = [2, 1]
        with pytest.raises(FormatError, match="count above its class's size"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_a_class_without_counts(self, strategy):
        doc = model_document(strategy)
        rows = decode_counts(doc)
        rows[1] = 0
        # the mask of the first row's features, then both rows
        raw = encode_mask(rows[0] > 0) + rows[:, rows[0] > 0].astype("<u1").tobytes()
        doc["counts"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(FormatError, match="a class whose counts are all 0"):
            model_from_dict(doc)


class TestModelValidation:
    """Model files that violate an invariant of the model raise FormatError.

    No file states vectors: the loader trains them from the counts, and the
    model's constructor refuses vectors that break the strategy's invariants.
    """

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal(self, tmp_path, literal):
        text = dumps_canonical(model_to_dict(make_models()["binary"]))
        path = tmp_path / "model.json"
        path.write_text(text.replace('"threshold":0.5', f'"threshold":{literal}'))
        with pytest.raises(FormatError, match=literal):
            load_model(path)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_nan_vector_entry(self, strategy):
        model = make_models()[strategy]
        vectors = model.vectors.copy()
        vectors[-1, 0] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(model, vectors=vectors)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_wrong_vector_length(self, strategy):
        # every row one count short of the three features that the mask marks
        doc = model_document(strategy)
        mask, rows = base64.b64decode(doc["counts"])[:1], decode_counts(doc).astype("<u1")
        assert mask == bytes([0b1110_0000])
        doc["counts"] = base64.b64encode(mask + rows[:, :-1].tobytes()).decode("ascii")
        with pytest.raises(FormatError, match="dim 3"):
            model_from_dict(doc)
        ragged = np.delete(rows.ravel(), rows.shape[1] - 1)  # only the first row is short
        doc["counts"] = base64.b64encode(mask + ragged.tobytes()).decode("ascii")
        with pytest.raises(FormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_missing_vectors(self, strategy):
        # the counts, from which the loader trains the vectors
        doc = model_document(strategy)
        del doc["counts"]
        with pytest.raises(FormatError, match="counts"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_non_orthonormal_vectors(self, strategy):
        model = make_models()[strategy]
        vectors = model.vectors.copy()
        vectors[:, 0] *= 1.01
        with pytest.raises(ValueError, match="projector|unit norm|orthonormal"):
            dataclasses.replace(model, vectors=vectors)

    # the class sizes, from which the loader computes the priors
    @pytest.mark.parametrize("strategy", ["pgm", "one_vs_rest"])
    @pytest.mark.parametrize("priors", [[5, -3], [2, 0], [2.0, 2], [2, 2, 2], [2, 2**53 + 1]])
    def test_bad_priors(self, strategy, priors):
        doc = model_to_dict(make_models()[strategy])
        doc["sizes"] = priors
        with pytest.raises(FormatError, match="sizes"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_duplicate_labels(self, strategy):
        doc = model_to_dict(make_models()[strategy])
        doc["labels"] = ["a", "a"]
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    def test_detector_prior_must_match_its_class_prior(self):
        # each detector's prior_negative is 1 - p_k, with p_k its class's share of the
        # documents; a file that states detectors is refused
        doc = json.loads((DATA / "cli" / "ovr.json").read_text())
        model = model_from_dict(doc)
        assert model.priors == tuple(size / sum(doc["sizes"]) for size in doc["sizes"])
        assert [d.prior_negative for d in model.detectors] == [1.0 - p for p in model.priors]
        doc["detectors"] = [{"prior_negative": 0.5}] * len(doc["labels"])
        with pytest.raises(FormatError, match="'detectors'"):
            model_from_dict(doc)

    @staticmethod
    def with_classes(doc, n):
        """``doc`` with its first ``n`` classes, or a third class of one document."""
        rows = decode_counts(doc)
        if n > len(rows):
            rows = np.vstack([rows, [[1, 0, 0]]])
            doc["labels"].append("c")
            doc["sizes"].append(1)
        del doc["labels"][n:], doc["sizes"][n:]
        doc["counts"] = encode_counts(rows[:n])
        return doc

    @pytest.mark.parametrize("strategy, n, error", [
        ("binary", 3, "binary strategy needs exactly 2 classes, found 3"),
        ("binary", 1, "binary strategy needs exactly 2 classes, found 1"),
        ("one_vs_rest", 1, "one-vs-rest training needs at least 2 classes, found 1"),
    ], ids=["binary-three-labels", "binary-one-label", "ovr-one-detector-short"])
    def test_count_that_the_model_refuses(self, strategy, n, error):
        doc = self.with_classes(model_document(strategy), n)
        with pytest.raises(FormatError, match=error):
            model_from_dict(doc)

    @pytest.mark.parametrize("detector", [["eta", "beta"], 1.5, None])
    def test_a_detector_that_is_not_an_object(self, detector):
        # format 6 stores no detector, in any form
        doc = model_document("one_vs_rest")
        doc["detectors"] = [detector]
        with pytest.raises(FormatError, match="holds field 'detectors', which format 6 does"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_dim_disagrees_with_vectors(self, strategy):
        # dim 9 takes a mask of two bytes; a dim up to 8 would read as a wider model
        doc = model_document(strategy)
        doc["dim"] = 9
        with pytest.raises(FormatError, match="dim 9"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_non_string_labels(self, strategy):
        doc = model_document(strategy)
        doc["labels"] = list(range(1, len(doc["labels"]) + 1))
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_lone_surrogate_label(self, strategy):
        doc = json.loads(json.dumps(model_to_dict(make_models()[strategy])))
        doc["labels"][0] = "\udcff"
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["pgm", "one_vs_rest"])
    def test_non_numeric_priors(self, strategy):
        # the class sizes, from which the loader computes the priors
        doc = model_document(strategy)
        doc["sizes"] = [str(x) for x in doc["sizes"]]
        with pytest.raises(FormatError, match="sizes"):
            model_from_dict(doc)

    def test_boolean_dim(self):
        # a consistent one-dimensional model apart from the type of its dim
        doc = {"format_version": 6, "strategy": "pgm", "dim": True, "labels": ["a", "b"],
               "sizes": [1, 1], "counts": encode_counts([[1], [1]])}
        with pytest.raises(FormatError, match="'dim'"):
            model_from_dict(doc)
        doc["dim"] = 1
        assert model_from_dict(doc).dim == 1

    # labels that no dataset line's first field can be: predictions would
    # write them as broken TSV rows
    UNWRITABLE_LABELS = ["", "a b", "a\tb", "a\nb", "a\u2028b", "#a"]

    @pytest.mark.parametrize("label", UNWRITABLE_LABELS)
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_label_a_dataset_line_cannot_hold(self, strategy, label):
        doc = model_document(strategy)
        doc["labels"][0] = label
        with pytest.raises(FormatError, match="labels"):
            model_from_dict(doc)

    @pytest.mark.parametrize("label", UNWRITABLE_LABELS + ["\udcff"])
    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_save_refuses_a_label_the_loader_refuses(self, tmp_path, strategy, label):
        # an in-memory model takes any string; its file must load again
        model = make_models()[strategy]
        model = dataclasses.replace(model, labels=(label,) + model.labels[1:])
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="labels"):
            save_model(model, path)
        assert not path.exists()
        # nor is an existing file opened
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="labels"):
            save_model(model, path)
        assert path.read_bytes() == b"kept\n"


def untrained_models():
    """A model of each strategy that holds no training counts, by id."""
    binary, pgm, ovr = (make_models()[strategy] for strategy in ("binary", "pgm", "one_vs_rest"))
    rho_pos, rho_neg = np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])
    return {
        "densities": detector_from_densities(rho_pos, rho_neg, 0.5, labels=("a", "b")),
        "by-hand": MulticlassModel(strategy="pgm", dim=3, labels=("a", "b"), priors=(0.5, 0.5),
                                   vectors=np.eye(3)[:, :2]),
        "replaced-binary": dataclasses.replace(binary, threshold=0.25),
        "replaced-pgm": dataclasses.replace(pgm, labels=("x", "y")),
        "replaced-ovr": dataclasses.replace(ovr, vectors=ovr.vectors[:, ::-1]),
    }


class TestSaveOnlyTrainedModels:
    @pytest.mark.parametrize("kind", sorted(untrained_models()))
    def test_a_model_without_counts_is_refused(self, tmp_path, kind):
        path = tmp_path / "model.json"
        path.write_bytes(b"kept\n")
        model = untrained_models()[kind]
        assert model.sizes is None and model.counts is None
        with pytest.raises(ValueError, match="only a trained model can be saved"):
            save_model(model, path)
        assert path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    @pytest.mark.parametrize("sizes, counts, error", [
        ([2, 2], [[1.5, 1.0], [1.0, 1.0]], "whole numbers"),
        ([2, 2], [[-1.0, 1.0], [1.0, 1.0]], "whole numbers"),
        ([2, 2], [[np.nan, 1.0], [1.0, 1.0]], "whole numbers"),
        ([2, 2], [[2.0**64, 1.0], [1.0, 1.0]], "count above its class's size"),
        ([1, 1], [[3, 0], [0, 1]], "count above its class's size"),
        ([2, 2], [[1, 0], [0, 0]], "a class whose counts are all 0"),
        ([2.0, 2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
        ([np.int64(2), 2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
        ([True, 2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
        ([0, 2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
        ([2**53 + 1, 2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
        ([2], [[1, 0], [0, 1]], "sizes must hold a positive int"),
    ])
    def test_counts_that_no_file_holds_are_refused(self, strategy, sizes, counts, error):
        # the trainer refuses them, so no model that save_model writes holds them
        with pytest.raises(ValueError, match=error):
            TRAINERS[strategy](("a", "b"), sizes, np.array(counts))

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_the_counts_are_a_read_only_copy(self, tmp_path, strategy):
        counts = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        model = TRAINERS[strategy](("a", "b"), [2, 2], counts)
        counts[0, 0] = 9.0
        assert model.counts.tolist() == [[2, 1, 0], [0, 1, 2]]
        with pytest.raises(ValueError, match="read-only"):
            model.counts[0, 0] = 5
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json").counts.tolist() == model.counts.tolist()


class TestFormatFourVectors:
    """The base64 string of a feature mask and rows that format 4 introduced.

    Formats 4 and 5 held the model's vectors in it as doubles; format 6
    holds the count table in it as unsigned integers, from which the loader
    trains the vectors again.
    """

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_rows_are_little_endian_doubles(self, strategy):
        # the rows are the model's count table, a whole number a count
        model = make_models()[strategy]
        doc = model_document(strategy)
        assert decode_counts(doc).tolist() == model.counts.tolist()
        assert model_from_dict(doc).vectors.tobytes() == model.vectors.tobytes()

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.01])
    def test_entry_outside_the_unit_range(self, strategy, value):
        model = make_models()[strategy]
        vectors = model.vectors.copy()
        vectors[0, -1] = value
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(model, vectors=vectors)

    @staticmethod
    def two_feature_document():
        """A binary model of dim 3 whose documents hold features 0 and 1 only."""
        model = train_binary([fv(3, {0: 2, 1: 1})], [fv(3, {1: 1})], 3,
                             prior_negative=0.5, labels=("a", "b"))
        return json.loads(dumps_canonical(model_to_dict(model)))

    def test_features_without_a_nonzero_double_are_left_out(self):
        doc = self.two_feature_document()
        raw = base64.b64decode(doc["counts"], validate=True)
        assert (raw[:1], raw[1:]) == (bytes([0b1100_0000]), bytes([1, 1, 0, 1]))
        assert model_from_dict(doc).vectors[2, 0] == 0.0

    @pytest.mark.parametrize("mask, error", [
        (0b1110_0000, "counts are all 0"),  # feature 2 marked, with 0s in its place
        (0b1101_0000, "no mask of dim 3"),
        (0b1100_0001, "no mask of dim 3"),
        (0, "not whole rows"),
    ], ids=["zero-feature", "bit-past-dim", "last-bit", "no-feature"])
    def test_mask_that_the_writer_does_not_make(self, mask, error):
        doc = self.two_feature_document()
        kept = base64.b64decode(doc["counts"], validate=True)[1:] if mask else b""
        if mask == 0b1110_0000:
            kept = bytes([1, 1, 0, 0, 1, 0])
        doc["counts"] = base64.b64encode(bytes([mask]) + kept).decode("ascii")
        with pytest.raises(FormatError, match=error):
            model_from_dict(doc)

    def test_short_mask_is_rejected_before_it_is_unpacked(self):
        # a few bytes cannot hold the mask of 10**8 features, which takes 12.5 MB
        doc = dict(model_document("pgm"), dim=10**8)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="no mask of dim 100000000"):
                model_from_dict(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("edit", [
        lambda text: text[:5] + "-" + text[5:],  # the URL-safe alphabet, not the standard one
        lambda text: text[:5] + "\n" + text[5:],
        lambda text: text[:5] + " " + text[5:],
        lambda text: text[:5] + "\u00e9" + text[5:],
        lambda text: text[:5] + "=" + text[5:],
        lambda text: text[:-1],
        lambda text: text + "=",
        # the four bits past the last byte, which the writer leaves 0
        lambda text: text[:-3] + BASE64_ALPHABET[BASE64_ALPHABET.index(text[-3]) ^ 1] + "==",
        lambda text: text[1:],
    ], ids=["dash", "newline", "space", "non-ascii", "inner-padding", "no-padding",
            "extra-padding", "trailing-bits", "dropped-character"])
    def test_text_that_the_writer_does_not_make(self, edit):
        # a mask of 16 features and two rows of 16 one-byte counts: 34 bytes, 46 characters
        # and "=="
        doc = json.loads((DATA / "cli" / "binary.json").read_text())
        assert (doc["format_version"], len(doc["counts"])) == (6, 48)
        assert doc["counts"][-3:] != "===" and doc["counts"][-2:] == "=="
        model_from_dict(dict(doc))
        doc["counts"] = edit(doc["counts"])
        with pytest.raises(FormatError, match="'counts'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1), slice(0, 0)],
                             ids=["first-row", "last-row", "every-row"])
    def test_missing_rows(self, strategy, cut):
        doc = model_document(strategy)
        doc["counts"] = encode_counts(decode_counts(doc)[cut])
        with pytest.raises(FormatError, match="dim 3"):
            model_from_dict(doc)

    @pytest.mark.parametrize("strategy", ["binary", "pgm", "one_vs_rest"])
    def test_bytes_that_are_not_whole_rows(self, strategy):
        doc = model_document(strategy)
        raw = base64.b64decode(doc["counts"]) + bytes(8)
        doc["counts"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(FormatError, match="not whole rows"):
            model_from_dict(doc)

    def test_binary_model_of_two_vectors(self, tmp_path):
        # a detector of rank-2 acceptance, which only densities give: no counts, so no file
        model = BinaryModel(eta=0.5, beta=-0.5, prior_negative=0.5, threshold=0.5, dim=3,
                            vectors=np.eye(3)[:, :2], labels=("a", "b"))
        with pytest.raises(ValueError, match="only a trained model can be saved"):
            save_model(model, tmp_path / "model.json")

    def test_vectors_of_the_other_format(self):
        # the counts as JSON lists of numbers, as format 3 wrote its vectors
        doc = model_document("pgm")
        doc["counts"] = decode_counts(doc).tolist()
        with pytest.raises(FormatError, match="wrong type"):
            model_from_dict(doc)


# Every model document the fuzzer starts from: one for each strategy.
FUZZ_BASES = [model_document(strategy) for strategy in ("binary", "pgm", "one_vs_rest")]
JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                 st.lists(st.integers(0, 3), max_size=3))
DELTAS = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-2.0, 2.0), st.sampled_from([1e300, -1e300]))
# characters that a base64 string of the standard alphabet holds only as padding, or never
NOT_BASE64 = st.sampled_from(["=", "-", "_", " ", "\n", ".", "\u00e9", "\x00"])


@st.composite
def mutated_base64(draw, doc):
    """A document's ``counts`` string with one change to its text or its counts."""
    text = doc["counts"]
    at = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["flip", "drop", "insert", "mask-bit", "drop-row", "entry",
                                 "perturb", "truncate", "transpose", "widen"]))
    if edit == "mask-bit":  # a feature marked or unmarked, or a bit past dim set
        raw = bytearray(base64.b64decode(text))
        bit = draw(st.integers(0, 8 * -(-doc["dim"] // 8) - 1))
        raw[bit // 8] ^= 0x80 >> bit % 8
        return base64.b64encode(bytes(raw)).decode("ascii")
    if edit == "flip":
        char = draw(st.sampled_from(BASE64_ALPHABET.replace(text[at], "")))
        return text[:at] + char + text[at + 1:]
    if edit == "drop":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(NOT_BASE64) + text[at:]
    rows = decode_counts(doc)
    row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, doc["dim"] - 1))
    if edit == "drop-row":
        rows = np.delete(rows, row, axis=0)
    elif edit == "entry":
        rows[row, column] = draw(st.sampled_from([0, 1, 3, 255, 256, 2**32, 2**64 - 1]))
    elif edit == "perturb":
        rows[row, column] = max(0, int(rows[row, column]) + draw(st.integers(-2, 2)))
    elif edit == "truncate":  # the first rows kept, or each row's last count cut
        rows = rows[:row] if draw(st.booleans()) else rows[:, :-1]
    elif edit == "transpose":
        rows = rows.T
    return encode_counts(rows, width=draw(st.sampled_from([None, 2, 4, 8])))


# keys that some model file holds, or that formats 4 and 5 wrote
KEYS = st.one_of(st.sampled_from(["format_version", "strategy", "dim", "labels", "priors", "kind",
                                  "detectors", "prior_negative", "lambda", "eta", "beta",
                                  "threshold", "vectors", "sizes", "counts"]),
                 st.text(max_size=3))


@st.composite
def mutated_documents(draw):
    """A fuzz base with one mutation, and the mutation."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    mutation = draw(st.sampled_from(["drop", "retype", "dim", "reorder", "add", "size"]))
    if mutation == "add":  # a key the writer does not write
        doc[draw(KEYS.filter(lambda key: key not in doc))] = draw(JUNK | DELTAS)
    elif mutation in ("drop", "retype"):
        key = draw(st.sampled_from(sorted(doc)))
        if mutation == "drop":
            del doc[key]
        else:
            doc[key] = draw(JUNK)
    elif mutation == "dim":
        doc["dim"] = draw(st.integers(-1, 2 * doc["dim"] + 1))
    elif mutation == "size":
        doc["sizes"][draw(st.integers(0, 1))] = draw(st.integers(-1, 4) | st.just(10**400))
    else:
        doc["labels"] = draw(st.permutations(doc["labels"]))
    return mutation, doc


def assert_rejected_or_round_trips(doc):
    try:
        model = model_from_dict(doc)
    except (FormatError, UnsupportedVersionError):
        return
    text = dumps_canonical(model_to_dict(model))
    again = model_from_dict(json.loads(text))
    assert dumps_canonical(model_to_dict(again)) == text
    assert again.vectors.tobytes() == model.vectors.tobytes()


class TestModelDocumentFuzzing:
    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_mutation_is_rejected_or_round_trips(self, mutated):
        mutation, doc = mutated
        if mutation == "add":
            with pytest.raises(FormatError, match="which format 6 does not write"):
                model_from_dict(doc)
        else:
            assert_rejected_or_round_trips(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["binary", "pgm", "one_vs_rest"]), st.data())
    def test_vectors_mutation_is_rejected_or_round_trips(self, strategy, data):
        doc = model_document(strategy)
        doc["counts"] = data.draw(mutated_base64(doc))
        assert_rejected_or_round_trips(doc)


# Documents of the retired formats, each of which the version that wrote it
# loaded: a format 1 pgm model stored its measurement elements as dense
# matrices, a format 2 binary model its acceptance projector, a format 3 pgm
# model its vectors as JSON lists of numbers, format 4 the values that the
# model derives (see ``format_four_document``), and format 5 the vectors as
# doubles next to the values training decides (see ``format_five_document``).
RETIRED_DOCUMENTS = {
    "1": {"format_version": 1, "strategy": "pgm", "dim": 2, "labels": ["a", "b"],
        "priors": [0.5, 0.5], "kind": "projective",
        "elements": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]], "residual": None},
    "2": {"format_version": 2, "strategy": "binary", "dim": 2, "labels": ["a", "b"],
        "prior_negative": 0.5, "lambda": 1.0, "eta": 1.0, "beta": -1.0, "threshold": 0.5,
        "projector": [[1.0, 0.0], [0.0, 0.0]]},
    "3": {"format_version": 3, "strategy": "pgm", "dim": 2, "labels": ["a", "b"],
        "priors": [0.5, 0.5], "kind": "projective", "vectors": [[1.0, 0.0], [0.0, 1.0]]},
    **{f"4-{strategy}": format_four_document(model) for strategy, model in make_models().items()},
    **{f"5-{strategy}": format_five_document(model) for strategy, model in make_models().items()},
}


class TestRetiredFormats:
    @pytest.mark.parametrize("version", sorted(RETIRED_DOCUMENTS))
    def test_document_is_refused(self, version):
        with pytest.raises(UnsupportedVersionError, match=r"version \d \(expected 6\)"):
            model_from_dict(RETIRED_DOCUMENTS[version])

    def test_format_five_decoder_reads_the_inverse_root_file(self):
        # the one format 5 file kept, for its test of the last bits in tests/test_cli.py
        doc = json.loads((DATA / "inverse-root" / "pgm.json").read_text())
        assert doc["format_version"] == 5
        rows = decode_rows(doc)
        assert rows.shape == (len(doc["labels"]), doc["dim"])
        assert np.linalg.norm(rows @ rows.T - np.eye(len(rows))) <= 1e-12


class TestWriteText:
    """``write_text`` writes over the old bytes and cuts a regular file where it stopped."""

    @pytest.mark.parametrize("old", ["x" * 200_000, "x"], ids=["longer", "shorter"])
    def test_old_bytes_are_replaced(self, tmp_path, old):
        path = tmp_path / "out.txt"
        path.write_text(old, encoding="utf-8")
        write_text(path, ["a\n", "é\n"])
        assert path.read_bytes() == "a\né\n".encode("utf-8")

    def test_a_failed_write_leaves_no_old_byte_after_a_new_one(self, tmp_path):
        def blocks():
            yield "first\n"
            raise OSError("disk gone")

        path = tmp_path / "out.txt"
        path.write_text("x" * 200_000, encoding="utf-8")
        with pytest.raises(OSError, match="disk gone"):
            write_text(path, blocks())
        assert path.read_bytes() == b"first\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit")
    @pytest.mark.parametrize("size", [3000, 20_000], ids=["last-flush", "write"])
    def test_a_file_that_cannot_grow_is_cut_where_the_writes_stopped(self, tmp_path, size):
        # past a 1000-byte size limit, the write of a large block or the last
        # flush of a small one fails with EFBIG after 1000 new bytes
        path = tmp_path / "out.txt"
        path.write_text("x" * 5000, encoding="utf-8")
        script = (
            "import resource, signal\n"
            "from qdetect.dataio import write_text\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard))\n"
            "try:\n"
            f"    write_text({str(path)!r}, ['a' * {size}])\n"
            "except OSError as exc:\n"
            "    print(exc.errno)\n"
        )
        search = [str(Path(dataio.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))),
                                timeout=60, check=True)
        assert result.stdout == f"{errno.EFBIG}\n"
        assert path.read_bytes() == b"a" * 1000

    def test_same_inode_hard_links_and_mode(self, tmp_path):
        path, link = tmp_path / "out.txt", tmp_path / "hard.txt"
        path.write_text("x" * 1000, encoding="utf-8")
        os.link(path, link)
        path.chmod(0o600)
        inode = path.stat().st_ino
        write_text(path, ["new\n"])
        assert path.stat().st_ino == inode
        assert link.read_bytes() == b"new\n"
        assert path.stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_has_the_mode_of_mode_w(self, tmp_path, umask):
        old_umask = os.umask(umask)
        try:
            write_text(tmp_path / "new.txt", ["a"])
            with open(tmp_path / "w.txt", "w", encoding="utf-8") as fh:
                fh.write("a")
        finally:
            os.umask(old_umask)
        assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "w.txt").stat().st_mode

    def test_a_pipe_is_written_and_not_cut(self):
        read_end, write_end = os.pipe()
        try:
            path = f"/dev/fd/{write_end}"
            if not os.path.exists(path):
                pytest.skip("no /dev/fd")
            write_text(path, ["through ", "a pipe\n"])
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read() == b"through a pipe\n"


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
                 '[["a", "b"], [1.0, 0.0]]', "[" * 40 + "0" + "]" * 40])
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
