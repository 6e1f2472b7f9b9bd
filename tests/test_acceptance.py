"""Acceptance suite: one pass/fail line per criterion, fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 is the documented substitution of the synthetic benchmark
for an unreproducible published corpus experiment.
"""

import math
import time
from pathlib import Path

import numpy as np

from qdetect.binary import binary_bayes_cost, detector_from_densities
from qdetect.cli import main
from qdetect.dataio import (
    SplitSpec,
    load_model,
    parse_sparse,
    save_model,
    serialize_sparse,
    split,
)
from qdetect.linalg import trace_norm
from qdetect.metrics import evaluate
from qdetect.multiclass import (
    HypothesisSet,
    average_cost,
    pgm,
    train_one_vs_rest,
    train_pgm,
    zero_one_cost,
)
from qdetect.oracles import grid_oracle_dim2
from qdetect.states import FeatureVector
from qdetect.synth import synth_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def pure_hypotheses(angles, priors=None):
    factors = tuple(pure(a)[:, None] for a in angles)
    n = len(factors)
    priors = np.full(n, 1.0 / n) if priors is None else np.asarray(priors)
    return HypothesisSet(priors=priors, factors=factors, labels=tuple(f"h{k}" for k in range(n)))


def test_criterion_1_binary_optimality_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260101)
    worst = 0.0
    for dim in (2, 4, 8, 16):
        for _ in range(200):
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            rho1 = np.outer(a, a) / (a @ a)
            rho0 = np.outer(b, b) / (b @ b)
            xi = float(rng.uniform(0.05, 0.95))
            model = detector_from_densities(rho1, rho0, xi)
            cost = binary_bayes_cost(model, rho1, rho0, xi)
            bound = 0.5 * (1.0 - trace_norm((1.0 - xi) * rho1 - xi * rho0))
            worst = max(worst, abs(cost - bound))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"800 random pairs, max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_helstrom_spot_value():
    expected = 0.5 * (1.0 - math.sqrt(0.5))  # 0.146447 to printed precision
    h = pure_hypotheses([0.0, math.pi / 4.0])
    model = detector_from_densities(h.states[1], h.states[0], 0.5)
    cost = binary_bayes_cost(model, h.states[1], h.states[0], 0.5)
    grid_cost, _ = grid_oracle_dim2(h, zero_one_cost(2), resolution=100_000)
    ok = abs(cost - expected) <= 1e-9 and abs(grid_cost - expected) <= 1e-4
    report(
        2,
        ok,
        f"trained cost dev {abs(cost - expected):.3e}, grid dev {abs(grid_cost - expected):.3e}",
    )


def test_criterion_3_trine_benchmark():
    h = pure_hypotheses([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    cost = average_cost(pgm(h), h, zero_one_cost(3))
    grid_cost, _ = grid_oracle_dim2(h, zero_one_cost(3), resolution=100_000)
    ok = abs(cost - 1.0 / 3.0) <= 1e-9 and grid_cost >= 1.0 / 3.0 - 1e-3
    report(
        3,
        ok,
        f"pgm cost dev {abs(cost - 1/3):.3e}, grid minimum {grid_cost:.6f}",
    )


def test_criterion_4_resolution_of_identity_suite():
    rng = np.random.default_rng(424242)
    worst_sum = 0.0
    worst_psd = 0.0
    for _ in range(100):
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
        worst_sum = max(worst_sum, float(np.linalg.norm(total - np.eye(dim))))
        for element in m.all_elements():
            worst_psd = max(worst_psd, -float(np.min(np.linalg.eigvalsh(element))))
    ok = worst_sum <= 1e-10 and worst_psd <= 1e-10
    report(
        4,
        ok,
        f"100 measurements, worst identity dev {worst_sum:.3e}, worst PSD dev {worst_psd:.3e}",
    )


def test_criterion_5_end_to_end_synthetic():
    started = time.perf_counter()
    details = []
    ok = True
    for noise in (0.0, 0.2):
        corpus = synth_corpus("orthogonal", 25, noise, seed=505, n_classes=4)
        train_ds, test_ds = split(corpus, SplitSpec(0.8, 505, stratified=True))
        for name, trainer in (("pgm", train_pgm), ("ovr", train_one_vs_rest)):
            model = trainer(train_ds.documents, train_ds.dim)
            rep = evaluate(model, test_ds)
            if noise == 0.0:
                ok = ok and rep.accuracy == 1.0
                details.append(f"{name}@0: acc={rep.accuracy:.3f}")
            else:
                ok = ok and rep.empirical_cost < 0.75
                details.append(f"{name}@0.2: cost={rep.empirical_cost:.3f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(5, ok, ", ".join(details) + f", {elapsed:.2f}s")


def test_criterion_6_pipeline_determinism(tmp_path):
    corpus = synth_corpus("orthogonal", 10, 0.1, seed=606, n_classes=3)
    data = tmp_path / "data.txt"
    data.write_text(serialize_sparse(corpus), encoding="utf-8")
    two_class = tmp_path / "two.txt"
    two_class.write_text(
        "".join(
            line + "\n"
            for line in serialize_sparse(corpus).splitlines()
            if not line.startswith("class2")
        ),
        encoding="utf-8",
    )
    ok = True
    details = []
    for strategy, source in (("pgm", data), ("ovr", data), ("binary", two_class)):
        blobs = []
        for run in ("first", "second"):
            model = tmp_path / f"{strategy}_{run}.json"
            rep = tmp_path / f"{strategy}_{run}_report.json"
            assert main(["train", "--data", str(source), "--strategy", strategy,
                         "--out", str(model)]) == 0
            assert main(["evaluate", "--model", str(model), "--data", str(source),
                         "--out", str(rep)]) == 0
            blobs.append(model.read_bytes() + rep.read_bytes())
        same = blobs[0] == blobs[1]
        ok = ok and same
        details.append(f"{strategy}: {'identical' if same else 'DIFFERS'}")
    report(6, ok, ", ".join(details))


def test_criterion_7_round_trips(tmp_path):
    def fv(dim, entries):
        return FeatureVector(dim=dim, entries=entries)

    corpus = [
        ("a", fv(4, {0: 1, 1: 2})), ("a", fv(4, {0: 3})),
        ("b", fv(4, {2: 1})), ("b", fv(4, {2: 2, 3: 1})),
        ("c", fv(4, {3: 5})), ("c", fv(4, {1: 1, 3: 1})),
    ]
    from qdetect.binary import train_binary

    models = {
        "binary": train_binary(
            [d for l, d in corpus if l == "a"],
            [d for l, d in corpus if l != "a"],
            4, labels=("a", "rest"),
        ),
        "pgm": train_pgm(corpus, 4),
        "ovr": train_one_vs_rest(corpus, 4),
    }
    ok = True
    for name, model in models.items():
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        loaded = load_model(path)
        if name == "binary":
            ok = ok and loaded.projector.tobytes() == model.projector.tobytes()
            ok = ok and (loaded.lam, loaded.eta, loaded.beta) == (model.lam, model.eta, model.beta)
        elif name == "pgm":
            for got, want in zip(loaded.measurement.elements, model.measurement.elements):
                ok = ok and got.tobytes() == want.tobytes()
            if model.measurement.residual is not None:
                ok = ok and loaded.measurement.residual.tobytes() == model.measurement.residual.tobytes()
        else:
            for got, want in zip(loaded.detectors, model.detectors):
                ok = ok and got.projector.tobytes() == want.projector.tobytes()

    ds = synth_corpus("overlap", 6, 0.25, seed=707, n_classes=3)
    again = parse_sparse(serialize_sparse(ds).splitlines())
    ok = ok and again.dim == ds.dim
    for (l1, d1), (l2, d2) in zip(ds.documents, again.documents):
        ok = ok and l1 == l2 and d1.entries == d2.entries
    report(7, ok, "model matrices bit-identical, dataset parse/serialize identity")


def test_criterion_8_nonreproducibility_note_is_published():
    text = README.read_text(encoding="utf-8")
    ok = "Reuters21578" in text and "synthetic" in text.lower()
    report(8, ok, "README documents the unreproducible corpus study and the substitute")
