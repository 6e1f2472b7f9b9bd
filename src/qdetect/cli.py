"""Command-line surface: train, predict, evaluate, bench, oracle.

Module errors surface as a single ``ERROR <code>: <message>`` line on stderr
with a nonzero exit code; identical inputs and seeds always reproduce output
files byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys

import numpy as np

from qdetect.binary import binary_bayes_cost, binary_from_statistics, detector_from_densities
from qdetect.dataio import (
    DocumentReader,
    SplitSpec,
    dumps_canonical,
    load_cost_matrix,
    load_model,
    save_model,
    split,
    write_text,
)
from qdetect.errors import DegenerateCorpusError, QdetectError
from qdetect.metrics import evaluate, predictions_tsv
from qdetect.multiclass import (
    HypothesisSet,
    average_cost,
    one_vs_rest_from_statistics,
    pgm,
    pgm_from_statistics,
    train_one_vs_rest,
    train_pgm,
    zero_one_cost,
)
from qdetect.oracles import grid_oracle_dim2, helstrom_oracle
from qdetect.states import class_statistics
from qdetect.synth import synth_corpus


class UsageError(QdetectError):
    code = "usage"


def _open_data(path: str):
    """The dataset file at ``path``, opened for reading."""
    # the parser rejects undecodable bytes, kept as lone surrogates, by line
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _cmd_train(args) -> int:
    if args.strategy != "binary" and (args.prior is not None or args.threshold is not None):
        raise UsageError("--prior and --threshold apply only to the binary strategy")
    threshold = 0.5 if args.threshold is None else args.threshold
    if not 0.0 <= threshold <= 1.0:  # False for NaN
        raise UsageError(f"--threshold must lie in [0, 1], got {threshold}")
    # the trainers read only the class counts, so the file is counted a batch at a time
    with _open_data(args.data) as fh:
        labels, priors, counts = class_statistics(DocumentReader(fh), args.dim)
    if args.strategy == "binary":
        if len(labels) != 2:
            raise DegenerateCorpusError(
                f"binary strategy needs exactly 2 classes, found {len(labels)}"
            )
        prior = priors[1] if args.prior is None else args.prior
        model = binary_from_statistics(counts[0], counts[1], prior, threshold, labels=labels)
    elif args.strategy == "pgm":
        model = pgm_from_statistics(labels, priors, counts)
    else:
        model = one_vs_rest_from_statistics(labels, priors, counts)
    save_model(model, args.out)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    # each parse range is scored and formatted as it is read; only the text is kept
    with _open_data(args.data) as fh:
        blocks = predictions_tsv(model, DocumentReader(fh))
    write_text(args.out, blocks)  # opened once scoring succeeded
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    # the cost file needs only the label count, so it is checked before the data is read
    cost = None if args.cost == "zero-one" else load_cost_matrix(args.cost, len(model.labels))
    # each parse range is scored and counted as it is read
    with _open_data(args.data) as fh:
        report = evaluate(model, DocumentReader(fh), cost)
    write_text(args.out, (dumps_canonical(report.to_dict()),))
    return 0


# ---------------------------------------------------------------------------
# bench suites


def _pure_state(angle: float) -> np.ndarray:
    """The unit vector at ``angle`` in the plane, as a 2 x 1 factor."""
    return np.array([[math.cos(angle)], [math.sin(angle)]])


def _pair_hypotheses(angle0: float, angle1: float) -> HypothesisSet:
    factors = (_pure_state(angle0), _pure_state(angle1))
    return HypothesisSet(priors=np.array([0.5, 0.5]), factors=factors, labels=("h0", "h1"))


def trine_hypotheses() -> HypothesisSet:
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    factors = tuple(_pure_state(a) for a in angles)
    return HypothesisSet(priors=np.full(3, 1.0 / 3.0), factors=factors, labels=("t0", "t1", "t2"))


def _random_rank1_pair(rng, dim: int):
    while True:
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        if abs(float(a @ b)) < 1.0 - 1e-9:
            return np.outer(a, a), np.outer(b, b)


def _suite_helstrom(seed: int):
    rng = np.random.default_rng(seed)
    rows = []
    for dim in (2, 4, 8, 16):
        worst = 0.0
        for _ in range(200):
            rho1, rho0 = _random_rank1_pair(rng, dim)
            xi = float(rng.uniform(0.05, 0.95))
            model = detector_from_densities(rho1, rho0, xi)
            cost = binary_bayes_cost(model, rho1, rho0, xi)
            bound = helstrom_oracle(rho1, rho0, 1.0 - xi, xi)
            worst = max(worst, abs(cost - bound))
        rows.append((f"helstrom-random-dim{dim}", worst <= 1e-9, f"max_dev={worst:.3e}"))
    h = _pair_hypotheses(0.0, math.pi / 4.0)
    model = detector_from_densities(h.states[0], h.states[1], 0.5)
    spot = binary_bayes_cost(model, h.states[0], h.states[1], 0.5)
    expected = 0.5 * (1.0 - math.sqrt(0.5))
    rows.append(
        ("helstrom-spot-45deg", abs(spot - expected) <= 1e-9, f"dev={abs(spot - expected):.3e}")
    )
    grid_cost, _ = grid_oracle_dim2(h, zero_one_cost(2), resolution=100_000)
    rows.append(
        ("helstrom-grid-45deg", abs(grid_cost - expected) <= 1e-4, f"dev={abs(grid_cost - expected):.3e}")
    )
    return rows


def _suite_trine(seed: int):
    del seed  # the trine instance is fixed
    h = trine_hypotheses()
    measurement = pgm(h)
    element_dev = max(
        float(np.linalg.norm(mu - (2.0 / 3.0) * rho))
        for mu, rho in zip(measurement.elements, h.states)
    )
    rows = [("trine-pgm-elements", element_dev <= 1e-9, f"max_dev={element_dev:.3e}")]
    cost = average_cost(measurement, h, zero_one_cost(3))
    rows.append(("trine-pgm-cost", abs(cost - 1.0 / 3.0) <= 1e-9, f"dev={abs(cost - 1/3):.3e}"))
    grid_cost, _ = grid_oracle_dim2(h, zero_one_cost(3), resolution=100_000)
    rows.append(
        ("trine-grid-no-better", grid_cost >= 1.0 / 3.0 - 1e-3, f"grid_cost={grid_cost:.6f}")
    )
    return rows


def _suite_synthetic(seed: int):
    rows = []
    for noise, check in ((0.0, "accuracy=1"), (0.2, "cost<0.75")):
        corpus = synth_corpus("orthogonal", 25, noise, seed, n_classes=4)
        train_ds, test_ds = split(corpus, SplitSpec(0.8, seed, stratified=True))
        for strategy, trainer in (("pgm", train_pgm), ("ovr", train_one_vs_rest)):
            model = trainer(train_ds, train_ds.dim)
            report = evaluate(model, test_ds)
            if noise == 0.0:
                ok = report.accuracy == 1.0
                detail = f"accuracy={report.accuracy:.4f}"
            else:
                ok = report.empirical_cost < 0.75
                detail = f"empirical_cost={report.empirical_cost:.4f}"
            rows.append((f"synthetic-{strategy}-noise{noise:g} ({check})", ok, detail))
    return rows


_SUITES = {"helstrom": _suite_helstrom, "trine": _suite_trine, "synthetic": _suite_synthetic}


def _cmd_bench(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    rows = _SUITES[args.suite](args.seed)
    all_ok = True
    for name, ok, detail in rows:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:40s}  {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# oracle printing


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} expects a comma-separated list of finite numbers")
    return values


def _cmd_oracle(args) -> int:
    angles_deg = _parse_floats(args.angles, "--angles")
    n = len(angles_deg)
    priors = [1.0 / n] * n if args.priors is None else _parse_floats(args.priors, "--priors")
    if len(priors) != n:
        raise UsageError("--priors must match the number of angles")
    if args.mode == "helstrom" and n != 2:
        raise UsageError("helstrom mode needs exactly 2 angles")
    factors = tuple(_pure_state(math.radians(a)) for a in angles_deg)
    try:  # the oracles check the priors, the number of states and the resolution
        if args.mode == "helstrom":
            value = helstrom_oracle(factors[0] @ factors[0].T, factors[1] @ factors[1].T,
                                    priors[0], priors[1])
            print(f"helstrom_cost = {value:.12g}")
            return 0
        h = HypothesisSet(priors=np.array(priors), factors=factors,
                          labels=tuple(f"h{k}" for k in range(n)))
        cost, partition = grid_oracle_dim2(h, zero_one_cost(n), resolution=args.resolution)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"grid_cost = {cost:.12g}")
    print("angles_deg = " + ",".join(f"{math.degrees(a):.6f}" for a in partition.angles))
    print("weights = " + ",".join(f"{w:.6f}" for w in partition.weights))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdetect",
        description="Detection-theoretic classifiers with oracle-checked Bayes costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a sparse dataset file")
    train.add_argument("--data", required=True, help="sparse dataset file")
    train.add_argument("--strategy", required=True, choices=["binary", "pgm", "ovr"])
    train.add_argument("--prior", type=float, help="negative-class prior (binary only)")
    train.add_argument("--threshold", type=float, help="decision threshold (binary only)")
    train.add_argument("--dim", type=int, help="widen the feature space to this size")
    train.add_argument("--out", required=True, help="model JSON output path")

    predict = sub.add_parser("predict", help="write doc_index/label/score TSV")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="write a metrics report JSON")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--cost", default="zero-one", help="'zero-one' or a JSON cost matrix file")
    ev.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="run a pass/fail verification suite")
    bench.add_argument("--suite", required=True, choices=sorted(_SUITES))
    bench.add_argument("--seed", type=int, default=7)

    oracle = sub.add_parser("oracle", help="print oracle values for small instances")
    oracle.add_argument("--mode", required=True, choices=["helstrom", "grid"])
    oracle.add_argument("--angles", required=True, help="comma-separated angles in degrees")
    oracle.add_argument("--priors", help="comma-separated priors (default uniform)")
    oracle.add_argument("--resolution", type=int, default=100_000)

    return parser


_DISPATCH = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command in this process, built on the first one, not at import."""
    return build_parser()


@functools.cache
def _keep_freed_heap() -> None:
    """Start glibc's malloc at the thresholds its dynamic rule ends at: each batch reuses
    the last one's freed temporaries, and blocks of 32 MiB or more are still mapped."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform != "win32" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 64-bit DEFAULT_MMAP_THRESHOLD_MAX
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as the dynamic rule sets it


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except QdetectError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
