#!/usr/bin/env python3
"""qdetect benchmark: train -> evaluate -> predict sessions through the CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-vocab --seed 1 --seconds 30 --trace 0

For the workload, a seeded corpus is generated (``perfbench/corpus.py``) and
the user session ``train``, ``evaluate``, ``predict`` for ``--strategy pgm``
then ``--strategy ovr`` runs in-process through ``qdetect.cli.main``, one
command after another (a closed loop with one caller), repeatedly for
``--seconds``, after one unmeasured warm-up session.  Timings are medians over
the sessions; peak memory is the process peak after the warm-up session.
``--trace 1`` alternates untraced sessions with sessions whose calls into each
layer are wrapped in spans (``perfbench/spans.py``) and reports per-layer self
times.

The speed of a shared host drifts by tens of percent within seconds as
co-tenants load it.  So every command, and every set-up sample, is bracketed by
a fixed ``probe()`` and its wall time is rescaled to the speed at which the
probe takes ``PROBE_NOMINAL_S`` (``calibrated``).  Reported seconds are these
probe-normalised seconds, not wall seconds; the wall and probe times, and every
end-to-end metric computed from wall seconds, are kept in the record.

After timing, every output is checked: predictions against an independent
reference scorer, each one-vs-rest detector's Bayes cost against the Helstrom
bound, byte-identical outputs across sessions, and bit-identical scores of an
in-memory and a reloaded model.  A failed command or check counts in
``failed``.  Metric names and units come from ``BENCHMARK.json``.  The last
stdout line is the JSON result; a fuller record (environment, generator
parameters, digests, checks) goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy is first imported.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import reference  # noqa: E402
from perfbench.corpus import TOKENS_PER_DOC, ZIPF_EXPONENT, CorpusSpec, generate  # noqa: E402
from perfbench.spans import Installed, Tracer, self_times  # noqa: E402


# Why each workload exists, and the layers it stresses, is its "why" in
# BENCHMARK.json.  Sizes keep one session between 1.5 and 2.3 probe-normalised
# seconds on a 2-core host, so a 30-second run holds 13 to 23 sessions; noise
# shares keep accuracy between 0.7 and 0.9.
WORKLOADS = {
    "wide-vocab": CorpusSpec(dim=128, classes=8, train_docs=800, test_docs=800,
                             noise_share=0.8),
    "many-docs": CorpusSpec(dim=64, classes=8, train_docs=6000, test_docs=1600,
                            noise_share=0.7),
    "many-classes": CorpusSpec(dim=64, classes=32, train_docs=1920, test_docs=800,
                               noise_share=0.6),
}
STRATEGIES = ("pgm", "ovr")
COMMANDS = ("train", "evaluate", "predict")
SETUP_SAMPLES = 9
# Nominal seconds of one probe(); reported times are wall times rescaled to it.
PROBE_NOMINAL_S = 0.020
ROUND_TRIP_SAMPLE = 64
HELSTROM_ATOL = 1e-9

# per-layer metric -> (span name, field of the per-session layer total)
LAYER_FIELDS = {
    "cli.self_s": ("cli", "self_s"),
    "dataio.parse_s": ("dataio.parse", "self_s"),
    "dataio.parse_docs": ("dataio.parse", "count"),
    "dataio.save_s": ("dataio.save", "self_s"),
    "dataio.load_s": ("dataio.load", "self_s"),
    "states.feature_statistics_s": ("states.feature_statistics", "self_s"),
    "states.feature_statistics_docs": ("states.feature_statistics", "count"),
    "states.normalize_document_calls": ("states.normalize_document", "calls"),
    "states.normalize_document_s": ("states.normalize_document", "self_s"),
    "linalg.eigh_calls": ("linalg.eigh", "calls"),
    "linalg.eigh_s": ("linalg.eigh", "self_s"),
    "linalg.eigh_max_order": ("linalg.eigh", "max_count"),
    "linalg.inv_sqrt_psd_s": ("linalg.inv_sqrt_psd", "self_s"),
    "multiclass.build_hypotheses_s": ("multiclass.build_hypotheses", "self_s"),
    "multiclass.pgm_s": ("multiclass.pgm", "self_s"),
    "multiclass.measurement_check_s": ("multiclass.measurement_check", "self_s"),
    "multiclass.train_one_vs_rest_s": ("multiclass.train_one_vs_rest", "self_s"),
    "multiclass.class_scores_calls": ("multiclass.class_scores", "calls"),
    "multiclass.class_scores_s": ("multiclass.class_scores", "self_s"),
    "binary.train_binary_calls": ("binary.train_binary", "calls"),
    "binary.train_binary_s": ("binary.train_binary", "self_s"),
    "binary.detector_from_densities_s": ("binary.detector_from_densities", "self_s"),
    "binary.model_check_s": ("binary.model_check", "self_s"),
    "binary.score_calls": ("binary.score", "calls"),
    "binary.score_s": ("binary.score", "self_s"),
    "metrics.predict_dataset_s": ("metrics.predict_dataset", "self_s"),
    "metrics.evaluate_s": ("metrics.evaluate", "self_s"),
}


class Files:
    """Input and output paths of one workload's sessions."""

    def __init__(self, root: Path):
        self.root = root
        self.train = root / "train.txt"
        self.test = root / "test.txt"

    def out(self, strategy: str, command: str) -> Path:
        suffix = {"train": "model.json", "evaluate": "report.json", "predict": "predictions.tsv"}
        return self.root / f"{strategy}.{suffix[command]}"

    def argv(self, strategy: str, command: str, dim: int) -> list[str]:
        model = str(self.out(strategy, "train"))
        out = str(self.out(strategy, command))
        if command == "train":
            return ["train", "--data", str(self.train), "--strategy", strategy,
                    "--dim", str(dim), "--out", out]
        return [command, "--model", model, "--data", str(self.test), "--out", out]


def call_main(main, argv: list[str]) -> int:
    """Exit code of one CLI command; an escaping exception counts as a failure."""
    try:
        return main(argv)
    except Exception:  # the benchmark reports the failure and keeps measuring
        traceback.print_exc()
        return -1


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    Commands are timed between probes; dividing by the probe time removes most
    of the drift in machine speed that co-tenants cause on a shared host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    values = {str(i): i / 7.0 for i in range(8_000)}
    ",".join(format(v, ".17g") for v in values.values())
    [float(x) for x in "1.5 2.25 3.125 4.0625".split() * 2_000]
    return time.perf_counter() - start


def run_session(main, files: Files, dim: int, tracer: Tracer | None = None,
                session: int = 0) -> tuple[dict, int, dict[str, str]]:
    """Six commands in order: timings, failures and output digests.

    Timings hold each command's wall seconds and the probe seconds measured
    before each command and after the last one.  With a tracer, each
    command's spans carry the id ``(session, command)``.
    """
    wall: dict[str, float] = {}
    probes = []
    failed = 0
    for strategy in STRATEGIES:
        for command in COMMANDS:
            if tracer is not None:
                tracer.session = (session, f"{strategy}.{command}")
            # Each probe, and each command, starts from a collected heap, so the
            # probe does not run on the garbage the previous command left.
            gc.collect()
            probes.append(probe())
            start = time.perf_counter()
            code = call_main(main, files.argv(strategy, command, dim))
            wall[f"{strategy}.{command}"] = time.perf_counter() - start
            if code != 0:
                print(f"command {strategy} {command} exited {code}", file=sys.stderr)
                failed += 1
    gc.collect()
    probes.append(probe())
    digests = {
        f"{strategy}.{command}": _sha256(files.out(strategy, command))
        for strategy in STRATEGIES
        for command in COMMANDS
    }
    return {"wall": wall, "probes": probes}, failed, digests


def _sha256(path: Path) -> str:
    if not path.exists():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_setup() -> dict:
    """Timings of fresh interpreters importing qdetect and its CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import qdetect, qdetect.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    wall: dict[str, float] = {}
    probes = [probe()]
    for i in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        wall[str(i)] = time.perf_counter() - start
        probes.append(probe())
    return {"wall": wall, "probes": probes}


def scale_factors(timing: dict) -> dict[str, float]:
    """Per step, the factor that rescales its wall time to a machine on which
    the probe takes ``PROBE_NOMINAL_S``.

    The probe time of a step is the mean of the probes just before and after it.
    """
    probes = timing["probes"]
    return {key: PROBE_NOMINAL_S / ((probes[i] + probes[i + 1]) / 2.0)
            for i, key in enumerate(timing["wall"])}


def calibrated(timing: dict) -> dict[str, float]:
    """Each step's wall seconds, rescaled by its factor from ``scale_factors``."""
    return {key: timing["wall"][key] * f for key, f in scale_factors(timing).items()}


def wall_times(timing: dict) -> dict[str, float]:
    """Each step's wall seconds as measured, for the record beside ``calibrated``."""
    return dict(timing["wall"])


# ---------------------------------------------------------------------------
# output checks, all outside the timed sessions


def digest_checks(digests: list[dict[str, str]]):
    for key in digests[0]:
        distinct = {d[key] for d in digests}
        yield (f"identical {key} output in every session", len(distinct) == 1,
               f"{len(distinct)} distinct digests")


def reference_checks(files: Files, train: reference.Corpus, test: reference.Corpus):
    for strategy in STRATEGIES:
        predictions = reference.read_predictions(str(files.out(strategy, "predict")))
        scores = reference.reference_scores(train, test, strategy)
        bad = reference.prediction_mismatches(predictions, scores, train.classes)
        yield (f"{strategy} predictions match the reference", not bad,
               f"{len(bad)} mismatches" + (f", first: {bad[0]}" if bad else ""))
        with open(files.out(strategy, "evaluate"), encoding="utf-8") as fh:
            reported = json.load(fh)["accuracy"]
        correct = sum(p[0] == t for p, t in zip(predictions, test.labels))
        yield (f"{strategy} report accuracy matches the predictions",
               reported == correct / len(test.labels),
               f"report {reported!r}, predictions {correct}/{len(test.labels)}")


def round_trip_checks(files: Files, dim: int):
    """In-memory and reloaded models score a sample bit-identically."""
    from qdetect.dataio import load_model, parse_sparse
    from qdetect.multiclass import class_scores, train_one_vs_rest, train_pgm
    from qdetect.states import normalize_document

    with open(files.train, encoding="utf-8") as fh:
        train_ds = parse_sparse(fh, dim=dim)
    with open(files.test, encoding="utf-8") as fh:
        test_docs = parse_sparse(fh).documents[:ROUND_TRIP_SAMPLE]
    sample = [normalize_document(doc, dim) for _, doc in test_docs]
    for strategy, trainer in (("pgm", train_pgm), ("ovr", train_one_vs_rest)):
        in_memory = trainer(train_ds.documents, dim)
        loaded = load_model(files.out(strategy, "train"))
        same = all(np.array_equal(class_scores(in_memory, x), class_scores(loaded, x))
                   for x in sample)
        yield (f"{strategy} in-memory and reloaded scores are bit-identical", same,
               f"{len(sample)} documents")


def helstrom_checks(files: Files, train: reference.Corpus, timer: list[float]):
    """Each trained one-vs-rest detector's Bayes cost equals the Helstrom bound.

    Seconds spent in ``helstrom_oracle`` are appended to ``timer``.
    """
    from qdetect.binary import binary_bayes_cost
    from qdetect.dataio import load_model
    from qdetect.oracles import helstrom_oracle
    from qdetect.states import density_from_vector

    model = load_model(files.out("ovr", "train"))
    if list(model.labels) != train.classes:
        yield ("ovr labels in first-appearance order", False, f"{model.labels}")
        return
    stats, _ = train.class_stats()
    for k, detector in enumerate(model.detectors):
        rho_pos = density_from_vector(stats[k])
        rho_neg = density_from_vector(stats.sum(axis=0) - stats[k])
        xi = detector.prior_negative
        cost = binary_bayes_cost(detector, rho_pos, rho_neg, xi)
        start = time.perf_counter()
        bound = helstrom_oracle(rho_pos, rho_neg, 1.0 - xi, xi)
        timer.append(time.perf_counter() - start)
        yield (f"ovr detector {model.labels[k]} meets the Helstrom bound",
               abs(cost - bound) <= HELSTROM_ATOL, f"|cost - bound| = {abs(cost - bound):.3e}")


def check_outputs(files: Files, dim: int, digests: list[dict[str, str]]):
    """(check name, passed, detail) rows and the seconds spent in helstrom_oracle.

    A check group that raises yields one failed row instead of its checks.
    """
    train = reference.read_corpus(str(files.train), dim)
    test = reference.read_corpus(str(files.test), dim)
    oracle_s: list[float] = []
    groups = {
        "digests": lambda: digest_checks(digests),
        "reference": lambda: reference_checks(files, train, test),
        "round trip": lambda: round_trip_checks(files, dim),
        "helstrom": lambda: helstrom_checks(files, train, oracle_s),
    }
    rows = []
    for group, checks in groups.items():
        try:
            rows.extend(checks())
        except Exception as exc:  # a broken output fails its check group, not the run
            traceback.print_exc()
            rows.append((f"{group} checks ran", False, f"{type(exc).__name__}: {exc}"))
    return rows, sum(oracle_s)


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def end_to_end(untraced: list[dict], setup: dict, files: Files, test_docs: int,
               peak_rss_mb: float, times=calibrated) -> dict[str, float]:
    """End-to-end metrics, with step seconds taken from the timings by ``times``."""
    samples = [times(t) for t in untraced]

    def median(key):
        return statistics.median(s[key] for s in samples)

    values = {
        "setup_s": statistics.median(times(setup).values()),
        "session_s": statistics.median(sum(s.values()) for s in samples),
    }
    for strategy in STRATEGIES:
        values[f"{strategy}.train_s"] = median(f"{strategy}.train")
        values[f"{strategy}.evaluate_s"] = median(f"{strategy}.evaluate")
        values[f"{strategy}.predict_docs_per_s"] = test_docs / median(f"{strategy}.predict")
        values[f"{strategy}.model_bytes"] = files.out(strategy, "train").stat().st_size
        with open(files.out(strategy, "evaluate"), encoding="utf-8") as fh:
            values[f"{strategy}.accuracy"] = json.load(fh)["accuracy"]
    values["peak_rss_mb"] = peak_rss_mb
    return values


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict],
              train_docs: int) -> dict[str, float]:
    """Medians over traced sessions of each layer's rescaled self time and counts."""
    factors = {(n, key): f for n, timing in enumerate(traced)
               for key, f in scale_factors(timing).items()}
    sessions = defaultdict(lambda: defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "count": 0, "max_count": 0}))
    visited = defaultdict(int)  # documents feature_statistics reads while training ovr
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        total = sessions[span.session[0]][span.name]
        total["self_s"] += own * factors[span.session]
        total["calls"] += 1
        total["count"] += span.count
        total["max_count"] = max(total["max_count"], span.count)
        if span.session[1] == "ovr.train" and span.name == "states.feature_statistics":
            visited[span.session[0]] += span.count
    values = {
        metric: statistics.median(layers[span][field] for layers in sessions.values())
        for metric, (span, field) in LAYER_FIELDS.items()
    }
    values["states.docs_visited_per_train_doc"] = (
        statistics.median(visited[n] for n in sessions) / train_docs)
    values["traced_session_s"] = statistics.median(
        sum(calibrated(t).values()) for t in traced)
    values["trace_overhead_s"] = values["traced_session_s"] - statistics.median(
        sum(calibrated(t).values()) for t in untraced)
    return values


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("session\tcommand\tname\tstart\tend\tparent\tcount\n")
        for s in tracer.spans:
            fh.write(f"{s.session[0]}\t{s.session[1]}\t{s.name}\t{s.start:.9f}\t"
                     f"{s.end:.9f}\t{s.parent}\t{s.count}\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdetect" / "cli.py").is_file():
        print(f"qdetect sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qdetect.cli

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    spec = WORKLOADS[args.workload]
    files = Files(WORK / args.workload)
    files.root.mkdir(parents=True, exist_ok=True)
    train_text, test_text = generate(spec, args.seed)
    files.train.write_text(train_text, encoding="utf-8")
    files.test.write_text(test_text, encoding="utf-8")
    del train_text, test_text

    setup = measure_setup()
    tracer = Tracer()
    untraced: list[dict] = []
    traced: list[dict] = []
    digests: list[dict[str, str]] = []
    absent: list[str] = []
    # One unmeasured session first, so lazy set-up inside numpy and the
    # allocator does not land in the first sample; its outputs are checked too.
    _, failed, digest = run_session(qdetect.cli.main, files, spec.dim)
    digests.append(digest)
    # Repeating sessions in one process only adds heap fragmentation, so the
    # peak is the one a single session reaches.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(STRATEGIES) * len(COMMANDS)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and not traced):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        if trace_this:
            with Installed(tracer) as hooks:
                timing, bad, digest = run_session(
                    tracer.wrap("cli", qdetect.cli.main), files, spec.dim, tracer, len(traced))
            absent = hooks.absent
        else:
            timing, bad, digest = run_session(qdetect.cli.main, files, spec.dim)
        (traced if trace_this else untraced).append(timing)
        digests.append(digest)
        attempted += len(STRATEGIES) * len(COMMANDS)
        failed += bad

    metrics = end_to_end(untraced, setup, files, spec.test_docs, peak_rss_mb)
    wall_metrics = end_to_end(untraced, setup, files, spec.test_docs, peak_rss_mb,
                              times=wall_times)
    checks, oracle_s = check_outputs(files, spec.dim, digests)
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check: {name}: {detail}", file=sys.stderr)

    if args.trace:
        metrics.update(per_layer(tracer, traced, untraced, spec.train_docs))
        metrics["oracles.helstrom_oracle_s"] = oracle_s
        write_spans(tracer, files.root / "spans.tsv")
        selected = contract["per_layer"]
    else:
        selected = contract["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in selected}

    why = {w["name"]: w["why"] for w in contract["workloads"]}
    record = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "generator": dict(asdict(spec), zipf_exponent=ZIPF_EXPONENT,
                          tokens_per_doc=TOKENS_PER_DOC),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "load": "closed loop, one caller, one process",
        "sessions": {"untraced": untraced, "traced": traced},
        "setup": setup,
        "digests": digests[-1],
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "absent_hooks": absent,
        "error_rate": failed / attempted,
        "metrics": result,
        "wall_metrics": wall_metrics,
    }
    if args.trace:
        record["layer_shares"] = {  # of the traced session's seconds
            name: metrics[name] / metrics["traced_session_s"]
            for name in LAYER_FIELDS if name.endswith("_s")}
    (files.root / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, entry in result.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {failed}/{attempted} failed operations")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
