"""Spans recorded from outside the program, around calls into qdetect's layers.

Wrappers are installed at the module (or class) attributes each caller
resolves at call time and removed afterwards; the program's files are never
edited.  A hook whose attribute no longer exists is reported as absent, so a
later refactor changes the trace instead of breaking it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


# (owner, attribute, span name, optional work count taken from the call).
# ``_first_len`` counts the documents handed to ``feature_statistics`` and the
# matrix order handed to ``eigh``.
HOOKS = (
    ("qdetect.cli", "parse_sparse", "dataio.parse", _result_len),
    ("qdetect.cli", "save_model", "dataio.save", None),
    ("qdetect.cli", "load_model", "dataio.load", None),
    ("qdetect.cli", "train_one_vs_rest", "multiclass.train_one_vs_rest", None),
    ("qdetect.cli", "predict_dataset", "metrics.predict_dataset", None),
    ("qdetect.cli", "evaluate", "metrics.evaluate", None),
    ("qdetect.metrics", "predict_dataset", "metrics.predict_dataset", None),
    ("qdetect.metrics", "normalize_document", "states.normalize_document", None),
    ("qdetect.metrics", "class_scores", "multiclass.class_scores", None),
    ("qdetect.metrics", "binary_score", "binary.score", None),
    ("qdetect.multiclass", "binary_score", "binary.score", None),
    ("qdetect.multiclass", "build_hypotheses", "multiclass.build_hypotheses", None),
    ("qdetect.multiclass", "pgm", "multiclass.pgm", None),
    ("qdetect.multiclass", "train_binary", "binary.train_binary", None),
    ("qdetect.multiclass", "feature_statistics", "states.feature_statistics", _first_len),
    ("qdetect.multiclass:Measurement", "__post_init__", "multiclass.measurement_check", None),
    ("qdetect.binary", "feature_statistics", "states.feature_statistics", _first_len),
    ("qdetect.binary", "detector_from_densities", "binary.detector_from_densities", None),
    ("qdetect.binary:BinaryModel", "__post_init__", "binary.model_check", None),
    ("qdetect.linalg", "eigh", "linalg.eigh", _first_len),
    ("qdetect.linalg", "inv_sqrt_psd", "linalg.inv_sqrt_psd", None),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    session: tuple  # (session number, command); spans of one command share it
    count: int = 0


class Tracer:
    """Collects spans; ``wrap`` returns a traced version of a callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self.session: tuple = (0, "")
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.session)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Installed:
    """Context manager placing a tracer's wrappers on the hooks, restoring on exit."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for path, attr, name, count in self.hooks:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                self.absent.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Spans come from one thread, so children of a span never overlap and the
    covered part is the sum of the children's durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
