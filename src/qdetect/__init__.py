"""Detection-theoretic classifiers over density operators.

Binary detection keeps an orthonormal basis of the positive eigenspace of the
prior-weighted density difference; multi-class detection builds measurements
that resolve the identity and minimize the Bayes average cost, checked
against closed-form and brute-force oracles.
"""

from qdetect.binary import (
    BinaryModel,
    binary_bayes_cost,
    decide,
    detector_from_densities,
    score,
    train_binary,
)
from qdetect.dataio import (
    LabeledDataset,
    SplitSpec,
    load_model,
    parse_sparse,
    save_model,
    serialize_sparse,
    split,
)
from qdetect.metrics import EvalReport, evaluate, predict_dataset, report_from_confusion
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
from qdetect.oracles import GridPartition, grid_oracle_dim2, helstrom_oracle
from qdetect.states import (
    ClassStatVector,
    FeatureVector,
    density_from_vector,
    feature_statistics,
    normalize_document,
)
from qdetect.synth import synth_corpus

__version__ = "0.1.0"

__all__ = [
    "BinaryModel",
    "ClassStatVector",
    "EvalReport",
    "FeatureVector",
    "GridPartition",
    "HypothesisSet",
    "LabeledDataset",
    "Measurement",
    "MulticlassModel",
    "SplitSpec",
    "average_cost",
    "binary_bayes_cost",
    "build_hypotheses",
    "class_scores",
    "classify",
    "decide",
    "density_from_vector",
    "detector_from_densities",
    "evaluate",
    "feature_statistics",
    "grid_oracle_dim2",
    "helstrom_oracle",
    "load_model",
    "measurement_vectors",
    "normalize_document",
    "parse_sparse",
    "pgm",
    "predict_dataset",
    "report_from_confusion",
    "save_model",
    "score",
    "serialize_sparse",
    "split",
    "synth_corpus",
    "train_binary",
    "train_one_vs_rest",
    "train_pgm",
    "zero_one_cost",
]
