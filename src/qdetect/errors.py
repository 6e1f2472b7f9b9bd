"""Exception hierarchy shared by all qdetect modules.

Every error carries a short machine-readable ``code`` (kebab-case) so the
command-line layer can emit a single ``ERROR <code>: <message>`` line.
"""


class QdetectError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class ConvergenceError(QdetectError):
    """Eigensolver failed to converge; message carries the residual norm."""

    code = "convergence"


class NotPsdError(QdetectError):
    """Matrix has a significantly negative eigenvalue."""

    code = "not-psd"


class DimensionMismatchError(QdetectError):
    code = "dim-mismatch"


class DegenerateClassError(QdetectError):
    """A training class produced an all-zero statistics vector."""

    code = "degenerate-class"


class DegenerateCorpusError(QdetectError):
    """Corpus cannot support the requested training (e.g. single class)."""

    code = "degenerate-corpus"


class DegenerateDocumentError(QdetectError):
    """Document with no nonzero features where one is required."""

    code = "degenerate-document"


class InvalidPriorError(QdetectError):
    code = "invalid-prior"


class DegenerateSeparationError(QdetectError):
    """Positive and negative class vectors are numerically parallel."""

    code = "degenerate-separation"


class NotRankOneError(QdetectError):
    code = "not-rank-one"


class ParseError(QdetectError):
    code = "parse"


class SplitError(QdetectError):
    code = "empty-split"


class FormatError(QdetectError):
    """Model or cost file violates the expected schema."""

    code = "format"


class UnsupportedVersionError(QdetectError):
    code = "unsupported-version"


class UnseenLabelError(QdetectError):
    """Evaluation data contains labels the model was not trained on."""

    code = "unseen-labels"
