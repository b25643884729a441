"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: precondition and validation
failures exit 2, solver non-convergence exits 3, and a certified
unsolvable problem exits 4.
"""


class KWTorusError(Exception):
    """Base class for all package errors."""


class ConfigError(KWTorusError, ValueError):
    """Invalid configuration or option value (a bad config key, an
    unknown strategy, a nonpositive linear tolerance, a nonnegative c
    where c < 0 is required, ...).

    It is also a ValueError, so callers that catch ValueError for bad
    arguments keep working."""


class GridError(KWTorusError, ValueError):
    """Invalid grid specification or mismatched field shapes; also a
    ValueError, as ConfigError is."""


class FileFormatError(KWTorusError):
    """Malformed field file (bad magic, rank, or payload size)."""


class ExprSyntaxError(KWTorusError):
    """Expression text failed to parse.

    ``offset`` is the 0-based byte offset of the failure.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(KWTorusError):
    """Expression evaluation left the real domain or produced non-finite values."""


class DegenerateError(KWTorusError):
    """Coefficient n*t - t + 1 vanishes and the requested path needs it nonzero,
    or the degenerate pointwise solve got sign-violating inputs."""


class GauduchonError(KWTorusError):
    """One-form failed the co-closedness (divergence-free) validation."""


class SolvabilityError(KWTorusError):
    """A stated solvability precondition is violated (for example a
    nonzero-mean right-hand side for the singular linear problem)."""


class CertificateError(KWTorusError):
    """Sub/super-solution certificate preconditions violated."""


class SolverError(KWTorusError):
    """Iterative solver failed to converge within its budget."""
