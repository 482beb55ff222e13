"""Exception types shared across the package."""


class BridgeSimError(Exception):
    """Base class for every error raised by this package.

    Default pickling keeps the message and every attribute, so each
    error survives the trip back from a worker process.
    """


class InvalidConfigurationError(BridgeSimError, ValueError):
    """Run parameters violate a documented precondition.

    ``field`` optionally carries a dotted path into the offending
    configuration entry, e.g. ``observations[1].window``.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidObservationError(BridgeSimError, ValueError):
    """An observation set violates its invariants."""

    def __init__(self, message: str, index: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.index = index
        self.field = field


class EllipticityViolationError(BridgeSimError):
    """A diffusion covariance failed an SPD factorization or eigenvalue bound."""


class DegenerateEnsembleError(BridgeSimError):
    """Every ensemble weight vanished; no estimate can be formed."""


class UnstableRunError(BridgeSimError):
    """Too large a fraction of paths failed during an ensemble run."""


class DegenerateConditioningError(BridgeSimError):
    """Gaussian conditioning was requested on inconsistent degenerate data."""


ERROR_KIND = {
    InvalidConfigurationError: "invalid-configuration",
    InvalidObservationError: "invalid-observation",
    EllipticityViolationError: "ellipticity-violation",
    DegenerateEnsembleError: "degenerate-ensemble",
    UnstableRunError: "unstable-run",
    DegenerateConditioningError: "degenerate-conditioning",
}


def error_kind(exc: BaseException) -> str:
    """Stable kebab-case identifier for an exception, used by the CLI."""
    for cls, kind in ERROR_KIND.items():
        if isinstance(exc, cls):
            return kind
    return "internal-error"
