"""Exception types shared across the package."""


def _restore(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class BridgeSimError(Exception):
    """Base class for every error raised by this package.

    Pickling keeps the message and every attribute without calling
    ``__init__``, so subclasses with required keyword attributes survive
    the trip back from a worker process.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


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


class NumericalBlowupError(BridgeSimError):
    """A simulated path left the admissible region or became non-finite."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class WeightOverflowError(BridgeSimError):
    """A log-weight term evaluated to a non-finite value."""

    def __init__(self, message: str, term: str,
                 observation: int | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.term = term
        self.observation = observation
        self.step_index = step_index


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
    NumericalBlowupError: "numerical-blowup",
    WeightOverflowError: "weight-overflow",
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
