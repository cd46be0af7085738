"""Exception hierarchy shared across the package.

A rate is valid where it evaluates to a finite number >= 0.  An invalid
rate at a point of model space (``model.eval_rates`` and the scalar
forms built on it, the sup constants of the deviation bounds) raises
:class:`RateError`; at a lattice state (the engine step, the coupled-pair
loop, and ``engine.lattice_rates`` behind the restricted generator and the
K1 and K2 scans) it raises :class:`SimulationError`, also on a jump that a
restriction switches off there.
"""


class DdjumpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DdjumpError):
    """Malformed model configuration text.

    Carries a 1-based ``line`` (and ``col`` where meaningful) pointing at the
    offending location.
    """

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ExprSyntaxError(ConfigError):
    """Syntax error inside a rate expression."""


class UnknownParameterError(ConfigError):
    """A rate expression references a name that is neither a variable nor a bound parameter."""


class DimensionMismatchError(ConfigError):
    """A jump vector or variable index disagrees with the model dimension."""


class DomainError(DdjumpError):
    """A point lies outside the model's state-space domain."""


class RateError(DdjumpError):
    """An invalid rate at a point of model space (a scaled state y)."""


class CertificateError(DdjumpError):
    """The stability certificate cannot be constructed (assumption violated)."""


class ConvergenceError(DdjumpError):
    """An iterative solver failed to converge."""


class NotSpanningError(DdjumpError):
    """A decomposition was requested for a jump set that is not spanning."""


class InconclusiveError(DdjumpError):
    """Lattice classification exhausted its search budget without a witness."""


class CapExceededError(DdjumpError):
    """A state-space enumeration would exceed the configured cap."""


class KeyRangeError(DdjumpError):
    """A lattice box holds more points than int64 keys can number."""


class HorizonError(DdjumpError):
    """A time horizon was exhausted before the sought event occurred."""


class SimulationError(DdjumpError):
    """An invalid rate r(X / N) at a lattice state X the chain can visit."""
