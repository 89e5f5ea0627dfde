"""Exception hierarchy for physics and I/O failure modes."""


class AfqError(Exception):
    """Base class for all toolkit errors."""


class DomainError(AfqError, ValueError):
    """Evaluation outside a function's mathematical domain."""


class ContactRegimeError(AfqError, ValueError):
    """Bias distance inside the contact region (x <= 1.1 sigma)."""


class SnapInError(AfqError, ValueError):
    """Static instability: attractive force gradient exceeds the spring."""


class SingularModelError(AfqError, ValueError):
    """A closed-form expression is undefined at the requested point."""


class OrderMismatchError(AfqError, ValueError):
    """Taylor coefficients that do not fit the computation: expanded to too
    low an order, or about a point other than the bias gap."""


class ConvergenceError(AfqError, RuntimeError):
    """Numerical result failed its self-consistency check."""


class LabelingError(AfqError, RuntimeError):
    """Eigenstate labeling ambiguous (too close to resonance)."""


class ConfigError(AfqError, ValueError):
    """Configuration file parse or schema violation."""
