"""Exception types shared across the toolkit."""


class StratumError(ValueError):
    """Base class for invalid inputs to stratum operations."""


class SignatureError(StratumError):
    """A signature or argument violates a structural precondition."""


class RotationError(StratumError):
    """A rotation or torsion order is invalid for the given signature."""


class UnsupportedCase(StratumError):
    """The requested case falls outside the supported tables or budgets."""
