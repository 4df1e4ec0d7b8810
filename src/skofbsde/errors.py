"""Semantic exception hierarchy shared by all modules."""


class SkofbsdeError(Exception):
    """Base class for all package errors."""


class ConfigError(SkofbsdeError):
    """Invalid or malformed run configuration."""


class DomainError(SkofbsdeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DiracMeasureError(SkofbsdeError):
    """Target law is (numerically) a point mass; the quantile transform is constant."""


class NonLipschitzError(SkofbsdeError):
    """Quantile transform has no finite Lipschitz constant; solver input rejected."""


class HorizonError(DomainError):
    """Clock inversion requested beyond the tabulated horizon, whose end
    ``H(T_phys)`` is the solver's x2 box ``x2_hi``."""


class ContractionError(SkofbsdeError):
    """Per-step fixed-point iteration failed to converge.

    Carries the residual history of the failing step.
    """

    def __init__(self, msg: str, residuals=None):
        super().__init__(msg)
        self.residuals = list(residuals) if residuals is not None else []


class CutoffActiveError(SkofbsdeError):
    """The gradient cutoff was not passive; the solved field is untrustworthy."""


class DerivativeMismatchError(SkofbsdeError):
    """Finite-difference and coupled-system derivative estimates disagree.

    Carries the location ``(t_index, x1_index, x2_index)`` and size of the
    worst discrepancy.
    """

    def __init__(self, msg: str, location=None, discrepancy: float | None = None):
        super().__init__(msg)
        self.location = location
        self.discrepancy = discrepancy
