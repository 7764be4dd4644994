"""Exception types shared across the package."""


class QloccError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QloccError, ValueError):
    """A parameter lies outside its allowed domain."""


class NotAState(QloccError, ValueError):
    """A matrix fails the density-matrix invariants beyond tolerance."""


class ConvergenceFailure(QloccError, ArithmeticError):
    """A LAPACK eigenvalue or singular-value solve did not converge."""


class SpectrumError(QloccError, ArithmeticError):
    """The state violates the clamp policy (an eigenvalue below -1e-9);
    signals a bug, not conditioning."""


class NotPhysical(QloccError, ValueError):
    """An operator has a singular value above one and cannot be realized
    as a measurement branch."""


class FilteredOut(QloccError, ArithmeticError):
    """A filtering branch succeeds with probability below threshold; all
    particles are filtered out."""


class NotAttained(QloccError, ArithmeticError):
    """The filtering normal form is not reached: a marginal is singular, or
    the marginals are still not proportional to 1 after the iteration
    budget (the filters then grow without bound), so no finite filter pair
    attains the optimum."""


class NotEntangled(QloccError, ValueError):
    """An operation requiring entanglement received a separable input."""


class TargetNotReached(QloccError, RuntimeError):
    """Fidelity iteration exhausted its step budget; carries the trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
