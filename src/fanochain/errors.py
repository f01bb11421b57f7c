"""Exception types shared across the package."""


class FanochainError(Exception):
    """Base class for all package errors."""


class ModelError(FanochainError):
    """A model descriptor violates a field constraint."""


class BranchPointError(FanochainError):
    """Evaluation requested exactly at a square-root branch point (z = +/-1)."""


class ConvergenceError(FanochainError):
    """An iterative solver failed to converge.

    The ``trace`` attribute holds the iterates that were produced before
    giving up, which is usually enough to diagnose a bad seed.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class RootCountError(FanochainError):
    """A root of the dispersion polynomial missed the |eta| < root_tol gate.

    Every root is one state by construction, so this is the only census
    fault.  Carries each rejected root with its dispersion residual so the
    failure can be inspected without re-running the solve.
    """

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = list(candidates) if candidates is not None else []


class NearExceptionalPointError(FanochainError):
    """The normalization constant is requested too close to an exceptional
    point, where it diverges."""
