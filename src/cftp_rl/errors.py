"""Exception types shared across the package."""


class NonErgodicError(ValueError):
    """The chain has no single closed class, or that class is periodic (``MarkovChain.require_coalescing``)."""


class SolveError(RuntimeError):
    """A linear solve produced a residual beyond the accepted tolerance."""


class CapExceededError(RuntimeError):
    """An iteration or simulation-step cap was hit before termination.

    Signals slow mixing, slow coalescence, or a misconfigured instance.
    """
