"""Exception types shared across the library, and the positivity check."""

import math


class LiesegangError(Exception):
    """Base class for all library errors."""


class InvalidParameter(LiesegangError):
    """An argument violates a documented precondition."""


class NoRoot(LiesegangError):
    """Root bracketing failed; the solvability condition is violated."""


class QuadratureFailure(LiesegangError):
    """Numerical integration could not meet the requested tolerance."""


class SingularAtZero(LiesegangError):
    """Kernel density requested at theta = 0 where it diverges."""


class TangentialTemplate(LiesegangError):
    """Template solution has a non-transversal second zero."""


class BridgeInfeasible(LiesegangError):
    """The degenerate construction cannot meet one of its constraints: the
    gap bridge or K_eps at one epsilon, the epsilon scan, the head's tail
    power or its spline weight.  The message names which."""


class VerificationFailed(LiesegangError):
    """A constructed object failed one of its defining identities."""


class PicardStall(LiesegangError):
    """A node equation of the relay march did not converge in 60 steps."""


class SingularPanel(LiesegangError):
    """A first-kind panel coefficient is too small to divide by."""


def require_positive(**values) -> None:
    """Raise InvalidParameter unless each value lies in (0, inf); NaN fails."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise InvalidParameter(f"{name} must be positive and finite, got {v}")
