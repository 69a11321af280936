"""Error taxonomy.

Exit-code contract for the CLI: usage errors exit 1, numerics errors
(convergence, integration, evaluation) exit 2, domain errors (bad
parameters, supercritical collapse, Pochhammer poles) exit 3.
"""
import math


class QringError(Exception):
    """Base class for all qring errors."""


class UsageError(QringError):
    exit_code = 1


class NumericsError(QringError):
    exit_code = 2


class ConvergenceError(NumericsError):
    """Iteration or truncation refinement failed to settle.

    Carries the last two estimates so callers can judge how far apart
    they still were.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class IntegrationError(NumericsError):
    """A quadrature failed its own accuracy check (two Gauss rules disagree)."""


class EvaluationError(NumericsError):
    """A closed-form expression produced a non-finite intermediate.

    term_trace holds (label, value) pairs for every factor computed
    before the failure.
    """

    def __init__(self, message, term_trace=()):
        super().__init__(message)
        self.term_trace = list(term_trace)


class DomainError(QringError):
    exit_code = 3


class ParameterError(DomainError):
    """Input outside the physical/algorithmic domain of an operation."""


class SupercriticalError(DomainError):
    """1 - 4*eta < 0: attractive inverse-square collapse, no regular state."""


class PoleError(DomainError):
    """A denominator Pochhammer hit zero before series termination."""


def _count(name, value) -> int:
    """int(value); ParameterError unless value is a non-negative integer (nan, inf are not)."""
    if not (value >= 0 and value != math.inf and int(value) == value):
        raise ParameterError(f"{name} must be a non-negative integer, got {value}")
    return int(value)
