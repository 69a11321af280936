"""Error taxonomy.

Exit-code contract for the CLI: usage errors exit 1, numerics errors
(convergence, integration, evaluation) exit 2, domain errors (bad
parameters, supercritical collapse, Pochhammer poles) exit 3.
"""
import math
import sys

import numpy as np

_MAX_POINTS = 10 ** 6  # largest grid, range or count of recurrence steps, refused before any work


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


def _count(name, value, top=sys.float_info.max) -> int:
    """int(value); ParameterError unless value is an integer in [0, top] (nan, inf are not)."""
    if not (value >= 0 and value != math.inf and int(value) == value):
        raise ParameterError(f"{name} must be a non-negative integer, got {value}")
    if int(value) > top:
        raise ParameterError(f"{name} = {value} is above {top}")
    return int(value)


def _widen(x):
    """x as a float64 array: a float32 widens, and a Python int past the largest double is +-inf."""
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:  # no float comparison, which would flag a nan as invalid
        return np.vectorize(lambda v: math.inf * (1 if v > 0 else -1) if isinstance(v, int)
                            and abs(v) > sys.float_info.max else float(v), otypes=[float])(x)


def _real(name, value, low=-math.inf, strict=False):
    """value through _widen, a float if 0-d; ParameterError naming the first entry, as the
    caller gave it, that is not finite or is below low (or at low, when strict)."""
    x = _widen(value)
    v = x if x.ndim else float(x)  # a float compares without numpy's per-call cost
    ok = (abs(v) < math.inf) & ((v > low) if strict else (v >= low))
    if not (ok.all() if x.ndim else ok):
        given = np.ravel(np.array(value, dtype=object))[np.argmin(ok)] if x.ndim else value
        rule = f" and {'>' if strict else '>='} {low}" if low > -math.inf else ""
        raise ParameterError(f"{name} must be finite{rule}, got {given}")
    return v
