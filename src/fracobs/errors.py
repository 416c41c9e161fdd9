"""Exception types shared across the package.

Validation failures split into DomainError (a mathematical argument is
outside the operator's domain) and InputError (malformed or inconsistent
data structures). An AccuracyError names the failing point in its
message alone; the other numerical failures carry their diagnostics: a
SolvabilityError names the offending eigenvalue, and a ConvergenceError
keeps the best iterate seen together with the residual history.
"""

from __future__ import annotations


class FracobsError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(FracobsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InputError(FracobsError, ValueError):
    """Inputs are structurally invalid or mutually inconsistent."""


class AccuracyError(FracobsError, RuntimeError):
    """A numerical routine could not certify the requested accuracy."""


class SolvabilityError(FracobsError, RuntimeError):
    """A linear system is singular at the working tolerance."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class ConvergenceError(FracobsError, RuntimeError):
    """An iteration hit its cap before reaching the target residual."""

    def __init__(self, message, best=None, residual_history=()):
        super().__init__(message)
        self.best = best
        self.residual_history = tuple(residual_history)
