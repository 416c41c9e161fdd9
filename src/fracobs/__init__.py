"""Observability and gradient reconstruction for time-fractional diffusion.

Subpackage map:

- fraccalc: Mittag-Leffler evaluation on the negative axis, decay tables,
  record grids, the Caputo derivative of sampled records, and the
  fractional integration-by-parts residual.
- spectral: Dirichlet-Laplacian modes on the unit interval/square as
  integer index rows with their eigenvalues, the basis evaluator, region
  quadrature rules, gradient coupling coefficients.
- system: sensors, the state and zonal-weight catalogs, the forward map
  with its noise draw, and the CSV form of measurement records.
- observability: gradient-strategic sensor tests, the Gram spectrum
  diagnostic, and a vanishing-output counterexample check.
- hum: Gram/right-hand-side assembly, regularized solves, and the
  iterative gradient reconstruction driver.
- cli: command line front end (simulate / reconstruct / check-strategic /
  sweep-sensor).
"""

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    FracobsError,
    InputError,
    SolvabilityError,
)

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "DomainError",
    "FracobsError",
    "InputError",
    "SolvabilityError",
]
