"""Dimensional analysis, perturbation expansions and multiple-scales solvers,
validated against direct numerical solutions."""

__version__ = "0.1.0"


class SolverError(RuntimeError):
    """A numerical solve failed: step-size underflow, non-convergence or a
    zero pivot.  Defined here, free of numpy, so the CLI can catch it
    without loading a solver module."""
