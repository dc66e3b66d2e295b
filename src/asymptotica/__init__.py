"""Dimensional analysis, perturbation expansions and multiple-scales solvers,
validated against direct numerical solutions."""

from fractions import Fraction

__version__ = "0.1.0"

# the largest |e| in a decimal exponent: Python's own limit on the digits of
# an int read from a string
MAX_DECIMAL_EXPONENT = 4300


class SolverError(RuntimeError):
    """A numerical solve failed: step-size underflow, non-convergence or a
    zero pivot.  Defined here, free of numpy, so the CLI can catch it
    without loading a solver module."""


def parse_fraction(text: str) -> Fraction:
    """The exact value of an integer, decimal or fraction string such as
    ``"-3/4"`` or ``"1.5e-3"``.

    Raises ValueError on a malformed string, a zero denominator and a decimal
    exponent beyond +-``MAX_DECIMAL_EXPONENT``, which ``Fraction`` would
    expand into a power of ten of any size.
    """
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
