"""Dimensional analysis, perturbation expansions and multiple-scales solvers,
validated against direct numerical solutions."""

from __future__ import annotations

import math

__version__ = "0.1.0"

# the largest |e| in a decimal exponent: Python's own limit on the digits of
# an int read from a string
MAX_DECIMAL_EXPONENT = 4300


def _digits(n: int) -> int:
    """The decimal digits of |n|, without the str() that Python holds to 4300 digits."""
    d = max(1, math.floor(abs(n).bit_length() * math.log10(2)))  # the count or one less
    return d + (abs(n) >= 10**d)


def _most_digits(numbers) -> int:
    """The most digits of any numerator or denominator among exact ``numbers``, 1 if none."""
    return max((_digits(part) for v in numbers for part in (v.numerator, v.denominator)),
               default=1)


class SolverError(RuntimeError):
    """A numerical solve failed: step-size underflow, non-convergence or a
    zero pivot.  Defined here, free of numpy, so the CLI can catch it
    without loading a solver module."""


def horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + ... by Horner's rule from the highest power; 0 if empty.

    Exact coefficients and x give an exact value; numpy arrays broadcast.
    Here, free of numpy and fractions, so the integrator loads neither.
    """
    if len(coeffs) == 0:
        return 0
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def parse_fraction(text: str) -> Fraction:
    """The exact value of an integer, decimal or fraction string such as
    ``"-3/4"`` or ``"1.5e-3"``.

    Raises ValueError on a malformed string, a zero denominator and a decimal
    exponent beyond +-``MAX_DECIMAL_EXPONENT``, which ``Fraction`` would
    expand into a power of ten of any size.  ``fractions`` is imported
    here, on the first exact value a run parses.
    """
    from fractions import Fraction

    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
