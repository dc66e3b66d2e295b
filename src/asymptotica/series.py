"""Truncated power series in a small parameter and perturbation expansions of roots.

A :class:`PerturbationSeries` is the finite list of coefficients
``a_0 + a_1*eps + ... + a_N*eps**N``; arithmetic never reads beyond order N.
Coefficients may be exact (``int``/``Fraction``/sympy expressions) or floating
(``float``/``complex``).  When every input is exact the whole computation
stays exact, which is what lets the quadratic and quintic root expansions be
checked coefficient-by-coefficient instead of to a tolerance.

:func:`expand_root` solves the perturbation hierarchy of a polynomial family
order by order.  The order-p coefficient always satisfies a *linear* equation
whose operator is multiplication by the derivative of the unperturbed
polynomial at the starting root; the right hand side is assembled by
evaluating the polynomial on the partially-built series and reading off the
eps**p coefficient, so no symbolic differentiation is needed and the same
code covers quadratic, quintic and rescaled singular families.

:func:`rescale_singular` performs the substitution ``x = eps**(-p) * y`` and
clears the smallest power of eps, which turns a singular family (degree drops
at eps=0) into a regular one whose lost root is order one.

:func:`euler_f` and :func:`euler_partial_sum` evaluate the classic divergent
asymptotic series example: the exponential integral f(eps) = int_0^inf
exp(-t)/(1+eps*t) dt against its partial sums sum (-1)^n n! eps^n, with the
remainder bound |f - S_m| <= (m+1)! eps^(m+1).  f is evaluated in closed
form through the exponential integral E1 (mpmath), not by adaptive
quadrature, and comes back correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# horner and derivative are defined at the package root and re-exported here
from . import MAX_DECIMAL_EXPONENT, _most_digits, derivative, horner


class DegenerateRootError(ValueError):
    """The starting point is not a simple root of the unperturbed polynomial.

    The expansion in integer powers of eps does not exist there; a scaling
    transform (see :func:`rescale_singular`) is the standard escape hatch.
    """


def _is_exact(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, (float, complex)):
        return False
    try:  # sympy values count as exact unless they contain a Float
        import sympy

        if isinstance(x, sympy.Expr):
            return not x.has(sympy.Float)
    except ImportError:
        pass
    return False


@dataclass(frozen=True)
class PerturbationSeries:
    """Coefficients a_0..a_N of a series truncated at order N."""

    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("a series needs at least the order-zero coefficient")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coefficients)

    def __getitem__(self, i: int):
        return self.coefficients[i]

    def _check_order(self, other: "PerturbationSeries"):
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "PerturbationSeries") -> "PerturbationSeries":
        self._check_order(other)
        return PerturbationSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __mul__(self, other: "PerturbationSeries") -> "PerturbationSeries":
        """Cauchy product truncated at the common order."""
        self._check_order(other)
        a, b = self.coefficients, other.coefficients
        out = []
        for p in range(self.order + 1):
            s = a[0] * b[p]
            for m in range(1, p + 1):
                s = s + a[m] * b[p - m]
            out.append(s)
        return PerturbationSeries(tuple(out))

    def __call__(self, eps):
        """Evaluate by Horner's rule at a numeric eps."""
        return horner(self.coefficients, eps)

    def truncated(self, order: int) -> "PerturbationSeries":
        """The series at truncation order ``order``: cut, or padded with exact zeros."""
        return PerturbationSeries(self.coefficients[: order + 1] + (0,) * (order - self.order))


@dataclass(frozen=True)
class PolyFamily:
    """Polynomial in x whose coefficients are series in eps.

    ``coefficients[j]`` multiplies x**j.  ``eps_denominator`` is 1 except
    when a fractional rescale has re-expressed the family in the variable
    eps**(1/q); it is metadata only and does not change the arithmetic.
    """

    coefficients: tuple[PerturbationSeries, ...]
    eps_denominator: int = 1

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a polynomial family needs at least one coefficient")
        orders = {c.order for c in self.coefficients}
        if len(orders) != 1:
            raise ValueError("coefficient series must share one truncation order")
        lead = self.coefficients[-1]
        if all(c == 0 for c in lead.coefficients):
            raise ValueError("leading x-coefficient series is identically zero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def order(self) -> int:
        return self.coefficients[0].order

    @staticmethod
    def from_coefficients(nested: Sequence[Sequence]) -> "PolyFamily":
        """Build from nested arrays: ``nested[j][m]`` multiplies x**j * eps**m."""
        order = max(len(c) for c in nested) - 1
        series = tuple(
            PerturbationSeries(tuple(c) + (0,) * (order + 1 - len(c)))
            for c in nested
        )
        return PolyFamily(series)

    def evaluate_series(self, x: PerturbationSeries) -> PerturbationSeries:
        """P(x(eps), eps) truncated at the order of x, by Horner's rule."""
        return horner([c.truncated(x.order) for c in self.coefficients], x)

    def evaluate(self, x, eps):
        """Numeric P(x, eps)."""
        return horner([c(eps) for c in self.coefficients], x)


def expand_root(p: PolyFamily, a0, n_order: int) -> PerturbationSeries:
    """Perturbation expansion of the root of P(x, eps) = 0 starting at x(0) = a0.

    Solves the hierarchy order by order: the order-p coefficient satisfies
    ``L a_p = -r_p`` where L = P'(a0) at eps=0 and r_p is the eps**p
    coefficient of P evaluated on the series built so far.

    In exact arithmetic each coefficient, a0 included, is checked as it is
    made: one whose numerator or denominator has more digits than Python
    prints an int with (``MAX_DECIMAL_EXPONENT``) raises ValueError naming its
    order, before the later orders, which grow further, are computed.
    """
    exact = all(c.is_exact for c in p.coefficients) and _is_exact(a0)
    c0 = [c[0] for c in p.coefficients]  # the eps = 0 polynomial
    value = horner(c0, a0)
    deriv = horner(derivative(c0), a0)
    if exact:
        if isinstance(deriv, int):
            deriv = Fraction(deriv)  # int / int would round to a float
        if value != 0:
            raise ValueError(f"a0={a0} is not a root of the unperturbed polynomial")
        if deriv == 0:
            raise DegenerateRootError(
                "unperturbed derivative vanishes at a0; the root is degenerate "
                "and needs a singular rescale (rescale_singular) first"
            )
    else:
        scale = (1 + abs(a0)) ** max(p.degree - 1, 0)
        if abs(value) > 1e-9 * (1 + abs(a0)) ** p.degree:
            raise ValueError(f"a0={a0} is not a root of the unperturbed polynomial")
        if abs(deriv) <= 1e-12 * scale:
            raise DegenerateRootError(
                "unperturbed derivative is below the simple-root tolerance at a0; "
                "use rescale_singular to recover the lost root"
            )
    coeffs = [a0]
    for order in range(n_order + 1):
        if order:
            x = PerturbationSeries(tuple(coeffs) + (0,) * (order + 1 - len(coeffs)))
            coeffs.append(-p.evaluate_series(x)[order] / deriv)
        if exact and isinstance(coeffs[-1], (int, Fraction)):
            need = _most_digits(coeffs[-1:])
            if need > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"order {order} needs {need}-digit coefficients, above the "
                                 f"limit of {MAX_DECIMAL_EXPONENT}")
    return PerturbationSeries(tuple(coeffs))


MAX_RESCALED_TERMS = 4096  # coefficients per rescaled series: q times the exponent span


def rescale_singular(p: PolyFamily, scale_exponent) -> PolyFamily:
    """Substitute x = eps**(-p) * y and clear the smallest power of eps.

    ``scale_exponent`` must be rational.  For integer exponent grids the
    result is a plain family in eps; fractional grids are re-expressed in
    the variable eps**(1/q) with q recorded in ``eps_denominator``.
    """
    if isinstance(scale_exponent, float):
        raise TypeError("scale exponent must be rational (int or Fraction), not float")
    pexp = Fraction(scale_exponent)
    if pexp == 0:
        return p
    # exponent -> coefficient maps per power of x, after the substitution
    terms: list[dict[Fraction, object]] = []
    exponents: list[Fraction] = []
    for j, cj in enumerate(p.coefficients):
        tj: dict[Fraction, object] = {}
        for m, c in enumerate(cj.coefficients):
            if c == 0:
                continue
            tj[Fraction(m) - pexp * j] = c
        terms.append(tj)
        exponents.extend(tj.keys())
    if not exponents:
        raise ValueError("polynomial family is identically zero")
    mu = min(exponents)
    q = math.lcm(*((e - mu).denominator for e in exponents))
    max_power = max(int((e - mu) * q) for e in exponents)
    if max_power >= MAX_RESCALED_TERMS:
        raise ValueError(
            f"the rescaled family needs {max_power + 1} eps powers, above the budget of "
            f"{MAX_RESCALED_TERMS}; use an exponent with a smaller denominator"
        )
    new_coeffs = []
    for tj in terms:
        arr = [0] * (max_power + 1)
        for e, c in tj.items():
            arr[int((e - mu) * q)] = c
        new_coeffs.append(PerturbationSeries(tuple(arr)))
    return PolyFamily(tuple(new_coeffs), eps_denominator=q * p.eps_denominator)


def euler_partial_sum(eps, m: int):
    """Partial sum S_m = sum_{n=0}^{m} (-1)^n n! eps^n of the divergent expansion."""
    if m < 0:
        raise ValueError("partial sum order must be >= 0")
    total = 0
    term = 1  # (-1)^n n! eps^n, built incrementally
    for n in range(m + 1):
        if n > 0:
            term = term * (-n) * eps
        total = total + term
    return total


def euler_remainder_bound(eps: float, m: int) -> float:
    """(m+1)! eps^(m+1), the analytic bound on |f(eps) - S_m(eps)|."""
    return math.factorial(m + 1) * float(eps) ** (m + 1)


def euler_f(eps: float) -> float:
    """f(eps) = int_0^inf exp(-t) / (1 + eps t) dt, correctly rounded.

    Substituting s = 1 + eps t gives f = z e^z E1(z) with z = 1/eps, which
    mpmath evaluates at 30 significant digits inside a local ``workdps``, so
    the caller's global ``mpmath.mp`` precision plays no part.  Since
    0 < f <= 1, the value is within 1.2e-16 of f.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    import mpmath

    with mpmath.workdps(30):
        z = 1 / mpmath.mpf(float(eps))
        return float(z * mpmath.exp(z) * mpmath.e1(z))
