import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica.series import (
    DegenerateRootError,
    PerturbationSeries,
    PolyFamily,
    euler_f,
    euler_partial_sum,
    euler_remainder_bound,
    expand_root,
    rescale_singular,
)


def S(*coeffs):
    return PerturbationSeries(tuple(coeffs))


QUADRATIC = PolyFamily.from_coefficients(
    [[Fraction(0), Fraction(1)], [Fraction(-1)], [Fraction(1)]]
)  # x^2 - x + eps


SINGULAR = PolyFamily.from_coefficients(
    [[Fraction(-1)], [Fraction(1)], [Fraction(0), Fraction(1)]]
)  # eps x^2 + x - 1


def test_series_product():
    one_plus = S(1, 1, 0)
    assert (one_plus * one_plus).coefficients == (1, 2, 1)


def test_series_times_zero():
    a = S(3, -2, 5)
    zero = S(0, 0, 0)
    assert (a * zero).coefficients == (0, 0, 0)


def test_geometric_identity():
    assert (S(1, -1, 0) * S(1, 1, 1)).coefficients == (1, 0, 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        S(1, 2) * S(1, 2, 3)


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError, match="leading"):
        PolyFamily.from_coefficients([[1, 2], [0, 0]])


def test_truncated_cuts_and_pads_exact_series():
    a = S(Fraction(1), Fraction(-2), Fraction(3, 4))
    assert a.truncated(0).coefficients == (1,)
    assert a.truncated(1).coefficients == (1, -2)
    assert a.truncated(2) == a
    padded = a.truncated(4)
    assert padded.coefficients == (1, -2, Fraction(3, 4), 0, 0)
    assert padded.is_exact


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small_fracs, min_size=4, max_size=4),
    st.lists(small_fracs, min_size=4, max_size=4),
    st.lists(small_fracs, min_size=4, max_size=4),
)
def test_ring_identities(a, b, c):
    sa, sb, sc = S(*a), S(*b), S(*c)
    assert (sa * sb).coefficients == (sb * sa).coefficients
    assert ((sa + sb) * sc).coefficients == (sa * sc + sb * sc).coefficients


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fracs, min_size=3, max_size=3), small_fracs)
def test_truncated_evaluation_consistency(a, e):
    # Horner evaluation agrees with the definition of the truncated series
    sa = S(*a)
    assert sa(e) == a[0] + a[1] * e + a[2] * e * e


def test_quadratic_expansion_exact():
    exp = expand_root(QUADRATIC, Fraction(1), 4)
    assert exp.coefficients == (
        Fraction(1),
        Fraction(-1),
        Fraction(-1),
        Fraction(-2),
        Fraction(-5),
    )
    assert exp.is_exact


def test_int_family_expands_to_exact_catalan_numbers():
    # x - 1 + eps x^2 = 0 at x(0) = 1: the signed Catalan numbers.  Dividing by
    # the int P'(1) used to give floats, so is_exact was False.
    exp = expand_root(PolyFamily.from_coefficients([[-1], [1], [0, 1]]), 1, 6)
    assert exp.coefficients == (1, -1, 2, -5, 14, -42, 132)
    assert not any(isinstance(c, float) for c in exp.coefficients)
    assert exp.is_exact


def test_quintic_expansion_exact_symbolic():
    family = PolyFamily.from_coefficients(
        [
            [sympy.Integer(0), sympy.Integer(1)],
            [sympy.Integer(-2)],
            [sympy.Integer(0)],
            [sympy.Integer(0)],
            [sympy.Integer(0)],
            [sympy.Integer(1)],
        ]
    )  # x^5 - 2x + eps
    exp = expand_root(family, sympy.root(2, 4), 2)
    assert sympy.simplify(exp[1] - sympy.Rational(-1, 8)) == 0
    assert sympy.simplify(exp[2] + 5 * sympy.root(8, 4) / 256) == 0


def test_constant_polynomial_expansion():
    # x - c has the flat expansion (c, 0, ..., 0)
    c = Fraction(7, 3)
    family = PolyFamily.from_coefficients([[-c], [Fraction(1)]])
    exp = expand_root(family, c, 5)
    assert exp.coefficients == (c, 0, 0, 0, 0, 0)


def test_degenerate_root_refused():
    # x^2 - 2x + 1 + eps has a double root at 1
    family = PolyFamily.from_coefficients(
        [[Fraction(1), Fraction(1)], [Fraction(-2)], [Fraction(1)]]
    )
    with pytest.raises(DegenerateRootError, match="rescale"):
        expand_root(family, Fraction(1), 3)


def test_non_root_refused():
    with pytest.raises(ValueError, match="not a root"):
        expand_root(QUADRATIC, Fraction(2), 3)


def test_rescale_unit_exponent():
    rescaled = rescale_singular(SINGULAR, 1)
    assert [c.coefficients for c in rescaled.coefficients] == [
        (0, Fraction(-1)),
        (Fraction(1), 0),
        (Fraction(1), 0),
    ]  # y^2 + y - eps
    assert rescaled.eps_denominator == 1


def test_rescale_zero_is_identity():
    assert rescale_singular(SINGULAR, 0) is SINGULAR


def test_rescale_then_expand_recovers_lost_root():
    rescaled = rescale_singular(SINGULAR, 1)
    exp = expand_root(rescaled, Fraction(-1), 2)
    assert exp.coefficients == (Fraction(-1), Fraction(-1), Fraction(1))
    # x(eps) = -1/eps - 1 + eps; check against the exact quadratic root
    eps = 0.1
    x = float(exp(eps)) / eps
    x_exact = (-1.0 - math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    assert abs(x - x_exact) < 0.02


def test_rescale_fractional_exponent_uses_substituted_variable():
    rescaled = rescale_singular(SINGULAR, Fraction(1, 2))
    assert rescaled.eps_denominator == 2
    # sqrt(eps) y^2 + y - sqrt(eps): leading coefficient has zero constant term,
    # which is exactly why this scaling loses the order-one root
    assert rescaled.coefficients[-1][0] == 0


def test_rescale_rejects_float_exponent():
    with pytest.raises(TypeError):
        rescale_singular(SINGULAR, 0.5)


@pytest.mark.parametrize("n_order", [2, 4])
def test_residual_order(n_order):
    # |P(x(eps), eps)| ~ eps^(N+1): slope measured in exact arithmetic
    exp = expand_root(QUADRATIC, Fraction(1), n_order)
    eps_values = [Fraction(1, 10**j) for j in range(1, 5)]
    residuals = [abs(QUADRATIC.evaluate(exp(e), e)) for e in eps_values]
    slope = np.polyfit(
        np.log([float(e) for e in eps_values]),
        np.log([float(r) for r in residuals]),
        1,
    )[0]
    assert slope >= n_order + 0.9


def test_euler_partial_sum_values():
    assert euler_partial_sum(0.3, 0) == 1.0
    assert euler_partial_sum(0.1, 2) == pytest.approx(0.92, abs=1e-15)


def test_euler_limit_and_monotonicity():
    # f(eps) -> 1 as eps -> 0+, and f decreases in eps
    values = [euler_f(e) for e in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5)]
    assert values[0] == pytest.approx(1.0, abs=1e-5)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_euler_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        euler_f(0.0)
    with pytest.raises(ValueError):
        euler_f(-0.1)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
def test_euler_remainder_bound(eps):
    # the float path can only witness the bound while the bound sits well
    # above its quadrature tolerance; the full grid is checked in high
    # precision below
    quad_tol = 1e-12
    f_val = euler_f(eps)
    for m in range(13):
        bound = euler_remainder_bound(eps, m)
        if bound > 10.0 * quad_tol:
            assert abs(f_val - euler_partial_sum(eps, m)) <= bound


@pytest.mark.parametrize("eps_frac", [Fraction(1, 100), Fraction(1, 20), Fraction(1, 10)])
def test_euler_remainder_bound_high_precision(eps_frac):
    # independent oracle: tanh-sinh quadrature at 30 significant digits with
    # exact-rational partial sums; the remainder bound holds on the whole grid
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        eps = mpmath.mpf(eps_frac.numerator) / eps_frac.denominator
        f_val = mpmath.quad(lambda t: mpmath.e ** (-t) / (1 + eps * t), [0, mpmath.inf])
        for m in range(13):
            partial = euler_partial_sum(eps_frac, m)  # exact Fraction
            err = abs(f_val - mpmath.mpf(partial.numerator) / partial.denominator)
            bound = mpmath.factorial(m + 1) * eps ** (m + 1)
            assert err <= bound
    # and the production float evaluation agrees with the oracle
    assert abs(euler_f(float(eps_frac)) - float(f_val)) < 1e-12


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.05, 0.1, 0.5, 5.0])
def test_euler_f_ignores_global_mpmath_precision(eps):
    mpmath = pytest.importorskip("mpmath")
    values = []
    for dps in (15, 50):
        with mpmath.workdps(dps):  # sets the global mp.dps a caller would have set
            values.append(euler_f(eps))
            assert mpmath.mp.dps == dps  # and euler_f leaves it as it found it
    assert values[0] == values[1]


def test_euler_f_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for eps in (0.01, 0.05, 0.1, 1.0):
            e = mpmath.mpf(eps)
            exact = mpmath.quad(lambda t: mpmath.exp(-t) / (1 + e * t), [0, mpmath.inf])
            assert euler_f(eps) == float(exact)


def test_euler_series_diverges():
    # error passes through a minimum then grows; raw sums grow without bound
    f_val = euler_f(0.1)
    errs = [abs(f_val - euler_partial_sum(0.1, m)) for m in range(40)]
    best = int(np.argmin(errs))
    assert 5 <= best <= 15
    assert errs[-1] > 10 * errs[best]
    assert abs(euler_partial_sum(0.1, 60)) > abs(euler_partial_sum(0.1, 40)) > 1e3


def test_rescale_budget_checked_before_allocation():
    # q = 10**15 would ask for a 10**15-entry list; the check comes first
    family = PolyFamily.from_coefficients([[-1], [1], [0, 1]])
    with pytest.raises(ValueError, match="budget"):
        rescale_singular(family, Fraction(1, 10**15))
    assert rescale_singular(family, Fraction(1, 2)).eps_denominator == 2
