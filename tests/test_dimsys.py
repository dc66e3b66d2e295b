import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica.dimsys import (
    DimensionError,
    dimension_matrix,
    group_membership,
    parse_dimension,
    parse_quantity_set,
    pi_groups,
    quantity_set,
    rational_nullspace,
    span_coefficients,
)


def rank(matrix) -> int:
    """sympy's rank, an oracle that shares no elimination code with dimsys."""
    return sympy.Matrix(matrix).rank()


def is_dimensionless(qs, x) -> bool:
    """True iff dimension_matrix(qs) @ x == 0 exactly."""
    return all(
        sum(a * Fraction(v) for a, v in zip(row, x, strict=True)) == 0
        for row in dimension_matrix(qs)
    )


PENDULUM = """
base: L T M
t: T
s: L
l: L
m: M
g: L T^-2
"""

DROP = """
base: L T M
t: T
s: M T^-2
r: L
rho: M L^-3
"""

WAVES = """
base: L T M
v: L T^-1
g: L T^-2
rho: M L^-3
"""

WAVES_WITH_LAMBDA = WAVES + "lam: L\n"


def frac(x):
    return Fraction(x)


def test_pendulum_dimension_matrix():
    qs = parse_quantity_set(PENDULUM)
    m = dimension_matrix(qs)
    # columns (t, s, l, m, g) under row order (L, T, M)
    cols = [[m[s][j] for s in range(3)] for j in range(5)]
    assert cols == [
        [0, 1, 0],
        [1, 0, 0],
        [1, 0, 0],
        [0, 0, 1],
        [1, -2, 0],
    ]


def test_single_length_quantity():
    qs = parse_quantity_set("base: L\nx: L")
    assert dimension_matrix(qs) == [[Fraction(1)]]


def test_pure_number_gives_zero_column():
    qs = parse_quantity_set("base: L T\nc: 1\nx: L")
    m = dimension_matrix(qs)
    assert [row[0] for row in m] == [0, 0]


def test_fractional_exponent_parsing():
    v = parse_dimension(("M", "L", "T"), "M^1/2 L^2 T^3")
    assert v == (Fraction(1, 2), Fraction(2), Fraction(3))


def test_decimal_exponent_is_bounded():
    # Fraction would build 10**e in full; the bound is Python's int-string limit
    assert parse_dimension(("L",), "L^1e4300") == (Fraction(10**4300),)
    assert parse_dimension(("L",), "L^-25e-4300") == (Fraction(-25, 10**4300),)
    for text in ("L^1e4301", "L^1E-4301", "L^1e1000000000", "L^1/0"):
        with pytest.raises(DimensionError):
            parse_dimension(("L",), text)


def test_nullspace_identity_is_empty():
    eye = [[frac(i == j) for j in range(3)] for i in range(3)]
    assert rational_nullspace(eye) == []


def test_nullspace_zero_matrix_is_unit_vectors():
    zero = [[frac(0)] * 4 for _ in range(2)]
    basis = rational_nullspace(zero)
    assert len(basis) == 4
    for i, vec in enumerate(basis):
        assert vec[i] == 1 and sum(abs(v) for v in vec) == 1


def test_pendulum_groups():
    qs = parse_quantity_set(PENDULUM)
    groups = pi_groups(qs)
    assert len(groups) == 2
    # published groups t^2 g / s and l / s lie in the exact span
    assert group_membership(qs, {"t": frac(2), "s": frac(-1), "g": frac(1)}) is not None
    assert group_membership(qs, {"l": frac(1), "s": frac(-1)}) is not None
    # mass never enters a dimensionless combination
    m_index = qs.names.index("m")
    assert all(g[m_index] == 0 for g in groups)


def test_drop_single_group():
    qs = parse_quantity_set(DROP)
    groups = pi_groups(qs)
    assert len(groups) == 1
    coeffs = group_membership(
        qs, {"t": frac(-2), "s": frac(-1), "r": frac(3), "rho": frac(1)}
    )
    assert coeffs is not None and len(coeffs) == 1 and coeffs[0] != 0


def test_surface_waves_groups():
    assert pi_groups(parse_quantity_set(WAVES)) == []
    qs = parse_quantity_set(WAVES_WITH_LAMBDA)
    groups = pi_groups(qs)
    assert len(groups) == 1
    assert group_membership(
        qs, {"v": Fraction(1), "g": Fraction(-1, 2), "lam": Fraction(-1, 2)}
    ) is not None


def test_is_dimensionless_pendulum():
    qs = parse_quantity_set(PENDULUM)
    assert is_dimensionless(qs, [frac(2), frac(-1), frac(0), frac(0), frac(1)])
    assert not is_dimensionless(qs, [frac(1), frac(0), frac(0), frac(0), frac(0)])
    assert is_dimensionless(qs, [frac(0)] * 5)


def test_membership_rejects_outside_span():
    qs = parse_quantity_set(PENDULUM)
    # bare mass is dimensional, not in the dimensionless span
    assert group_membership(qs, {"m": frac(1)}) is None


def test_group_count_equals_n_minus_rank():
    for text in (PENDULUM, DROP, WAVES, WAVES_WITH_LAMBDA):
        qs = parse_quantity_set(text)
        m = dimension_matrix(qs)
        assert len(pi_groups(qs)) == qs.n - rank(m)
        assert rank(m) <= len(qs.base)
        assert all(is_dimensionless(qs, g) for g in pi_groups(qs))


def test_duplicate_quantity_names_rejected():
    with pytest.raises(DimensionError):
        parse_quantity_set("base: L T\nx: L\nx: T")
    with pytest.raises(DimensionError):
        quantity_set(("L", "L"), [("x", "L")])


def test_canonical_form_is_integer_gcd_one_leading_positive():
    qs = parse_quantity_set(WAVES_WITH_LAMBDA)
    (group,) = pi_groups(qs)
    ints = [int(v) for v in group]
    assert all(Fraction(i) == v for i, v in zip(ints, group))
    assert math.gcd(*[abs(i) for i in ints if i] or [1]) == 1
    assert next(v for v in ints if v) > 0


# a few of the classic fixtures with known published groups
EXERCISES = [
    # satellite: t, r, m, G -> t = a r^(3/2) G^(-1/2) m^(-1/2)
    (
        "base: L T M\nt: T\nr: L\nm: M\nG: L^3 M^-1 T^-2",
        1,
        {"t": "1", "r": "-3/2", "G": "1/2", "m": "1/2"},
    ),
    # explosion yield: E, R, t, rho -> E = a R^5 rho / t^2
    (
        "base: L T M\nE: M L^2 T^-2\nR: L\nt: T\nrho: M L^-3",
        1,
        {"E": "1", "R": "-5", "t": "2", "rho": "-1"},
    ),
    # Casimir pressure: p, d, hbar, c -> p = a hbar c / d^4
    (
        "base: L T M\np: M L^-1 T^-2\nd: L\nhbar: M L^2 T^-1\nc: L T^-1",
        1,
        {"p": "1", "d": "4", "hbar": "-1", "c": "-1"},
    ),
    # Schwarzschild radius: R, m, c, G -> R = a G m / c^2
    (
        "base: L T M\nR: L\nm: M\nc: L T^-1\nG: L^3 M^-1 T^-2",
        1,
        {"R": "1", "G": "-1", "m": "-1", "c": "2"},
    ),
]


@pytest.mark.parametrize("text,count,target", EXERCISES)
def test_exercise_fixtures(text, count, target):
    qs = parse_quantity_set(text)
    groups = pi_groups(qs)
    assert len(groups) == count
    exponents = {k: Fraction(v) for k, v in target.items()}
    assert group_membership(qs, exponents) is not None


@st.composite
def rational_matrices(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    return [[draw(entries) for _ in range(n)] for _ in range(k)]


@settings(max_examples=120, deadline=None)
@given(rational_matrices())
def test_nullspace_properties_random(matrix):
    basis = rational_nullspace(matrix)
    n = len(matrix[0])
    # every vector is an exact kernel element
    for vec in basis:
        assert all(
            sum(row[j] * vec[j] for j in range(n)) == 0 for row in matrix
        )
    # dimension count and linear independence of the returned basis
    assert len(basis) == n - rank(matrix)
    if basis:
        stacked = [list(vec) for vec in basis]
        assert rank(stacked) == len(basis)


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_span_membership_consistency_random(matrix):
    basis = rational_nullspace(matrix)
    if not basis:
        return
    n = len(matrix[0])
    # a random-ish combination of basis vectors must be recognized as in-span
    combo = [sum(vec[j] for vec in basis) for j in range(n)]
    coeffs = span_coefficients(basis, combo)
    assert coeffs is not None
    rebuilt = [
        sum(c * vec[j] for c, vec in zip(coeffs, basis)) for j in range(n)
    ]
    assert rebuilt == combo
