"""Exact-arithmetic dimensional analysis.

A :class:`QuantitySet` is an ordered list of base quantities (e.g. L, T, M),
an ordered list of named physical quantities and the k-by-n dimension matrix
whose entry (s, j) is the exponent of base quantity s in quantity j.  A
monomial ``Q_1^{x_1} ... Q_n^{x_n}`` is dimensionless iff the exponent vector
``x`` lies in the nullspace of that matrix, so a basis of dimensionless
groups is a basis of the nullspace, returned as exponent tuples in the order
of the quantity names.  Everything here is done in exact rational arithmetic
(``fractions.Fraction``); floating point is deliberately not used because
group identity must be exact (exponents like 1/2 are common).

:func:`quantity_set` builds a set from the base symbols and ``(name,
dimensions)`` pairs, each dimension written as ``"L T^-2"``.  Fixtures use a
small text format that transcribes dimension tables directly::

    base: L T M
    t: T
    g: L T^-2
    c: 1          # dimensionless / pure number

Exponents may be rationals written as ``p/q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import parse_fraction


class DimensionError(ValueError):
    """Raised for inconsistent base systems or malformed declarations."""


@dataclass(frozen=True)
class QuantitySet:
    """Named quantities over one ordered base: ``matrix[s][j]`` is the exponent
    of base symbol ``base[s]`` in quantity ``names[j]``."""

    base: tuple[str, ...]
    names: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)


def parse_exponent(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise DimensionError(f"bad exponent {text!r}: {exc}") from exc


def parse_dimension(base: Sequence[str], text: str) -> tuple[Fraction, ...]:
    """Exponent per base symbol of e.g. ``"L T^-2"`` or ``"M^1/2 L^2 T^3"``;
    ``""`` or ``"1"`` is a pure number."""
    exps = {name: Fraction(0) for name in base}
    text = text.strip()
    if text in ("", "1"):
        return tuple(exps.values())
    for token in text.split():
        sym, _, raw = token.partition("^")
        if sym not in exps:
            raise DimensionError(f"unknown base symbol {sym!r} (base is {tuple(base)})")
        exps[sym] += parse_exponent(raw) if raw else Fraction(1)
    return tuple(exps.values())


def quantity_set(base: Iterable[str], pairs: Iterable[tuple[str, str]]) -> QuantitySet:
    """The quantities ``(name, dimensions)`` of ``pairs``, in order, over the
    base symbols ``base``."""
    base = tuple(base)
    if not base:
        raise DimensionError("a base system needs at least one base quantity")
    if len(set(base)) != len(base):
        raise DimensionError(f"duplicate base-quantity symbols in {base}")
    pairs = list(pairs)
    columns = [parse_dimension(base, dims) for _, dims in pairs]
    names = tuple(name for name, _ in pairs)
    if not names:
        raise DimensionError("no quantities declared")
    if len(set(names)) != len(names):
        raise DimensionError(f"duplicate quantity names in {names}")
    return QuantitySet(base, names, tuple(zip(*columns)))


def parse_quantity_set(text: str) -> QuantitySet:
    """Parse a fixture: a ``base:`` line followed by one ``name: dims`` line per quantity."""
    base = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DimensionError(f"line {lineno}: expected 'name: dimensions'")
        name, _, rhs = line.partition(":")
        name = name.strip()
        if name == "base" and not pairs:
            base = rhs.split()
        elif base is None or name == "base":
            raise DimensionError("fixture must declare 'base: ...' before quantities")
        else:
            pairs.append((name, rhs))
    if base is None:
        raise DimensionError("fixture declares no quantities")
    return quantity_set(base, pairs)


def dimension_matrix(qs: QuantitySet) -> list[list[Fraction]]:
    """k-by-n matrix: entry (s, j) is the exponent of base quantity s in quantity j."""
    return [list(row) for row in qs.matrix]


def _rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot columns)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _canonicalize(vec: list[Fraction]) -> tuple[Fraction, ...]:
    """Scale to coprime integer entries with positive leading nonzero entry."""
    denom_lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * denom_lcm) for x in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def rational_nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of the kernel of a rational matrix.

    Gaussian elimination with rational pivoting, pivot order = column order.
    Each free column, taken left to right, contributes one basis vector with
    that free variable set to 1 and the other free variables 0; vectors are
    then rescaled to coprime integers with positive leading entry so the
    basis is deterministic.
    """
    rows, pivots = _rref(matrix)
    if not rows:
        return []
    n_cols = len(rows[0])
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(_canonicalize(vec))
    return basis


def pi_groups(qs: QuantitySet) -> list[tuple[Fraction, ...]]:
    """Basis of the lattice of dimensionless monomials, as exponent tuples in
    ``qs.names`` order; count = n - rank."""
    return rational_nullspace(dimension_matrix(qs))


def span_coefficients(
    basis: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Exact coefficients expressing ``target`` in the rational span of ``basis``.

    Returns None when the target is outside the span.  Used as the membership
    proof that a published dimensionless group is reproduced up to a change of
    nullspace basis.
    """
    if not basis:
        return None if any(Fraction(t) != 0 for t in target) else []
    n = len(target)
    aug = [[Fraction(b[i]) for b in basis] + [Fraction(target[i])] for i in range(n)]
    rows, pivots = _rref(aug)
    m = len(basis)
    if m in pivots:  # pivot in the augmented column: inconsistent
        return None
    coeffs = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        coeffs[pc] = rows[r][m]
    return coeffs


def group_membership(qs: QuantitySet, target: dict[str, Fraction]) -> list[Fraction] | None:
    """Span-membership proof for a monomial given as a ``{name: exponent}`` map."""
    unknown = set(target) - set(qs.names)
    if unknown:
        raise DimensionError(f"unknown quantity names {sorted(unknown)}")
    vec = [Fraction(target.get(name, 0)) for name in qs.names]
    return span_coefficients(pi_groups(qs), vec)
