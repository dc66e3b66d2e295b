"""Multiple-scales treatment of weakly nonlinear oscillators.

Each catalog entry is one :class:`CaseSpec` declaration: the equation, its
eps^0 modes and the eps order of the rate, plus, where one exists, an exact
solution.

* ``accelerations``: rows (component, coefficient, eps power p, exponents
  over the state), so x_k'' is the sum over k's rows of
  coefficient eps^p prod_i s_i^{n_i}.  The state is positions, then
  velocities, so the position rows x' = v follow from the layout.  The
  eps^0 rows are linear: x'' = -K x - C x', with L(lam) = lam^2 I + lam C + K.
* ``modes``: the eps^0 carrier rows (component, coefficient, 0, unit
  amplitude powers, carrier exponent lam), each lam a root of det L.
* ``order``: the eps power the rate is derived through, 2 unless declared.

Derived from them, once per case, by :func:`multiple_scales`:

* ``rate_terms``: rows (amplitude, coefficient, eps power p, exponents over
  |A_i|^2, or over A_i for real amplitudes) of the amplitude rate, through
  eps^order; every flow has the form dA_j/dt = rate_j A_j.
  :meth:`CaseSpec.truncated` keeps the rows with p <= terms.
* ``carrier_terms``: the modes, then the correction rows (component,
  coefficient, eps power, amplitude powers, lam) through eps^(order - 1); the
  reconstruction is y = 2 Re of their sum.

A declaration the derivation cannot serve raises ``ValueError``: a mode
exponent that is not a root of det L, a resonant term that is not A_j times
a rate monomial, a resonant term below eps^order of a coupled system, and a
carrier that holds conj(A).  The catalog declares each case on its first
lookup, so importing the module derives nothing.

One evaluator reads the accelerations and the rate rows.  It multiplies each
row's coefficient by eps, p times, then by the powers in index order, and
starts each sum from its first term; each row's nonzero (index, power) pairs
are picked out once per case.

Also derived, for every case: the sizes (the state dimension is
``len(default_ics)``, so half of it is the number of oscillator components;
the number of amplitudes is the length of a mode's amplitude powers), the
original right hand side, the
rate, the amplitude-equation right hand side, the reconstruction map, its
time derivative (product rule along the amplitude flow) and the
initial-amplitude fit (Newton on the reconstruction and its time derivative
at t=0).  The amplitudes are real when every mode's lam is real.  The
validity exponent is 1 + the highest eps power among the rate rows: rates
through eps^N keep the phase to t ~ eps^-(N+1), the horizons
:func:`resolve_horizon` admits.  The rate is conserved along the flow when
every amplitude it reads is complex and turns at a purely imaginary rate,
since then no modulus it reads changes; such a case has the closed form
A0 e^{rate(A0) t}.

The shipped cases, with what the derivation gives them:

``damped_linear``
    y'' + eps y' + y = 0, order 2.  dA/dt = -(eps/2) A - i(eps^2/8) A
    with reconstruction y = A e^{it} + c.c.; the exact solution through the
    characteristic polynomial is available for error measurements.  The
    textbook *non-uniform* direct expansion (:func:`naive_damped_expansion`)
    is kept alongside to demonstrate its breakdown at t ~ 1/eps.

``cubic``
    y'' + y = eps y^3, order 2.  dA/dt = -i(3 eps/2)|A|^2 A
    - i(15 eps^2/16)|A|^4 A, y = A e^{it} - (eps/8) A^3 e^{3it} + c.c.  The
    modulus of A is conserved.

``quadratic_damped``
    y'' + y' + eps y^2 = 0, order 2, with two real amplitudes:
    y = A + B e^{-t} - (eps/2) B^2 e^{-2t}, dA/dt = -eps A^2 - 2 eps^2 A^3,
    dB/dt = 2 eps A B + 2 eps^2 A^2 B, i.e. the rate
    (-eps A - 2 eps^2 A^2, 2 eps A + 2 eps^2 A^2), which is not constant
    along the flow, so this case has no closed form.

``coupled_cubic``
    x'' + 2x - y = eps x y^2, y'' + 3y - 2x = eps y x^2, order 1.  Two complex
    amplitudes riding carriers e^{-it} and e^{-2it}, with rate
    (i eps (3|A|^2 - 2|B|^2)/2, i eps (3|B|^2 - |A|^2)/2); the amplitude
    moduli are conserved, so the amplitude system integrates in closed form
    and the oscillation frequencies shift with the initial data.  Its
    validity exponent is 2, and ``terms=2`` runs the same flow as
    ``terms=1`` while ``stats`` echo the value asked for.

The direct solve steps by Taylor series read from the acceleration rows
(:func:`integrate_taylor`): one plan per case lists the distinct products the
rows form, and each order's coefficients come from Cauchy products.  The
amplitude flows are integrated with :func:`integrate_reference`, the
library's Dormand-Prince 8(5,3) stepper with dense output, which reproduces
scipy's DOP853 bit for bit without importing scipy.  Complex amplitudes are
evolved as pairs of reals so one real-valued integrator serves every case.
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import SolverError  # re-exported: callers catch it as msode.SolverError
# Trajectory and integrate_reference are re-exported
from .integrator import (RTOL_FLOOR, STEP_TOO_SMALL, Trajectory, checked_problem,
                         integrate_reference, min_step)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one direct-vs-multiscale comparison run."""

    case: str
    eps: float
    horizon: float
    max_abs_error: float
    l2_error: float
    t: np.ndarray
    error: np.ndarray  # shape (n_components, n_samples)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_abs_error < 0 or self.l2_error < 0 or np.any(self.error < 0):
            raise ValueError("error norms must be nonnegative")


# (output, coefficient, eps power p, exponents n): adds coefficient eps^p
# prod_i x_i^{n_i} to the output, an acceleration or an amplitude's rate.
PolynomialRow = tuple[int, complex, int, tuple[int, ...]]
# (component, coefficient, eps power p, amplitude powers n, carrier exponent
# lam): adds coefficient eps^p prod_j A_j^{n_j} e^{lam t} inside 2 Re(...).
CarrierTerm = tuple[int, float, int, tuple[int, ...], complex]


def _group_rows(rows: tuple[PolynomialRow, ...], n_outputs: int) -> tuple:
    """Per output, its rows as (coefficient, factors).  The factors are (index,
    power) pairs: (-1, 1) p times, for eps, then the nonzero exponents."""
    return tuple(tuple((coef, ((-1, 1),) * p + tuple((i, n) for i, n in enumerate(powers) if n))
                       for out, coef, p, powers in rows if out == k) for k in range(n_outputs))


def _evaluate(grouped: tuple, values: list) -> list:
    """Each output's sum over its rows, 0.0 if none.

    ``values`` ends with eps.  Each term is the coefficient times its factors
    in order, and each sum starts from its first term.
    """
    sums = []
    for rows in grouped:
        total = None
        for term, factors in rows:
            for i, n in factors:
                term = term * (values[i] if n == 1 else values[i] ** n)
            total = term if total is None else total + term
        sums.append(0.0 if total is None else total)
    return sums


def _taylor_plan(grouped: tuple, n_state: int) -> tuple:
    """The Cauchy products the Taylor solve forms, read off the grouped rows.

    Series 0 .. n_state - 1 are the state's and series n_state is the
    constant 1.  Each product after them is (series a, state series b), one
    per distinct product: y y, then (y y) y.  Returns (products, terms), with
    terms per output its rows as (coefficient, eps power, series).
    """
    index = {(i,): i for i in range(n_state)}
    index[()] = n_state
    products, terms = [], []
    for rows in grouped:
        out = []
        for coef, factors in rows:
            key = tuple(i for i, n in factors if i >= 0 for _ in range(n))
            for j in range(2, len(key) + 1):
                if key[:j] not in index:
                    index[key[:j]] = n_state + 1 + len(products)
                    products.append((index[key[:j - 1]], key[j - 1]))
            out.append((coef, sum(n for i, n in factors if i < 0), index[key]))
        terms.append(tuple(out))
    return tuple(products), tuple(terms)


def _det(m: list):
    """Determinant by cofactor expansion along the first row; 1 for the empty matrix."""
    return 1 if not m else sum(
        (-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


def _adjugate(m: list) -> list:
    """adj(m), with adj(m) m = det(m) I: the rows of a singular m's
    adjugate are left null vectors, exact wherever the entries are."""
    return [[(-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
             for j in range(len(m))] for i in range(len(m))]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def multiple_scales(rows, modes, order, operator, slope):
    """Rate and carrier rows of x'' = sum of ``rows`` over (x, x', eps), by
    multiple scales (Nayfeh, *Perturbation Methods*, 1973, ch. 4).

    The field is x = x_0 + eps x_1 + ..., with x_0 the ``modes``, the eps^0
    carrier rows (component, coefficient, 0, unit amplitude powers, lam), and
    each x_k a sum of monomials in A_j and conj(A_j), keyed by their powers
    (of A, then of conj(A), then of eps).  d/dt acts along
    dA_j/dt = rate_j A_j, rate_j = sum_k eps^k r_jk.  Order k takes the
    residual R of the equation with x_k and r_jk still zero:

    * a monomial whose exponent is a mode's, lam_j, is resonant; it must be
      A_j times a rate monomial (a product of |A_i|^2, or of A_i for real
      amplitudes), else ValueError, and it goes into r_jk as
      psi R / (psi L'(lam_j) phi_j), with psi a left null vector of L(lam_j)
      and phi_j the mode's shape;
    * below eps^order, any other monomial of exponent lam goes into x_k as
      L(lam)^-1 R, so no carrier above eps^0 holds a resonant term.

    ``operator(key, lam)`` is L for a monomial, ``slope(lam)`` is L'.  Returns
    the rate rows through eps^order, (amplitude, coefficient, eps power,
    exponents over |A_i|^2, or over A_i if real), and the carrier rows from
    eps^1 to eps^(order - 1), (component, coefficient, eps power, powers of
    A and conj(A), lam), one of each conjugate pair and the self-conjugate
    ones halved, as inside 2 Re(...).
    """
    n, nc = len(modes[0][3]), len(rows[0][3]) // 2
    real = all(complex(lam).imag == 0 for *_, lam in modes)
    lams = [next(lam for *_, powers, lam in modes if powers[j]) for j in range(n)]
    lams += [lam.conjugate() for lam in lams]  # conj(A_j)'s
    units = [tuple(int(i == j) for i in range(2 * n)) for j in range(n)]
    rates = [{} for _ in range(n)]

    def conj(key):
        return key if real else key[n:2 * n] + key[:n] + key[2 * n:]

    def exponent(key):
        return sum(m * lam for m, lam in zip(key, lams) if m)

    def add(series, key, c):
        series[key] = series.get(key, 0) + c

    def times(a, b):
        out = {}
        for k, c in a.items():
            for l, d in b.items():
                add(out, tuple(i + j for i, j in zip(k, l)), c * d)
        return out

    def ddt(series):
        out = {key: exponent(key) * c for key, c in series.items()}
        for i in range(2 * n):  # A_i d/dA_i times rate_i, conj(A_j) reading conj(rate_j)
            rate = {key: r if i < n else r.conjugate() for key, r in rates[i % n].items()}
            for key, c in times({k: k[i] * c for k, c in series.items() if k[i]}, rate).items():
                add(out, key, c)
        return out

    x = [{} for _ in range(nc)]
    for comp, coef, _, powers, _ in modes:
        add(x[comp], tuple(powers) + (0,) * (n + 1), coef)
        add(x[comp], conj(tuple(powers) + (0,) * (n + 1)), coef.conjugate())
    for unit, lam in zip(units, lams):
        if _det(operator(unit, lam)) != 0:
            raise ValueError(f"carrier exponent {lam} is not a mode of the eps^0 equation")
    for top in range(1, order + 1):
        v = [ddt(s) for s in x]
        terms = [(i, key, -c) for i, s in enumerate(map(ddt, v)) for key, c in s.items()]
        for out, coef, p, powers in rows:
            factors = [s for s, m in zip(x + v, powers) for _ in range(m)]
            term = functools.reduce(times, factors, {(0,) * 2 * n + (p,): coef})
            terms += [(out, key, c) for key, c in term.items()]
        residual = {}
        for i, key, c in terms:
            if key[-1] == top:
                residual.setdefault(key[:-1], [0] * nc)[i] += c
        for key, forcing in [(key, f) for key, f in residual.items() if any(f)]:
            lam = exponent(key)
            if lam in lams[:n]:
                j = lams.index(lam)
                rest = tuple(m - u for m, u in zip(key, units[j]))
                if min(rest) < 0 or rest != conj(rest):
                    raise ValueError(f"resonant term {key} at eps^{top} is not of rate form")
                if top < order and nc > 1:  # its part off the mode shape is not derived
                    raise ValueError(f"resonant term {key} below eps^{order} of a coupled system")
                psi = next(row for row in _adjugate(operator(units[j], lam)) if any(row))
                shape = [_dot(row, [s.get(units[j] + (0,), 0) for s in x]) for row in slope(lam)]
                add(rates[j], rest + (top,), _dot(psi, forcing) / _dot(psi, shape))
            elif top < order and lam not in lams[n:]:  # not the conjugate of a resonant term
                matrix = operator(key, lam)
                for i, row in enumerate(_adjugate(matrix)):
                    add(x[i], key + (top,), _dot(row, forcing) / _det(matrix))
    return ([(j, c, key[-1], key[:n]) for j, rate in enumerate(rates) for key, c in rate.items()],
            [(i, c / 2 if key == conj(key) else c, key[-1], key[:-1], exponent(key))
             for i, s in enumerate(x) for key, c in s.items() if key[-1] and key >= conj(key)])


def _operators(accelerations: tuple[PolynomialRow, ...], nc: int) -> tuple[Callable, Callable]:
    """L(lam) = lam^2 I + lam C + K and L'(lam) = 2 lam I + C of the eps^0
    equation x'' = -K x - C x', read off the eps^0 acceleration rows."""
    if any(sum(powers) != 1 for _, _, p, powers in accelerations if p == 0):
        raise ValueError("the eps^0 acceleration rows must be linear")

    def matrix(diagonal, damping, stiffness):
        m = [[diagonal * (i == j) for j in range(nc)] for i in range(nc)]
        for out, coef, _, powers in (row for row in accelerations if row[2] == 0):
            i = powers.index(1)
            m[out][i % nc] -= coef * (damping if i >= nc else stiffness)
        return m

    return (lambda key, lam: matrix(lam * lam, lam, 1)), (lambda lam: matrix(2 * lam, 1, 0))


@dataclass(frozen=True)
class CaseSpec:
    """One catalog entry; see the module docstring for what it declares and derives."""

    name: str
    default_ics: tuple[float, ...]  # positions, then velocities
    accelerations: tuple[PolynomialRow, ...]  # exponents over the state
    modes: tuple[CarrierTerm, ...]  # the eps^0 carrier rows
    order: int = 2  # the eps power the rate is derived through
    exact: Optional[Callable] = None  # (t, eps) -> components

    def __post_init__(self):  # derived once per case, through __dict__ since the class is frozen
        n = self.n_amplitudes
        rates, carriers = multiple_scales(self.accelerations, self.modes, self.order,
                                          *_operators(self.accelerations, self.n_components))
        if any(any(key[n:]) for *_, key, _ in carriers):
            raise ValueError(f"case {self.name}: a carrier holds conj(A), which the rows cannot")
        accel_rows = _group_rows(self.accelerations, self.n_components)
        self.__dict__.update(
            real_amplitudes=all(complex(lam).imag == 0 for *_, lam in self.modes),
            _accel_rows=accel_rows,
            _taylor_plan=_taylor_plan(accel_rows, self.state_dim),
        )
        self._set_tables(tuple(rates), self.modes + tuple((i, c, p, key[:n], lam)
                                                          for i, c, p, key, lam in carriers))

    def _set_tables(self, rate_terms: tuple, carrier_terms: tuple) -> CaseSpec:
        """Set the rate and carrier rows and what is read off them; returns the case."""
        self.__dict__.update(rate_terms=rate_terms, carrier_terms=carrier_terms,
                             validity_exponent=1 + max((row[2] for row in rate_terms), default=0),
                             _rate_rows=_group_rows(rate_terms, self.n_amplitudes))
        return self

    def truncated(self, terms: int) -> CaseSpec:
        """A copy with the rate rows of eps power <= terms and every carrier;
        nothing is derived again."""
        rates = tuple(row for row in self.rate_terms if row[2] <= terms)
        return copy.copy(self)._set_tables(rates, self.carrier_terms)

    @property
    def state_dim(self) -> int:
        return len(self.default_ics)

    @property
    def n_components(self) -> int:
        return self.state_dim // 2

    @property
    def n_amplitudes(self) -> int:
        return len(self.modes[0][3])

    @property
    def rate_conserved(self) -> bool:
        """Constant along the flow: every amplitude a rate reads is complex
        and has a purely imaginary rate, so no modulus it reads changes."""
        read = {i for *_, powers in self.rate_terms for i, n in enumerate(powers) if n}
        return not (read and self.real_amplitudes) and all(
            complex(coef).real == 0 for out, coef, _, _ in self.rate_terms if out in read
        )

    def original_rhs(self, t, state, eps):
        """(positions, velocities)' = (velocities, accelerations)."""
        x = np.asarray(state).tolist() + [eps]
        accelerations = _evaluate(self._accel_rows, x)
        return np.array(x[len(accelerations):-1] + accelerations)

    def rate(self, amps, eps):
        """rate_j in dA_j/dt = rate_j A_j."""
        x = list(amps) if self.real_amplitudes else [np.abs(a) ** 2 for a in amps]
        return tuple(_evaluate(self._rate_rows, x + [eps]))

    def amplitude_rhs(self, t, amps, eps):
        """dA/dt = rate(A) A."""
        return np.asarray(self.rate(amps, eps)) * amps

    def amplitude_closed_form(self, t, amps0, eps):
        """A0 e^{rate(A0) t} on the grid t, shape (n_t, n_amp)."""
        if not self.rate_conserved:
            raise ValueError(f"case {self.name} has no closed-form amplitudes")
        rates = np.asarray(self.rate(amps0, eps))
        return amps0[np.newaxis, :] * np.exp(np.multiply.outer(np.asarray(t), rates))

    def reconstruct(self, t, amps, eps):
        """Oscillator components from the amplitudes at time t."""
        return self._carrier_sum(t, amps, eps)

    def reconstruct_dt(self, t, amps, eps):
        """Product rule along the flow: d(A_j^n)/dt = n rate_j A_j^n."""
        return self._carrier_sum(t, amps, eps, self.rate(amps, eps))

    def _carrier_sum(self, t, amps, eps, rates=None):
        t = np.asarray(t, dtype=float)
        sums = [0.0] * self.n_components
        for comp, coef, p, powers, lam in self.carrier_terms:
            monomial = math.prod(a**n for a, n in zip(amps, powers) if n)
            term = coef * eps**p * np.exp(lam * t) * monomial
            if rates is not None:
                term = term * (lam + sum(n * r for n, r in zip(powers, rates) if n))
            sums[comp] = sums[comp] + term
        return np.stack([2.0 * np.real(s) for s in sums])


def _damped_linear_exact(t, eps):
    omega = np.sqrt(1.0 - 0.25 * eps * eps)
    lam = -0.5 * eps + 1j * omega
    c = -np.conj(lam) / (lam - np.conj(lam))
    return np.real(2.0 * c * np.exp(lam * np.asarray(t)))[np.newaxis]


def coupled_cubic_frequencies(a0: complex, b0: complex, eps: float) -> tuple[float, float]:
    """Initial-data-dependent oscillation frequencies of the reconstructed motion.

    Amplitude j rides its carrier e^{lam_j t} and turns at rate_j(A0), which
    the flow conserves, so the motion oscillates at |Im lam_j + Im rate_j(A0)|:
    Omega_1 = 1 + eps(|B0|^2 - 3|A0|^2/2), Omega_2 = 2 + eps(|A0|^2/2 - 3|B0|^2/2).
    """
    case = catalog("coupled_cubic")
    rates = case.rate((a0, b0), eps)
    return tuple(float(abs(lam.imag + rates[powers.index(1)].imag))
                 for powers, lam in {powers: lam for *_, powers, lam in case.modes}.items())


# Each case's CaseSpec fields after its name.  catalog() declares a case on
# its first lookup, so importing the module derives nothing.
_CATALOG: dict[str, dict] = {
    "damped_linear": dict(
        default_ics=(1.0, 0.0),
        # y'' = -y - eps y'
        accelerations=((0, -1.0, 0, (1, 0)), (0, -1.0, 1, (0, 1))),
        modes=((0, 1.0, 0, (1,), 1j),),  # y = A e^{it} + c.c.
        exact=_damped_linear_exact,
    ),
    "cubic": dict(
        default_ics=(1.0, 0.0),
        # y'' = -y + eps y^3
        accelerations=((0, -1.0, 0, (1, 0)), (0, 1.0, 1, (3, 0))),
        modes=((0, 1.0, 0, (1,), 1j),),
    ),
    "quadratic_damped": dict(
        default_ics=(1.0, 1.0),
        # y'' = -y' - eps y^2
        accelerations=((0, -1.0, 0, (0, 1)), (0, -1.0, 1, (2, 0))),
        # y = A + B e^{-t}, halved inside 2 Re(...)
        modes=((0, 0.5, 0, (1, 0), 0.0), (0, 0.5, 0, (0, 1), -1.0)),
    ),
    "coupled_cubic": dict(
        # the eps = 0 state of A = B = 0.3
        default_ics=(1.2, -0.6, 0.0, 0.0),
        # x'' = -2x + y + eps x y^2, y'' = -3y + 2x + eps x^2 y
        accelerations=((0, -2.0, 0, (1, 0, 0, 0)), (0, 1.0, 0, (0, 1, 0, 0)),
                       (0, 1.0, 1, (1, 2, 0, 0)), (1, -3.0, 0, (0, 1, 0, 0)),
                       (1, 2.0, 0, (1, 0, 0, 0)), (1, 1.0, 1, (2, 1, 0, 0))),
        # x = A e^{-it} + B e^{-2it} + c.c., y = A e^{-it} - 2B e^{-2it} + c.c.
        modes=((0, 1.0, 0, (1, 0), -1j), (0, 1.0, 0, (0, 1), -2j),
               (1, 1.0, 0, (1, 0), -1j), (1, -2.0, 0, (0, 1), -2j)),
        order=1,
    ),
}


@functools.cache
def catalog(name: str) -> CaseSpec:
    """Look up a registered case; raises KeyError listing known names."""
    if name not in _CATALOG:
        raise KeyError(f"unknown case {name!r}; known cases: {sorted(_CATALOG)}")
    return CaseSpec(name, **_CATALOG[name])


def case_names() -> list[str]:
    return sorted(_CATALOG)


def _amps_to_real(case: CaseSpec, amps: np.ndarray) -> np.ndarray:
    if case.real_amplitudes:
        return np.asarray(amps, dtype=complex).real.copy()
    a = np.asarray(amps, dtype=complex)
    return np.concatenate([a.real, a.imag])


def _real_to_amps(case: CaseSpec, vec: np.ndarray) -> np.ndarray:
    n = case.n_amplitudes
    if case.real_amplitudes:
        return np.asarray(vec[:n], dtype=float)
    return vec[:n] + 1j * vec[n : 2 * n]


def integrate_amplitude(
    case: CaseSpec,
    amps0,
    t_span: tuple[float, float],
    eps: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
) -> Trajectory:
    """Evolve the slow amplitudes; samples are complex with shape (n_t, n_amp).

    Samples at ``t_eval``, by default ``[t_span[1]]`` as in
    :func:`integrate_reference`.  Where the rate is constant along the flow,
    :meth:`CaseSpec.amplitude_closed_form` gives the same path in closed form,
    a reference for checks of this one.
    """
    amps0 = np.asarray(amps0)

    def rhs(t, vec):
        return _amps_to_real(case, case.amplitude_rhs(t, _real_to_amps(case, vec), eps))

    traj = integrate_reference(rhs, _amps_to_real(case, amps0), t_span, rtol, atol, t_eval)
    samples = _real_to_amps(case, traj.y.T).T
    meta = dict(traj.meta)
    meta.update(eps=eps, case=case.name)
    return Trajectory(t=traj.t, y=samples.astype(complex), meta=meta)


def integrate_taylor(
    case: CaseSpec,
    y0,
    t_span: tuple[float, float],
    eps: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
) -> Trajectory:
    """The direct solve of the case's equation, stepped by Taylor series
    (Corliss & Chang, ACM TOMS 8, 1982; Jorba & Zou, Exp. Math. 14, 2005).

    Each step expands the state about its start to order
    N = ceil(-ln(tol)/2) + 2, tol = min(rtol, atol) but at least 100 machine
    epsilons, so N <= 18.  That is one above Jorba & Zou's order: at about
    the same cost (the steps grow with N), it keeps the direct error at or
    below DOP853's on the shipped and benchmark configs.  The coefficients
    come order by order from x_{k+1} = v_k / (k + 1), v_{k+1} = a_k / (k + 1),
    with a_k read off the acceleration rows through the case's Cauchy
    products, in flat lists.  The step is 0.9 min over k in {N - 1, N} of
    (tol_y / |c_k|)^(1/k), with tol_y = atol + rtol max|y| and |c_k| the
    largest component of the k-th coefficient.  Samples at ``t_eval``
    (default ``[t_span[1]]``) come after the last step from one Horner pass
    over the steps that cover them.

    Inputs are checked as :func:`integrate_reference` checks them.  ``meta``
    records the steps (``n_steps``), those that cover samples (``n_dense``),
    the order and the tolerances.  Raises :class:`SolverError` naming t when
    a coefficient is not finite or the step falls under ten times the
    spacing of doubles at t, as it does at a finite-time blow-up.
    """
    y, (t, t_bound), t_eval, rtol_used = checked_problem(y0, t_span, rtol, atol, t_eval)
    order = max(2, math.ceil(-0.5 * math.log(max(min(rtol, atol), RTOL_FLOOR))) + 2)
    products, terms = case._taylor_plan
    n, nc = case.state_dim, case.n_components
    # the series lists live across steps; each step refills them from order 0
    series = [[] for _ in range(n)] + [[1.0] + [0.0] * order] + [[] for _ in products]
    state, fill = series[:n], series[:n] + series[n + 1:]
    cauchy = [(series[slot], series[a], series[b]) for slot, (a, b) in enumerate(products, n + 1)]
    velocity = list(zip(state[:nc], state[nc:]))
    acceleration = [(v, [(coef * eps**p, series[m]) for coef, p, m in rows])
                    for v, rows in zip(state[nc:], terms)]
    t_list = t_eval.tolist()
    y = y.tolist()
    n_eval = n_steps = 0
    dense = []  # per step that covers samples: (their number, t_old, coefficients)
    while t < t_bound:
        for s in fill:
            s.clear()
        for s, c in zip(state, y):
            s.append(c)
        for k in range(order):
            for out, a, b in cauchy:
                out.append(sum(map(operator.mul, a, reversed(b))))
            for x, v in velocity:
                x.append(v[k] / (k + 1))
            for v, rows in acceleration:
                v.append(sum([c * s[k] for c, s in rows]) / (k + 1))
        tol = atol + rtol_used * max(map(abs, y))
        h = math.inf
        for k in (order - 1, order):
            tops = [abs(s[k]) for s in state]
            if not math.isfinite(sum(tops)):
                raise SolverError(f"direct solve failed at t={t}: a Taylor coefficient "
                                  f"is not finite (steps={n_steps})")
            if max(tops):
                h = min(h, 0.9 * (tol / max(tops)) ** (1 / k))
        if h < min_step(t):
            raise SolverError(f"direct solve failed at t={t}: {STEP_TOO_SMALL} (steps={n_steps})")
        t_old, t = t, min(t + h, t_bound)
        h = t - t_old
        y = []
        for s in state:
            acc = s[order]
            for c in s[order - 1::-1]:
                acc = acc * h + c
            y.append(acc)
        n_steps += 1
        n_new = bisect.bisect_right(t_list, t, n_eval)
        if n_new > n_eval:
            dense.append((n_new - n_eval, t_old, [list(s) for s in state]))
            n_eval = n_new
    meta = {"n_steps": n_steps, "n_dense": len(dense), "order": order,
            "rtol": rtol, "atol": atol}
    samples = np.zeros((len(t_eval), n))
    if dense:
        counts, t_olds, coefs = zip(*dense)
        step = np.repeat(np.arange(len(dense)), counts)  # the step that covers each sample
        s = (t_eval - np.asarray(t_olds)[step])[:, None]
        coefs = np.asarray(coefs).transpose(2, 0, 1)  # (order + 1, steps, n)
        samples = coefs[order][step]
        for c in coefs[order - 1::-1]:
            samples = samples * s + c[step]
    return Trajectory(t=t_eval.copy(), y=samples, meta=meta)


def fit_initial_amplitudes(case: CaseSpec, ics, eps: float) -> np.ndarray:
    """Amplitudes whose reconstruction matches the state and its derivative at t=0.

    Newton iteration with a finite-difference Jacobian, started from the
    eps=0 fit (where the reconstruction is linear in the amplitudes), until
    the residual is below 1e-12; raises :class:`SolverError` after 50
    iterations.
    """
    ics = np.asarray(ics, dtype=float)
    if len(ics) != case.state_dim:
        raise ValueError(f"case {case.name} needs {case.state_dim} initial values")
    n_real = case.n_amplitudes if case.real_amplitudes else 2 * case.n_amplitudes

    def residual(vec: np.ndarray, e: float) -> np.ndarray:
        amps = _real_to_amps(case, vec)
        vals = np.atleast_1d(np.squeeze(case.reconstruct(0.0, amps, e)))
        ders = np.atleast_1d(np.squeeze(case.reconstruct_dt(0.0, amps, e)))
        return np.concatenate([vals, ders]) - ics

    def fd_jacobian(vec: np.ndarray, e: float) -> np.ndarray:
        jac = np.empty((case.state_dim, n_real))
        h = 1e-7
        for j in range(n_real):
            step = np.zeros(n_real)
            step[j] = h
            jac[:, j] = (residual(vec + step, e) - residual(vec - step, e)) / (2 * h)
        return jac

    # eps = 0: the reconstruction is linear, so one Newton step is exact
    vec = np.zeros(n_real)
    base = residual(vec, 0.0)
    lin = np.empty((case.state_dim, n_real))
    for j in range(n_real):
        unit = np.zeros(n_real)
        unit[j] = 1.0
        lin[:, j] = residual(unit, 0.0) - base
    vec = np.linalg.solve(lin, -base)
    if eps == 0.0:
        return _real_to_amps(case, vec)

    # Damped Newton, continued in eps so the iterate stays on the branch
    # connected to the eps = 0 fit instead of jumping to a spurious root.
    iterations = 0
    for e in np.linspace(0.0, eps, 2 + int(abs(eps) / 0.025))[1:]:
        while True:
            res = residual(vec, e)
            norm = np.max(np.abs(res))
            if norm < 1e-12:
                break
            if iterations >= 50:
                raise SolverError(
                    f"initial-amplitude fit for {case.name} did not reach "
                    f"1e-12 in 50 Newton iterations (residual {norm:.3e})"
                )
            step = np.linalg.solve(fd_jacobian(vec, e), -res)
            lam = 1.0
            while (
                np.max(np.abs(residual(vec + lam * step, e))) > (1 - 0.5 * lam) * norm
                and lam > 1e-3
            ):
                lam *= 0.5
            vec = vec + lam * step
            iterations += 1
    return _real_to_amps(case, vec)


def naive_damped_expansion(t, eps: float):
    """Direct (non-uniform) two-term expansion of the damped linear oscillator.

    y = cos t - (eps/2)(sin t + t cos t); the secular t cos t term destroys
    the ordering once t ~ 1/eps, which is exactly what the multiple-scales
    reconstruction repairs.
    """
    t = np.asarray(t, dtype=float)
    return np.cos(t) - 0.5 * eps * (np.sin(t) + t * np.cos(t))


def reconstruct_on_grid(
    case: CaseSpec, amp_traj: Trajectory, eps: float
) -> np.ndarray:
    """Apply the case's reconstruction map along an amplitude trajectory."""
    amps = amp_traj.y.T  # (n_amp, n_t); reconstructions broadcast over time
    return np.asarray(case.reconstruct(amp_traj.t, amps, eps))


MAX_HORIZON = 1e5  # reference-solve budget: the direct solve's steps grow with the horizon


def resolve_horizon(
    case: CaseSpec, eps: float, horizon_exponent: int | None = None,
    horizon: float | None = None,
) -> float:
    """The horizon :func:`compare` runs to: eps**(-horizon_exponent), or
    ``horizon`` when given explicitly.

    Raises ValueError unless exactly one is given, when eps = 0 meets a
    nonzero exponent, when the exponent exceeds the case's validity exponent
    + 1 or an explicit horizon exceeds eps^-(validity_exponent+1), and when
    the horizon is above ``MAX_HORIZON``.  Nothing is computed, so callers
    can check a whole eps sweep before running any of it.
    """
    if (horizon is None) == (horizon_exponent is None):
        raise ValueError("give exactly one of horizon_exponent and horizon")
    with np.errstate(over="ignore", divide="ignore"):  # inf fails the budget below
        limit = float(np.float64(eps) ** -(case.validity_exponent + 1)) if eps > 0 else np.inf
        power = float(np.float64(eps) ** -(horizon_exponent or 0))
    if horizon is None:
        if eps == 0 and horizon_exponent:
            raise ValueError("eps = 0 needs an explicit horizon")
        if horizon_exponent > case.validity_exponent + 1:
            raise ValueError(
                f"horizon exponent {horizon_exponent} exceeds the validity "
                f"exponent {case.validity_exponent} + 1 for case {case.name}"
            )
        horizon = power
    elif horizon > limit:
        raise ValueError(
            f"horizon {horizon} exceeds eps^-(validity_exponent+1) = {limit}"
        )
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} is above the budget of {MAX_HORIZON}")
    return horizon


def compare(
    case: CaseSpec,
    eps: float,
    horizon_exponent: int | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    terms: int = 2,
    ics=None,
    n_samples: int = 2048,
    horizon: float | None = None,
) -> RunReport:
    """Run the direct and multiscale paths on a shared grid and record errors.

    The direct path is :func:`integrate_taylor` on the full case, and
    ``stats["direct_steps"]`` counts its steps.  The horizon is
    :func:`resolve_horizon`'s, from the full case; the fit, the amplitude
    flow and the reconstruction use ``case.truncated(terms)``.
    The output grid always holds ``n_samples`` uniform points so error norms
    are comparable across eps.
    ``l2_error`` is the RMS of the pointwise euclidean error norm.
    ``stats["trajectories"]`` always holds the compared series, ``y_direct``
    and ``y_multiscale``, each of shape (n_components, n_samples).  When the
    case has an exact solution its errors are recorded in ``stats`` as well.
    """
    horizon = resolve_horizon(case, eps, horizon_exponent, horizon)
    ics = case.default_ics if ics is None else tuple(ics)
    grid = np.linspace(0.0, horizon, n_samples)
    flow = case.truncated(terms)

    # the fit checks len(ics), so it runs before the costly direct solve
    amps0 = fit_initial_amplitudes(flow, ics, eps)
    direct = integrate_taylor(case, ics, (0.0, horizon), eps, rtol, atol, t_eval=grid)
    y_direct = direct.y[:, : case.n_components].T

    amp_traj = integrate_amplitude(flow, amps0, (0.0, horizon), eps, rtol, atol, t_eval=grid)
    y_ms = reconstruct_on_grid(flow, amp_traj, eps)

    err = np.abs(y_direct - y_ms)
    stats = {
        "direct_steps": direct.meta["n_steps"],
        "nfev_amplitude": amp_traj.meta.get("nfev"),
        "terms": terms,
        "rtol": rtol,
        "atol": atol,
        "ics": list(ics),
        "trajectories": {"y_direct": y_direct, "y_multiscale": y_ms},
    }
    if case.exact is not None:
        y_exact = np.asarray(case.exact(grid, eps))
        stats["max_abs_error_vs_exact"] = float(np.max(np.abs(y_exact - y_ms)))
        stats["max_abs_error_direct_vs_exact"] = float(
            np.max(np.abs(y_exact - y_direct))
        )
    return RunReport(
        case=case.name,
        eps=eps,
        horizon=horizon,
        max_abs_error=float(err.max()),
        l2_error=float(np.sqrt(np.mean(np.sum(err**2, axis=0)))),
        t=grid,
        error=err,
        stats=stats,
    )
