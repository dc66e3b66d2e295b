"""Multiple-scales treatment of weakly nonlinear oscillators.

Each catalog entry is one :class:`CaseSpec` declaration: the equation, its
eps^0 modes and the eps order of the rate, plus, where one exists, an exact
solution.

* ``accelerations``: rows (component, coefficient, eps power p, exponents
  over the state), so x_k'' is the sum over k's rows of
  coefficient eps^p prod_i s_i^{n_i}.  The state is positions, then
  velocities, so the position rows x' = v follow from the layout.  The
  eps^0 rows are linear: x'' = -K x - C x', with L(lam) = lam^2 I + lam C + K.
* ``modes``: the eps^0 carrier rows (:data:`CarrierTerm`), each of one
  unit power of one A_j and no conj(A) power, each lam a root of det L.
* ``order``: the eps power the rate is derived through, 2 unless declared.

Derived from them, once per case, by :func:`multiple_scales`:

* ``rate_terms``: rows (amplitude, coefficient, eps power p, exponents over
  |A_i|^2, or over A_i for real amplitudes) of the amplitude rate, through
  eps^order; every flow has the form dA_j/dt = rate_j A_j.
  :meth:`CaseSpec.truncated` keeps the rows with p <= terms.
* ``carrier_terms``: the modes, then the correction rows through
  eps^(order - 1), all :data:`CarrierTerm` rows as the derivation returns
  them; the reconstruction is y = 2 Re of their sum.

A declaration the derivation cannot serve raises ``ValueError`` naming the
case: a mode exponent that is not a root of det L, a resonant term that is
not A_j times a rate monomial, and a resonant term below eps^order of a
coupled system.  The catalog declares each case on its first lookup, so
importing the module derives nothing.

One evaluator reads the accelerations and the rate rows.  It multiplies each
row's coefficient by eps, p times, then by the powers in index order, and
starts each sum from its first term; each row's nonzero (index, power) pairs
are picked out once per case.

Also derived, for every case: the sizes (the state dimension is
``len(default_ics)``, so half of it is the number of oscillator components;
the number of amplitudes is half the length of a mode's powers), the
rate, the reconstruction map, its
time derivative (product rule along the amplitude flow, with
d conj(A_j)/dt = conj(rate_j) conj(A_j)) and the
initial-amplitude fit (Newton on the reconstruction and its time derivative
at t=0, each linear solve by Gaussian elimination with partial pivoting).
The amplitudes are real when every mode's lam is real.  The
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

The direct solve and the amplitude flows both step by Taylor series with
:func:`integrate_reference`, the library's one integrator.  Each flow is a
polynomial system y' = P(y), and one plan (:func:`_taylor_plan`) lists the
distinct products P's rows form, so each order's coefficients come from
Cauchy products (:func:`_expansion`).  The direct solve's rows are x' = v
and the accelerations.  An amplitude flow's rows are each rate row times
A_j; complex amplitudes are expanded over the series of A and conj(A), and
the integrator steps A itself.

Everything :func:`compare` runs is Python floats, lists and ``math`` or
``cmath``: the states the integrator steps and samples, the sample grid
(the floats ``np.linspace`` gives), the fit, the reconstruction and the
error norms, so importing or running it loads no numpy.  Only
:meth:`CaseSpec.reconstruct` also takes numpy arrays, for ``blayer``'s
shooting profile.
"""

from __future__ import annotations

import cmath
import copy
import functools
import itertools
import math
import numbers
import operator
from typing import Callable, Optional, Sequence

from . import SolverError  # re-exported: callers catch it as msode.SolverError
# Trajectory is re-exported; integrate_reference is called through this
# module's global, so replacing the attribute intercepts every solve
from .integrator import Trajectory, integrate_reference, max_abs


class RunReport:
    """Outcome of one direct-vs-multiscale comparison run."""

    def __init__(self, case: str, eps: float, horizon: float, max_abs_error: float,
                 l2_error: float, t: Sequence, error: Sequence, stats: dict | None = None):
        if max_abs_error < 0 or l2_error < 0 or any(e < 0 for row in error for e in row):
            raise ValueError("error norms must be nonnegative")
        self.case, self.eps, self.horizon = case, eps, horizon
        self.max_abs_error, self.l2_error = max_abs_error, l2_error
        self.t = t
        self.error = error  # per component its samples; lists for the ODE catalog
        self.stats = {} if stats is None else stats


# (output, coefficient, eps power p, exponents n): adds coefficient eps^p
# prod_i x_i^{n_i} to the output, an acceleration or an amplitude's rate.
PolynomialRow = tuple[int, complex, int, tuple[int, ...]]
# The library's one carrier row, for the ODE catalog and the packets alike:
# (component, coefficient, eps power p, powers n over A_1..A_N then over
# conj(A_1)..conj(A_N), carrier exponent lam) adds
# coefficient eps^p prod_j A_j^{n_j} conj(A_j)^{n_{N+j}} e^{lam t} inside
# 2 Re(...), and lam is sum_j (n_j lam_j + n_{N+j} conj(lam_j)).
CarrierTerm = tuple[int, complex, int, tuple[int, ...], complex]


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


def _taylor_plan(grouped: tuple) -> tuple:
    """The Cauchy products a Taylor solve of y' = P(y) forms, read off P's
    grouped rows, one group per component of y.

    Series 0 .. n - 1 are y's and series n is the constant 1.  Each product
    after them is (series a, state series b), one per distinct product: y y,
    then (y y) y.  Returns (products, terms), with terms per component its
    rows as (coefficient, eps power, series).
    """
    n_state = len(grouped)
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


def _expansion(plan: tuple, eps: float) -> Callable:
    """``expand(y, order)`` of y' = P(y) for :func:`integrate_reference`.

    ``plan`` is P's :func:`_taylor_plan`.  y is a list of Python numbers,
    and so are the coefficients: per component of y a new list c_0..c_N.
    They come order by order from y_{k+1} = P(y)_k / (k + 1), with P(y)_k
    read off the rows through the plan's Cauchy products, in flat lists that
    live across steps.  Where the plan has twice y's series, y is the complex
    A, the plan's series are those of A and conj(A), and the coefficients
    returned are A's.
    """
    products, terms = plan
    n = len(terms)
    series = [[] for _ in range(n + 1 + len(products))]
    cauchy = [(series[slot], series[a], series[b]) for slot, (a, b) in enumerate(products, n + 1)]
    flows = [(s, [(coef * eps**p, series[m]) for coef, p, m in rows])
             for s, rows in zip(series, terms)]

    def expand(y, order):
        start = list(y)
        if len(start) < n:
            start += [a.conjugate() for a in start]
        for s, c in zip(series, start + [1.0]):
            s[:] = [c]
        series[n] += [0.0] * order
        for s in series[n + 1:]:
            s.clear()
        for k in range(order):
            for out, a, b in cauchy:
                out.append(sum(map(operator.mul, a, reversed(b))))
            for s, rows in flows:
                total = 0.0  # the terms summed in order, as sum() adds them
                for c, t in rows:
                    total += c * t[k]
                s.append(total / (k + 1))
        return [s[:] for s in series[:len(y)]]

    return expand


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
    carrier rows (:data:`CarrierTerm`, one unit power of A_j each), and
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
    eps^1 to eps^(order - 1) as :data:`CarrierTerm` rows, one of each
    conjugate pair and the self-conjugate ones halved, as inside 2 Re(...).
    """
    n, nc = len(modes[0][3]) // 2, len(rows[0][3]) // 2
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
        add(x[comp], tuple(powers) + (0,), coef)
        add(x[comp], conj(tuple(powers) + (0,)), coef.conjugate())
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


class CaseSpec:
    """One catalog entry; see the module docstring for what it declares and derives."""

    def __init__(self, name: str, default_ics: tuple[float, ...],
                 accelerations: tuple[PolynomialRow, ...], modes: tuple[CarrierTerm, ...],
                 order: int = 2, exact: Optional[Callable] = None):
        self.name = name
        self.default_ics = default_ics  # positions, then velocities
        self.accelerations = accelerations  # exponents over the state
        self.modes = modes  # the eps^0 carrier rows
        self.order = order  # the eps power the rate is derived through
        self.exact = exact  # (t, eps) -> components
        try:
            rates, carriers = multiple_scales(self.accelerations, self.modes, self.order,
                                              *_operators(self.accelerations, self.n_components))
        except ValueError as error:
            raise ValueError(f"case {self.name}: {error}") from None
        nc, dim = self.n_components, self.state_dim
        # x' = v, then the accelerations, as rows of the first-order system
        velocities = tuple((i, 1.0, 0, tuple(int(j == nc + i) for j in range(dim)))
                           for i in range(nc))
        direct_rows = _group_rows(velocities + tuple((nc + out, coef, p, powers) for out, coef, p,
                                                     powers in self.accelerations), dim)
        self.real_amplitudes = all(complex(lam).imag == 0 for *_, lam in self.modes)
        self._direct_rows = direct_rows
        self._direct_plan = _taylor_plan(direct_rows)
        self._set_tables(tuple(rates), self.modes + tuple(carriers))

    def _set_tables(self, rate_terms: tuple, carrier_terms: tuple) -> CaseSpec:
        """Set the rate and carrier rows and what is read off them; returns the case."""
        n = self.n_amplitudes
        # dA_j/dt = rate_j A_j over the series of A, and for complex
        # amplitudes over those of conj(A) after them, with conjugate rows
        flow = []
        for j, coef, p, powers in rate_terms:
            own = tuple(e + (i == j) for i, e in enumerate(powers))
            if self.real_amplitudes:
                flow.append((j, coef, p, own))
            else:
                flow += [(j, coef, p, own + powers), (n + j, coef.conjugate(), p, powers + own)]
        self.rate_terms, self.carrier_terms = rate_terms, carrier_terms
        self.validity_exponent = 1 + max((row[2] for row in rate_terms), default=0)
        self._rate_rows = _group_rows(rate_terms, n)
        self._amplitude_plan = _taylor_plan(_group_rows(flow, n if self.real_amplitudes else 2 * n))
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
        return len(self.modes[0][3]) // 2

    @property
    def rate_conserved(self) -> bool:
        """Constant along the flow: every amplitude a rate reads is complex
        and has a purely imaginary rate, so no modulus it reads changes."""
        read = {i for *_, powers in self.rate_terms for i, n in enumerate(powers) if n}
        return not (read and self.real_amplitudes) and all(
            complex(coef).real == 0 for out, coef, _, _ in self.rate_terms if out in read
        )

    def direct_expansion(self, eps) -> Callable:
        """``expand`` of the case's equation, over (positions, velocities),
        for :func:`integrate_reference`."""
        return _expansion(self._direct_plan, eps)

    def amplitude_expansion(self, eps) -> Callable:
        """``expand`` of the amplitude flow dA/dt = rate(A) A, over the
        amplitudes, real or complex, for :func:`integrate_reference`."""
        return _expansion(self._amplitude_plan, eps)

    def rate(self, amps, eps):
        """rate_j in dA_j/dt = rate_j A_j."""
        x = list(amps) if self.real_amplitudes else [abs(a) ** 2 for a in amps]
        return tuple(_evaluate(self._rate_rows, x + [eps]))

    def amplitude_closed_form(self, t, amps0, eps):
        """A0 e^{rate(A0) t} on the grid t: per time, the amplitudes."""
        if not self.rate_conserved:
            raise ValueError(f"case {self.name} has no closed-form amplitudes")
        rates = self.rate(amps0, eps)
        return [[a * cmath.exp(s * r) for a, r in zip(amps0, rates)] for s in t]

    def reconstruct(self, t, amps, eps):
        """Oscillator components from the amplitudes at time t: numbers, or
        numpy arrays of one shape, as t and the amplitudes are."""
        return self._carrier_sum(t, amps, eps)

    def reconstruct_dt(self, t, amps, eps):
        """Product rule along the flow: d(A_j^n)/dt = n rate_j A_j^n, and
        d(conj(A_j)^n)/dt = n conj(rate_j) conj(A_j)^n."""
        return self._carrier_sum(t, amps, eps, self.rate(amps, eps))

    def _carrier_sum(self, t, amps, eps, rates=None):
        """2 Re of the carrier rows' sum, per component; numpy's exp for an
        array t (``blayer``'s profile), else cmath's."""
        exp = cmath.exp if isinstance(t, numbers.Number) else _numpy().exp
        sums = [0.0] * self.n_components
        amps = [*amps, *(a.conjugate() for a in amps)]
        rates = None if rates is None else [*rates, *(r.conjugate() for r in rates)]
        for comp, coef, p, powers, lam in self.carrier_terms:
            monomial = math.prod(a**n for a, n in zip(amps, powers) if n)
            term = coef * eps**p * exp(lam * t) * monomial
            if rates is not None:
                term = term * (lam + sum(n * r for n, r in zip(powers, rates) if n))
            sums[comp] = sums[comp] + term
        return [2.0 * s.real for s in sums]


def _numpy():
    import numpy

    return numpy


def _damped_linear_exact(t, eps):
    """y'' + eps y' + y = 0 from (1, 0) at a time or on a list of times, while
    |eps| < 2 (underdamped); nan otherwise."""
    omega = math.sqrt(1.0 - 0.25 * eps * eps) if abs(eps) < 2 else math.nan
    lam = -0.5 * eps + 1j * omega
    c = -lam.conjugate() / (lam - lam.conjugate()) if omega else complex(math.nan)
    if isinstance(t, numbers.Number):
        return [(2.0 * c * cmath.exp(lam * t)).real]
    return [[(2.0 * c * cmath.exp(lam * s)).real for s in t]]


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
        modes=((0, 1.0, 0, (1, 0), 1j),),  # y = A e^{it} + c.c.
        exact=_damped_linear_exact,
    ),
    "cubic": dict(
        default_ics=(1.0, 0.0),
        # y'' = -y + eps y^3
        accelerations=((0, -1.0, 0, (1, 0)), (0, 1.0, 1, (3, 0))),
        modes=((0, 1.0, 0, (1, 0), 1j),),
    ),
    "quadratic_damped": dict(
        default_ics=(1.0, 1.0),
        # y'' = -y' - eps y^2
        accelerations=((0, -1.0, 0, (0, 1)), (0, -1.0, 1, (2, 0))),
        # y = A + B e^{-t}, halved inside 2 Re(...)
        modes=((0, 0.5, 0, (1, 0, 0, 0), 0.0), (0, 0.5, 0, (0, 1, 0, 0), -1.0)),
    ),
    "coupled_cubic": dict(
        # the eps = 0 state of A = B = 0.3
        default_ics=(1.2, -0.6, 0.0, 0.0),
        # x'' = -2x + y + eps x y^2, y'' = -3y + 2x + eps x^2 y
        accelerations=((0, -2.0, 0, (1, 0, 0, 0)), (0, 1.0, 0, (0, 1, 0, 0)),
                       (0, 1.0, 1, (1, 2, 0, 0)), (1, -3.0, 0, (0, 1, 0, 0)),
                       (1, 2.0, 0, (1, 0, 0, 0)), (1, 1.0, 1, (2, 1, 0, 0))),
        # x = A e^{-it} + B e^{-2it} + c.c., y = A e^{-it} - 2B e^{-2it} + c.c.
        modes=((0, 1.0, 0, (1, 0, 0, 0), -1j), (0, 1.0, 0, (0, 1, 0, 0), -2j),
               (1, 1.0, 0, (1, 0, 0, 0), -1j), (1, -2.0, 0, (0, 1, 0, 0), -2j)),
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


def _linspace(start: float, stop: float, num: int):
    """The points of ``np.linspace(start, stop, num)``, one at a time and bit
    for bit: i step + start with step = (stop - start) / (num - 1), or
    i / (num - 1) (stop - start) + start where the step underflows to 0, and
    the last point is stop."""
    div, delta = num - 1, stop - start
    step = delta / div if div > 0 else 0.0
    for i in range(div):
        yield i * step + start if step else i / div * delta + start
    if num > 0:
        yield stop if div else start


def _solve(matrix: list, rhs: list, what: str) -> list:
    """x with matrix x = rhs, by Gaussian elimination with partial pivoting;
    raises :class:`SolverError` naming ``what`` at a zero pivot."""
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for i in range(n):
        pivot = max(range(i, n), key=lambda r: abs(rows[r][i]))
        rows[i], rows[pivot] = rows[pivot], rows[i]
        if rows[i][i] == 0:
            raise SolverError(f"{what}: singular matrix")
        for r in rows[i + 1:]:
            f = r[i] / rows[i][i]
            r[i:] = [a - f * b for a, b in zip(r[i:], rows[i][i:])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - _dot(rows[i][i + 1:n], x[i + 1:])) / rows[i][i]
    return x


def _real_to_amps(case: CaseSpec, vec: list) -> list:
    """The amplitudes of the fit's real Newton vector: (Re A, Im A) for
    complex amplitudes."""
    n = case.n_amplitudes
    if case.real_amplitudes:
        return vec[:n]
    return [complex(re, im) for re, im in zip(vec[:n], vec[n:2 * n])]


def integrate_amplitude(
    case: CaseSpec,
    amps0,
    t_span: tuple[float, float],
    eps: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
) -> Trajectory:
    """Evolve the slow amplitudes; per sample time, the complex amplitudes.

    Stepped by :func:`integrate_reference` in Python floats on
    :meth:`CaseSpec.amplitude_expansion`, at the order min(rtol, atol) gives,
    and returned as its trajectory and meta, real amplitudes made complex.
    Samples at ``t_eval``, by default ``[t_span[1]]`` as in
    :func:`integrate_reference`.  Where the rate is constant along the flow,
    :meth:`CaseSpec.amplitude_closed_form` gives the same path in closed form,
    a reference for checks of this one.
    """
    amps0 = [complex(a) for a in amps0]
    traj = integrate_reference(case.amplitude_expansion(eps),
                               [a.real for a in amps0] if case.real_amplitudes else amps0,
                               t_span, rtol, atol, t_eval)
    if case.real_amplitudes:
        traj.y = [tuple(map(complex, row)) for row in traj.y]
    return traj


def fit_initial_amplitudes(case: CaseSpec, ics, eps: float) -> list:
    """Amplitudes whose reconstruction matches the state and its derivative at t=0.

    Newton iteration with a finite-difference Jacobian, started from the
    eps=0 fit (where the reconstruction is linear in the amplitudes), until
    the residual is below 1e-12; raises :class:`SolverError` after 50
    iterations, and at a singular matrix in either linear solve.  Returns
    the amplitudes as a list: floats for real amplitudes, else complex.
    """
    ics = [float(v) for v in ics]
    if len(ics) != case.state_dim:
        raise ValueError(f"case {case.name} needs {case.state_dim} initial values")
    n_real = case.n_amplitudes if case.real_amplitudes else 2 * case.n_amplitudes
    what = f"initial-amplitude fit for {case.name}"

    def residual(vec: list, e: float) -> list:
        amps = _real_to_amps(case, vec)
        state = case.reconstruct(0.0, amps, e) + case.reconstruct_dt(0.0, amps, e)
        return [v - w for v, w in zip(state, ics)]

    def shifted(vec: list, j: int, h: float) -> list:
        return [v + (h if i == j else 0.0) for i, v in enumerate(vec)]

    def fd_jacobian(vec: list, e: float) -> list:
        h = 1e-7
        columns = [[(a - b) / (2 * h) for a, b in zip(residual(shifted(vec, j, h), e),
                                                      residual(shifted(vec, j, -h), e))]
                   for j in range(n_real)]
        return [list(row) for row in zip(*columns)]

    # eps = 0: the reconstruction is linear, so one Newton step is exact
    vec = [0.0] * n_real
    base = residual(vec, 0.0)
    columns = [[r - b for r, b in zip(residual(shifted(vec, j, 1.0), 0.0), base)]
               for j in range(n_real)]
    vec = _solve([list(row) for row in zip(*columns)], [-b for b in base], what)
    if eps == 0.0:
        return _real_to_amps(case, vec)

    # Damped Newton, continued in eps so the iterate stays on the branch
    # connected to the eps = 0 fit instead of jumping to a spurious root.
    iterations = 0
    for e in itertools.islice(_linspace(0.0, eps, 2 + int(abs(eps) / 0.025)), 1, None):
        while True:
            res = residual(vec, e)
            norm = max_abs(res)
            if norm < 1e-12:
                break
            if iterations >= 50:
                raise SolverError(
                    f"initial-amplitude fit for {case.name} did not reach "
                    f"1e-12 in 50 Newton iterations (residual {norm:.3e})"
                )
            step = _solve(fd_jacobian(vec, e), [-r for r in res], what)
            lam = 1.0
            while (
                max_abs(residual([v + lam * s for v, s in zip(vec, step)], e))
                > (1 - 0.5 * lam) * norm
                and lam > 1e-3
            ):
                lam *= 0.5
            vec = [v + lam * s for v, s in zip(vec, step)]
            iterations += 1
    return _real_to_amps(case, vec)


def naive_damped_expansion(t, eps: float):
    """Direct (non-uniform) two-term expansion of the damped linear oscillator,
    at a time or on a list of times.

    y = cos t - (eps/2)(sin t + t cos t); the secular t cos t term destroys
    the ordering once t ~ 1/eps, which is exactly what the multiple-scales
    reconstruction repairs.
    """
    if isinstance(t, numbers.Number):
        return naive_damped_expansion([t], eps)[0]
    return [math.cos(s) - 0.5 * eps * (math.sin(s) + s * math.cos(s)) for s in t]


def reconstruct_on_grid(case: CaseSpec, amp_traj: Trajectory, eps: float) -> list:
    """Apply the case's reconstruction map along an amplitude trajectory: per
    component, its value at each sample.

    The sum of :meth:`CaseSpec.reconstruct`, taken carrier row by carrier
    row over all the samples at once.
    """
    n, n_t = case.n_amplitudes, len(amp_traj.t)
    amps = [list(column) for column in zip(*amp_traj.y)]  # per amplitude, its samples
    amps += [[a.conjugate() for a in column] for column in amps]
    sums = [[0.0] * n_t for _ in range(case.n_components)]
    carriers = {}  # per exponent lam, e^(lam t) at each sample
    for comp, coef, p, powers, lam in case.carrier_terms:
        # per sample prod_j A_j^(n_j) conj(A_j)^(n_(N+j))
        monomial = [1] * n_t
        for column, k in zip(amps, powers):
            if k:
                monomial = list(map(operator.mul, monomial, column if k == 1 else
                                    [a**k for a in column]))
        if lam not in carriers:
            carriers[lam] = [cmath.exp(lam * t) for t in amp_traj.t]
        scale = coef * eps**p
        sums[comp] = [total + scale * e * m
                      for total, e, m in zip(sums[comp], carriers[lam], monomial)]
    return [[2.0 * total.real for total in row] for row in sums]


MAX_HORIZON = 1e5  # reference-solve budget: the direct solve's steps grow with the horizon
# fit budget: the fit continues in eps in steps of 0.025, so |eps| 100 takes
# 4,002 steps (about 0.1 s)
MAX_EPS = 100.0


def _power(x: float, n: int) -> float:
    """x**n, +-inf past the float range as numpy's float64 gives it, where
    Python's ** raises OverflowError."""
    n = max(-(2**1000), min(n, 2**1000))  # past a float's range |x|**n is 0, 1 or inf
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def resolve_horizon(
    case: CaseSpec, eps: float, horizon_exponent: int | None = None,
    horizon: float | None = None,
) -> float:
    """The horizon :func:`compare` runs to: eps**(-horizon_exponent), or
    ``horizon`` when given explicitly.

    Raises ValueError unless exactly one is given, when eps = 0 meets a
    nonzero exponent, when the exponent exceeds the case's validity exponent
    + 1 or an explicit horizon exceeds |eps|^-(validity_exponent+1), when the
    horizon is not positive (an explicit one, or eps**(-horizon_exponent) of
    a negative eps to an odd power or underflowed to 0), and when it is
    above ``MAX_HORIZON``; also when |eps| is above ``MAX_EPS``, the
    initial-amplitude fit's budget.  Nothing is computed, so callers
    can check a whole eps sweep before running any of it.
    """
    if (horizon is None) == (horizon_exponent is None):
        raise ValueError("give exactly one of horizon_exponent and horizon")
    if not abs(eps) <= MAX_EPS:
        raise ValueError(f"|eps| {abs(eps)} is above the fit's budget of {MAX_EPS}")
    if horizon is None:
        if eps == 0 and horizon_exponent:
            raise ValueError("eps = 0 needs an explicit horizon")
        if horizon_exponent > case.validity_exponent + 1:
            raise ValueError(
                f"horizon exponent {horizon_exponent} exceeds the validity "
                f"exponent {case.validity_exponent} + 1 for case {case.name}"
            )
        horizon = _power(float(eps), -horizon_exponent)
    else:
        limit = _power(abs(eps), -(case.validity_exponent + 1)) if eps else math.inf
        if horizon > limit:
            raise ValueError(
                f"horizon {horizon} exceeds |eps|^-(validity_exponent+1) = {limit}"
            )
    if not horizon > 0:
        raise ValueError(f"horizon {horizon} at eps {eps} is not positive")
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

    The direct path is :func:`integrate_reference` on the full case's
    :meth:`CaseSpec.direct_expansion`, sampled at the positions alone, the
    components compared, and ``stats["direct_steps"]`` counts its steps;
    ``stats["amplitude_steps"]`` counts the amplitude flow's.
    The horizon is :func:`resolve_horizon`'s, from the full case; the fit,
    the amplitude flow and the reconstruction use ``case.truncated(terms)``.
    The output grid always holds ``n_samples`` uniform points, the floats of
    ``np.linspace(0, horizon, n_samples)``, so error norms are comparable
    across eps.  ``l2_error`` is the RMS of the pointwise euclidean error
    norm.  ``stats["trajectories"]`` always holds the compared series,
    ``y_direct`` and ``y_multiscale``, each per component a list of
    ``n_samples`` floats, as ``error`` is.  When the case has an exact
    solution its errors are recorded in ``stats`` as well.  Everything runs
    in Python floats.
    """
    horizon = resolve_horizon(case, eps, horizon_exponent, horizon)
    ics = case.default_ics if ics is None else tuple(ics)
    grid = list(_linspace(0.0, horizon, n_samples))
    flow = case.truncated(terms)

    # the fit checks len(ics), so it runs before the costly direct solve
    amps0 = fit_initial_amplitudes(flow, ics, eps)
    # only the positions are compared, so only they are sampled
    direct = integrate_reference(case.direct_expansion(eps), ics, (0.0, horizon), rtol, atol,
                                 t_eval=grid, components=case.n_components)
    direct_steps, y_direct = direct.meta["n_steps"], [list(column) for column in zip(*direct.y)]
    del direct  # its per-sample tuples would stay beside the columns to the end

    amp_traj = integrate_amplitude(flow, amps0, (0.0, horizon), eps, rtol, atol, t_eval=grid)
    y_ms = reconstruct_on_grid(flow, amp_traj, eps)

    err = [list(map(abs, map(operator.sub, *rows))) for rows in zip(y_direct, y_ms)]
    stats = {
        "direct_steps": direct_steps,
        "amplitude_steps": amp_traj.meta["n_steps"],
        "terms": terms,
        "rtol": rtol,
        "atol": atol,
        "ics": list(ics),
        "trajectories": {"y_direct": y_direct, "y_multiscale": y_ms},
    }
    if case.exact is not None:
        y_exact = case.exact(grid, eps)
        for key, path in (("max_abs_error_vs_exact", y_ms),
                          ("max_abs_error_direct_vs_exact", y_direct)):
            stats[key] = max_abs([max_abs(list(map(operator.sub, *rows)))
                                  for rows in zip(y_exact, path)])
    squares = [e * e for e in err[0]]  # per sample, summed over the components
    for row in err[1:]:
        squares = [s + e * e for s, e in zip(squares, row)]
    return RunReport(
        case=case.name,
        eps=eps,
        horizon=horizon,
        max_abs_error=max_abs([max_abs(row) for row in err]),
        l2_error=math.sqrt(sum(squares) / len(squares)),
        t=grid,
        error=err,
        stats=stats,
    )
