"""Wave-packet multiple scales for 1D dispersive PDEs on periodic domains.

A model is one :class:`Dispersion` declaration: the coefficients of
omega^2 as a polynomial in k^2 and the nonlinearity power p (2 or 3).
Derived from it are the direct-solve symbol, omega, omega' =
(omega^2)'/(2 omega), the conserved energy and the dealiased band
K = (n - 1) // (p + 1), and, at the carrier wavenumber k, by the
multiple-scales derivation of the ODE catalog (:func:`msode.multiple_scales`)
with the detuning D(h) in place of the ODE's L
(:meth:`Dispersion.harmonic_balance`), the packet's envelope equation

    A_t = -omega' A_x + i beta A_xx + i gamma |A|^2 A,   beta = omega''(k)/2,

and its carrier rows, the ODE catalog's rows (:data:`msode.CarrierTerm`)
with one component: a row of powers (m, n) over A and conj(A) carries the
harmonic e^{i h theta}, h = m - n, and its exponent is h times the mode's
-i omega.  The field is u = 2 Re of their sum, the highest eps power is the
highest reconstruction order, and u_t follows by the product rule.
For odd p, u0^p with u0 = A e^{i theta} + c.c. forces e^{i theta} at first
order, so gamma = eps F/(2 omega) with F the coefficient of |A|^2 A there,
and the field is u0.  For even p, u0^p has only non-resonant harmonics; each
is divided by D(h) = omega(h k)^2 - h^2 omega(k)^2 into the first-order field
u1, gamma = eps^2 F/(2 omega) comes from p u0^{p-1} u1, and the field is
u0 + eps u1.

Three second-order-in-time models are declared:

klein_gordon
    u_tt - u_xx + u = eps u^2,   omega(k) = sqrt(1 + k^2).
    The slowly varying envelope A of a carrier e^{i(kx - omega t)} obeys a
    nonlinear Schroedinger equation,

        A_t = -(k/omega) A_x + i/(2 omega^3) A_xx + i eps^2 5/(3 omega) |A|^2 A,

    and the field is u = A e^{i theta} + eps (|A|^2 - A^2 e^{2 i theta}/3) + c.c.,
    the eps terms being the first-order correction.

fourth_order
    u_tt + u_xx + u_xxxx + u = eps u^3,   omega(k) = sqrt(k^4 - k^2 + 1).
    The envelope obeys the NLS
    A_t = -omega' A_x + i (omega''/2) A_xx + i eps 3/(2 omega) |A|^2 A
    (eps kept explicit; omega''(1)/2 = 2), and the field is
    u = A e^{i theta} + c.c.  The cubic harmonic resonates where
    omega(3k) = 3 omega(k), at k = 1/sqrt(3) (:func:`find_phase_matched`),
    and there this single envelope does not apply.

cubic_klein_gordon
    u_tt - u_xx + u = eps u^3: the NLS with beta = 1/(2 omega^3) and
    gamma = eps 3/(2 omega), and u = A e^{i theta} + c.c.  Its cubic harmonic
    never resonates: omega(3k)^2 - 9 omega(k)^2 = -8.

Direct reference solutions come from a Fourier pseudospectral first-order
system in transform space, stepped by Taylor series (:func:`_solve_direct`,
through :func:`integrator.integrate_reference`, the stepper of every ODE
solve as well).  The state is the dealiased band itself,
the rfft modes 0..K of u and u_t with (p + 1) K < n, so the products u^p
taken on the n-point grid are exactly alias-free (the 2/3 rule for quadratic
terms, the 1/2 rule for cubic ones), and the modes above K, which no
product forces and the periodic start leaves at roundoff, are not stepped
at their high frequencies.  Each order of a step costs one irfft of u's
coefficient, the Cauchy products of u^p pointwise on the grid against the
stored coefficients, and one rfft back to the band.
The envelope equation is integrated by Strang-split steps whose linear part
is exact in transform space and whose pointwise nonlinear part is exact.
The half kicks that close one step and open the next are merged into one
full kick (a kick leaves |A| unchanged); the scheme is still second-order
Strang.

Packet grids have 2^a, 3 2^a or 5 2^a points (:func:`_grid_size`), sizes
whose FFTs run at near power-of-two speed: a field grid rounds its points
per wavelength times wavelengths up to the next such size, not to the next
power of two, so a packet just past a power of two carries a band about 5/8
as wide.  A packet comparison evolves the envelope on its own grid, not the
field's: the smallest such size with two points per carrier wavelength
(Nyquist wavenumber at least k), capped at the field grid, which at the
default 16 points per wavelength is an eighth of it.  The envelope's
wavenumbers are << k by the scale separation the derivation assumes, so
band-limited resampling (:func:`_resample`: spectral truncation onto the
envelope grid, zero padding back to the field grid) drops only modes at the
roundoff level: the Gaussian start is periodic (:func:`gaussian_packet`), so
its spectrum has no floor above them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .integrator import integrate_reference, taylor_order
from .msode import RunReport, multiple_scales
from .series import derivative, horner


# --- models -------------------------------------------------------------------

@dataclass(frozen=True)
class Dispersion:
    """u_tt + sum_j c_j (-d_x^2)^j u = eps u^p; ``omega2`` = (c_0, c_1, ...)."""

    kind: str
    omega2: tuple[float, ...]
    power: int

    def __post_init__(self):
        if self.power not in (2, 3):
            raise ValueError(
                f"{self.kind}: power {self.power} is not 2 or 3, the powers whose "
                "envelope nonlinearity is the |A|^2 A the split step integrates"
            )

    @property
    def max_order(self) -> int:
        """Highest reconstruction order: the carriers stop below gamma's eps
        power, which is 1 for odd p and 2 for even p."""
        return 1 - self.power % 2

    def symbol(self, k):
        """omega(k)^2."""
        return horner(self.omega2, np.asarray(k) ** 2)

    def omega(self, k):
        return np.sqrt(self.symbol(k))

    def omega_prime(self, k):
        k = np.asarray(k)
        slope = derivative(self.omega2)  # d omega^2 / d(k^2)
        return k * horner(slope, k**2) / self.omega(k)

    def beta(self, k):
        """The envelope's dispersion coefficient omega''(k)/2.

        With S(q) = omega^2 at q = k^2, omega'' = (S (S' + 2 q S'') - q S'^2) / omega^3.
        """
        q = np.asarray(k) ** 2
        slope = derivative(self.omega2)
        s1, s2 = horner(slope, q), horner(derivative(slope), q)
        curvature = self.symbol(k) * (s1 + 2.0 * q * s2) - q * s1 * s1
        return curvature / (2.0 * self.omega(k) ** 3)

    def detuning_coefficients(self, h) -> list:
        """D(h) = omega(h k)^2 - h^2 omega(k)^2 as a polynomial in q = k^2:
        c_j (h^{2j} - h^2) multiplies q^j, and the j = 1 one is exactly 0."""
        return [c * (h ** (2 * j) - h * h) for j, c in enumerate(self.omega2)]

    def detuning(self, k, h):
        """D(h) at k.  It divides the harmonic h of the forcing in
        :meth:`harmonic_balance`, and a zero of D(h) makes that harmonic
        resonant (:func:`find_phase_matched`)."""
        return horner(self.detuning_coefficients(h), k**2)

    @functools.cache  # per (model, k): the model is frozen and the result a tuple
    def harmonic_balance(self, k: float) -> tuple[float, tuple[tuple, ...]]:
        """(F, carriers) at carrier wavenumber k, by the multiple-scales
        derivation the ODE catalog uses (:func:`msode.multiple_scales`).

        Its one mode is u0 = A e^{i theta} + c.c., theta = k x - omega t, and
        the detuning D(h) (:meth:`detuning`) stands in for L: it divides each
        non-resonant term A^m conj(A)^n, of harmonic h = m - n, into a
        carrier.  F is the coefficient of the resonant |A|^2 A e^{i theta}
        forcing, so gamma = eps^(max_order + 1) F / (2 omega); the derivation
        runs with L' = 1 in place of -2 i omega, so its one rate row holds F.
        For odd p, F comes from u0^p; for even p, u0^p holds only even, so
        non-resonant, harmonics, and F comes from p u0^{p-1} u1.  So no rate
        below the top order feeds back into the derivation, and the stand-in
        L' changes nothing but the scale of the top one.  The
        carriers are the mode, then the derivation's rows
        (:data:`msode.CarrierTerm`), those of u1, with h = m - n >= 0, the
        h = 0 term halved inside u = 2 Re(...), sorted by eps power and then h,
        which fixes the order the reconstruction sums them in.  Derived once
        per model and k.
        """
        mode = (0, 1.0, 0, (1, 0), complex(0.0, -float(self.omega(k))))
        (rate,), rows = multiple_scales(
            ((0, 1.0, 1, (self.power, 0)),), (mode,), self.max_order + 1,
            lambda key, lam: [[self.detuning(k, key[0] - key[1])]], lambda lam: [[1.0]])
        return rate[1], (mode, *sorted(rows, key=lambda row: (row[2], row[3][0] - row[3][1])))


_DISPERSIONS = {
    d.kind: d
    for d in (
        Dispersion("klein_gordon", (1.0, 1.0), 2),  # u_tt - u_xx + u = eps u^2
        Dispersion("fourth_order", (1.0, -1.0, 1.0), 3),  # u_tt + u_xx + u_xxxx + u = eps u^3
        Dispersion("cubic_klein_gordon", (1.0, 1.0), 3),  # u_tt - u_xx + u = eps u^3
    )
}


def dispersion(kind: str) -> Dispersion:
    try:
        return _DISPERSIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown dispersion kind {kind!r}; known: {sorted(_DISPERSIONS)}"
        ) from None


def dispersion_kinds() -> list[str]:
    return sorted(_DISPERSIONS)


def find_phase_matched(d: Dispersion, n: int, k_range: tuple[float, float]) -> list[float]:
    """Phase-matched carriers in k_range: the zeros of the detuning D(n).

    D(n) = (omega(n k) - n omega(k)) (omega(n k) + n omega(k)), and the
    second factor is positive, so D(n) vanishes where omega(n k) = n
    omega(k).  D(n) is a polynomial in q = k^2
    (:meth:`Dispersion.detuning_coefficients`), so its zeros are the real
    roots q >= 0 of that polynomial, found by ``np.roots``: no grid, no
    bisection, and every k_range of finite floats is searched whole.
    """
    if n not in (2, 3):
        raise ValueError("harmonic order must be 2 or 3")
    lo, hi = k_range
    qs = np.roots(d.detuning_coefficients(n)[::-1])
    ks = {sign * math.sqrt(q.real) for q in qs if q.imag == 0 and q.real >= 0 for sign in (1, -1)}
    return sorted(k for k in ks if lo <= k <= hi)


# --- fields ---------------------------------------------------------------------

def _grid_size(n: int) -> int:
    """The smallest of 2^a, 3 2^a and 5 2^a that is at least n.

    Such sizes run the FFT at near power-of-two speed, and the nearest one
    is less than a third above n, where the next power of two can be nearly
    twice n.
    """
    return min(f << (-(-n // f) - 1).bit_length() for f in (1, 3, 5))


def _check_grid_size(n: int):
    if n % 2 or _grid_size(n) != n:
        raise ValueError(f"grid size {n} is not 2^a, 3 2^a or 5 2^a with a >= 1")


MAX_GRID = 2**16  # packet grid budget: 1 MiB of complex samples per field
# Packet time budgets: the grid budget does not see the horizon where the
# group velocity vanishes (fourth_order at k = 1/sqrt(2)).
MAX_HORIZON = 1e4
MAX_SPLIT_STEPS = 10**6
# Snapshot budget, checkpoints x grid points: the direct solve samples a state
# of 4(K + 1) doubles per checkpoint and turns it into 2n of field; 64
# checkpoints at the grid budget.
MAX_SNAPSHOT_POINTS = 2**22
# Direct-solve work budget, grid points x horizon x the band's top frequency
# omega(2 pi K / L), which an explicit step must resolve: the solve's cost
# grows with it.  The shipped and benchmark packets stay at or below 3.3e6.
MAX_DIRECT_WORK = 2e7
# Smallest packet |amplitude|: below it even the peak's square is subnormal,
# so the L2 norms lose their digits or underflow to 0.
MIN_AMPLITUDE = float(np.sqrt(np.finfo(float).tiny))


def _amplitude_limits(d: Dispersion, eps: float, k: float) -> tuple[float, float]:
    """The weak-nonlinearity and the overflow limits on a carrier-k packet's |amplitude|.

    The envelope equation assumes a weak nonlinearity: each eps^q carrier is
    (|eps| |A|^(p-1))^q times the leading one, so |eps| |amplitude|^(p-1) <= 1
    (no limit at eps = 0).  Under it the starting field stays below
    2 (sum of the carriers' |coefficients|) |amplitude|, and the largest power
    a run takes of it, the energy's u^(p+1) summed over at most MAX_GRID
    points, must not overflow.
    """
    with np.errstate(divide="ignore", over="ignore"):  # eps 0 or subnormal: no limit
        weak = float(np.float64(abs(eps)) ** (-1.0 / (d.power - 1)))
    field_bound = 2.0 * sum(abs(carrier[1]) for carrier in d.harmonic_balance(k)[1])
    finite = (np.finfo(float).max / MAX_GRID) ** (1.0 / (d.power + 1)) / field_bound
    return weak, finite


def grid_points(length: float, n: int) -> np.ndarray:
    return np.arange(n) * (length / n)


@dataclass(frozen=True)
class WavePacketField:
    """Complex envelope samples on a periodic grid plus carrier metadata."""

    length: float
    values: np.ndarray
    k: float
    eps: float
    kind: str = "klein_gordon"

    def __post_init__(self):
        _check_grid_size(len(self.values))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        m = self.k * self.length / (2.0 * np.pi)
        if abs(m - round(m)) > 1e-9:
            raise ValueError(
                f"carrier k={self.k} is not an integer multiple of 2*pi/L"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.length, self.n)


@dataclass(frozen=True)
class RealField:
    """Real field samples u and their time derivative on a periodic grid."""

    length: float
    u: np.ndarray
    ut: np.ndarray

    def __post_init__(self):
        _check_grid_size(len(self.u))
        if len(self.u) != len(self.ut):
            raise ValueError("u and ut must share the grid")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "ut", np.asarray(self.ut, dtype=float))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.length, self.n)


@dataclass(frozen=True)
class DirectRun:
    """Snapshots of a direct PDE solve."""

    t: np.ndarray
    fields: list[RealField]
    meta: dict = field(default_factory=dict)


def _wavenumbers_rfft(length: float, n: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)


def _wavenumbers(fld: WavePacketField) -> np.ndarray:
    """Angular wavenumbers of the full FFT of an envelope."""
    return 2.0 * np.pi * np.fft.fftfreq(fld.n, d=fld.length / fld.n)


def _direct_band(n: int, power: int) -> int:
    """Modes 0..K the direct solve carries on n points: K + 1, K = (n - 1) // (p + 1)."""
    return (n - 1) // (power + 1) + 1


def _power(u: np.ndarray, p: int) -> np.ndarray:
    """u**p for an integer p >= 1, by repeated multiplication.

    numpy squares by a fast path but sends u**3 to libm pow, many times
    slower than u*u*u; u*u is bit-identical to u**2.
    """
    out = u
    for _ in range(p - 1):
        out = out * u
    return out


def _resample(values: np.ndarray, n: int) -> np.ndarray:
    """Periodic samples on n points of the trigonometric interpolant of ``values``.

    Spectral truncation to the modes -n/2 .. n/2 - 1 onto a coarser grid,
    zero padding onto a finer one; ``values`` itself when n is its length.
    """
    m = len(values)
    if n == m:
        return values
    spectrum = np.fft.fft(values)
    half = min(m, n) // 2
    out = np.zeros(n, complex)
    out[:half] = spectrum[:half]
    out[-half:] = spectrum[-half:]
    return np.fft.ifft(out) * (n / m)


def _split_steps(span: float, dt: float) -> float:
    """Strang steps over ``span``: max(1, rint(span/dt)), inf if span/dt overflows."""
    return max(1.0, np.rint(span / dt))


def energy(fld: RealField, eps: float, kind: str) -> float:
    """Conserved energy of the direct flow, by spectral differentiation.

    int 1/2 u_t^2 + 1/2 sum_j c_j (d_x^j u)^2 - eps u^{p+1}/(p+1) dx for the
    model's c_j and p, e.g. 1/2 (u_t^2 + u^2 + u_x^2) - (eps/3) u^3 for klein_gordon.
    """
    d = dispersion(kind)
    kappa = _wavenumbers_rfft(fld.length, fld.n)
    u_hat = np.fft.rfft(fld.u)
    density = 0.5 * fld.ut**2 - eps / (d.power + 1) * _power(fld.u, d.power + 1)
    for j, c in enumerate(d.omega2):
        dju = np.fft.irfft((1j * kappa) ** j * u_hat, fld.n) if j else fld.u
        density = density + 0.5 * c * dju**2
    return float(np.sum(density) * fld.length / fld.n)


def _taylor_coefficients(z: np.ndarray, order: int, eps: float, symbol: np.ndarray,
                         n: int, power: int) -> np.ndarray:
    """Taylor coefficients to ``order`` of the band flow about the state z.

    z is [u_hat, v_hat], the band of u and v = u_t (K + 1 modes each) as
    interleaved real and imaginary parts, and ``symbol`` is omega^2 on the
    band.  Row k of the result is z's k-th coefficient, from
    u_hat_{k+1} = v_hat_k / (k + 1) and
    v_hat_{k+1} = (eps N_k - symbol u_hat_k) / (k + 1), where N_k is the band
    of (u^p)_k.  Per order, one irfft gives u's coefficient U_k on the n-point
    grid; the Cauchy products (u^j)_k = sum_i (u^(j-1))_i U_(k-i), j = 2..p,
    are taken pointwise against the stored U_0..U_k and (u^(j-1))_0..k; one
    rfft truncated to the band gives N_k.  The products are band-limited to
    p K < n, so N_k is exactly alias-free (see :func:`_solve_direct`).
    """
    parts = 2 * len(symbol)  # the floats of one band
    symbol = np.repeat(symbol, 2)
    c = np.empty((order + 1, 2 * parts))
    c[0] = z
    u_hat, v_hat = c[:, :parts], c[:, parts:]
    powers = np.empty((power - 1, order, n))  # the coefficients of u, ..., u^(p-1)
    for k in range(order):
        powers[0, k] = np.fft.irfft(u_hat[k].view(complex), n)
        back = powers[0, k::-1]  # U_k, ..., U_0
        for j in range(1, power - 1):
            powers[j, k] = np.einsum("ij,ij->j", powers[j - 1, : k + 1], back)
        product = np.einsum("ij,ij->j", powers[-1, : k + 1], back)
        nonlinear = np.fft.rfft(product)[: parts // 2].view(float)
        u_hat[k + 1] = v_hat[k] / (k + 1)
        v_hat[k + 1] = (eps * nonlinear - symbol * u_hat[k]) / (k + 1)
    return c


def _solve_direct(
    eps: float,
    u0: RealField,
    t_end: float,
    kind: str = "klein_gordon",
    rtol: float = 1e-10,
    t_eval: Sequence[float] | None = None,
    atol: float = 1e-12,
) -> DirectRun:
    """Pseudospectral reference solve of the model ``kind`` from u0 to t_end.

    The state is the dealiased band: the rfft modes 0..K of u and u_t, with
    K = (n - 1) // (p + 1) the largest K with (p + 1) K < n, so the p-fold
    product on the n-point grid is exactly alias-free (the 2/3 rule for
    quadratic terms, the 1/2 rule for cubic ones).  The modes above K are
    never forced, so they are not carried: the solve starts from the band
    projection of u0, which differs from u0 at roundoff for the periodic
    :func:`gaussian_packet` start.

    The band flow is stepped by :func:`integrator.integrate_reference`,
    expanded about each step's start by :func:`_taylor_coefficients`, to the
    order :func:`integrator.taylor_order` gives at min(rtol, atol / max|u0|):
    atol counts relative to the starting field, so the order does not change
    with the amplitude when atol scales with it, as :func:`packet_compare`'s
    does, and a loose rtol alone does not lower it.  |c_k| and max|y| are
    taken over the real and imaginary parts.  ``meta`` is the driver's:
    ``nfev`` counts the nonlinear-term evaluations (an irfft and an rfft
    each, so steps times order), then ``n_steps``, ``n_dense``, the order and
    the tolerances.  Raises :class:`asymptotica.SolverError` as the driver
    does.
    """
    d = dispersion(kind)
    n = u0.n
    band = _direct_band(n, d.power)
    symbol = d.symbol(_wavenumbers_rfft(u0.length, n)[:band])
    z0 = np.concatenate([np.fft.rfft(u0.u)[:band], np.fft.rfft(u0.ut)[:band]]).view(float)
    size = float(np.max(np.abs(u0.u)))
    traj = integrate_reference(
        functools.partial(_taylor_coefficients, eps=eps, symbol=symbol, n=n, power=d.power),
        z0, (0.0, t_end), rtol, atol, t_eval,
        order=taylor_order(min(rtol, atol / size) if size else rtol))

    def field_of(z):
        c = z.view(complex)
        return RealField(u0.length, np.fft.irfft(c[:band], n), np.fft.irfft(c[band:], n))

    return DirectRun(t=traj.t, fields=[field_of(z) for z in traj.y], meta=traj.meta)


# --- envelope solvers -----------------------------------------------------------

def envelope_coefficients(fld: WavePacketField) -> tuple[float, float, float]:
    """(advection speed, dispersion coefficient, cubic coefficient) for the envelope.

    The envelope equation is A_t = -c A_x + i beta A_xx + i gamma |A|^2 A with
    c = omega'(k), beta = omega''(k)/2 and gamma = eps^(max_order + 1) F /
    (2 omega), F from :meth:`Dispersion.harmonic_balance`: e.g. beta =
    1/(2 omega^3) and gamma = eps^2 5/(3 omega) for klein_gordon, beta = 2 at
    k = 1 and gamma = eps 3/(2 omega) for fourth_order.
    """
    d = dispersion(fld.kind)
    forcing, _ = d.harmonic_balance(fld.k)
    gamma = fld.eps ** (d.max_order + 1) * forcing / (2.0 * d.omega(fld.k))
    return d.omega_prime(fld.k), d.beta(fld.k), gamma


def envelope_rhs(fld: WavePacketField) -> np.ndarray:
    """Instantaneous A_t of the envelope equation, by spectral derivatives."""
    c, beta, gamma = envelope_coefficients(fld)
    kappa = _wavenumbers(fld)
    a_hat = np.fft.fft(fld.values)
    a_x = np.fft.ifft(1j * kappa * a_hat)
    a_xx = np.fft.ifft(-(kappa**2) * a_hat)
    return (
        -c * a_x
        + 1j * beta * a_xx
        + 1j * gamma * np.abs(fld.values) ** 2 * fld.values
    )


def solve_nls(
    fld: WavePacketField,
    t_end: float,
    dt: float,
    checkpoints: Sequence[float] | None = None,
) -> WavePacketField | list[WavePacketField]:
    """Strang-split integration of the envelope equation.

    The linear substep (advection plus dispersion) is exact in transform
    space; the cubic substep is exact pointwise because |A| is constant
    along it.  For that reason the closing half kick of one step and the
    opening half kick of the next are merged into one full kick, and only
    the ends of each span between checkpoints keep a half kick; the scheme
    is still second-order Strang.  With ``checkpoints``, none beyond
    ``t_end``, a list of fields at those times is returned (dt is shrunk per
    segment to land on them exactly).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c, beta, gamma = envelope_coefficients(fld)
    kappa = _wavenumbers(fld)
    symbol = -1j * c * kappa - 1j * beta * kappa**2

    def kick(a: np.ndarray, theta: float) -> np.ndarray:
        """A exp(i theta |A|^2): the cubic flow over time theta/gamma."""
        return a * np.exp(1j * theta * (a.real**2 + a.imag**2))

    def advance(values: np.ndarray, span: float) -> np.ndarray:
        steps = int(_split_steps(span, dt))
        h = span / steps
        linear = np.exp(symbol * h)
        a = kick(values, 0.5 * gamma * h)
        for _ in range(steps - 1):
            a = kick(np.fft.ifft(linear * np.fft.fft(a)), gamma * h)
        return kick(np.fft.ifft(linear * np.fft.fft(a)), 0.5 * gamma * h)

    if checkpoints is None:
        return replace(fld, values=advance(fld.values, t_end))
    if max(checkpoints, default=0.0) > t_end:
        raise ValueError(f"checkpoint {max(checkpoints)} is beyond t_end {t_end}")
    out = []
    a = fld.values
    t_prev = 0.0
    for t_next in checkpoints:
        if t_next < t_prev:
            raise ValueError("checkpoints must be nondecreasing")
        if t_next > t_prev:
            a = advance(a, t_next - t_prev)
        out.append(replace(fld, values=a.copy()))
        t_prev = t_next
    return out


# --- reconstruction and comparison ----------------------------------------------

def reconstruct_field(fld: WavePacketField, t: float, order: int) -> RealField:
    """Real field and its exact time derivative from the envelope at time t.

    u = 2 Re of the sum of the carriers (:meth:`Dispersion.harmonic_balance`)
    whose eps power is at most ``order``, each row's harmonic h = m - n read
    off its powers (m, n) of A and conj(A); u_t by the product rule, with A_t
    from the envelope equation and d/dt e^{i h theta} = lam e^{i h theta},
    lam = -i h omega the row's exponent.
    """
    d = dispersion(fld.kind)
    if order not in range(d.max_order + 1):
        raise ValueError(f"order must be in 0..{d.max_order} for {fld.kind}")
    omega = d.omega(fld.k)
    a, a_t = fld.values, envelope_rhs(fld)
    a_bar, a_bar_t = np.conj(a), np.conj(a_t)
    phase = np.exp(1j * (fld.k * fld.x - omega * t))
    u = u_t = 0.0
    for _, coef, p, (m, n), lam in d.harmonic_balance(fld.k)[1]:
        if p > order:
            continue
        c = coef * fld.eps**p * phase ** (m - n)
        mono = a**m * a_bar**n
        mono_t = (m * a ** max(m - 1, 0) * a_bar**n * a_t
                  + n * a**m * a_bar ** max(n - 1, 0) * a_bar_t)
        u = u + c * mono
        u_t = u_t + c * (mono_t + lam * mono)
    return RealField(fld.length, 2.0 * np.real(u), 2.0 * np.real(u_t))


def gaussian_packet(
    eps: float,
    k: float,
    amplitude: float = 0.5,
    sigma_wavelengths: float = 10.0,
    t_end: float = 0.0,
    points_per_wavelength: int = 16,
    kind: str = "klein_gordon",
) -> WavePacketField:
    """Gaussian envelope a exp(-(x-x_c)^2 / 2 sigma^2) on a big-enough periodic domain.

    The derivation assumes the envelope varies slowly against the carrier,
    so sigma must be at least 10 carrier wavelengths.  The domain is sized
    so the carrier is an exact grid wavenumber and the packet, moving at
    the group velocity, never wraps within t_end (L >= x_c + |omega'| t_end
    + 6 sigma with x_c = 6 sigma).  The envelope is the sum of the
    Gaussian's periodic images j = -1, 0, 1, centred at x_c + j L, so it is
    smooth across the boundary and its spectrum falls to roundoff; the next
    images are below e^-160 on the domain (L >= 12 sigma).  The grid has
    ``points_per_wavelength`` times the domain's wavelengths rounded up to
    the next 2^a, 3 2^a or 5 2^a points (:func:`_grid_size`).
    """
    if sigma_wavelengths < 10.0:
        raise ValueError("envelope must span at least 10 carrier wavelengths")
    wavelength = 2.0 * np.pi / k
    sigma = sigma_wavelengths * wavelength
    if not 0.0 < 2.0 * sigma * sigma < np.inf:
        raise ValueError(
            f"carrier k={k} gives the Gaussian a 2 sigma^2 of {2.0 * sigma * sigma}: "
            "it must be a positive finite float"
        )
    x_c = 6.0 * sigma
    l_min = x_c + abs(dispersion(kind).omega_prime(k)) * t_end + 6.0 * sigma
    m = np.ceil(l_min / wavelength)  # carrier wavelengths on the domain
    # the budget before the conversion: int() takes no inf
    if not m <= MAX_GRID or points_per_wavelength * int(m) > MAX_GRID:
        raise ValueError(
            f"the packet needs {points_per_wavelength} grid points on each of {m:.6g} "
            f"carrier wavelengths, above the budget of {MAX_GRID}: "
            "shorten the horizon or lower points_per_wavelength"
        )
    m = int(m)
    length = m * wavelength
    n = _grid_size(points_per_wavelength * m)
    x = grid_points(length, n)
    # in units of sigma: sigma**2 may overflow, the squares of z = (x - x_c - j L) / sigma
    # cannot (L / sigma <= 6554 within the grid budget)
    values = amplitude * sum(
        np.exp(-0.5 * ((x - x_c - j * length) / sigma) ** 2) for j in (-1, 0, 1)
    )
    return WavePacketField(length, values, k, eps, kind)


def packet_compare(
    eps: float,
    k: float,
    amplitude: float = 0.5,
    sigma_wavelengths: float = 10.0,
    order: int = 1,
    checkpoints: Sequence[float] | None = None,
    dt: float = 0.02,
    rtol: float = 1e-9,
    kind: str = "klein_gordon",
    points_per_wavelength: int = 16,
) -> RunReport:
    """Direct solve versus envelope evolution for one Gaussian wave packet.

    The direct solver starts from the order-``order`` reconstruction at t=0;
    both paths then evolve independently and are compared at the checkpoint
    times, which default to ``[1/eps]``; the domain is sized for the horizon
    ``max(1/eps, max(checkpoints))``, the last checkpoint alone when eps <= 0.
    ``l2_error`` is the relative L2 error at the final checkpoint;
    ``error`` holds the per-checkpoint relative L2 errors; ``stats`` records
    the grid, the direct run's energy drift (from u0), its nonlinear-term
    evaluations ``nfev_direct`` (one irfft-rfft pair each; Taylor steps
    times order) and band size ``direct_modes`` = K + 1,
    the envelope's L2 drift, and
    ``stats["fields"]`` always holds the compared snapshots themselves: the
    grid ``x`` and, per checkpoint, ``t``, ``direct`` and ``reconstructed``.
    The envelope evolves on its own grid of ``envelope_grid_n`` points: the
    smallest 2^a, 3 2^a or 5 2^a (:func:`_grid_size`, as for ``grid_n``) with
    two points per carrier wavelength, capped at the field grid's ``grid_n``
    (``grid_n / 8`` at 16 points per wavelength).  It is restricted there by
    spectral truncation, and each checkpoint's envelope is zero padded back
    to the field grid before reconstruction; ``envelope_l2_drift_rel`` is
    measured on the envelope grid, where the split step conserves it.
    The direct solve runs at atol 2e-11 |amplitude| (1e-11 at the default
    0.5), so its work does not grow with the amplitude at fixed eps
    |amplitude|^(p-1), and the envelope at split step ``dt`` 0.02, the value
    the acceptance pilot pinned.  The horizon, the
    split-step count, the snapshot points (checkpoints times grid points)
    and the direct solve's work (grid points times horizon times the band's
    top frequency) are held to ``MAX_HORIZON``, ``MAX_SPLIT_STEPS``,
    ``MAX_SNAPSHOT_POINTS`` and ``MAX_DIRECT_WORK``, and ``|amplitude|`` to
    at least ``MIN_AMPLITUDE`` and at most the weak-nonlinearity and overflow
    limits of :func:`_amplitude_limits`, before any solve.
    """
    if not abs(amplitude) >= MIN_AMPLITUDE:
        raise ValueError(
            f"amplitude {amplitude} is below {MIN_AMPLITUDE:.3g}, where the error norms "
            "underflow; a zero-amplitude packet has no relative error"
        )
    d = dispersion(kind)
    weak, finite = _amplitude_limits(d, eps, k)
    if not abs(amplitude) <= weak:
        raise ValueError(
            f"amplitude {amplitude} is beyond |amplitude| <= {weak:.3g}, the weak "
            f"nonlinearity |eps| |amplitude|^{d.power - 1} <= 1 that the {kind} envelope "
            f"equation assumes at eps {eps}"
        )
    if not abs(amplitude) <= finite:
        raise ValueError(
            f"amplitude {amplitude} is beyond |amplitude| <= {finite:.3g}, above which "
            f"u^{d.power + 1} of the {kind} field overflows"
        )
    if checkpoints is None and eps <= 0:
        raise ValueError("eps <= 0 needs explicit checkpoints")
    checkpoints = [1.0 / eps] if checkpoints is None else list(checkpoints)
    horizon = max(1.0 / eps if eps > 0 else 0, max(checkpoints))
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} is above the budget of {MAX_HORIZON}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    segments = zip([0.0, *checkpoints], checkpoints)
    steps = sum(_split_steps(b - a, dt) for a, b in segments if b > a)
    if steps > MAX_SPLIT_STEPS:
        raise ValueError(
            f"dt {dt} needs {steps:.3g} split steps, above the budget of {MAX_SPLIT_STEPS}"
        )
    packet = gaussian_packet(
        eps, k, amplitude, sigma_wavelengths, horizon, points_per_wavelength, kind
    )
    if len(checkpoints) * packet.n > MAX_SNAPSHOT_POINTS:
        raise ValueError(
            f"{len(checkpoints)} checkpoints on a {packet.n}-point grid need "
            f"{len(checkpoints) * packet.n} snapshot points, above the budget of "
            f"{MAX_SNAPSHOT_POINTS}: use fewer checkpoints or a coarser grid"
        )
    band = _direct_band(packet.n, d.power)
    with np.errstate(over="ignore"):  # an overflow to inf fails the budget below
        top = float(d.omega(2.0 * np.pi * (band - 1) / packet.length))
    work = packet.n * max(checkpoints) * top
    if not work <= MAX_DIRECT_WORK:
        raise ValueError(
            f"the direct solve on a {packet.n}-point grid to t = {max(checkpoints):.6g} "
            f"resolves frequencies up to omega = {top:.6g}: grid x horizon x frequency "
            f"= {work:.3g}, above the budget of {MAX_DIRECT_WORK:.3g}: "
            "shorten the horizon or lower k or points_per_wavelength"
        )
    u0 = reconstruct_field(packet, 0.0, order)
    direct = _solve_direct(eps, u0, max(checkpoints), kind, rtol, t_eval=checkpoints,
                           atol=2e-11 * abs(amplitude))
    wavelengths = round(k * packet.length / (2.0 * np.pi))
    envelope_n = min(packet.n, _grid_size(2 * wavelengths))
    start = replace(packet, values=_resample(packet.values, envelope_n))
    envelopes = solve_nls(start, max(checkpoints), dt, checkpoints=checkpoints)

    rel_errors = []
    abs_errors = []
    snapshots = []
    for snap, env, t in zip(direct.fields, envelopes, checkpoints):
        rec = reconstruct_field(replace(env, values=_resample(env.values, packet.n)), t, order)
        diff = snap.u - rec.u
        rel_errors.append(float(np.linalg.norm(diff) / np.linalg.norm(snap.u)))
        abs_errors.append(float(np.max(np.abs(diff))))
        snapshots.append({"t": t, "direct": snap.u, "reconstructed": rec.u})

    e_start = energy(u0, eps, kind)
    e_end = energy(direct.fields[-1], eps, kind)
    l2_start = float(np.linalg.norm(start.values))
    l2_end = float(np.linalg.norm(envelopes[-1].values))
    return RunReport(
        case=f"packet_{kind}",
        eps=eps,
        horizon=float(max(checkpoints)),
        max_abs_error=float(max(abs_errors)),
        l2_error=rel_errors[-1],
        t=np.asarray(checkpoints, dtype=float),
        error=np.asarray([rel_errors]),
        stats={
            "k": k,
            "order": order,
            "amplitude": amplitude,
            "sigma_wavelengths": sigma_wavelengths,
            "grid_n": packet.n,
            "envelope_grid_n": envelope_n,
            "domain_length": packet.length,
            "dt": dt,
            "rtol": rtol,
            "relative_l2_per_checkpoint": rel_errors,
            "energy_drift_rel": abs(e_end - e_start) / max(abs(e_start), 1e-300),
            "envelope_l2_drift_rel": abs(l2_end - l2_start) / l2_start,
            "nfev_direct": direct.meta["nfev"],
            "direct_modes": band,
            "fields": {"x": packet.x, "snapshots": snapshots},
        },
    )
