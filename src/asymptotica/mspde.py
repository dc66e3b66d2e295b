"""Wave-packet multiple scales for 1D dispersive PDEs on periodic domains.

A model is one :class:`Dispersion` declaration:

* the coefficients of omega^2 as a polynomial in k^2 and the nonlinearity
  power, from which the direct-solve symbol, omega, omega' =
  (omega^2)'/(2 omega), the conserved energy and the dealias cut n // (p+1)
  are derived;
* the hand-derived envelope coefficients (beta, gamma);
* its carrier terms (coefficient, eps power, powers of A and conj(A),
  harmonic h); the field is u = 2 Re of their sum, the highest eps power is
  the highest reconstruction order, and u_t follows by the product rule;
* the resonance, where the cubic harmonic is phase matched: the pointwise
  coupling of the envelopes A of k and B of 3k.

Two second-order-in-time models are declared:

klein_gordon
    u_tt - u_xx + u = eps u^2,   omega(k) = sqrt(1 + k^2).
    The slowly varying envelope A of a carrier e^{i(kx - omega t)} obeys a
    nonlinear Schroedinger equation,

        A_t = -(k/omega) A_x + i/(2 omega^3) A_xx + i eps^2 5/(3 omega) |A|^2 A,

    and the field is u = A e^{i theta} + eps (|A|^2 - A^2 e^{2 i theta}/3) + c.c.,
    the eps terms being the first-order correction.

fourth_order
    u_tt + u_xx + u_xxxx + u = eps u^3,   omega(k) = sqrt(k^4 - k^2 + 1).
    A single envelope obeys the transport equation
    A_t + omega'(k) A_x = i eps 3/(2 omega) |A|^2 A (eps kept explicit), and
    the field is u = A e^{i theta} + c.c.
    The cubic harmonic e^{3 i theta} resonates exactly when
    omega(3k) = 3 omega(k), i.e. at k = 1/sqrt(3); at that carrier a second
    envelope B rides e^{3 i theta} and the pair couples through

        2 i omega(k)  (A_t + omega'(k)  A_x) = eps (-3|A|^2 A - 6|B|^2 A - 3 conj(A)^2 B),
        2 i omega(3k) (B_t + omega'(3k) B_x) = eps (-3|B|^2 B - 6|A|^2 B - A^3).

Direct reference solutions come from a Fourier pseudospectral first-order
system in transform space, stepped by :func:`msode.integrate_reference` (the
library's one adaptive integrator, its own Dormand-Prince 8(5,3) stepper, so
packet runs load no scipy), with alias-free
nonlinear products (modes above n/(p+1) of u^p are dropped: the 2/3 rule for
quadratic terms, the 1/2 rule for cubic ones).
Envelope equations are integrated by Strang-split steps whose linear part is
exact in transform space and whose pointwise nonlinear part is exact
(single wave) or one classical fourth-order Runge-Kutta stage (coupled pair).
The half substeps that close one step and open the next are merged into one
full substep: the kicks of the single wave (which leave |A| unchanged) and
the linear transports of the coupled pair; the scheme is still second-order
Strang.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .msode import RunReport, integrate_reference
from .series import horner


# --- models -------------------------------------------------------------------

# (coefficient, eps power p, power m of A, power n of conj(A), harmonic h):
# adds coefficient eps^p A^m conj(A)^n e^{i h theta} inside u = 2 Re(...),
# with theta = k x - omega t.
Carrier = tuple[float, int, int, int, int]


@dataclass(frozen=True)
class Dispersion:
    """u_tt + sum_j c_j (-d_x^2)^j u = eps u^p; ``omega2`` = (c_0, c_1, ...)."""

    kind: str
    omega2: tuple[float, ...]
    power: int
    envelope: Callable[[float, float], tuple[float, float]]  # (omega, eps) -> (beta, gamma)
    carriers: tuple[Carrier, ...]
    # (A, B, eps) -> (2 i omega(k) (A_t + omega'(k) A_x), the same for B at 3k)
    # for the envelopes of the phase-matched pair; None when there is none
    resonance: Callable | None = None

    @property
    def max_order(self) -> int:
        """Highest reconstruction order: the largest eps power of a carrier."""
        return max(c[1] for c in self.carriers)

    def symbol(self, k):
        """omega(k)^2."""
        return horner(self.omega2, np.asarray(k) ** 2)

    def omega(self, k):
        return np.sqrt(self.symbol(k))

    def omega_prime(self, k):
        k = np.asarray(k)
        slope = [j * c for j, c in enumerate(self.omega2)][1:]  # d omega^2 / d(k^2)
        return k * horner(slope, k**2) / self.omega(k)


_DISPERSIONS = {
    d.kind: d
    for d in (
        Dispersion(  # u_tt - u_xx + u = eps u^2
            kind="klein_gordon", omega2=(1.0, 1.0), power=2,
            envelope=lambda omega, eps: (1.0 / (2.0 * omega**3), eps**2 * 5.0 / (3.0 * omega)),
            # A e^{i theta} + eps (|A|^2 - A^2 e^{2 i theta}/3)
            carriers=((1.0, 0, 1, 0, 1), (1.0, 1, 1, 1, 0), (-1.0 / 3.0, 1, 2, 0, 2)),
        ),
        Dispersion(  # u_tt + u_xx + u_xxxx + u = eps u^3
            kind="fourth_order", omega2=(1.0, -1.0, 1.0), power=3,
            envelope=lambda omega, eps: (0.0, eps * 3.0 / (2.0 * omega)),
            carriers=((1.0, 0, 1, 0, 1),),  # A e^{i theta}
            resonance=lambda a, b, eps: (
                eps * (-3.0 * np.abs(a) ** 2 * a - 6.0 * np.abs(b) ** 2 * a
                       - 3.0 * np.conj(a) ** 2 * b),
                eps * (-3.0 * np.abs(b) ** 2 * b - 6.0 * np.abs(a) ** 2 * b - a * a * a),
            ),
        ),
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


def phase_match_residual(d: Dispersion, n: int, k: float) -> float:
    """omega(n k) - n omega(k); a zero makes the n-th harmonic resonant."""
    if n not in (2, 3):
        raise ValueError("harmonic order must be 2 or 3")
    return float(d.omega(n * k) - n * d.omega(k))


def find_phase_matched(d: Dispersion, n: int, k_range: tuple[float, float]) -> list[float]:
    """Phase-matched carriers in k_range.

    The sign changes of the residual on a 2000-point grid, bisected to 1e-12.
    """
    lo, hi = k_range
    if hi <= lo:
        return []
    if n not in (2, 3):
        raise ValueError("harmonic order must be 2 or 3")
    ks = np.linspace(lo, hi, 2000)
    vals = d.omega(n * ks) - n * d.omega(ks)  # phase_match_residual over the grid
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = ks[i], ks[i + 1]
        fa = vals[i]
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = phase_match_residual(d, n, mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    roots.extend(float(k) for k in ks[vals == 0.0])
    return sorted(roots)


# --- fields ---------------------------------------------------------------------

def _check_power_of_two(n: int):
    if n < 2 or n & (n - 1):
        raise ValueError(f"grid size {n} is not a power of two")


MAX_GRID = 2**16  # packet grid budget: 1 MiB of complex samples per field
# Packet time budgets: the grid budget does not see the horizon where the
# group velocity vanishes (fourth_order at k = 1/sqrt(2)).
MAX_HORIZON = 1e4
MAX_SPLIT_STEPS = 10**6


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
        _check_power_of_two(len(self.values))
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
        _check_power_of_two(len(self.u))
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


def _power(u: np.ndarray, p: int) -> np.ndarray:
    """u**p for an integer p >= 1, by repeated multiplication.

    numpy squares by a fast path but sends u**3 to libm pow, many times
    slower than u*u*u; u*u is bit-identical to u**2.
    """
    out = u
    for _ in range(p - 1):
        out = out * u
    return out


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


def _solve_direct(
    eps: float,
    u0: RealField,
    t_end: float,
    kind: str = "klein_gordon",
    rtol: float = 1e-10,
    t_eval: Sequence[float] | None = None,
    atol: float = 1e-12,
) -> DirectRun:
    """Pseudospectral reference solve of the model ``kind`` from u0 to t_end."""
    d = dispersion(kind)
    n = u0.n
    m = n // 2 + 1
    symbol = d.symbol(_wavenumbers_rfft(u0.length, n))
    mask = np.zeros(m)  # alias-free products of p factors
    mask[: n // (d.power + 1) + 1] = 1.0

    # the state is [Re u_hat, Im u_hat, Re v_hat, Im v_hat], v = u_t
    def spectrum(z, j):
        """The half spectrum stored in z as Re at block j and Im at block j + 1."""
        c = np.empty(m, complex)
        c.real = z[j * m : (j + 1) * m]
        c.imag = z[(j + 1) * m : (j + 2) * m]
        return c

    def rhs(t, z):
        u_hat = spectrum(z, 0)
        nonlinear = mask * np.fft.rfft(_power(np.fft.irfft(u_hat, n), d.power))
        v_t = -symbol * u_hat + eps * nonlinear
        out = np.empty_like(z)
        out[: 2 * m] = z[2 * m :]  # u_hat_t = v_hat
        out[2 * m : 3 * m] = v_t.real
        out[3 * m :] = v_t.imag
        return out

    u_hat, v_hat = np.fft.rfft(u0.u), np.fft.rfft(u0.ut)
    z0 = np.concatenate([u_hat.real, u_hat.imag, v_hat.real, v_hat.imag])
    times = [t_end] if t_eval is None else list(t_eval)
    traj = integrate_reference(rhs, z0, (0.0, t_end), rtol, atol, t_eval=times)
    fields = [
        RealField(u0.length, np.fft.irfft(spectrum(z, 0), n), np.fft.irfft(spectrum(z, 2), n))
        for z in traj.y
    ]
    return DirectRun(t=traj.t, fields=fields, meta=traj.meta)


# --- envelope solvers -----------------------------------------------------------

def envelope_coefficients(fld: WavePacketField) -> tuple[float, float, float]:
    """(advection speed, dispersion coefficient, cubic coefficient) for the envelope.

    The envelope equation is A_t = -c A_x + i beta A_xx + i gamma |A|^2 A with
    c = omega'(k) for every model and (beta, gamma) as the model declares:
    beta = 1/(2 omega^3) for klein_gordon (the second time derivative has
    been traded for a spatial one, keeping the equation first order in time)
    and beta = 0 for fourth_order, and gamma = eps^2 5/(3 omega) resp.
    eps 3/(2 omega).
    """
    d = dispersion(fld.kind)
    return (d.omega_prime(fld.k), *d.envelope(d.omega(fld.k), fld.eps))


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
    is still second-order Strang.  With ``checkpoints``
    a list of fields at those times is returned (dt is shrunk per segment
    to land on them exactly).
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


def solve_two_wave(
    fld_a: WavePacketField,
    fld_b: WavePacketField,
    t_end: float,
    dt: float,
) -> tuple[WavePacketField, WavePacketField]:
    """Coupled envelopes at a phase-matched carrier (k and 3k).

    Linear transport is exact per wave; the coupled cubic terms are advanced
    by one classical fourth-order Runge-Kutta stage per split step.  The
    closing half transport of one step and the opening half transport of the
    next are merged into one full transport, so only the first and the last
    step keep a half; the scheme is still second-order Strang.
    """
    d = dispersion(fld_a.kind)
    if d.resonance is None or dispersion(fld_b.kind) is not d:
        raise ValueError(f"{fld_a.kind} declares no resonant pair for both fields")
    if abs(phase_match_residual(d, 3, fld_a.k)) >= 1e-6:
        raise ValueError(
            f"carrier k={fld_a.k} is not phase matched: "
            f"omega(3k) - 3 omega(k) = {phase_match_residual(d, 3, fld_a.k):.3e}"
        )
    if abs(fld_b.k - 3.0 * fld_a.k) > 1e-9:
        raise ValueError("second field must ride the third harmonic 3k")
    om1, om3 = d.omega(fld_a.k), d.omega(3.0 * fld_a.k)
    om1p, om3p = d.omega_prime(fld_a.k), d.omega_prime(3.0 * fld_a.k)
    kappa = _wavenumbers(fld_a)

    def nonlinear(a, b):
        ra, rb = d.resonance(a, b, fld_a.eps)
        return ra / (2j * om1), rb / (2j * om3)

    def transport(a, b, lin):
        return np.fft.ifft(lin[0] * np.fft.fft(a)), np.fft.ifft(lin[1] * np.fft.fft(b))

    steps = int(_split_steps(t_end, dt))
    h = t_end / steps
    half, full = ((np.exp(-1j * om1p * kappa * span), np.exp(-1j * om3p * kappa * span))
                  for span in (0.5 * h, h))
    a, b = transport(fld_a.values, fld_b.values, half)
    for step in range(steps):
        ka1, kb1 = nonlinear(a, b)
        ka2, kb2 = nonlinear(a + 0.5 * h * ka1, b + 0.5 * h * kb1)
        ka3, kb3 = nonlinear(a + 0.5 * h * ka2, b + 0.5 * h * kb2)
        ka4, kb4 = nonlinear(a + h * ka3, b + h * kb3)
        a = a + h / 6.0 * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
        b = b + h / 6.0 * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        a, b = transport(a, b, full if step < steps - 1 else half)
    return replace(fld_a, values=a), replace(fld_b, values=b)


# --- reconstruction and comparison ----------------------------------------------

def reconstruct_field(fld: WavePacketField, t: float, order: int) -> RealField:
    """Real field and its exact time derivative from the envelope at time t.

    u = 2 Re of the sum of the model's carriers whose eps power is at most
    ``order``; u_t by the product rule, with A_t from the envelope equation
    and d/dt e^{i h theta} = -i h omega e^{i h theta}.
    """
    d = dispersion(fld.kind)
    if order not in range(d.max_order + 1):
        raise ValueError(f"order must be in 0..{d.max_order} for {fld.kind}")
    omega = d.omega(fld.k)
    a, a_t = fld.values, envelope_rhs(fld)
    a_bar, a_bar_t = np.conj(a), np.conj(a_t)
    phase = np.exp(1j * (fld.k * fld.x - omega * t))
    u = u_t = 0.0
    for coef, p, m, n, h in d.carriers:
        if p > order:
            continue
        c = coef * fld.eps**p * phase**h
        mono = a**m * a_bar**n
        mono_t = (m * a ** max(m - 1, 0) * a_bar**n * a_t
                  + n * a**m * a_bar ** max(n - 1, 0) * a_bar_t)
        u = u + c * mono
        u_t = u_t + c * (mono_t - 1j * h * omega * mono)
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
    """Gaussian envelope a exp(-(x-x_c)^2 / 2 sigma^2) on a big-enough domain.

    The derivation assumes the envelope varies slowly against the carrier,
    so sigma must be at least 10 carrier wavelengths.  The domain is sized
    so the carrier is an exact grid wavenumber and the packet, moving at
    the group velocity, never wraps within t_end (L >= x_c + |omega'| t_end
    + 6 sigma with x_c = 6 sigma).
    """
    if sigma_wavelengths < 10.0:
        raise ValueError("envelope must span at least 10 carrier wavelengths")
    wavelength = 2.0 * np.pi / k
    sigma = sigma_wavelengths * wavelength
    x_c = 6.0 * sigma
    l_min = x_c + abs(dispersion(kind).omega_prime(k)) * t_end + 6.0 * sigma
    m = int(np.ceil(l_min / wavelength))
    length = m * wavelength
    n = 1 << int(np.ceil(np.log2(points_per_wavelength * m)))
    if n > MAX_GRID:
        raise ValueError(
            f"the packet needs {n} grid points, above the budget of {MAX_GRID}: "
            "shorten the horizon or lower points_per_wavelength"
        )
    x = grid_points(length, n)
    values = amplitude * np.exp(-((x - x_c) ** 2) / (2.0 * sigma**2))
    return WavePacketField(length, values, k, eps, kind)


def envelope_centroid(fld: WavePacketField) -> float:
    """First moment of |A|^2, the packet position."""
    weight = np.abs(fld.values) ** 2
    return float(np.sum(fld.x * weight) / np.sum(weight))


def packet_compare(
    eps: float,
    k: float,
    amplitude: float = 0.5,
    sigma_wavelengths: float = 10.0,
    order: int = 1,
    checkpoints: Sequence[float] | None = None,
    dt: float = 0.05,
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
    the grid, the direct run's energy drift and the envelope's L2 drift, and
    ``stats["fields"]`` always holds the compared snapshots themselves: the
    grid ``x`` and, per checkpoint, ``t``, ``direct`` and ``reconstructed``.
    The direct solve runs at atol 1e-11.  The horizon and the split-step
    count are held to ``MAX_HORIZON`` and ``MAX_SPLIT_STEPS`` before any
    solve.
    """
    if amplitude == 0:
        raise ValueError("a zero-amplitude packet has no relative error")
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
    u0 = reconstruct_field(packet, 0.0, order)
    direct = _solve_direct(
        eps, u0, max(checkpoints), kind, rtol, t_eval=checkpoints, atol=1e-11
    )
    envelopes = solve_nls(packet, max(checkpoints), dt, checkpoints=checkpoints)

    rel_errors = []
    abs_errors = []
    snapshots = []
    for snap, env, t in zip(direct.fields, envelopes, checkpoints):
        rec = reconstruct_field(env, t, order)
        diff = snap.u - rec.u
        rel_errors.append(float(np.linalg.norm(diff) / np.linalg.norm(snap.u)))
        abs_errors.append(float(np.max(np.abs(diff))))
        snapshots.append({"t": t, "direct": snap.u, "reconstructed": rec.u})

    e_start = energy(u0, eps, kind)
    e_end = energy(direct.fields[-1], eps, kind)
    l2_start = float(np.linalg.norm(packet.values))
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
            "domain_length": packet.length,
            "dt": dt,
            "rtol": rtol,
            "relative_l2_per_checkpoint": rel_errors,
            "energy_drift_rel": abs(e_end - e_start) / max(abs(e_start), 1e-300),
            "envelope_l2_drift_rel": abs(l2_end - l2_start) / l2_start,
            "nfev_direct": direct.meta["nfev"],
            "fields": {"x": packet.x, "snapshots": snapshots},
        },
    )
