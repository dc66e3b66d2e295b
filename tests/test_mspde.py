import json
import re
import mpmath
import numpy as np
import pytest
import sympy
from dataclasses import replace
from pathlib import Path
from hypothesis import given, settings
from hypothesis import strategies as st
from test_integrator_oracle import band_problem, solve_with_scipy
from test_msode import EPS, Z, _same_float, sympy_multiple_scales

from asymptotica import SolverError, mspde
from asymptotica.mspde import (
    RealField,
    WavePacketField,
    dispersion,
    energy,
    envelope_coefficients,
    find_phase_matched,
    gaussian_packet,
    grid_points,
    packet_compare,
    reconstruct_field,
    solve_nls,
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
KG = dispersion("klein_gordon")
FOURTH = dispersion("fourth_order")


def envelope_centroid(fld: WavePacketField) -> float:
    """First moment of |A|^2, the packet position."""
    weight = np.abs(fld.values) ** 2
    return float(np.sum(fld.x * weight) / np.sum(weight))


def test_dispersion_values():
    assert (KG.omega(0.0), KG.omega_prime(0.0)) == (1.0, 0.0)
    assert KG.omega(1.0) == pytest.approx(np.sqrt(2.0))
    assert KG.omega_prime(1.0) == pytest.approx(1.0 / np.sqrt(2.0))
    # fourth order at k=1: omega = 1, omega' = (2k^3 - k)/omega = 1
    assert FOURTH.omega(1.0) == pytest.approx(1.0)
    assert FOURTH.omega_prime(1.0) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0), st.sampled_from(mspde.dispersion_kinds()))
def test_dispersion_symmetry(k, kind):
    d = dispersion(kind)
    om_p, gp_p = d.omega(k), d.omega_prime(k)
    om_m, gp_m = d.omega(-k), d.omega_prime(-k)
    assert om_m == pytest.approx(om_p, rel=1e-14)
    assert gp_m == pytest.approx(-gp_p, rel=1e-14)
    assert om_p > 0
    # the derived omega' against a centered difference of omega
    h = 1e-5 * k
    fd = (d.omega(k + h) - d.omega(k - h)) / (2.0 * h)
    assert gp_p == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # the derived beta = omega''/2 against a centered second difference
    h = 1e-3
    fd2 = (d.omega(k + h) - 2.0 * om_p + d.omega(k - h)) / h**2
    assert d.beta(k) == pytest.approx(fd2 / 2.0, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("k", [1.0, 0.9, 1.17, 0.75])
def test_harmonic_balance_reproduces_the_hand_derived_models(k):
    eps = 0.1
    # klein_gordon: beta = 1/(2 omega^3), gamma = eps^2 5/(3 omega) and
    # u = A e^{i theta} + eps (|A|^2 - A^2 e^{2 i theta}/3) + c.c.
    omega = KG.omega(k)
    assert KG.beta(k) == pytest.approx(1.0 / (2.0 * omega**3), rel=1e-15, abs=0.0)
    _, _, gamma = envelope_coefficients(WavePacketField(2.0 * np.pi / k, np.ones(8), k, eps))
    assert gamma == pytest.approx(eps**2 * 5.0 / (3.0 * omega), rel=1e-15, abs=0.0)
    # carrier rows (component, coefficient, eps power, powers of A and
    # conj(A), exponent), the exponent h times the mode's -i omega
    lam = complex(0.0, -omega)
    assert KG.harmonic_balance(k)[1] == (
        (0, 1.0, 0, (1, 0), lam), (0, 1.0, 1, (1, 1), 0j), (0, -1.0 / 3.0, 1, (2, 0), 2 * lam))
    assert KG.max_order == 1
    # fourth_order: gamma = eps 3/(2 omega), u = A e^{i theta} + c.c.
    fld = WavePacketField(2.0 * np.pi / k, np.ones(8), k, eps, "fourth_order")
    _, _, gamma = envelope_coefficients(fld)
    assert gamma == pytest.approx(eps * 3.0 / (2.0 * FOURTH.omega(k)), rel=1e-15, abs=0.0)
    assert FOURTH.harmonic_balance(k)[1] == ((0, 1.0, 0, (1, 0), complex(0.0, -FOURTH.omega(k))),)
    assert FOURTH.max_order == 0
    assert FOURTH.beta(1.0) == 2.0


def _coefficients(expr, symbols):
    """{powers of symbols: coefficient} of an expanded Laurent polynomial."""
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coef, monomial = term.as_coeff_Mul()
        powers = monomial.as_powers_dict()
        out[tuple(int(powers.get(s, 0)) for s in symbols)] = coef
    return out


@pytest.mark.parametrize("k", [0.75, 0.9, 1.0, 1.17])
@pytest.mark.parametrize("kind", mspde.dispersion_kinds())
def test_harmonic_balance_follows_from_the_equation(kind, k):
    # F and the carriers, derived in sympy from u_tt + omega(-d_x^2)^2 u =
    # eps u^p with omega^2 exact at the float k: a harmonic z^h of
    # z = e^{i theta} sees L = omega(h k)^2 - h^2 omega(k)^2, and F is the
    # resonant forcing of |A|^2 A z
    d = dispersion(kind)
    q = sympy.Rational(k) ** 2

    def square(h):  # omega(h k)^2
        return sum(sympy.Rational(c) * (h * h * q) ** j for j, c in enumerate(d.omega2))

    mu = -sympy.I * sympy.sqrt(square(1))
    order = d.max_order + 1
    _, (field,), forcing = sympy_multiple_scales(
        lambda x, v, eps: [eps * x[0] ** d.power], [[1]], [1], mu, order,
        lambda h: sympy.Matrix([[square(h) + (h * mu) ** 2]]),
        lambda h: sympy.Matrix([[2 * h * mu]]), real=False)
    a, b = sympy.symbols("A0 B0")
    f, carriers = d.harmonic_balance(k)
    assert _same_float(f, forcing[order, 0].coeff(a * b)), (f, forcing)
    derived = _coefficients(field, (EPS, a, b, Z))
    declared = {}
    for comp, c, p, (m, n), lam in carriers:
        h = m - n
        assert comp == 0 and lam == h * carriers[0][4]
        declared[p, m, n, h] = declared.get((p, m, n, h), 0.0) + c
        declared[p, n, m, -h] = declared.get((p, n, m, -h), 0.0) + c
    assert declared.keys() == derived.keys()
    assert all(_same_float(c, derived[key]) for key, c in declared.items()), (declared, derived)


def test_dispersion_rejects_powers_without_a_cubic_envelope():
    with pytest.raises(ValueError, match="power 4 is not 2 or 3"):
        mspde.Dispersion("quartic", (1.0, 1.0), 4)


@pytest.mark.parametrize("eps, a", [(0.1, 0.1), (0.1, 0.2), (0.05, 0.2)])
@pytest.mark.parametrize("kind", mspde.dispersion_kinds())
def test_uniform_mode_turns_at_the_shifted_frequency(kind, eps, a):
    # a constant envelope A = a obeys A_t = i gamma a^2 A, so the direct
    # solve's rfft mode 1 turns at omega - gamma a^2; 16 points hold the
    # harmonics up to 3 (p = 3) or 5 (p = 2), and 64 give the same frequency
    # to 3 digits at 5 times the cost of the stiff fourth_order solve
    d = dispersion(kind)
    fld = WavePacketField(2.0 * np.pi, np.full(16, a + 0j), 1.0, eps, kind)
    t = np.linspace(0.0, 200.0, 801)
    run = mspde._solve_direct(eps, reconstruct_field(fld, 0.0, d.max_order), t[-1], kind,
                              rtol=1e-10, t_eval=t)
    phase = np.unwrap([np.angle(np.fft.rfft(f.u)[1]) for f in run.y])
    frequency = -np.polyfit(t, phase, 1)[0]
    shift = envelope_coefficients(fld)[2] * a**2
    assert abs(frequency - (d.omega(1.0) - shift)) <= 0.01 * shift

def test_detuning_values():
    # D(h) = omega(h k)^2 - h^2 omega(k)^2: the quadratic harmonic never
    # resonates for the Klein-Gordon branch, where D(2) = -3 at every k
    for k in np.linspace(0.01, 10.0, 200):
        assert KG.detuning(k, 2) == -3.0
    # cubic harmonic of the fourth-order branch resonates at 1/sqrt(3)
    assert FOURTH.detuning(1.0 / np.sqrt(3.0), 3) == pytest.approx(0.0, abs=1e-12)
    for d in (KG, FOURTH):
        for n in (2, 3):
            assert d.detuning(0.0, n) == pytest.approx(d.omega2[0] * (1 - n * n))
    with pytest.raises(ValueError):
        find_phase_matched(KG, 4, (0.1, 1.0))


def test_find_phase_matched():
    roots = find_phase_matched(FOURTH, 3, (0.1, 2.0))
    assert len(roots) == 1
    assert abs(roots[0] - 1.0 / np.sqrt(3.0)) <= 1e-10
    assert find_phase_matched(KG, 3, (0.1, 10.0)) == []
    assert find_phase_matched(KG, 2, (0.5, 0.5)) == []
    with pytest.raises(ValueError, match="harmonic"):  # checked before the range
        find_phase_matched(KG, 4, (2.0, 0.1))
    # past k ~ 1e7, omega(n k) - n omega(k) rounds to exactly 0 on the
    # Klein-Gordon branches, which read as hundreds of roots; D(n) = 1 - n^2 there
    for d in (KG, dispersion("cubic_klein_gordon")):
        for n in (2, 3):
            assert find_phase_matched(d, n, (1e7, 1e8)) == []
            assert find_phase_matched(d, n, (0.1, 1e80)) == []


@pytest.mark.parametrize("n", [2, 3])
def test_phase_matched_roots_are_exact(n):
    # fourth_order: D(n) = (n^4 - n^2) k^4 - (n^2 - 1), so k = +-1/sqrt(n);
    # a bisection to 1e-12 left 1/sqrt(3) 2.5e-13 off
    with mpmath.workprec(200):
        exact = float(1 / mpmath.sqrt(n))
    for k_range, sign in (((0.1, 2.0), 1), ((-2.0, -0.1), -1), ((0.1, 1e308), 1)):
        (root,) = find_phase_matched(FOURTH, n, k_range)
        assert abs(root - sign * exact) <= np.spacing(exact), k_range
    assert find_phase_matched(FOURTH, n, (-2.0, 2.0)) == [-root, root]


def test_field_invariants():
    with pytest.raises(ValueError):
        WavePacketField(10.0, np.zeros(100, dtype=complex), 1.0, 0.1)  # not 2^m
    with pytest.raises(ValueError):
        WavePacketField(10.0, np.zeros(128, dtype=complex), 1.0, 0.1)  # k off grid
    with pytest.raises(ValueError):
        RealField(10.0, np.zeros(128), np.zeros(64))


@pytest.mark.parametrize("n, size", [(2048, 2048), (2049, 2560), (2080, 2560),
                                     (2561, 3072), (3073, 4096), (65536, 65536)])
def test_grid_size_rounds_up_to_2a_3x2a_or_5x2a(n, size):
    assert mspde._grid_size(n) == size


@pytest.mark.parametrize("n, ok", [(2560, True), (320, True),
                                   (2562, False), (3000, False), (2047, False)])
def test_fields_take_only_2a_3x2a_or_5x2a_grids(n, ok):
    length = 2.0 * np.pi * 10  # carrier k = 1 is a grid wavenumber
    make = [lambda: WavePacketField(length, np.zeros(n, complex), 1.0, 0.1),
            lambda: RealField(length, np.zeros(n), np.zeros(n))]
    for field in make:
        if ok:
            assert field().n == n
        else:
            with pytest.raises(ValueError, match="grid size"):
                field()


# the perfbench pde_kg slot (0.08, 1.26, 4.8) on seed 1: 16 x 130 = 2080 points
CROSSING = dict(eps=0.081461, k=1.246433, t_end=60.709828)


def test_packet_just_past_a_power_of_two_takes_5x2a_points():
    assert gaussian_packet(**CROSSING).n == 2560


def test_direct_solve_on_5x2a_grid_matches_the_power_of_two_grid():
    # the same order-1 start, zero padded from 2560 to 4096 points, solved to
    # the slot's first checkpoint at packet_compare's tolerances
    eps, t = CROSSING["eps"], 24.283931
    u0 = reconstruct_field(gaussian_packet(**CROSSING), 0.0, 1)
    assert u0.n == 2560

    def padded(values):
        return np.fft.irfft(np.fft.rfft(values), 4096) * (4096 / 2560)

    wide = RealField(u0.length, padded(u0.u), padded(u0.ut))
    assert np.max(np.abs(wide.u[::8] - u0.u[::5])) <= 1e-14 * np.max(np.abs(u0.u))
    runs = [mspde._solve_direct(eps, start, t, rtol=1e-9, atol=1e-11) for start in (u0, wide)]
    coarse = runs[0].y[-1].u
    fine = np.fft.irfft(np.fft.rfft(runs[1].y[-1].u)[:1281], 2560) * (2560 / 4096)
    assert np.linalg.norm(coarse - fine) <= 1e-10 * np.linalg.norm(fine)


def single_mode_field(length, n, mode, amplitude=1.0):
    x = grid_points(length, n)
    k = 2.0 * np.pi * mode / length
    return k, RealField(length, amplitude * np.cos(k * x), np.zeros(n))


@pytest.mark.parametrize("kind", ["klein_gordon", "fourth_order"])
def test_direct_linear_mode_exact(kind):
    length, n = 16.0 * np.pi, 128
    k, u0 = single_mode_field(length, n, mode=4, amplitude=0.7)
    omega = float(dispersion(kind).omega(k))
    run = mspde._solve_direct(0.0, u0, 10.0, kind, rtol=1e-10)
    exact = 0.7 * np.cos(k * u0.x) * np.cos(omega * 10.0)
    assert np.max(np.abs(run.y[-1].u - exact)) <= 1e-8


@pytest.mark.parametrize("kind", ["klein_gordon", "fourth_order"])
def test_direct_energy_conservation(kind):
    length, n = 32.0 * np.pi, 256
    x = grid_points(length, n)
    u = 0.5 * np.cos(2.0 * np.pi * 2 / length * x) + 0.3 * np.sin(2.0 * np.pi * 3 / length * x)
    ut = 0.1 * np.cos(2.0 * np.pi * 1 / length * x)
    u0 = RealField(length, u, ut)
    rtol = 1e-10
    run = mspde._solve_direct(0.1, u0, 100.0, kind, rtol=rtol, t_eval=[0.0, 100.0])
    e0 = energy(run.y[0], 0.1, kind)
    e1 = energy(run.y[-1], 0.1, kind)
    assert abs(e1 - e0) / abs(e0) <= 100 * rtol


def test_direct_coefficient_overflow_is_a_solver_error():
    # u^3 overflows in the order-0 product, before any step
    _, u0 = single_mode_field(16.0 * np.pi, 32, mode=2, amplitude=1e110)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="t=0.0: a Taylor coefficient is not finite"):
            mspde._solve_direct(0.1, u0, 1.0, "fourth_order")


def test_direct_resolution_independence():
    # doubling the spatial resolution leaves a smooth packet's solution alone
    eps, k = 0.1, 1.0
    pkt_lo = gaussian_packet(eps, k, amplitude=0.4, t_end=10.0, points_per_wavelength=16)
    pkt_hi = gaussian_packet(eps, k, amplitude=0.4, t_end=10.0, points_per_wavelength=32)
    run_lo = mspde._solve_direct(eps, reconstruct_field(pkt_lo, 0.0, 1), 10.0, rtol=1e-10)
    run_hi = mspde._solve_direct(eps, reconstruct_field(pkt_hi, 0.0, 1), 10.0, rtol=1e-10)
    assert np.max(np.abs(run_hi.y[-1].u[::2] - run_lo.y[-1].u)) <= 1e-8


# (kind, K = (n - 1) // (p + 1) on 32 points, mode of u^p the band keeps,
# its coefficient): cos^2 = 1/2 + cos(2Kx)/2, cos^3 = 3/4 cos(Kx) + cos(3Kx)/4
@pytest.mark.parametrize("kind, top, mode, coef",
                         [("klein_gordon", 10, 0, 0.5), ("fourth_order", 7, 7, 0.75)])
def test_direct_products_are_exactly_alias_free(kind, top, mode, coef):
    n = 32
    length = 64.0 * np.pi
    _, u0 = single_mode_field(length, n, mode=top)
    d = dispersion(kind)
    band = mspde._direct_band(n, d.power)
    assert band == top + 1
    symbol = d.symbol(mspde._wavenumbers_rfft(length, n)[:band])
    z = np.concatenate([np.fft.rfft(u0.u)[:band], np.fft.rfft(u0.ut)[:band]])

    def v_1(eps):
        # the order-1 coefficient of v_hat, eps N_0 - omega^2 u_hat_0
        c = mspde._taylor_coefficients(z, 1, eps, symbol, n, d.power)
        return c[1, band:]

    nonlinear = v_1(1.0) - v_1(0.0)
    # rfft coefficients of u^p = sum_j c_j cos(j x): n c_0 at mode 0, n c_j / 2 above
    want = np.zeros(top + 1, complex)
    want[mode] = coef * n / (1 if mode == 0 else 2)
    assert np.max(np.abs(nonlinear - want)) <= 1e-13


def full_spectrum_solve(eps, u0, t_end, kind, rtol, t_eval, atol):
    """Oracle for the band solve: every rfft mode of u and u_t stepped, u^p
    masked to the modes <= n // (p + 1); returns the snapshots of u."""
    d = dispersion(kind)
    n = u0.n
    m = n // 2 + 1
    symbol = d.symbol(2.0 * np.pi * np.fft.rfftfreq(n, d=u0.length / n))
    mask = np.zeros(m)
    mask[: n // (d.power + 1) + 1] = 1.0

    def spectrum(z, j):
        return z[j * m : (j + 1) * m] + 1j * z[(j + 1) * m : (j + 2) * m]

    def rhs(t, z):
        u_hat = spectrum(z, 0)
        nonlinear = mask * np.fft.rfft(mspde._power(np.fft.irfft(u_hat, n), d.power))
        v_t = -symbol * u_hat + eps * nonlinear
        return np.concatenate([z[2 * m :], v_t.real, v_t.imag])

    u_hat, v_hat = np.fft.rfft(u0.u), np.fft.rfft(u0.ut)
    z0 = np.concatenate([u_hat.real, u_hat.imag, v_hat.real, v_hat.imag])
    traj = solve_with_scipy(rhs, z0, (0.0, t_end), rtol, atol, t_eval)
    return [np.fft.irfft(spectrum(z, 0), n) for z in traj.y.T]


# (kind, order, checkpoints, the band solve's nonlinear-term evaluations,
# 300, 660 and 360 when written, with 4% headroom); the fourth_order row is
# scripts/configs/fourth_packet.json
@pytest.mark.parametrize("kind, order, checkpoints, max_nfev", [
    pytest.param("klein_gordon", 1, [2.0, 10.0], 312, id="klein_gordon"),
    pytest.param("fourth_order", 0, [2.0, 5.0, 10.0], 686, id="fourth_order"),
    pytest.param("cubic_klein_gordon", 0, [2.0, 10.0], 374, id="cubic_klein_gordon"),
])
def test_band_solve_matches_full_spectrum_solve(kind, order, checkpoints, max_nfev):
    eps, rtol, atol = 0.1, 1e-9, 1e-11  # packet_compare's settings
    packet = gaussian_packet(eps, 1.0, t_end=10.0, kind=kind)
    u0 = reconstruct_field(packet, 0.0, order)
    band = mspde._solve_direct(eps, u0, checkpoints[-1], kind, rtol, checkpoints, atol)
    full = full_spectrum_solve(eps, u0, checkpoints[-1], kind, rtol, checkpoints, atol)
    for snap, want in zip(band.y, full):
        assert np.max(np.abs(snap.u - want)) <= 1e-10 * np.max(np.abs(want))
    # one irfft-rfft pair per order of each step
    assert band.meta["nfev"] == band.meta["n_steps"] * band.meta["order"] <= max_nfev


SHIPPED_PACKETS = ["kg_packet", "kg_packet_long", "fourth_packet"]


def shipped_packet(config, **changes):
    """packet_compare's keyword arguments from a shipped config, with ``changes``."""
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    kwargs = {key: value for key, value in cfg.items() if key not in ("task", "accept")}
    return {**kwargs, **changes}


@pytest.mark.parametrize("config", SHIPPED_PACKETS)
def test_direct_solve_matches_a_tight_dop853(config):
    # the Taylor solve against scipy's DOP853 on the same band flow at rtol
    # 1e-13 and atol 1e-14, at every checkpoint
    kwargs = shipped_packet(config)
    report = packet_compare(**kwargs)
    kind = kwargs.get("kind", "klein_gordon")
    eps, checkpoints = kwargs["eps"], kwargs["checkpoints"]
    packet = gaussian_packet(eps, kwargs["k"], kwargs.get("amplitude", 0.5),
                             t_end=max(1.0 / eps, *checkpoints), kind=kind)
    u0 = reconstruct_field(packet, 0.0, kwargs["order"])
    rhs, z0 = band_problem(eps, u0, kind)
    tight = solve_with_scipy(rhs, z0, (0.0, checkpoints[-1]), 1e-13, 1e-14, checkpoints)
    band = len(z0) // 4
    for snap, z in zip(report.stats["fields"]["snapshots"], np.ascontiguousarray(tight.y.T)):
        want = np.fft.irfft(z.view(complex)[:band], u0.n)
        assert np.linalg.norm(snap["direct"] - want) <= 5e-11 * np.linalg.norm(want)
    assert report.stats["energy_drift_rel"] <= 1e-11


@pytest.mark.parametrize("rtol", [0.1, 1.0])
def test_loose_tolerance_keeps_the_packet_gaps(rtol):
    # at tolerances near 1 the step is capped inside the series' radius, and
    # packet_compare's atol keeps the order up, so the gaps hold
    tight = packet_compare(**shipped_packet("kg_packet")).stats["relative_l2_per_checkpoint"]
    loose = packet_compare(**shipped_packet("kg_packet", rtol=rtol))
    assert loose.stats["relative_l2_per_checkpoint"] == pytest.approx(tight, rel=1e-4)


@pytest.mark.parametrize("config", ["kg_packet", "fourth_packet"])
def test_packet_start_is_band_limited(config):
    # the shipped packets: neither the direct solve's band nor the envelope
    # grid drops more than roundoff of the periodic Gaussian start
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    kind = cfg.get("kind", "klein_gordon")
    eps, k = cfg["eps"], cfg["k"]
    packet = gaussian_packet(eps, k, cfg.get("amplitude", 0.5),
                             t_end=max(1.0 / eps, *cfg["checkpoints"]), kind=kind)
    u0 = reconstruct_field(packet, 0.0, cfg["order"]).u
    band = mspde._direct_band(packet.n, dispersion(kind).power)
    projected = np.fft.irfft(np.fft.rfft(u0)[:band], packet.n)
    assert np.max(np.abs(u0 - projected)) <= 1e-13 * np.max(np.abs(u0))
    # packet_compare's envelope grid: two points per carrier wavelength
    wavelengths = round(k * packet.length / (2.0 * np.pi))
    envelope_n = min(packet.n, mspde._grid_size(2 * wavelengths))
    assert envelope_n < packet.n
    round_trip = mspde._resample(mspde._resample(packet.values, envelope_n), packet.n)
    assert np.max(np.abs(round_trip - packet.values)) <= 1e-14 * np.max(np.abs(packet.values))


def test_nls_linear_limit_matches_analytic_propagator():
    pkt = gaussian_packet(0.0, 1.0, amplitude=0.5, t_end=10.0)
    out = solve_nls(pkt, 10.0, dt=0.05)
    c, beta, _ = envelope_coefficients(pkt)
    kappa = 2.0 * np.pi * np.fft.fftfreq(pkt.n, d=pkt.length / pkt.n)
    exact = np.fft.ifft(
        np.exp((-1j * c * kappa - 1j * beta * kappa**2) * 10.0) * np.fft.fft(pkt.values)
    )
    assert np.max(np.abs(out.values - exact)) <= 1e-10


def test_nls_l2_conserved():
    eps = 0.1
    pkt = gaussian_packet(eps, 1.0, amplitude=0.5, t_end=1.0 / eps)
    out = solve_nls(pkt, 1.0 / eps, dt=0.02)
    before = np.linalg.norm(pkt.values)
    after = np.linalg.norm(out.values)
    assert abs(after - before) / before <= 1e-10


def test_nls_zero_stays_zero():
    pkt = gaussian_packet(0.1, 1.0, amplitude=0.4, t_end=1.0)
    zero = replace(pkt, values=np.zeros_like(pkt.values))
    out = solve_nls(zero, 1.0, dt=0.05)
    assert np.all(out.values == 0)


def test_nls_rejects_bad_dt():
    pkt = gaussian_packet(0.1, 1.0, t_end=1.0)
    with pytest.raises(ValueError):
        solve_nls(pkt, 1.0, dt=0.0)


def test_nls_rejects_a_checkpoint_beyond_t_end():
    # t_end bounds the run: a later checkpoint is an error, not a longer run
    pkt = gaussian_packet(0.1, 1.0, t_end=10.0)
    with pytest.raises(ValueError, match="beyond t_end"):
        solve_nls(pkt, 5.0, 0.02, checkpoints=[10.0])
    assert len(solve_nls(pkt, 5.0, 0.02, checkpoints=[2.0, 5.0])) == 2


def test_envelope_group_velocity():
    eps, k = 0.1, 1.0
    pkt = gaussian_packet(eps, k, amplitude=0.5, t_end=1.0 / eps)
    out = solve_nls(pkt, 1.0 / eps, dt=0.02)
    speed = (envelope_centroid(out) - envelope_centroid(pkt)) * eps
    group = KG.omega_prime(k)
    assert abs(speed - group) / group <= 0.02


def _textbook_strang(fld, checkpoints, dt):
    """Half kick, exact linear step, half kick, every step of every segment."""
    c, beta, gamma = envelope_coefficients(fld)
    kappa = 2.0 * np.pi * np.fft.fftfreq(fld.n, d=fld.length / fld.n)
    a, t_prev, out = fld.values, 0.0, []
    for t_next in checkpoints:
        if t_next > t_prev:
            steps = max(1, round((t_next - t_prev) / dt))
            h = (t_next - t_prev) / steps
            linear = np.exp((-1j * c * kappa - 1j * beta * kappa**2) * h)
            for _ in range(steps):
                a = a * np.exp(0.5j * gamma * h * np.abs(a) ** 2)
                a = np.fft.ifft(linear * np.fft.fft(a))
                a = a * np.exp(0.5j * gamma * h * np.abs(a) ** 2)
        out.append(a)
        t_prev = t_next
    return out


@pytest.mark.parametrize(
    "kind, eps, checkpoints",
    [
        # a repeated checkpoint and a one-step segment from 0.5 to 0.55
        ("klein_gordon", 0.5, [0.5, 0.5, 0.55, 3.0]),
        ("fourth_order", 0.3, [2.0, 5.0]),
    ],
)
def test_nls_matches_textbook_strang_loop(kind, eps, checkpoints):
    pkt = gaussian_packet(eps, 1.0, amplitude=0.5, t_end=max(checkpoints), kind=kind)
    dt = 0.05
    out = solve_nls(pkt, max(checkpoints), dt, checkpoints=checkpoints)
    ref = _textbook_strang(pkt, checkpoints, dt)
    assert len(out) == len(ref)
    for got, want in zip(out, ref):
        assert np.max(np.abs(got.values - want)) <= 1e-12
    # the kicks matter: without them the last field is farther off than that
    linear_only = _textbook_strang(replace(pkt, eps=0.0), checkpoints, dt)[-1]
    assert np.max(np.abs(out[-1].values - linear_only)) > 1e-6


def test_reconstruct_constant_envelope():
    n, mode = 128, 4
    length = 16.0 * np.pi
    k = 2.0 * np.pi * mode / length
    omega = float(KG.omega(k))
    a = 0.3
    fld = WavePacketField(length, np.full(n, a + 0j), k, 0.1, "klein_gordon")
    t = 0.7
    theta = k * fld.x - omega * t
    rec0 = reconstruct_field(fld, t, 0)
    assert np.max(np.abs(rec0.u - 2 * a * np.cos(theta))) <= 1e-12
    rec1 = reconstruct_field(fld, t, 1)
    correction = 0.1 * (2 * a**2 - (2.0 / 3.0) * a**2 * np.cos(2 * theta))
    assert np.max(np.abs(rec1.u - (2 * a * np.cos(theta) + correction))) <= 1e-12


def test_reconstruct_time_derivative_matches_finite_difference():
    eps, k = 0.1, 1.0
    pkt = gaussian_packet(eps, k, amplitude=0.5, t_end=1.0)
    errors = []
    for dt in (2e-3, 1e-3):
        minus = solve_nls(pkt, dt, dt)  # envelope at t = dt
        plus = solve_nls(minus, dt, dt)  # envelope at t = 2 dt
        u_minus = reconstruct_field(pkt, 0.0, 1).u
        u_plus = reconstruct_field(plus, 2 * dt, 1).u
        u_mid = reconstruct_field(minus, dt, 1)
        fd = (u_plus - u_minus) / (2 * dt)
        errors.append(np.max(np.abs(fd - u_mid.ut)))
    # halving dt cuts the centered-difference error by about four
    assert errors[1] <= errors[0] / 3.0
    assert errors[1] <= 5e-5


def test_reconstruct_order_validation():
    pkt = gaussian_packet(0.1, 1.0, t_end=1.0)
    with pytest.raises(ValueError):
        reconstruct_field(pkt, 0.0, 2)
    pkt4 = gaussian_packet(0.1, 1.0, t_end=1.0, kind="fourth_order")
    with pytest.raises(ValueError):
        reconstruct_field(pkt4, 0.0, 1)


def test_gaussian_packet_scale_separation_enforced():
    with pytest.raises(ValueError):
        gaussian_packet(0.1, 1.0, sigma_wavelengths=5.0)


def test_packet_compare_zero_eps():
    # with the nonlinearity off the direct solve follows the exact linear
    # propagator; the envelope path carries only the dispersion-Taylor
    # truncation error, tiny over a short horizon, which the last checkpoint sets
    report = packet_compare(0.0, 1.0, amplitude=0.5, order=0,
                            checkpoints=[1.0], dt=0.01, rtol=1e-10)
    assert report.l2_error <= 1e-5



def test_fourth_order_linear_limit_carries_the_dispersion():
    # at eps = 0 only the envelope's dispersion beta = omega''/2 separates
    # the two paths; beta = 0 was 4.2e-3 off at t = 10
    report = packet_compare(0.0, 1.0, kind="fourth_order", order=0,
                            checkpoints=[2.0, 5.0, 10.0])
    assert max(report.stats["relative_l2_per_checkpoint"]) <= 1e-5

def test_packet_compare_quality_and_trend():
    report = packet_compare(
        0.1, 1.0, amplitude=0.5, order=1, checkpoints=[1.0, 5.0, 10.0, 50.0],
        dt=0.02, rtol=1e-9,
    )
    errs = report.stats["relative_l2_per_checkpoint"]
    assert errs[2] <= 0.05  # t = 1/eps
    assert all(a < b for a, b in zip(errs, errs[1:]))  # monotone growth
    # error at 0.5 eps^-2 exceeds error at 0.5 eps^-1
    assert errs[3] > errs[1]
    assert report.stats["energy_drift_rel"] <= 1e-8
    assert report.stats["envelope_l2_drift_rel"] <= 1e-10


def test_packet_compare_default_dt_is_the_pilot_value():
    kwargs = dict(eps=0.1, k=1.0, checkpoints=[0.5], rtol=1e-6, points_per_wavelength=8)
    default = packet_compare(**kwargs)
    pinned = packet_compare(dt=0.02, **kwargs)
    assert default.stats["dt"] == 0.02
    assert default.error.tobytes() == pinned.error.tobytes()


def test_packet_grid_budget_checked_before_allocation(monkeypatch):
    real_grid_points = mspde.grid_points

    def guarded(length, n):
        assert n <= 2**16, f"allocated a {n}-point grid"
        return real_grid_points(length, n)

    monkeypatch.setattr(mspde, "grid_points", guarded)
    with pytest.raises(ValueError, match="budget"):
        gaussian_packet(0.1, 1.0, t_end=1e9)
    with pytest.raises(ValueError, match="budget"):
        gaussian_packet(0.1, 1.0, points_per_wavelength=2**20)
    assert gaussian_packet(0.1, 1.0, t_end=50.0).n <= 2**16


def test_gaussian_packet_does_not_overflow_where_sigma_squared_is_finite():
    # sigma ~ 6e153: 2 sigma^2 is finite, (x - x_c)^2 overflowed on the domain
    with np.errstate(over="raise", invalid="raise"):
        pkt = gaussian_packet(0.1, 1e-152, t_end=10.0)
    assert np.max(np.abs(pkt.values)) == pytest.approx(0.5, rel=1e-3)


def _trig_poly(length, modes, coef, n):
    """sum_j coef_j exp(2 pi i modes_j x / length) on the n-point grid."""
    x = grid_points(length, n)
    return np.exp(2j * np.pi * np.outer(x, modes) / length) @ coef


def test_resample_is_band_limited_interpolation():
    rng = np.random.default_rng(0)
    length, n, big = 7.0, 16, 128
    modes = np.arange(-n // 2, n // 2)
    coef = rng.normal(size=n) + 1j * rng.normal(size=n)
    coarse = _trig_poly(length, modes, coef, n)
    scale = np.max(np.abs(coarse))
    assert mspde._resample(coarse, n) is coarse
    # zero padding evaluates the polynomial on the finer grid, truncation returns it
    fine = mspde._resample(coarse, big)
    assert np.max(np.abs(fine - _trig_poly(length, modes, coef, big))) <= 1e-14 * scale
    assert np.max(np.abs(mspde._resample(fine, n) - coarse)) <= 1e-14 * scale
    # truncation drops the modes beyond the coarse band
    high = np.array([n // 2, n, -n // 2 - 3])
    wide = fine + _trig_poly(length, high, np.ones(3), big)
    assert np.max(np.abs(mspde._resample(wide, n) - coarse)) <= 1e-14 * scale


@pytest.mark.parametrize("kind, order", [("klein_gordon", 1), ("fourth_order", 0)])
def test_packet_envelope_grid_matches_field_grid_envelope(kind, order):
    checkpoints = [2.0, 5.0]
    report = packet_compare(0.1, 1.0, order=order, checkpoints=checkpoints,
                            rtol=1e-6, kind=kind)
    packet = gaussian_packet(0.1, 1.0, t_end=10.0, kind=kind)
    assert report.stats["grid_n"] == packet.n
    assert report.stats["envelope_grid_n"] == packet.n // 8
    on_field_grid = solve_nls(packet, max(checkpoints), 0.02, checkpoints=checkpoints)
    for snap, env in zip(report.stats["fields"]["snapshots"], on_field_grid):
        want = reconstruct_field(env, snap["t"], order).u
        gap = np.max(np.abs(snap["reconstructed"] - want))
        assert gap <= 1e-7 * np.max(np.abs(snap["direct"]))


@pytest.mark.parametrize("points_per_wavelength, shrink", [(16, 8), (2, 1)])
def test_envelope_grid_has_two_points_per_carrier_wavelength(
    monkeypatch, points_per_wavelength, shrink
):
    seen = []
    real_solve_nls = mspde.solve_nls

    def recording(fld, *args, **kwargs):
        seen.append(fld.n)
        return real_solve_nls(fld, *args, **kwargs)

    monkeypatch.setattr(mspde, "solve_nls", recording)
    report = packet_compare(0.1, 1.0, order=0, checkpoints=[0.5], rtol=1e-6,
                            points_per_wavelength=points_per_wavelength)
    assert seen == [report.stats["grid_n"] // shrink] == [report.stats["envelope_grid_n"]]


def test_packet_compare_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero-amplitude"):
        packet_compare(0.1, 1.0, amplitude=0.0, checkpoints=[1.0])
    with pytest.raises(ValueError, match="eps <= 0"):
        packet_compare(0.0, 1.0)


@pytest.mark.parametrize("kind, power", [("klein_gordon", 2), ("fourth_order", 3)])
def test_packet_amplitude_limits(kind, power):
    d = mspde.dispersion(kind)
    # |eps| |amplitude|^(p - 1) <= 1, for either sign of eps, and none at eps 0
    for eps in (0.1, -0.1):
        weak, _ = mspde._amplitude_limits(d, eps, 1.0)
        assert weak == pytest.approx(10.0 ** (1.0 / (power - 1)), rel=1e-14)
    assert mspde._amplitude_limits(d, 0.0, 1.0)[0] == np.inf
    assert mspde._amplitude_limits(d, 5e-324, 1.0)[0] >= 1e161
    with pytest.raises(ValueError, match=rf"weak nonlinearity \|eps\| \|amplitude\|\^{power - 1}"):
        packet_compare(0.1, 1.0, amplitude=-1.01 * weak, kind=kind, order=0, checkpoints=[1.0])



def test_direct_solve_work_does_not_grow_with_the_amplitude():
    # at fixed eps amplitude^(p-1) the field scales with the amplitude, and so
    # does the direct solve's atol
    for kind, order, runs in [
        ("klein_gordon", 1, [(-0.1, 1.0), (-1e-3, 100.0), (-1e-5, 1e4), (-1e-9, 1e8)]),
        ("fourth_order", 0, [(-0.1, 1.0), (-1e-3, 10.0), (-1e-5, 100.0), (-1e-9, 1e4)]),
    ]:
        nfev = [packet_compare(eps, 1.0, amplitude=a, checkpoints=[1.0], kind=kind,
                               order=order).stats["nfev_direct"] for eps, a in runs]
        assert nfev == [nfev[0]] * 4

@pytest.mark.parametrize("kind, order", [("klein_gordon", 1), ("fourth_order", 0)])
def test_packet_at_the_overflow_limit_overflows_nothing(kind, order):
    # eps 0 sets no weak-nonlinearity limit, so the overflow limit is the one
    # that holds; every power the run takes of the field stays finite
    _, finite = mspde._amplitude_limits(mspde.dispersion(kind), 0.0, 1.0)
    args = dict(kind=kind, order=order, checkpoints=[0.5], dt=0.05, points_per_wavelength=8)
    with np.errstate(over="raise", invalid="raise"):
        report = packet_compare(0.0, 1.0, amplitude=finite, **args)
    assert report.l2_error <= 1e-3 and np.isfinite(report.stats["energy_drift_rel"])
    with pytest.raises(ValueError, match=re.escape(f"{finite:.3g}, above which u")):
        packet_compare(0.0, 1.0, amplitude=1.01 * finite, **args)
