import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from asymptotica import mspde
from asymptotica.mspde import (
    RealField,
    WavePacketField,
    dispersion,
    energy,
    envelope_centroid,
    envelope_coefficients,
    find_phase_matched,
    gaussian_packet,
    grid_points,
    packet_compare,
    phase_match_residual,
    reconstruct_field,
    solve_nls,
    solve_two_wave,
)

KG = dispersion("klein_gordon")
FOURTH = dispersion("fourth_order")


def test_dispersion_values():
    assert (KG.omega(0.0), KG.omega_prime(0.0)) == (1.0, 0.0)
    assert KG.omega(1.0) == pytest.approx(np.sqrt(2.0))
    assert KG.omega_prime(1.0) == pytest.approx(1.0 / np.sqrt(2.0))
    # fourth order at k=1: omega = 1, omega' = (2k^3 - k)/omega = 1
    assert FOURTH.omega(1.0) == pytest.approx(1.0)
    assert FOURTH.omega_prime(1.0) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0), st.sampled_from(["klein_gordon", "fourth_order"]))
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


def test_phase_match_residual_values():
    # quadratic harmonic never resonates for the Klein-Gordon branch
    for k in np.linspace(0.01, 10.0, 200):
        assert phase_match_residual(KG, 2, k) < 0
    # cubic harmonic of the fourth-order branch resonates at 1/sqrt(3)
    assert phase_match_residual(FOURTH, 3, 1.0 / np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-12)
    for d in (KG, FOURTH):
        for n in (2, 3):
            assert phase_match_residual(d, n, 0.0) == pytest.approx(1.0 - n)
    with pytest.raises(ValueError):
        phase_match_residual(KG, 4, 1.0)


def test_find_phase_matched():
    roots = find_phase_matched(FOURTH, 3, (0.1, 2.0))
    assert len(roots) == 1
    assert abs(roots[0] - 1.0 / np.sqrt(3.0)) <= 1e-10
    assert find_phase_matched(KG, 3, (0.1, 10.0)) == []
    assert find_phase_matched(KG, 2, (0.5, 0.5)) == []


def test_field_invariants():
    with pytest.raises(ValueError):
        WavePacketField(10.0, np.zeros(100, dtype=complex), 1.0, 0.1)  # not 2^m
    with pytest.raises(ValueError):
        WavePacketField(10.0, np.zeros(128, dtype=complex), 1.0, 0.1)  # k off grid
    with pytest.raises(ValueError):
        RealField(10.0, np.zeros(128), np.zeros(64))


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
    assert np.max(np.abs(run.fields[-1].u - exact)) <= 1e-8


@pytest.mark.parametrize("kind", ["klein_gordon", "fourth_order"])
def test_direct_energy_conservation(kind):
    length, n = 32.0 * np.pi, 256
    x = grid_points(length, n)
    u = 0.5 * np.cos(2.0 * np.pi * 2 / length * x) + 0.3 * np.sin(2.0 * np.pi * 3 / length * x)
    ut = 0.1 * np.cos(2.0 * np.pi * 1 / length * x)
    u0 = RealField(length, u, ut)
    rtol = 1e-10
    run = mspde._solve_direct(0.1, u0, 100.0, kind, rtol=rtol, t_eval=[0.0, 100.0])
    e0 = energy(run.fields[0], 0.1, kind)
    e1 = energy(run.fields[-1], 0.1, kind)
    assert abs(e1 - e0) / abs(e0) <= 100 * rtol


def test_direct_resolution_independence():
    # doubling the spatial resolution leaves a smooth packet's solution alone
    eps, k = 0.1, 1.0
    pkt_lo = gaussian_packet(eps, k, amplitude=0.4, t_end=10.0, points_per_wavelength=16)
    pkt_hi = gaussian_packet(eps, k, amplitude=0.4, t_end=10.0, points_per_wavelength=32)
    run_lo = mspde._solve_direct(eps, reconstruct_field(pkt_lo, 0.0, 1), 10.0, rtol=1e-10)
    run_hi = mspde._solve_direct(eps, reconstruct_field(pkt_hi, 0.0, 1), 10.0, rtol=1e-10)
    assert np.max(np.abs(run_hi.fields[-1].u[::2] - run_lo.fields[-1].u)) <= 1e-8


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


def _phase_matched_pair(eps=0.1, n=64, amplitudes=(0.4 + 0.1j, 0.0j)):
    k = 1.0 / np.sqrt(3.0)
    length = 8 * 2.0 * np.pi / k
    a = WavePacketField(length, np.full(n, amplitudes[0]), k, eps, "fourth_order")
    b = WavePacketField(length, np.full(n, amplitudes[1]), 3 * k, eps, "fourth_order")
    return k, a, b


def test_two_wave_requires_phase_matching():
    k, a, b = _phase_matched_pair()
    off = replace(a, k=2.0 * np.pi * 16 / a.length)
    with pytest.raises(ValueError, match="phase matched"):
        solve_two_wave(off, replace(b, k=3 * off.k), 1.0, 0.01)


def test_two_wave_requires_a_declared_resonance():
    k, a, b = _phase_matched_pair()
    kg_a, kg_b = replace(a, kind="klein_gordon"), replace(b, kind="klein_gordon")
    with pytest.raises(ValueError, match="no resonant pair"):
        solve_two_wave(kg_a, kg_b, 1.0, 0.01)
    with pytest.raises(ValueError, match="no resonant pair"):
        solve_two_wave(a, kg_b, 1.0, 0.01)


def test_two_wave_zero_stays_zero():
    k, a, b = _phase_matched_pair(amplitudes=(0.0j, 0.0j))
    out_a, out_b = solve_two_wave(a, b, 1.0, 0.01)
    assert np.all(out_a.values == 0) and np.all(out_b.values == 0)


def test_two_wave_seeding_of_third_harmonic():
    # with B = 0 the cubic A^3 term drives dB/dt(0) = -eps A^3 / (2 i omega(3k))
    eps = 0.1
    k, a, b = _phase_matched_pair(eps=eps)
    om3 = float(FOURTH.omega(3 * k))
    dt = 1e-3
    _, out_b = solve_two_wave(a, b, dt, dt)
    measured = out_b.values[0] / dt
    expected = eps * (-(0.4 + 0.1j) ** 3) / (2j * om3)
    assert abs(measured - expected) <= 1e-4 * abs(expected) + 1e-9
    assert abs(out_b.values[0]) > 0


def test_two_wave_uniform_reduces_to_ode():
    eps = 0.1
    k, a, b = _phase_matched_pair(eps=eps, amplitudes=(0.4 + 0.1j, 0.05 - 0.2j))
    om1 = float(FOURTH.omega(k))
    om3 = float(FOURTH.omega(3 * k))

    def rhs(t, z):
        aa = z[0] + 1j * z[1]
        bb = z[2] + 1j * z[3]
        da = eps * (-3 * abs(aa) ** 2 * aa - 6 * abs(bb) ** 2 * aa
                    - 3 * np.conj(aa) ** 2 * bb) / (2j * om1)
        db = eps * (-3 * abs(bb) ** 2 * bb - 6 * abs(aa) ** 2 * bb - aa**3) / (2j * om3)
        return [da.real, da.imag, db.real, db.imag]

    ref = solve_ivp(rhs, (0.0, 5.0), [0.4, 0.1, 0.05, -0.2], rtol=1e-12, atol=1e-14)
    a_ref = ref.y[0, -1] + 1j * ref.y[1, -1]
    b_ref = ref.y[2, -1] + 1j * ref.y[3, -1]
    out_a, out_b = solve_two_wave(a, b, 5.0, 0.001)
    assert abs(out_a.values[0] - a_ref) <= 1e-8
    assert abs(out_b.values[0] - b_ref) <= 1e-8


def test_two_wave_merges_adjacent_half_transports(monkeypatch):
    # one half transport per wave before the loop, a full one between the
    # Runge-Kutta stages and a half one at the end: 2 + 2 * 10 transforms
    # of each kind for 10 steps, where unmerged halves would take 40
    calls = {"fft": 0, "ifft": 0}
    for name, transform in [("fft", np.fft.fft), ("ifft", np.fft.ifft)]:
        def counted(*args, _name=name, _transform=transform, **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    k, a, b = _phase_matched_pair()
    solve_two_wave(a, b, 1.0, 0.1)
    assert calls["fft"] <= 22 and calls["ifft"] <= 22


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


def test_packet_compare_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero-amplitude"):
        packet_compare(0.1, 1.0, amplitude=0.0, checkpoints=[1.0])
    with pytest.raises(ValueError, match="eps <= 0"):
        packet_compare(0.0, 1.0)
