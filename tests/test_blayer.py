import math

import numpy as np
import pytest

from asymptotica import blayer
from asymptotica.blayer import (
    layer_half_width,
    linear_blayer_multiscale,
    nonlinear_blayer_multiscale,
    solve_bvp_fd,
)


def test_problem_invariants():
    with pytest.raises(ValueError):
        solve_bvp_fd("linear", 0.0, 256)
    with pytest.raises(ValueError):
        solve_bvp_fd("linear", 1.5, 256)
    with pytest.raises(ValueError):
        solve_bvp_fd("cubic", 0.1, 256)


def test_linear_multiscale_boundary_values_exact():
    for eps in (0.1, 0.02, 0.005):
        assert linear_blayer_multiscale(0.0, eps) == pytest.approx(1.0, abs=1e-12)
        assert linear_blayer_multiscale(1.0, eps) == pytest.approx(0.0, abs=1e-12)


def test_linear_multiscale_domain_checks():
    with pytest.raises(ValueError):
        linear_blayer_multiscale(1.5, 0.1)
    with pytest.raises(ValueError):
        linear_blayer_multiscale(0.5, 1e-8)  # below the overflow-safe floor


def test_fd_requires_minimum_grid():
    with pytest.raises(ValueError):
        solve_bvp_fd("linear", 0.1, 32)


def test_fd_boundary_rows_exact():
    for kind, boundary in (("linear", (1.0, 0.0)), ("nonlinear", (0.0, 0.5))):
        x, y = solve_bvp_fd(kind, 0.1, 256)
        assert y[0] == boundary[0] and y[-1] == boundary[1]


def test_fd_self_convergence_second_order():
    sols = {}
    for n in (1024, 2048, 4096):
        _, y = solve_bvp_fd("linear", 0.1, n)
        sols[n] = y[:: n // 1024]
    coarse = np.max(np.abs(sols[1024] - sols[2048]))
    fine = np.max(np.abs(sols[2048] - sols[4096]))
    order = np.log2(coarse / fine)
    assert order == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_fd_newton_converges_on_fine_grids(kind):
    # the stopping rule must hold on every grid: a residual target scaled by
    # h^2 is met early on fine grids, from n = 2^19 up by the initial guess
    _, ref = solve_bvp_fd(kind, 0.1, 8192)
    for n in (2**16, 2**20):
        _, y = solve_bvp_fd(kind, 0.1, n)
        assert np.max(np.abs(y[:: n // 8192] - ref)) <= 1e-6


def test_fd_grid_refinement_agreement():
    _, a = solve_bvp_fd("linear", 0.5, 2048)
    _, b = solve_bvp_fd("linear", 0.5, 4096)
    assert np.max(np.abs(a - b[::2])) < 1e-6


def test_layer_half_width_within_five_eps():
    for eps in (0.1, 0.05, 0.01):
        x, y = solve_bvp_fd("linear", eps, 8192)
        assert layer_half_width(x, y) <= 5.0 * eps


def test_linear_gap_second_order_in_eps():
    eps_values = np.array([0.2, 0.1, 0.05])
    gaps = []
    for eps in eps_values:
        x, y_fd = solve_bvp_fd("linear", eps, 8192)
        gaps.append(np.max(np.abs(linear_blayer_multiscale(x, eps) - y_fd)))
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert slope >= 2.0


def exact_roots(eps):
    """The two roots of eps r^2 + r - 1 = 0, the slow r_+ and the fast r_-."""
    root = math.sqrt(1.0 + 4.0 * eps)
    return 2.0 / (1.0 + root), -(1.0 + root) / (2.0 * eps)


def exact_linear_layer(x, eps):
    """The exact two-root solution, in the multiscale solution's overflow-safe form."""
    r_plus, r_minus = exact_roots(eps)
    s = r_plus - r_minus
    return (-np.exp(r_plus * x - s) + np.exp(r_minus * x)) / (1.0 - np.exp(-s))


def test_linear_exponents_truncate_the_exact_roots():
    # r_+ = 1 - eps + 2 eps^2 - ..., r_- = -1/eps - 1 + eps - 2 eps^2 + ...:
    # the next terms pin the slow root's order eps and the fast one's eps^2
    eps = 1e-3
    r_plus, r_minus = exact_roots(eps)
    slow, fast = (c[0] / eps + c[1] + c[2] * eps for c in (blayer._SLOW, blayer._FAST))
    assert (r_plus - slow) / eps**2 == pytest.approx(2.0, rel=0.01)
    assert (r_minus - fast) / eps**2 == pytest.approx(-2.0, rel=0.01)


def test_linear_multiscale_error_is_third_order_against_exact():
    x = np.linspace(0.0, 1.0, 8193)
    errors = [
        np.max(np.abs(linear_blayer_multiscale(x, eps) - exact_linear_layer(x, eps)))
        for eps in (0.05, 0.025, 0.0125)
    ]
    slope = math.log2(errors[1] / errors[2])
    assert 2.9 <= slope <= 3.1, errors


def test_linear_fd_reference_is_close_to_exact():
    x, y = solve_bvp_fd("linear", 0.05, 8192)
    assert np.max(np.abs(y - exact_linear_layer(x, 0.05))) <= 5e-7


def test_nonlinear_shooting_satisfies_boundaries():
    for eps in (0.1, 0.01):
        sol = nonlinear_blayer_multiscale(eps, shoot_tol=1e-10)
        assert abs(sol.inner(0.0)[0]) <= 1e-8
        assert abs(sol.inner(1.0 / eps)[0] - 0.5) <= 1e-8
        assert sol.iterations <= 50


def test_nonlinear_gap_shrinks_with_eps():
    gaps = {}
    for eps in (0.1, 0.01):
        sol = nonlinear_blayer_multiscale(eps)
        x, y_fd = solve_bvp_fd("nonlinear", eps, 8192)
        gaps[eps] = np.max(np.abs(sol(x) - y_fd))
    assert gaps[0.01] < gaps[0.1]


def test_planted_reaction_moves_both_sides_of_the_nonlinear_comparison(monkeypatch):
    # f = 1.1 y^2 in the nonlinear row: the FD reference and the shooting's
    # amplitude equations both follow it, so the gap stays asymptotic (about
    # 0.023, 0.0035 and 0.00087); multiscale equations of f = y^2 against
    # the planted reference stall near 0.1
    boundary = blayer._REACTION["nonlinear"][1]
    monkeypatch.setitem(blayer._REACTION, "nonlinear", ((0, 0, 1.1), boundary))
    gaps = []
    for eps in (0.05, 0.02, 0.01):
        x, y_fd = solve_bvp_fd("nonlinear", eps, 8192)
        gaps.append(np.max(np.abs(nonlinear_blayer_multiscale(eps)(x) - y_fd)))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.002, gaps


def test_nonlinear_eps_range_enforced():
    # the two-term ansatz loses its shooting root near eps = 0.1716
    for eps in (0.3, 0.2, 0.0):
        with pytest.raises(ValueError):
            nonlinear_blayer_multiscale(eps)
    sol = nonlinear_blayer_multiscale(0.17)
    assert sol.residual < 1e-10


def test_shooting_solution_outer_variable():
    sol = nonlinear_blayer_multiscale(0.1)
    x = np.linspace(0.0, 1.0, 7)
    assert sol(x) == pytest.approx(sol.inner(x / 0.1))


# the iterations and b0 of the shooting at eps 0.01, 0.05, 0.1 and 0.17 as
# measured before its amplitude flow moved from a Runge-Kutta stepper to the
# Taylor one; the flow's move shifts b0 by at most 5.2e-10
@pytest.mark.parametrize("eps, iterations, b0", [
    (0.01, 4, -1.0090473589465392),
    (0.05, 4, -1.049329131557429),
    (0.1, 5, -1.1125894615957452),
    (0.17, 7, -1.5626481051436654),
])
def test_shooting_keeps_its_iterations_and_root(eps, iterations, b0):
    sol = blayer.nonlinear_blayer_multiscale(eps)
    assert sol.iterations == iterations
    assert abs(sol.b0 - b0) <= 1e-9
