#!/usr/bin/env python3
"""Reproduce the weakly damped oscillator comparison table.

Prints the high-accuracy direct solution, the naive (secular) two-term
expansion and the two-term multiscale reconstruction at t = 4, 40, 400 for
eps = 0.01, then writes the full trajectories to damped_oscillator.csv.
The naive expansion tracks the solution early on and then detaches
completely around t ~ 1/eps; the multiscale reconstruction stays glued to
the exact solution through t ~ 1/eps^2.
"""

import numpy as np

from asymptotica import msode


def main():
    eps = 0.01
    case = msode.catalog("damped_linear")
    times = np.array([4.0, 40.0, 400.0])
    direct = msode.integrate_reference(
        case.original_rhs, (1.0, 0.0), (0.0, 400.0), 1e-10, 1e-12,
        t_eval=times, args=(eps,),
    ).y[:, 0]
    naive = msode.naive_damped_expansion(times, eps)
    amps0 = msode.fit_initial_amplitudes(case, (1.0, 0.0), eps)
    amp = msode.integrate_amplitude(case, amps0, (0.0, 400.0), eps, t_eval=times)
    multiscale = msode.reconstruct_on_grid(case, amp, eps)[0]

    print(f"eps = {eps}")
    print(f"{'t':>6} {'direct':>10} {'naive':>10} {'multiscale':>12}")
    for i, t in enumerate(times):
        print(f"{t:6.0f} {direct[i]:10.4f} {naive[i]:10.4f} {multiscale[i]:12.4f}")

    report = msode.compare(case, eps, horizon=400.0)
    paths = report.stats["trajectories"]
    naive_full = msode.naive_damped_expansion(report.t, eps)
    with open("damped_oscillator.csv", "w") as fh:
        fh.write("t,y_direct,y_multiscale,y_naive\n")
        for i in range(len(report.t)):
            fh.write(
                f"{report.t[i]:.17g},{paths['y_direct'][0, i]:.17g},"
                f"{paths['y_multiscale'][0, i]:.17g},{naive_full[i]:.17g}\n"
            )
    print(f"\nmax |direct - multiscale| on [0, 400]: {report.max_abs_error:.3e}")
    print("wrote damped_oscillator.csv")


if __name__ == "__main__":
    main()
