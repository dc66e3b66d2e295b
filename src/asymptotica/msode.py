"""Multiple-scales treatment of weakly nonlinear oscillators.

Each catalog entry is one :class:`CaseSpec` declaration.  A case declares

* the original right hand side (integrated at high accuracy as the reference),
* the amplitude rate: every shipped flow has the form dA_j/dt = rate_j A_j,
* its carrier terms (component, coefficient, eps power, amplitude powers,
  carrier exponent lam); the reconstruction is y = 2 Re of their sum, and
* an exact solution where one exists.

Derived once from the declaration, for every case: the sizes (the state
dimension is ``len(default_ics)``, positions then velocities, so half of it
is the number of oscillator components; the number of amplitudes is the
length of a carrier term's amplitude powers), the amplitude-equation right
hand side, the reconstruction map, its time derivative (product rule
along the amplitude flow), the initial-amplitude fit (Newton on the
reconstruction and its time derivative at t=0) and, where the rate is
constant along the flow, the closed form A0 e^{rate(A0) t}.

The shipped cases:

``damped_linear``
    y'' + eps y' + y = 0.  Amplitude equation dA/dt = -(eps/2) A - i(eps^2/8) A
    with reconstruction y = A e^{it} + c.c.; the exact solution through the
    characteristic polynomial is available for error measurements.  The
    textbook *non-uniform* direct expansion (:func:`naive_damped_expansion`)
    is kept alongside to demonstrate its breakdown at t ~ 1/eps.

``cubic``
    y'' + y = eps y^3.  dA/dt = -i(3 eps/2)|A|^2 A - i(15 eps^2/16)|A|^4 A,
    y = A e^{it} - (eps/8) A^3 e^{3it} + c.c.  The modulus of A is conserved.

``quadratic_damped``
    y'' + y' + eps y^2 = 0 with two real amplitudes: y = A + B e^{-t}
    - (eps/2) B^2 e^{-2t}, dA/dt = -eps A^2 - 2 eps^2 A^3,
    dB/dt = 2 eps A B + 2 eps^2 A^2 B, i.e. the rate
    (-eps A - 2 eps^2 A^2, 2 eps A + 2 eps^2 A^2), which is not constant
    along the flow, so this case has no closed form.

``coupled_cubic``
    x'' + 2x - y = eps x y^2, y'' + 3y - 2x = eps y x^2.  Two complex
    amplitudes riding carriers e^{-it} and e^{-2it}; the amplitude moduli are
    conserved, so the amplitude system integrates in closed form and the
    oscillation frequencies shift with the initial data.

The direct solve and the amplitude flows are integrated with
:func:`integrate_reference`, the library's one adaptive integrator: its own
error-controlled Dormand-Prince 8(5,3) stepper with dense output, which
reproduces scipy's DOP853 bit for bit without importing scipy.  Complex
amplitudes are evolved as pairs of reals so one real-valued integrator serves
every case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class SolverError(RuntimeError):
    """Time integration failed (step-size underflow or non-convergence)."""


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus state samples; ``y[i]`` is the state at ``t[i]``."""

    t: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.t) != len(self.y):
            raise ValueError("time grid and samples must have equal length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("time grid must be strictly increasing")


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


# --- Dormand-Prince 8(5,3) ------------------------------------------------------
#
# DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
# sections II.5 and II.10): 12 stages of order 8, a 5th- and a 3rd-order error
# estimate, and a 7th-order dense output that costs 3 more stages.  The
# tableau, the step-size control and the output sampling follow scipy 1.17.1's
# DOP853 (its _ivp package: rk.py, common.py, ivp.py) operation for operation,
# so trajectories and evaluation counts agree with scipy's to the last bit.
# Coefficients transcribed from its dop853_coefficients.py:
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD 3-clause.

_N_STAGES = 12
_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])
_A = np.zeros((16, 16))  # rows 13-15: the extra stages of the dense output
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1
_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2
_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3
_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1
_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(_N_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1
_D = np.zeros((4, 16))  # dense-output coefficients past the first three
_D[0, 0] = -0.84289382761090128651353491142e+1
_D[0, 5] = 0.56671495351937776962531783590
_D[0, 6] = -0.30689499459498916912797304727e+1
_D[0, 7] = 0.23846676565120698287728149680e+1
_D[0, 8] = 0.21170345824450282767155149946e+1
_D[0, 9] = -0.87139158377797299206789907490
_D[0, 10] = 0.22404374302607882758541771650e+1
_D[0, 11] = 0.63157877876946881815570249290
_D[0, 12] = -0.88990336451333310820698117400e-1
_D[0, 13] = 0.18148505520854727256656404962e+2
_D[0, 14] = -0.91946323924783554000451984436e+1
_D[0, 15] = -0.44360363875948939664310572000e+1
_D[1, 0] = 0.10427508642579134603413151009e+2
_D[1, 5] = 0.24228349177525818288430175319e+3
_D[1, 6] = 0.16520045171727028198505394887e+3
_D[1, 7] = -0.37454675472269020279518312152e+3
_D[1, 8] = -0.22113666853125306036270938578e+2
_D[1, 9] = 0.77334326684722638389603898808e+1
_D[1, 10] = -0.30674084731089398182061213626e+2
_D[1, 11] = -0.93321305264302278729567221706e+1
_D[1, 12] = 0.15697238121770843886131091075e+2
_D[1, 13] = -0.31139403219565177677282850411e+2
_D[1, 14] = -0.93529243588444783865713862664e+1
_D[1, 15] = 0.35816841486394083752465898540e+2
_D[2, 0] = 0.19985053242002433820987653617e+2
_D[2, 5] = -0.38703730874935176555105901742e+3
_D[2, 6] = -0.18917813819516756882830838328e+3
_D[2, 7] = 0.52780815920542364900561016686e+3
_D[2, 8] = -0.11573902539959630126141871134e+2
_D[2, 9] = 0.68812326946963000169666922661e+1
_D[2, 10] = -0.10006050966910838403183860980e+1
_D[2, 11] = 0.77771377980534432092869265740
_D[2, 12] = -0.27782057523535084065932004339e+1
_D[2, 13] = -0.60196695231264120758267380846e+2
_D[2, 14] = 0.84320405506677161018159903784e+2
_D[2, 15] = 0.11992291136182789328035130030e+2
_D[3, 0] = -0.25693933462703749003312586129e+2
_D[3, 5] = -0.15418974869023643374053993627e+3
_D[3, 6] = -0.23152937917604549567536039109e+3
_D[3, 7] = 0.35763911791061412378285349910e+3
_D[3, 8] = 0.93405324183624310003907691704e+2
_D[3, 9] = -0.37458323136451633156875139351e+2
_D[3, 10] = 0.10409964950896230045147246184e+3
_D[3, 11] = 0.29840293426660503123344363579e+2
_D[3, 12] = -0.43533456590011143754432175058e+2
_D[3, 13] = 0.96324553959188282948394950600e+2
_D[3, 14] = -0.39177261675615439165231486172e+2
_D[3, 15] = -0.14972683625798562581422125276e+3

_SAFETY = 0.9  # multiplies the step the error asymptotics propose
_MIN_FACTOR = 0.2  # smallest step decrease
_MAX_FACTOR = 10  # largest step increase
_ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7
_RTOL_FLOOR = 100 * np.finfo(float).eps
_STEP_TOO_SMALL = "Required step size is less than spacing between numbers."


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step size from the local behaviour of the solution (HNW II.4)."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    """RMS of the 5th-order error estimate, damped by the 3rd-order one."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_output(fun, K, t_old, y_old, h, t, y, f, times, out):
    """Write the 7th-order interpolant over the step [t_old, t] at ``times`` into ``out``.

    ``K`` holds the step's 13 stages; the 3 extra stages are added below them.
    """
    for s in range(_N_STAGES + 1, 16):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t_old + _C[s] * h, y_old + dy)
    F = np.empty((7, len(y_old)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)
    x = ((times - t_old) / (t - t_old))[:, None]
    out[:] = 0.0
    for i, fi in enumerate(reversed(F)):  # Horner in x and 1 - x, alternately
        out += fi
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old


def integrate_reference(
    rhs: Callable,
    y0,
    t_span: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
    args: tuple = (),
) -> Trajectory:
    """High-accuracy reference integration with the Dormand-Prince 8(5,3) pair.

    The library's one adaptive integrator: every direct solve, amplitude
    flow, shooting integration and pseudospectral PDE solve runs through it.
    Steps forward from ``t_span[0]`` to ``t_span[1]`` under error control
    (DOP853, see the comment above) and samples the solution at ``t_eval``
    through the dense output, or at the accepted steps when it is None.
    Deterministic for fixed inputs.  ``meta`` records the right-hand side
    evaluations (``nfev``), the accepted and rejected steps (``n_steps``,
    ``n_rejected``) and the tolerances.  Raises :class:`SolverError` when the
    step size falls under ten times the spacing of doubles at t ("Required
    step size is less than spacing between numbers"), as it does at a
    finite-time blow-up; the message names that t.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    rtol_used = rtol
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"rtol {rtol} is too small; using {_RTOL_FLOOR}", stacklevel=2)
        rtol_used = _RTOL_FLOOR
    t0, t_bound = map(float, t_span)
    if not t_bound > t0:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ValueError("y0 must be a nonempty 1-dimensional array")
    if not np.isfinite(y).all():
        raise ValueError("all components of y0 must be finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1:
            raise ValueError("t_eval must be 1-dimensional")
        if np.any(t_eval < t0) or np.any(t_eval > t_bound):
            raise ValueError("values in t_eval are not within t_span")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("values in t_eval must strictly increase")
        samples = np.empty((len(t_eval), len(y)))
    n_eval = 0  # t_eval points written so far
    nfev = n_steps = n_rejected = 0

    def fun(t, x):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, x, *args), dtype=float)

    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol_used, atol)
    K = np.empty((16, len(y)))  # 13 stages of a step, then the 3 dense-output stages
    stages = K[: _N_STAGES + 1]
    ts, ys = [t], [y]
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise SolverError(
                    f"reference integration failed at t={t}: {_STEP_TOO_SMALL} (nfev={nfev})"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _N_STAGES):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:_N_STAGES].T, _B)
            f_new = fun(t + h, y_new)
            K[_N_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol_used
            error_norm = _error_norm(stages, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
        if rejected:  # a step that had to shrink does not grow at once
            factor = min(1, factor)
        h_abs *= factor
        n_steps += 1
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
            continue
        n_new = np.searchsorted(t_eval, t, side="right")
        if n_new > n_eval:
            _dense_output(
                fun, K, t_old, y_old, h, t, y, f, t_eval[n_eval:n_new], samples[n_eval:n_new]
            )
            n_eval = n_new
    meta = {"nfev": nfev, "rtol": rtol, "atol": atol, "n_steps": n_steps, "n_rejected": n_rejected}
    if t_eval is None:
        return Trajectory(t=np.array(ts), y=np.array(ys), meta=meta)
    return Trajectory(t=t_eval.copy(), y=samples, meta=meta)


# (component, coefficient, eps power p, amplitude powers n, carrier exponent
# lam): adds coefficient eps^p prod_j A_j^{n_j} e^{lam t} inside 2 Re(...).
CarrierTerm = tuple[int, float, int, tuple[int, ...], complex]


@dataclass(frozen=True)
class CaseSpec:
    """One catalog entry; see the module docstring for what it declares and derives."""

    name: str
    validity_exponent: int
    default_ics: tuple[float, ...]  # positions, then velocities
    original_rhs: Callable  # (t, state, eps) -> dstate
    rate: Callable  # (amps, eps, terms) -> rates, dA_j/dt = rate_j A_j
    carrier_terms: tuple[CarrierTerm, ...]
    real_amplitudes: bool = False
    rate_conserved: bool = False  # constant along the flow: closed form exists
    exact: Optional[Callable] = None  # (t, eps) -> components

    @property
    def state_dim(self) -> int:
        return len(self.default_ics)

    @property
    def n_components(self) -> int:
        return self.state_dim // 2

    @property
    def n_amplitudes(self) -> int:
        return len(self.carrier_terms[0][3])

    def amplitude_rhs(self, t, amps, eps, terms=2):
        """dA/dt = rate(A) A."""
        return np.asarray(self.rate(amps, eps, terms)) * amps

    def amplitude_closed_form(self, t, amps0, eps, terms=2):
        """A0 e^{rate(A0) t} on the grid t, shape (n_t, n_amp)."""
        if not self.rate_conserved:
            raise ValueError(f"case {self.name} has no closed-form amplitudes")
        rates = np.asarray(self.rate(amps0, eps, terms))
        return amps0[np.newaxis, :] * np.exp(np.multiply.outer(np.asarray(t), rates))

    def reconstruct(self, t, amps, eps):
        """Oscillator components from the amplitudes at time t."""
        return self._carrier_sum(t, amps, eps)

    def reconstruct_dt(self, t, amps, eps, terms=2):
        """Product rule along the flow: d(A_j^n)/dt = n rate_j A_j^n."""
        return self._carrier_sum(t, amps, eps, self.rate(amps, eps, terms))

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


# --- damped linear oscillator -------------------------------------------------

def _damped_linear_rhs(t, s, eps):
    y, v = s
    return np.array([v, -y - eps * v])


def _damped_linear_rate(a, eps, terms):
    return (-0.5 * eps - (0.125j * eps * eps if terms >= 2 else 0.0),)


def _damped_linear_exact(t, eps):
    omega = np.sqrt(1.0 - 0.25 * eps * eps)
    lam = -0.5 * eps + 1j * omega
    c = -np.conj(lam) / (lam - np.conj(lam))
    return np.real(2.0 * c * np.exp(lam * np.asarray(t)))[np.newaxis]


# --- cubic oscillator ---------------------------------------------------------

def _cubic_rhs(t, s, eps):
    y, v = s
    return np.array([v, -y + eps * y**3])


def _cubic_rate(a, eps, terms):
    mod2 = np.abs(a[0]) ** 2
    return (-1.5j * eps * mod2 - (0.9375j * eps * eps * mod2**2 if terms >= 2 else 0.0),)


# --- damped oscillator with quadratic nonlinearity ----------------------------

def _quadratic_rhs(t, s, eps):
    y, v = s
    return np.array([v, -v - eps * y**2])


def _quadratic_rate(ab, eps, terms):
    a = ab[0]
    second = 2.0 * eps * eps * a**2 if terms >= 2 else 0.0
    return (-eps * a - second, 2.0 * eps * a + second)


# --- two coupled cubic oscillators --------------------------------------------

def _coupled_rhs(t, s, eps):
    x, y, vx, vy = s
    return np.array(
        [vx, vy, -2.0 * x + y + eps * x * y**2, -3.0 * y + 2.0 * x + eps * y * x**2]
    )


def _coupled_rate(ab, eps, terms):
    ma, mb = np.abs(ab[0]) ** 2, np.abs(ab[1]) ** 2
    return (0.5j * eps * (3.0 * ma - 2.0 * mb), 0.5j * eps * (3.0 * mb - ma))


def coupled_cubic_frequencies(a0: complex, b0: complex, eps: float) -> tuple[float, float]:
    """Initial-data-dependent oscillation frequencies of the reconstructed motion.

    The carriers at frequencies 1 and 2 are shifted by the conserved moduli:
    Omega_1 = 1 + eps(|B0|^2 - 3|A0|^2/2), Omega_2 = 2 + eps(|A0|^2/2 - 3|B0|^2/2).
    """
    ma, mb = abs(a0) ** 2, abs(b0) ** 2
    return 1.0 + eps * (mb - 1.5 * ma), 2.0 + eps * (0.5 * ma - 1.5 * mb)


_CATALOG: dict[str, CaseSpec] = {
    case.name: case
    for case in (
        CaseSpec(
            name="damped_linear",
            validity_exponent=3,
            default_ics=(1.0, 0.0),
            original_rhs=_damped_linear_rhs,
            rate=_damped_linear_rate,
            carrier_terms=((0, 1.0, 0, (1,), 1j),),  # y = A e^{it} + c.c.
            rate_conserved=True,
            exact=_damped_linear_exact,
        ),
        CaseSpec(
            name="cubic",
            validity_exponent=3,
            default_ics=(1.0, 0.0),
            original_rhs=_cubic_rhs,
            rate=_cubic_rate,
            # y = A e^{it} - (eps/8) A^3 e^{3it} + c.c.
            carrier_terms=((0, 1.0, 0, (1,), 1j), (0, -0.125, 1, (3,), 3j)),
            rate_conserved=True,
        ),
        CaseSpec(
            name="quadratic_damped",
            real_amplitudes=True,
            validity_exponent=3,
            default_ics=(1.0, 1.0),
            original_rhs=_quadratic_rhs,
            rate=_quadratic_rate,
            # y = A + B e^{-t} - (eps/2) B^2 e^{-2t}, halved inside 2 Re(...)
            carrier_terms=(
                (0, 0.5, 0, (1, 0), 0.0),
                (0, 0.5, 0, (0, 1), -1.0),
                (0, -0.25, 1, (0, 2), -2.0),
            ),
        ),
        CaseSpec(
            name="coupled_cubic",
            validity_exponent=2,
            # the eps = 0 state of A = B = 0.3
            default_ics=(1.2, -0.6, 0.0, 0.0),
            original_rhs=_coupled_rhs,
            rate=_coupled_rate,
            # x = A e^{-it} + B e^{-2it} + c.c., y = A e^{-it} - 2B e^{-2it} + c.c.
            carrier_terms=(
                (0, 1.0, 0, (1, 0), -1j),
                (0, 1.0, 0, (0, 1), -2j),
                (1, 1.0, 0, (1, 0), -1j),
                (1, -2.0, 0, (0, 1), -2j),
            ),
            rate_conserved=True,
        ),
    )
}


def catalog(name: str) -> CaseSpec:
    """Look up a registered case; raises KeyError listing known names."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; known cases: {sorted(_CATALOG)}"
        ) from None


def case_names() -> list[str]:
    return sorted(_CATALOG)


def _amps_to_real(amps: np.ndarray, real_amplitudes: bool) -> np.ndarray:
    if real_amplitudes:
        return np.asarray(amps, dtype=complex).real.copy()
    a = np.asarray(amps, dtype=complex)
    return np.concatenate([a.real, a.imag])


def _real_to_amps(vec: np.ndarray, n: int, real_amplitudes: bool) -> np.ndarray:
    if real_amplitudes:
        return np.asarray(vec[:n], dtype=float)
    return vec[:n] + 1j * vec[n : 2 * n]


def integrate_amplitude(
    case: CaseSpec,
    amps0,
    t_span: tuple[float, float],
    eps: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    terms: int = 2,
    t_eval=None,
    use_closed_form: bool = False,
) -> Trajectory:
    """Evolve the slow amplitudes; samples are complex with shape (n_t, n_amp).

    With ``use_closed_form`` the analytic amplitude solution replaces the
    integrator for cases whose rate is constant along the flow (the moduli
    that set it are conserved), so that A = A0 e^{rate(A0) t}.
    """
    amps0 = np.asarray(amps0)
    if use_closed_form:
        tt = np.linspace(*t_span, 512) if t_eval is None else np.asarray(t_eval)
        return Trajectory(
            t=tt,
            y=np.asarray(case.amplitude_closed_form(tt, amps0, eps, terms)),
            meta={"eps": eps, "case": case.name, "closed_form": True},
        )

    def rhs(t, vec):
        amps = _real_to_amps(vec, case.n_amplitudes, case.real_amplitudes)
        return _amps_to_real(case.amplitude_rhs(t, amps, eps, terms), case.real_amplitudes)

    traj = integrate_reference(
        rhs, _amps_to_real(amps0, case.real_amplitudes), t_span, rtol, atol, t_eval
    )
    samples = _real_to_amps(traj.y.T, case.n_amplitudes, case.real_amplitudes).T
    meta = dict(traj.meta)
    meta.update(eps=eps, case=case.name, terms=terms)
    return Trajectory(t=traj.t, y=samples.astype(complex), meta=meta)


def fit_initial_amplitudes(case: CaseSpec, ics, eps: float, terms: int = 2) -> np.ndarray:
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
        amps = _real_to_amps(vec, case.n_amplitudes, case.real_amplitudes)
        vals = np.atleast_1d(np.squeeze(case.reconstruct(0.0, amps, e)))
        ders = np.atleast_1d(np.squeeze(case.reconstruct_dt(0.0, amps, e, terms)))
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
        return _real_to_amps(vec, case.n_amplitudes, case.real_amplitudes)

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
    return _real_to_amps(vec, case.n_amplitudes, case.real_amplitudes)


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


def compare(
    case: CaseSpec,
    eps: float,
    horizon_exponent: int | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    terms: int = 2,
    ics=None,
    n_samples: int = 2048,
    use_closed_form: bool = False,
    horizon: float | None = None,
) -> RunReport:
    """Run the direct and multiscale paths on a shared grid and record errors.

    The horizon is eps**(-horizon_exponent), or ``horizon`` when given
    explicitly, and at most ``MAX_HORIZON``; the output grid always holds
    ``n_samples`` uniform points so error norms are comparable across eps.
    ``l2_error`` is the RMS of the pointwise euclidean error norm.
    ``stats["trajectories"]`` always holds the compared series, ``y_direct``
    and ``y_multiscale``, each of shape (n_components, n_samples).  When the
    case has an exact solution its errors are recorded in ``stats`` as well.
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
    ics = case.default_ics if ics is None else tuple(ics)
    grid = np.linspace(0.0, horizon, n_samples)

    # the fit checks len(ics), so it runs before the costly direct solve
    amps0 = fit_initial_amplitudes(case, ics, eps, terms=terms)
    direct = integrate_reference(
        case.original_rhs, ics, (0.0, horizon), rtol, atol, t_eval=grid, args=(eps,)
    )
    y_direct = direct.y[:, : case.n_components].T

    amp_traj = integrate_amplitude(
        case, amps0, (0.0, horizon), eps, rtol, atol, terms, t_eval=grid,
        use_closed_form=use_closed_form,
    )
    y_ms = reconstruct_on_grid(case, amp_traj, eps)

    err = np.abs(y_direct - y_ms)
    stats = {
        "nfev_direct": direct.meta.get("nfev"),
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
