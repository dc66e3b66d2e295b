"""The library's Runge-Kutta integrator, :func:`integrate_reference`, and
the rules its two Taylor-series solves share.

The ``msode`` amplitude flows and the ``blayer`` shooting step with
:func:`integrate_reference`.  The two direct solves step by Taylor series
instead: the ODE catalog's (:func:`msode.integrate_taylor`) and the
``mspde`` pseudospectral packet solve (:func:`mspde._solve_direct`).  Both
take their input checks (:func:`checked_problem`), their smallest step
(:func:`min_step`), their order (:func:`taylor_order`) and their step size
(:func:`taylor_step`) from here.  :func:`integrate_reference` is its own
error-controlled Dormand-Prince 8(5,3) stepper with dense output, which
reproduces scipy's DOP853 bit for bit without importing scipy.  ``msode``
re-exports it; ``blayer`` imports it from here.

Every :func:`integrate_reference` run samples through the dense output, at
``t_eval`` or, when that is None, at the end point ``t_span[1]`` alone; there
is no accepted-step output.  Sampling is deferred.  A step that covers
requested times evaluates its 3 dense-output stages at once (the next step
overwrites the stages) and keeps the 7 interpolant coefficients; after the
last step one alternating Horner pass evaluates every sample.  The
interpolant is elementwise in the samples, so the batch gives the bits that
one evaluation per step gives.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import SolverError


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
_C = [0.0,  # Python floats: stage times cost no numpy scalar arithmetic
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
      0.777777777777777777777777777778]
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
_A_ROWS = [_A[s, :s] for s in range(16)]  # stage s combines the s stages before it
_B = _A_ROWS[_N_STAGES]
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
RTOL_FLOOR = 100 * np.finfo(float).eps
STEP_TOO_SMALL = "Required step size is less than spacing between numbers."


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


def checked_problem(y0, t_span, rtol, atol, t_eval):
    """(y0, (t0, t_bound), t_eval, rtol used) of an initial value problem, as
    float arrays and floats; ``t_eval`` None means ``[t_bound]``.

    Raises ValueError on a tolerance that is not positive, a non-finite or
    decreasing ``t_span``, a ``y0`` that is empty, not 1-dimensional or not
    finite, and a ``t_eval`` that is not finite, not inside ``t_span`` or not
    strictly increasing.  An rtol below 100 machine epsilons warns and is
    raised to that floor.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rtol {rtol} is too small; using {RTOL_FLOOR}", stacklevel=3)
        rtol = RTOL_FLOOR
    t0, t_bound = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t_bound)):
        raise ValueError("t_span must be finite")
    if not t_bound > t0:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ValueError("y0 must be a nonempty 1-dimensional array")
    if not np.isfinite(y).all():
        raise ValueError("all components of y0 must be finite")
    t_eval = np.asarray([t_bound] if t_eval is None else t_eval)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be 1-dimensional")
    if not np.isfinite(t_eval).all():
        raise ValueError("values in t_eval must be finite")
    if np.any(t_eval < t0) or np.any(t_eval > t_bound):
        raise ValueError("values in t_eval are not within t_span")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("values in t_eval must strictly increase")
    return y, (t0, t_bound), t_eval, rtol


def min_step(t: float) -> float:
    """The smallest step an integrator takes at t: ten times the spacing of
    doubles there.  A smaller one ends the solve with :class:`SolverError`."""
    return 10 * abs(math.nextafter(t, math.inf) - t)


def taylor_order(tol: float) -> int:
    """Order N of a Taylor step at tolerance ``tol``: ceil(-ln(tol)/2) + 2,
    tol floored at ``RTOL_FLOOR``, so N <= 18, and N >= 4.

    That is one above Jorba & Zou's order: at about the same cost (the steps
    grow with N), it kept the ODE catalog's direct error at or below DOP853's
    on the shipped and benchmark configs.  Below order 4 the step outruns the
    series at tolerances near 1.
    """
    return max(4, math.ceil(-0.5 * math.log(max(tol, RTOL_FLOOR))) + 2)


def taylor_step(tops: Sequence[float], order: int, tol: float, rtol: float) -> float:
    """The step of a Taylor series of order N from its last two coefficients.

    ``tops`` are the largest components |c_k| of the coefficients k = N - 1
    and N; ``tol`` is atol + rtol max|y| at the step's start.  The step is
    s_k (tol / |c_k|)^(1/k), least over the two k, with safety factor
    s_k = min(0.9, 0.35 rtol^(-1/k)).  The second caps the step at 0.35 of
    the radius estimate ((atol / rtol + max|y|) / |c_k|)^(1/k), so at
    tolerances near 1 the step stays inside the series' radius.  It is the
    smaller only where rtol > (0.35/0.9)^k, and that does not depend on
    max|y|, so a decayed solution in the atol regime keeps the plain
    0.9 step.  A zero coefficient sets no limit: inf when both are zero.
    """
    h = math.inf
    for k, top in zip((order - 1, order), tops):
        if top:
            h = min(h, min(0.9, 0.35 * rtol ** (-1 / k)) * (tol / top) ** (1 / k))
    return h


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

    The amplitude flows and the shooting run through it (see the module
    docstring).  Steps forward from ``t_span[0]``
    to ``t_span[1]`` under error control (DOP853, see the comment above) and
    samples the solution through the dense output at ``t_eval``, which
    defaults to ``[t_span[1]]``: a run without ``t_eval`` returns the end
    state alone.  The samples are
    interpolated in one pass after the last step (see the module docstring).
    Deterministic for fixed inputs.  ``meta`` records the right-hand side
    evaluations (``nfev``), the accepted and rejected steps (``n_steps``,
    ``n_rejected``), the steps that built dense output (``n_dense``, each
    costing 3 evaluations, so ``nfev == 2 + 12 * (n_steps + n_rejected) +
    3 * n_dense``; at least 1 whenever ``t_eval`` is not empty, the default
    included, since the last step reaches ``t_span[1]``) and the tolerances.
    Inputs are checked by :func:`checked_problem` before the first
    evaluation.  Raises :class:`SolverError` when the step size falls under
    ten times the spacing of doubles at t ("Required step size is less than
    spacing between numbers"), as it does at a finite-time blow-up; the
    message names that t.
    """
    y, (t0, t_bound), t_eval, rtol_used = checked_problem(y0, t_span, rtol, atol, t_eval)
    t_list = t_eval.tolist()
    n_eval = 0  # t_eval points covered so far
    dense = []  # per step that covers samples: (their number, t_old, t, y_old, F)
    nfev = n_steps = n_rejected = 0

    def fun(t, x):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, x, *args), dtype=float)

    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol_used, atol)
    n = len(y)
    K = np.empty((16, n))  # 13 stages of a step, then the 3 dense-output stages
    KT = [K[:s].T for s in range(16)]
    while t < t_bound:
        h_min = min_step(t)
        if h_abs < h_min:
            h_abs = h_min
        rejected = False
        while True:
            if h_abs < h_min:
                raise SolverError(
                    f"reference integration failed at t={t}: {STEP_TOO_SMALL} (nfev={nfev})"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, _N_STAGES):
                K[s] = fun(t + _C[s] * h, y + np.dot(KT[s], _A_ROWS[s]) * h)
            y_new = y + h * np.dot(KT[_N_STAGES], _B)
            f_new = fun(t + h, y_new)
            K[_N_STAGES] = f_new
            # RMS of the 5th-order error estimate, damped by the 3rd-order one;
            # sqrt(x.dot(x)) ** 2 is np.linalg.norm(x) ** 2, rounding included
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol_used
            err5 = np.dot(KT[_N_STAGES + 1], _E5) / scale
            err3 = np.dot(KT[_N_STAGES + 1], _E3) / scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = h_abs * err5_norm_2 / math.sqrt(denom * n) if denom else 0.0
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
        n_new = bisect_right(t_list, t, n_eval)
        if n_new > n_eval:  # the 3 extra stages now, the interpolation after the loop
            for s in range(_N_STAGES + 1, 16):
                K[s] = fun(t_old + _C[s] * h, y_old + np.dot(KT[s], _A_ROWS[s]) * h)
            F = np.empty((7, n))
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * K[0] - delta_y
            F[2] = 2 * delta_y - h * (f + K[0])
            F[3:] = h * np.dot(_D, K)
            dense.append((n_new - n_eval, t_old, t, y_old, F))
            n_eval = n_new
    meta = {"nfev": nfev, "rtol": rtol, "atol": atol, "n_steps": n_steps,
            "n_rejected": n_rejected, "n_dense": len(dense)}
    samples = np.zeros((len(t_eval), n))
    if dense:
        counts, t_olds, t_news, y_olds, Fs = map(np.array, zip(*dense))
        step = np.repeat(np.arange(len(dense)), counts)  # the step that covers each sample
        x = ((t_eval - t_olds[step]) / (t_news - t_olds)[step])[:, None]
        for i in range(7):  # Horner in x and 1 - x, alternately
            samples += Fs[step, 6 - i]
            samples *= x if i % 2 == 0 else 1 - x
        samples += y_olds[step]
    return Trajectory(t=t_eval.copy(), y=samples, meta=meta)
