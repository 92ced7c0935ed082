"""The explicit Runge-Kutta method of order 8(5,3) of Dormand and Prince
(Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I",
2nd ed., Springer 1993, Sec. II.5), stepped from t0 to one end time.

This is a port of the step loop of scipy 1.17.1's
``scipy.integrate.DOP853`` and of its ``select_initial_step``, with the
coefficients copied from ``scipy/integrate/_ivp/dop853_coefficients.py``
(scipy is BSD-3-Clause licensed, Copyright (c) 2001-2002 Enthought, Inc.
and 2003 onwards SciPy Developers).  Only what the box-ODE oracles use is
kept: real states, a forward end time, a step cap, scalar tolerances and the
state at the end.  Dense output, events, complex states, vectorised calls,
a first-step option and evaluation counters are left out.  The arrays and
the order of operations are scipy's, down to its 16-row stage buffer, so
every state is bit-identical to ``DOP853``'s (``tests/test_dop853.py``).
Owning the stepper keeps ``scipy.integrate``, and the packages its import
loads, out of ``import brw2``.
"""

from __future__ import annotations

import numpy as np

SAFETY = 0.9            # multiplies the step that the error asymptotics suggest
MIN_FACTOR = 0.2        # largest decrease of a step
MAX_FACTOR = 10         # largest increase of a step
ERROR_EXPONENT = -1 / 8  # the error estimator has order 7

# C[s] and the lower triangle A[s, :s] of the 12-stage tableau, row by row
C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
A = np.zeros((12, 12))
for _s, _row in enumerate([
        [5.26001519587677318785587544488e-2],
        [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
        [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
        [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1],
        [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1],
        [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2],
        [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3],
        [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
        [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2],
        [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
         1.09143734899672957818500254654, -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
         2.49360555267965238987089396762, -3.0467644718982195003823669022],
        [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
         -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1]], start=1):
    A[_s, :_s] = _row
# the order-8 weights, and the order-5 and order-3 error weights over the
# 12 stages and the derivative at the new state
B = np.array([5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
              1.89151789931450038304281599044, -5.8012039600105847814672114227,
              3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
              2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2])
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0,
               -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
               0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
               0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
               -0.2235530786388629525884427845e-1, 0])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  max_step: float, rtol: float, atol: float) -> float:
    """The first step of Hairer, Norsett & Wanner, Sec. II.4."""
    interval = abs(t_bound - t0)
    if interval == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval, max_step)


def dop853(fun, t0: float, y0: np.ndarray, t_bound: float, max_step: float,
           rtol: float, atol: float) -> np.ndarray:
    """The state at ``t_bound`` of y' = fun(t, y), y(t0) = y0, for a finite
    t_bound >= t0, by steps of at most ``max_step`` whose error estimate
    meets ``rtol`` and ``atol``.  Raises RuntimeError when the step falls
    below the float spacing at t.
    """
    if not t0 <= t_bound < np.inf:
        raise ValueError(f"end time must be finite and >= {t0}, got {t_bound}")
    t, y, f = t0, y0, fun(t0, y0)
    h_abs = _initial_step(fun, t0, y0, f, t_bound, max_step, rtol, atol)
    K = np.empty((16, y.size))[:13]
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"box integration failed: step under the float spacing at {t}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * y.size)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y
