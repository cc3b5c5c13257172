"""Dormand-Prince 8(5,3) Runge-Kutta: a port of scipy's DOP853 ``solve_ivp`` path.

DOP853 takes explicit 12-stage steps of order 8 and controls the step size
with a blend of embedded 5th- and 3rd-order error estimates.  This module
transcribes the path ``scipy.integrate.solve_ivp(fun, (t0, tf), y0,
method="DOP853", rtol=..., atol=...)`` takes (scipy 1.17, no ``t_eval``,
events or dense output): ``solve_ivp``'s float coercion and status handling,
``OdeSolver``'s wrapped right-hand side and its evaluation count,
``select_initial_step``, ``RungeKutta._step_impl``, ``rk_step`` and
``DOP853._estimate_error_norm``.  It keeps scipy's numpy expressions, operand
shapes and order, so ``solve`` returns the same final state bit for bit,
after the same number of right-hand-side calls, as ``solve_ivp``.  The
coefficients are those of scipy's ``dop853_coefficients.py``, without the
dense-output stages.

E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I: Nonstiff Problems*, 2nd ed. (Springer, 1993), sec. II.4-II.5;
P. J. Prince and J. R. Dormand, "High order embedded Runge-Kutta formulae",
J. Comput. Appl. Math. 7 (1981) 67-75.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["solve"]

SAFETY = 0.9  # multiplies steps computed from the asymptotic error behaviour
MIN_FACTOR = 0.2  # largest decrease of a step size
MAX_FACTOR = 10  # largest increase of a step size

N_STAGES = 12
ERROR_ESTIMATOR_ORDER = 7

SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

C = np.array([
    0.0,
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
])

# Row s combines stages 0..s-1 into stage s; the last row is B.
A = np.zeros((N_STAGES + 1, N_STAGES))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
A[4, :4] = [
    2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
A[5, :5] = [
    3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
A[6, :6] = [
    3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
A[7, :7] = [
    3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
A[8, :8] = [
    6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
A[9, :9] = [
    4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
A[10, :10] = [
    -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
A[11, :11] = [
    2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
A[12, :12] = [
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
]
B = A[N_STAGES]
A = A[:N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1


def solve(
    fun: Callable[[float, np.ndarray], np.ndarray], t0: float, tf: float, y0, *, rtol: float, atol: float
) -> tuple[np.ndarray, int, bool, str]:
    """Integrate y' = fun(t, y) from (t0, y0) to tf: (y(tf), nfev, success, message).

    ``y0`` is a real, nonempty 1-dimensional state; ``rtol`` must be at least 100 eps
    (scipy raises a smaller one to that, with a warning).  When the step
    size falls below 10 ulps of t, the integration stops unsuccessfully with
    scipy's message and returns the state of its last accepted step.  An
    exception raised by ``fun`` propagates unchanged.
    """
    t0, tf = float(t0), float(tf)
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    direction = np.sign(tf - t0) if tf != t0 else 1
    t = t0
    f = rhs(t, y)
    h_abs = _select_initial_step(rhs, t, y, tf, f, direction, rtol, atol)
    K = np.empty((N_STAGES + 1, y.size), dtype=y.dtype)
    error_exponent = -1 / (ERROR_ESTIMATOR_ORDER + 1)

    # OdeSolver.step until finished, each step RungeKutta._step_impl.
    while t != tf:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return y, nfev, False, TOO_SMALL_STEP

            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)

            y_new, f_new = _rk_step(rhs, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _estimate_error_norm(K, h, scale)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm**error_exponent)
                step_rejected = True

        t, y, f = t_new, y_new, f_new
    return y, nfev, True, SUCCESS


def _norm(x: np.ndarray) -> float:
    """RMS norm."""
    return np.linalg.norm(x) / x.size**0.5


def _select_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer, Norsett & Wanner's empirical first step (sec. II.4)."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0

    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))

    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One step of the 8th-order formula; K gets the stages and fun(t + h, y_new)."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)

    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)

    K[-1] = f_new

    return y_new, f_new


def _estimate_error_norm(K, h, scale):
    """RMS error of the step, the 5th-order estimate damped by the 3rd-order one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
