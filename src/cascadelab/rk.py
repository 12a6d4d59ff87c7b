"""The Dormand-Prince 8(5,3) pair (DOP853) with dense output at given times.

``dop853`` runs the algorithm of ``scipy.integrate.solve_ivp`` with
``method="DOP853"`` and ``t_eval`` (scipy 1.17) step for step, and its
samples and evaluation count are bit-identical to scipy's on the plain
form f(t, y) of its stage-form RHS (below):

- the starting step of Hairer, Norsett & Wanner (Solving ODEs I, 2nd ed.,
  1993, sec. II.4) for an order-7 error estimate, bounded by ``max_step``;
- step factors SAFETY * err^(-1/8) clipped to [MIN_FACTOR, MAX_FACTOR],
  no growth on the step that follows a rejection, and failure once the
  step falls below 10 ulp of t;
- the E5/E3 error norm with weight 0.01 on the third-order estimate;
- three extra stages and the 7-term Horner interpolant (sec. II.10) only
  on steps that hold sample times.

Every array expression is the one scipy evaluates, on arrays of the same
shapes and layouts, so the rounding is the same; tests/test_rk.py holds
the samples and ``nfev`` equal to scipy's.  It lives here so that
importing the package does not load ``scipy.integrate``, and with it
``scipy.optimize``, ``scipy.sparse`` and ``scipy.spatial``, for one
Runge-Kutta pair.

The RHS is called in stage form, ``rhs(v, v_conj, y, out)``: it writes
f(t, y) into ``out`` and receives the phases v = exp((1j * t) * rates) and
v_conj = conj(v) of its time t, so an oscillatory system takes no
exponential per evaluation (``rates`` is empty for a system that does not
depend on t).  Each attempt fixes its sixteen stage times t + C[s] h, so
the loop builds their phase table once per attempt and hands stage s its
rows and its stage row k[s] to write into.  The table keeps scipy's bits:

- the stage times are t + C[s] * h elementwise, the sum scipy forms for
  each stage;
- 1j * t is exactly (0, t) and its product with a real rate rounds only
  t * rate, so the table's (1j * t_s) * rates equals the (1j * t) * rates
  that a plain RHS computes, and numpy's complex exp is elementwise;
- it is rebuilt on every attempt, since a rejected attempt changes h and
  with it every stage time (built once per accepted step, it fails the
  oracle); the three dense-output stages read rows 13-15 of the accepted
  attempt, at scipy's t_old + C[s] h, and the two probes before the
  first step take single rows.

What the loop adds to each RHS evaluation is numpy call overhead, so its
views, casts and buffers are made once per solve, and each keeps scipy's
bits:

- stage views (k[:s].T, A[s, :s], the two phase rows, k[s]), with the
  rows of A and B, E5, E3 cast to the state dtype: numpy casts a float
  vector to complex before a complex matrix-vector product anyway, so
  BLAS sees the same inputs;
- each stage input is built in one buffer, dot(k[:s].T, a) * h and then
  y + that, scipy's operations in scipy's order, written with ``out=``;
- h is held in a 0-d array of the state dtype, set once per step: numpy
  runs the multiply loop it runs for a Python float (a complex state is
  multiplied by h + 0j either way), for about half the call cost.  That
  product is safe in place; a general complex product is not, because
  numpy's in-place complex multiply of length one rounds differently
  from the out-of-place one, so a stage RHS multiplies into a buffer that
  is not one of its inputs;
- the error norm is np.linalg.norm's own 1-D arithmetic,
  sqrt(re . re + im . im) on the same strided views, then squared;
- |y| of an accepted step's end is kept for the next step's scale;
- the steps that hold samples are found by ``bisect`` over t_eval as a
  float list, the comparison ``np.searchsorted`` makes.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from .errors import NumericalError

# The tableau below is copied verbatim from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py, which transcribes Hairer's
# Fortran DOP853 constants, so that every literal parses to the same double.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
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

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

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

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# End of the copied tableau.

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
#: -1 / (q + 1) for the order q = 7 of the error estimate.
ERROR_EXPONENT = -1 / 8
#: Smallest relative tolerance ``dop853`` is run at; ``dynamics.SolverOptions``
#: rejects a smaller one.
MIN_RTOL = 100 * sys.float_info.epsilon


def _rms(x: np.ndarray):
    """Root-mean-square norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(probe, y0, f0, t_end, max_step, rtol, atol):
    """The starting step for an order-7 estimate; ``probe(t, y)`` is one more RHS evaluation."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = probe(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, t_end, max_step)


def _fill_phases(times, rates, v, v_conj):
    """v[i] = exp((1j * times[i]) * rates) and v_conj = conj(v), one row per time."""
    np.exp(np.multiply((1j * times)[:, None], rates, out=v), out=v)
    np.conjugate(v, out=v_conj)


def _stage_views(k_ext: np.ndarray, v, v_conj, stages: range):
    """(k[:s].T, A[s, :s] in the state dtype, v[s], v_conj[s], k[s]) for each stage s."""
    return [
        (k_ext[:s].T, A[s, :s].astype(k_ext.dtype), v[s], v_conj[s], k_ext[s]) for s in stages
    ]


def _squared_norm(parts) -> float:
    """np.linalg.norm(x) ** 2 as numpy computes it: sqrt(re . re + im . im), squared.

    ``parts`` are x's real and imaginary views, or x alone when it is real.
    """
    total = 0.0
    for part in parts:
        total += part.dot(part)
    return math.sqrt(total) ** 2


def _error_norm(k_all, e5, e3, scale, h: float, err, parts):
    """RMS of the fifth-order estimate over a step h > 0, damped by the third-order one.

    ``err`` is a buffer of the state's shape and ``parts`` its views as in
    ``_squared_norm``.
    """
    np.divide(k_all.dot(e5, out=err), scale, out=err)
    err5_norm_2 = _squared_norm(parts)
    np.divide(k_all.dot(e3, out=err), scale, out=err)
    err3_norm_2 = _squared_norm(parts)
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if denom == 0:
        return math.nan  # 0.01 * err3_norm_2 underflowed: scipy's 0 / 0, which rejects the step
    return h * err5_norm_2 / math.sqrt(denom * len(scale))


def _run_stages(rhs, stages, hs, y, ys):
    """rhs(v[s], v_conj[s], y + (k[:s].T @ A[s, :s]) h, out=k[s]) for each of ``stages``, in order.

    ``stages`` come from ``_stage_views``, ``hs`` holds h as a 0-d array
    of the state dtype and each stage input is built in the buffer ``ys``.
    """
    for kt, a, v, v_conj, ks in stages:
        np.add(y, np.multiply(kt.dot(a, out=ys), hs, out=ys), out=ys)
        rhs(v, v_conj, ys, ks)


def _interpolate(k_ext, t_old, h, y_old, y, f, times):
    """Dense output over the step [t_old, t_old + h] at ``times``, shape (n, m).

    ``k_ext`` must hold all sixteen stages of the step.
    """
    f_old = k_ext[0]
    delta_y = y - y_old
    poly = np.empty((INTERPOLATOR_POWER, len(y)), dtype=y_old.dtype)
    poly[0] = delta_y
    poly[1] = h * f_old - delta_y
    poly[2] = 2 * delta_y - h * (f + f_old)
    poly[3:] = h * np.dot(D, k_ext)
    x = ((times - t_old) / h)[:, None]
    factors = (x, 1 - x)
    out = np.zeros((len(times), len(y)), dtype=y_old.dtype)
    for i, row in enumerate(poly[::-1]):
        out += row
        out *= factors[i % 2]
    out += y_old
    return out.T


def dop853(
    rhs,
    rates: np.ndarray,
    y0: np.ndarray,
    t_end: float,
    t_eval: np.ndarray,
    rtol: float,
    atol: float,
    max_step: float = np.inf,
):
    """Integrate y' = f(t, y), y(0) = y0, up to t_end; returns (samples, nfev).

    ``rhs(v, v_conj, y, out)`` writes f(t, y) into ``out``, an array of
    y0's dtype (float or complex), given the phases v = exp((1j * t) *
    rates) and v_conj = conj(v) of its time t; ``rates`` is a float vector,
    empty for a system that does not depend on t.  ``y`` may be a buffer
    that is overwritten after it returns.  ``samples`` has shape
    (len(t_eval), len(y0)) and holds the solution at ``t_eval``, float
    times that must increase within [0, t_end]; ``rtol`` is at least
    MIN_RTOL.  Raises NumericalError when the step falls below 10 ulp of t.
    """
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    dtype = y.dtype
    # the phases of the sixteen stage times of the current attempt, row s at t + C[s] h
    v = np.empty((N_STAGES_EXTENDED, len(rates)), dtype=complex)
    v_conj = np.empty_like(v)

    def probe(t, y):
        """f(t, y) off the stage table: the evaluations before the first step."""
        _fill_phases(np.array([t]), rates, v[:1], v_conj[:1])
        out = np.empty_like(y)
        rhs(v[0], v_conj[0], y, out)
        return out

    f = probe(0.0, y)
    h_abs = _initial_step(probe, y, f, t_end, max_step, rtol, atol)
    nfev = 2

    k_ext = np.empty((N_STAGES_EXTENDED, len(y)), dtype=dtype)
    k = k_ext[: N_STAGES + 1]
    stages = _stage_views(k_ext, v, v_conj, range(1, N_STAGES))
    extra = _stage_views(k_ext, v, v_conj, range(N_STAGES + 1, N_STAGES_EXTENDED))
    k_all, k_main, k_last = k.T, k[:-1].T, k[-1]
    v_last, v_conj_last = v[N_STAGES], v_conj[N_STAGES]
    b, e5, e3 = (w.astype(dtype) for w in (B, E5, E3))
    stage_times = np.empty(N_STAGES_EXTENDED)
    ys = np.empty_like(y)
    hs = np.empty((), dtype=dtype)
    err = np.empty_like(y)
    parts = (err.real, err.imag) if dtype.kind == "c" else (err,)
    scale = np.empty(len(y))
    abs_y = np.abs(y)

    t = 0.0
    bounds = t_eval.tolist()
    emitted = 0
    # filled column-wise and returned transposed: the layout solve_ivp returns
    samples = np.empty((len(y), len(bounds)), dtype=dtype)
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        k[0] = f
        while True:
            if h_abs < min_step:
                raise NumericalError(
                    f"integration failed at t = {t}: required step size is "
                    "less than spacing between numbers"
                )
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h_abs = h = t_new - t
            hs[()] = h
            np.add(t, np.multiply(C, h, out=stage_times), out=stage_times)
            _fill_phases(stage_times, rates, v, v_conj)

            _run_stages(rhs, stages, hs, y, ys)
            y_new = k_main.dot(b)
            np.add(y, np.multiply(hs, y_new, out=y_new), out=y_new)
            rhs(v_last, v_conj_last, y_new, k_last)
            nfev += N_STAGES

            abs_new = np.abs(y_new)
            np.maximum(abs_y, abs_new, out=scale)
            np.add(atol, np.multiply(scale, rtol, out=scale), out=scale)
            error_norm = _error_norm(k_all, e5, e3, scale, h, err, parts)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        # f lives in k's last row until the next step copies it to row 0
        t, y, f, abs_y = t_new, y_new, k_last, abs_new
        stop = bisect.bisect_right(bounds, t, emitted)
        if stop > emitted:
            _run_stages(rhs, extra, hs, y_old, ys)
            samples[:, emitted:stop] = _interpolate(
                k_ext, t_old, h, y_old, y, f, t_eval[emitted:stop]
            )
            nfev += N_STAGES_EXTENDED - N_STAGES - 1
            emitted = stop
    return samples.T, nfev
