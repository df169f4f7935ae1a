"""Plain-float stepping kernels: the material-point march and the shear
column's.

Each kernel marches a whole trajectory in Python floats, with no NumPy call
per step; NumPy's per-call cost would outweigh the arithmetic of one step.

The material point
------------------

The incremental objective at a material point, with anchor a (the previous
F_vi) and substep r,

    E(F, x) = w_el(F/x - 1) + w_vi(x - 1) + r * psi((x - a)/(r a)) - load * F,

is minimized over F in closed form: at x = F_vi the elastic strain s = F/x - 1
solves w_el'(s) = load * x (as in ``equilibrate_elastic``), and F = (1 + s) x.
What is left is one scalar equation in x, for the objective g reduced over F:

    g'(x)  = c_v (x - 1) + psi'((x - a)/(r a)) / a - load (1 + s) = 0,
    g''(x) = c_v - load^2 / w_el''(s) + psi''((x - a)/(r a)) / (r a^2).

With a4 = 0 and p_psi = 2, g' is affine and its root is a closed form (0
iterations). Otherwise scalar Newton solves it, inside the bracket of the
iterates between which g' changes sign (a step that leaves the bracket, or
lands back on the iterate before the current one, bisects it: a return
cycle stays inside the bracket) and inside the admissible interval
[max(0, 1 - k_radius), 1 + k_radius]. It stops by the rule of both
geometries (see below). Its iterates stay in the admissible interval: a
step that would leave it, or one wanted where g'' <= 0, goes to its end.

With p_psi = 2 Newton starts from x = a. With p_psi > 2, psi'' vanishes
there and a Newton step from x = a overshoots, so unless x = a already
meets grad_tol, Newton starts from the root's r -> 0 limit
x0 = a + r a rate0, clipped to the admissible interval. Here
psi'(rate0) = a [load (1 + s(a)) - c_v (a - 1)] = -a g'(a), solved in
closed form; a start that is not finite falls back to x = a.

The root is the step's minimizer only if g'' > 0 there and it is admissible,
0 < x and |x - 1| <= k_radius. Otherwise the step has no minimizer in the
admissible set (when load^2 >= c_e c_v the objective can fall without bound
as x grows), and the solve stops at once: Newton stops at the first iterate
where g' shows the root beyond the admissible interval.

Status codes: 0 converged, 1 max_iter exceeded, 3 no admissible minimizer,
4 not finite (g' is NaN, or a rate overflows the float power of psi).

Both kernels' Newton solves stop by one rule, a constant of the method: the
residual (in the shear column, h times each element residual) is at most
``grad_tol``, or the Newton step is at most ``RESOLUTION * max(1, |x|)`` for
the iterate x, below which floating point cannot resolve x; a solve that
takes ``max_iter`` iterations without either stops with status 1. The
kernels take ``grad_tol`` and ``max_iter`` as arguments, and the stepper
passes ``GRAD_TOL`` and ``MAX_ITER``.

A solve returns its minimizer and how it ended, never a value there: the
caller prices the states it solved with the model's densities, so a step
whose price is not finite is the caller's to fail.

A material-point trajectory is one :func:`mp_march` call: its steps solve
one after another in plain floats, each anchored at the F_vi of the one
before, with no Python call per step but the elastic inversion of a Newton
iterate (:func:`_strain`), and that only when the target load * x differs
from the last one inverted (a zero target is always inverted, whatever its
sign). Under a constant load the first iterate of a step, at its anchor,
repeats the last target of the step before. The single solve of
``phi_tau`` is its one-load case.

The shear column
----------------

Under dead loads a shear step splits into one scalar equation per element
for its viscous slope b, c_v b + psi'((b - b_old)/r) = sigma_e, and a whole
trajectory is one :func:`column_march` call (``phi_tau``'s solve a one-row
march). With p_psi = 2 it is linear in the slopes, b_i = b_{i-1} +
(sigma_i - c b_{i-1}) / (c + d / r) with (c, d) = (c_v, d_v), which
linearized runs march too, as the quadratic model's column. The march runs
one element after another: up to about 30 elements it is faster than a
NumPy row per step.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Changes at or below this multiple of the magnitude are rounding.
RESOLUTION = 16.0 * sys.float_info.epsilon
# The stopping rule of every Newton solve.
GRAD_TOL = 1e-10
MAX_ITER = 10000

_INF = float("inf")


def _strain(c_e, a4, target):
    """Root s of c_e s + a4 s^3 = target, the one inversion of w_el' (the
    shear column and ``equilibrate_elastic`` use it too). Both target / c_e
    and the cube root of target / a4 lie beyond the root, and Newton from
    the smaller of them in magnitude (the first while |target| <=
    sqrt(c_e^3 / a4); the second keeps s^3 finite) moves |s| monotonically
    down to the root; it stops when |s| no longer falls."""
    s = target / c_e
    if a4 == 0.0:
        return s
    if a4 * s * s > c_e:
        s = float(np.cbrt(target) / np.cbrt(a4))
    while True:
        s_new = s - (c_e * s + a4 * s * s * s - target) / (c_e + 3.0 * a4 * s * s)
        if not abs(s_new) < abs(s):
            return s
        s = s_new


def mp_march(
    c_e, a4, c_v, d_v, p_psi, k_radius, loads, anchor, r, grad_tol, max_iter, out
):
    """Minimize the material-point incremental objective over substep ``r``
    under each load of ``loads`` in turn, the first anchored at ``anchor``
    (the previous F_vi, > 0) and each later one at the F_vi of the one
    before.

    Appends each step's tuple ``(F, Fv, curvature, grad_inf, iterations,
    status)`` to ``out``, which the caller owns: the last iterate, g'' and
    |g'| there (the gradient in F vanishes by construction), the Newton
    iterations (the move to the start at the r -> 0 rate is not one) and
    the status code. For status 3, Fv is the root, or the iterate beyond
    which it lies. A rate that overflows the float power of psi stops its
    step with status 4 at that iterate Fv, the other floats NaN. The march
    stops after the first step with a nonzero status, so an error raised in
    a step leaves the tuples of the steps before it there.
    """
    closed = a4 == 0.0 and p_psi == 2.0
    quadratic = p_psi == 2.0
    low, high = max(0.0, 1.0 - k_radius), 1.0 + k_radius
    # psi'(y) = dpsi |y|^(p_psi - 1) sign(y), psi''(y) = ddpsi |y|^(p_psi - 2)
    dpsi = 0.5 * d_v * p_psi
    ddpsi = dpsi * (p_psi - 1.0)
    exponent = 1.0 / (p_psi - 1.0)
    target = math.nan  # the last elastic target inverted, to strain s
    try:
        for load in loads:
            ra = r * anchor
            iterations, status = 0, 0
            if closed:
                viscous = d_v / (ra * anchor)
                x = anchor + (load * (1.0 + load * anchor / c_e) - c_v * (anchor - 1.0)) / (
                    c_v - load * load / c_e + viscous
                )
                s = load * x / c_e
                rate = (x - anchor) / ra
                g1 = c_v * (x - 1.0) + d_v * rate / anchor - load * (1.0 + s)
                # w_el''(s) as written, not c_e: an overflowing s makes it 0 * inf =
                # NaN, and then the step has no minimizer (status 3)
                g2 = c_v - load * load / (c_e + 3.0 * a4 * s * s) + viscous
            else:
                # Newton inside the bracket [lo, hi] of the iterates between
                # which g' changes sign and inside the admissible interval
                # [low, high], from the anchor (p_psi = 2) or next to the root
                lo, hi = -_INF, _INF
                x, before = anchor, math.nan  # before: the iterate before x
                resolved, started = False, quadratic
                while True:
                    if load * x != target or target == 0.0:  # a zero may be signed
                        target = load * x
                        s = _strain(c_e, a4, target)
                    rate = (x - anchor) / ra
                    if quadratic:
                        d1, d2 = d_v * rate, d_v
                    else:
                        m = dpsi * abs(rate) ** (p_psi - 1.0)
                        d1 = m if rate >= 0.0 else -m
                        d2 = ddpsi * abs(rate) ** (p_psi - 2.0)
                    g1 = c_v * (x - 1.0) + d1 / anchor - load * (1.0 + s)
                    g2 = c_v - load * load / (c_e + 3.0 * a4 * s * s) + d2 / (ra * anchor)
                    if not started and abs(g1) > grad_tol:
                        # psi'' vanishes at the anchor: start from the r -> 0
                        # rate instead, psi'(rate0) = -anchor g'(anchor), where
                        # that start is finite
                        started = True
                        rate0 = (abs(anchor * g1) / dpsi) ** exponent
                        start = anchor + ra * (rate0 if g1 < 0.0 else -rate0)
                        if math.isfinite(start):
                            x = min(max(start, low), high)
                            continue
                    if g1 != g1:
                        status = 4
                        break
                    if abs(g1) <= grad_tol:
                        break
                    if g1 > 0.0:
                        hi = x
                    else:
                        lo = x
                    if lo >= high or hi <= low:
                        status = 3
                        break
                    if resolved:
                        break
                    if iterations >= max_iter:
                        status = 1
                        break
                    if g2 > 0.0:
                        x_new = min(max(x - g1 / g2, low), high)
                    else:
                        x_new = high if g1 < 0.0 else low
                    if not lo <= x_new <= hi or x_new == before:  # or a return cycle
                        x_new = 0.5 * (lo + hi)
                    resolved = abs(x_new - x) <= RESOLUTION * max(1.0, abs(x))
                    before, x = x, x_new
                    iterations += 1
            F = (1.0 + s) * x
            if status == 0 and not (g2 > 0.0 and x > 0.0 and abs(x - 1.0) <= k_radius):
                status = 3
            out.append((F, x, g2, abs(g1), iterations, status))
            if status:
                return
            anchor = x
    except OverflowError:  # a rate beyond float range: |rate| ** p overflows
        out.append((math.nan, x, math.nan, math.nan, iterations, 4))


def column_march(c_v, d_v, p_psi, sigma, r, h, grad_tol, max_iter, slopes, out):
    """Solve c_v b + psi'((b - b_old)/r) = sigma_e for the slope b of each
    element under each row of ``sigma`` (shape (n, E)) in turn, from the row
    ``slopes[0]``; write step i's slopes to ``slopes[i]`` and append its
    ``(iterations, grad_inf, status)`` to ``out`` (both the caller's): the
    most Newton iterations and the largest final h * |residual| of its
    elements, and 0. The march stops after the earliest step at which an
    element stops at ``max_iter`` (status 1) or its rate overflows the float
    power of psi (4, residual inf): its tuple holds ``max_iter``, the worst
    h * |residual| of the elements failing there and the status.

    With p_psi = 2 a step is the closed form b + (s - c_v b) / (c_v + d_v / r),
    evaluated in that order, each operation rounded once. Otherwise Newton,
    bisecting the bracket between b_old and sigma_e / c_v where a step leaves
    it or lands back on the iterate before the current one, until
    h * |residual| <= grad_tol or the step is at most
    ``RESOLUTION * max(1, |b|)``. psi'' vanishes at b_old, so unless b_old
    already meets grad_tol, Newton starts from the root's r -> 0 limit
    b0 = b_old + r rate0, clipped to the bracket, where psi'(rate0) =
    sigma_e - c_v b_old is solved in closed form (from b_old if b0 is not
    finite).
    """
    n, n_elements = sigma.shape
    c_v, d_v, r, h = float(c_v), float(d_v), float(r), float(h)
    if p_psi == 2.0:
        denominator = c_v + d_v / r
        for e, b in enumerate(slopes[0].tolist()):
            march = [b]
            append = march.append
            for s in sigma[:, e].tolist():
                b = b + (s - c_v * b) / denominator
                append(b)
            slopes[:, e] = march
        out.extend([(0, 0.0, 0)] * n)
        return
    # psi'(y) = dpsi |y|^(p_psi - 1) sign(y), psi''(y) = ddpsi |y|^(p_psi - 2)
    dpsi = 0.5 * d_v * p_psi
    ddpsi = dpsi * (p_psi - 1.0)
    exponent = 1.0 / (p_psi - 1.0)
    solves = np.zeros((n, n_elements, 2))  # (iterations, h * |residual|)
    failed, worst = n, 0.0  # the earliest failing step (n: none) and its residual
    for e, b_old in enumerate(slopes[0].tolist()):
        march, steps = [b_old], []
        # up to the earliest failing step, which this element may share
        for i, s in enumerate(sigma[: failed + 1, e].tolist()):
            lo, hi = sorted((b_old, s / c_v))
            b, before, count, resolved = b_old, math.nan, 0, False
            push = s - c_v * b_old
            if h * abs(push) > grad_tol:
                # psi'' vanishes at b_old: start from the r -> 0 rate instead,
                # psi'(rate0) = sigma_e - c_v b_old, where that start is finite
                rate0 = (abs(push) / dpsi) ** exponent
                start = b_old + r * (rate0 if push >= 0.0 else -rate0)
                if math.isfinite(start):
                    b = min(max(start, lo), hi)
            try:
                while True:
                    rate = (b - b_old) / r
                    m = dpsi * abs(rate) ** (p_psi - 1.0)
                    residual = c_v * b + (m if rate >= 0.0 else -m) - s
                    scaled = h * abs(residual)
                    if resolved or not scaled > grad_tol or count >= max_iter:
                        break
                    if residual > 0.0:
                        hi = b
                    elif residual < 0.0:
                        lo = b
                    x = b - residual / (c_v + ddpsi * abs(rate) ** (p_psi - 2.0) / r)
                    if x < lo or x > hi or x == before:  # or a return cycle
                        x = 0.5 * (lo + hi)
                    resolved = abs(x - b) <= RESOLUTION * max(1.0, abs(b))
                    before, b = b, x
                    count += 1
            except OverflowError:  # a rate beyond float range: |rate| ** p overflows
                scaled, resolved = _INF, False
            if not resolved and scaled > grad_tol:  # stopped at max_iter, or overflowed
                worst = max(worst, scaled) if i == failed else scaled
                failed = i
                break
            march.append(b)
            steps.append((count, scaled))
            b_old = b
        slopes[: len(march), e] = march
        solves[: len(steps), e] = np.reshape(steps, (len(steps), 2))
    out.extend((int(its), res, 0) for its, res in solves[:failed].max(axis=1).tolist())
    if failed < n:  # an infinite residual is an overflowed rate
        out.append((max_iter, worst, 1 if worst < _INF else 4))
