"""Material-point stepping kernel.

Minimizes the material-point incremental objective by damped Newton on the
analytic 2x2 Hessian, with Armijo backtracking, in plain-float arithmetic. A
Hessian that is not positive definite (psi'' vanishes at rate 0 when
p_psi > 2) gets an escalating ridge ``H + lam*I`` until the Newton direction
descends; after 60 escalations the direction falls back to steepest descent.

Resolution rule (see :mod:`visco_pt.minimize`): near the minimizer the full
step's predicted decrease ``-g.d`` falls below the rounding of f, so f can
no longer rank the trial point and Armijo would accept null steps until
``max_iter``. When ``-g.d <= RESOLUTION * (1 + |f|)``
the full step is judged by the gradient instead: it is taken (as one
iteration) if the trial point is feasible and finite and its |grad|_inf is
strictly below the current one; otherwise the solver stops with status 2.
Every other step uses the Armijo search.

Status codes: 0 converged, 1 max_iter exceeded, 2 line search stalled,
3 infeasible start, 4 nonfinite objective.

Besides the minimizer, a solve returns the parts of the value at it: W_el,
W_vi and r * psi, evaluated in the order of operations of
:class:`~visco_pt.rheology.MaterialModel`. W_vi and r * psi then equal what
the model's densities give, bit for bit, and so does W_el when a4 = 0 (the
model takes s**4 on a NumPy array, which Python's power does not reproduce).
"""

from __future__ import annotations

import math

from .minimize import RESOLUTION

_INF = float("inf")
_MIN_STEP = 1e-18


def _psi(d_v, p_psi, x):
    if p_psi == 2.0:
        return 0.5 * d_v * x * x
    return 0.5 * d_v * abs(x) ** p_psi


def _dpsi(d_v, p_psi, x):
    if p_psi == 2.0:
        return d_v * x
    m = 0.5 * d_v * p_psi * abs(x) ** (p_psi - 1.0)
    return m if x >= 0.0 else -m


def _ddpsi(d_v, p_psi, x):
    if p_psi == 2.0:
        return d_v
    return 0.5 * d_v * p_psi * (p_psi - 1.0) * abs(x) ** (p_psi - 2.0)


def _value(c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv):
    if Fv <= 0.0:
        return False, 0.0
    svi = Fv - 1.0
    if svi > k_radius or svi < -k_radius:
        return False, 0.0
    s = F / Fv - 1.0
    s2 = s * s
    w = 0.5 * c_e * s2 + 0.25 * a4 * s2 * s2
    wv = 0.5 * c_v * svi * svi
    rate = (Fv - anchor) / (r * anchor)
    dis = r * _psi(d_v, p_psi, rate)
    return True, w + wv + dis - load * F


def _value_grad(c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv):
    ok, f = _value(c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv)
    if not ok:
        return False, 0.0, 0.0, 0.0
    s = F / Fv - 1.0
    s2 = s * s
    dw = c_e * s + a4 * s * s2
    svi = Fv - 1.0
    rate = (Fv - anchor) / (r * anchor)
    gF = dw / Fv - load
    gFv = -dw * F / (Fv * Fv) + c_v * svi + _dpsi(d_v, p_psi, rate) / anchor
    return True, f, gF, gFv


def _hessian(c_e, a4, c_v, d_v, p_psi, anchor, r, F, Fv):
    s = F / Fv - 1.0
    s2 = s * s
    dw = c_e * s + a4 * s * s2
    ddw = c_e + 3.0 * a4 * s2
    rate = (Fv - anchor) / (r * anchor)
    Fv2 = Fv * Fv
    Fv3 = Fv2 * Fv
    hFF = ddw / Fv2
    hFFv = -ddw * F / Fv3 - dw / Fv2
    hFvFv = (
        ddw * F * F / (Fv2 * Fv2)
        + 2.0 * dw * F / Fv3
        + c_v
        + _ddpsi(d_v, p_psi, rate) / (r * anchor * anchor)
    )
    return hFF, hFFv, hFvFv


def _newton_direction(hFF, hFFv, hFvFv, gF, gFv):
    """Descent direction ``(dF, dFv, slope)`` from the ridge-shifted solve."""
    lam_unit = 1e-10 * max(abs(hFF), abs(hFFv), abs(hFvFv), 1.0)
    lam = 0.0
    for _ in range(60):
        a = hFF + lam
        c = hFvFv + lam
        det = a * c - hFFv * hFFv
        if a > 0.0 and det > 0.0:
            dF = (hFFv * gFv - c * gF) / det
            dFv = (hFFv * gF - a * gFv) / det
            slope = gF * dF + gFv * dFv
            if slope < 0.0 and math.isfinite(dF) and math.isfinite(dFv):
                return dF, dFv, slope
        lam = lam_unit if lam == 0.0 else 10.0 * lam
    return -gF, -gFv, -(gF * gF + gFv * gFv)


def _parts(c_e, a4, c_v, d_v, p_psi, anchor, r, F, Fv):
    """(W_el, W_vi, r * psi) at (F, Fv), multiplied out as MaterialModel does
    for the quadratic terms."""
    s = F / Fv - 1.0
    s2 = s * s
    svi = Fv - 1.0
    rate = (Fv - anchor) / (r * anchor)
    return (
        0.5 * c_e * s * s + 0.25 * a4 * s2 * s2,
        0.5 * c_v * svi * svi,
        r * _psi(d_v, p_psi, rate),
    )


def mp_minimize(
    c_e,
    a4,
    c_v,
    d_v,
    p_psi,
    k_radius,
    load,
    F,
    Fv,
    anchor,
    r,
    grad_tol,
    max_iter,
    armijo_c,
    backtrack,
):
    """Minimize the material-point incremental objective from (F, Fv).

    Converges when ``|grad|_inf <= grad_tol``; steps whose predicted decrease
    is below the rounding of f follow the resolution rule of the module
    docstring. Returns ``(F, Fv, value, grad_inf, iterations, status, w_el,
    w_vi, dis)``, the last three the parts of ``value`` at (F, Fv) (zeros
    for statuses 3 and 4).
    """
    ok, f, gF, gFv = _value_grad(
        c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv
    )
    if not ok:
        return F, Fv, 0.0, 0.0, 0, 3, 0.0, 0.0, 0.0
    if f != f or f == _INF or f == -_INF:
        return F, Fv, f, 0.0, 0, 4, 0.0, 0.0, 0.0

    iterations = 0
    while True:
        aF = gF if gF >= 0.0 else -gF
        aFv = gFv if gFv >= 0.0 else -gFv
        grad_inf = aF if aF >= aFv else aFv
        if grad_inf <= grad_tol:
            status = 0
            break
        if iterations >= max_iter:
            status = 1
            break

        hFF, hFFv, hFvFv = _hessian(c_e, a4, c_v, d_v, p_psi, anchor, r, F, Fv)
        dF, dFv, slope = _newton_direction(hFF, hFFv, hFvFv, gF, gFv)
        if -slope <= RESOLUTION * (1.0 + abs(f)):
            tF = F + dF
            tFv = Fv + dFv
            ok, ft, tgF, tgFv = _value_grad(
                c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, tF, tFv
            )
            if not (ok and math.isfinite(ft) and math.isfinite(tgF)
                    and math.isfinite(tgFv)) or max(abs(tgF), abs(tgFv)) >= grad_inf:
                status = 2
                break
            F, Fv, f, gF, gFv = tF, tFv, ft, tgF, tgFv
            iterations += 1
            continue
        alpha = 1.0
        while True:
            tF = F + alpha * dF
            tFv = Fv + alpha * dFv
            ok, ft = _value(
                c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, tF, tFv
            )
            if not ok or ft != ft:
                ft = _INF
            if ft <= f + armijo_c * alpha * slope:
                break
            alpha *= backtrack
            if alpha < _MIN_STEP:
                break
        if alpha < _MIN_STEP:
            status = 2
            break
        F = tF
        Fv = tFv
        ok, f, gF, gFv = _value_grad(
            c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv
        )
        if not ok:
            return F, Fv, 0.0, 0.0, iterations, 3, 0.0, 0.0, 0.0
        if f != f or f == _INF or f == -_INF:
            return F, Fv, f, 0.0, iterations, 4, 0.0, 0.0, 0.0
        iterations += 1
    return (F, Fv, f, grad_inf, iterations, status) + _parts(
        c_e, a4, c_v, d_v, p_psi, anchor, r, F, Fv
    )


def mp_objective(c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv):
    """Objective value at (F, Fv); raises nothing, returns (feasible, value)."""
    return _value(c_e, a4, c_v, d_v, p_psi, k_radius, load, anchor, r, F, Fv)
