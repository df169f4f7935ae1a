"""Plain-float stepping kernels: the material-point minimizers, the
resolution rule, status codes and the march of a load sequence; and the
shear column's march of its viscous slopes."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt import MaterialModel, kernels
from visco_pt.kernels import RESOLUTION

# (c_e, a4, c_v, d_v, p_psi, k_radius)
MODELS = (
    (1.0, 0.0, 1.0, 1.0, 2.0, 10.0),
    (1.3, 0.8, 0.7, 1.1, 2.0, 10.0),
    (1.0, 0.0, 1.0, 1.0, 3.0, 10.0),
    (2.0, 1.0, 0.5, 2.0, 2.5, 4.0),
)
SOLVER = (kernels.GRAD_TOL, kernels.MAX_ITER)


def run_kernel(params, load, Fv, r, solver=SOLVER):
    """The tuple of a one-load mp_march, anchored at ``Fv`` the way the
    stepper anchors a step at the previous F_vi."""
    return march(params, (load,), Fv, r, solver)[0]


def objective(params, load, anchor, r, F, Fv):
    """The incremental objective at (F, Fv), from the MaterialModel densities."""
    model = MaterialModel(*params)
    rate = (Fv - anchor) / (r * anchor)
    return model.w_el(F / Fv - 1.0) + model.w_vi(Fv - 1.0) + r * model.psi(rate) - load * F


def stationarity(params, load, anchor, r, F, Fv):
    """The partial derivatives (dE/dF, dE/dFv) of the full two-variable
    objective at (F, Fv), and the size of gradient they can reach in floating
    point: ``grad_tol`` plus the gradient change of a step of RESOLUTION
    times the iterate, plus the rounding of the terms summed."""
    c_e, a4, c_v, d_v, p_psi, _ = params
    s = F / Fv - 1.0
    dw = c_e * s + a4 * s**3
    ddw = c_e + 3.0 * a4 * s**2
    rate = (Fv - anchor) / (r * anchor)
    dpsi = 0.5 * d_v * p_psi * abs(rate) ** (p_psi - 1.0) * math.copysign(1.0, rate)
    ddpsi = 0.5 * d_v * p_psi * (p_psi - 1.0) * abs(rate) ** (p_psi - 2.0)
    g_F = dw / Fv - load
    g_Fv = -dw * F / Fv**2 + c_v * (Fv - 1.0) + dpsi / anchor
    stretch = (1.0 + abs(F) / Fv) / Fv
    curvature = ddw * stretch**2 + c_v + ddpsi / (r * anchor**2)
    terms = abs(dw) * stretch + c_v * abs(Fv - 1.0) + abs(dpsi) / anchor + abs(load)
    size = max(1.0, abs(F), abs(Fv))
    tolerance = SOLVER[0] + RESOLUTION * (curvature * size + terms)
    return g_F, g_Fv, tolerance


def reduced_curvature(params, load, anchor, r, F, Fv):
    """g''(Fv) of the objective minimized over F."""
    c_e, a4, c_v, d_v, p_psi, _ = params
    s = F / Fv - 1.0
    rate = (Fv - anchor) / (r * anchor)
    ddpsi = 0.5 * d_v * p_psi * (p_psi - 1.0) * abs(rate) ** (p_psi - 2.0)
    return c_v - load**2 / (c_e + 3.0 * a4 * s**2) + ddpsi / (r * anchor**2)


def assert_converges(params, load, F_old, Fv_old, r):
    """The kernel, anchored at Fv_old, returns a stationary point of the full
    objective with positive reduced curvature (its own g'' too), below the
    value at the start (F_old, Fv_old)."""
    F, Fv, curvature, grad_inf, iterations, status = run_kernel(params, load, Fv_old, r)
    assert status == 0
    assert iterations <= 10
    assert grad_inf <= 1e-10
    g_F, g_Fv, tolerance = stationarity(params, load, Fv_old, r, F, Fv)
    assert max(abs(g_F), abs(g_Fv)) <= tolerance
    assert reduced_curvature(params, load, Fv_old, r, F, Fv) > 0.0
    assert curvature > 0.0
    value = objective(params, load, Fv_old, r, F, Fv)
    assert value < objective(params, load, Fv_old, r, F_old, Fv_old)


# Starts (F_old, F_vi_old) with their models, loads and substeps.
CONVERGENCE_CASES = (
    (MODELS[1], 0.1, 1.5, 1.5, 0.5),
    # load^2 = 2.9 c_e c_v: a Newton step leaves the bracket and must bisect
    # it, or it reaches F_vi = 0.
    ((0.03, 1.5, 0.015, 0.11, 2.8, 8.0), -0.036, 4.0, 4.0, 0.8),
    # g'' ~ 2e-16 at the anchor: the first Newton step, about 1e15 long,
    # must stop at the end of the admissible interval.
    ((1.0, 1e-12, 1.0, 1.0, 3.0, 10.0), 1.0 - 1e-16, 1.5, 1.5, 1.0),
)


def test_kernel_converges_to_stationary_point():
    for case in CONVERGENCE_CASES:
        assert_converges(*case)


def test_kernel_converges_from_indefinite_hessian():
    # p_psi = 3: psi'' vanishes at the anchor (rate 0), and with F = 1.8 far
    # from F_vi = 0.7 the 2x2 Hessian of the full objective there is
    # indefinite; the reduced scalar solve must still reach the minimizer.
    c_e, a4, c_v, _, _, _ = MODELS[2]
    F, Fv = 1.8, 0.7
    s = F / Fv - 1.0
    ddw = c_e + 3.0 * a4 * s**2
    dw = c_e * s + a4 * s**3
    h_FF = ddw / Fv**2
    h_FFv = -ddw * F / Fv**3 - dw / Fv**2
    h_FvFv = ddw * F**2 / Fv**4 + 2.0 * dw * F / Fv**3 + c_v  # psi'' = 0
    assert h_FF * h_FvFv - h_FFv**2 < 0.0
    assert_converges(MODELS[2], 0.1, F, Fv, 0.5)


def test_kernel_sub_rounding_newton_step_is_judged_by_the_gradient():
    # Step 5 of configs/mp_loaded.cfg (load 0.1 * 0.05, one ulp above 0.005),
    # whose full Newton step once fell below the rounding of the objective:
    # the solve is judged by the gradient, never by a change of value.
    assert_converges(MODELS[0], 0.1 * 0.05, 1.4669968800682816, 1.4584881295718732, 0.01)


def test_kernel_zero_load_closed_form():
    # tau = 0.5, F_old = 1.5: both dofs land on (tau F^2 + F)/(tau F^2 + 1).
    expected = (0.5 * 2.25 + 1.5) / (0.5 * 2.25 + 1.0)
    F, Fv, _, _, iterations, status, *_ = run_kernel(MODELS[0], 0.0, 1.5, 0.5)
    assert (status, iterations) == (0, 0)
    assert F == pytest.approx(expected, abs=1e-15)
    assert Fv == pytest.approx(expected, abs=1e-15)


def test_kernel_converges_at_the_resolution_when_the_gradient_cannot_fall():
    # grad_tol far below what the gradient can reach in floating point: the
    # solve converges by the step-resolution rule, as the shear column's
    # viscous solve does, one iteration after its Newton step falls below
    # the resolution of F_vi.
    out = run_kernel(MODELS[1], 0.1, 1.5, 0.5, (1e-30, 10000))
    assert out[5] == 0
    assert out[4] <= 4
    assert out[3] <= 1e-15
    assert out[:2] == run_kernel(MODELS[1], 0.1, 1.5, 0.5)[:2]


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    c_e=log_uniform(1e-3, 1e3),
    a4=st.just(0.0) | log_uniform(1e-3, 1e3),
    target=st.just(0.0) | log_uniform(1e-6, 1e6),
)
def test_strain_solves_the_stress_law(c_e, a4, target):
    # The one inversion of w_el'(s) = c_e s + a4 s^3 that the steps and
    # equilibrate_elastic share: odd in the target, and exact up to the
    # rounding of the terms of the residual.
    s = kernels._strain(c_e, a4, target)
    assert kernels._strain(c_e, a4, -target) == -s
    terms = abs(c_e * s) + abs(a4 * s**3) + abs(target)
    assert abs(c_e * s + a4 * s**3 - target) <= 4.0 * np.finfo(float).eps * terms


@pytest.mark.parametrize("target", [1e103, -1e103])
def test_strain_of_a_huge_target_is_its_cube_root(target):
    # From target / c_e, s^3 would overflow; Newton starts at the cube root
    # of target / a4 instead and still ends at the root.
    s = kernels._strain(1.0, 1.0, target)
    assert s == pytest.approx(math.copysign(2.1544346900318836e34, target), rel=1e-15)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    c_e=log_uniform(1e-3, 1e6),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    c_v=log_uniform(1e-3, 1e6),
    d_v=log_uniform(1e-3, 1e6),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0)),
    k_radius=st.floats(1.0, 10.0),
    ratio=st.floats(-1.5, 1.5),
    F=st.floats(0.6, 1.8),
    Fv=st.floats(0.6, 1.8),
    r=log_uniform(1e-8, 1.0),
)
def test_kernel_converges_on_the_admissible_set(
    c_e, a4, c_v, d_v, p_psi, k_radius, ratio, F, Fv, r
):
    # The load is drawn relative to sqrt(c_e c_v): below it the reduced
    # objective is strictly convex, so the kernel must return its minimizer
    # unless that leaves the admissible set; at or above it the kernel
    # returns a stationary point of positive curvature or says that there
    # is none. It never runs to max_iter.
    params = (c_e, a4, c_v, d_v, p_psi, k_radius)
    load = ratio * math.sqrt(c_e * c_v)
    F_new, Fv_new, _, _, _, status = run_kernel(params, load, Fv, r)
    assert status in (0, 3)
    if status == 3 and not (Fv_new > 0.0 and abs(Fv_new - 1.0) <= k_radius):
        return  # the root, or the iterate beyond which it lies, is inadmissible
    curvature = reduced_curvature(params, load, Fv, r, F_new, Fv_new)
    g_F, g_Fv, tolerance = stationarity(params, load, Fv, r, F_new, Fv_new)
    if status == 3:
        # a stationary point with g'' <= 0, or an end of the admissible
        # interval where g' points out of it
        beyond = (Fv_new == 1.0 + k_radius and g_Fv < 0.0) or (
            Fv_new == 1.0 - k_radius and g_Fv > 0.0
        )
        assert beyond or (curvature <= 0.0 and abs(ratio) >= 1.0)
        return
    assert curvature > 0.0
    assert max(abs(g_F), abs(g_Fv)) <= tolerance
    if abs(ratio) < 1.0:
        start = objective(params, load, Fv, r, F, Fv)
        value = objective(params, load, Fv, r, F_new, Fv_new)
        assert value <= start + RESOLUTION * (abs(value) + abs(start))


def test_kernel_names_a_stationary_point_of_negative_curvature():
    # load^2 > c_e c_v and little dissipation: the stationary point at
    # F_vi = 1 + 0.75 / -1.24 is admissible but maximizes the reduced
    # objective, so the closed form names its curvature, and Newton (a4 > 0)
    # follows the descent to the end of the admissible interval.
    params = (1.0, 0.0, 1.0, 0.01, 2.0, 10.0)
    F, Fv, value, grad_inf, _, status, *_ = run_kernel(params, -1.5, 1.0, 1.0)
    assert status == 3
    assert Fv == pytest.approx(1.0 + 0.75 / -1.24, rel=1e-12)
    assert value == pytest.approx(-1.24, rel=1e-12)
    assert grad_inf <= 1e-15
    params = (1.0, 1e-9, 1.0, 0.01, 2.0, 10.0)
    F, Fv, value, grad_inf, _, status, *_ = run_kernel(params, -1.5, 1.0, 1.0)
    assert (status, Fv) == (3, 11.0)


def test_kernel_status_infeasible_start():
    out = run_kernel(MODELS[0], 0.0, -1.0, 0.5)
    assert out[5] == 3  # nonpositive viscous stretch
    out = run_kernel(MODELS[0][:5] + (0.1,), 0.0, 1.5, 0.5)
    assert out[5] == 3  # viscous strain outside k_radius


def test_kernel_status_max_iter():
    # Quartic elasticity with p_psi = 2.5 under load: one Newton step cannot
    # land on the minimizer, so max_iter = 1 must stop the solver and say so.
    out = run_kernel(MODELS[3], 0.2, 1.5, 0.5, (1e-10, 1))
    assert out[5] == 1
    assert out[4] == 1
    assert out[3] > 1e-10


# -- the march -------------------------------------------------------------------


def march(params, loads, anchor, r, solver=SOLVER):
    """The tuples of one mp_march over ``loads``."""
    out = []
    kernels.mp_march(*params, loads, anchor, r, *solver, out)
    return out


def chain(params, loads, anchor, r, solver=SOLVER):
    """One-load mp_march calls over ``loads``, each anchored at the F_vi
    of the one before, up to and with the first nonzero status."""
    out = []
    for load in loads:
        out.append(run_kernel(params, load, anchor, r, solver))
        if out[-1][5]:
            break
        anchor = out[-1][1]
    return out


def bits(solves):
    """The tuples with each float as its bytes, so that == compares them bit
    for bit, a NaN included."""
    return [tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in t) for t in solves]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    c_e=log_uniform(1e-2, 1e2),
    a4=st.just(0.0) | st.floats(0.0, 2.0, exclude_min=True),
    c_v=log_uniform(1e-2, 1e2),
    d_v=log_uniform(1e-2, 1e2),
    p_psi=st.just(2.0) | st.floats(2.0, 4.0, exclude_min=True),
    k_radius=st.floats(0.2, 10.0),
    ratios=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=10),
    anchor=st.floats(0.6, 1.8),
    r=log_uniform(1e-4, 1.0),
    max_iter=st.sampled_from([1, 2, 3, 10000]),
)
def test_march_equals_the_chain_of_one_load_solves(
    c_e, a4, c_v, d_v, p_psi, k_radius, ratios, anchor, r, max_iter
):
    # The closed form (a4 = 0, p_psi = 2) and Newton, under loads relative
    # to sqrt(c_e c_v) and a max_iter that may run out: one march is the
    # chain, bit for bit, and stops where it stops.
    params = (c_e, a4, c_v, d_v, p_psi, k_radius)
    loads = [ratio * math.sqrt(c_e * c_v) for ratio in ratios]
    solver = (SOLVER[0], max_iter)
    assert bits(march(params, loads, anchor, r, solver)) == bits(
        chain(params, loads, anchor, r, solver)
    )


@pytest.mark.parametrize(
    "params, loads, anchor, r, max_iter, statuses",
    [
        # Newton runs out of iterations under the first load
        (MODELS[3], (0.0, 0.0, 0.2, 0.2), 1.0, 0.5, 1, [0, 0, 1]),
        # load^2 > c_e c_v: the closed form's root maximizes the reduced objective
        ((1.0, 0.0, 1.0, 0.01, 2.0, 10.0), (0.1, 0.2, -1.5, 0.1), 1.0, 1.0, 10000, [0, 0, 3]),
        # W_el overflows at the closed form's minimizer F_vi = 3, which the
        # march does not price; from that anchor c_v (F_vi - 1) overflows,
        # and the next step has no minimizer
        ((1.0, 0.0, 1.5e308, 1.0, 2.0, 10.0), (0.0, 1e154, 0.0), 1.0, 1.0, 10000, [0, 0, 3]),
        # the dissipation overflows at Newton's: no step stops the march
        ((1e72, 0.0, 1e168, 1e304, 3.0, 10.0), (0.0, 1e137, 0.0), 1.0, 1e-3, 10000, [0, 0, 0]),
        # the float power of psi overflows at Newton's first iterate: over r =
        # 1e-160 a move of F_vi by 0.1 is a rate whose square exceeds 1e308
        ((1.0, 0.0, 1.0, 1.0, 3.0, 10.0), (0.0, 0.3, 0.0), 1.0, 1e-160, 10000, [0, 4]),
    ],
)
def test_march_stops_after_the_first_nonzero_status(params, loads, anchor, r, max_iter, statuses):
    solver = (SOLVER[0], max_iter)
    out = march(params, loads, anchor, r, solver)
    assert [solved[5] for solved in out] == statuses
    assert bits(out) == bits(chain(params, loads, anchor, r, solver))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    c_e=log_uniform(1e-3, 1e3),
    c_v=log_uniform(1e-3, 1e3),
    d_v=log_uniform(1e-3, 1e3),
    k_radius=st.floats(0.2, 10.0),
    ratio=st.floats(-1.5, 1.5),
    anchor=st.floats(0.6, 1.8),
    r=log_uniform(1e-8, 1.0),
)
def test_closed_form_reports_the_reduced_derivatives_at_its_root(
    c_e, c_v, d_v, k_radius, ratio, anchor, r
):
    # a4 = 0 and p_psi = 2: the step's |g'| is g' at the returned F_vi, and
    # g'' there, written out as in the module docstring, is its value when
    # it names no minimizer and positive when it converged.
    a4 = 0.0
    params = (c_e, a4, c_v, d_v, 2.0, k_radius)
    load = ratio * math.sqrt(c_e * c_v)
    F, x, value, grad_inf, iterations, status, *_ = run_kernel(params, load, anchor, r)
    s = load * x / c_e
    rate = (x - anchor) / (r * anchor)
    g1 = c_v * (x - 1.0) + d_v * rate / anchor - load * (1.0 + s)
    g2 = c_v - load * load / (c_e + 3.0 * a4 * s * s) + d_v / (r * anchor * anchor)
    assert (iterations, F) == (0, (1.0 + s) * x)
    assert bits([(grad_inf,)]) == bits([(abs(g1),)])
    assert status in (0, 3)
    if status == 3:
        assert bits([(value,)]) == bits([(g2,)])
    else:
        assert g2 > 0.0


def test_closed_form_overflowing_strain_leaves_no_minimizer():
    # load / c_e = 1e308: at the root F_vi = 3 the strain load F_vi / c_e
    # overflows, and 3 a4 s^2 = 0 * inf makes g'' NaN, so the step has no
    # minimizer. Had g'' been formed with c_e alone, it would read 5e307 > 0
    # and the step would end as a nonfinite objective instead.
    c_e, c_v = 1e-308, 1.5e308
    F, x, value, _, _, status, *_ = run_kernel((c_e, 0.0, c_v, 1.0, 2.0, 10.0), 1.0, 1.0, 1.0)
    assert (x, status) == (3.0, 3)
    assert math.isnan(value)
    assert c_v - 1.0 / c_e + 1.0 > 0.0


class BrokenLoad(float):
    """A load whose product raises, as a solve may raise."""

    def __mul__(self, other):
        raise ValueError("broken load")

    __rmul__ = __mul__


@pytest.mark.parametrize("params", [MODELS[0], MODELS[3]])
def test_an_error_in_a_step_leaves_the_steps_before_it(params):
    # The caller owns the list: the closed form or Newton raising at step 3
    # leaves steps 1 and 2 there, for the caller to price.
    out = []
    with pytest.raises(ValueError, match="broken load"):
        kernels.mp_march(*params, (0.1, 0.2, BrokenLoad(0.3), 0.4), 1.5, 0.5, *SOLVER, out)
    assert bits(out) == bits(chain(params, (0.1, 0.2), 1.5, 0.5))


# -- the shear column's march ------------------------------------------------------


def column(c_v, d_v, p_psi, sigma, b0, r, h, solver=SOLVER):
    """One ``column_march`` from the start row ``b0``: the (n + 1, E) slopes
    and the step tuples."""
    slopes, out = np.empty((len(sigma) + 1, len(b0))), []
    slopes[0] = b0
    kernels.column_march(c_v, d_v, p_psi, sigma, r, h, *solver, slopes, out)
    return slopes, out


def column_chain(c_v, d_v, p_psi, sigma, b0, r, h, solver=SOLVER):
    """The same march as a chain of one-row marches, each from the slopes of
    the one before."""
    slopes, out = [b0], []
    for row in sigma:
        b, step = column(c_v, d_v, p_psi, row[None], slopes[-1], r, h, solver)
        slopes.append(b[1])
        out += step
    return np.array(slopes), out


def seeded_rows(seed, n_steps, n_elements, scale):
    """Resultant rows and a start row from a seed, which keeps a failing
    example quick to shrink."""
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=shape) * 10.0 ** rng.uniform(-scale, scale, shape)
        for shape in ((n_steps, n_elements), n_elements)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_steps=st.integers(0, 30),
    n_elements=st.integers(1, 20),
    c=log_uniform(1e-3, 1e3),
    d=log_uniform(1e-3, 1e3),
    tau=log_uniform(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_march_chains_the_one_step_closed_forms(n_steps, n_elements, c, d, tau, seed):
    # With p_psi = 2 one march equals, byte for byte, the one-step closed
    # forms chained row by row: the one-row marches of the shear column, and
    # the linearized step b + (sigma - c b) / denominator as a NumPy row.
    sigma, b0 = seeded_rows(seed, n_steps, n_elements, 3.0)
    denominator = c + d / tau
    marched, steps = column(c, d, 2.0, sigma, b0, tau, 1.0 / n_elements)
    assert marched.shape == (n_steps + 1, n_elements)
    assert steps == [(0, 0.0, 0)] * n_steps
    slopes, linear = [b0], [b0]
    for row in sigma:
        b, step = column(c, d, 2.0, row[None], slopes[-1], tau, 1.0 / n_elements)
        assert step == [(0, 0.0, 0)]
        slopes.append(b[1])
        linear.append(linear[-1] + (row - c * linear[-1]) / denominator)
    assert marched.tobytes() == np.array(slopes).tobytes() == np.array(linear).tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n_steps=st.integers(0, 8),
    n_elements=st.integers(1, 8),
    c=log_uniform(1e-2, 1e2),
    d=log_uniform(1e-2, 1e2),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 4.0, exclude_min=True)),
    tau=log_uniform(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_march_equals_the_chain_of_one_row_marches(
    n_steps, n_elements, c, d, p_psi, tau, seed
):
    # The elements of a step solve one by one, and a step's tuple reports
    # the most iterations and the largest final h * |residual| of any: one
    # march of all rows equals the chain of one-row marches byte for byte,
    # slopes and tuples alike, on the closed form as on Newton, and its
    # columns and tuples follow from the marches of each element alone. At
    # p_psi = 2 the march is also the linear recursion.
    sigma, b0 = seeded_rows(seed, n_steps, n_elements, 1.0)
    h = 1.0 / n_elements
    marched, steps = column(c, d, p_psi, sigma, b0, tau, h)
    chained, chain_steps = column_chain(c, d, p_psi, sigma, b0, tau, h)
    assert marched.tobytes() == chained.tobytes()
    assert bits(steps) == bits(chain_steps)
    assert [status for _, _, status in steps] == [0] * n_steps
    alone = [column(c, d, p_psi, sigma[:, [e]], b0[[e]], tau, h) for e in range(n_elements)]
    assert marched.tobytes() == np.hstack([b for b, _ in alone]).tobytes()
    for i, step in enumerate(steps):
        solves = [out[i] for _, out in alone]
        assert step == (max(s[0] for s in solves), max(s[1] for s in solves), 0)
    if p_psi == 2.0:
        linear = [b0]
        for row in sigma:
            linear.append(linear[-1] + (row - c * linear[-1]) / (c + d / tau))
        assert marched.tobytes() == np.array(linear).tobytes()
        assert steps == [(0, 0.0, 0)] * n_steps


@pytest.mark.parametrize(
    "sigma, statuses",
    [
        # element 1 moves at step 2, element 0 only at step 3
        ([[1.0, 1.0], [1.0, 2.0], [2.0, 2.0]], [0, 4]),
        # at step 2 element 0 stops at max_iter and element 1 overflows
        ([[1.0, 1.0], [1.0 + 1e-7, 2.0], [2.0, 2.0]], [0, 4]),
        # element 0 stops at max_iter at step 1, before element 1 overflows
        ([[1.0 + 1e-7, 1.0], [1.0 + 1e-7, 2.0], [2.0, 2.0]], [1]),
    ],
)
def test_column_rate_that_overflows_fails_its_step_as_not_finite(sigma, statuses):
    # p_psi = 3 over r = 1e-160, from slopes 1: the r -> 0 start moves a
    # slope by less than its last bit, so Newton starts at b_old, where
    # psi'' = 0. A slope that moves by 1 then has a rate whose square
    # overflows the float power of psi, while one that moves by 1e-7 stays
    # finite but cannot converge in one iteration. The march stops after the
    # earliest step at which any element fails, with status 4 and an
    # infinite residual if an element overflowed there.
    solver = (SOLVER[0], 1)
    _, out = column(1.0, 1.0, 3.0, np.array(sigma), np.ones(2), 1e-160, 0.5, solver)
    assert [status for _, _, status in out] == statuses
    assert math.isinf(out[-1][1]) == (statuses[-1] == 4)


def test_start_beyond_float_range_falls_back_to_the_anchor():
    # p_psi = 3 with d_v = 1e-310: the r -> 0 rate (drive / (1.5 d_v))^(1/2)
    # of a drive of 0.3 overflows, so Newton starts at the anchor, where
    # psi'' = 0, and its first step solves what is left, a viscosity of
    # rounding size: g' affine at a material point with a4 = 0, the slope
    # sigma_e / c_v in the column.
    F, Fv, _, grad_inf, iterations, status, *_ = run_kernel(
        (1.0, 0.0, 1.0, 1e-310, 3.0, 10.0), 0.3, 1.0, 0.5
    )
    assert (iterations, status) == (1, 0)
    assert grad_inf <= SOLVER[0]
    assert Fv == 1.0 / 0.7 and F == (1.0 + 0.3 * Fv) * Fv
    slopes, out = column(1.0, 1e-310, 3.0, np.array([[0.3]]), np.zeros(1), 0.5, 0.5)
    assert slopes[1, 0] == 0.3 and out == [(1, 0.0, 0)]
