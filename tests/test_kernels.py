"""Material-point stepping kernel: minimizers, the resolution rule, and
status codes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt import kernels

# (c_e, a4, c_v, d_v, p_psi, k_radius)
MODELS = (
    (1.0, 0.0, 1.0, 1.0, 2.0, 10.0),
    (1.3, 0.8, 0.7, 1.1, 2.0, 10.0),
    (1.0, 0.0, 1.0, 1.0, 3.0, 10.0),
    (2.0, 1.0, 0.5, 2.0, 2.5, 4.0),
)
SOLVER = (1e-10, 10000, 1e-4, 0.5)  # grad_tol, max_iter, armijo_c, backtrack


def run_kernel(params, load, F, Fv, r):
    """Call mp_minimize the way the stepper does: warm start at the previous
    state, which is also the dissipation anchor."""
    return kernels.mp_minimize(*params, load, F, Fv, Fv, r, *SOLVER)


def test_kernel_converges_to_stationary_point():
    F, Fv, value, grad_inf, iterations, status, *_ = run_kernel(
        MODELS[1], 0.1, 1.5, 1.5, 0.5
    )
    assert status == 0
    assert grad_inf <= 1e-10
    assert Fv > 0.0
    ok, check = kernels.mp_objective(*MODELS[1], 0.1, 1.5, 0.5, F, Fv)
    assert ok and check == pytest.approx(value, abs=1e-15)


def test_kernel_converges_from_indefinite_hessian():
    # p_psi = 3: psi'' vanishes at the warm start (rate 0), and with F far
    # from F_vi the 2x2 Hessian there is indefinite, so the first Newton
    # direction needs the ridge shift.
    c_e, a4, c_v, d_v, p_psi, _ = MODELS[2]
    hFF, hFFv, hFvFv = kernels._hessian(c_e, a4, c_v, d_v, p_psi, 0.7, 0.5, 1.8, 0.7)
    assert hFF * hFvFv - hFFv * hFFv < 0.0
    F, Fv, value, grad_inf, _, status, *_ = run_kernel(MODELS[2], 0.1, 1.8, 0.7, 0.5)
    assert status == 0
    assert grad_inf <= 1e-10
    _, start = kernels.mp_objective(*MODELS[2], 0.1, 0.7, 0.5, 1.8, 0.7)
    assert value < start


def test_kernel_zero_load_closed_form():
    # tau = 0.5, F_old = 1.5: both dofs land on (tau F^2 + F)/(tau F^2 + 1).
    expected = (0.5 * 2.25 + 1.5) / (0.5 * 2.25 + 1.0)
    F, Fv, _, _, _, status, *_ = run_kernel(MODELS[0], 0.0, 1.5, 1.5, 0.5)
    assert status == 0
    assert F == pytest.approx(expected, abs=1e-9)
    assert Fv == pytest.approx(expected, abs=1e-9)


def test_kernel_sub_rounding_newton_step_is_judged_by_the_gradient():
    # Step 5 of configs/mp_loaded.cfg (load 0.1 * 0.05, one ulp above 0.005):
    # after two Newton iterations the full step's predicted decrease is below
    # the rounding of f and its value comes out one ulp higher, so Armijo
    # alone backtracks to null steps until max_iter.
    anchor = 1.4584881295718732
    F, Fv, value, grad_inf, iterations, status, *_ = kernels.mp_minimize(
        *MODELS[0], 0.1 * 0.05, 1.4669968800682816, anchor, anchor, 0.01, *SOLVER
    )
    assert status == 0
    assert iterations <= 5
    assert grad_inf <= 1e-10
    _, start = kernels.mp_objective(
        *MODELS[0], 0.1 * 0.05, anchor, 0.01, 1.4669968800682816, anchor
    )
    assert value <= start


def test_kernel_stalls_when_the_gradient_cannot_fall():
    # grad_tol far below what the gradient can reach in floating point: once
    # the Newton step is sub-rounding and does not lower |grad|, the solver
    # must say so instead of running to max_iter.
    out = kernels.mp_minimize(
        *MODELS[1], 0.1, 1.5, 1.5, 1.5, 0.5, 1e-30, 10000, 1e-4, 0.5
    )
    assert out[5] == 2
    assert out[4] < 20
    assert out[3] <= 1e-10


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    c_e=st.floats(0.5, 2.5),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    c_v=st.floats(0.3, 1.5),
    d_v=st.floats(0.5, 2.5),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0)),
    k_radius=st.floats(1.0, 10.0),
    load=st.floats(-0.3, 0.3),
    F=st.floats(0.6, 1.8),
    Fv=st.floats(0.6, 1.8),
    r=st.floats(0.001, 1.0),
)
def test_kernel_converges_on_the_admissible_set(
    c_e, a4, c_v, d_v, p_psi, k_radius, load, F, Fv, r
):
    params = (c_e, a4, c_v, d_v, p_psi, k_radius)
    _, _, value, grad_inf, _, status, *_ = run_kernel(params, load, F, Fv, r)
    assert status == 0
    assert grad_inf <= 1e-10
    _, start = kernels.mp_objective(*params, load, Fv, r, F, Fv)
    assert value <= start


def test_kernel_status_infeasible_start():
    c_e, a4, c_v, d_v, p_psi, k_radius = MODELS[0]
    out = kernels.mp_minimize(
        c_e, a4, c_v, d_v, p_psi, k_radius, 0.0, 1.0, -1.0, -1.0, 0.5, *SOLVER
    )
    assert out[5] == 3  # nonpositive viscous stretch
    out = kernels.mp_minimize(
        c_e, a4, c_v, d_v, p_psi, 0.1, 0.0, 1.5, 1.5, 1.5, 0.5, *SOLVER
    )
    assert out[5] == 3  # viscous strain outside k_radius


def test_kernel_status_max_iter():
    # Quartic elasticity with p_psi = 2.5 under load: one Newton step cannot
    # land on the minimizer, so max_iter = 1 must stop the solver and say so.
    out = kernels.mp_minimize(
        *MODELS[3], 0.2, 1.5, 1.5, 1.5, 0.5, 1e-10, 1, 1e-4, 0.5
    )
    assert out[5] == 1
    assert out[4] == 1
    assert out[3] > 1e-10


def test_kernel_objective_feasibility_flag():
    ok, _ = kernels.mp_objective(*MODELS[0], 0.0, 1.5, 0.5, 1.0, -2.0)
    assert not ok
    ok, value = kernels.mp_objective(*MODELS[0], 0.0, 1.5, 0.5, 1.5, 1.5)
    assert ok
    assert value == pytest.approx(0.125, abs=1e-15)
