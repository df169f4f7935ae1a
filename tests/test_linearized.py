"""Linearized solver: exact implicit-Euler steps, discrete Euler-Lagrange
residuals, the factor-two energy-dissipation balance, and the rescaling
bridge between finite-strain trajectories and lin-layout displacements.

Closed forms used as oracles (material point, load value ell frozen at the
step time): eliminating u gives the scalar substep minimizer
    v(r) = (r ell + d v_prev) / (c_vi r + d),
so the substep rate dissipation is
    Psi_r = d (ell - c_vi v_prev)^2 / (2 (c_vi r + d)^2)
and its integral over r in [0, tau] is exactly
    (ell - c_vi v_prev)^2 tau / (2 (c_vi tau + d)).
"""

import math

import numpy as np
import pytest

from visco_pt import (
    Loading,
    MaterialModel,
    ShearColumnMesh,
    TimeGrid,
    ValidationError,
    lin_el_residual,
    lin_equilibrium,
    lin_step,
    mp_lin_closed_form,
    rescale_displacements,
    rescaled_energies,
    run_evolution,
    run_lin_evolution,
)
from visco_pt.domain import State
from visco_pt.linearized import (
    LinState,
    lin_dissipation_increment,
    lin_energy,
    lin_pairing_delta,
    lin_semistability_residual,
)
from visco_pt.stepper import de_giorgi_rule

UNIT_QUAD = MaterialModel().quadratic_limit()
ZERO = Loading()


def shear_state(n=8, u_slope=0.5, v_slope=0.4):
    mesh = ShearColumnMesh(n)
    return LinState.shear_column(mesh, np.full(n, u_slope), np.full(n, v_slope))


# -- single steps ---------------------------------------------------------------


def test_lin_step_mp_spot_value():
    # zero load, unit coefficients: v_1 = v_0 / (1 + tau) = 5/11.
    state = lin_step(0.1, LinState.material_point(0.5, 0.5), 0.1, UNIT_QUAD, ZERO)
    assert float(state.v[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)
    assert float(state.u[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)


def test_lin_step_validates_tau():
    prev = LinState.material_point(0.5, 0.5)
    with pytest.raises(ValidationError):
        lin_step(0.1, prev, 0.0, UNIT_QUAD, ZERO)
    with pytest.raises(ValidationError):
        lin_step(0.1, prev, float("nan"), UNIT_QUAD, ZERO)


def test_lin_step_tracks_exponential_decay():
    t_final = math.log(2.0)
    grid = TimeGrid(t_final=t_final, n_steps=700)
    traj = run_lin_evolution(
        UNIT_QUAD, LinState.material_point(0.5, 0.5), ZERO, grid
    )
    errs = [
        abs(
            float(traj.states[i].v[0])
            - mp_lin_closed_form(0.5, UNIT_QUAD, float(grid.times[i]))[0]
        )
        for i in range(grid.n_steps + 1)
    ]
    # implicit Euler is first order; tau ~ 1e-3 gives ~1e-4 here
    assert max(errs) < 2e-3
    # closed form halves the amplitude at t = ln 2
    assert float(traj.states[-1].v[0]) == pytest.approx(0.25, abs=1e-3)


def test_mp_lin_closed_form_returns_matched_pair():
    quad = MaterialModel(c_v=2.0, d_v=0.5).quadratic_limit()
    v, u = mp_lin_closed_form(0.5, quad, 0.25)
    assert v == u
    assert v == pytest.approx(0.5 * math.exp(-(2.0 / 0.5) * 0.25), abs=1e-15)


def test_lin_step_el_residual_mp():
    prev = LinState.material_point(0.6, 0.5)
    load = Loading((0.1,), (0.05,))
    state = lin_step(0.3, prev, 0.1, UNIT_QUAD, load)
    assert lin_el_residual(UNIT_QUAD, state, prev, 0.1, load, 0.3) <= 1e-10
    assert lin_semistability_residual(UNIT_QUAD, state, load, 0.3) <= 1e-10


def test_lin_step_el_residual_shear():
    prev = shear_state()
    load = Loading((0.0, 0.2), (0.1,))
    quad = MaterialModel(c_e=1.3, c_v=0.8, d_v=1.1).quadratic_limit()
    state = lin_step(0.5, prev, 0.05, quad, load)
    assert lin_el_residual(quad, state, prev, 0.05, load, 0.5) <= 1e-10
    assert lin_semistability_residual(quad, state, load, 0.5) <= 1e-10


# -- equilibrium initial data ---------------------------------------------------


def test_lin_equilibrium_mp():
    load = Loading((0.2,))
    state = lin_equilibrium(UNIT_QUAD, LinState.material_point(0.0, 0.5), load, 0.0)
    assert float(state.v[0]) == 0.5
    assert float(state.u[0]) == pytest.approx(0.7, abs=1e-14)
    assert lin_semistability_residual(UNIT_QUAD, state, load, 0.0) <= 1e-12


def test_lin_equilibrium_shear():
    load = Loading((0.2,), (0.1,))
    state = lin_equilibrium(UNIT_QUAD, shear_state(), load, 0.0)
    assert lin_semistability_residual(UNIT_QUAD, state, load, 0.0) <= 1e-12


# -- factor-two energy-dissipation balance ---------------------------------------


def mp_balance_residuals(quad, u0, v0, loading, grid):
    """Cumulative balance with the exact substep dissipation integral."""
    traj = run_lin_evolution(quad, LinState.material_point(u0, v0), loading, grid)
    e0 = lin_energy(quad, traj.states[0], loading, 0.0)
    tau = grid.tau
    work = diss = improved = 0.0
    out = []
    for n in range(1, grid.n_steps + 1):
        t_n, t_prev = float(grid.times[n]), float(grid.times[n - 1])
        prev = traj.states[n - 1]
        work += lin_pairing_delta(prev, loading, t_n, t_prev)
        diss += float(traj.diss_increments[n - 1])
        ell = loading.f(t_n) + loading.g(t_n)
        gap = ell - quad.c_vi * float(prev.v[0])
        improved += 0.5 * gap * gap * tau / (quad.c_vi * tau + quad.d_diss)
        lhs = lin_energy(quad, traj.states[n], loading, t_n) + diss + improved
        out.append((e0 - work) - lhs)
    return np.array(out)


def test_factor_two_balance_mp_identity():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    for loading, u0 in ((ZERO, 0.5), (Loading((0.1,)), 0.6)):
        res = mp_balance_residuals(UNIT_QUAD, u0, 0.5, loading, grid)
        assert np.all(res >= -1e-9)
        # autonomous loading makes the doubled balance an exact identity
        assert np.max(np.abs(res)) < 1e-12


def test_factor_two_balance_mp_ramp_load():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    res = mp_balance_residuals(UNIT_QUAD, 0.5, 0.5, Loading((0.0, 0.2)), grid)
    assert np.all(res >= -1e-9)
    # explicit load increments leave positive slack
    assert np.all(res > 0.0)


def test_factor_two_balance_shear():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    loading = Loading((0.0, 0.2), (0.1,))
    traj = run_lin_evolution(UNIT_QUAD, shear_state(), loading, grid)
    e0 = lin_energy(UNIT_QUAD, traj.states[0], loading, 0.0)
    work = diss = improved = 0.0
    nodes, weights = de_giorgi_rule(grid.tau, 4)
    for n in range(1, grid.n_steps + 1):
        t_n, t_prev = float(grid.times[n]), float(grid.times[n - 1])
        prev = traj.states[n - 1]
        work += lin_pairing_delta(prev, loading, t_n, t_prev)
        diss += float(traj.diss_increments[n - 1])
        samples = np.array(
            [
                lin_dissipation_increment(
                    UNIT_QUAD,
                    lin_step(t_n, prev, float(r), UNIT_QUAD, loading),
                    prev,
                    float(r),
                )
                / float(r)
                for r in nodes
            ]
        )
        improved += float(weights @ samples)
        lhs = lin_energy(UNIT_QUAD, traj.states[n], loading, t_n) + diss + improved
        assert (e0 - work) - lhs >= -1e-9


# -- rescaling bridge -------------------------------------------------------------


def test_rescale_displacements_arithmetic():
    eps = 0.1
    model = MaterialModel()
    loading = Loading((0.1 * eps,), (0.05 * eps,))
    grid = TimeGrid(t_final=0.2, n_steps=2)
    traj = run_evolution(
        model, State.material_point(1.0 + 0.5 * eps, 1.0 + 0.5 * eps), loading, grid
    )
    lin = rescale_displacements(traj, eps)
    assert float(lin.states[0].v[0]) == pytest.approx(0.5, abs=1e-14)
    assert float(lin.states[0].u[0]) == pytest.approx(0.5, abs=1e-14)
    for i, st in enumerate(traj.states):
        assert float(lin.states[i].v[0]) == pytest.approx(
            (st.F_vi - 1.0) / eps, abs=1e-14
        )
    assert lin.loading.f_coeffs == (pytest.approx(0.1, abs=1e-15),)
    assert lin.loading.g_coeffs == (pytest.approx(0.05, abs=1e-15),)
    assert np.allclose(
        lin.diss_increments, traj.diss_increments / eps**2, atol=1e-18
    )
    with pytest.raises(ValidationError):
        rescale_displacements(traj, 0.0)


def test_rescaled_energies_quadratic_model_is_eps_free():
    # exact 2-homogeneity: the eps-scaled energy equals the limit form.
    state = shear_state(n=4, u_slope=1.0, v_slope=0.0)
    model = MaterialModel(mode="shear_column")
    for eps in (0.4, 0.1, 0.05):
        w_el, w_vi = rescaled_energies(state, eps, model)
        assert w_el == pytest.approx(0.5, abs=1e-14)
        assert w_vi == pytest.approx(0.0, abs=1e-16)


def test_rescaled_energies_shear_quartic_gap():
    # constant unit elastic slope: w_el = 1/2 + eps^2 / 4 exactly.
    state = shear_state(n=4, u_slope=1.0, v_slope=0.0)
    model = MaterialModel(mode="shear_column", a4=1.0)
    for eps in (0.1, 0.05):
        w_el, _ = rescaled_energies(state, eps, model)
        assert w_el == pytest.approx(0.5 + eps**2 / 4.0, abs=1e-15)
    gap = lambda eps: rescaled_energies(state, eps, model)[0] - 0.5
    assert gap(0.1) / gap(0.05) == pytest.approx(4.0, abs=1e-10)


def test_rescaled_energies_mp_geometric_factor():
    model = MaterialModel()
    u, v, eps = 0.3, 0.2, 0.1
    state = LinState.material_point(u, v)
    w_el, w_vi = rescaled_energies(state, eps, model)
    s_el = eps * (u - v) / (1.0 + eps * v)
    assert w_el == pytest.approx(0.5 * s_el**2 / eps**2, abs=1e-15)
    assert w_vi == pytest.approx(0.5 * v**2, abs=1e-15)
    with pytest.raises(ValidationError):
        rescaled_energies(state, -1.0, model)


# -- state validation --------------------------------------------------------------


def test_lin_state_validation():
    mesh = ShearColumnMesh(4)
    with pytest.raises(ValidationError):
        LinState.material_point(float("nan"), 0.0)
    with pytest.raises(ValidationError):
        LinState.shear_column(mesh, np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError):
        LinState.shear_column(mesh, np.zeros(5), np.zeros(5))
    with pytest.raises(ValidationError):
        LinState.shear_column(mesh, np.zeros(4), np.array([0.0, np.inf, 0.0, 0.0]))
    state = LinState.shear_column(mesh, np.full(4, 0.3), np.full(4, 2.0))
    assert state.u.shape == state.v.shape == (4,)


def test_run_lin_evolution_shear_dissipation_bookkeeping():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_lin_evolution(UNIT_QUAD, shear_state(), ZERO, grid)
    assert len(traj.states) == 6
    assert traj.delta[0] == 0.0
    assert np.allclose(np.diff(traj.delta), traj.diss_increments, atol=1e-18)
    energies = [
        lin_energy(UNIT_QUAD, traj.states[i], ZERO, float(grid.times[i]))
        for i in range(6)
    ]
    assert np.all(np.diff(energies) < 0.0)
