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
    rescale_displacements,
    rescaled_energies,
    run_evolution,
    run_lin_evolution,
)
from visco_pt.domain import State, element_stress, pairing
from visco_pt.linearized import LinState, _lin_gradients

from test_stepper import de_giorgi_reference

UNIT_QUAD = MaterialModel().quadratic_limit()
ZERO = Loading()


def shear_state(n=8, u_slope=0.5, v_slope=0.4):
    mesh = ShearColumnMesh(n)
    return LinState.shear_column(mesh, np.full(n, u_slope), np.full(n, v_slope))


def resultants(state, loading, t):
    """h and the resultants sigma of the load at t: f + g at a material
    point (one element, h = 1), the element resultants in the column."""
    if state.mesh is None:
        return 1.0, loading.f(t) + loading.g(t)
    return state.mesh.h, element_stress(state.mesh, loading.f(t), loading.g(t))


def lin_stored(quad, state):
    """(W_el0, W_vi0): h sum_e c_el (u' - v')^2 / 2 and h sum_e c_vi v'^2 / 2,
    at a material point c_el e e / 2 and c_vi v**2 / 2 (Python's power)."""
    if state.mesh is None:
        e, v = float(state.u[0] - state.v[0]), float(state.v[0])
        return 0.5 * quad.c_el * e * e, 0.5 * quad.c_vi * v**2
    h, u, v = state.mesh.h, state.u, state.v
    return (
        float(0.5 * quad.c_el * h * np.sum((u - v) ** 2)),
        float(0.5 * quad.c_vi * h * np.sum(v**2)),
    )


def lin_pairing(state, f_val, g_val):
    """<l0, u> under the load values f and g, by the domain's pairing."""
    u = float(state.u[0]) if state.mesh is None else state.u
    return float(pairing(state.mesh, u, f_val, g_val))


def lin_pairing_delta(state, loading, t1, t0):
    """The load-rate work <l0(t1) - l0(t0), u> of a step."""
    f, g = loading.f, loading.g
    return lin_pairing(state, f(t1) - f(t0), g(t1) - g(t0))


def lin_energy(quad, state, loading, t):
    """E0(t, state): the stored energies minus the load pairing."""
    w_el, w_vi = lin_stored(quad, state)
    return w_el + w_vi - lin_pairing(state, loading.f(t), loading.g(t))


def lin_steps(quad, state, loading, grid):
    """The scheme step by step, with each step's dissipation: per element,
    c_el (u' - v') = sigma and c_vi v' + d (v' - v_prev) / tau = sigma under
    the resultants at the step's end."""
    tau, steps = grid.tau, []
    for t in grid.times[1:].tolist():
        h, sigma = resultants(state, loading, t)
        v = state.v + (sigma - quad.c_vi * state.v) / (quad.c_vi + quad.d_diss / tau)
        rate = (v - state.v) / tau
        if state.mesh is None:
            diss = tau * 0.5 * quad.d_diss * float(rate[0]) * float(rate[0])
        else:
            diss = tau * 0.5 * quad.d_diss * h * float(np.sum(rate * rate))
        state = LinState(v + sigma / quad.c_el, v, state.mesh)
        steps.append((state, diss))
    return steps


def semistability_residual(quad, state, loading, t):
    """Sup-norm of the u-gradient alone: u minimizes at frozen v."""
    gu, _ = _lin_gradients(quad, state, state, 1.0, loading, t)
    return float(np.max(np.abs(gu)))


# -- single steps ---------------------------------------------------------------


def test_lin_step_mp_spot_value():
    # zero load, unit coefficients: v_1 = v_0 / (1 + tau) = 5/11.
    prev = LinState.material_point(0.5, 0.5)
    state = run_lin_evolution(UNIT_QUAD, prev, ZERO, TimeGrid(0.1, 1)).states[1]
    assert float(state.v[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)
    assert float(state.u[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)


def test_lin_step_tracks_exponential_decay():
    t_final = math.log(2.0)
    grid = TimeGrid(t_final=t_final, n_steps=700)
    traj = run_lin_evolution(
        UNIT_QUAD, LinState.material_point(0.5, 0.5), ZERO, grid
    )
    decay = 0.5 * np.exp(-(UNIT_QUAD.c_vi / UNIT_QUAD.d_diss) * grid.times)
    # implicit Euler is first order; tau ~ 1e-3 gives ~1e-4 here
    assert float(np.max(np.abs(traj.dofs[:, 1, 0] - decay))) < 2e-3
    # closed form halves the amplitude at t = ln 2
    assert float(traj.states[-1].v[0]) == pytest.approx(0.25, abs=1e-3)


def test_lin_step_el_residual_mp():
    load = Loading((0.1,), (0.05,))
    traj = run_lin_evolution(UNIT_QUAD, LinState.material_point(0.6, 0.5), load, TimeGrid(0.3, 3))
    for i in (1, 2, 3):
        prev, state, t = traj.states[i - 1], traj.states[i], float(traj.grid.times[i])
        assert lin_el_residual(UNIT_QUAD, state, prev, 0.1, load, t) <= 1e-10


def test_lin_step_el_residual_shear():
    prev = shear_state()
    load = Loading((0.0, 0.2), (0.1,))
    quad = MaterialModel(c_e=1.3, c_v=0.8, d_v=1.1).quadratic_limit()
    traj = run_lin_evolution(quad, prev, load, TimeGrid(0.5, 10))
    for i in range(1, 11):
        prev, state, t = traj.states[i - 1], traj.states[i], float(traj.grid.times[i])
        assert lin_el_residual(quad, state, prev, 0.05, load, t) <= 1e-10


# -- equilibrium initial data ---------------------------------------------------


def test_lin_equilibrium_mp():
    load = Loading((0.2,))
    state = lin_equilibrium(UNIT_QUAD, LinState.material_point(0.0, 0.5), load, 0.0)
    assert float(state.v[0]) == 0.5
    assert float(state.u[0]) == pytest.approx(0.7, abs=1e-14)
    assert semistability_residual(UNIT_QUAD, state, load, 0.0) <= 1e-12


def test_lin_equilibrium_shear():
    load = Loading((0.2,), (0.1,))
    state = lin_equilibrium(UNIT_QUAD, shear_state(), load, 0.0)
    assert semistability_residual(UNIT_QUAD, state, load, 0.0) <= 1e-12


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
    times = grid.times.tolist()

    def rate(n, r):
        # each substep solves under the load at t_n, frozen over [0, r]
        frozen = Loading((loading.f(times[n]),), (loading.g(times[n]),))
        substep = run_lin_evolution(UNIT_QUAD, traj.states[n - 1], frozen, TimeGrid(r, 1))
        return substep.diss_increments[0] / r

    integrals = de_giorgi_reference(traj, 4, rate).tolist()
    work = diss = improved = 0.0
    for n in range(1, grid.n_steps + 1):
        t_n, t_prev = times[n], times[n - 1]
        prev = traj.states[n - 1]
        work += lin_pairing_delta(prev, loading, t_n, t_prev)
        diss += float(traj.diss_increments[n - 1])
        improved += integrals[n - 1]
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
    model = MaterialModel()
    for eps in (0.4, 0.1, 0.05):
        w_el, w_vi = rescaled_energies(state, eps, model)
        assert w_el == pytest.approx(0.5, abs=1e-14)
        assert w_vi == pytest.approx(0.0, abs=1e-16)


def test_rescaled_energies_shear_quartic_gap():
    # constant unit elastic slope: w_el = 1/2 + eps^2 / 4 exactly.
    state = shear_state(n=4, u_slope=1.0, v_slope=0.0)
    model = MaterialModel(a4=1.0)
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


@pytest.mark.parametrize("shear", [False, True])
def test_lin_trajectory_arrays_equal_the_stepwise_scheme(shear):
    # run_lin_evolution forms all resultants at once and prices all rows in
    # arrays; its states and dissipation must equal the stepwise scheme bit
    # for bit, and its ledger the definitions of the energies.
    quad = MaterialModel(c_e=1.7, c_v=0.3, d_v=2.9).quadratic_limit()
    loading = Loading((0.2, -0.7, 0.4), (0.1, 0.3))
    if shear:
        mesh = ShearColumnMesh(9)
        state = LinState.shear_column(mesh, np.linspace(-0.3, 0.5, 9), np.linspace(0.4, -0.2, 9))
    else:
        # v0 ** 2 (Python's power, as the stored energy squares) is not v0 * v0
        v0 = 0.4650494217375609
        assert v0**2 != v0 * v0
        state = LinState.material_point(0.37, v0)
    grid = TimeGrid(t_final=1.3, n_steps=7)
    traj = run_lin_evolution(quad, state, loading, grid)
    assert traj.dofs.shape == (8, 2, 9 if shear else 1)
    assert not traj.dofs.flags.writeable
    times = grid.times.tolist()
    for i, (expected, diss) in enumerate(lin_steps(quad, state, loading, grid), start=1):
        lin = traj.states[i]
        assert np.array_equal(lin.u, expected.u) and np.array_equal(lin.v, expected.v)
        assert traj.diss_increments[i - 1] == diss
    work = 0.0
    for i, lin in enumerate(traj.states):
        if i > 0:
            prev = traj.states[i - 1]
            work += lin_pairing_delta(prev, loading, times[i], times[i - 1])
        assert tuple(traj.stored[i].tolist()) == lin_stored(quad, lin)
        assert traj.energy(i) == lin_energy(quad, lin, loading, times[i])
        assert traj.load_work[i] == work


def test_run_lin_evolution_marches_in_one_kernel_call(monkeypatch):
    # The viscous recursion of a linearized run is one kernels.column_march
    # call (looked up at the module attribute) in both geometries, with the
    # quadratic limit (c_vi, d_diss) and p = 2, over the substep tau.
    from visco_pt import kernels

    calls, march = [], kernels.column_march

    def counted(c, d, p, sigma, r, *rest):
        calls.append((sigma.shape, c, d, p, r))
        return march(c, d, p, sigma, r, *rest)

    monkeypatch.setattr(kernels, "column_march", counted)
    quad = MaterialModel(c_v=0.3, d_v=2.9).quadratic_limit()
    grid = TimeGrid(t_final=1.3, n_steps=7)
    for state in (LinState.material_point(0.37, 0.4), shear_state()):
        run_lin_evolution(quad, state, Loading((0.2,), (0.1,)), grid)
    assert calls == [((7, 1), 0.3, 2.9, 2.0, grid.tau), ((7, 8), 0.3, 2.9, 2.0, grid.tau)]
