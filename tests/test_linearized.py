"""Linearized runs: the quadratic model's exact implicit-Euler steps on a
column (at a material point one element, h = 1, under the resultant f + g),
their discrete Euler-Lagrange residuals, the factor-two energy-dissipation
balance, and the rescaling bridge between finite-strain trajectories and
linearized dofs.

Closed forms used as oracles (material point, load value ell frozen at the
step time): eliminating u gives the scalar substep minimizer
    v(r) = (r ell + d v_prev) / (c_v r + d),
so the substep rate dissipation is
    Psi_r = d (ell - c_v v_prev)^2 / (2 (c_v r + d)^2)
and its integral over r in [0, tau] is exactly
    (ell - c_v v_prev)^2 tau / (2 (c_v tau + d)).
"""

import math

import numpy as np
import pytest

from visco_pt import (
    Loading,
    MaterialModel,
    ShearColumnMesh,
    State,
    TimeGrid,
    ValidationError,
    equilibrate_elastic,
    linear_column,
    rescale_displacements,
    rescaled_energies,
    run_evolution,
)
from visco_pt.domain import element_stress, pairing

from test_stepper import de_giorgi_reference

UNIT_QUAD = MaterialModel().quadratic_limit()
ZERO = Loading()


def point(u, v, loading=ZERO, model=MaterialModel()):
    """A linearized material point as its column: the quadratic model, the
    one-element state (u, v) and the top traction f + g."""
    quad, mesh, column_loading = linear_column(model, None, loading)
    return quad, State.shear_column(mesh, [u], [v]), column_loading


def shear_state(n=8, u_slope=0.5, v_slope=0.4):
    mesh = ShearColumnMesh(n)
    return State.shear_column(mesh, np.full(n, u_slope), np.full(n, v_slope))


def lin_gradients(quad, state, prev, tau, loading, t):
    """Discrete Euler-Lagrange gradients (gu, gv) at ``state`` in the element
    slopes: h (c_e (u' - v') - sigma) and
    h (c_v v' + d (v' - v'_prev) / tau - c_e (u' - v'))."""
    sigma = element_stress(state.mesh, loading.f(t), loading.g(t))
    sig_el = quad.c_e * (state.gamma - state.beta)
    sig_v = quad.c_v * state.beta + quad.d_v * (state.beta - prev.beta) / tau
    return state.mesh.h * (sig_el - sigma), state.mesh.h * (sig_v - sig_el)


def el_residual(quad, state, prev, tau, loading, t):
    """Sup-norm over both Euler-Lagrange gradients: elastic equilibrium in u
    and the implicit-Euler flow rule in v."""
    gu, gv = lin_gradients(quad, state, prev, tau, loading, t)
    return max(float(np.max(np.abs(gu))), float(np.max(np.abs(gv))))


def semistability_residual(quad, state, loading, t):
    """Sup-norm of the u-gradient alone: u minimizes at frozen v."""
    gu, _ = lin_gradients(quad, state, state, 1.0, loading, t)
    return float(np.max(np.abs(gu)))


def lin_stored(quad, state):
    """(W_el0, W_vi0): h sum_e c_e (u' - v')^2 / 2 and h sum_e c_v v'^2 / 2,
    each element's square formed as c / 2 * s * s."""
    h, e, v = state.mesh.h, state.gamma - state.beta, state.beta
    return (
        float(h * np.add.reduce(0.5 * quad.c_e * e * e)),
        float(h * np.add.reduce(0.5 * quad.c_v * v * v)),
    )


def lin_pairing(state, f_val, g_val):
    """<l0, u> under the load values f and g, by the domain's pairing."""
    return float(pairing(state.mesh, state.gamma, f_val, g_val))


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
    c_e (u' - v') = sigma and c_v v' + d (v' - v_prev) / tau = sigma under
    the resultants at the step's end."""
    tau, h, steps = grid.tau, state.mesh.h, []
    for t in grid.times[1:].tolist():
        sigma = element_stress(state.mesh, loading.f(t), loading.g(t))
        v = state.beta + (sigma - quad.c_v * state.beta) / (quad.c_v + quad.d_v / tau)
        rate = (v - state.beta) / tau
        diss = float(tau * h * np.add.reduce(0.5 * quad.d_v * rate * rate))
        state = State(v + sigma / quad.c_e, v, state.mesh)
        steps.append((state, diss))
    return steps


# -- the column of each geometry ---------------------------------------------------


def test_linear_column_of_each_geometry():
    model = MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=3.0, k_radius=0.7)
    loading = Loading((0.1, 0.2), (0.05,))
    quad, mesh, column = linear_column(model, None, loading)
    assert quad == model.quadratic_limit()
    assert mesh == ShearColumnMesh(1)
    assert column == Loading(g_coeffs=(0.1 + 0.05, 0.2))
    shear = ShearColumnMesh(8)
    assert linear_column(model, shear, loading) == (quad, shear, loading)
    with pytest.raises(ValidationError, match="p_psi = 2"):
        linear_column(MaterialModel(p_psi=3.0), None, loading)


def test_material_point_traction_is_the_resultant_bit_for_bit():
    # With g = 0 (every shipped material point), summing the coefficients
    # evaluates f + g as the sum of the two values does.
    times = np.linspace(0.0, 3.0, 301)
    for loading in (Loading((0.1,)), Loading((0.0, 0.1, -0.3)), Loading(g_coeffs=(0.2, 0.7))):
        _, _, column = linear_column(MaterialModel(), None, loading)
        assert np.array_equal(column.f(times), np.zeros_like(times))
        assert np.array_equal(column.g(times), loading.f(times) + loading.g(times))


# -- single steps ---------------------------------------------------------------


def test_lin_step_mp_spot_value():
    # zero load, unit coefficients: v_1 = v_0 / (1 + tau) = 5/11.
    quad, prev, loading = point(0.5, 0.5)
    state = run_evolution(quad, prev, loading, TimeGrid(0.1, 1)).states[1]
    assert float(state.beta[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)
    assert float(state.gamma[0]) == pytest.approx(5.0 / 11.0, abs=1e-14)


def test_lin_step_tracks_exponential_decay():
    t_final = math.log(2.0)
    grid = TimeGrid(t_final=t_final, n_steps=700)
    traj = run_evolution(*point(0.5, 0.5), grid)
    decay = 0.5 * np.exp(-(UNIT_QUAD.c_v / UNIT_QUAD.d_v) * grid.times)
    # implicit Euler is first order; tau ~ 1e-3 gives ~1e-4 here
    assert float(np.max(np.abs(traj.dofs[:, 1, 0] - decay))) < 2e-3
    # closed form halves the amplitude at t = ln 2
    assert float(traj.states[-1].beta[0]) == pytest.approx(0.25, abs=1e-3)


def test_lin_step_el_residual_mp():
    quad, state0, load = point(0.6, 0.5, Loading((0.1,), (0.05,)))
    traj = run_evolution(quad, state0, load, TimeGrid(0.3, 3))
    for i in (1, 2, 3):
        prev, state, t = traj.states[i - 1], traj.states[i], float(traj.grid.times[i])
        assert el_residual(quad, state, prev, 0.1, load, t) <= 1e-10


def test_lin_step_el_residual_shear():
    prev = shear_state()
    load = Loading((0.0, 0.2), (0.1,))
    quad = MaterialModel(c_e=1.3, c_v=0.8, d_v=1.1).quadratic_limit()
    traj = run_evolution(quad, prev, load, TimeGrid(0.5, 10))
    for i in range(1, 11):
        prev, state, t = traj.states[i - 1], traj.states[i], float(traj.grid.times[i])
        assert el_residual(quad, state, prev, 0.05, load, t) <= 1e-10


# -- equilibrium initial data ---------------------------------------------------


def test_lin_equilibrate_elastic_mp():
    quad, start, load = point(0.0, 0.5, Loading((0.2,)))
    state = equilibrate_elastic(quad, start, load, 0.0)
    assert float(state.beta[0]) == 0.5
    assert float(state.gamma[0]) == pytest.approx(0.7, abs=1e-14)
    assert semistability_residual(quad, state, load, 0.0) <= 1e-12


def test_lin_equilibrate_elastic_shear():
    load = Loading((0.2,), (0.1,))
    state = equilibrate_elastic(UNIT_QUAD, shear_state(), load, 0.0)
    assert semistability_residual(UNIT_QUAD, state, load, 0.0) <= 1e-12


# -- factor-two energy-dissipation balance ---------------------------------------


def mp_balance_residuals(u0, v0, loading, grid):
    """Cumulative balance with the exact substep dissipation integral."""
    quad, state0, loading = point(u0, v0, loading)
    traj = run_evolution(quad, state0, loading, grid)
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
        gap = ell - quad.c_v * float(prev.beta[0])
        improved += 0.5 * gap * gap * tau / (quad.c_v * tau + quad.d_v)
        lhs = lin_energy(quad, traj.states[n], loading, t_n) + diss + improved
        out.append((e0 - work) - lhs)
    return np.array(out)


def test_factor_two_balance_mp_identity():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    for loading, u0 in ((ZERO, 0.5), (Loading((0.1,)), 0.6)):
        res = mp_balance_residuals(u0, 0.5, loading, grid)
        assert np.all(res >= -1e-9)
        # autonomous loading makes the doubled balance an exact identity
        assert np.max(np.abs(res)) < 1e-12


def test_factor_two_balance_mp_ramp_load():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    res = mp_balance_residuals(0.5, 0.5, Loading((0.0, 0.2)), grid)
    assert np.all(res >= -1e-9)
    # explicit load increments leave positive slack
    assert np.all(res > 0.0)


def test_factor_two_balance_shear():
    grid = TimeGrid(t_final=1.0, n_steps=10)
    loading = Loading((0.0, 0.2), (0.1,))
    traj = run_evolution(UNIT_QUAD, shear_state(), loading, grid)
    e0 = lin_energy(UNIT_QUAD, traj.states[0], loading, 0.0)
    times = grid.times.tolist()
    # each substep solves under the load at t_n, frozen over [0, r]
    integrals = de_giorgi_reference(traj, 4).tolist()
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
    assert lin.shape == traj.dofs.shape
    assert lin[0, 1, 0] == pytest.approx(0.5, abs=1e-14)
    assert lin[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
    for i, st in enumerate(traj.states):
        assert lin[i, 0, 0] == pytest.approx((st.F - 1.0) / eps, abs=1e-14)
        assert lin[i, 1, 0] == pytest.approx((st.F_vi - 1.0) / eps, abs=1e-14)
    # shear slopes carry no identity to shift
    shear = run_evolution(model, shear_state(4, 0.5 * eps, 0.4 * eps), loading, grid)
    assert np.array_equal(rescale_displacements(shear, eps), shear.dofs / eps)
    with pytest.raises(ValidationError):
        rescale_displacements(traj, 0.0)


def test_rescaled_energies_quadratic_model_is_eps_free():
    # exact 2-homogeneity: the eps-scaled energy equals the limit form.
    state = shear_state(n=4, u_slope=1.0, v_slope=0.0)
    model = MaterialModel()
    for eps in (0.4, 0.1, 0.05):
        w_el, w_vi = rescaled_energies(model, state.mesh, state.gamma, state.beta, eps)
        assert w_el == pytest.approx(0.5, abs=1e-14)
        assert w_vi == pytest.approx(0.0, abs=1e-16)


def test_rescaled_energies_shear_quartic_gap():
    # constant unit elastic slope: w_el = 1/2 + eps^2 / 4 exactly.
    state = shear_state(n=4, u_slope=1.0, v_slope=0.0)
    model = MaterialModel(a4=1.0)

    def w_el(eps):
        return rescaled_energies(model, state.mesh, state.gamma, state.beta, eps)[0]

    for eps in (0.1, 0.05):
        assert w_el(eps) == pytest.approx(0.5 + eps**2 / 4.0, abs=1e-15)
    assert (w_el(0.1) - 0.5) / (w_el(0.05) - 0.5) == pytest.approx(4.0, abs=1e-10)


def test_rescaled_energies_mp_geometric_factor():
    model = MaterialModel()
    u, v, eps = 0.3, 0.2, 0.1
    w_el, w_vi = rescaled_energies(model, None, np.array([u]), np.array([v]), eps)
    s_el = eps * (u - v) / (1.0 + eps * v)
    assert w_el == pytest.approx(0.5 * s_el**2 / eps**2, abs=1e-15)
    assert w_vi == pytest.approx(0.5 * v**2, abs=1e-15)
    with pytest.raises(ValidationError):
        rescaled_energies(model, None, np.array([u]), np.array([v]), -1.0)


# -- trajectories --------------------------------------------------------------------


def test_lin_run_shear_dissipation_bookkeeping():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(UNIT_QUAD, shear_state(), ZERO, grid)
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
    # run_evolution forms all resultants at once and prices all rows in
    # arrays; its states and dissipation must equal the stepwise scheme bit
    # for bit, and its ledger the definitions of the energies.
    model = MaterialModel(c_e=1.7, c_v=0.3, d_v=2.9)
    loading = Loading((0.2, -0.7, 0.4), (0.1, 0.3))
    if shear:
        quad, mesh = model.quadratic_limit(), ShearColumnMesh(9)
        state = State.shear_column(mesh, np.linspace(-0.3, 0.5, 9), np.linspace(0.4, -0.2, 9))
    else:
        quad, state, loading = point(0.37, 0.4650494217375609, loading, model)
    grid = TimeGrid(t_final=1.3, n_steps=7)
    traj = run_evolution(quad, state, loading, grid)
    assert traj.dofs.shape == (8, 2, 9 if shear else 1)
    assert not traj.dofs.flags.writeable
    times = grid.times.tolist()
    for i, (expected, diss) in enumerate(lin_steps(quad, state, loading, grid), start=1):
        lin = traj.states[i]
        assert np.array_equal(lin.gamma, expected.gamma)
        assert np.array_equal(lin.beta, expected.beta)
        assert traj.diss_increments[i - 1] == diss
    work = 0.0
    for i, lin in enumerate(traj.states):
        if i > 0:
            prev = traj.states[i - 1]
            work += lin_pairing_delta(prev, loading, times[i], times[i - 1])
        assert tuple(traj.stored[i].tolist()) == lin_stored(quad, lin)
        assert traj.energy(i) == lin_energy(quad, lin, loading, times[i])
        assert traj.load_work[i] == work


def test_lin_run_marches_in_one_kernel_call(monkeypatch):
    # The viscous recursion of a linearized run is one kernels.column_march
    # call (looked up at the module attribute) in both geometries, with the
    # quadratic limit's c_v and d_v and p = 2, over the substep tau.
    from visco_pt import kernels

    calls, march = [], kernels.column_march

    def counted(c, d, p, sigma, r, *rest):
        calls.append((sigma.shape, c, d, p, r))
        return march(c, d, p, sigma, r, *rest)

    monkeypatch.setattr(kernels, "column_march", counted)
    model = MaterialModel(c_v=0.3, d_v=2.9)
    grid = TimeGrid(t_final=1.3, n_steps=7)
    loading = Loading((0.2,), (0.1,))
    run_evolution(*point(0.37, 0.4, loading, model), grid)
    run_evolution(model.quadratic_limit(), shear_state(), loading, grid)
    assert calls == [((7, 1), 0.3, 2.9, 2.0, grid.tau), ((7, 8), 0.3, 2.9, 2.0, grid.tau)]
