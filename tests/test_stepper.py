"""Incremental minimization stepping: closed-form single steps, substep
envelopes, De Giorgi interpolation, and elastic equilibration.

Closed forms used as oracles (unit material-point model, zero load, p = 2,
start F = F_vi = F_o): minimizing over the elastic dof gives F = F_vi, and
the remaining scalar problem  1/2 (F_vi - 1)^2 + (F_vi - F_o)^2 / (2 r F_o^2)
has minimizer      G(r)   = (r F_o^2 + F_o) / (r F_o^2 + 1),
value              phi(r) = (F_o - 1)^2 / (2 (1 + r F_o^2)),
rate dissipation   Psi_r  = F_o^2 (F_o - 1)^2 / (2 (1 + r F_o^2)^2),
and exactly        integral_0^tau Psi_r dr
                          = (F_o - 1)^2 tau F_o^2 / (2 (1 + tau F_o^2)).
"""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt import (
    InfeasibleState,
    Loading,
    MaterialModel,
    MinimizeSettings,
    ShearColumnMesh,
    SolverNotConverged,
    State,
    StepRejected,
    TimeGrid,
    ValidationError,
    check_energy_inequality,
    de_giorgi_integral,
    energy_value,
    equilibrate_elastic,
    incremental_step,
    load_config,
    phi_tau,
    run_evolution,
    total_energy,
)
from visco_pt.domain import (
    dissipation_increment,
    dissipation_rates,
    dof_dissipation,
    energy_value,
    pack_dofs,
    state_dofs,
    stored_energies,
)
from visco_pt.minimize import RESOLUTION
from visco_pt.stepper import de_giorgi_rule

UNIT_MP = MaterialModel()
ZERO = Loading()
F_O = 1.5


def closed_form_minimizer(tau, f_old):
    return (tau * f_old**2 + f_old) / (tau * f_old**2 + 1.0)


def closed_form_phi(r, f_old):
    return 0.5 * (f_old - 1.0) ** 2 / (1.0 + r * f_old**2)


def shear_start(n=8):
    return State.shear_column(ShearColumnMesh(n), np.full(n, 0.5), np.full(n, 0.8))


# -- single incremental steps -----------------------------------------------


def step_from(model, old, loading, t, tau, settings=MinimizeSettings(), index=0):
    """incremental_step from a State, as run_evolution calls it: the old
    dofs, their stored energies and, in the shear column, the mesh."""
    return incremental_step(
        model, state_dofs(old), loading, t, tau, settings, index,
        stored_old=stored_energies(model, old), mesh=old.mesh,
    )


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("f_old", [0.5, 1.0, 1.5, 2.0])
def test_step_matches_closed_form(tau, f_old):
    step = step_from(UNIT_MP, State.material_point(f_old, f_old), ZERO, tau, tau)
    expected = closed_form_minimizer(tau, f_old)
    assert step.y_vi == pytest.approx(expected, abs=1e-9)
    assert step.y == pytest.approx(expected, abs=1e-9)
    assert step.margin >= -1e-8


def test_step_spot_value():
    # tau = 0.5, F_o = 1.5: G = (0.5 * 2.25 + 1.5) / (0.5 * 2.25 + 1).
    step = step_from(UNIT_MP, State.material_point(1.5, 1.5), ZERO, 0.5, 0.5)
    assert step.y_vi == pytest.approx(1.2352941, abs=5e-8)


def test_step_report_fields():
    old = State.material_point(1.5, 1.5)
    step = step_from(UNIT_MP, old, ZERO, 0.25, 0.25, index=7)
    new = State.material_point(step.y, step.y_vi)
    assert step.iterations == 0  # quadratic densities: the closed form
    assert 0.0 <= step.grad_inf <= 1e-10
    assert step.diss > 0.0
    assert step.diss == dissipation_increment(UNIT_MP, new, old, 0.25)
    assert (step.w_el, step.w_vi) == stored_energies(UNIT_MP, new)
    # a relaxing step strictly lowers the stay-put energy
    assert step.margin > 0.0
    assert step.y_vi < old.F_vi


def test_step_rejected_on_mismatched_operator(monkeypatch):
    # A solve for a 500 times longer substep pulls the state far beyond the
    # true minimizer, so the stay-put comparison must fail.
    from visco_pt import stepper

    solve = stepper._solve_incremental

    def long_substep(model, mesh, old, at, r, settings, where):
        gamma, beta, _, _, _, _, iterations, grad_inf = solve(
            model, mesh, old, at, 500.0 * r, settings, where
        )
        state, start = State.shear_column(mesh, gamma, beta), State.shear_column(mesh, *old)
        w_el, w_vi = stored_energies(model, state)
        diss = dissipation_increment(model, state, start, r)
        value = energy_value(model, state, load, 0.0) + diss
        return gamma, beta, value, w_el, w_vi, diss, iterations, grad_inf

    monkeypatch.setattr(stepper, "_solve_incremental", long_substep)
    state0 = shear_start()
    model = MaterialModel()
    load = Loading((0.2,), (0.1,))
    with pytest.raises(StepRejected) as exc:
        step_from(model, state0, load, 0.0, 0.01, index=3)
    assert exc.value.index == 3
    assert exc.value.margin < -1e-8
    assert "step 3 rejected" in str(exc.value)


@pytest.mark.parametrize("g", [1e3, 3e3, 1e4])
def test_stay_put_tolerance_scales_with_the_energies(g):
    # A soft, stiffly viscous column under a large traction: the energies
    # reach about -5e8, whose rounding alone exceeds the absolute 1e-8, so
    # the stay-put check must allow for the rounding of what it compares.
    model = MaterialModel(c_e=1e-2, c_v=1e3, d_v=1.0, k_radius=100.0)
    mesh = ShearColumnMesh(8)
    state0 = State.shear_column(mesh, np.zeros(8), np.zeros(8))
    traj = run_evolution(model, state0, Loading((0.0,), (g,)), TimeGrid(1.0, 20))
    assert traj.stay_put_margin.shape == (20,)
    # What the margins lose is rounding of the energies, not minimality.
    worst = float(np.min(traj.stay_put_margin))
    energy = max(abs(traj.energy(i)) for i in range(21))
    assert worst >= -RESOLUTION * energy


@pytest.mark.parametrize(
    "model, old, where",
    [
        (
            MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=2.0, p_psi=2.5, k_radius=4.0),
            State.material_point(1.5, 1.5),
            "step 4",
        ),
        (MaterialModel(a4=1.0, p_psi=2.5), shear_start(), "step 4"),
    ],
)
def test_step_that_does_not_converge_raises(model, old, where):
    # One iteration cannot reach grad_tol on these nonquadratic objectives:
    # the step must be refused with its index, status and gradient, never
    # accepted with a max_iter_exceeded report.
    with pytest.raises(SolverNotConverged) as exc:
        step_from(model, old, Loading((0.2,)), 0.5, 0.5, MinimizeSettings(max_iter=1), index=4)
    assert exc.value.status == "max_iter_exceeded"
    assert exc.value.grad_inf > 1e-10
    assert str(exc.value).startswith(f"{where} not solved: max_iter_exceeded")


def test_substep_that_does_not_converge_names_r():
    model = MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=2.0, p_psi=2.5, k_radius=4.0)
    with pytest.raises(SolverNotConverged, match="substep r=0.25"):
        phi_tau(
            model, State.material_point(1.5, 1.5), Loading((0.2,)), 0.5, 0.25,
            MinimizeSettings(max_iter=1),
        )


def test_mp_cubic_dissipation_step():
    model = MaterialModel(p_psi=3.0)
    step = step_from(model, State.material_point(1.5, 1.5), ZERO, 0.1, 0.1)
    assert 1.0 < step.y_vi < 1.5
    assert step.margin >= -1e-8


# -- substep functional (phi_tau) -------------------------------------------


@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 1.0])
def test_phi_tau_matches_closed_form(r):
    old = State.material_point(F_O, F_O)
    pt = phi_tau(UNIT_MP, old, ZERO, 0.0, r)
    assert pt.value == pytest.approx(closed_form_phi(r, F_O), abs=1e-10)
    assert pt.state.F_vi == pytest.approx(closed_form_minimizer(r, F_O), abs=1e-9)


def test_phi_tau_spot_value_one_seventeenth():
    pt = phi_tau(UNIT_MP, State.material_point(1.5, 1.5), ZERO, 0.0, 0.5)
    assert pt.value == pytest.approx(1.0 / 17.0, abs=1e-12)


def test_phi_tau_value_splits_into_energy_plus_rate_term():
    r = 0.5
    pt = phi_tau(UNIT_MP, State.material_point(F_O, F_O), ZERO, 0.0, r)
    energy = total_energy(UNIT_MP, pt.state, ZERO, 0.0)[0]
    assert pt.value == pytest.approx(energy + r * pt.rate_dissipation, abs=1e-14)
    assert energy == pytest.approx(0.0276816609, abs=1e-9)
    assert r * pt.rate_dissipation == pytest.approx(0.0311418685, abs=1e-9)


@pytest.mark.parametrize("name, t, r", [("mp_relax", 0.0, 1e-8), ("mp_loaded", 0.01, 1e-7)])
def test_phi_tau_solves_at_a_tiny_substep(name, t, r):
    # d_v / r reaches 1e8: the solve must not depend on the scale of the
    # coefficients. The rate dissipation, whose error is the minimizer's
    # over r, must match the envelope slope of phi, which is insensitive
    # to it; on mp_relax it must match the closed form too, to the 1e-7
    # that one ulp of F_vi makes of F_vi - F_vi,old ~ 1e-8.
    config = load_config(f"configs/{name}.cfg")
    model, old, loading = config.model(), config.initial_state(), config.loading()
    pt = phi_tau(model, old, loading, t, r)
    h = 0.01 * r
    fd = (
        phi_tau(model, old, loading, t, r + h).value
        - phi_tau(model, old, loading, t, r - h).value
    ) / (2.0 * h)
    assert fd == pytest.approx(-pt.rate_dissipation, rel=1e-6)
    if name == "mp_relax":
        assert pt.value == pytest.approx(closed_form_phi(r, F_O), rel=1e-14)
        assert pt.rate_dissipation == pytest.approx(
            F_O**2 * (F_O - 1.0) ** 2 / (2.0 * (1.0 + r * F_O**2) ** 2), rel=1e-7
        )


def test_phi_tau_envelope_derivative():
    # d(phi)/dr equals -(p - 1) * Psi_r at the minimizer; check by central
    # differences of the computed envelope (p = 2 here).
    old = State.material_point(F_O, F_O)
    r, h = 0.3, 1e-4
    fd = (
        phi_tau(UNIT_MP, old, ZERO, 0.0, r + h).value
        - phi_tau(UNIT_MP, old, ZERO, 0.0, r - h).value
    ) / (2.0 * h)
    psi_r = phi_tau(UNIT_MP, old, ZERO, 0.0, r).rate_dissipation
    assert fd == pytest.approx(-psi_r, rel=1e-6)


# -- De Giorgi interpolation --------------------------------------------------


def single_step_trajectory(tau=0.5):
    grid = TimeGrid(t_final=tau, n_steps=1)
    return run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)


def closed_form_de_giorgi_integral(tau):
    return 0.5 * (F_O - 1.0) ** 2 * tau * F_O**2 / (1.0 + tau * F_O**2)


def test_de_giorgi_nodes_shape():
    tau = 0.5
    for m in (2, 3, 4, 8):
        nodes, weights = de_giorgi_rule(tau, m)
        assert nodes.shape == weights.shape == (m,)
        assert 0.0 < nodes[0] and nodes[-1] < tau
        assert np.all(np.diff(nodes) > 0.0)
        assert np.allclose(nodes + nodes[::-1], tau, rtol=0.0, atol=1e-15)
        assert np.all(weights > 0.0)
        assert float(np.sum(weights)) == pytest.approx(tau, abs=1e-15)
    with pytest.raises(ValidationError):
        de_giorgi_rule(tau, 1)


def test_de_giorgi_rule_returns_fresh_arrays():
    # The unit rule is cached per m; a caller that writes into the arrays it
    # got must not change the rule for the next caller.
    a, _ = de_giorgi_rule(0.5, 4)
    a[:] = 0.0
    b, wb = de_giorgi_rule(1.0, 4)
    assert np.all(b > 0.0)
    assert float(np.sum(wb)) == pytest.approx(1.0, abs=1e-15)


def test_de_giorgi_integral_matches_closed_form():
    tau = 0.5
    traj = single_step_trajectory(tau)
    exact = closed_form_de_giorgi_integral(tau)
    q, estimate = de_giorgi_integral(traj, 64)
    assert q.shape == estimate.shape == (1,)
    assert q[0] == pytest.approx(exact, abs=2e-5)
    assert abs(q[0] - exact) <= estimate[0]


def test_de_giorgi_integral_gauss_convergence_in_samples():
    # Gauss-Legendre on the smooth integrand gains more than a decade per
    # added node (8.2e-3, 4.1e-4, 1.9e-5, 8.0e-7 relative at m = 2..5).
    tau = 0.5
    traj = single_step_trajectory(tau)
    exact = closed_form_de_giorgi_integral(tau)
    errors = [
        abs(de_giorgi_integral(traj, m)[0][0] - exact) / exact for m in (2, 3, 4, 5)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 10.0
    # The clustered trapezoid with 16 samples this rule replaced was off by
    # 1.7e-3 relative; 4 Gauss nodes must be at least 50 times closer.
    assert errors[2] <= 1.7e-3 / 50.0


def test_de_giorgi_integral_makes_one_solve_per_node(monkeypatch):
    # A material point solves each substep of each step once; the shear
    # column solves all of them in one batch, with r as a column.
    import visco_pt.stepper as stepper

    grid = TimeGrid(0.5, 3)
    mp = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    shear = run_evolution(UNIT_MP, shear_start(), Loading((0.2,), (0.1,)), grid)
    calls, batches = [], []
    solve, slopes = stepper._solve_incremental, stepper._viscous_slopes

    def counted(*args):
        calls.append(args[4])
        return solve(*args)

    def batched(*args):
        batches.append(args[3])
        return slopes(*args)

    monkeypatch.setattr(stepper, "_solve_incremental", counted)
    monkeypatch.setattr(stepper, "_viscous_slopes", batched)
    for m in (2, 4, 7):
        nodes, _ = de_giorgi_rule(grid.tau, m)
        coarse, _ = de_giorgi_rule(grid.tau, max(2, m // 2))
        substeps = list(nodes) + list(coarse)
        de_giorgi_integral(mp, m)
        assert calls == substeps * grid.n_steps
        assert batches == []
        calls.clear()
        de_giorgi_integral(shear, m)
        assert calls == []
        assert len(batches) == 1
        assert batches.pop().tolist() == [[r] for r in substeps]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    c_e=st.floats(0.5, 2.5),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    c_v=st.floats(0.3, 1.5),
    d_v=st.floats(0.5, 2.5),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0)),
    load=st.floats(-0.3, 0.3),
    Fv=st.floats(0.6, 1.8),
    tau=st.floats(0.01, 0.5),
)
def test_de_giorgi_error_estimate_bounds_the_error(
    c_e, a4, c_v, d_v, p_psi, load, Fv, tau
):
    # energy_sharp widens its tolerance by (p - 1)|q_4 - q_2| per step; on a
    # step from an elastically equilibrated state that must cover the error
    # of q_4, measured against the 32-node rule.
    model = MaterialModel(c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi)
    loading = Loading((load,))
    start = equilibrate_elastic(model, State.material_point(Fv, Fv), loading, 0.0)
    traj = run_evolution(model, start, loading, TimeGrid(t_final=tau, n_steps=1))
    report = check_energy_inequality(traj, factor="p_psi")
    q = de_giorgi_integral(traj, report.params["m"])[0][0]
    q32 = de_giorgi_integral(traj, 32)[0][0]
    error = (p_psi - 1.0) * abs(q - q32)
    assert report.params["m"] == 4
    assert error <= report.params["quadrature_estimate"] + 1e-12 * max(1.0, abs(q32))


def test_de_giorgi_interpolant_endpoint_is_the_step():
    traj = single_step_trajectory()
    state = phi_tau(
        traj.model, traj.states[0], traj.loading, traj.grid.t_final, r=traj.grid.tau
    ).state
    assert np.allclose(
        pack_dofs(state), pack_dofs(traj.states[1]), atol=1e-9
    )


# -- full evolutions -----------------------------------------------------------


def test_run_evolution_mp_relaxation():
    grid = TimeGrid(t_final=1.0, n_steps=100)
    # a non-default grad_tol reaches the kernel
    settings = MinimizeSettings(grad_tol=1e-8)
    traj = run_evolution(
        UNIT_MP, State.material_point(F_O, F_O), ZERO, grid, settings
    )
    f_vi = np.array([s.F_vi for s in traj.states])
    assert f_vi.shape == (101,)
    assert np.all(np.diff(f_vi) < 0.0)  # strict relaxation toward 1
    assert f_vi[-1] > 1.0
    assert np.all(traj.grad_inf <= 1e-8)
    assert np.all(traj.stay_put_margin >= -1e-8)
    energies = np.array([traj.energy(i) for i in range(grid.n_steps + 1)])
    assert np.all(np.diff(energies) < 0.0)


def test_scalar_relaxation_every_step_converges_in_few_iterations():
    # The 3000-step relaxation of the acceptance suite at the default
    # grad_tol = 1e-10: each step must converge, not stop at max_iter, and
    # the material-point solver must not zig-zag.
    grid = TimeGrid(t_final=3.0, n_steps=3000)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    assert int(np.sum(traj.iterations)) <= 2 * grid.n_steps


def test_loaded_relaxation_every_step_converges():
    # configs/mp_relax.cfg under a constant load of 0.1: near each minimizer
    # the Newton step's predicted decrease is below the rounding of f, where
    # Armijo alone stalled to max_iter on 8 of the 300 steps.
    config = load_config("configs/mp_relax.cfg")
    grid = config.grid()
    traj = run_evolution(
        config.model(), config.initial_state(), Loading((0.1,)), grid, config.settings()
    )
    assert int(np.sum(traj.iterations)) <= 3 * grid.n_steps


def test_trajectory_delta_is_cumulative_dissipation():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    delta = traj.delta
    assert delta[0] == 0.0
    assert np.allclose(np.diff(delta), traj.diss_increments, atol=1e-16)
    assert np.all(traj.diss_increments > 0.0)


def test_run_evolution_shear_quadratic_margins():
    state0 = shear_start()
    model = MaterialModel()
    load = Loading((0.0, 0.2), (0.1,))
    grid = TimeGrid(t_final=0.5, n_steps=10)
    traj = run_evolution(model, state0, load, grid)
    assert np.all(traj.stay_put_margin >= -1e-8)
    # the quadratic shear model is solved per element in closed form
    assert np.all(traj.iterations == 0)


@pytest.mark.parametrize("shear", [False, True])
def test_trajectory_carries_stored_energies_read_only(shear):
    grid = TimeGrid(t_final=0.5, n_steps=10)
    if shear:
        model, state0, load = MaterialModel(), shear_start(), Loading((0.0, 0.2), (0.1,))
    else:
        model, state0, load = UNIT_MP, State.material_point(F_O, F_O), Loading((0.1,))
    traj = run_evolution(model, state0, load, grid)
    assert traj.stored.shape == (grid.n_steps + 1, 2)
    assert not traj.stored.flags.writeable
    with pytest.raises(ValueError):
        traj.stored[0, 0] = 0.0
    for i, state in enumerate(traj.states):
        assert tuple(traj.stored[i]) == stored_energies(model, state)
        t = float(grid.times[i])
        assert traj.energy(i) == energy_value(model, state, load, t)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


def nonzero(lo, hi):
    return st.one_of(st.floats(-hi, -lo), st.floats(lo, hi))


@pytest.mark.parametrize("shear", [False, True])
def test_trajectory_dofs_are_one_read_only_array(shear):
    grid = TimeGrid(t_final=0.5, n_steps=10)
    if shear:
        model, state0, load = MaterialModel(), shear_start(), Loading((0.0, 0.2), (0.1,))
    else:
        model, state0, load = UNIT_MP, State.material_point(F_O, F_O), Loading((0.1,))
    traj = run_evolution(model, state0, load, grid)
    n_elements = 8 if shear else 1
    assert traj.dofs.shape == (grid.n_steps + 1, 2, n_elements)
    assert not traj.dofs.flags.writeable
    with pytest.raises(ValueError):
        traj.dofs[1, 0, 0] = 0.0
    for name in ("diss_increments", "iterations", "grad_inf", "stay_put_margin"):
        column = getattr(traj, name)
        assert column.shape == (grid.n_steps,)
        assert not column.flags.writeable
    # the states are views of the rows, built on demand
    assert len(traj.states) == grid.n_steps + 1
    assert np.array_equal(traj.states[0].gamma, state0.gamma)
    assert np.array_equal(traj.states[-1].beta, traj.dofs[-1, 1])
    assert [traj.states[i].beta[0] for i in (2, 3)] == traj.dofs[2:4, 1, 0].tolist()
    with pytest.raises(IndexError):
        traj.states[grid.n_steps + 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shear=st.booleans(),
    c_e=log_uniform(1e-2, 1e3),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    c_v=log_uniform(1e-2, 1e3),
    d_v=log_uniform(1e-2, 1e3),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 4.0)),
    f_hat=nonzero(0.05, 0.3),
    g_hat=nonzero(0.05, 0.3),
    v0=nonzero(0.05, 0.4),
    tau=st.floats(0.01, 0.5),
)
def test_trajectory_ledger_equals_the_per_state_functions(
    shear, c_e, a4, c_v, d_v, p_psi, f_hat, g_hat, v0, tau
):
    # The march evaluates stored energies and dissipation in plain floats (a
    # material point) or once per step (the shear column), and the ledger
    # prices every state at once; each value must equal, bit for bit, what
    # the per-state functions give. Coefficients away from 1 catch a change
    # in the order of operations; nonzero loads and initial strains keep the
    # states moving. Loads scale with min(c_e, c_v) and stay below 0.9 of
    # it, so the strains stay moderate and the viscous ones inside k_radius.
    model = MaterialModel(c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi)
    scale = min(c_e, c_v)
    grid = TimeGrid(t_final=8 * tau, n_steps=8)
    loading = Loading((scale * f_hat, scale * g_hat / grid.t_final), (scale * g_hat,))
    if shear:
        mesh = ShearColumnMesh(5)
        start = State.shear_column(mesh, np.full(5, v0), np.linspace(-v0, v0, 5))
    else:
        start = State.material_point(1.0 + v0, 1.0 + v0)
    start = equilibrate_elastic(model, start, loading, 0.0)
    traj = run_evolution(model, start, loading, grid)
    states, times = traj.states, grid.times.tolist()
    work = 0.0
    for i, state in enumerate(states):
        assert tuple(traj.stored[i].tolist()) == stored_energies(model, state)
        assert traj.energy(i) == energy_value(model, state, loading, times[i])
        if i > 0:
            old = states[i - 1]
            diss = dissipation_increment(model, state, old, grid.tau)
            assert traj.diss_increments[i - 1] == diss
            work += loading.pairing_delta(old, times[i], times[i - 1])
        assert traj.load_work[i] == work


def test_failing_steps_are_named_by_their_index(monkeypatch):
    # A fast-growing load with a tight max_iter: the first steps solve, a
    # later one does not, and the error names it with its gradient.
    model = MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=2.0, p_psi=2.5, k_radius=4.0)
    quartic = Loading((0.0, 0.0, 0.0, 0.0, 10.0))
    with pytest.raises(SolverNotConverged) as exc:
        run_evolution(
            model, State.material_point(1.0, 1.0), quartic, TimeGrid(1.0, 10),
            MinimizeSettings(max_iter=7),
        )
    assert str(exc.value) == "step 4 not solved: max_iter_exceeded at |grad|_inf 5.124e-09"
    shear_model = MaterialModel(a4=1.0, p_psi=2.5)
    rest = State.shear_column(ShearColumnMesh(4), np.zeros(4), np.zeros(4))
    with pytest.raises(SolverNotConverged) as exc:
        run_evolution(
            shear_model, rest, Loading((0.0, 0.0, 0.0, 0.0, 1.0)), TimeGrid(1.0, 10),
            MinimizeSettings(max_iter=6),
        )
    assert str(exc.value) == "step 8 not solved: max_iter_exceeded at |grad|_inf 3.818e-10"

    # A step 3 that lands on the minimizer for a 500 times longer step, and
    # is charged its true dissipation, is rejected as step 3.
    from visco_pt import stepper

    solve = stepper._solve_incremental

    def overshoot(model, mesh, old, at, r, settings, where):
        if where != "step 3":
            return solve(model, mesh, old, at, r, settings, where)
        y, y_vi, value, w_el, w_vi, diss, iterations, grad_inf = solve(
            model, mesh, old, at, 500.0 * r, settings, where
        )
        charged = dof_dissipation(model, mesh, y_vi, old[1], r)
        return y, y_vi, value - diss + charged, w_el, w_vi, charged, iterations, grad_inf

    monkeypatch.setattr(stepper, "_solve_incremental", overshoot)
    for state0 in (State.material_point(F_O, F_O), shear_start()):
        with pytest.raises(StepRejected) as exc:
            run_evolution(UNIT_MP, state0, Loading((0.2,), (0.1,)), TimeGrid(0.1, 5))
        assert exc.value.index == 3
        assert str(exc.value).startswith("step 3 rejected")


def test_step_without_a_minimizer_fails_at_once():
    # With c_e = c_v = 1 the load of step 6 (1.140) exceeds sqrt(c_e c_v):
    # the reduced curvature c_v - load^2/c_e + d_v/(tau F_vi^2) is negative
    # and the step has no minimizer. It must be named at once, not searched
    # for until max_iter.
    model = MaterialModel(c_e=1.0, c_v=1.0, d_v=2.713)
    loading = Loading((0.2752, 0.2752), (0.1494,))
    start = equilibrate_elastic(model, State.material_point(1.1494, 1.1494), loading, 0.0)
    began = time.perf_counter()
    with pytest.raises(InfeasibleState) as exc:
        run_evolution(model, start, loading, TimeGrid(3.4676, 8))
    assert time.perf_counter() - began < 0.05
    assert re.fullmatch(
        r"step 6 has no admissible minimizer: at F_vi = \S+, \|g'\| = \S+ "
        r"and the reduced curvature g'' = -7\.1\d\de-02",
        str(exc.value),
    )


def test_quadratic_shear_run_evaluates_dissipation_once_per_step(monkeypatch):
    from visco_pt import domain, stepper

    calls = []
    for module in (domain, stepper):
        for name in ("dissipation_increment", "dof_dissipation"):
            if not hasattr(module, name):
                continue

            def counted(*args, _original=getattr(module, name)):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    grid = TimeGrid(t_final=0.5, n_steps=10)
    run_evolution(MaterialModel(), shear_start(), Loading((0.2,)), grid)
    assert len(calls) == grid.n_steps


def test_run_evolution_steps_through_the_public_names(monkeypatch):
    # The step is timed at this name; a run must call it once per step.
    from visco_pt import stepper

    calls = []
    step = stepper.incremental_step

    def counted_step(*args, **kwargs):
        calls.append("step")
        return step(*args, **kwargs)

    monkeypatch.setattr(stepper, "incremental_step", counted_step)
    grid = TimeGrid(t_final=0.5, n_steps=10)
    run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    assert calls == ["step"] * grid.n_steps
    calls.clear()
    run_evolution(MaterialModel(), shear_start(), Loading((0.2,)), grid)
    assert calls == ["step"] * grid.n_steps


# -- condensed shear step -------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    c_e=log_uniform(1e-2, 1e3),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    c_v=log_uniform(1e-2, 1e3),
    d_v=log_uniform(1e-2, 1e3),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 4.0)),
    r=log_uniform(1e-3, 1.0),
    f_hat=st.floats(-1.0, 1.0),
    g_hat=st.floats(-1.0, 1.0),
    data=st.data(),
)
def test_condensed_shear_step_is_stationary_for_the_full_functional(
    n, c_e, a4, c_v, d_v, p_psi, r, f_hat, g_hat, data
):
    # The per-element solves must minimize the full 2n-dof incremental
    # functional. w_el, w_vi and psi are convex in the slopes, so
    # stationarity of that functional, with the gradient of total_energy as
    # the oracle, proves global minimality. A grad_tol below any reachable
    # residual makes each scalar Newton stop at the resolution of b, so the
    # step must be stationary to roundoff. Loads scale with c_v, so the
    # viscous slopes, which lie between b_old and sigma/c_v, stay inside
    # k_radius.
    model = MaterialModel(c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi)
    mesh = ShearColumnMesh(n)
    slopes = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    b_old = np.array(data.draw(slopes))
    old = State.shear_column(mesh, np.array(data.draw(slopes)), b_old)
    f, g = c_v * f_hat, c_v * g_hat
    state = phi_tau(
        model, old, Loading((f,), (g,)), 0.0, r, MinimizeSettings(grad_tol=1e-300)
    ).state

    # Gradient in the slopes of the stored energies and the dissipation...
    _, grad = total_energy(model, state, Loading(), 0.0)
    rate = dissipation_rates(model, state, old, r)
    grad[n:] += mesh.h * np.asarray(model.dpsi(rate))
    # ...minus that of the load pairing f * (trapezoid integral of gamma) +
    # g * gamma(1), with the nodal gamma = h * cumsum(gamma'): the slope of
    # element e moves every node from e up, so its derivative is
    # h * (f * (tail sum of the trapezoid weights from node e) + g).
    weights = np.full(n + 1, mesh.h)
    weights[[0, -1]] = 0.5 * mesh.h
    tails = np.cumsum(weights[::-1])[::-1][1:]
    grad[:n] -= mesh.h * (f * tails + g)

    # Roundoff scale: each term of the element equations written in the
    # slopes (gamma', b), that is each curvature times the slope it
    # multiplies, plus the load.
    s_el = state.gamma - state.beta
    b = state.beta
    sigma = c_v * (g_hat + f_hat * (1.0 - (np.arange(n) + 0.5) / n))
    ddpsi = 0.5 * d_v * p_psi * (p_psi - 1.0) * np.abs(rate) ** (p_psi - 2.0)
    scale = np.max(
        (c_e + 3.0 * a4 * s_el**2) * (np.abs(s_el) + 2.0 * np.abs(b))
        + (c_v + ddpsi / r) * (np.abs(b) + np.abs(b_old))
        + np.abs(sigma)
    )
    assert np.max(np.abs(grad)) <= 1e-13 * scale


# -- elastic equilibration ------------------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    a4=st.just(0.0) | st.floats(0.0, 5.0),
    load=st.floats(-0.5, 0.5),
    start=st.floats(0.8, 1.5),
)
def test_a_step_ends_at_its_elastic_minimizer(a4, load, start):
    # Steps and equilibrate_elastic invert the stress law through the same
    # function, so a stepped state is its own elastic minimizer, bit for bit.
    loading = Loading((load,), (0.5 * load,))
    model = MaterialModel(a4=a4)
    for state0 in (State.material_point(start, start), shear_start(4)):
        traj = run_evolution(model, state0, loading, TimeGrid(t_final=0.5, n_steps=2))
        for i, t in enumerate(traj.grid.times.tolist()[1:], start=1):
            state = traj.states[i]
            minimizer = equilibrate_elastic(model, state, loading, t)
            assert np.array_equal(minimizer.gamma, state.gamma)
            assert np.array_equal(minimizer.beta, state.beta)


def test_equilibrate_mp_linear_stress():
    # a4 = 0: the elastic strain solves c_e s = load * F_vi directly.
    load = Loading((0.1,))
    state = equilibrate_elastic(UNIT_MP, State.material_point(1.5, 1.2), load, 0.0)
    assert state.F_vi == 1.2
    assert state.F == pytest.approx((1.0 + 0.1 * 1.2) * 1.2, abs=1e-12)
    grad = total_energy(UNIT_MP, state, load, 0.0)[1]
    assert abs(grad[0]) < 1e-12


def test_equilibrate_mp_quartic_stress_inversion():
    model = MaterialModel(a4=1.0)
    load = Loading((0.3,))
    state = equilibrate_elastic(model, State.material_point(1.0, 1.1), load, 0.0)
    s = state.F / state.F_vi - 1.0
    assert model.c_e * s + model.a4 * s**3 == pytest.approx(0.3 * 1.1, abs=1e-12)
    grad = total_energy(model, state, load, 0.0)[1]
    assert abs(grad[0]) < 1e-10


@pytest.mark.parametrize("traction", [1e103, -1e103])
def test_equilibrate_a_huge_stress(traction):
    # The elastic strain is the cube root of the stress, past the overflow of
    # the linear start's cube.
    model, load = MaterialModel(a4=1.0), Loading((0.0,), (traction,))
    s = pytest.approx(math.copysign(2.1544346900318836e34, traction), rel=1e-15)
    point = equilibrate_elastic(model, State.material_point(1.0, 1.0), load, 0.0)
    assert point.F / point.F_vi - 1.0 == s
    column = equilibrate_elastic(model, shear_start(), load, 0.0)
    assert all(strain == s for strain in (column.gamma - column.beta).tolist())


def test_one_model_drives_both_geometries():
    # The model carries no geometry: the state's mesh picks the reduction.
    model = MaterialModel(a4=1.0, p_psi=2.5)
    loading = Loading((0.1,), (0.05,))
    grid = TimeGrid(t_final=0.5, n_steps=5)
    for state0 in (State.material_point(1.2, 1.2), shear_start(4)):
        start = equilibrate_elastic(model, state0, loading, 0.0)
        traj = run_evolution(model, start, loading, grid)
        assert traj.mesh is state0.mesh
        assert traj.states[-1].mode == state0.mode
        assert check_energy_inequality(traj, "one").passed


def test_equilibrate_shear_quadratic_is_exact():
    state0 = shear_start()
    model = MaterialModel()
    load = Loading((0.2,), (0.1,))
    state = equilibrate_elastic(model, state0, load, 0.0)
    grad = total_energy(model, state, load, 0.0)[1]
    n = state0.mesh.n_elements
    assert np.max(np.abs(grad[:n])) < 1e-10
    assert np.array_equal(state.beta, state0.beta)


def test_equilibrate_shear_quartic_newton():
    state0 = shear_start()
    model = MaterialModel(a4=1.0)
    load = Loading((0.2,), (0.1,))
    state = equilibrate_elastic(model, state0, load, 0.0)
    grad = total_energy(model, state, load, 0.0)[1]
    n = state0.mesh.n_elements
    assert np.max(np.abs(grad[:n])) < 1e-8
    assert np.array_equal(state.beta, state0.beta)
