"""Incremental minimization stepping: closed-form single steps, substep
envelopes, De Giorgi interpolation, trajectory interpolants, and elastic
equilibration.

Closed forms used as oracles (unit material-point model, zero load, p = 2,
start F = F_vi = F_o): minimizing over the elastic dof gives F = F_vi, and
the remaining scalar problem  1/2 (F_vi - 1)^2 + (F_vi - F_o)^2 / (2 r F_o^2)
has minimizer      G(r)   = (r F_o^2 + F_o) / (r F_o^2 + 1),
value              phi(r) = (F_o - 1)^2 / (2 (1 + r F_o^2)),
rate dissipation   Psi_r  = F_o^2 (F_o - 1)^2 / (2 (1 + r F_o^2)^2),
and exactly        integral_0^tau Psi_r dr
                          = (F_o - 1)^2 tau F_o^2 / (2 (1 + tau F_o^2)).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt import (
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
    de_giorgi_interpolant,
    energy_value,
    equilibrate_elastic,
    incremental_step,
    interpolant,
    load_config,
    phi_tau,
    run_evolution,
    total_energy,
)
from visco_pt.domain import (
    SHEAR_COLUMN,
    dissipation_increment,
    dissipation_rates,
    energy_value,
    pack_dofs,
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


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("f_old", [0.5, 1.0, 1.5, 2.0])
def test_step_matches_closed_form(tau, f_old):
    old = State.material_point(f_old, f_old)
    state, report = incremental_step(
        UNIT_MP, old, ZERO, tau, tau, stored_old=stored_energies(UNIT_MP, old)
    )
    expected = closed_form_minimizer(tau, f_old)
    assert state.F_vi == pytest.approx(expected, abs=1e-9)
    assert state.F == pytest.approx(expected, abs=1e-9)
    assert report.status == "converged"
    assert report.stay_put_margin >= -1e-8


def test_step_spot_value():
    # tau = 0.5, F_o = 1.5: G = (0.5 * 2.25 + 1.5) / (0.5 * 2.25 + 1).
    old = State.material_point(1.5, 1.5)
    state, _ = incremental_step(
        UNIT_MP, old, ZERO, 0.5, 0.5, stored_old=stored_energies(UNIT_MP, old)
    )
    assert state.F_vi == pytest.approx(1.2352941, abs=5e-8)


def test_step_report_fields():
    old = State.material_point(1.5, 1.5)
    state, report = incremental_step(
        UNIT_MP, old, ZERO, 0.25, 0.25, index=7,
        stored_old=stored_energies(UNIT_MP, old),
    )
    assert report.index == 7
    assert report.t == 0.25
    assert report.iterations >= 1
    assert report.diss_increment > 0.0
    # a relaxing step strictly lowers the stay-put energy
    assert report.stay_put_margin > 0.0
    assert state.F_vi < old.F_vi


def test_step_rejected_on_mismatched_operator(monkeypatch):
    # A solve for a 500 times longer substep pulls the state far beyond the
    # true minimizer, so the stay-put comparison must fail.
    from visco_pt import stepper

    solve = stepper._solve_incremental

    def long_substep(model, old, loading, t, r, settings, where=None):
        state, _, _, _, iterations, status = solve(
            model, old, loading, t, 500.0 * r, settings, where
        )
        diss = dissipation_increment(model, state, old, r)
        value = energy_value(model, state, loading, t) + diss
        return state, value, diss, None, iterations, status

    monkeypatch.setattr(stepper, "_solve_incremental", long_substep)
    state0 = shear_start()
    model = MaterialModel(mode=SHEAR_COLUMN)
    load = Loading((0.2,), (0.1,))
    with pytest.raises(StepRejected) as exc:
        incremental_step(
            model, state0, load, 0.0, 0.01, index=3,
            stored_old=stored_energies(model, state0),
        )
    assert exc.value.index == 3
    assert exc.value.margin < -1e-8
    assert "step 3 rejected" in str(exc.value)


@pytest.mark.parametrize("g", [1e3, 3e3, 1e4])
def test_stay_put_tolerance_scales_with_the_energies(g):
    # A soft, stiffly viscous column under a large traction: the energies
    # reach about -5e8, whose rounding alone exceeds the absolute 1e-8, so
    # the stay-put check must allow for the rounding of what it compares.
    model = MaterialModel(mode=SHEAR_COLUMN, c_e=1e-2, c_v=1e3, d_v=1.0, k_radius=100.0)
    mesh = ShearColumnMesh(8)
    state0 = State.shear_column(mesh, np.zeros(8), np.zeros(8))
    traj = run_evolution(model, state0, Loading((0.0,), (g,)), TimeGrid(1.0, 20))
    assert len(traj.step_reports) == 20
    # What the margins lose is rounding of the energies, not minimality.
    worst = min(r.stay_put_margin for r in traj.step_reports)
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
        (MaterialModel(mode=SHEAR_COLUMN, a4=1.0, p_psi=2.5), shear_start(), "step 4"),
    ],
)
def test_step_that_does_not_converge_raises(model, old, where):
    # One iteration cannot reach grad_tol on these nonquadratic objectives:
    # the step must be refused with its index, status and gradient, never
    # accepted with a max_iter_exceeded report.
    with pytest.raises(SolverNotConverged) as exc:
        incremental_step(
            model, old, Loading((0.2,)), 0.5, 0.5, MinimizeSettings(max_iter=1), index=4,
            stored_old=stored_energies(model, old),
        )
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
    old = State.material_point(1.5, 1.5)
    state, report = incremental_step(
        model, old, ZERO, 0.1, 0.1, stored_old=stored_energies(model, old)
    )
    assert report.status == "converged"
    assert 1.0 < state.F_vi < 1.5
    assert report.stay_put_margin >= -1e-8


# -- substep functional (phi_tau) -------------------------------------------


@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 1.0])
def test_phi_tau_matches_closed_form(r):
    old = State.material_point(F_O, F_O)
    pt = phi_tau(UNIT_MP, old, ZERO, 0.0, r)
    assert pt.value == pytest.approx(closed_form_phi(r, F_O), abs=1e-10)
    assert pt.state.F_vi == pytest.approx(closed_form_minimizer(r, F_O), abs=1e-9)
    assert pt.status == "converged"


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
    q, nodes, samples = de_giorgi_integral(traj, 1, 64)
    assert nodes.shape == samples.shape == (64,)
    assert q == pytest.approx(exact, abs=2e-5)


def test_de_giorgi_integral_gauss_convergence_in_samples():
    # Gauss-Legendre on the smooth integrand gains more than a decade per
    # added node (8.2e-3, 4.1e-4, 1.9e-5, 8.0e-7 relative at m = 2..5).
    tau = 0.5
    traj = single_step_trajectory(tau)
    exact = closed_form_de_giorgi_integral(tau)
    errors = [
        abs(de_giorgi_integral(traj, 1, m)[0] - exact) / exact for m in (2, 3, 4, 5)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 10.0
    # The clustered trapezoid with 16 samples this rule replaced was off by
    # 1.7e-3 relative; 4 Gauss nodes must be at least 50 times closer.
    assert errors[2] <= 1.7e-3 / 50.0


def test_de_giorgi_integral_makes_one_solve_per_node(monkeypatch):
    import visco_pt.stepper as stepper

    traj = single_step_trajectory()
    calls = []
    solve = stepper.phi_tau

    def counted(*args, **kwargs):
        calls.append(args[4])
        return solve(*args, **kwargs)

    monkeypatch.setattr(stepper, "phi_tau", counted)
    for m in (2, 4, 7):
        calls.clear()
        _, nodes, _ = de_giorgi_integral(traj, 1, m)
        assert calls == list(nodes)


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
    q = de_giorgi_integral(traj, 1, report.params["m"])[0]
    q32 = de_giorgi_integral(traj, 1, 32)[0]
    error = (p_psi - 1.0) * abs(q - q32)
    assert report.params["m"] == 4
    assert error <= report.params["quadrature_estimate"] + 1e-12 * max(1.0, abs(q32))


def test_de_giorgi_interpolant_endpoint_is_the_step():
    traj = single_step_trajectory()
    state = de_giorgi_interpolant(traj, 1, traj.grid.tau)
    assert np.allclose(
        pack_dofs(state), pack_dofs(traj.states[1]), atol=1e-9
    )


def test_de_giorgi_interpolant_validates_index():
    traj = single_step_trajectory()
    with pytest.raises(ValidationError):
        de_giorgi_interpolant(traj, 0, 0.1)
    with pytest.raises(ValidationError):
        de_giorgi_interpolant(traj, 2, 0.1)
    with pytest.raises(ValidationError):
        de_giorgi_integral(traj, 1, 1)


# -- trajectory interpolants --------------------------------------------------


def test_interpolants_between_nodes():
    grid = TimeGrid(t_final=1.0, n_steps=4)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    t_mid = 0.375  # halfway between t_1 = 0.25 and t_2 = 0.5
    back = interpolant(traj, "backward", t_mid)
    fwd = interpolant(traj, "forward", t_mid)
    aff = interpolant(traj, "affine", t_mid)
    assert back.F_vi == traj.states[2].F_vi
    assert fwd.F_vi == traj.states[1].F_vi
    assert aff.F_vi == pytest.approx(
        0.5 * (traj.states[1].F_vi + traj.states[2].F_vi), abs=1e-14
    )


def test_interpolants_at_grid_nodes():
    grid = TimeGrid(t_final=1.0, n_steps=4)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    for i, t in enumerate(grid.times):
        for which in ("backward", "forward", "affine"):
            assert interpolant(traj, which, float(t)).F_vi == pytest.approx(
                traj.states[i].F_vi, abs=1e-14
            )


def test_interpolant_validation():
    traj = single_step_trajectory()
    with pytest.raises(ValidationError):
        interpolant(traj, "backward", -0.1)
    with pytest.raises(ValidationError):
        interpolant(traj, "backward", traj.grid.t_final + 1.0)
    with pytest.raises(ValidationError):
        interpolant(traj, "cubic", 0.1)


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
    assert all(r.status == "converged" for r in traj.step_reports)
    assert all(r.stay_put_margin >= -1e-8 for r in traj.step_reports)
    energies = np.array([traj.energy(i) for i in range(grid.n_steps + 1)])
    assert np.all(np.diff(energies) < 0.0)


def test_scalar_relaxation_every_step_converges_in_few_iterations():
    # The 3000-step relaxation of the acceptance suite at the default
    # grad_tol = 1e-10: each step must converge, not stop at max_iter, and
    # the material-point solver must not zig-zag.
    grid = TimeGrid(t_final=3.0, n_steps=3000)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    assert all(r.status == "converged" for r in traj.step_reports)
    assert sum(r.iterations for r in traj.step_reports) <= 2 * grid.n_steps


def test_loaded_relaxation_every_step_converges():
    # configs/mp_relax.cfg under a constant load of 0.1: near each minimizer
    # the Newton step's predicted decrease is below the rounding of f, where
    # Armijo alone stalled to max_iter on 8 of the 300 steps.
    config = load_config("configs/mp_relax.cfg")
    grid = config.grid()
    traj = run_evolution(
        config.model(), config.initial_state(), Loading((0.1,)), grid, config.settings()
    )
    assert all(r.status == "converged" for r in traj.step_reports)
    assert sum(r.iterations for r in traj.step_reports) <= 3 * grid.n_steps


def test_trajectory_delta_is_cumulative_dissipation():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    delta = traj.delta
    assert delta[0] == 0.0
    assert np.allclose(np.diff(delta), traj.diss_increments, atol=1e-16)
    assert np.all(traj.diss_increments > 0.0)


def test_run_evolution_shear_quadratic_margins():
    state0 = shear_start()
    model = MaterialModel(mode=SHEAR_COLUMN)
    load = Loading((0.0, 0.2), (0.1,))
    grid = TimeGrid(t_final=0.5, n_steps=10)
    traj = run_evolution(model, state0, load, grid)
    assert all(r.stay_put_margin >= -1e-8 for r in traj.step_reports)
    # the quadratic shear model is solved per element in closed form
    assert all(r.status == "converged" for r in traj.step_reports)
    assert all(r.iterations == 0 for r in traj.step_reports)


@pytest.mark.parametrize("shear", [False, True])
def test_trajectory_carries_stored_energies_read_only(shear):
    grid = TimeGrid(t_final=0.5, n_steps=10)
    if shear:
        model, state0, load = MaterialModel(mode=SHEAR_COLUMN), shear_start(), Loading((0.0, 0.2), (0.1,))
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


def test_quadratic_shear_run_evaluates_dissipation_once_per_step(monkeypatch):
    from visco_pt import domain, stepper

    calls = []
    for module in (domain, stepper):
        def counted(*args, _original=module.dissipation_increment):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "dissipation_increment", counted)
    grid = TimeGrid(t_final=0.5, n_steps=10)
    run_evolution(MaterialModel(mode=SHEAR_COLUMN), shear_start(), Loading((0.2,)), grid)
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
    run_evolution(MaterialModel(mode=SHEAR_COLUMN), shear_start(), Loading((0.2,)), grid)
    assert calls == ["step"] * grid.n_steps


# -- condensed shear step -------------------------------------------------------


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


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
    model = MaterialModel(
        mode=SHEAR_COLUMN, c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi
    )
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


def test_equilibrate_shear_quadratic_is_exact():
    state0 = shear_start()
    model = MaterialModel(mode=SHEAR_COLUMN)
    load = Loading((0.2,), (0.1,))
    state = equilibrate_elastic(model, state0, load, 0.0)
    grad = total_energy(model, state, load, 0.0)[1]
    n = state0.mesh.n_elements
    assert np.max(np.abs(grad[:n])) < 1e-10
    assert np.array_equal(state.beta, state0.beta)


def test_equilibrate_shear_quartic_newton():
    state0 = shear_start()
    model = MaterialModel(mode=SHEAR_COLUMN, a4=1.0)
    load = Loading((0.2,), (0.1,))
    state = equilibrate_elastic(model, state0, load, 0.0)
    grad = total_energy(model, state, load, 0.0)[1]
    n = state0.mesh.n_elements
    assert np.max(np.abs(grad[:n])) < 1e-8
    assert np.array_equal(state.beta, state0.beta)
