"""Verification harness: report plumbing, energy inequalities, semistability
against the elastic minimizer, substep monotonicity, convergence studies, and
density limits.

All residuals share one sign convention: positive means the inequality under
test holds, and a report passes exactly when min(residuals) >= -tolerance.
"""

import dataclasses
import json

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
    TimeGrid,
    ValidationError,
    VerificationReport,
    check_energy_inequality,
    check_monotonicity,
    de_giorgi_integral,
    density_convergence,
    energy_value,
    epsilon_study,
    equilibrate_elastic,
    load_config,
    phi_tau,
    rk4_viscous_oracle,
    run_evolution,
    semistability_sweep,
    tau_convergence,
)
from visco_pt.analysis import INEQUALITY_TOL, fit_rate
from visco_pt.domain import stored_energies
from visco_pt.linearized import LinState
from visco_pt.stepper import de_giorgi_rule

UNIT_MP = MaterialModel()
ZERO = Loading()


def relax_trajectory(n_steps=20, t_final=1.0):
    grid = TimeGrid(t_final=t_final, n_steps=n_steps)
    return run_evolution(UNIT_MP, State.material_point(1.5, 1.5), ZERO, grid)


# -- report plumbing --------------------------------------------------------------


def test_report_pass_is_derived_from_min_residual():
    ok = VerificationReport.build("demo", {}, [0.1, -0.5e-9], tolerance=1e-9)
    assert ok.passed
    assert ok.min_residual == -0.5e-9
    bad = VerificationReport.build("demo", {}, [0.1, -2e-9], tolerance=1e-9)
    assert not bad.passed
    empty = VerificationReport.build("demo", {}, [])
    assert empty.passed
    assert empty.min_residual == 0.0


def test_report_as_dict_round_trips_through_json():
    report = VerificationReport.build(
        "demo",
        {"arr": np.array([1.0, 2.0]), "np_int": np.int64(3), "np_f": np.float64(0.5)},
        [np.float64(0.25)],
        rates={"order": np.float64(1.5)},
        tolerance=1e-8,
    )
    payload = report.as_dict()
    assert payload["pass"] is True
    assert set(payload) == {
        "check", "params", "residuals", "rates", "tolerance", "pass",
    }
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["params"]["arr"] == [1.0, 2.0]


def test_fit_rate_recovers_exact_slope():
    params = [0.1, 0.05, 0.025]
    errors = [3.0 * p**2 for p in params]
    assert fit_rate(params, errors) == pytest.approx(2.0, abs=1e-12)
    assert fit_rate([0.1], [1.0]) is None
    assert fit_rate([0.1, 0.05], [0.0, 0.0]) is None
    # zero entries are skipped, not propagated
    assert fit_rate([0.1, 0.05, 0.025], [0.0, 1e-3, 1e-4]) is not None


# -- energy inequalities -------------------------------------------------------------


def test_energy_inequality_at_rest_is_exactly_zero():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(UNIT_MP, State.material_point(1.0, 1.0), ZERO, grid)
    report = check_energy_inequality(traj, factor="one")
    assert report.passed
    assert np.max(np.abs(report.residuals)) < 1e-12
    assert report.params["quadrature_estimate"] is None


def test_energy_inequality_factor_one_relaxation():
    report = check_energy_inequality(relax_trajectory(), factor="one")
    assert report.passed
    assert report.min_residual >= -1e-8
    assert len(report.residuals) == 20
    assert report.tolerance == 1e-8


def test_energy_inequality_sharp_identity_mode():
    report = check_energy_inequality(relax_trajectory(), factor="p_psi", m=16)
    assert report.params["equality_mode"] is True
    assert report.passed
    # equality residuals are stored as -|raw|
    assert all(r <= 0.0 for r in report.residuals)
    e0 = relax_trajectory().energy(0)
    assert report.tolerance == pytest.approx(max(1e-3 * abs(e0), 1e-12))
    assert report.params["quadrature_estimate"] > 0.0


def test_energy_inequality_sharp_identity_tightens_with_m():
    # Gauss-Legendre 2 -> 3; from 4 nodes on both residuals sit at roundoff.
    traj = relax_trajectory()
    coarse = check_energy_inequality(traj, factor="p_psi", m=2)
    fine = check_energy_inequality(traj, factor="p_psi", m=3)
    assert abs(fine.min_residual) < abs(coarse.min_residual)


def test_energy_inequality_sharp_makes_six_substep_solves_per_step(monkeypatch):
    # The default m = 4 Gauss nodes for the integral plus m // 2 = 2 for its
    # error estimate.
    import visco_pt.stepper as stepper

    traj = relax_trajectory()
    calls = []
    solve = stepper._solve_incremental

    def counted(*args):
        calls.append(args[4])
        return solve(*args)

    monkeypatch.setattr(stepper, "_solve_incremental", counted)
    for report in (
        check_energy_inequality(traj, factor="p_psi"),
        check_energy_inequality(traj, factor="p_psi", m=4),
    ):
        assert report.params["m"] == 4
        assert report.passed
    assert len(calls) == 2 * 6 * traj.grid.n_steps


def test_energy_sharp_inverts_each_stress_law_once_per_step(monkeypatch):
    # At most once per element and step; in fact not at all: the substep
    # rate dissipation of a shear column depends on the viscous slopes
    # alone, and the batched substeps solve no elastic strain.
    import visco_pt.kernels as kernels

    model = MaterialModel(a4=1.0)
    mesh = ShearColumnMesh(4)
    state0 = State.shear_column(mesh, np.full(4, 0.5), np.full(4, 0.4))
    traj = run_evolution(model, state0, Loading((0.3,), (0.2,)), TimeGrid(1.0, 5))
    calls = []
    invert = kernels._strain

    def counted(*args):
        calls.append(args[2])
        return invert(*args)

    monkeypatch.setattr(kernels, "_strain", counted)
    assert check_energy_inequality(traj, factor="p_psi").passed
    assert calls == []


def first_failing_substep(traj, solver, error):
    """``(where, grad_inf)`` of the first substep, in step and node order,
    whose lone :func:`phi_tau` solve under the settings ``solver`` raises
    ``error``."""
    nodes, _ = de_giorgi_rule(traj.grid.tau, 4)
    coarse, _ = de_giorgi_rule(traj.grid.tau, 2)
    for n in range(1, traj.grid.n_steps + 1):
        for r in nodes.tolist() + coarse.tolist():
            try:
                phi_tau(traj.model, traj.states[n - 1], traj.loading,
                        float(traj.grid.times[n]), r, solver)
            except error as exc:
                return f"step {n}, substep r={r!r}", getattr(exc, "grad_inf", None)
    return None


@pytest.mark.parametrize("max_iter", [1, 5, 7])
def test_energy_sharp_names_the_first_shear_substep_that_does_not_converge(max_iter):
    # Under t^4 the first steps barely move and converge in few iterations,
    # so with more iterations allowed the first failure moves to later steps.
    model = MaterialModel(a4=1.0, p_psi=3.0)
    rest = State.shear_column(ShearColumnMesh(4), np.zeros(4), np.zeros(4))
    quartic = Loading((0.0, 0.0, 0.0, 0.0, 1.0))
    traj = run_evolution(model, rest, quartic, TimeGrid(1.0, 10))
    capped = MinimizeSettings(max_iter=max_iter)
    where, grad_inf = first_failing_substep(traj, capped, SolverNotConverged)
    with pytest.raises(SolverNotConverged) as exc:
        check_energy_inequality(dataclasses.replace(traj, settings=capped), "p_psi")
    assert exc.value.where == where
    assert exc.value.grad_inf == grad_inf
    assert str(exc.value).startswith(f"{where} not solved: max_iter_exceeded")


def test_energy_sharp_names_a_material_point_substep_without_a_minimizer():
    # Under the load 10 the reduced curvature c_v - load^2/c_e + d_v/(r a^2)
    # is negative at the first node of step 1: the substep has no minimizer.
    traj = dataclasses.replace(relax_trajectory(2, 0.2), loading=Loading((10.0,)))
    where, _ = first_failing_substep(traj, traj.settings, InfeasibleState)
    with pytest.raises(InfeasibleState) as exc:
        check_energy_inequality(traj, "p_psi")
    assert where == f"step 1, substep r={de_giorgi_rule(0.1, 4)[0].tolist()[0]!r}"
    assert str(exc.value).startswith(f"{where} has no admissible minimizer")
    assert "reduced curvature g'' = -" in str(exc.value)


def test_energy_sharp_names_the_first_shear_substep_outside_the_radius():
    # The viscous slopes grow from 0.4 past 0.41 during step 2.
    mesh = ShearColumnMesh(4)
    start = State.shear_column(mesh, np.full(4, 0.5), np.full(4, 0.4))
    traj = run_evolution(UNIT_MP, start, Loading((0.3,), (0.2,)), TimeGrid(1.0, 5))
    traj = dataclasses.replace(traj, model=MaterialModel(k_radius=0.41))
    where, _ = first_failing_substep(traj, traj.settings, InfeasibleState)
    with pytest.raises(InfeasibleState) as exc:
        check_energy_inequality(traj, "p_psi")
    assert where.startswith("step 2, ")
    assert str(exc.value) == f"{where} leaves the admissible radius 0.41"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    shear=st.booleans(),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0, exclude_min=True)),
    c_v=st.floats(0.5, 1.5),
    d_v=st.floats(0.5, 2.0),
    f=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    g=st.floats(-0.2, 0.2),
    start=st.floats(-0.4, 0.4),
    n_steps=st.integers(1, 4),
    n_elements=st.integers(1, 12),
    shift=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
)
def test_array_passes_equal_the_per_state_functions(
    shear, a4, p_psi, c_v, d_v, f, g, start, n_steps, n_elements, shift
):
    # de_giorgi_integral and semistability_sweep judge a whole trajectory at
    # once; each value must equal, bit for bit, what phi_tau and
    # equilibrate_elastic + energy_value give state by state. A stepped state
    # is its own elastic minimizer, so ``shift`` moves the elastic dofs off it.
    model = MaterialModel(a4=a4, p_psi=p_psi, c_v=c_v, d_v=d_v)
    loading = Loading(f, (g,))
    if shear:
        mesh = ShearColumnMesh(n_elements)
        state0 = State.shear_column(mesh, np.zeros(n_elements), np.full(n_elements, start))
    else:
        state0 = State.material_point(1.0 + start, 1.0 + start)
    state0 = equilibrate_elastic(model, state0, loading, 0.0)
    traj = run_evolution(model, state0, loading, TimeGrid(0.5, n_steps))
    traj = moved(traj, traj.dofs + np.array([shift, 0.0])[:, None])
    times = traj.grid.times.tolist()

    nodes, weights = de_giorgi_rule(traj.grid.tau, 4)
    coarse_nodes, coarse_weights = de_giorgi_rule(traj.grid.tau, 2)

    def quadrature(rule_nodes, rule_weights, n):
        rates = [
            phi_tau(model, traj.states[n - 1], loading, times[n], r).rate_dissipation
            for r in rule_nodes.tolist()
        ]
        return float(rule_weights @ np.array(rates))

    fine = [quadrature(nodes, weights, n) for n in range(1, n_steps + 1)]
    coarse = [quadrature(coarse_nodes, coarse_weights, n) for n in range(1, n_steps + 1)]
    integral, estimate = de_giorgi_integral(traj, 4)
    assert integral.tolist() == fine
    assert estimate.tolist() == [abs(a - b) for a, b in zip(fine, coarse)]

    gaps = [
        energy_value(model, equilibrate_elastic(model, state, loading, t), loading, t)
        - traj.energy(i)
        for i, (state, t) in enumerate(zip(traj.states, times))
    ]
    assert semistability_sweep(traj).residuals == gaps


def test_energy_inequality_loaded_uses_quadrature_tolerance():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(
        UNIT_MP, State.material_point(1.5, 1.5), Loading((0.1,)), grid
    )
    report = check_energy_inequality(traj, factor="p_psi", m=8)
    assert report.params["equality_mode"] is False
    assert report.tolerance == pytest.approx(
        1e-8 + report.params["quadrature_estimate"]
    )
    assert report.passed


def test_energy_inequality_rejects_unknown_factor():
    with pytest.raises(ValidationError):
        check_energy_inequality(relax_trajectory(5, 0.25), factor="two")


# -- semistability ----------------------------------------------------------------


def shipped_trajectory(name):
    config = load_config(f"configs/{name}.cfg")
    return run_evolution(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.grid(),
        config.settings(),
    )


def moved(traj, dofs):
    """The trajectory with the dofs ``dofs`` and their stored energies."""
    traj = dataclasses.replace(traj, dofs=dofs)
    stored = np.array([stored_energies(traj.model, s) for s in traj.states])
    return dataclasses.replace(traj, stored=stored)


def test_semistability_at_grid_time():
    # Zero load, quadratic densities: at the state (F, F_vi) the elastic
    # minimizer is (F_vi, F_vi), below it by c_e / 2 * (F / F_vi - 1)^2.
    traj = relax_trajectory()
    dofs = traj.dofs.copy()
    dofs[10, 0] += 0.1
    report = semistability_sweep(moved(traj, dofs))
    F, F_vi = dofs[10, :, 0]
    assert report.residuals[10] == pytest.approx(-0.5 * (F / F_vi - 1.0) ** 2)
    assert report.params["worst_step_index"] == 10
    assert not report.passed


def test_semistability_sweep_covers_every_grid_time():
    traj = relax_trajectory()
    report = semistability_sweep(traj)
    assert report.params["times_checked"] == traj.grid.n_steps + 1
    assert len(report.residuals) == traj.grid.n_steps + 1
    assert report.passed


def test_semistability_fails_on_a_shifted_material_point():
    # A stepped state is the exact elastic minimizer: every gap is 0. Moving
    # F by 1e-3 moves the elastic strain by 1e-3 / F_vi and leaves the gap
    # c_e / 2 * (1e-3 / F_vi)^2 (about -3.8e-7), far beyond the tolerance.
    traj = shipped_trajectory("mp_loaded")
    report = semistability_sweep(traj)
    assert report.passed
    assert report.residuals == [0.0] * (traj.grid.n_steps + 1)
    assert report.params["max_stress_residual"] <= 1e-15
    dofs = traj.dofs.copy()
    dofs[:, 0] += 1e-3
    shifted = semistability_sweep(moved(traj, dofs))
    assert not shifted.passed
    worst = -0.5 * (1e-3 / np.min(dofs[:, 1])) ** 2
    assert shifted.min_residual == pytest.approx(worst, rel=1e-6)
    assert shifted.min_residual < -10.0 * INEQUALITY_TOL
    assert shifted.params["max_stress_residual"] >= 1e-4


def test_semistability_fails_on_one_shifted_shear_element():
    traj = shipped_trajectory("shear_quadratic")
    report = semistability_sweep(traj)
    assert report.passed
    assert report.residuals == [0.0] * (traj.grid.n_steps + 1)
    dofs = traj.dofs.copy()
    dofs[30, 0, 5] += 1e-3
    shifted = semistability_sweep(moved(traj, dofs))
    assert not shifted.passed
    assert shifted.params["worst_step_index"] == 30
    # h * c_e / 2 * (1e-3)^2 with h = 1/16
    assert shifted.min_residual == pytest.approx(-0.5e-6 / 16, rel=1e-6)


# -- substep monotonicity -----------------------------------------------------------


def test_monotonicity_increasing_substeps():
    report = check_monotonicity(
        State.material_point(1.5, 1.5), 0.0, [0.1, 0.2, 0.5, 1.0], UNIT_MP
    )
    assert report.passed
    values = report.params["values"]
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))
    assert len(report.residuals) == 3


def test_monotonicity_allows_duplicates():
    report = check_monotonicity(
        State.material_point(1.5, 1.5), 0.0, [0.2, 0.2], UNIT_MP
    )
    assert report.passed
    assert report.residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_monotonicity_validates_tau_list():
    old = State.material_point(1.5, 1.5)
    with pytest.raises(ValidationError):
        check_monotonicity(old, 0.0, [0.5, 0.1], UNIT_MP)
    with pytest.raises(ValidationError):
        check_monotonicity(old, 0.0, [0.0, 0.1], UNIT_MP)


# -- tau convergence -----------------------------------------------------------------


def test_rk4_oracle_self_convergence():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    coarse = rk4_viscous_oracle(UNIT_MP, 1.5, times, substep=1e-3)
    fine = rk4_viscous_oracle(UNIT_MP, 1.5, times, substep=1e-4)
    assert np.max(np.abs(coarse - fine)) < 1e-10
    assert np.all(np.diff(fine) < 0.0)
    assert np.all(fine >= 1.0)


def test_tau_convergence_first_order_window():
    report = tau_convergence(
        UNIT_MP,
        State.material_point(1.5, 1.5),
        ZERO,
        1.0,
        [0.1, 0.05, 0.025, 0.0125],
    )
    assert report.passed
    assert report.params["regime"] == "rate"
    assert 0.9 <= report.rates["order"] <= 1.3
    assert len(report.params["errors"]) == 4
    assert all(e > 0.0 for e in report.params["errors"])


@pytest.mark.parametrize(
    "t_final, taus",
    [(3.0, [0.1, 0.05, 0.025, 0.0125]), (3.0, [0.1, 0.075]), (1.0, [0.25, 0.2, 0.1])],
)
def test_tau_sweep_integrates_the_oracle_once(monkeypatch, t_final, taus):
    # One RK4 pass over the union of the grids' times serves every tau, also
    # when the grids do not nest (0.1 and 0.075 on [0, 3]: 30 and 40 steps),
    # and its samples agree with a separate pass per grid to roundoff.
    from visco_pt import analysis

    calls = []
    oracle = analysis.rk4_viscous_oracle

    def counted(model, f_vi0, times, *args):
        calls.append(len(times))
        return oracle(model, f_vi0, times, *args)

    monkeypatch.setattr(analysis, "rk4_viscous_oracle", counted)
    trajs, report = analysis.tau_sweep(
        UNIT_MP, State.material_point(1.5, 1.5), ZERO, t_final, taus
    )
    assert len(calls) == 1
    assert calls[0] <= sum(traj.grid.n_steps + 1 for traj in trajs.values())
    for traj, error in zip(trajs.values(), report.params["errors"]):
        separate = oracle(UNIT_MP, 1.5, traj.grid.times)
        assert error == pytest.approx(
            float(np.max(np.abs(traj.dofs[:, 1, 0] - separate))), abs=1e-15
        )


def test_tau_convergence_validations():
    state0 = State.material_point(1.5, 1.5)
    with pytest.raises(ValidationError):
        tau_convergence(UNIT_MP, state0, Loading((0.1,)), 1.0, [0.1, 0.05])
    with pytest.raises(ValidationError):
        tau_convergence(UNIT_MP, state0, ZERO, 1.0, [0.1])
    with pytest.raises(ValidationError):
        tau_convergence(UNIT_MP, state0, ZERO, 1.0, [0.4, 0.3])


# -- epsilon study -------------------------------------------------------------------


def shear_lin0(n=4):
    return LinState.shear_column(ShearColumnMesh(n), np.full(n, 0.3), np.full(n, 0.2))


def test_epsilon_study_quartic_rates():
    model = MaterialModel(a4=1.0)
    grid = TimeGrid(t_final=0.2, n_steps=40)
    report = epsilon_study(
        model, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.2, 0.1, 0.05]
    )
    assert report.passed
    regimes = report.params["regimes"]
    # statics pin the viscous displacement exactly in this geometry
    assert regimes["v"] == "floor"
    assert regimes["u"] == "rate"
    assert regimes["energy_t0"] == "rate"
    assert report.rates["u"] == pytest.approx(2.0, abs=0.1)
    assert report.rates["energy_t0"] == pytest.approx(2.0, abs=1e-6)


def test_epsilon_study_quadratic_hits_floor():
    model = MaterialModel()
    grid = TimeGrid(t_final=0.2, n_steps=40)
    report = epsilon_study(
        model, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.2, 0.1, 0.05]
    )
    assert report.passed
    assert set(report.params["regimes"].values()) == {"floor"}
    assert max(report.params["err_u"]) <= 1e-7
    assert max(report.params["err_v"]) <= 1e-7


def test_epsilon_study_single_eps_reports_gaps_only():
    model = MaterialModel()
    grid = TimeGrid(t_final=0.1, n_steps=10)
    report = epsilon_study(
        model, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.1]
    )
    assert report.params["regime"] == "gaps_only"
    assert report.residuals == [0.0]
    assert report.passed


def test_epsilon_study_validates_eps_list():
    model = MaterialModel()
    grid = TimeGrid(t_final=0.1, n_steps=10)
    with pytest.raises(ValidationError):
        epsilon_study(model, shear_lin0(), ZERO, grid, [0.05, 0.1])
    with pytest.raises(ValidationError):
        epsilon_study(model, shear_lin0(), ZERO, grid, [0.1, -0.05])


# -- density convergence ----------------------------------------------------------


def test_density_convergence_quadratic_is_exact():
    report = density_convergence(UNIT_MP, [0.1, 0.05])
    assert report.passed
    assert report.residuals == [0.0, 0.0, 0.0]
    assert report.rates == {}
    assert max(max(g) for g in report.params["gaps"].values()) <= 1e-15


@pytest.mark.parametrize(
    "coefficients", [{"d_v": 1e3}, {"c_e": 1e6}, {"c_v": 1e6}]
)
def test_density_convergence_zero_gap_scales_with_the_coefficient(coefficients):
    # Quadratic densities have no gap. Their rounding grows with the
    # coefficient (1.1e-13 at d_v = 1e3, 1.2e-10 at 1e6); fitting a rate to
    # it gives about 0, which must not fail the check.
    report = density_convergence(MaterialModel(**coefficients), [0.2, 0.1, 0.05])
    assert report.passed
    assert report.residuals == [0.0, 0.0, 0.0]
    assert report.rates == {}


def test_density_convergence_quartic_rate_two():
    model = MaterialModel(a4=1.0)
    report = density_convergence(model, [0.1, 0.05])
    assert report.passed
    # on |a| <= 1 the quartic remainder peaks at eps^2 / 4 exactly
    assert report.params["gaps"]["el"][0] == pytest.approx(0.1**2 / 4.0, abs=1e-12)
    assert report.params["gaps"]["el"][1] == pytest.approx(0.05**2 / 4.0, abs=1e-12)
    assert report.rates["el"] == pytest.approx(2.0, abs=1e-6)


def test_density_convergence_validations():
    with pytest.raises(ValidationError):
        density_convergence(UNIT_MP, [0.1, 0.0])
    with pytest.raises(ValidationError):
        density_convergence(UNIT_MP, [0.1], probe_grid=np.array([]))
    with pytest.raises(ValidationError):
        density_convergence(UNIT_MP, [0.1], probe_grid=np.array([np.inf]))
