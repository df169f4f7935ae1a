"""Verification harness: report plumbing, energy inequalities, semistability
probes, substep monotonicity, convergence studies, and density limits.

All residuals share one sign convention: positive means the inequality under
test holds, and a report passes exactly when min(residuals) >= -tolerance.
"""

import json

import numpy as np
import pytest

from visco_pt import (
    Loading,
    MaterialModel,
    ShearColumnMesh,
    State,
    TimeGrid,
    ValidationError,
    VerificationReport,
    check_energy_inequality,
    check_monotonicity,
    check_semistability,
    density_convergence,
    epsilon_study,
    rk4_viscous_oracle,
    run_evolution,
    semistability_sweep,
    tau_convergence,
)
from visco_pt.analysis import _perturb_elastic, fit_rate
from visco_pt.linearized import LinState

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
    solve = stepper.phi_tau

    def counted(*args, **kwargs):
        calls.append(args[4])
        return solve(*args, **kwargs)

    monkeypatch.setattr(stepper, "phi_tau", counted)
    for report in (
        check_energy_inequality(traj, factor="p_psi"),
        check_energy_inequality(traj, factor="p_psi", m=4),
    ):
        assert report.params["m"] == 4
        assert report.passed
    assert len(calls) == 2 * 6 * traj.grid.n_steps


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


def test_semistability_at_grid_time():
    traj = relax_trajectory()
    report = check_semistability(traj, 0.5, n_probes=10, amplitudes=(1e-2, 1e-1))
    assert report.passed
    assert len(report.residuals) == 20
    assert report.min_residual >= -1e-8


def test_semistability_rejects_non_grid_time():
    traj = relax_trajectory()
    with pytest.raises(ValidationError):
        check_semistability(traj, 0.123)


def test_semistability_sweep_covers_stride_and_endpoint():
    traj = relax_trajectory()
    report = semistability_sweep(traj, stride=10, n_probes=5)
    # times 0, 0.5, 1.0 with 5 probes x 2 amplitudes each
    assert report.params["times_checked"] == [0.0, 0.5, 1.0]
    assert len(report.residuals) == 30
    assert report.passed
    with pytest.raises(ValidationError):
        semistability_sweep(traj, stride=0)


def test_semistability_is_seed_deterministic():
    traj = relax_trajectory()
    a = check_semistability(traj, 1.0, seed=3)
    b = check_semistability(traj, 1.0, seed=3)
    c = check_semistability(traj, 1.0, seed=4)
    assert a.residuals == b.residuals
    assert a.residuals != c.residuals


def test_shear_probe_moves_the_nodal_profile_by_the_direction():
    # The probe is defined on the nodal values gamma(x_1..x_n) above the
    # clamped bottom; on the slope state it must move exactly those.
    rng = np.random.default_rng(8)
    for n in (1, 5, 16):
        mesh = ShearColumnMesh(n)
        state = State.shear_column(
            mesh, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        )
        direction = rng.uniform(-1.0, 1.0, n)
        moved = _perturb_elastic(state, direction, 0.1)
        # the rebuilt profile h * cumsum(gamma') moves at nodes 1..n by:
        shift = mesh.h * np.cumsum(moved.gamma - state.gamma)
        np.testing.assert_allclose(shift, 0.1 * direction, rtol=0.0, atol=1e-15)
        assert np.array_equal(moved.beta, state.beta)


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
    model = MaterialModel(mode="shear_column", a4=1.0)
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
    model = MaterialModel(mode="shear_column")
    grid = TimeGrid(t_final=0.2, n_steps=40)
    report = epsilon_study(
        model, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.2, 0.1, 0.05]
    )
    assert report.passed
    assert set(report.params["regimes"].values()) == {"floor"}
    assert max(report.params["err_u"]) <= 1e-7
    assert max(report.params["err_v"]) <= 1e-7


def test_epsilon_study_single_eps_reports_gaps_only():
    model = MaterialModel(mode="shear_column")
    grid = TimeGrid(t_final=0.1, n_steps=10)
    report = epsilon_study(
        model, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.1]
    )
    assert report.params["regime"] == "gaps_only"
    assert report.residuals == [0.0]
    assert report.passed


def test_epsilon_study_validates_eps_list():
    model = MaterialModel(mode="shear_column")
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
