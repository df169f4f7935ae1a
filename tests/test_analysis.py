"""Verification harness: report plumbing, energy inequalities, semistability
against the elastic minimizer, substep monotonicity, convergence studies, and
density limits.

All residuals share one sign convention: positive means the inequality under
test holds, and a report passes exactly when min(residuals) >= -tolerance.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cli,
    density_convergence,
    energy_value,
    eps_sweep,
    equilibrate_elastic,
    kernels,
    load_config,
    parse_config,
    run_evolution,
    semistability_sweep,
    tau_sweep,
    viscous_flow,
)
from visco_pt.analysis import EQUALITY_TOL, INEQUALITY_TOL, _judge_rates, fit_rate
from visco_pt.domain import stored_energies
from visco_pt.kernels import RESOLUTION

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


@pytest.mark.parametrize("residuals", [[1.0, math.nan], [math.nan, 1.0]])
def test_report_with_a_nan_residual_fails_in_any_order(residuals, capsys):
    # min() of a list holding a NaN depends on where the NaN stands; a NaN
    # residual fails the report, and the failure names the NaN.
    report = VerificationReport.build("demo", {}, residuals, tolerance=1e-9)
    assert not report.passed
    assert math.isnan(report.min_residual)
    assert cli._emit_failures([report]) == 2
    assert "min residual nan" in capsys.readouterr().err


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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "series, regimes, rates, residuals",
    [
        # every error at its floor: one residual 0, no rate
        ([("e", [1e-9, 0.0, 1e-9], 1e-8, 0.9, True)], {"e": "floor"}, {}, [0.0]),
        # a falling series adds its consecutive differences, after the series before it
        (
            [("a", [0.0] * 3, 0.0, None, True), ("b", [4.0, 2.0, 1.0], 0.0, None, True)],
            {"a": "floor", "b": "rate"}, {"b": 1.0}, [0.0, 2.0, 1.0],
        ),
        # a rise fails
        ([("e", [1.0, 2.0, 1.0], 0.0, None, True)], {"e": "rate"}, {"e": 0.0}, [-1.0, 1.0]),
        # a gate that is missed
        ([("e", [4.0, 2.0, 1.0], 0.0, 1.9, False)], {"e": "rate"}, {"e": 1.0}, [-0.9]),
        # no rate can be fitted to one positive error
        ([("e", [1.0, 0.0, 0.0], 0.5, 0.9, False)], {"e": "rate"}, {}, [-INF]),
        # a NaN error fails wherever it stands
        ([("e", [NAN, 2.0, 1.0], 0.0, 0.9, False)], {"e": "rate"}, {"e": 1.0}, [0.1, -INF]),
        ([("e", [4.0, 2.0, NAN], 0.0, 0.9, False)], {"e": "rate"}, {"e": 1.0}, [0.1, -INF]),
    ],
    ids=["floor", "falling", "rise", "gate-missed", "no-rate", "nan-first", "nan-last"],
)
def test_judge_rates(series, regimes, rates, residuals):
    judged = _judge_rates([0.4, 0.2, 0.1], series)
    assert judged[0] == regimes
    assert judged[1] == pytest.approx(rates, abs=1e-12)
    assert judged[2] == pytest.approx(residuals, abs=1e-12)
    passed = VerificationReport.build("demo", {}, judged[2]).passed
    assert passed == (min(residuals) >= 0.0)


# -- energy inequalities -------------------------------------------------------------


def test_energy_inequality_at_rest_is_exactly_zero():
    grid = TimeGrid(t_final=0.5, n_steps=5)
    traj = run_evolution(UNIT_MP, State.material_point(1.0, 1.0), ZERO, grid)
    report = check_energy_inequality(traj, factor="one")
    assert report.passed
    assert np.max(np.abs(report.residuals)) < 1e-12
    assert report.params["equality_mode"] is False


def test_energy_inequality_factor_one_relaxation():
    report = check_energy_inequality(relax_trajectory(), factor="one")
    assert report.passed
    assert report.min_residual >= -1e-8
    assert len(report.residuals) == 20
    assert report.tolerance == 1e-8


def test_energy_inequality_sharp_identity_mode(monkeypatch):
    # Under loads constant in time, from a start at its own elastic
    # minimizer, every step closes on the energy of the step before: the
    # sharp form is an identity at any p_psi, in either geometry. A Newton
    # step is off its identity by its residual times the distance it moves,
    # which the tolerance takes from the ledger: under GRAD_TOL = 1e-7 this
    # column is off by 6.7e-8, 670 times EQUALITY_TOL.
    model = MaterialModel(a4=1.0, p_psi=2.5)
    loading = Loading((0.2,), (0.1,))
    column = State.shear_column(ShearColumnMesh(8), np.zeros(8), np.full(8, 0.4))
    column = equilibrate_elastic(model, column, loading, 0.0)
    grid = TimeGrid(3.0, 30)

    def run(tol):
        monkeypatch.setattr(kernels, "GRAD_TOL", tol)
        return run_evolution(model, column, loading, grid), tol

    runs = [(relax_trajectory(), 1e-10)] + [run(tol) for tol in (1e-10, 1e-7)]
    for traj, grad_tol in runs:
        report = check_energy_inequality(traj, factor="p_psi")
        assert report.params["equality_mode"] is True
        assert report.passed
        # equality residuals are stored as -|raw|
        assert all(r <= 0.0 for r in report.residuals)
        floor = EQUALITY_TOL * max(1.0, abs(traj.energy(0)))
        moved = np.abs(np.diff(traj.dofs[:, 1], axis=0)).sum()
        assert floor <= report.tolerance <= floor + grad_tol * moved
    assert runs[-1][0] is traj and report.min_residual < -10.0 * EQUALITY_TOL


def test_energy_sharp_inverts_each_stress_law_once_per_step(monkeypatch):
    # At most once per element and step, and once per element of the start,
    # which the equality mode asks for its elastic minimizer. A material
    # point with a4 > 0 inverts once per step, for the energy of the anchor
    # reduced over the elastic variable; a shear column needs no step's: its
    # Bregman gap depends on the viscous slopes alone.
    import visco_pt.kernels as kernels

    model = MaterialModel(a4=1.0)
    loading = Loading((0.3,), (0.2,))
    grid = TimeGrid(1.0, 5)
    column = State.shear_column(ShearColumnMesh(4), np.full(4, 0.5), np.full(4, 0.4))
    point = equilibrate_elastic(model, State.material_point(1.2, 1.2), loading, 0.0)
    calls = []
    invert = kernels._strain

    def counted(*args):
        calls.append(args[2])
        return invert(*args)

    for state0, inversions in ((column, 4), (point, 1 + grid.n_steps)):
        traj = run_evolution(model, state0, loading, grid)
        monkeypatch.setattr(kernels, "_strain", counted)
        assert check_energy_inequality(traj, factor="p_psi").passed
        monkeypatch.setattr(kernels, "_strain", invert)
        assert len(calls) == inversions
        calls.clear()


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
    # semistability_sweep judges a whole trajectory at once; each value must
    # equal, bit for bit, what equilibrate_elastic + energy_value give state
    # by state. A stepped state is its own elastic minimizer, so ``shift``
    # moves the elastic dofs off it.
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
    gaps = [
        energy_value(model, equilibrate_elastic(model, state, loading, t), loading, t)
        - traj.energy(i)
        for i, (state, t) in enumerate(zip(traj.states, times))
    ]
    assert semistability_sweep(traj).residuals == gaps


def test_energy_inequality_sharp_off_the_identity_stays_an_inequality():
    # A start off its elastic minimizer (F = F_vi = 1.5 under the load 0.1)
    # closes step 1 on the lower energy of that minimizer, and a ramped load
    # does work on every step: both are judged as inequalities, and each
    # keeps a strict margin.
    grid = TimeGrid(t_final=0.5, n_steps=5)
    start = State.material_point(1.5, 1.5)
    for loading in (Loading((0.1,)), Loading((0.0, 0.1))):
        traj = run_evolution(UNIT_MP, start, loading, grid)
        report = check_energy_inequality(traj, factor="p_psi")
        assert report.params["equality_mode"] is False
        assert report.tolerance == INEQUALITY_TOL
        assert report.passed
        assert report.min_residual > 1e-4


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
        State.material_point(1.5, 1.5), 0.0, [0.1, 0.2, 0.2], UNIT_MP
    )
    assert report.passed
    assert report.residuals[1] == pytest.approx(0.0, abs=1e-12)


def test_monotonicity_validates_tau_list():
    old = State.material_point(1.5, 1.5)
    with pytest.raises(ValidationError):
        check_monotonicity(old, 0.0, [0.5, 0.1], UNIT_MP)
    with pytest.raises(ValidationError):
        check_monotonicity(old, 0.0, [0.0, 0.1], UNIT_MP)
    with pytest.raises(ValidationError, match="mono_tau_list needs at least two substeps"):
        check_monotonicity(old, 0.0, [0.5], UNIT_MP)
    # equal substeps have one minimizer: a list of one distinct value compares nothing
    with pytest.raises(ValidationError, match="at least two substeps to compare, distinct"):
        check_monotonicity(old, 0.0, [0.2, 0.2], UNIT_MP)


# -- tau convergence -----------------------------------------------------------------


def rk4_flow(rate, f_vi0, times, substep):
    """Classical RK4 for dF/dt = -rate F^2 (F - 1), interval by interval so
    that the values land on ``times``: an oracle independent of
    :func:`viscous_flow`."""
    values = [f_vi0]
    f = f_vi0
    for span in np.diff(times).tolist():
        n_sub = max(1, int(round(span / substep)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = -rate * f * f * (f - 1.0)
            x = f + 0.5 * h * k1
            k2 = -rate * x * x * (x - 1.0)
            x = f + 0.5 * h * k2
            k3 = -rate * x * x * (x - 1.0)
            x = f + h * k3
            k4 = -rate * x * x * (x - 1.0)
            f += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(f)
    return np.array(values)


def flow_invariant(f):
    """G(F) = log|1 - 1/F| + 1/F, which falls at the rate c_v/d_v along the flow."""
    return np.log(np.abs(f - 1.0) / f) + 1.0 / f


def test_rk4_oracle_self_convergence():
    # A fine RK4 converges, and to the exact flow.
    times = np.array([0.0, 1.0, 2.0, 3.0])
    coarse = rk4_flow(1.0, 1.5, times, substep=1e-3)
    fine = rk4_flow(1.0, 1.5, times, substep=1e-4)
    assert np.max(np.abs(coarse - fine)) < 1e-10
    assert np.all(np.diff(fine) < 0.0)
    assert np.all(fine >= 1.0)
    assert np.max(np.abs(viscous_flow(UNIT_MP, 1.5, times) - fine)) < 1e-12


@pytest.mark.parametrize("f_vi0", [1.5, 1.0 + 1e-6, 4.0, 0.5, 1.0 - 1e-6, 0.05, 1.0])
def test_viscous_flow_is_monotone_and_keeps_its_invariant(f_vi0):
    # From above 1 the flow falls toward 1, from below it rises, from 1 it
    # rests; G(F(t)) + (c_v/d_v) t stays G(f_vi0) to the rounding of G and
    # of one float step in F.
    model = MaterialModel(c_v=1.3, d_v=0.7)
    rate = model.c_v / model.d_v
    times = np.linspace(0.0, 6.0, 61)
    flow = viscous_flow(model, f_vi0, times)
    assert flow[0] == f_vi0
    if f_vi0 == 1.0:
        assert np.all(flow == 1.0)
        return
    steps = np.diff(flow)
    if f_vi0 > 1.0:
        assert np.all(steps <= 0.0) and np.all(flow > 1.0)
    else:
        assert np.all(steps >= 0.0) and np.all(flow < 1.0)
    assert np.any(steps != 0.0)
    target = flow_invariant(f_vi0) - rate * times
    slope = 1.0 / (flow * flow * np.abs(flow - 1.0))  # |dG/dF|
    rounding = 8.0 * RESOLUTION * (1.0 + np.abs(target)) + 4.0 * slope * np.spacing(flow)
    assert np.all(np.abs(flow_invariant(flow) - target) <= rounding)
    assert np.max(np.abs(flow - rk4_flow(rate, f_vi0, times, substep=5e-4))) <= 1e-9


def test_tau_convergence_first_order_window():
    report = tau_sweep(
        UNIT_MP,
        State.material_point(1.5, 1.5),
        ZERO,
        1.0,
        [0.1, 0.05, 0.025, 0.0125],
    )[1]
    assert report.passed
    assert report.params["regime"] == "rate"
    assert 0.9 <= report.rates["order"] <= 1.3
    assert len(report.params["errors"]) == 4
    assert all(e > 0.0 for e in report.params["errors"])


def test_tau_convergence_at_rest_is_at_the_floor():
    # From rest under no load the flow and every trajectory stay at 1.
    report = tau_sweep(UNIT_MP, State.material_point(1.0, 1.0), ZERO, 1.0, [0.1, 0.05])[1]
    assert report.params["errors"] == [0.0, 0.0]
    assert report.params["regime"] == "floor"
    assert report.residuals == [0.0]
    assert report.rates == {}
    assert report.passed


@pytest.mark.parametrize(
    "t_final, taus",
    [(3.0, [0.1, 0.05, 0.025, 0.0125]), (3.0, [0.1, 0.075]), (1.0, [0.25, 0.2, 0.1])],
)
def test_tau_sweep_integrates_the_oracle_once(monkeypatch, t_final, taus):
    # One exact-flow solve over the times of all grids serves every tau, also
    # when the grids do not nest (0.1 and 0.075 on [0, 3]: 30 and 40 steps),
    # and its values are those of a separate solve per grid, bit for bit.
    from visco_pt import analysis

    calls = []
    oracle = analysis.viscous_flow

    def counted(model, f_vi0, times):
        calls.append(len(times))
        return oracle(model, f_vi0, times)

    monkeypatch.setattr(analysis, "viscous_flow", counted)
    trajs, report = analysis.tau_sweep(
        UNIT_MP, State.material_point(1.5, 1.5), ZERO, t_final, taus
    )
    assert calls == [sum(traj.grid.n_steps + 1 for traj in trajs.values())]
    assert report.params["oracle"] == "exact_flow"
    for traj, error in zip(trajs.values(), report.params["errors"]):
        separate = oracle(UNIT_MP, 1.5, traj.grid.times)
        assert error == float(np.max(np.abs(traj.dofs[:, 1, 0] - separate)))


def test_tau_convergence_validations():
    state0 = State.material_point(1.5, 1.5)
    with pytest.raises(ValidationError):
        tau_sweep(UNIT_MP, state0, Loading((0.1,)), 1.0, [0.1, 0.05])
    with pytest.raises(ValidationError):
        tau_sweep(UNIT_MP, state0, ZERO, 1.0, [0.1])
    with pytest.raises(ValidationError):
        tau_sweep(UNIT_MP, state0, ZERO, 1.0, [0.4, 0.3])


def test_tau_sweep_rejects_p_psi_other_than_two_before_any_run(monkeypatch):
    # The oracle is the p = 2 flow; any other p_psi is an input error, raised
    # before the first trajectory runs.
    from visco_pt import analysis

    runs = []
    monkeypatch.setattr(analysis, "run_evolution", lambda *args: runs.append(args))
    with pytest.raises(ValidationError, match=r"p_psi = 2, got 2\.5"):
        analysis.tau_sweep(
            MaterialModel(p_psi=2.5), State.material_point(1.5, 1.5), ZERO, 1.0, [0.1, 0.05]
        )
    assert runs == []


# -- epsilon study -------------------------------------------------------------------


MESH4 = ShearColumnMesh(4)


def shear_lin0(mesh=MESH4):
    n = mesh.n_elements
    return State.shear_column(mesh, np.full(n, 0.3), np.full(n, 0.2))


def test_epsilon_study_quartic_rates():
    model = MaterialModel(a4=1.0)
    grid = TimeGrid(t_final=0.2, n_steps=40)
    report = eps_sweep(
        model, MESH4, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.2, 0.1, 0.05]
    )[2]
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
    report = eps_sweep(
        model, MESH4, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.2, 0.1, 0.05]
    )[2]
    assert report.passed
    assert set(report.params["regimes"].values()) == {"floor"}
    assert report.residuals == [0.0, 0.0, 0.0]
    assert max(report.params["err_u"]) <= 1e-7
    assert max(report.params["err_v"]) <= 1e-7


def test_epsilon_study_single_eps_reports_gaps_only():
    model = MaterialModel()
    grid = TimeGrid(t_final=0.1, n_steps=10)
    report = eps_sweep(
        model, MESH4, shear_lin0(), Loading((0.3,), (0.2,)), grid, [0.1]
    )[2]
    assert report.params["regime"] == "gaps_only"
    assert report.residuals == [0.0]
    assert report.passed


def test_epsilon_study_validates_eps_list():
    model = MaterialModel()
    grid = TimeGrid(t_final=0.1, n_steps=10)
    with pytest.raises(ValidationError):
        eps_sweep(model, MESH4, shear_lin0(), ZERO, grid, [0.05, 0.1])
    with pytest.raises(ValidationError):
        eps_sweep(model, MESH4, shear_lin0(), ZERO, grid, [0.1, -0.05])


def test_epsilon_study_takes_the_geometry_it_is_given():
    # A one-element shear column and a material point march the same
    # linearized column, so the study reads the geometry from its mesh
    # argument, not from the start. Read as a material point, this quadratic
    # shear study would run multiplicative trajectories with gaps of order eps.
    text = pathlib.Path("configs/eps_quadratic.cfg").read_text(encoding="utf-8")
    config = parse_config(text.replace("n_elements = 8", "n_elements = 1"))
    assert config.mesh() == ShearColumnMesh(1)
    args = (config.lin_initial(), config.loading(), config.grid(), config.eps_list)
    report = eps_sweep(config.model(), config.mesh(), *args)[2]
    for key in ("err_u", "err_v", "energy_gap_t0", "energy_gap_t_final"):
        assert max(report.params[key]) <= 1e-12, key
    as_point = eps_sweep(config.model(), None, *args)[2]
    assert min(as_point.params["err_u"]) > 1e-6


@pytest.mark.parametrize("stem", ["eps_quadratic", "eps_quartic"])
def test_epsilon_study_gaps_are_read_from_the_ledgers(stem):
    # The rescaled energy of an eps-trajectory is the stored energy its
    # ledger priced, each part divided by eps^2, against the sum of the
    # linearized ledger's, at t = 0 and t = T, bit for bit.
    config = load_config(f"configs/{stem}.cfg")
    lin, trajs, report = eps_sweep(
        config.model(), config.mesh(), config.lin_initial(), config.loading(),
        config.grid(), config.eps_list,
    )
    for key, i in (("energy_gap_t0", 0), ("energy_gap_t_final", config.n_steps)):
        w0_el, w0_vi = lin.stored[i].tolist()
        expected = []
        for eps, traj in trajs.items():
            w_el, w_vi = traj.stored[i].tolist()
            expected.append(abs((w_el / (eps * eps) + w_vi / (eps * eps)) - (w0_el + w0_vi)))
        assert report.params[key] == expected, key


@pytest.mark.parametrize("mesh", [None, ShearColumnMesh(3)])
def test_epsilon_study_refuses_a_start_off_its_column(mesh):
    # The start of a four-element column fits neither a material point's
    # one-element column nor a three-element mesh.
    with pytest.raises(ValidationError, match="linearized start must live on"):
        eps_sweep(UNIT_MP, mesh, shear_lin0(), ZERO, TimeGrid(0.1, 10), [0.2, 0.1])


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
