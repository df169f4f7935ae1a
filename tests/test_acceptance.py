"""Acceptance suite: one test per shipped guarantee, at the stated
tolerances. Each test line in ``pytest -v`` is the pass/fail record for one
guarantee; scenario inputs come from the shipped config files so the checks
certify exactly what ships.
"""

import json
import time

import numpy as np
import pytest

from visco_pt import (
    Loading,
    MaterialModel,
    State,
    TimeGrid,
    check_energy_inequality,
    check_monotonicity,
    incremental_step,
    lin_el_residual,
    lin_step,
    load_config,
    mp_lin_closed_form,
    run_evolution,
    run_lin_evolution,
    semistability_sweep,
    tau_convergence,
    total_energy,
)
from visco_pt.analysis import epsilon_study, rk4_viscous_oracle
from visco_pt.cli import main
from visco_pt.domain import pack_dofs, stored_energies, unpack_dofs
from visco_pt.linearized import LinState

SCENARIOS = ("mp_relax", "mp_loaded", "shear_quadratic", "shear_quartic")


@pytest.fixture(scope="module")
def shipped():
    """Configs and trajectories of every shipped scenario."""
    out = {}
    for name in SCENARIOS:
        config = load_config(f"configs/{name}.cfg")
        traj = run_evolution(
            config.model(),
            config.initial_state(),
            config.loading(),
            config.grid(),
            config.settings(),
        )
        out[name] = (config, traj)
    return out


def test_01_scalar_relaxation_reproduction():
    start = time.perf_counter()
    model = MaterialModel()
    grid = TimeGrid(t_final=3.0, n_steps=3000)  # tau = 1e-3
    traj = run_evolution(model, State.material_point(1.5, 1.5), Loading(), grid)
    f_vi = np.array([s.F_vi for s in traj.states])
    oracle = rk4_viscous_oracle(model, 1.5, grid.times)
    elapsed = time.perf_counter() - start
    assert np.all(np.diff(f_vi) < 0.0)
    assert 1.0 < f_vi[-1] < 1.1
    assert float(np.max(np.abs(f_vi - oracle))) <= 5e-3
    assert elapsed < 1.0


def test_02_closed_form_step_oracle():
    start = time.perf_counter()
    model = MaterialModel()
    for tau in (0.5, 0.1, 0.01):
        for f_old in (0.5, 1.0, 1.5, 2.0):
            old = State.material_point(f_old, f_old)
            state, _ = incremental_step(
                model, old, Loading(), tau, tau, stored_old=stored_energies(model, old)
            )
            expected = (tau * f_old**2 + f_old) / (tau * f_old**2 + 1.0)
            assert state.F_vi == pytest.approx(expected, abs=1e-9)
    old = State.material_point(1.5, 1.5)
    spot, _ = incremental_step(
        model, old, Loading(), 0.5, 0.5, stored_old=stored_energies(model, old)
    )
    assert spot.F_vi == pytest.approx(1.2352941, abs=5e-8)
    assert time.perf_counter() - start < 1.0


def test_03_first_order_tau_convergence():
    start = time.perf_counter()
    config = load_config("configs/mp_relax.cfg")
    report = tau_convergence(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.t_final,
        config.tau_list,
        settings=config.settings(),
    )
    assert report.passed
    assert 0.9 <= report.rates["order"] <= 1.3
    assert time.perf_counter() - start < 10.0


def test_04_energy_inequality_every_scenario(shipped):
    for name in SCENARIOS:
        _, traj = shipped[name]
        report = check_energy_inequality(traj, factor="one")
        assert report.min_residual >= -1e-8, name
        assert report.passed, name


def test_05_sharp_energy_identity(shipped):
    _, traj = shipped["mp_relax"]
    e0 = traj.energy(0)
    rep = check_energy_inequality(traj, factor="p_psi")
    rep2 = check_energy_inequality(traj, factor="p_psi", m=2)
    rep3 = check_energy_inequality(traj, factor="p_psi", m=3)
    assert rep.params["equality_mode"] is True
    assert abs(rep.residuals[-1]) <= 1e-10 * abs(e0)
    end2 = abs(rep2.residuals[-1])
    end3 = abs(rep3.residuals[-1])
    assert end2 <= 1e-3 * abs(e0)
    assert end2 / end3 >= 3.0


def test_06_dissipation_monotonicity():
    report = check_monotonicity(
        State.material_point(1.5, 1.5),
        1.0,
        [0.1, 0.2, 0.5, 1.0],
        MaterialModel(),
    )
    assert report.passed
    assert report.min_residual >= -1e-9


def test_07_semistability_every_scenario(shipped):
    for name in SCENARIOS:
        config, traj = shipped[name]
        report = semistability_sweep(
            traj,
            stride=10,
            n_probes=20,
            amplitudes=(1e-2, 1e-1),
            seed=config.seed,
        )
        assert report.min_residual >= -1e-8, name
        assert report.passed, name


def test_08_linearized_solver_correctness():
    quad = MaterialModel().quadratic_limit()
    grid = TimeGrid(t_final=3.0, n_steps=3000)  # tau = 1e-3
    traj = run_lin_evolution(
        quad, LinState.material_point(0.5, 0.5), Loading(), grid
    )
    errs = [
        abs(
            float(traj.states[i].v[0])
            - mp_lin_closed_form(0.5, quad, float(grid.times[i]))[0]
        )
        for i in range(grid.n_steps + 1)
    ]
    assert max(errs) <= 2e-3

    config = load_config("configs/shear_quadratic.cfg")
    squad = config.model().quadratic_limit()
    prev = config.lin_initial()
    loading = config.loading()
    state = lin_step(0.05, prev, 0.05, squad, loading)
    assert lin_el_residual(squad, state, prev, 0.05, loading, 0.05) <= 1e-10


def test_09_linearization_convergence():
    start = time.perf_counter()
    fine = TimeGrid(t_final=1.0, n_steps=1000)  # tau = 1e-3

    quartic = load_config("configs/eps_quartic.cfg")
    report = epsilon_study(
        quartic.model(),
        quartic.lin_initial(),
        quartic.loading(),
        fine,
        [0.2, 0.1, 0.05],
        quartic.settings(),
    )
    err_v = report.params["err_v"]
    assert all(b < a for a, b in zip(err_v, err_v[1:]))
    assert report.rates["v"] >= 0.8

    quadratic = load_config("configs/eps_quadratic.cfg")
    report0 = epsilon_study(
        quadratic.model(),
        quadratic.lin_initial(),
        quadratic.loading(),
        fine,
        [0.2, 0.1, 0.05],
        quadratic.settings(),
    )
    for key in ("err_u", "err_v", "energy_gap_t0", "energy_gap_t_final"):
        assert max(report0.params[key]) <= 1e-7, key
    assert time.perf_counter() - start < 30.0


def test_10_density_convergence_exact_gap():
    from visco_pt import density_convergence

    report = density_convergence(MaterialModel(a4=1.0), [0.1, 0.05])
    gaps = report.params["gaps"]["el"]
    assert gaps[0] == pytest.approx(0.1**2 / 4.0, abs=1e-12)
    assert gaps[1] == pytest.approx(0.05**2 / 4.0, abs=1e-12)
    assert report.rates["el"] >= 1.9
    assert report.passed


def test_11_gradient_consistency():
    h = 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for mode in ("material_point", "shear_column"):
        model = MaterialModel(mode=mode, c_e=1.3, a4=0.8, c_v=0.8, d_v=1.1)
        loading = Loading((0.2,), (0.1,))
        if mode == "material_point":
            def draw():
                f_vi = float(rng.uniform(0.7, 1.6))
                return State.material_point(
                    f_vi * float(rng.uniform(0.7, 1.4)), f_vi
                )
        else:
            from visco_pt import ShearColumnMesh

            mesh = ShearColumnMesh(8)

            def draw():
                gamma = rng.uniform(-4.0, 4.0, mesh.n_elements)
                beta = rng.uniform(-4.0, 4.0, mesh.n_elements)
                return State(mode=mode, gamma=gamma, beta=beta, mesh=mesh)

        for _ in range(100):
            state = draw()
            value, grad = total_energy(model, state, loading, 0.3)
            x = pack_dofs(state)
            fd = np.zeros_like(x)
            for j in range(x.size):
                e = np.zeros(x.size)
                e[j] = h
                up = total_energy(model, unpack_dofs(state, x + e), loading, 0.3)[0]
                dn = total_energy(model, unpack_dofs(state, x - e), loading, 0.3)[0]
                fd[j] = (up - dn) / (2.0 * h)
            scale = max(float(np.max(np.abs(grad))), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    assert worst < 1e-6


def test_12_verify_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["verify", "--config", "configs/mp_relax.cfg", "--out", str(out1)])
    code2 = main(["verify", "--config", "configs/mp_relax.cfg", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    blob1 = (out1 / "verify.json").read_bytes()
    blob2 = (out2 / "verify.json").read_bytes()
    assert blob1 == blob2
    assert json.loads(blob1)["pass"] is True
