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
    ShearColumnMesh,
    State,
    TimeGrid,
    check_energy_inequality,
    check_monotonicity,
    load_config,
    run_evolution,
    semistability_sweep,
    tau_sweep,
    total_energy,
)
from visco_pt.analysis import eps_sweep, viscous_flow
from visco_pt.cli import main

from test_domain import unpack
from test_stepper import de_giorgi_reference

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
        )
        out[name] = (config, traj)
    return out


def test_01_scalar_relaxation_reproduction():
    start = time.perf_counter()
    model = MaterialModel()
    grid = TimeGrid(t_final=3.0, n_steps=3000)  # tau = 1e-3
    traj = run_evolution(model, State.material_point(1.5, 1.5), Loading(), grid)
    f_vi = np.array([s.F_vi for s in traj.states])
    oracle = viscous_flow(model, 1.5, grid.times)
    elapsed = time.perf_counter() - start
    assert np.all(np.diff(f_vi) < 0.0)
    assert 1.0 < f_vi[-1] < 1.1
    assert float(np.max(np.abs(f_vi - oracle))) <= 5e-3
    assert elapsed < 1.0


def test_02_closed_form_step_oracle():
    start = time.perf_counter()
    model = MaterialModel()

    def step(f_old, tau):
        old = State.material_point(f_old, f_old)
        return run_evolution(model, old, Loading(), TimeGrid(tau, 1)).states[1].F_vi

    for tau in (0.5, 0.1, 0.01):
        for f_old in (0.5, 1.0, 1.5, 2.0):
            expected = (tau * f_old**2 + f_old) / (tau * f_old**2 + 1.0)
            assert step(f_old, tau) == pytest.approx(expected, abs=1e-9)
    assert step(1.5, 0.5) == pytest.approx(1.2352941, abs=5e-8)
    assert time.perf_counter() - start < 1.0


def test_03_first_order_tau_convergence():
    start = time.perf_counter()
    config = load_config("configs/mp_relax.cfg")
    report = tau_sweep(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.t_final,
        config.tau_list,
    )[1]
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
    # The exact De Giorgi integral closes the identity; the sums of the 2-
    # and 3-node reference rules approach it.
    _, traj = shipped["mp_relax"]
    e0 = traj.energy(0)
    rep = check_energy_inequality(traj, factor="p_psi")
    assert rep.params["equality_mode"] is True
    assert abs(rep.residuals[-1]) <= 1e-10 * abs(e0)
    budget = (e0 - traj.load_work[-1]) - (traj.energies[-1] + traj.delta[-1])
    p = traj.model.p_psi
    end2, end3 = (
        abs(budget - (p - 1.0) * float(np.sum(de_giorgi_reference(traj, m)))) for m in (2, 3)
    )
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
        report = semistability_sweep(traj)
        assert report.min_residual >= -1e-8, name
        assert report.passed, name


def test_08_linearized_solver_correctness():
    # A linearized run is the quadratic model's run on a column; a material
    # point is one element under the resultant f + g.
    quad = MaterialModel().quadratic_limit()
    grid = TimeGrid(t_final=3.0, n_steps=3000)  # tau = 1e-3
    point = State.shear_column(ShearColumnMesh(1), [0.5], [0.5])
    traj = run_evolution(quad, point, Loading(), grid)
    # zero load: v(t) = v0 exp(-(c_v / d_v) t)
    decay = 0.5 * np.exp(-(quad.c_v / quad.d_v) * grid.times)
    assert float(np.max(np.abs(traj.dofs[:, 1, 0] - decay))) <= 2e-3

    # One step is stationary for E(t, .) + tau Psi: the gradient of the
    # energy plus h d_v (v' - v'_old) / tau on the viscous block.
    config = load_config("configs/shear_quadratic.cfg")
    squad = config.model().quadratic_limit()
    prev = config.lin_initial()
    loading = config.loading()
    state = run_evolution(squad, prev, loading, TimeGrid(0.05, 1)).states[1]
    _, grad = total_energy(squad, state, loading, 0.05)
    n, h = prev.mesh.n_elements, prev.mesh.h
    grad[n:] += h * squad.d_v * (state.beta - prev.beta) / 0.05
    assert float(np.max(np.abs(grad))) <= 1e-10


def test_09_linearization_convergence():
    start = time.perf_counter()
    fine = TimeGrid(t_final=1.0, n_steps=1000)  # tau = 1e-3

    quartic = load_config("configs/eps_quartic.cfg")
    report = eps_sweep(
        quartic.model(),
        quartic.mesh(),
        quartic.lin_initial(),
        quartic.loading(),
        fine,
        [0.2, 0.1, 0.05],
    )[2]
    err_v = report.params["err_v"]
    assert all(b < a for a, b in zip(err_v, err_v[1:]))
    assert report.rates["v"] >= 0.8

    quadratic = load_config("configs/eps_quadratic.cfg")
    report0 = eps_sweep(
        quadratic.model(),
        quadratic.mesh(),
        quadratic.lin_initial(),
        quadratic.loading(),
        fine,
        [0.2, 0.1, 0.05],
    )[2]
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
        model = MaterialModel(c_e=1.3, a4=0.8, c_v=0.8, d_v=1.1)
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
                return State(gamma=gamma, beta=beta, mesh=mesh)

        for _ in range(100):
            state = draw()
            value, grad = total_energy(model, state, loading, 0.3)
            x = np.concatenate([state.gamma, state.beta])  # the gradient's dof order
            fd = np.zeros_like(x)
            for j in range(x.size):
                e = np.zeros(x.size)
                e[j] = h
                up = total_energy(model, unpack(state, x + e), loading, 0.3)[0]
                dn = total_energy(model, unpack(state, x - e), loading, 0.3)[0]
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
