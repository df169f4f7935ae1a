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

import dataclasses
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visco_pt import (
    InfeasibleState,
    Loading,
    MaterialModel,
    NonFiniteObjective,
    ShearColumnMesh,
    SolverNotConverged,
    State,
    StepRejected,
    TimeGrid,
    check_energy_inequality,
    energy_value,
    equilibrate_elastic,
    load_config,
    phi_tau,
    run_evolution,
    total_energy,
)
from visco_pt import kernels
from visco_pt.domain import (
    dissipation_increment,
    element_stress,
    energy_value,
    pairing,
    state_dofs,
    stored_energies,
)
from visco_pt.kernels import RESOLUTION
from visco_pt.stepper import de_giorgi_dissipation

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


def step_from(model, old, loading, tau):
    """The trajectory of one step of length tau from ``old``."""
    return run_evolution(model, old, loading, TimeGrid(tau, 1))


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("f_old", [0.5, 1.0, 1.5, 2.0])
def test_step_matches_closed_form(tau, f_old):
    step = step_from(UNIT_MP, State.material_point(f_old, f_old), ZERO, tau)
    expected = closed_form_minimizer(tau, f_old)
    assert step.states[1].F_vi == pytest.approx(expected, abs=1e-9)
    assert step.states[1].F == pytest.approx(expected, abs=1e-9)
    assert step.stay_put_margin[0] >= -1e-8


def test_step_spot_value():
    # tau = 0.5, F_o = 1.5: G = (0.5 * 2.25 + 1.5) / (0.5 * 2.25 + 1).
    step = step_from(UNIT_MP, State.material_point(1.5, 1.5), ZERO, 0.5)
    assert step.states[1].F_vi == pytest.approx(1.2352941, abs=5e-8)


def test_step_report_fields():
    old = State.material_point(1.5, 1.5)
    step = step_from(UNIT_MP, old, ZERO, 0.25)
    new = step.states[1]
    assert step.iterations[0] == 0  # quadratic densities: the closed form
    assert 0.0 <= step.grad_inf[0] <= 1e-10
    assert step.diss_increments[0] > 0.0
    assert step.diss_increments[0] == dissipation_increment(UNIT_MP, new, old, 0.25)
    assert tuple(step.stored[1].tolist()) == stored_energies(UNIT_MP, new)
    # a relaxing step strictly lowers the stay-put energy
    assert step.stay_put_margin[0] > 0.0
    assert new.F_vi < old.F_vi


def test_step_rejected_on_mismatched_operator(monkeypatch):
    # A solve for a 500 times longer substep pulls the state far beyond the
    # true minimizer, so the stay-put comparison, which charges the true
    # dissipation of the step, must fail. In the shear column the defect is
    # the substep that kernels.column_march solves for.
    def long_substep(one, step, params, row, b, r, *solver):
        return one(params, row, b, 500.0 * r, *solver)

    march_row_by_row(monkeypatch, long_substep)
    state0 = shear_start()
    model = MaterialModel()
    load = Loading((0.2,), (0.1,))
    with pytest.raises(StepRejected) as exc:
        step_from(model, state0, load, 0.01)
    assert exc.value.index == 1
    assert exc.value.margin < -1e-8
    assert "step 1 rejected" in str(exc.value)


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
            State.material_point(1.0, 1.0),
            "step 4",
        ),
        (
            MaterialModel(a4=1.0, p_psi=2.5),
            State.shear_column(ShearColumnMesh(8), np.zeros(8), np.zeros(8)),
            "step 4",
        ),
    ],
)
def test_step_that_does_not_converge_raises(model, old, where, monkeypatch):
    # The state rests under a body force 0.25 (t - 0.5)(t - 1)(t - 1.5),
    # which is 0 at the ends of steps 1 to 3, so they solve at once. At the
    # end of step 4 it is 0.1875, and one iteration cannot reach GRAD_TOL on
    # these nonquadratic objectives: the step must be refused with its
    # index, status and gradient, never accepted with a max_iter_exceeded
    # report.
    loading = Loading((-0.1875, 0.6875, -0.75, 0.25))
    monkeypatch.setattr(kernels, "MAX_ITER", 1)
    with pytest.raises(SolverNotConverged) as exc:
        run_evolution(model, old, loading, TimeGrid(2.0, 4))
    assert exc.value.where == where
    assert exc.value.grad_inf > 1e-10
    assert str(exc.value).startswith(f"{where} not solved: max_iter_exceeded")


def test_substep_that_does_not_converge_names_step_1(monkeypatch):
    # A substep is a one-step march, and names its failure as a run does.
    model = MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=2.0, p_psi=2.5, k_radius=4.0)
    monkeypatch.setattr(kernels, "MAX_ITER", 1)
    with pytest.raises(SolverNotConverged, match="^step 1 not solved"):
        phi_tau(model, State.material_point(1.5, 1.5), Loading((0.2,)), 0.5, 0.25)


def test_shear_substep_that_does_not_converge_names_step_1(monkeypatch):
    old = State.shear_column(ShearColumnMesh(4), np.full(4, 0.5), np.full(4, 0.4))
    monkeypatch.setattr(kernels, "MAX_ITER", 1)
    with pytest.raises(SolverNotConverged) as exc:
        phi_tau(MaterialModel(a4=1.0, p_psi=3.0), old, Loading((0.3,), (0.2,)), 0.5, 0.25)
    assert exc.value.where == "step 1"
    assert exc.value.grad_inf == 0.0016582061036562526
    assert str(exc.value) == "step 1 not solved: max_iter_exceeded at |grad|_inf 1.658e-03"


def test_shear_substep_beyond_the_radius_is_infeasible():
    old = State.shear_column(ShearColumnMesh(4), np.full(4, 0.5), np.full(4, 0.4))
    with pytest.raises(InfeasibleState) as exc:
        phi_tau(MaterialModel(k_radius=0.41), old, Loading((0.3,), (0.2,)), 0.5, 0.25)
    assert str(exc.value) == "step 1 leaves the admissible radius 0.41"


def test_material_point_substep_without_a_minimizer_names_step_1():
    # load^2 = 4 >= c_e * c_v: the root of g' lies at a negative F_vi.
    with pytest.raises(InfeasibleState) as exc:
        phi_tau(MaterialModel(), State.material_point(1.2, 1.2), Loading((2.0,)), 0.5, 0.25)
    assert str(exc.value) == (
        "step 1 has no admissible minimizer: at F_vi = -28.499999999999986, "
        "|g'| = 1.421e-14 and the reduced curvature g'' = -2.222e-01"
    )


@pytest.mark.parametrize("old", [State.material_point(1.5, 1.5), shear_start(4)])
def test_substep_whose_rate_overflows_is_not_finite(old):
    # p_psi = 3 over r = 1e-160: a viscous dof that moves at all has a rate
    # whose square overflows the float power of psi. The substep fails as an
    # objective that is not finite, not with an OverflowError.
    with pytest.raises(NonFiniteObjective) as exc:
        phi_tau(MaterialModel(p_psi=3.0), old, Loading((0.3,)), 0.5, 1e-160)
    assert str(exc.value) == "step 1: incremental objective is not finite"


@pytest.mark.parametrize("p_psi", [2.5, 3.0, 4.0])
@pytest.mark.parametrize(
    "name",
    ["mp_relax", "mp_loaded", "eps_quadratic", "eps_quartic", "shear_quadratic", "shear_quartic"],
)
def test_newton_starts_next_to_its_root(name, p_psi):
    # psi'' vanishes at the anchor when p_psi > 2, so Newton starts from the
    # r -> 0 rate instead, in both geometries: at most 4 iterations a step on
    # average and 6 in any step (from the anchor: up to 14.8 and 20).
    config = load_config(f"configs/{name}.cfg")
    model = dataclasses.replace(config.model(), p_psi=p_psi)
    traj = run_evolution(model, config.initial_state(), config.loading(), config.grid())
    assert np.mean(traj.iterations) <= 4.0
    assert np.max(traj.iterations) <= 6


@pytest.mark.parametrize("old", [State.material_point(1.5, 1.5), shear_start(4)])
def test_substep_next_to_r_0_is_solved_at_its_start(old):
    # p_psi = 3 at r = 1e-9 tau: the r -> 0 start, psi'(rate) = the viscous
    # drive at the anchor, is the root to rounding, so Newton takes at most
    # one iteration (35 and 36 from the anchor). The rate dissipation is psi
    # of that rate, to the digits left by the cancellation of the move
    # x(r) - a.
    model = MaterialModel(a4=1.0, p_psi=3.0)
    loading, t, r = Loading((0.3,), (0.2,)), 0.5, 1e-9 * 0.25
    sub = phi_tau(model, old, loading, t, r)
    load = loading.f(t) + loading.g(t)
    if old.mesh is None:
        a, x, h = np.array([old.F_vi]), np.array([sub.state.F_vi]), 1.0
        s = kernels._strain(model.c_e, model.a4, load * old.F_vi)
        drive = a * (load * (1.0 + s) - model.c_v * (a - 1.0))
    else:
        a, x, h = old.beta, sub.state.beta, old.mesh.h
        drive = element_stress(old.mesh, loading.f(t), loading.g(t)) - model.c_v * a
    rate = np.sign(drive) * np.sqrt(np.abs(drive) / (1.5 * model.d_v))
    limit = h * np.sum(model.psi(rate))
    move = np.max(np.abs(x - a))
    assert 0.0 < move < 1e-9
    assert sub.iterations <= 1
    cancellation = model.p_psi * RESOLUTION * max(1.0, np.max(np.abs(a))) / move
    assert abs(sub.rate_dissipation - limit) <= cancellation * limit


@pytest.mark.parametrize("r", [6.2e-12, 1e-11])
@pytest.mark.parametrize(
    "old, loading",
    [
        (State.material_point(1.0, 1.0), Loading((1e-5,))),
        (
            State.shear_column(ShearColumnMesh(1), np.ones(1), np.ones(1)),
            Loading((0.0,), (1.0 + 1e-5,)),
        ),
    ],
)
def test_newton_step_back_onto_the_iterate_before_bisects(old, loading, r):
    # p_psi = 2 + 1 ulp under a viscous drive of 1e-5 at the anchor 1: the
    # r -> 0 start rounds to the anchor, where psi'' = 0, so Newton
    # overshoots, and its step back lands exactly on the anchor, inside the
    # bracket. That return bisects instead of cycling until max_iter, and
    # the solve stops within the resolution of its root, which lies within
    # one ulp of the anchor.
    sub = phi_tau(MaterialModel(p_psi=2.0000000000000004), old, loading, 0.125, r)
    assert sub.iterations < kernels.MAX_ITER
    assert abs(sub.state.beta[0] - 1.0) <= RESOLUTION


def test_mp_cubic_dissipation_step():
    model = MaterialModel(p_psi=3.0)
    step = step_from(model, State.material_point(1.5, 1.5), ZERO, 0.1)
    assert 1.0 < step.states[1].F_vi < 1.5
    assert step.stay_put_margin[0] >= -1e-8


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


def de_giorgi_reference(traj, m, rate=None):
    """The m-node Gauss-Legendre rule on [0, tau] for each step n of
    ``traj``: an array of the integrals over r of ``rate(n, r)``, by default
    the rate dissipation of :func:`phi_tau` over the substep r from state
    n - 1 under the load at t_n. The reference the exact
    :func:`de_giorgi_dissipation` is measured against."""
    if rate is None:
        times = traj.grid.times.tolist()

        def rate(n, r):
            old = traj.states[n - 1]
            solved = phi_tau(traj.model, old, traj.loading, times[n], r)
            return solved.rate_dissipation

    x, w = np.polynomial.legendre.leggauss(m)
    tau = traj.grid.tau
    nodes, weights = (0.5 * tau * (x + 1.0)).tolist(), 0.5 * tau * w
    steps = range(1, traj.grid.n_steps + 1)
    return np.array([weights @ np.array([rate(n, r) for r in nodes]) for n in steps])


def test_de_giorgi_integral_matches_closed_form():
    tau = 0.5
    traj = single_step_trajectory(tau)
    exact = closed_form_de_giorgi_integral(tau)
    q = de_giorgi_dissipation(traj)
    assert q.shape == (1,)
    assert q[0] == pytest.approx(exact, rel=1e-15)
    assert de_giorgi_reference(traj, 64)[0] == pytest.approx(exact, rel=1e-14)


def test_de_giorgi_integral_gauss_convergence_in_samples():
    # The reference rule on the smooth integrand gains more than a decade
    # per added node (8.2e-3, 4.1e-4, 1.9e-5, 8.0e-7 relative at m = 2..5).
    tau = 0.5
    traj = single_step_trajectory(tau)
    exact = closed_form_de_giorgi_integral(tau)
    errors = [abs(de_giorgi_reference(traj, m)[0] - exact) / exact for m in (2, 3, 4, 5)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 10.0
    # A clustered trapezoid with 16 samples was off by 1.7e-3 relative; 4
    # Gauss nodes must be at least 50 times closer.
    assert errors[2] <= 1.7e-3 / 50.0


def counted_inversions(monkeypatch):
    """Patches ``kernels._strain`` to record the target of each call; returns
    the list of them."""
    targets, invert = [], kernels._strain

    def counted(c_e, a4, target):
        targets.append(target)
        return invert(c_e, a4, target)

    monkeypatch.setattr(kernels, "_strain", counted)
    return targets


@pytest.mark.parametrize("flip", [False, True])
def test_repeated_stress_rows_invert_as_each_element(monkeypatch, flip):
    # Rows equal bit for bit are inverted once, and give each element's own
    # _strain, bit for bit: signed zeros, NaN, +-inf, and targets past the
    # cube-root switch (|target| > sqrt(c_e^3 / a4) = 1). A row that differs
    # from the first only in the sign of a zero is inverted element by element.
    from visco_pt.stepper import _elastic_strains

    model = MaterialModel(a4=1.0)
    row = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e3, -7.5, 0.3]
    sigma = np.tile(row, (4, 1))
    if flip:
        sigma[2, :2] = -0.0, 0.0
    targets = counted_inversions(monkeypatch)
    strains = _elastic_strains(model, sigma)
    assert len(targets) == (sigma.size if flip else len(row))
    each = [[kernels._strain(model.c_e, model.a4, s) for s in rows] for rows in sigma.tolist()]
    assert strains.shape == sigma.shape
    assert np.array_equal(strains.view(np.uint64), np.array(each).view(np.uint64))


def test_ramped_column_inverts_each_element_and_step(monkeypatch):
    # Under a load that varies in time no two rows of stresses repeat, and
    # the march inverts each element of each step once.
    model, grid = MaterialModel(a4=1.0), TimeGrid(0.5, 5)
    loading = Loading((0.1, 0.2), (0.1, 0.3))
    start = equilibrate_elastic(model, shear_start(), loading, 0.0)
    targets = counted_inversions(monkeypatch)
    run_evolution(model, start, loading, grid)
    t = grid.times[1:, None]
    sigma = element_stress(start.mesh, loading.f(t), loading.g(t))
    assert len(targets) == grid.n_steps * len(start.beta)
    assert targets == sigma.ravel().tolist()


def test_de_giorgi_dissipation_solves_no_substep(monkeypatch):
    # The integral reads the accepted states: no kernel solve, no viscous
    # slope, no phi_tau; at a material point with a4 > 0 one inversion of
    # the stress law per step (the reduced energy at the anchor), in the
    # shear column none (its Bregman gap depends on the slopes alone).
    import visco_pt.kernels as kernels
    import visco_pt.stepper as stepper

    grid = TimeGrid(0.5, 3)
    model = MaterialModel(a4=1.0, p_psi=2.5)
    loading = Loading((0.2,), (0.1,))
    runs = [
        run_evolution(model, equilibrate_elastic(model, start, loading, 0.0), loading, grid)
        for start in (State.material_point(F_O, F_O), shear_start())
    ]
    calls = []

    def counted(name, solve):
        def wrapped(*args):
            calls.append(name)
            return solve(*args)

        return wrapped

    for module, name in (
        (kernels, "mp_march"), (kernels, "_strain"),
        (kernels, "column_march"), (stepper, "phi_tau"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for traj, inversions in zip(runs, (["_strain"] * grid.n_steps, [])):
        assert de_giorgi_dissipation(traj).shape == (grid.n_steps,)
        assert calls == inversions
        calls.clear()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shear=st.booleans(),
    c_e=st.floats(1.0, 2.5),
    a4=st.floats(0.0, 2.0),
    c_v=st.floats(0.5, 1.5),
    d_v=st.floats(0.3, 2.5),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0, exclude_min=True)),
    f=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    g=st.floats(-0.2, 0.2),
    start=st.floats(-0.4, 0.4),
    t_final=st.floats(0.05, 0.5),
    n_steps=st.integers(1, 4),
    n_elements=st.integers(1, 8),
)
# two starts within 1e-8 of rest, where p_psi > 2 puts a singularity of the
# integrand in r next to r = 0: the rule in r misses them by 5.7e-18 against
# bounds of 5e-19 and 1e-18
@example(
    shear=False, c_e=1.0, a4=1.05, c_v=1.0, d_v=1.0, p_psi=2.88, f=(0.0, 0.0), g=0.0,
    start=5e-9, t_final=0.3, n_steps=2, n_elements=1,
)
@example(
    shear=True, c_e=1.0, a4=1.05, c_v=1.0, d_v=1.0, p_psi=2.88, f=(0.0, 0.0), g=0.0,
    start=5e-9, t_final=0.3, n_steps=2, n_elements=2,
)
def test_de_giorgi_closed_form_matches_the_16_node_rule(
    shear, c_e, a4, c_v, d_v, p_psi, f, g, start, t_final, n_steps, n_elements
):
    # The exact integral of de_giorgi_dissipation against the 16-node
    # reference rule, on Newton paths (p_psi > 2, or a4 > 0 at a material
    # point) as on closed forms. The rule runs in u, r = tau u^4, with the
    # factor 4 u^3 of dr, on the halves [0, 1/2] and [1/2, 1]: a p_psi > 2
    # step near rest puts a singularity of the integrand in r next to r = 0
    # (at about r = -1e-3 tau after a start at rest under a load of 1e-7),
    # which u moves away from [0, 1], so 16 nodes a half integrate it to
    # rounding: that of the rule's rates (x(r) - a) / (r a), which lose
    # digits to cancellation where a step moves little, relative error about
    # eps * max(1, |a|) / |x(tau) - a|. A Newton solve stops within grad_tol
    # of its root, which moves the identity of a step by at most grad_tol
    # times the distance the step moves, and each substep solve of the rule
    # alike.
    model = MaterialModel(c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi)
    loading = Loading(f, (g,))
    if shear:
        mesh = ShearColumnMesh(n_elements)
        state0 = State.shear_column(mesh, np.zeros(n_elements), np.full(n_elements, start))
    else:
        state0 = State.material_point(1.0 + start, 1.0 + start)
    state0 = equilibrate_elastic(model, state0, loading, 0.0)
    traj = run_evolution(model, state0, loading, TimeGrid(t_final, n_steps))
    exact = de_giorgi_dissipation(traj)
    tau, times = traj.grid.tau, traj.grid.times.tolist()

    def substituted(lo, hi):
        # the integrand in u over [lo, hi], mapped onto the rule's r in [0, tau]
        def rate(n, r):
            u = lo + (hi - lo) * r / tau
            old, r = traj.states[n - 1], tau * u**4
            sub = phi_tau(model, old, loading, times[n], r)
            return sub.rate_dissipation * 4.0 * u**3 * (hi - lo)

        return rate

    q16 = de_giorgi_reference(traj, 16, substituted(0.0, 0.5))
    q16 += de_giorgi_reference(traj, 16, substituted(0.5, 1.0))
    assert exact.shape == q16.shape == (n_steps,)
    anchors = traj.dofs[:-1, 1]
    steps = np.abs(traj.dofs[1:, 1] - anchors)
    moved = np.max(steps, axis=-1)
    size = np.maximum(1.0, np.max(np.abs(anchors), axis=-1))
    rounding = RESOLUTION * np.abs(q16) * size / np.maximum(moved, 1e-300)
    solves = kernels.GRAD_TOL * np.sum(steps, axis=-1)
    underflow = np.finfo(float).tiny
    assert np.all(np.abs(exact - q16) <= rounding + solves + underflow)


def grown_material_point():
    """Five steps of F_vi rising from 1 under the load 0.3 (to 1.234 at
    step 4 and 1.276 at step 5)."""
    load = Loading((0.3,))
    start = equilibrate_elastic(UNIT_MP, State.material_point(1.0, 1.0), load, 0.0)
    return run_evolution(UNIT_MP, start, load, TimeGrid(1.0, 5))


def relaxed_material_point():
    """Two steps of F_vi relaxing from 1.5 (to 1.154 at step 1)."""
    return run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, TimeGrid(2.0, 2))


def grown_column():
    """Five steps of slopes rising from 0.4 (to at most 0.4104 at step 1)."""
    start = State.shear_column(ShearColumnMesh(4), np.full(4, 0.5), np.full(4, 0.4))
    return run_evolution(UNIT_MP, start, Loading((0.3,), (0.2,)), TimeGrid(1.0, 5))


@pytest.mark.parametrize(
    "trajectory, doctored, step",
    [
        # load^2 > c_e c_v: the reduced curvature is negative at r = tau
        (relaxed_material_point, {"loading": Loading((10.0,))}, 1),
        # x(tau) of step 5 leaves |F_vi - 1| <= 0.25
        (grown_material_point, {"model": MaterialModel(k_radius=0.25)}, 5),
        # the anchor 1.5 lies outside |F_vi - 1| <= 0.45, x(tau) inside
        (relaxed_material_point, {"model": MaterialModel(k_radius=0.45)}, 1),
        # step 1 ends beyond the radius 0.41
        (grown_column, {"model": MaterialModel(k_radius=0.41)}, 1),
        # the slopes of step 1 run to about 17, beyond the radius 10
        (grown_column, {"loading": Loading((100.0,))}, 1),
    ],
)
def test_march_refuses_what_substeps_refuse(trajectory, doctored, step):
    # de_giorgi_dissipation checks no substep: the substep minimizer moves
    # monotonically in r from the anchor to the step's own minimizer, so a
    # path that a substep solve refuses has an end that the march refuses.
    # On each doctored model or loading, phi_tau at the two ends of (0, tau]
    # first refuses step ``step``; run_evolution from the same start accepts
    # the steps before it and refuses the start or that step.
    traj = dataclasses.replace(trajectory(), **doctored)
    model, start, loading, tau = traj.model, traj.states[0], traj.loading, traj.grid.tau

    def refused(n):
        for r in (1e-9 * tau, tau):
            try:
                phi_tau(model, traj.states[n - 1], loading, traj.grid.times[n], r)
            except InfeasibleState:
                return True
        return False

    assert [n for n in range(1, traj.grid.n_steps + 1) if refused(n)][0] == step
    if step > 1:
        run_evolution(model, start, loading, TimeGrid((step - 1) * tau, step - 1))
    with pytest.raises(InfeasibleState) as exc:
        run_evolution(model, start, loading, traj.grid)
    assert re.match(f"step {step} |viscous strain outside", str(exc.value))


def test_de_giorgi_interpolant_endpoint_is_the_step():
    traj = single_step_trajectory()
    state = phi_tau(
        traj.model, traj.states[0], traj.loading, traj.grid.t_final, r=traj.grid.tau
    ).state
    assert np.allclose([state.gamma, state.beta], traj.dofs[1], atol=1e-9)


# -- full evolutions -----------------------------------------------------------


def test_run_evolution_mp_relaxation(monkeypatch):
    grid = TimeGrid(t_final=1.0, n_steps=100)
    # a GRAD_TOL other than the default reaches the kernel: the march reads it when called
    monkeypatch.setattr(kernels, "GRAD_TOL", 1e-8)
    traj = run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
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
    # GRAD_TOL = 1e-10: each step must converge, not stop at MAX_ITER, and
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
    traj = run_evolution(config.model(), config.initial_state(), Loading((0.1,)), grid)
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
            # the load-rate work against the frozen old state: its pairing
            # with the load increments
            df = loading.f(times[i]) - loading.f(times[i - 1])
            dg = loading.g(times[i]) - loading.g(times[i - 1])
            work += pairing(old.mesh, state_dofs(old)[0], df, dg)
        assert traj.load_work[i] == work


def polynomial_load(bound):
    """Ascending coefficients of a polynomial of degree <= 2 whose values on
    [0, 1] stay within ``bound`` in magnitude."""
    return st.lists(st.floats(-bound / 3.0, bound / 3.0), min_size=1, max_size=3).map(tuple)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.none(), st.integers(1, 12)),
    c_e=log_uniform(1e-1, 1e2),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
    c_v=log_uniform(1e-1, 1e2),
    d_v=log_uniform(1e-1, 1e2),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0, exclude_min=True)),
    f_hat=polynomial_load(0.45),
    g_hat=polynomial_load(0.45),
    n_steps=st.integers(1, 6),
    t_final=st.floats(0.05, 1.0),
    data=st.data(),
)
def test_march_prices_each_step_as_the_per_state_functions(
    n, c_e, a4, c_v, d_v, p_psi, f_hat, g_hat, n_steps, t_final, data
):
    # The ledger of a run, priced after the march in one array pass (the
    # kernel's parts at a material point), must equal what the per-state
    # functions give for each state and step, bit for bit: the stored
    # energies, the dissipation and the stay-put margin E(t_i, old) -
    # (E(t_i, new) + tau * Psi). The shear column (n elements, None for a
    # material point) covers single elements and the pairwise sums past 8.
    # Dead loads of polynomial shape stay below 0.9 min(c_e, c_v) on [0, 1],
    # so every step has an admissible minimizer and the viscous strains stay
    # well inside k_radius.
    model = MaterialModel(c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi)
    scale = min(c_e, c_v)
    loading = Loading(
        tuple(scale * c for c in f_hat), tuple(scale * c for c in g_hat)
    )
    if n is None:
        v0 = data.draw(st.floats(-0.4, 0.4))
        start = State.material_point(1.0 + v0, 1.0 + v0)
    else:
        slopes = st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)
        start = State.shear_column(
            ShearColumnMesh(n), np.array(data.draw(slopes)), np.array(data.draw(slopes))
        )
    grid = TimeGrid(t_final, n_steps)
    traj = run_evolution(model, start, loading, grid)
    states, times = traj.states, grid.times.tolist()
    for i, state in enumerate(states):
        assert tuple(traj.stored[i].tolist()) == stored_energies(model, state)
        if i > 0:
            old = states[i - 1]
            diss = dissipation_increment(model, state, old, grid.tau)
            assert traj.diss_increments[i - 1] == diss
            margin = energy_value(model, old, loading, times[i]) - (
                energy_value(model, state, loading, times[i]) + diss
            )
            assert traj.stay_put_margin[i - 1] == margin


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.none(), st.integers(1, 12)),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0, exclude_min=True)),
    f=polynomial_load(0.45),
    g=polynomial_load(0.45),
    n_steps=st.integers(1, 4),
    data=st.data(),
)
def test_phi_tau_over_a_whole_step_is_the_step(n, a4, p_psi, f, g, n_steps, data):
    # A step and a substep go through one solve: phi_tau over the step
    # length tau from state i - 1 must give step i of the run bit for bit,
    # its dofs, its rate dissipation and the value E(t_i, new) + tau * Psi.
    # The shear column has n elements, None is a material point.
    model = MaterialModel(a4=a4, p_psi=p_psi)
    loading = Loading(f, g)
    if n is None:
        v0 = data.draw(st.floats(-0.4, 0.4))
        start = State.material_point(1.0 + v0, 1.0 + v0)
    else:
        slopes = st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)
        start = State.shear_column(
            ShearColumnMesh(n), np.array(data.draw(slopes)), np.array(data.draw(slopes))
        )
    traj = run_evolution(model, start, loading, TimeGrid(0.5, n_steps))
    tau, times = traj.grid.tau, traj.grid.times.tolist()
    for i in range(1, n_steps + 1):
        sub = phi_tau(model, traj.states[i - 1], loading, times[i], tau)
        diss = traj.diss_increments[i - 1]
        assert np.array_equal([sub.state.gamma, sub.state.beta], traj.dofs[i])
        assert sub.rate_dissipation == diss / tau
        assert sub.value == energy_value(model, sub.state, loading, times[i]) + diss


def test_failing_steps_are_named_by_their_index(monkeypatch):
    # A fast-growing load with a tight MAX_ITER: the first steps solve, a
    # later one does not, and the error names it with its gradient.
    model = MaterialModel(c_e=2.0, a4=1.0, c_v=0.5, d_v=2.0, p_psi=2.5, k_radius=4.0)
    quartic = Loading((0.0, 0.0, 0.0, 0.0, 500.0))
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "MAX_ITER", 3)
        with pytest.raises(SolverNotConverged) as exc:
            run_evolution(model, State.material_point(1.0, 1.0), quartic, TimeGrid(1.0, 10))
        assert str(exc.value) == "step 4 not solved: max_iter_exceeded at |grad|_inf 3.128e-10"
        shear_model = MaterialModel(a4=1.0, p_psi=4.0)
        rest = State.shear_column(ShearColumnMesh(4), np.zeros(4), np.zeros(4))
        with pytest.raises(SolverNotConverged) as exc:
            run_evolution(
                shear_model, rest, Loading((0.0, 0.0, 0.0, 0.0, 0.1)), TimeGrid(1.0, 10)
            )
        assert str(exc.value) == "step 8 not solved: max_iter_exceeded at |grad|_inf 1.670e-09"

    # A step 3 that lands on the minimizer for a 500 times longer step, and
    # is charged its true dissipation, is rejected as step 3.
    overshoot(monkeypatch, {3: 500.0})
    for state0 in (State.material_point(F_O, F_O), shear_start()):
        with pytest.raises(StepRejected) as exc:
            run_evolution(UNIT_MP, state0, Loading((0.2,), (0.1,)), TimeGrid(0.1, 5))
        assert exc.value.index == 3
        assert str(exc.value).startswith("step 3 rejected")


@pytest.mark.parametrize(
    "params, n_elements, loading, grid, step",
    [
        # W_el overflows at step 2's minimizer, a closed form
        ((1.0, 0.0, 1.5e308, 1.0, 2.0, 10.0), None, Loading((-1e154, 1e154)), TimeGrid(2, 2), 2),
        # the dissipation overflows at step 2's, a Newton solve
        ((1e72, 0.0, 1e168, 1e304, 3.0, 10.0), None, Loading((-1e137, 1e140)), TimeGrid(2e-3, 2), 2),
        # a traction of 1e200 strains each element by 1e200
        ((1.0, 0.0, 1e300, 1.0, 2.0, 10.0), 4, Loading((0.0,), (1e200,)), TimeGrid(1.0, 4), 1),
    ],
)
def test_a_step_priced_not_finite_fails_as_not_finite(params, n_elements, loading, grid, step):
    # The kernels price nothing and accept these solves; the array pass
    # after the march prices them, and they fail there with no RuntimeWarning
    # (the suite turns warnings into errors): in run_evolution by their
    # stay-put margins, and in phi_tau by its value, as step 1.
    model = MaterialModel(*params)
    if n_elements is None:
        rest = State.material_point(1.0, 1.0)
    else:
        zeros = np.zeros(n_elements)
        rest = State.shear_column(ShearColumnMesh(n_elements), zeros, zeros)
    with pytest.raises(NonFiniteObjective) as exc:
        run_evolution(model, rest, loading, grid)
    assert str(exc.value) == f"step {step}: incremental objective is not finite"
    with pytest.raises(NonFiniteObjective) as exc:
        phi_tau(model, rest, loading, grid.times[step], grid.tau)
    assert str(exc.value) == "step 1: incremental objective is not finite"


def march_load_by_load(monkeypatch, solve=None):
    """Patches ``kernels.mp_march`` with a fake that marches one load at a
    time through the real kernel: step i (from 1) of a march is ``solve(one,
    i, params, load, anchor, r, grad_tol, max_iter)``, where ``one(params,
    load, anchor, r, grad_tol, max_iter)`` is the real kernel's tuple for
    one load; without ``solve`` it is that tuple. Like the kernel, the fake
    stops after the first nonzero status. Returns a list that holds, for
    each march, the list of the loads it solved."""
    from visco_pt import kernels

    march, marches = kernels.mp_march, []

    def one(params, load, anchor, r, grad_tol, max_iter):
        out = []
        march(*params, (load,), anchor, r, grad_tol, max_iter, out)
        return out[0]

    def fake(c_e, a4, c_v, d_v, p_psi, k_radius, loads, anchor, r, grad_tol, max_iter, out):
        params, solved = (c_e, a4, c_v, d_v, p_psi, k_radius), []
        marches.append(solved)
        for i, load in enumerate(loads, start=1):
            solver = (params, load, anchor, r, grad_tol, max_iter)
            out.append(one(*solver) if solve is None else solve(one, i, *solver))
            solved.append(load)
            if out[-1][5]:
                return
            anchor = out[-1][1]

    monkeypatch.setattr(kernels, "mp_march", fake)
    return marches


def march_row_by_row(monkeypatch, solve=None):
    """Patches ``kernels.column_march`` with a fake that marches one row at
    a time through the real kernel: step i (from 1) of a march is
    ``solve(one, i, params, row, b, r, h, grad_tol, max_iter)``, where
    ``one(params, row, b, r, h, grad_tol, max_iter)`` is the real kernel's
    pair (slopes, tuple) for the one row ``row`` from the slopes ``b``;
    without ``solve`` it is that pair. Like the kernel, the fake stops after
    the first nonzero status. Returns a list that holds, for each march, the
    list of the rows of sigma it solved."""
    march, marches = kernels.column_march, []

    def one(params, row, b, r, h, grad_tol, max_iter):
        slopes, out = np.empty((2, len(b))), []
        slopes[0] = b
        march(*params, row[None], r, h, grad_tol, max_iter, slopes, out)
        return slopes[1], out[0]

    def fake(c_v, d_v, p_psi, sigma, r, h, grad_tol, max_iter, slopes, out):
        params, solved = (c_v, d_v, p_psi), []
        marches.append(solved)
        for i, row in enumerate(sigma, start=1):
            solver = (params, row, slopes[i - 1], r, h, grad_tol, max_iter)
            slopes[i], step = one(*solver) if solve is None else solve(one, i, *solver)
            out.append(step)
            solved.append(row)
            if step[2]:
                return

    monkeypatch.setattr(kernels, "column_march", fake)
    return marches


def overshoot(
    monkeypatch, factors, stalled=(), outside=(), broken=(), radius=UNIT_MP.k_radius
):
    """Makes step i of a run solve for a substep ``factors[i]`` times longer,
    at a material point and in the shear column; the march still prices the
    dissipation of the true step. The steps in
    ``stalled`` get one iteration to reach an unreachable tolerance, so their
    solves fail (in the shear column only when p_psi != 2: the closed form
    has no solver to stall); in the shear column the viscous slopes of the
    steps in ``outside`` move beyond the admissible radius ``radius``. The
    solves of the steps in ``broken`` raise a ValueError, an error no solver
    names."""
    stall = (1e-300, 1)  # grad_tol, max_iter

    def point(one, step, params, load, anchor, r, grad_tol, max_iter):
        if step in broken:
            raise ValueError(f"step {step} broken")
        if step in stalled:
            grad_tol, max_iter = stall
        return one(params, load, anchor, factors.get(step, 1.0) * r, grad_tol, max_iter)

    def column(one, step, params, row, b, r, h, grad_tol, max_iter):
        if step in broken:
            raise ValueError(f"step {step} broken")
        if step in stalled:
            grad_tol, max_iter = stall
        b, solved = one(params, row, b, factors.get(step, 1.0) * r, h, grad_tol, max_iter)
        if step in outside:
            b = b + 2.0 * radius
        return b, solved

    march_load_by_load(monkeypatch, point)
    march_row_by_row(monkeypatch, column)


def test_the_earliest_failing_step_raises(monkeypatch):
    # The march solves ahead of the per-step checks, so a step 3 that fails
    # the stay-put check must be named even when step 5 fails too: in its
    # solve, with a solver's error or any other, or, in the shear column,
    # by a viscous strain outside the admissible radius. Step 5 alone fails
    # as it did step by step.
    model = MaterialModel(a4=1.0, p_psi=2.5)
    loading = Loading((0.2,), (0.1,))
    grid = TimeGrid(0.1, 6)
    stalled = ({"stalled": {5}}, SolverNotConverged, "step 5 not solved: max_iter_exceeded")
    outside = ({"outside": {5}}, InfeasibleState, "step 5 leaves the admissible radius")
    broken = ({"broken": {5}}, ValueError, "step 5 broken")
    for state0, faults in (
        (State.material_point(F_O, F_O), [stalled, broken]),
        (shear_start(), [stalled, outside, broken]),
    ):
        start = equilibrate_elastic(model, state0, loading, 0.0)
        for fault, error, message in faults:
            with monkeypatch.context() as patch:
                overshoot(patch, {3: 500.0}, **fault)
                with pytest.raises(StepRejected) as exc:
                    run_evolution(model, start, loading, grid)
            assert exc.value.index == 3
            with monkeypatch.context() as patch:
                overshoot(patch, {}, **fault)
                with pytest.raises(error) as exc:
                    run_evolution(model, start, loading, grid)
            assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "f, g, max_iter, fails",
    [((0, 0, 0, 0, -3.0), (0, 0, 0, 0, 3.0), 3, [5, 4, 3]), ((0, 0, 0, 4.0), (0.0,), 3, [2, 2, 4])],
)
def test_the_earliest_step_where_an_element_fails_is_named(f, g, max_iter, fails, monkeypatch):
    # The elements of a column march one after another, each up to its first
    # step that stops at max_iter (``fails``: the step of each element, when
    # it marches alone). The run names the earliest such step of any element,
    # with the worst h * |residual| of the elements that fail there: here the
    # last element's step 3, under resultants 3 t^4 x_e; then, under 4 t^3
    # (1 - x_e), step 2 of the first two elements, the worst the first's.
    model, mesh, grid = MaterialModel(p_psi=4.0), ShearColumnMesh(3), TimeGrid(0.5, 5)
    loading = Loading(f, g)
    t = grid.times[1:]
    sigma = element_stress(mesh, loading.f(t)[:, None], loading.g(t)[:, None])
    alone = []
    for column in sigma.T:
        slopes, out = np.zeros((grid.n_steps + 1, 1)), []
        kernels.column_march(
            model.c_v, model.d_v, model.p_psi, column[:, None], grid.tau, mesh.h,
            kernels.GRAD_TOL, max_iter, slopes, out,
        )
        assert out[-1][::2] == (max_iter, 1)
        alone.append((len(out), out[-1][1]))
    assert [step for step, _ in alone] == fails
    step = min(fails)
    worst = max(grad_inf for failed, grad_inf in alone if failed == step)
    state0 = State.shear_column(mesh, np.zeros(3), np.zeros(3))
    monkeypatch.setattr(kernels, "MAX_ITER", max_iter)
    with pytest.raises(SolverNotConverged) as exc:
        run_evolution(model, state0, loading, grid)
    assert (exc.value.where, exc.value.grad_inf) == (f"step {step}", worst)
    message = f"step {step} not solved: max_iter_exceeded at |grad|_inf {worst:.3e}"
    assert str(exc.value) == message


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
    # The march prices the dissipation of every step once, in one array
    # pass: one dof_dissipation call over the viscous slopes of all steps,
    # in which psi sees the element rates of each step once.
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
    rates, psi = [], MaterialModel.psi

    def counted_psi(self, r):
        rates.append(np.size(r))
        return psi(self, r)

    monkeypatch.setattr(MaterialModel, "psi", counted_psi)
    grid = TimeGrid(t_final=0.5, n_steps=10)
    run_evolution(MaterialModel(), shear_start(), Loading((0.2,)), grid)
    assert [np.shape(args[2]) for args in calls] == [(grid.n_steps, 8)]
    assert sum(rates) == grid.n_steps * 8


def test_run_evolution_steps_through_the_public_names(monkeypatch):
    # A run's solves are looked up at the names a tracer wraps: one
    # kernels.mp_march call per material-point trajectory, solving every
    # step, and one kernels.column_march call per shear trajectory, marching
    # every step, whether its solves are closed forms (p_psi = 2) or Newton;
    # and a phi_tau's solve at the same names.
    marches = march_load_by_load(monkeypatch)
    columns = march_row_by_row(monkeypatch)
    grid = TimeGrid(t_final=0.5, n_steps=10)
    run_evolution(UNIT_MP, State.material_point(F_O, F_O), ZERO, grid)
    assert ([len(loads) for loads in marches], columns) == ([grid.n_steps], [])
    run_evolution(MaterialModel(), shear_start(), Loading((0.2,)), grid)
    assert len(marches) == 1
    assert [len(rows) for rows in columns] == [grid.n_steps]
    run_evolution(MaterialModel(p_psi=2.5), shear_start(), Loading((0.2,)), grid)
    assert (len(marches), [len(rows) for rows in columns]) == (1, [grid.n_steps] * 2)
    # A phi_tau is a one-step march: one call with one load, or one row.
    phi_tau(UNIT_MP, State.material_point(F_O, F_O), ZERO, 0.0, 0.25)
    assert [len(loads) for loads in marches] == [grid.n_steps, 1]
    phi_tau(MaterialModel(p_psi=2.5), shear_start(), Loading((0.2,)), 0.5, 0.25)
    assert [len(loads) for loads in marches] == [grid.n_steps, 1]
    assert [len(rows) for rows in columns] == [grid.n_steps] * 2 + [1]


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
    # the oracle, proves global minimality. A GRAD_TOL below any reachable
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
    with mock.patch.object(kernels, "GRAD_TOL", 1e-300):
        state = phi_tau(model, old, Loading((f,), (g,)), 0.0, r).state

    # Gradient in the slopes of the stored energies and the dissipation...
    _, grad = total_energy(model, state, Loading(), 0.0)
    rate = (state.beta - old.beta) / r
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
