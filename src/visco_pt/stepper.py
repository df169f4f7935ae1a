"""Incremental minimization time stepping.

One step from state (y, y_vi) at time t_{i-1} to time t_i solves

    min  E(t_i, y, y_vi) + tau * Psi(y_vi_old, (y_vi - y_vi_old)/tau)

over the state. Minimality against the stay-put competitor (the previous
state itself, which charges no dissipation) is asserted on every step:
E(t_i, new) + tau*Psi <= E(t_i, old) up to 1e-8, and violations reject the
step.

Routing: a material-point step goes through the stepping kernel, damped
Newton with Armijo backtracking on the analytic 2x2 Hessian, warm-started
from the previous state. The shear column under dead loads is statically
determinate, so its step splits into one problem per element: with the
element resultant sigma_e = g + f * (1 - x_e,mid), the elastic strain solves
w_el'(s) = sigma_e and the viscous slope solves
c_v b + psi'((b - b_old)/r) = sigma_e (a closed form when p_psi = 2, a
bracketed scalar Newton otherwise). The nodal profiles are rebuilt from the
slopes, with beta projected to zero mean. A step or substep whose solver
stops at ``max_iter`` or in a stalled line search raises
:class:`SolverNotConverged`; no such step is accepted.

The same solver evaluated at a substep r in (0, tau] gives phi_tau(r), the
value function of the De Giorgi interpolation; its minimizer is the De
Giorgi interpolant and the integral of the rate dissipation over r in
[0, tau] (Gauss-Legendre) supplies the improved dissipation term of the
sharp energy identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import kernels
from .domain import (
    Loading,
    State,
    TimeGrid,
    dissipation_increment,
    element_stress,
    energy_from_stored,
    nodal_from_slopes,
    pack_dofs,
    project_zero_mean,
    stored_energies,
    unpack_dofs,
    viscous_strain,
)
from .errors import (
    InfeasibleState,
    NonFiniteObjective,
    SolverNotConverged,
    StepRejected,
    ValidationError,
)
from .minimize import (
    CONVERGED,
    LINE_SEARCH_STALLED,
    MAX_ITER_EXCEEDED,
    RESOLUTION,
    MinimizeSettings,
)
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel

STAY_PUT_TOL = 1e-8

_KERNEL_STATUS = {0: CONVERGED, 1: MAX_ITER_EXCEEDED, 2: LINE_SEARCH_STALLED}


@dataclass(frozen=True)
class StepReport:
    index: int
    t: float
    iterations: int
    status: str
    stay_put_margin: float
    diss_increment: float
    w_el: float
    w_vi: float


@dataclass(frozen=True)
class PhiTau:
    """Value and minimizer of the incremental functional at substep r."""

    value: float
    state: State
    rate_dissipation: float
    iterations: int
    status: str


@dataclass
class Trajectory:
    """Accepted states with what was evaluated on them once, while stepping:
    ``stored[i]`` is ``stored_energies(model, states[i])`` (read-only, shape
    (n_steps + 1, 2)) and ``diss_increments[i - 1]`` the dissipation of step i."""

    model: MaterialModel
    loading: Loading
    grid: TimeGrid
    states: List[State]
    stored: np.ndarray
    diss_increments: np.ndarray
    step_reports: List[StepReport]
    settings: MinimizeSettings

    @property
    def delta(self) -> np.ndarray:
        """Cumulative dissipation: delta[n] = sum of the first n increments."""
        return np.concatenate([[0.0], np.cumsum(self.diss_increments)])

    def energy(self, i: int) -> float:
        w_el, w_vi = self.stored[i].tolist()
        t = float(self.grid.times[i])
        return energy_from_stored(w_el, w_vi, self.states[i], self.loading, t)


# -- single incremental solve ---------------------------------------------------


def _solve_incremental(
    model: MaterialModel,
    old: State,
    loading: Loading,
    t: float,
    r: float,
    settings: MinimizeSettings,
    where: Optional[str] = None,
):
    """Minimize the incremental functional; returns ``(state, value, diss,
    stored, iterations, status)``. ``diss`` is the dissipation r * Psi charged
    to the substep; ``stored`` is ``stored_energies(model, state)`` where the
    solve evaluates it for the value (the shear column), else None.

    Raises :class:`SolverNotConverged`, naming ``where`` (default: the
    substep length r), if the solver stops without converging.
    """
    if not (r > 0.0 and np.isfinite(r)):
        raise ValidationError(f"substep length must be > 0, got {r!r}")
    where = where or f"substep r={r!r}"

    if model.mode == MATERIAL_POINT:
        load = loading.f(t) + loading.g(t)
        F, Fv, value, grad_inf, iterations, status = kernels.mp_minimize(
            model.c_e,
            model.a4,
            model.c_v,
            model.d_v,
            model.p_psi,
            model.k_radius,
            load,
            old.F,
            old.F_vi,
            old.F_vi,
            r,
            settings.grad_tol,
            settings.max_iter,
            settings.armijo_c,
            settings.backtrack_factor,
        )
        if status == 3:
            raise InfeasibleState("infeasible warm start for the incremental step")
        if status == 4:
            raise NonFiniteObjective("incremental objective is not finite")
        if status != 0:
            raise SolverNotConverged(where, _KERNEL_STATUS[status], grad_inf)
        state = State.material_point(F, Fv)
        diss = dissipation_increment(model, state, old, r)
        return state, value, diss, None, iterations, CONVERGED

    mesh = old.mesh
    sigma = element_stress(mesh, loading.f(t), loading.g(t))
    b, iterations = _viscous_slopes(
        model, sigma, viscous_strain(old), r, mesh.h, settings, where
    )
    gamma = nodal_from_slopes(mesh, _elastic_strains(model, sigma) + b)
    beta = project_zero_mean(mesh, nodal_from_slopes(mesh, b))
    state = State(mode=SHEAR_COLUMN, gamma=gamma, beta=beta, mesh=mesh)
    stored = stored_energies(model, state)
    diss = dissipation_increment(model, state, old, r)
    value = energy_from_stored(*stored, state, loading, t) + diss
    return state, value, diss, stored, iterations, CONVERGED


def _elastic_strains(model: MaterialModel, sigma: np.ndarray) -> np.ndarray:
    """Per-element elastic strains s with w_el'(s) = sigma."""
    if model.a4 == 0.0:
        return sigma / model.c_e
    return np.array([_invert_stress(model, s) for s in sigma.tolist()])


def _viscous_slopes(
    model: MaterialModel,
    sigma: np.ndarray,
    b_old: np.ndarray,
    r: float,
    h: float,
    settings: MinimizeSettings,
    where: str,
):
    """Per-element viscous slopes b with c_v b + psi'((b - b_old)/r) = sigma;
    returns ``(b, iterations)``.

    A closed form when p_psi = 2 (0 iterations). Otherwise Newton on each
    element, kept inside the bracket between b_old and sigma/c_v, where the
    residual changes sign (a step that leaves it bisects). An element is
    solved when h * |residual| <= grad_tol or when its Newton step is below
    the resolution of b, ``RESOLUTION * max(1, |b|)``; ``iterations`` is the
    most any element took. Raises :class:`SolverNotConverged` at ``max_iter``.
    """
    if model.p_psi == 2.0:
        return b_old + (sigma - model.c_v * b_old) / (model.c_v + model.d_v / r), 0
    p = model.p_psi
    lo = np.minimum(b_old, sigma / model.c_v)
    hi = np.maximum(b_old, sigma / model.c_v)
    b = b_old.copy()
    active = np.ones(b.shape, dtype=bool)
    iterations = 0
    while True:
        rate = (b - b_old) / r
        residual = model.c_v * b + model.dpsi(rate) - sigma
        active &= h * np.abs(residual) > settings.grad_tol
        if not active.any():
            return b, iterations
        if iterations >= settings.max_iter:
            grad_inf = float(np.max(h * np.abs(residual[active])))
            raise SolverNotConverged(where, MAX_ITER_EXCEEDED, grad_inf)
        hi = np.where(residual > 0.0, b, hi)
        lo = np.where(residual < 0.0, b, lo)
        ddpsi = 0.5 * model.d_v * p * (p - 1.0) * np.abs(rate) ** (p - 2.0)
        candidate = b - residual / (model.c_v + ddpsi / r)
        outside = (candidate < lo) | (candidate > hi)
        candidate = np.where(outside, 0.5 * (lo + hi), candidate)
        resolved = np.abs(candidate - b) <= RESOLUTION * np.maximum(1.0, np.abs(b))
        b = np.where(active, candidate, b)
        active &= ~resolved
        iterations += 1


def incremental_step(
    model: MaterialModel,
    old: State,
    loading: Loading,
    t: float,
    tau: float,
    settings: MinimizeSettings = MinimizeSettings(),
    index: int = 0,
    *,
    stored_old: tuple,
):
    """One incremental minimization step; returns ``(state, StepReport)``.

    ``stored_old`` is ``stored_energies(model, old)``; the report carries the
    new state's pair as ``w_el`` and ``w_vi``, so each state's stored energies
    are evaluated once along a trajectory.

    Raises :class:`StepRejected` if the minimality inequality against the
    stay-put competitor fails beyond 1e-8, and :class:`SolverNotConverged`
    if the step's solver stops without converging.
    """
    state, value, diss, stored, iterations, status = _solve_incremental(
        model, old, loading, t, tau, settings, where=f"step {index}"
    )
    margin = energy_from_stored(*stored_old, old, loading, t) - value
    if margin < -STAY_PUT_TOL:
        raise StepRejected(index, margin)
    w_el, w_vi = stored if stored is not None else stored_energies(model, state)
    report = StepReport(
        index=index,
        t=t,
        iterations=iterations,
        status=status,
        stay_put_margin=margin,
        diss_increment=diss,
        w_el=w_el,
        w_vi=w_vi,
    )
    return state, report


def run_evolution(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    grid: TimeGrid,
    settings: MinimizeSettings = MinimizeSettings(),
) -> Trajectory:
    """March the incremental scheme across the whole grid."""
    states, stored, reports = [state0], [stored_energies(model, state0)], []
    times = grid.times.tolist()
    for i in range(1, grid.n_steps + 1):
        state, report = incremental_step(
            model, states[-1], loading, times[i], grid.tau, settings,
            index=i, stored_old=stored[-1],
        )
        states.append(state)
        stored.append((report.w_el, report.w_vi))
        reports.append(report)
    stored = np.array(stored)
    stored.flags.writeable = False
    return Trajectory(
        model=model,
        loading=loading,
        grid=grid,
        states=states,
        stored=stored,
        diss_increments=np.array([r.diss_increment for r in reports]),
        step_reports=reports,
        settings=settings,
    )


# -- elastic equilibration ------------------------------------------------------


def equilibrate_elastic(
    model: MaterialModel, state: State, loading: Loading, t: float
) -> State:
    """Minimize the energy over the elastic variable at frozen viscous state.

    Used to prepare initial data (and as the r -> 0 limit state of phi_tau).
    """
    if model.mode == MATERIAL_POINT:
        load = loading.f(t) + loading.g(t)
        s = _invert_stress(model, load * state.F_vi)
        return State.material_point((1.0 + s) * state.F_vi, state.F_vi)
    mesh = state.mesh
    sigma = element_stress(mesh, loading.f(t), loading.g(t))
    slopes = _elastic_strains(model, sigma) + viscous_strain(state)
    gamma = nodal_from_slopes(mesh, slopes)
    return State(mode=SHEAR_COLUMN, gamma=gamma, beta=state.beta, mesh=mesh)


def _invert_stress(model: MaterialModel, target: float) -> float:
    """Solve c_e s + a4 s^3 = target (monotone; Newton with bisection guard).

    Raises :class:`SolverNotConverged` if 200 iterations do not solve it.
    """
    if model.a4 == 0.0:
        return target / model.c_e
    lo, hi = -1.0, 1.0
    while model.c_e * lo + model.a4 * lo**3 > target:
        lo *= 2.0
    while model.c_e * hi + model.a4 * hi**3 < target:
        hi *= 2.0
    s = target / model.c_e
    s = min(max(s, lo), hi)
    for _ in range(200):
        residual = model.c_e * s + model.a4 * s**3 - target
        if abs(residual) <= 1e-14 * (1.0 + abs(target)):
            return s
        step = residual / (model.c_e + 3.0 * model.a4 * s * s)
        candidate = s - step
        if candidate <= lo or candidate >= hi:
            candidate = 0.5 * (lo + hi)
        if model.c_e * candidate + model.a4 * candidate**3 > target:
            hi = candidate
        else:
            lo = candidate
        s = candidate
    raise SolverNotConverged(
        f"elastic stress inversion at {target!r}", MAX_ITER_EXCEEDED, abs(residual)
    )


# -- interpolants ---------------------------------------------------------------


def interpolant(traj: Trajectory, which: str, t: float) -> State:
    """Piecewise interpolants of the discrete trajectory.

    ``backward`` is right-continuous at the nodes from the left
    (value states[i] on (t_{i-1}, t_i]), ``forward`` takes states[i-1] on
    [t_{i-1}, t_i), and ``affine`` interpolates the dofs linearly.
    """
    grid = traj.grid
    if not (0.0 <= t <= grid.t_final + 1e-12):
        raise ValidationError(f"t={t!r} outside [0, {grid.t_final}]")
    tau = grid.tau
    if which == "backward":
        i = int(math.ceil(t / tau - 1e-12))
        return traj.states[min(max(i, 0), grid.n_steps)]
    if which == "forward":
        i = int(math.floor(t / tau + 1e-12))
        return traj.states[min(i, grid.n_steps)]
    if which == "affine":
        i = int(math.ceil(t / tau - 1e-12))
        i = min(max(i, 1), grid.n_steps)
        t0 = (i - 1) * tau
        theta = min(max((t - t0) / tau, 0.0), 1.0)
        x = (1.0 - theta) * pack_dofs(traj.states[i - 1]) + theta * pack_dofs(
            traj.states[i]
        )
        return unpack_dofs(traj.states[i - 1], x)
    raise ValidationError(f"unknown interpolant {which!r}")


# -- De Giorgi interpolation ----------------------------------------------------


def phi_tau(
    model: MaterialModel,
    old: State,
    loading: Loading,
    t: float,
    r: float,
    settings: MinimizeSettings = MinimizeSettings(),
) -> PhiTau:
    """Value, minimizer and rate dissipation of the substep functional."""
    state, value, diss, _, iterations, status = _solve_incremental(
        model, old, loading, t, r, settings
    )
    return PhiTau(
        value=value,
        state=state,
        rate_dissipation=diss / r,
        iterations=iterations,
        status=status,
    )


def de_giorgi_interpolant(
    traj: Trajectory, i: int, r: float, settings: Optional[MinimizeSettings] = None
) -> State:
    """Minimizer of the substep functional between grid points i-1 and i."""
    if not (1 <= i <= traj.grid.n_steps):
        raise ValidationError(f"step index {i} outside 1..{traj.grid.n_steps}")
    return phi_tau(
        traj.model,
        traj.states[i - 1],
        traj.loading,
        float(traj.grid.times[i]),
        r,
        settings or traj.settings,
    ).state


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights on [0, 1], read-only, built once per m."""
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def de_giorgi_rule(tau: float, m: int):
    """The m-node Gauss-Legendre rule on [0, tau]: ``(nodes, weights)``.

    The nodes lie strictly inside (0, tau), increase and are symmetric about
    tau/2; the weights are positive and sum to tau. The rule is exact for
    polynomials of degree 2m - 1 in r.
    """
    if m < 2:
        raise ValidationError(f"need at least 2 substep samples, got {m}")
    nodes, weights = _unit_gauss_legendre(m)
    return tau * nodes, tau * weights


def de_giorgi_integral(
    traj: Trajectory,
    i: int,
    m: int,
    settings: Optional[MinimizeSettings] = None,
):
    """Integral over r in [0, tau] of the substep rate dissipation.

    Gauss-Legendre with m nodes (:func:`de_giorgi_rule`): one substep solve
    per node, m in all. The integrand is smooth in r, so the error falls
    geometrically in m. Returns ``(integral, nodes, samples)``.
    """
    nodes, weights = de_giorgi_rule(traj.grid.tau, m)
    settings = settings or traj.settings
    old = traj.states[i - 1]
    t = float(traj.grid.times[i])
    samples = np.zeros(m)
    for j, r in enumerate(nodes):
        samples[j] = phi_tau(
            traj.model, old, traj.loading, t, float(r), settings
        ).rate_dissipation
    return float(weights @ samples), nodes, samples
