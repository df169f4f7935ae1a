"""Incremental minimization time stepping.

One step from state (y, y_vi) at time t_{i-1} to time t_i solves

    min  E(t_i, y, y_vi) + tau * Psi(y_vi_old, (y_vi - y_vi_old)/tau)

over the state. Minimality against the stay-put competitor (the previous
state itself, which charges no dissipation) is asserted on every step:
E(t_i, new) + tau*Psi <= E(t_i, old) up to 1e-8 plus the rounding of the two
energies compared, and violations reject the step.

Routing: both geometries eliminate the elastic variable in closed form and
solve scalar equations for the viscous one. A material-point step goes
through the stepping kernel (:mod:`visco_pt.kernels`): F solves
w_el'(F/F_vi - 1) = load * F_vi, and F_vi one scalar equation anchored at the
previous F_vi (a closed form when a4 = 0 and p_psi = 2, a bracketed scalar
Newton otherwise), in plain floats; the kernel also returns the state's
stored energies and dissipation. A step with no admissible minimizer (the
root leaves the admissible set, or the reduced curvature there is not
positive) raises :class:`InfeasibleState` at once, naming the step and the
curvature. The shear column under dead loads is statically determinate, so
its step splits into one problem per element: with the element resultant
sigma_e = g + f * (1 - x_e,mid), the elastic strain solves w_el'(s) = sigma_e
and the viscous slope solves c_v b + psi'((b - b_old)/r) = sigma_e (a closed
form when p_psi = 2, a bracketed scalar Newton otherwise). The state is
these element slopes: gamma' = s + b and beta' = b. A step or substep whose
solver stops at ``max_iter`` raises :class:`SolverNotConverged`; no such
step is accepted.

Steps pass the dofs (y, y_vi), floats at a material point and element
arrays in the shear column, and build no :class:`State`; the
:class:`Trajectory` stores them as one dof array (see :mod:`visco_pt.domain`)
with per-state and per-step arrays beside it.

The same solver evaluated at a substep r in (0, tau] gives phi_tau(r), the
value function of the De Giorgi interpolation; its minimizer is the De
Giorgi interpolant and the integral of the rate dissipation over r in
[0, tau] (Gauss-Legendre) supplies the improved dissipation term of the
sharp energy identity. :func:`de_giorgi_integral` prices it for a whole
trajectory from its dof array, with no :class:`State` and no phi_tau: the
material-point substeps go one by one through the kernel, the shear-column
substeps of all steps and nodes through one batched viscous-slope solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import kernels
from .domain import (
    Ledger,
    Loading,
    ShearColumnMesh,
    State,
    TimeGrid,
    dof_dissipation,
    dof_stored_energies,
    element_stress,
    pairing,
    read_only,
    slope_pairing,
    state_dofs,
    state_from_dofs,
    stored_energies,
)
from .errors import (
    InfeasibleState,
    NonFiniteObjective,
    SolverNotConverged,
    StepRejected,
    ValidationError,
)
from .minimize import MAX_ITER_EXCEEDED, RESOLUTION, MinimizeSettings
from .rheology import MaterialModel

STAY_PUT_TOL = 1e-8


class Step(NamedTuple):
    """One accepted step: the new dofs, their stored energies, the
    dissipation, and the solver's iterations, final |grad|_inf (0 for the
    shear closed form) and stay-put margin E(t, old) - (E(t, new) + tau *
    Psi). An accepted step has converged."""

    y: object
    y_vi: object
    w_el: float
    w_vi: float
    diss: float
    iterations: int
    grad_inf: float
    margin: float


class PhiTau(NamedTuple):
    """Value, minimizer dofs and rate dissipation of the incremental
    functional at substep r; ``state`` builds the minimizer."""

    value: float
    y: object
    y_vi: object
    rate_dissipation: float
    iterations: int
    mesh: Optional[ShearColumnMesh] = None

    @property
    def state(self) -> State:
        return state_from_dofs(self.mesh, self.y, self.y_vi)


@dataclass
class Trajectory(Ledger):
    """Accepted states as one read-only dof array of shape (n_steps + 1, 2,
    n_elements), with what was evaluated on them once, while stepping:
    ``stored[i]`` is ``stored_energies(model, states[i])``, and the fields
    of :class:`Step` i sit at index i - 1 of the per-step arrays. All arrays
    are read-only."""

    model: MaterialModel
    loading: Loading
    grid: TimeGrid
    mesh: Optional[ShearColumnMesh]
    dofs: np.ndarray
    stored: np.ndarray
    diss_increments: np.ndarray
    iterations: np.ndarray
    grad_inf: np.ndarray
    stay_put_margin: np.ndarray
    settings: MinimizeSettings


# -- single incremental solve ---------------------------------------------------


class _LoadAt(NamedTuple):
    """The load at one time: its values f and g and, in the shear column, the
    element resultants with the elastic strains that balance them."""

    f: float
    g: float
    sigma: Optional[np.ndarray] = None
    s_el: Optional[np.ndarray] = None


def _load_at(model: MaterialModel, mesh, loading: Loading, t: float) -> _LoadAt:
    f_val, g_val = loading.f(t), loading.g(t)
    if mesh is None:
        return _LoadAt(f_val, g_val)
    sigma = element_stress(mesh, f_val, g_val)
    return _LoadAt(f_val, g_val, sigma, _elastic_strains(model, sigma))


def _solve_incremental(
    model: MaterialModel,
    mesh: Optional[ShearColumnMesh],
    old: tuple,
    at: _LoadAt,
    r: float,
    settings: MinimizeSettings,
    where: str,
):
    """Minimize the incremental functional from the dofs ``old`` under the
    load ``at``; returns ``(y, y_vi, value, w_el, w_vi, diss, iterations,
    grad_inf)``, with ``stored_energies`` of the minimizer and the
    dissipation r * Psi charged to the substep.

    Raises :class:`SolverNotConverged`, naming ``where``, if the solver
    stops without converging, and at a material point
    :class:`InfeasibleState`, naming ``where`` and the reduced curvature, if
    the step has no admissible minimizer.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValidationError(f"substep length must be > 0, got {r!r}")

    if mesh is None:
        solved = kernels.mp_minimize(
            model.c_e, model.a4, model.c_v, model.d_v, model.p_psi, model.k_radius,
            at.f + at.g, old[1], r, settings.grad_tol, settings.max_iter,
        )
        F, Fv, value, grad_inf, iterations, status, w_el, w_vi, diss = solved
        if status == 3:
            raise InfeasibleState(
                f"{where} has no admissible minimizer: at F_vi = {Fv!r}, "
                f"|g'| = {grad_inf:.3e} and the reduced curvature g'' = {value:.3e}"
            )
        if status == 4:
            raise NonFiniteObjective(f"{where}: incremental objective is not finite")
        if status == 1:
            raise SolverNotConverged(where, MAX_ITER_EXCEEDED, grad_inf)
        return F, Fv, value, w_el, w_vi, diss, iterations, grad_inf

    b, iterations, grad_inf = _viscous_slopes(
        model, at.sigma, old[1], r, mesh.h, settings, lambda: where
    )
    gamma = at.s_el + b
    w_el, w_vi = dof_stored_energies(model, mesh, gamma, b)
    diss = dof_dissipation(model, mesh, b, old[1], r)
    value = w_el + w_vi - slope_pairing(mesh, gamma, at.f, at.g) + diss
    return gamma, b, value, w_el, w_vi, diss, iterations, grad_inf


def _elastic_strains(model: MaterialModel, sigma: np.ndarray) -> np.ndarray:
    """Per-element elastic strains s with w_el'(s) = sigma."""
    if model.a4 == 0.0:
        return sigma / model.c_e
    c_e, a4 = model.c_e, model.a4
    return np.array([kernels._strain(c_e, a4, s) for s in sigma.tolist()])


def _viscous_slopes(
    model: MaterialModel,
    sigma: np.ndarray,
    b_old: np.ndarray,
    r,
    h: float,
    settings: MinimizeSettings,
    where: Callable[..., str],
):
    """Per-element viscous slopes b with c_v b + psi'((b - b_old)/r) = sigma;
    returns ``(b, iterations, grad_inf)``.

    The last axis holds one solve's elements; leading axes of ``b_old``
    batch independent solves (``sigma`` and ``r`` broadcast). A closed form
    when p_psi = 2 (0 iterations, grad_inf 0). Otherwise Newton on each
    element, kept inside the bracket between b_old and sigma/c_v, where the
    residual changes sign (a step that leaves it bisects). An element is
    solved, and then left as it is, when h * |residual| <= grad_tol or when
    its Newton step is below the resolution of b, ``RESOLUTION * max(1,
    |b|)``; ``iterations`` is the most any element took, ``grad_inf`` the
    largest final h * |residual|. Raises :class:`SolverNotConverged` at
    ``max_iter``, named ``where(*row)`` for the first unconverged solve.
    """
    if model.p_psi == 2.0:
        return b_old + (sigma - model.c_v * b_old) / (model.c_v + model.d_v / r), 0, 0.0
    p = model.p_psi
    lo = np.minimum(b_old, sigma / model.c_v)
    hi = np.maximum(b_old, sigma / model.c_v)
    b = b_old.copy()
    active = np.ones(b.shape, dtype=bool)
    iterations = 0
    while True:
        rate = (b - b_old) / r
        residual = model.c_v * b + model.dpsi(rate) - sigma
        scaled = h * np.abs(residual)
        active &= scaled > settings.grad_tol
        if not active.any():
            return b, iterations, float(np.max(scaled))
        if iterations >= settings.max_iter:
            row = np.unravel_index(np.argmax(active), active.shape)[:-1]
            grad_inf = float(np.max(scaled[row][active[row]]))
            raise SolverNotConverged(where(*row), MAX_ITER_EXCEEDED, grad_inf)
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
    old: tuple,
    loading: Loading,
    t: float,
    tau: float,
    settings: MinimizeSettings = MinimizeSettings(),
    index: int = 0,
    *,
    stored_old: tuple,
    mesh: Optional[ShearColumnMesh] = None,
) -> Step:
    """One incremental minimization step from the dofs ``old = (y, y_vi)``
    (slope arrays on ``mesh`` in the shear column) with stored energies
    ``stored_old``; returns the :class:`Step`.

    Raises :class:`StepRejected` if the minimality inequality against the
    stay-put competitor fails by more than ``STAY_PUT_TOL`` plus the
    rounding of the two energies it compares, ``RESOLUTION`` times the sum
    of their magnitudes; and :class:`SolverNotConverged` if the step's
    solver stops without converging.
    """
    at = _load_at(model, mesh, loading, t)
    y, y_vi, value, w_el, w_vi, diss, iterations, grad_inf = _solve_incremental(
        model, mesh, old, at, tau, settings, f"step {index}"
    )
    energy_old = stored_old[0] + stored_old[1] - pairing(mesh, old[0], at.f, at.g)
    margin = energy_old - value
    tolerance = STAY_PUT_TOL + RESOLUTION * (abs(energy_old) + abs(value))
    if margin < -tolerance:
        raise StepRejected(index, margin, tolerance)
    return Step(y, y_vi, w_el, w_vi, diss, iterations, grad_inf, margin)


def run_evolution(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    grid: TimeGrid,
    settings: MinimizeSettings = MinimizeSettings(),
) -> Trajectory:
    """March the incremental scheme across the whole grid."""
    mesh = state0.mesh
    stored = stored0 = stored_energies(model, state0)
    old = state_dofs(state0)
    times = grid.times.tolist()
    steps = []
    for i in range(1, grid.n_steps + 1):
        step = incremental_step(
            model, old, loading, times[i], grid.tau, settings, i,
            stored_old=stored, mesh=mesh,
        )
        steps.append(step)
        old, stored = step[:2], step[2:4]
    y, y_vi, w_el, w_vi, *per_step = (np.array(column) for column in zip(*steps))
    rows = (grid.n_steps, len(state0.gamma))
    new = np.stack([y.reshape(rows), y_vi.reshape(rows)], axis=1)
    dofs = np.concatenate([[(state0.gamma, state0.beta)], new])
    stored = np.concatenate([[stored0], np.column_stack([w_el, w_vi])])
    diss, iterations, grad_inf, margin = map(read_only, per_step)
    return Trajectory(
        model=model, loading=loading, grid=grid, mesh=mesh,
        dofs=read_only(dofs), stored=read_only(stored), diss_increments=diss,
        iterations=iterations, grad_inf=grad_inf,
        stay_put_margin=margin, settings=settings,
    )


# -- elastic equilibration ------------------------------------------------------


def equilibrate_elastic(
    model: MaterialModel, state: State, loading: Loading, t: float
) -> State:
    """Minimize the energy over the elastic variable at frozen viscous state.

    w_el is convex, so the minimizer is the one root of w_el'(s) = sigma,
    solved as in a step, for the stress sigma that balances the load at t:
    load * F_vi at a material point, the element resultants sigma_e in the
    shear column. Used to prepare initial data.
    """
    f_val, g_val = loading.f(t), loading.g(t)
    if state.mesh is None:
        s = kernels._strain(model.c_e, model.a4, (f_val + g_val) * state.F_vi)
        return State.material_point((1.0 + s) * state.F_vi, state.F_vi)
    sigma = element_stress(state.mesh, f_val, g_val)
    return replace(state, gamma=_elastic_strains(model, sigma) + state.beta)


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
    at = _load_at(model, old.mesh, loading, t)
    y, y_vi, value, _, _, diss, iterations, _ = _solve_incremental(
        model, old.mesh, state_dofs(old), at, r, settings, f"substep r={r!r}"
    )
    return PhiTau(value, y, y_vi, diss / r, iterations, old.mesh)


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


def de_giorgi_integral(traj: Trajectory, m: int):
    """Integral over r in [0, tau] of the substep rate dissipation of every
    step, with an estimate of its error; the substeps solve under the
    settings of ``traj``.

    Gauss-Legendre with m nodes (:func:`de_giorgi_rule`), and the
    max(2, m // 2)-node rule for the estimate |q_m - q_coarse|: one substep
    solve per node and step, m + max(2, m // 2) per step, from the step's
    old dofs under the load at its end. The integrand is smooth in r, so the
    error falls geometrically in m. A material point solves them one by one
    in the kernel, the shear column as one batch of shape (steps, nodes,
    elements). Returns per-step arrays ``(integral, estimate)``; a substep
    that fails raises, naming its step and r.
    """
    grid, model, mesh, settings = traj.grid, traj.model, traj.mesh, traj.settings
    nodes, weights = de_giorgi_rule(grid.tau, m)
    coarse_nodes, coarse_weights = de_giorgi_rule(grid.tau, max(2, m // 2))
    r = np.concatenate([nodes, coarse_nodes])
    rs = r.tolist()
    substeps = [f"substep r={x!r}" for x in rs]

    def where(n, j):
        return f"step {n + 1}, {substeps[j]}"

    if mesh is None:
        olds = traj.dofs[:-1, :, 0].tolist()
        rates = []
        for n, (old, t) in enumerate(zip(olds, grid.times[1:].tolist()), start=1):
            at, step = _load_at(model, mesh, traj.loading, t), f"step {n}, "
            rates.append([
                _solve_incremental(model, mesh, old, at, x, settings, step + name)[5] / x
                for x, name in zip(rs, substeps)
            ])
        rates = np.array(rates)
    else:
        times = grid.times[1:, None, None]
        sigma = element_stress(mesh, traj.loading.f(times), traj.loading.g(times))
        shape = (grid.n_steps, len(rs), mesh.n_elements)
        b_old = np.broadcast_to(traj.dofs[:-1, None, 1], shape)
        column = r[:, None]
        b, _, _ = _viscous_slopes(model, sigma, b_old, column, mesh.h, settings, where)
        outside = np.argwhere(np.abs(b).max(axis=-1) > model.k_radius)
        if len(outside):
            raise InfeasibleState(
                f"{where(*outside[0])} leaves the admissible radius {model.k_radius}"
            )
        # diss / r, with diss = r * h * sum formed as dof_dissipation forms it
        rates = r * mesh.h * np.add.reduce(model.psi((b - b_old) / column), axis=-1) / r
    integral = np.array([weights @ row for row in rates[:, : len(nodes)]])
    coarse = np.array([coarse_weights @ row for row in rates[:, len(nodes):]])
    return integral, np.abs(integral - coarse)
