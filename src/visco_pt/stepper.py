"""Incremental minimization time stepping.

One step from state (y, y_vi) at time t_{i-1} to time t_i solves

    min  E(t_i, y, y_vi) + tau * Psi(y_vi_old, (y_vi - y_vi_old)/tau)

over the state. Minimality against the stay-put competitor (the previous
state itself, which charges no dissipation) is asserted on every step:
E(t_i, new) + tau*Psi <= E(t_i, old) up to 1e-8 plus the rounding of the two
energies compared, and violations reject the step.

Routing: both geometries eliminate the elastic variable in closed form and
solve scalar equations for the viscous one. At a material point the stepping
kernel (:mod:`visco_pt.kernels`) solves them in plain floats: F solves
w_el'(F/F_vi - 1) = load * F_vi, and F_vi one scalar equation anchored at
the previous F_vi (a closed form when a4 = 0 and p_psi = 2, a bracketed
scalar Newton otherwise). A whole trajectory is one ``kernels.mp_march``
call. A solve with no admissible minimizer (the root leaves the admissible
set, or the reduced curvature there is not positive) fails at once, naming
the curvature (:func:`_failure`). The shear column under dead loads is
statically determinate, so its solve splits into one problem per element:
with the element resultant sigma_e = g + f * (1 - x_e,mid), the viscous
slope solves c_v b + psi'((b - b_old)/r) = sigma_e (a closed form when
p_psi = 2, a bracketed scalar Newton otherwise) in ``kernels.column_march``,
and the elastic strain solves w_el'(s) = sigma_e. The state is these element
slopes: gamma' = s + b and beta' = b. Both kernels stop by one rule, the
constants ``kernels.GRAD_TOL`` and ``kernels.MAX_ITER``; a solve that stops
at ``MAX_ITER`` iterations raises :class:`SolverNotConverged`, and no such
step is accepted.

Only the viscous variable carries history from one step to the next, so
:func:`run_evolution` marches only the solves under loads formed for all
steps at once (:func:`_march`): one ``kernels.mp_march`` call per
material-point trajectory and one ``kernels.column_march`` call per shear
trajectory. The kernels price nothing. Everything else is a function of the
two states around a step and is priced after the march, in both geometries
by one array pass over all states, state 0 included, through the model's
densities, bit for bit as the per-state functions of :mod:`visco_pt.domain`
price it; the earliest failing step still raises what it raised when steps
ran one by one. The
:class:`Trajectory` stores the states as one dof array (see
:mod:`visco_pt.domain`) with per-state and per-step arrays beside it.

The same march one step long, over a substep r in (0, tau], gives
phi_tau(r), the value function of the De Giorgi interpolation (its failure
is named ``step 1``); its minimizer is the De Giorgi interpolant, the step
itself at r = tau. The integral of its rate dissipation over r in [0, tau],
the improved dissipation term of the sharp energy identity, needs no
substep solve: :func:`de_giorgi_dissipation` takes it exactly for a whole
trajectory, in one array pass over its accepted states, from each step's own
dissipation and the Bregman gap of the reduced energy between its two ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

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
    pairing_products,
    product_pairings,
    read_only,
    state_from_dofs,
)
from .errors import (
    InfeasibleState,
    NonFiniteObjective,
    SolverNotConverged,
    StepRejected,
    ValidationError,
)
from .rheology import MaterialModel

STAY_PUT_TOL = 1e-8


class PhiTau(NamedTuple):
    """Value, minimizer, rate dissipation and solver iterations of the
    incremental functional at substep r."""

    value: float
    state: State
    rate_dissipation: float
    iterations: int


@dataclass
class Trajectory(Ledger):
    """Accepted states as one read-only dof array of shape (n_steps + 1, 2,
    n_elements), with what was priced on them once, after the march:
    ``stored[i]`` is ``stored_energies(model, states[i])``, and step i's
    dissipation, solver iterations, final |grad|_inf (for a closed form 0 in
    the shear column, the rounding of g' at a material point) and stay-put
    margin E(t_i, old) - (E(t_i, new) + tau * Psi) sit at index i - 1 of the
    per-step arrays. An accepted step has converged. All arrays are
    read-only."""

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


# -- the solve primitives --------------------------------------------------------


def _failure(where: str, status, grad_inf, Fv=None, curvature=None) -> Exception:
    """The error of a kernel solve that stopped with a nonzero status, in
    either geometry, named ``where``: :class:`InfeasibleState` with the
    reduced curvature at ``Fv`` (3, a material point's alone),
    :class:`NonFiniteObjective` (4), :class:`SolverNotConverged` (1)."""
    if status == 3:
        return InfeasibleState(
            f"{where} has no admissible minimizer: at F_vi = {Fv!r}, "
            f"|g'| = {grad_inf:.3e} and the reduced curvature g'' = {curvature:.3e}"
        )
    if status == 4:
        return NonFiniteObjective(f"{where}: incremental objective is not finite")
    return SolverNotConverged(where, grad_inf)


def _elastic_strains(model: MaterialModel, sigma: np.ndarray) -> np.ndarray:
    """Elastic strains s with w_el'(s) = sigma, for stresses with one row per
    time (shape (n, E)). When every row repeats the first bit for bit, as
    under constant dead loads, only the first is inverted (a read-only view
    repeats it)."""
    if model.a4 == 0.0:
        return sigma / model.c_e
    c_e, a4 = model.c_e, model.a4
    bits = sigma.view(np.uint64)  # a signed zero stands in for no other zero
    rows = sigma[:1] if (bits == bits[:1]).all() else sigma
    strains = [kernels._strain(c_e, a4, s) for s in rows.ravel().tolist()]
    return np.broadcast_to(np.reshape(strains, rows.shape), sigma.shape)


# -- the march ------------------------------------------------------------------


def _march(model: MaterialModel, state0: State, f, g, tau: float):
    """The dof array of ``state0`` and a step after it for each load value of
    the arrays f and g, each from the one before, marched by one kernel call
    under the stopping rule ``kernels.GRAD_TOL`` and ``kernels.MAX_ITER``
    (kernel and rule looked up at the module attributes when called):
    ``kernels.mp_march`` at a material point, ``kernels.column_march`` for a
    column's viscous slopes, whose elastic strains follow from the element
    resultants. The march stops at the step whose solve raised or ended with
    a nonzero status (:func:`_failure`), or, in a column, whose slopes leave
    the admissible radius. Then one array pass prices state 0 and the steps
    before it with :func:`dof_stored_energies` and :func:`dof_dissipation`;
    a price that is not finite is the caller's to fail. Returns ``(dofs, stored, diss,
    iterations, grad_inf, error)``: the rows of the states priced, and the
    error of the step where the march stopped (None if none)."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValidationError(f"substep length must be > 0, got {tau!r}")
    mesh, solves, error = state0.mesh, [], None
    dofs = np.empty((len(f) + 1, 2, len(state0.beta)))
    dofs[0] = state0.gamma, state0.beta
    sigma = None if mesh is None else element_stress(mesh, f[:, None], g[:, None])
    try:
        if mesh is None:
            kernels.mp_march(
                model.c_e, model.a4, model.c_v, model.d_v, model.p_psi, model.k_radius,
                (f + g).tolist(), float(dofs[0, 1, 0]), tau, kernels.GRAD_TOL,
                kernels.MAX_ITER, solves,
            )
        else:
            kernels.column_march(
                model.c_v, model.d_v, model.p_psi, sigma, tau, mesh.h, kernels.GRAD_TOL,
                kernels.MAX_ITER, dofs[:, 1], solves,
            )
    except Exception as failure:  # raised once earlier steps pass
        error = failure
    # a material point's tuples (F, F_vi, g'', |g'|, iterations, status), a
    # column's (iterations, |grad|_inf, status)
    n, width = len(solves), 6 if mesh is None else 3
    steps = np.fromiter(itertools.chain.from_iterable(solves), float, width * n).reshape(n, width)
    if mesh is None:
        dofs[1 : n + 1, :, 0] = steps[:, :2]
        iterations, grad_inf, status = steps[:, 4], steps[:, 3], steps[:, 5]
    else:
        iterations, grad_inf, status = steps.T
    if n and status[-1]:
        n -= 1
        at = steps[n, 1:3].tolist() if mesh is None else ()  # F_vi and g''
        error = _failure(f"step {n + 1}", status[n], float(grad_inf[n]), *at)
    if mesh is not None:
        beyond = np.flatnonzero((np.abs(dofs[1 : n + 1, 1]) > model.k_radius).any(axis=-1))
        if len(beyond):  # that step fails before any later one
            n = int(beyond[0])
            error = InfeasibleState(f"step {n + 1} leaves the admissible radius {model.k_radius}")
        np.add(_elastic_strains(model, sigma[:n]), dofs[1 : n + 1, 1], out=dofs[1 : n + 1, 0])
    dofs = dofs[: n + 1]
    y, y_vi = (dofs[:, 0, 0], dofs[:, 1, 0]) if mesh is None else (dofs[:, 0], dofs[:, 1])
    with np.errstate(all="ignore"):  # the caller fails a price that is not finite
        stored = np.column_stack(dof_stored_energies(model, mesh, y, y_vi))
        diss = dof_dissipation(model, mesh, y_vi[1:], y_vi[:-1], tau)
    return dofs, stored, diss, iterations[:n].astype(int), grad_inf[:n], error


def run_evolution(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    grid: TimeGrid,
) -> Trajectory:
    """March the incremental scheme across the whole grid.

    Only the viscous dofs carry history from step to step, so only their
    solves march, in one kernel call per trajectory, and the states are
    priced after it in one array pass (:func:`_march`). Then, in one more
    array pass over the steps: the load pairings of each new state and of
    its old state at the new time, from each state's
    :func:`~visco_pt.domain.pairing_products`, and with them each step's
    value E(t_i, new) + tau * Psi and stay-put margin E(t_i, old) - value,
    each as the per-state functions give it, bit for bit.

    The earliest step that fails raises what it raised when the steps ran
    one by one: its solve error; :class:`InfeasibleState` for shear slopes
    outside the admissible radius; :class:`NonFiniteObjective` when the
    margin is not finite; or :class:`StepRejected` when the margin falls
    below -(``STAY_PUT_TOL`` plus the rounding of the two energies it
    compares, ``kernels.RESOLUTION`` times the sum of their magnitudes).
    """
    mesh = state0.mesh
    f, g = loading.f(grid.times[1:]), loading.g(grid.times[1:])
    march = _march(model, state0, f, g, grid.tau)
    dofs, stored, diss, iterations, grad_inf, error = march
    n = len(diss)
    f, g = f[:n], g[:n]
    with np.errstate(all="ignore"):  # a margin that is not finite fails its step
        products = pairing_products(mesh, dofs[:, 0])
        totals = stored[:, 0] + stored[:, 1]
        energy_old = totals[:-1] - product_pairings(mesh, products[..., :-1], f, g)
        value = (totals[1:] - product_pairings(mesh, products[..., 1:], f, g)) + diss
        margins = energy_old - value
        tolerance = STAY_PUT_TOL + kernels.RESOLUTION * (np.abs(energy_old) + np.abs(value))
    failed = np.flatnonzero((margins < -tolerance) | ~np.isfinite(margins))
    if len(failed):
        k = int(failed[0])
        if not math.isfinite(margins[k]):
            raise NonFiniteObjective(f"step {k + 1}: incremental objective is not finite")
        raise StepRejected(k + 1, float(margins[k]), float(tolerance[k]))
    if error is not None:
        raise error
    traj = Trajectory(
        model=model, loading=loading, grid=grid, mesh=mesh, dofs=read_only(dofs),
        stored=read_only(stored), diss_increments=read_only(diss),
        iterations=read_only(iterations), grad_inf=read_only(grad_inf),
        stay_put_margin=read_only(margins),
    )
    traj.pairing_products = read_only(products)  # the ledger's cache: formed from these dofs
    return traj


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
    return replace(state, gamma=_elastic_strains(model, sigma[None])[0] + state.beta)


# -- De Giorgi interpolation ----------------------------------------------------


def phi_tau(
    model: MaterialModel,
    old: State,
    loading: Loading,
    t: float,
    r: float,
) -> PhiTau:
    """Value, minimizer and rate dissipation of the substep functional: the
    one-step march of :func:`run_evolution` from ``old``, of length r, under
    the load at t. The value is E(t, new) + r * Psi, as
    :func:`~visco_pt.domain.energy_value` prices it; a failure is named
    ``step 1``, as the march names it."""
    f, g = np.array([loading.f(t)]), np.array([loading.g(t)])
    dofs, stored, diss, iterations, _, error = _march(model, old, f, g, r)
    if error is not None:
        raise error
    new = state_from_dofs(old.mesh, *dofs[1])
    (w_el, w_vi), (dissipation,) = stored[1].tolist(), diss.tolist()
    with np.errstate(all="ignore"):  # a value that is not finite fails below
        value = float(w_el + w_vi - loading.pairing(new, t)) + dissipation
    if not math.isfinite(value):
        raise NonFiniteObjective("step 1: incremental objective is not finite")
    return PhiTau(value, new, dissipation / r, int(iterations[0]))


def de_giorgi_dissipation(traj: Trajectory) -> np.ndarray:
    """Integral over r in [0, tau] of the substep rate dissipation of every
    step, exact, in one array pass with no substep solve.

    Each step's substeps run from its old dofs under the load at its end.
    Their minimizers, the De Giorgi interpolant, run from the anchor a of
    the viscous dof (r -> 0) to the step's own x (r = tau). Let R be the
    energy reduced over the elastic variable. The substep Euler-Lagrange
    equation and the p_psi-homogeneity of psi give

        integral = tau * psi(rate at tau) + B / (p_psi - 1),
        B = R(a) - R(x) + R'(x) (x - a),

    with B the Bregman gap of R and tau * psi(rate at tau) the step's own
    dissipation. At a material point with load l = f + g, R(x) is the
    state's energy E(t_i, state i), since the march minimized over F;
    R'(x) = c_v (x - 1) - l F / x; and R(a) takes one elastic solve,
    w_el'(s) = l a. In a shear element the elastic strain is fixed by
    sigma_e, so B = h * sum_e c_v (b_old - b_new)^2 / 2.
    """
    model, grid, mesh = traj.model, traj.grid, traj.mesh
    anchors, steps = traj.dofs[:-1, 1], traj.dofs[1:, 1]
    if mesh is None:
        a, x, F = anchors[:, 0], steps[:, 0], traj.dofs[1:, 0, 0]
        load = traj.loading.f(grid.times[1:]) + traj.loading.g(grid.times[1:])
        s = _elastic_strains(model, (load * a)[:, None])[:, 0]
        reduced = model.w_el(s) + model.w_vi(a - 1.0) - load * ((1.0 + s) * a)
        slope = model.c_v * (x - 1.0) - load * F / x
        gap = (reduced - traj.energies[1:]) + slope * (x - a)
    else:
        drop = anchors - steps
        gap = mesh.h * np.add.reduce(0.5 * model.c_v * drop * drop, axis=-1)
    return traj.diss_increments + gap / (model.p_psi - 1.0)
