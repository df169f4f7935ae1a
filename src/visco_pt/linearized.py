"""Small-strain companion solver and the rescaling bridge to it.

The linearized system evolves a displacement u and viscous displacement v
under the quadratic energy

    E0(t, u, v) = (1/2) c_el |u' - v'|^2 + (1/2) c_vi |v'|^2 - <l0(t), u>

with quadratic rate dissipation (d/2)|vdot'|^2. Each step is the exact
quadratic minimization of E0(t_i, u, v) + tau * Psi0((v - v_prev)/tau), i.e.
a variational implicit Euler sharing its structure with the finite-strain
stepper; comparisons between the two then isolate linearization error. Under
dead loads the minimization splits into one closed-form problem per element
(as in the finite-strain shear column), and the material point is the
one-element case with resultant f + g.

The bridge: a finite-strain trajectory computed under load eps*l0 and
initial data id + eps*(u0, v0) is divided by eps into (u_eps, v_eps), and
the eps-scaled energies evaluate the nonlinear densities at eps-scaled
arguments times 1/eps^2. At a material point the elastic argument is
eps(u - v)/(1 + eps v); in the shear column it collapses to eps(u' - v')
exactly and quadratic densities make the rescaled problem eps-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .domain import (
    Loading,
    ShearColumnMesh,
    TimeGrid,
    assemble_slope_gradient,
    element_stress,
    nodal_from_slopes,
    project_zero_mean,
    trapezoid_weights,
)
from .errors import ValidationError
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel, QuadraticLimit
from .stepper import Trajectory


@dataclass(frozen=True)
class LinState:
    """Displacement pair of the linearized system.

    ``u`` is pinned at the bottom node (u[0] = 0), ``v`` has zero mean; at a
    material point both are single values.
    """

    mode: str
    u: np.ndarray
    v: np.ndarray
    mesh: Optional[ShearColumnMesh] = None

    @staticmethod
    def material_point(u: float, v: float) -> "LinState":
        u, v = float(u), float(v)
        if not (np.isfinite(u) and np.isfinite(v)):
            raise ValidationError("material-point lin state must be finite")
        return LinState(mode=MATERIAL_POINT, u=np.array([u]), v=np.array([v]))

    @staticmethod
    def shear_column(mesh: ShearColumnMesh, u, v) -> "LinState":
        u = np.asarray(u, dtype=float).copy()
        v = np.asarray(v, dtype=float).copy()
        if u.shape != (mesh.n_nodes,) or v.shape != (mesh.n_nodes,):
            raise ValidationError("nodal arrays must have one value per node")
        if abs(u[0]) > 1e-12:
            raise ValidationError(f"u must vanish at the bottom node, got {u[0]!r}")
        u[0] = 0.0
        return LinState(
            mode=SHEAR_COLUMN, u=u, v=project_zero_mean(mesh, v), mesh=mesh
        )


@dataclass
class LinTrajectory:
    quad: QuadraticLimit
    loading: Loading
    grid: TimeGrid
    states: List[LinState]
    diss_increments: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.diss_increments)])


def _slopes(mesh: ShearColumnMesh, nodal: np.ndarray) -> np.ndarray:
    return np.diff(nodal) / mesh.h


def lin_stored(quad: QuadraticLimit, state: LinState):
    """Stored quadratic energies ``(W_el0, W_vi0)``."""
    if state.mode == MATERIAL_POINT:
        e = float(state.u[0] - state.v[0])
        return 0.5 * quad.c_el * e * e, 0.5 * quad.c_vi * float(state.v[0]) ** 2
    h = state.mesh.h
    eu = _slopes(state.mesh, state.u)
    ev = _slopes(state.mesh, state.v)
    w_el = 0.5 * quad.c_el * h * float(np.sum((eu - ev) ** 2))
    w_vi = 0.5 * quad.c_vi * h * float(np.sum(ev**2))
    return w_el, w_vi


def lin_pairing(state: LinState, loading: Loading, t: float) -> float:
    return _lin_pair(state, loading.f(t), loading.g(t))


def lin_pairing_delta(state: LinState, loading: Loading, t1: float, t0: float):
    return _lin_pair(
        state, loading.f(t1) - loading.f(t0), loading.g(t1) - loading.g(t0)
    )


def _lin_pair(state: LinState, f_val: float, g_val: float) -> float:
    if state.mode == MATERIAL_POINT:
        return (f_val + g_val) * float(state.u[0])
    w = trapezoid_weights(state.mesh)
    return f_val * float(w @ state.u) + g_val * float(state.u[-1])


def lin_energy(quad: QuadraticLimit, state: LinState, loading: Loading, t: float):
    w_el, w_vi = lin_stored(quad, state)
    return w_el + w_vi - lin_pairing(state, loading, t)


def lin_dissipation_increment(
    quad: QuadraticLimit, new: LinState, old: LinState, r: float
) -> float:
    if new.mode == MATERIAL_POINT:
        rate = float(new.v[0] - old.v[0]) / r
        return r * 0.5 * quad.d_diss * rate * rate
    h = new.mesh.h
    rate = (_slopes(new.mesh, new.v) - _slopes(new.mesh, old.v)) / r
    return r * 0.5 * quad.d_diss * h * float(np.sum(rate * rate))


def _lin_slopes(quad: QuadraticLimit, sigma, v_old, tau: float):
    """Per-element minimizer ``(u', v')`` of one step under the resultant
    sigma: c_el (u' - v') = sigma and c_vi v' + d (v' - v_old)/tau = sigma."""
    v = v_old + (sigma - quad.c_vi * v_old) / (quad.c_vi + quad.d_diss / tau)
    return v + sigma / quad.c_el, v


def lin_step(
    t: float,
    prev: LinState,
    tau: float,
    quad: QuadraticLimit,
    loading: Loading,
) -> LinState:
    """One exact implicit-Euler step of the linearized system.

    Dead loads make each element (and the material point, the one-element
    case with sigma = f + g) an independent closed-form problem.
    """
    if not (tau > 0.0 and np.isfinite(tau)):
        raise ValidationError(f"step length must be > 0, got {tau!r}")
    if prev.mode == MATERIAL_POINT:
        load = loading.f(t) + loading.g(t)
        return LinState.material_point(*_lin_slopes(quad, load, float(prev.v[0]), tau))
    mesh = prev.mesh
    sigma = element_stress(mesh, loading.f(t), loading.g(t))
    du, dv = _lin_slopes(quad, sigma, _slopes(mesh, prev.v), tau)
    return LinState.shear_column(
        mesh, nodal_from_slopes(mesh, du), nodal_from_slopes(mesh, dv)
    )


def _lin_gradients(
    quad: QuadraticLimit,
    state: LinState,
    prev: LinState,
    tau: float,
    loading: Loading,
    t: float,
):
    """Discrete Euler-Lagrange gradients (gu, gv) at ``state``."""
    if state.mode == MATERIAL_POINT:
        load = loading.f(t) + loading.g(t)
        e = float(state.u[0] - state.v[0])
        gu = quad.c_el * e - load
        gv = (
            -quad.c_el * e
            + quad.c_vi * float(state.v[0])
            + quad.d_diss * float(state.v[0] - prev.v[0]) / tau
        )
        return np.array([gu]), np.array([gv])
    mesh = state.mesh
    eu = _slopes(mesh, state.u)
    ev = _slopes(mesh, state.v)
    rate = (ev - _slopes(mesh, prev.v)) / tau
    sig_el = quad.c_el * (eu - ev)
    sig_v = quad.c_vi * ev + quad.d_diss * rate

    gu = assemble_slope_gradient(sig_el)[1:]
    gu -= loading.f(t) * trapezoid_weights(mesh)[1:]
    gu[-1] -= loading.g(t)
    gv = assemble_slope_gradient(sig_v - sig_el)[1:]
    return gu, gv


def lin_el_residual(
    quad: QuadraticLimit,
    state: LinState,
    prev: LinState,
    tau: float,
    loading: Loading,
    t: float,
) -> float:
    """Sup-norm over the discrete Euler-Lagrange gradients at ``state``.

    Covers both equations at once: elastic equilibrium in u and the
    implicit-Euler flow rule in v.
    """
    gu, gv = _lin_gradients(quad, state, prev, tau, loading, t)
    return max(float(np.max(np.abs(gu))), float(np.max(np.abs(gv))))


def lin_semistability_residual(
    quad: QuadraticLimit, state: LinState, loading: Loading, t: float
) -> float:
    """Sup-norm of the u-gradient alone: u minimizes at frozen v."""
    gu, _ = _lin_gradients(quad, state, state, 1.0, loading, t)
    return float(np.max(np.abs(gu)))


def lin_equilibrium(
    quad: QuadraticLimit, prev: LinState, loading: Loading, t: float
) -> LinState:
    """Minimize the quadratic energy over u at frozen v (initial data)."""
    if prev.mode == MATERIAL_POINT:
        load = loading.f(t) + loading.g(t)
        return LinState.material_point(float(prev.v[0]) + load / quad.c_el, prev.v[0])
    mesh = prev.mesh
    sigma = element_stress(mesh, loading.f(t), loading.g(t))
    u = nodal_from_slopes(mesh, _slopes(mesh, prev.v) + sigma / quad.c_el)
    return LinState.shear_column(mesh, u, prev.v)


def run_lin_evolution(
    quad: QuadraticLimit,
    state0: LinState,
    loading: Loading,
    grid: TimeGrid,
) -> LinTrajectory:
    states = [state0]
    diss = np.zeros(grid.n_steps)
    times = grid.times
    for i in range(1, grid.n_steps + 1):
        state = lin_step(float(times[i]), states[-1], grid.tau, quad, loading)
        diss[i - 1] = lin_dissipation_increment(quad, state, states[-1], grid.tau)
        states.append(state)
    return LinTrajectory(
        quad=quad, loading=loading, grid=grid, states=states, diss_increments=diss
    )


def mp_lin_closed_form(v0: float, quad: QuadraticLimit, t: float):
    """Zero-load material point: v(t) = v0 exp(-(c_vi/d) t) and u = v."""
    v = v0 * math.exp(-(quad.c_vi / quad.d_diss) * t)
    return v, v


# -- rescaling bridge -----------------------------------------------------------


def rescale_displacements(traj: Trajectory, eps: float) -> LinTrajectory:
    """Divide a finite-strain trajectory by eps into lin-layout states.

    The trajectory is expected to come from eps-scaled loading and initial
    data; the returned loading is scaled back by 1/eps accordingly, and the
    dissipation increments are the eps-rescaled ones.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    states = []
    for st in traj.states:
        if st.mode == MATERIAL_POINT:
            states.append(
                LinState.material_point((st.F - 1.0) / eps, (st.F_vi - 1.0) / eps)
            )
        else:
            states.append(
                LinState.shear_column(st.mesh, st.gamma / eps, st.beta / eps)
            )
    loading0 = Loading(
        f_coeffs=tuple(c / eps for c in traj.loading.f_coeffs),
        g_coeffs=tuple(c / eps for c in traj.loading.g_coeffs),
    )
    return LinTrajectory(
        quad=traj.model.quadratic_limit(),
        loading=loading0,
        grid=traj.grid,
        states=states,
        diss_increments=traj.diss_increments / (eps * eps),
    )


@dataclass(frozen=True)
class RescaledEnergies:
    w_el: Union[float, np.ndarray]
    w_vi: Union[float, np.ndarray]
    psi_increments: Optional[np.ndarray]


def _rescaled_state_energies(state: LinState, eps: float, model: MaterialModel):
    if state.mode == MATERIAL_POINT:
        u, v = float(state.u[0]), float(state.v[0])
        s_el = eps * (u - v) / (1.0 + eps * v)
        w_el = float(model.w_el(s_el)) / (eps * eps)
        w_vi = float(model.w_vi(eps * v)) / (eps * eps)
        return w_el, w_vi
    h = state.mesh.h
    eu = _slopes(state.mesh, state.u)
    ev = _slopes(state.mesh, state.v)
    w_el = h * float(np.sum(model.w_el(eps * (eu - ev)))) / (eps * eps)
    w_vi = h * float(np.sum(model.w_vi(eps * ev))) / (eps * eps)
    return w_el, w_vi


def rescaled_energies(
    obj: Union[LinState, LinTrajectory], eps: float, model: MaterialModel
) -> RescaledEnergies:
    """Eps-scaled stored energies (and, for a trajectory, dissipation).

    Evaluates eps^-2 W(eps-scaled arguments) on lin-layout variables; the
    viscous rate at a material point keeps its (1 + eps v)^-1 factor, the
    shear ansatz has none.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    if isinstance(obj, LinState):
        w_el, w_vi = _rescaled_state_energies(obj, eps, model)
        return RescaledEnergies(w_el=w_el, w_vi=w_vi, psi_increments=None)
    n = obj.grid.n_steps
    w_el = np.zeros(n + 1)
    w_vi = np.zeros(n + 1)
    for i, st in enumerate(obj.states):
        w_el[i], w_vi[i] = _rescaled_state_energies(st, eps, model)
    tau = obj.grid.tau
    psi = np.zeros(n)
    for i in range(1, n + 1):
        new, old = obj.states[i], obj.states[i - 1]
        if new.mode == MATERIAL_POINT:
            rate = (
                eps
                * float(new.v[0] - old.v[0])
                / (tau * (1.0 + eps * float(old.v[0])))
            )
            psi[i - 1] = tau * float(model.psi(rate)) / (eps * eps)
        else:
            h = new.mesh.h
            rate = eps * (_slopes(new.mesh, new.v) - _slopes(new.mesh, old.v)) / tau
            psi[i - 1] = tau * h * float(np.sum(model.psi(rate))) / (eps * eps)
    return RescaledEnergies(w_el=w_el, w_vi=w_vi, psi_increments=psi)
