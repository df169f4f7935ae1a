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
one-element case with resultant f + g. As there, the shear-column state is
the pair of element slopes (u', v').

The bridge: a finite-strain trajectory computed under load eps*l0 and
initial data id + eps*(u0, v0) is divided by eps into (u_eps, v_eps), and
the eps-scaled energies evaluate the nonlinear densities at eps-scaled
arguments times 1/eps^2. At a material point the elastic argument is
eps(u - v)/(1 + eps v); in the shear column it collapses to eps(u' - v')
exactly and quadratic densities make the rescaled problem eps-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .domain import Loading, ShearColumnMesh, TimeGrid, element_stress, slope_pairing
from .errors import ValidationError
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel, QuadraticLimit
from .stepper import Trajectory


@dataclass(frozen=True)
class LinState:
    """Displacement pair of the linearized system.

    In the shear column ``u`` and ``v`` hold the element slopes u' and v'
    (one value per element); at a material point both are single values.
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
        """Shear-column state from the element slopes u' and v'."""
        u = np.array(u, dtype=float)
        v = np.array(v, dtype=float)
        if u.shape != (mesh.n_elements,) or v.shape != (mesh.n_elements,):
            raise ValidationError("slope arrays must have one value per element")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValidationError("shear-column lin state must be finite")
        return LinState(mode=SHEAR_COLUMN, u=u, v=v, mesh=mesh)


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


def lin_stored(quad: QuadraticLimit, state: LinState):
    """Stored quadratic energies ``(W_el0, W_vi0)``."""
    if state.mode == MATERIAL_POINT:
        e = float(state.u[0] - state.v[0])
        return 0.5 * quad.c_el * e * e, 0.5 * quad.c_vi * float(state.v[0]) ** 2
    h = state.mesh.h
    w_el = 0.5 * quad.c_el * h * float(np.sum((state.u - state.v) ** 2))
    w_vi = 0.5 * quad.c_vi * h * float(np.sum(state.v**2))
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
    return slope_pairing(state.mesh, state.u, f_val, g_val)


def lin_energy(quad: QuadraticLimit, state: LinState, loading: Loading, t: float):
    w_el, w_vi = lin_stored(quad, state)
    return w_el + w_vi - lin_pairing(state, loading, t)


def lin_dissipation_increment(
    quad: QuadraticLimit, new: LinState, old: LinState, r: float
) -> float:
    if new.mode == MATERIAL_POINT:
        rate = float(new.v[0] - old.v[0]) / r
        return r * 0.5 * quad.d_diss * rate * rate
    rate = (new.v - old.v) / r
    return r * 0.5 * quad.d_diss * new.mesh.h * float(np.sum(rate * rate))


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
    sigma = element_stress(prev.mesh, loading.f(t), loading.g(t))
    u, v = _lin_slopes(quad, sigma, prev.v, tau)
    return LinState(mode=SHEAR_COLUMN, u=u, v=v, mesh=prev.mesh)


def _lin_gradients(
    quad: QuadraticLimit,
    state: LinState,
    prev: LinState,
    tau: float,
    loading: Loading,
    t: float,
):
    """Discrete Euler-Lagrange gradients (gu, gv) at ``state``, in the
    element slopes for the shear column; the material point is the
    one-element case with h = 1 and resultant f + g."""
    if state.mode == MATERIAL_POINT:
        h, sigma = 1.0, loading.f(t) + loading.g(t)
    else:
        h, sigma = state.mesh.h, element_stress(state.mesh, loading.f(t), loading.g(t))
    sig_el = quad.c_el * (state.u - state.v)
    sig_v = quad.c_vi * state.v + quad.d_diss * (state.v - prev.v) / tau
    return h * (sig_el - sigma), h * (sig_v - sig_el)


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
    sigma = element_stress(prev.mesh, loading.f(t), loading.g(t))
    return replace(prev, u=prev.v + sigma / quad.c_el)


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


def rescaled_energies(state: LinState, eps: float, model: MaterialModel):
    """Eps-scaled stored energies ``(W_el, W_vi)`` of a lin-layout state.

    Evaluates eps^-2 W(eps-scaled arguments): at a material point the
    elastic argument keeps its (1 + eps v)^-1 factor, the shear ansatz has
    none.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    if state.mode == MATERIAL_POINT:
        u, v = float(state.u[0]), float(state.v[0])
        s_el = eps * (u - v) / (1.0 + eps * v)
        w_el = float(model.w_el(s_el)) / (eps * eps)
        w_vi = float(model.w_vi(eps * v)) / (eps * eps)
        return w_el, w_vi
    h = state.mesh.h
    w_el = h * float(np.sum(model.w_el(eps * (state.u - state.v)))) / (eps * eps)
    w_vi = h * float(np.sum(model.w_vi(eps * state.v))) / (eps * eps)
    return w_el, w_vi
