"""Small-strain companion solver and the rescaling bridge to it.

The linearized system evolves a displacement u and viscous displacement v
under the quadratic energy

    E0(t, u, v) = (1/2) c_el |u' - v'|^2 + (1/2) c_vi |v'|^2 - <l0(t), u>

with quadratic rate dissipation (d/2)|vdot'|^2. Each step is the exact
quadratic minimization of E0(t_i, u, v) + tau * Psi0((v - v_prev)/tau), i.e.
a variational implicit Euler sharing its structure with the finite-strain
stepper; comparisons between the two then isolate linearization error. Under
dead loads the minimization splits into one closed-form problem per element
(as in the finite-strain shear column, whose march ``kernels.column_march``
it shares with p = 2), and the material point is the one-element case with
resultant f + g. As there, the shear-column state is the pair of element
slopes (u', v').

The bridge: a finite-strain trajectory computed under load eps*l0 and
initial data id + eps*(u0, v0) is divided by eps into (u_eps, v_eps), and
the eps-scaled energies evaluate the nonlinear densities at eps-scaled
arguments times 1/eps^2. At a material point the elastic argument is
eps(u - v)/(1 + eps v); in the shear column it collapses to eps(u' - v')
exactly and quadratic densities make the rescaled problem eps-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import kernels
from .domain import (
    Ledger,
    Loading,
    ShearColumnMesh,
    TimeGrid,
    element_stress,
    read_only,
)
from .errors import ValidationError
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel, QuadraticLimit
from .stepper import Trajectory


@dataclass(frozen=True)
class LinState:
    """Displacement pair of the linearized system.

    In the shear column ``u`` and ``v`` hold the element slopes u' and v'
    (one value per element); at a material point both are single values.
    """

    u: np.ndarray
    v: np.ndarray
    mesh: Optional[ShearColumnMesh] = None

    @property
    def mode(self) -> str:
        return MATERIAL_POINT if self.mesh is None else SHEAR_COLUMN

    @staticmethod
    def material_point(u: float, v: float) -> "LinState":
        u, v = float(u), float(v)
        if not (np.isfinite(u) and np.isfinite(v)):
            raise ValidationError("material-point lin state must be finite")
        return LinState(np.array([u]), np.array([v]))

    @staticmethod
    def shear_column(mesh: ShearColumnMesh, u, v) -> "LinState":
        """Shear-column state from the element slopes u' and v'."""
        u = np.array(u, dtype=float)
        v = np.array(v, dtype=float)
        if u.shape != (mesh.n_elements,) or v.shape != (mesh.n_elements,):
            raise ValidationError("slope arrays must have one value per element")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValidationError("shear-column lin state must be finite")
        return LinState(u, v, mesh)



@dataclass
class LinTrajectory(Ledger):
    """Linearized states as one read-only dof array of shape
    (n_steps + 1, 2, n_elements), row i holding (u, v) of state i, with the
    dissipation of each step."""

    quad: QuadraticLimit
    loading: Loading
    grid: TimeGrid
    mesh: Optional[ShearColumnMesh]
    dofs: np.ndarray
    diss_increments: np.ndarray

    state_class = LinState

    @cached_property
    def stored(self) -> np.ndarray:
        """Stored quadratic energies (W_el0, W_vi0) of every state, shape
        (n_steps + 1, 2), read-only."""
        quad, u, v = self.quad, self.dofs[:, 0], self.dofs[:, 1]
        if self.mesh is None:
            e = u[:, 0] - v[:, 0]
            # Python's float ** 2, which can round unlike NumPy's v * v
            squares = np.array([x**2 for x in v[:, 0].tolist()])
            w_el, w_vi = 0.5 * quad.c_el * e * e, 0.5 * quad.c_vi * squares
        else:
            h = self.mesh.h
            w_el = 0.5 * quad.c_el * h * np.sum((u - v) ** 2, axis=1)
            w_vi = 0.5 * quad.c_vi * h * np.sum(v**2, axis=1)
        return read_only(np.column_stack([w_el, w_vi]))


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
    """The exact implicit-Euler steps of the linearized system across the
    grid. Dead loads make each element (and the material point, the
    one-element case with resultant f + g) an independent closed-form
    problem: c_el (u' - v') = sigma and c_vi v' + d (v' - v_old)/tau =
    sigma. The resultants of all grid times form one array, and the viscous
    recursion is one ``kernels.column_march`` call (looked up at the module
    attribute) with the quadratic limit's c_vi, d and p = 2; the rest follows
    from it in array passes."""
    mesh, tau, n = state0.mesh, grid.tau, grid.n_steps
    f, g = loading.f(grid.times), loading.g(grid.times)
    if mesh is None:
        sigma = (f + g)[:, None]
    else:
        sigma = g[:, None] + f[:, None] * mesh.load_shapes[0]
    dofs = np.empty((n + 1, 2, len(state0.v)))
    dofs[0] = state0.u, state0.v
    v = dofs[:, 1]
    # p = 2: the closed form, which reads neither h nor grad_tol and max_iter
    kernels.column_march(quad.c_vi, quad.d_diss, 2.0, sigma[1:], tau, 1.0, 1.0, 1, v, [])
    dofs[1:, 0] = v[1:] + sigma[1:] / quad.c_el
    rate = (v[1:] - v[:-1]) / tau
    if mesh is None:
        diss = tau * 0.5 * quad.d_diss * rate[:, 0] * rate[:, 0]
    else:
        diss = tau * 0.5 * quad.d_diss * mesh.h * np.sum(rate * rate, axis=1)
    return LinTrajectory(
        quad=quad,
        loading=loading,
        grid=grid,
        mesh=mesh,
        dofs=read_only(dofs),
        diss_increments=read_only(diss),
    )


# -- rescaling bridge -----------------------------------------------------------


def rescale_displacements(traj: Trajectory, eps: float) -> LinTrajectory:
    """Divide a finite-strain trajectory by eps into lin-layout states.

    The trajectory is expected to come from eps-scaled loading and initial
    data; the returned loading is scaled back by 1/eps accordingly, and the
    dissipation increments are the eps-rescaled ones.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    shift = 1.0 if traj.mesh is None else 0.0
    loading0 = Loading(
        f_coeffs=tuple(c / eps for c in traj.loading.f_coeffs),
        g_coeffs=tuple(c / eps for c in traj.loading.g_coeffs),
    )
    return LinTrajectory(
        quad=traj.model.quadratic_limit(),
        loading=loading0,
        grid=traj.grid,
        mesh=traj.mesh,
        dofs=read_only((traj.dofs - shift) / eps),
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
