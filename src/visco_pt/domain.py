"""Reduced geometries, states, loading, time grid, and the energy/dissipation
functionals with analytic gradients.

Material point: the state is the pair (F, F_vi) of total and viscous
stretches, F_vi > 0. Shear column: the state is a pair of P1 nodal profiles
(gamma, beta) on [0, 1]; the deformation is X + gamma(X2) e1 and the viscous
part X + beta(X2) e1, so the elastic strain per element is gamma' - beta'
exactly and the viscous constraint det = 1 holds structurally. gamma is
clamped at the bottom node; beta is defined up to a constant and stored with
zero mean.

Packed dof layout (the vector that gradients and affine interpolants use):

* material point: ``x = [F, F_vi]``;
* shear column: ``x = [gamma[1:], beta[1:] - beta[0]]`` (bottom values
  eliminated; the beta block is re-projected to zero mean on unpacking,
  which leaves every energy term unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import InfeasibleState, ValidationError
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel

ZERO_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class ShearColumnMesh:
    """Equispaced P1 mesh of the unit column."""

    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValidationError(f"n_elements must be >= 1, got {self.n_elements}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_elements

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_nodes)


@lru_cache(maxsize=None)
def trapezoid_weights(mesh: ShearColumnMesh) -> np.ndarray:
    """Nodal quadrature weights of the trapezoid rule (exact for P1), built
    once per mesh and read-only."""
    w = np.full(mesh.n_nodes, mesh.h)
    w[0] = 0.5 * mesh.h
    w[-1] = 0.5 * mesh.h
    w.flags.writeable = False
    return w


def project_zero_mean(mesh: ShearColumnMesh, beta: np.ndarray) -> np.ndarray:
    """Remove the constant (null) component: subtract the trapezoid mean."""
    return beta - float(trapezoid_weights(mesh) @ beta)


def nodal_from_slopes(mesh: ShearColumnMesh, slopes: np.ndarray) -> np.ndarray:
    """P1 nodal profile that vanishes at the bottom node and has the given
    element slopes."""
    return np.concatenate([[0.0], mesh.h * np.cumsum(slopes)])


def element_stress(mesh: ShearColumnMesh, f_val: float, g_val: float) -> np.ndarray:
    """Element resultants sigma_e = g + f * (1 - x_e,mid) of a dead load.

    With gamma(0) = 0 the load pairing is sum_e h * sigma_e * gamma'_e: the
    traction g acts on every element, the body force on the part of the
    column above the element's midpoint.
    """
    x_mid = (np.arange(mesh.n_elements) + 0.5) * mesh.h
    return g_val + f_val * (1.0 - x_mid)


@dataclass(frozen=True)
class State:
    """Deformation state in one of the two reduced geometries."""

    mode: str
    gamma: np.ndarray
    beta: np.ndarray
    mesh: Optional[ShearColumnMesh] = field(default=None)

    @staticmethod
    def material_point(F: float, F_vi: float) -> "State":
        if not np.isfinite(F) or not np.isfinite(F_vi):
            raise InfeasibleState(f"nonfinite state ({F!r}, {F_vi!r})")
        if F_vi <= 0.0:
            raise InfeasibleState(f"F_vi must be > 0, got {F_vi!r}")
        return State(
            mode=MATERIAL_POINT,
            gamma=np.asarray([float(F)]),
            beta=np.asarray([float(F_vi)]),
        )

    @staticmethod
    def shear_column(mesh: ShearColumnMesh, gamma, beta) -> "State":
        gamma = np.asarray(gamma, dtype=float).copy()
        beta = np.asarray(beta, dtype=float).copy()
        if gamma.shape != (mesh.n_nodes,) or beta.shape != (mesh.n_nodes,):
            raise ValidationError(
                f"gamma/beta must have {mesh.n_nodes} nodal values, "
                f"got {gamma.shape} and {beta.shape}"
            )
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(beta))):
            raise InfeasibleState("nonfinite nodal values")
        if abs(gamma[0]) > ZERO_MEAN_TOL:
            raise ValidationError(f"gamma(0) must vanish, got {gamma[0]!r}")
        gamma[0] = 0.0
        mean = float(trapezoid_weights(mesh) @ beta)
        if abs(mean) > ZERO_MEAN_TOL:
            raise ValidationError(f"beta must have zero mean, got mean {mean!r}")
        beta -= mean
        return State(mode=SHEAR_COLUMN, gamma=gamma, beta=beta, mesh=mesh)

    # -- material-point accessors --------------------------------------------

    @property
    def F(self) -> float:
        self._require(MATERIAL_POINT)
        return float(self.gamma[0])

    @property
    def F_vi(self) -> float:
        self._require(MATERIAL_POINT)
        return float(self.beta[0])

    def _require(self, mode: str):
        if self.mode != mode:
            raise ValidationError(f"operation requires mode {mode}, state is {self.mode}")


def elastic_strain(state: State):
    """Elastic strain coordinate: F/F_vi - 1, or gamma' - beta' per element."""
    if state.mode == MATERIAL_POINT:
        return state.F / state.F_vi - 1.0
    h = state.mesh.h
    return (np.diff(state.gamma) - np.diff(state.beta)) / h


def viscous_strain(state: State):
    """Viscous strain coordinate: F_vi - 1, or beta' per element."""
    if state.mode == MATERIAL_POINT:
        return state.F_vi - 1.0
    return np.diff(state.beta) / state.mesh.h


# -- dof packing --------------------------------------------------------------


def pack_dofs(state: State) -> np.ndarray:
    if state.mode == MATERIAL_POINT:
        return np.asarray([state.F, state.F_vi])
    return np.concatenate([state.gamma[1:], state.beta[1:] - state.beta[0]])


def unpack_dofs(template: State, x: np.ndarray) -> State:
    """Inverse of :func:`pack_dofs`; signals infeasible trial vectors."""
    x = np.asarray(x, dtype=float)
    if template.mode == MATERIAL_POINT:
        return State.material_point(x[0], x[1])
    mesh = template.mesh
    n = mesh.n_elements
    if x.shape != (2 * n,):
        raise ValidationError(f"dof vector must have length {2 * n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InfeasibleState("nonfinite dof vector")
    gamma = np.concatenate([[0.0], x[:n]])
    beta = project_zero_mean(mesh, np.concatenate([[0.0], x[n:]]))
    return State(mode=SHEAR_COLUMN, gamma=gamma, beta=beta, mesh=mesh)


# -- loading ------------------------------------------------------------------


@dataclass(frozen=True)
class Loading:
    """Body force and boundary traction with polynomial time dependence.

    ``f_coeffs``/``g_coeffs`` are ascending polynomial coefficients in t. In
    the shear column, f(t) pairs with the trapezoid integral of gamma and
    g(t) with the top nodal value; at a material point both pair with F (the
    constant, dof-independent part of the pairing is dropped).
    """

    f_coeffs: tuple = (0.0,)
    g_coeffs: tuple = (0.0,)

    def __post_init__(self):
        for name in ("f_coeffs", "g_coeffs"):
            coeffs = tuple(float(c) for c in getattr(self, name)) or (0.0,)
            if not all(np.isfinite(c) for c in coeffs):
                raise ValidationError(f"{name} must be finite coefficients")
            object.__setattr__(self, name, coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.f_coeffs + self.g_coeffs)

    def f(self, t: float) -> float:
        return _polyval(self.f_coeffs, t)

    def g(self, t: float) -> float:
        return _polyval(self.g_coeffs, t)

    def pairing(self, state: State, t: float) -> float:
        """Dof-dependent part of the load pairing at time t."""
        return self._pair(state, self.f(t), self.g(t))

    def pairing_delta(self, state: State, t1: float, t0: float) -> float:
        """Exact integral of the load-rate pairing over [t0, t1] against a
        frozen state (polynomial coefficients integrate to endpoint
        differences)."""
        return self._pair(state, self.f(t1) - self.f(t0), self.g(t1) - self.g(t0))

    def _pair(self, state: State, f_val: float, g_val: float) -> float:
        if state.mode == MATERIAL_POINT:
            return (f_val + g_val) * state.F
        w = trapezoid_weights(state.mesh)
        return f_val * float(w @ state.gamma) + g_val * float(state.gamma[-1])


def _polyval(coeffs: tuple, t: float) -> float:
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


# -- time grid ----------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_final] into n_steps increments."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t_final) or self.t_final <= 0.0:
            raise ValidationError(f"t_final must be > 0, got {self.t_final!r}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times, computed once per grid and read-only."""
        times = np.linspace(0.0, self.t_final, self.n_steps + 1)
        times.flags.writeable = False
        return times


# -- energy and dissipation ---------------------------------------------------


def stored_energies(model: MaterialModel, state: State) -> tuple:
    """(elastic, viscous) stored energy of a state."""
    _check_mode(model, state)
    if state.mode == MATERIAL_POINT:
        return (
            float(model.w_el(state.F / state.F_vi - 1.0)),
            float(model.w_vi(state.F_vi - 1.0)),
        )
    h = state.mesh.h
    s_el = elastic_strain(state)
    s_vi = viscous_strain(state)
    return (
        h * float(np.sum(model.w_el(s_el))),
        h * float(np.sum(model.w_vi(s_vi))),
    )


def energy_value(model: MaterialModel, state: State, loading: Loading, t: float) -> float:
    """Total energy E(t, state): stored energies minus the load pairing."""
    w_el, w_vi = stored_energies(model, state)
    return energy_from_stored(w_el, w_vi, state, loading, t)


def energy_from_stored(
    w_el: float, w_vi: float, state: State, loading: Loading, t: float
) -> float:
    """E(t, state) given ``stored_energies(model, state) == (w_el, w_vi)``."""
    if state.mode == MATERIAL_POINT:
        return w_el + w_vi - (loading.f(t) + loading.g(t)) * state.F
    f_pair = loading.f(t) * float(trapezoid_weights(state.mesh) @ state.gamma)
    return w_el + w_vi - f_pair - loading.g(t) * float(state.gamma[-1])


def total_energy(model: MaterialModel, state: State, loading: Loading, t: float):
    """Total energy E(t, state), as :func:`energy_value`, and its analytic
    gradient in packed dofs."""
    value = energy_value(model, state, loading, t)
    if state.mode == MATERIAL_POINT:
        F, F_vi = state.F, state.F_vi
        load = loading.f(t) + loading.g(t)
        dw = model.dw_el(F / F_vi - 1.0)
        grad = np.asarray(
            [
                dw / F_vi - load,
                -dw * F / F_vi**2 + model.dw_vi(F_vi - 1.0),
            ]
        )
        return value, grad

    d_el = np.asarray(model.dw_el(elastic_strain(state)))
    d_vi = np.asarray(model.dw_vi(viscous_strain(state)))
    grad_gamma = assemble_slope_gradient(d_el)[1:]
    grad_gamma -= loading.f(t) * trapezoid_weights(state.mesh)[1:]
    grad_gamma[-1] -= loading.g(t)
    grad_beta = assemble_slope_gradient(d_vi - d_el)[1:]
    return value, np.concatenate([grad_gamma, grad_beta])


def assemble_slope_gradient(per_element: np.ndarray) -> np.ndarray:
    """Nodal gradient of h * sum_e density(slope_e): the h and 1/h cancel."""
    out = np.zeros(per_element.size + 1)
    out[:-1] -= per_element
    out[1:] += per_element
    return out


def dissipation_rates(model: MaterialModel, new: State, old: State, r: float):
    """Discrete viscous rate argument for a substep of length r."""
    if new.mode == MATERIAL_POINT:
        return (new.F_vi - old.F_vi) / (r * old.F_vi)
    return (np.diff(new.beta) - np.diff(old.beta)) / (new.mesh.h * r)


def dissipation_increment(model: MaterialModel, new: State, old: State, r: float) -> float:
    """r * Psi(old, (new - old)/r), the dissipation charged to a substep."""
    _check_pair(new, old)
    rate = dissipation_rates(model, new, old, r)
    if new.mode == MATERIAL_POINT:
        return r * float(model.psi(rate))
    return r * new.mesh.h * float(np.sum(model.psi(rate)))


def dissipation_displacement(model: MaterialModel, new: State, old: State) -> float:
    """Psi(old, new - old): the unnormalized displacement dissipation."""
    return dissipation_increment(model, new, old, 1.0)


def _check_pair(new: State, old: State):
    if new.mode != old.mode:
        raise ValidationError("states have different modes")
    if new.mode == SHEAR_COLUMN and new.mesh.n_elements != old.mesh.n_elements:
        raise ValidationError("states live on different meshes")


def _check_mode(model: MaterialModel, state: State):
    if model.mode != state.mode:
        raise ValidationError(
            f"model mode {model.mode} does not match state mode {state.mode}"
        )

