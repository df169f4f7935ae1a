"""Reduced geometries, states, loading, time grid, and the energy/dissipation
functionals with analytic gradients.

Material point: the state is the pair (F, F_vi) of total and viscous
stretches, F_vi > 0. Shear column: the deformation is X + gamma(X2) e1 and
the viscous part X + beta(X2) e1 with P1 profiles on [0, 1], clamped at the
bottom. Both maps are shears, so their composition adds the shear strains:
the state is the pair of element slopes (gamma', beta'), stored as
``gamma`` and ``beta`` (one value per element), the elastic strain per
element is gamma' - beta' exactly and the viscous constraint det = 1 holds
structurally. Slopes carry no gauge: the profiles are recovered by
integrating from the clamped bottom, and beta's additive constant never
enters an energy.

Packed dof layout (the vector that gradients and affine interpolants use):
``x = [gamma, beta]``, that is ``[F, F_vi]`` at a material point and
``[gamma', beta']`` in the shear column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InfeasibleState, ValidationError
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel


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

    @cached_property
    def load_shapes(self) -> np.ndarray:
        """Element resultants of a unit body force, 1 - x_e,mid (the length
        of column above each element's midpoint), and of a unit top
        traction, 1: a read-only (2, n_elements) array built once per mesh."""
        shapes = np.ones((2, self.n_elements))
        shapes[0] -= (np.arange(self.n_elements) + 0.5) * self.h
        shapes.flags.writeable = False
        return shapes


def element_stress(mesh: ShearColumnMesh, f_val: float, g_val: float) -> np.ndarray:
    """Element resultants sigma_e = g + f * (1 - x_e,mid) of a dead load: the
    traction g acts on every element, the body force on the part of the
    column above the element's midpoint."""
    return g_val + f_val * mesh.load_shapes[0]


def slope_pairing(mesh: ShearColumnMesh, slopes, f_val: float, g_val: float) -> float:
    """The load pairing sum_e h * sigma_e * slopes_e of a profile clamped at
    the bottom, with the resultants of :func:`element_stress`. It is summed
    per load shape, so the many pairings of a trajectory ledger form no
    sigma array."""
    body, top = (mesh.load_shapes @ slopes).tolist()
    return mesh.h * (f_val * body + g_val * top)


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
        """Shear-column state from the element slopes gamma' and beta'."""
        gamma = np.array(gamma, dtype=float)
        beta = np.array(beta, dtype=float)
        n = mesh.n_elements
        if gamma.shape != (n,) or beta.shape != (n,):
            raise ValidationError(
                f"gamma/beta must have {n} element slopes, "
                f"got {gamma.shape} and {beta.shape}"
            )
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(beta))):
            raise InfeasibleState("nonfinite element slopes")
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
    return state.gamma - state.beta


def viscous_strain(state: State):
    """Viscous strain coordinate: F_vi - 1, or beta' per element."""
    if state.mode == MATERIAL_POINT:
        return state.F_vi - 1.0
    return state.beta


# -- dof packing --------------------------------------------------------------


def pack_dofs(state: State) -> np.ndarray:
    return np.concatenate([state.gamma, state.beta])


def unpack_dofs(template: State, x: np.ndarray) -> State:
    """Inverse of :func:`pack_dofs`; signals infeasible trial vectors."""
    x = np.asarray(x, dtype=float)
    if template.mode == MATERIAL_POINT:
        return State.material_point(x[0], x[1])
    n = template.mesh.n_elements
    return State.shear_column(template.mesh, x[:n], x[n:])


# -- loading ------------------------------------------------------------------


@dataclass(frozen=True)
class Loading:
    """Body force and boundary traction with polynomial time dependence.

    ``f_coeffs``/``g_coeffs`` are ascending polynomial coefficients in t. In
    the shear column, f(t) pairs with the integral of gamma and g(t) with its
    top value, which in slopes is sum_e h * sigma_e * gamma'_e with the
    element resultants of :func:`element_stress`; at a material point both
    pair with F (the constant, dof-independent part of the pairing is
    dropped).
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
        return slope_pairing(state.mesh, state.gamma, f_val, g_val)


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
    return w_el + w_vi - loading.pairing(state, t)


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

    mesh = state.mesh
    d_el = model.dw_el(elastic_strain(state))
    sigma = element_stress(mesh, loading.f(t), loading.g(t))
    grad_gamma = mesh.h * (d_el - sigma)
    grad_beta = mesh.h * (model.dw_vi(viscous_strain(state)) - d_el)
    return value, np.concatenate([grad_gamma, grad_beta])


def dissipation_rates(model: MaterialModel, new: State, old: State, r: float):
    """Discrete viscous rate argument for a substep of length r."""
    if new.mode == MATERIAL_POINT:
        return (new.F_vi - old.F_vi) / (r * old.F_vi)
    return (new.beta - old.beta) / r


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

