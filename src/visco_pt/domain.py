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

Packed dof layout (the vector of the analytic gradients of
:func:`total_energy`): ``x = [gamma, beta]``, that is ``[F, F_vi]`` at a
material point and ``[gamma', beta']`` in the shear column.

Trajectory layout: one read-only dof array of shape (n_steps + 1, 2,
n_elements), row i holding the pair of state i (n_elements = 1 at a material
point); :class:`~visco_pt.stepper.Trajectory` builds states from its rows on
demand (:class:`DofStates`) and prices all rows at once.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
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


def pairing_products(mesh: Optional[ShearColumnMesh], y: np.ndarray) -> np.ndarray:
    """Each row's factors in the load pairing, for the rows of y (one state's
    dofs y per row): F itself at a material point (``mesh`` None), shape
    (rows,); in the shear column the (body, top) products ``load_shapes @
    slopes``, shape (2, rows), in one stacked matmul that forms each row's
    product as :func:`pairing` forms it."""
    if mesh is None:
        return y[:, 0]
    return np.matmul(mesh.load_shapes, y[..., None])[..., 0].T


def product_pairings(mesh: Optional[ShearColumnMesh], products, f_val, g_val):
    """The load pairings of :func:`pairing` from the factors of
    :func:`pairing_products` (their last axis runs over states), under the
    load values f and g (floats, or arrays along the same axis)."""
    if mesh is None:
        return (f_val + g_val) * products
    body, top = products
    return mesh.h * (f_val * body + g_val * top)


def pairing(mesh: Optional[ShearColumnMesh], y, f_val: float, g_val: float) -> float:
    """Load pairing of the dofs y under the load values f and g: (f + g) * F
    at a material point (``mesh`` None). In the shear column it is the
    pairing sum_e h * sigma_e * y_e of a profile clamped at the bottom with
    the resultants of :func:`element_stress`, summed per load shape, so the
    many pairings of a trajectory ledger form no sigma array."""
    if mesh is not None:
        y = (mesh.load_shapes @ y).tolist()
    return product_pairings(mesh, y, f_val, g_val)


def read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class State:
    """Deformation state in one of the two reduced geometries: the shear
    column on ``mesh``, or a material point when ``mesh`` is None."""

    gamma: np.ndarray
    beta: np.ndarray
    mesh: Optional[ShearColumnMesh] = None

    @property
    def mode(self) -> str:
        return MATERIAL_POINT if self.mesh is None else SHEAR_COLUMN

    @staticmethod
    def material_point(F: float, F_vi: float) -> "State":
        if not np.isfinite(F) or not np.isfinite(F_vi):
            raise InfeasibleState(f"nonfinite state ({F!r}, {F_vi!r})")
        if F_vi <= 0.0:
            raise InfeasibleState(f"F_vi must be > 0, got {F_vi!r}")
        return State(np.asarray([float(F)]), np.asarray([float(F_vi)]))

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
        return State(gamma, beta, mesh)

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


def state_from_dofs(mesh: Optional[ShearColumnMesh], y, y_vi) -> State:
    """The :class:`State` with dofs (y, y_vi): F and F_vi at a material point
    (``mesh`` None), element slopes otherwise. Arrays are kept, not copied."""
    if mesh is None:
        return State(np.reshape(y, 1), np.reshape(y_vi, 1))
    return State(y, y_vi, mesh)


def state_dofs(state: State) -> tuple:
    """The dofs (y, y_vi) of a state: the floats (F, F_vi) at a material
    point, the slope arrays (gamma', beta') in the shear column."""
    if state.mode == MATERIAL_POINT:
        return state.F, state.F_vi
    return state.gamma, state.beta


class DofStates(Sequence):
    """Read-only view of a dof array as states, built from its rows on demand."""

    def __init__(self, dofs: np.ndarray, make):
        self._dofs, self._make = dofs, make

    def __len__(self) -> int:
        return len(self._dofs)

    def __getitem__(self, i):
        return self._make(*self._dofs[operator.index(i)])


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
        for name, key in (("f_coeffs", "load_f"), ("g_coeffs", "load_g")):
            coeffs = tuple(float(c) for c in getattr(self, name)) or (0.0,)
            if not all(np.isfinite(c) for c in coeffs):
                raise ValidationError(f"{key} must be finite, got {coeffs}")
            object.__setattr__(self, name, coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.f_coeffs + self.g_coeffs)

    @property
    def is_constant(self) -> bool:
        """True when neither f nor g depends on t."""
        return all(c == 0.0 for c in self.f_coeffs[1:] + self.g_coeffs[1:])

    def f(self, t: float) -> float:
        return _polyval(self.f_coeffs, t)

    def g(self, t: float) -> float:
        return _polyval(self.g_coeffs, t)

    def pairing(self, state: State, t: float) -> float:
        """Dof-dependent part of the load pairing at time t."""
        return pairing(state.mesh, state_dofs(state)[0], self.f(t), self.g(t))


def _polyval(coeffs: tuple, t):
    """Horner's rule at t, a float or an array (elementwise alike)."""
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
    return dof_stored_energies(model, state.mesh, *state_dofs(state))


def dof_stored_energies(model: MaterialModel, mesh, y, y_vi) -> tuple:
    """:func:`stored_energies` of the state with dofs (y, y_vi) on ``mesh``:
    floats, or arrays of further states, each priced on its own. In the
    shear column the last axis runs over the elements."""
    if mesh is None:
        return model.w_el(y / y_vi - 1.0), model.w_vi(y_vi - 1.0)
    h = mesh.h
    return (
        h * np.add.reduce(model.w_el(y - y_vi), axis=-1),
        h * np.add.reduce(model.w_vi(y_vi), axis=-1),
    )


def energy_value(model: MaterialModel, state: State, loading: Loading, t: float) -> float:
    """Total energy E(t, state): stored energies minus the load pairing."""
    w_el, w_vi = stored_energies(model, state)
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


def dissipation_increment(model: MaterialModel, new: State, old: State, r: float) -> float:
    """r * Psi(old, (new - old)/r), the dissipation charged to a substep."""
    _check_pair(new, old)
    return dof_dissipation(model, new.mesh, state_dofs(new)[1], state_dofs(old)[1], r)


def dof_dissipation(model: MaterialModel, mesh, y_vi, y_vi_old, r: float):
    """:func:`dissipation_increment` from the viscous dofs y_vi_old to y_vi;
    in the shear column over their last axis, as :func:`dof_stored_energies`."""
    if mesh is None:
        return r * model.psi((y_vi - y_vi_old) / (r * y_vi_old))
    return r * mesh.h * np.add.reduce(model.psi((y_vi - y_vi_old) / r), axis=-1)


def dissipation_displacement(model: MaterialModel, new: State, old: State) -> float:
    """Psi(old, new - old): the unnormalized displacement dissipation."""
    return dissipation_increment(model, new, old, 1.0)


def _check_pair(new: State, old: State):
    if new.mode != old.mode:
        raise ValidationError("states have different modes")
    if new.mode == SHEAR_COLUMN and new.mesh.n_elements != old.mesh.n_elements:
        raise ValidationError("states live on different meshes")
