"""Material model: stored-energy and dissipation densities in reduced strain
coordinates and their small-strain quadratic limit.

Both supported geometries reduce every density to a scalar argument:

* material point: elastic argument s = F/F_vi - 1, viscous argument
  s = F_vi - 1, dissipation rate r = (dF_vi/dt)/F_vi;
* shear column: elastic argument s = gamma' - beta', viscous argument
  s = beta', dissipation rate r = d(beta')/dt (the shear direction is
  nilpotent, so the geometric inverse factors drop out exactly).

Built-in densities:

    w_el(s)  = c_e/2 * s^2 + a4/4 * s^4
    w_vi(s)  = c_v/2 * s^2          on |s| <= k_radius, infeasible outside
    psi(r)   = d_v/2 * |r|^p_psi    with p_psi >= 2

The hard constraint |s| <= k_radius keeps the viscous strain in a compact
set; violating it signals :class:`~visco_pt.errors.InfeasibleState` rather
than returning an infinite value. Every parameter set that
:class:`MaterialModel` accepts makes these densities admissible for the
scheme: zero and minimal at the origin, psi convex and p_psi-homogeneous.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleState, ValidationError

MATERIAL_POINT = "material_point"
SHEAR_COLUMN = "shear_column"
MODES = (MATERIAL_POINT, SHEAR_COLUMN)


@dataclass(frozen=True)
class MaterialModel:
    """Parameter set for one scenario of the built-in density family. It
    serves both geometries: the state's mesh picks the reduction.

    Parameters
    ----------
    c_e, a4 : float
        Quadratic and quartic elastic coefficients, c_e > 0, a4 >= 0.
    c_v : float
        Quadratic viscous-energy coefficient, c_v > 0.
    d_v : float
        Dissipation coefficient, d_v > 0.
    p_psi : float
        Homogeneity exponent of the dissipation rate density, p_psi >= 2.
    k_radius : float
        Half-width of the admissible viscous-strain interval, > 0.
    """

    c_e: float = 1.0
    a4: float = 0.0
    c_v: float = 1.0
    d_v: float = 1.0
    p_psi: float = 2.0
    k_radius: float = 10.0

    def __post_init__(self):
        for name in ("c_e", "c_v", "d_v", "k_radius"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
        if not np.isfinite(self.a4) or self.a4 < 0.0:
            raise ValidationError(f"a4 must be finite and >= 0, got {self.a4!r}")
        if not np.isfinite(self.p_psi) or self.p_psi < 2.0:
            raise ValidationError(f"p_psi must be >= 2, got {self.p_psi!r}")

    # -- density evaluations -------------------------------------------------

    def w_el(self, s):
        """Elastic stored-energy density."""
        s = np.asarray(s, dtype=float)
        out = 0.5 * self.c_e * s * s
        if self.a4 != 0.0:  # adding 0.25 * 0.0 * s2 * s2 leaves a finite out as it is
            s2 = s * s
            out = out + 0.25 * self.a4 * s2 * s2
        return _unwrap(out)

    def dw_el(self, s):
        """Derivative of ``w_el``."""
        s = np.asarray(s, dtype=float)
        return _unwrap(self.c_e * s + self.a4 * s**3)

    def w_vi(self, s):
        """Viscous stored-energy density; infeasible outside |s| <= k_radius."""
        s = np.asarray(s, dtype=float)
        if (np.abs(s) > self.k_radius).any():
            raise InfeasibleState(
                f"viscous strain outside the admissible radius {self.k_radius}"
            )
        return _unwrap(0.5 * self.c_v * s * s)

    def dw_vi(self, s):
        """Derivative of ``w_vi`` (inside the admissible interval)."""
        s = np.asarray(s, dtype=float)
        if np.any(np.abs(s) > self.k_radius):
            raise InfeasibleState(
                f"viscous strain outside the admissible radius {self.k_radius}"
            )
        return _unwrap(self.c_v * s)

    def psi(self, r):
        """Dissipation rate density, positively p_psi-homogeneous and convex.

        For p_psi != 2, |r| ** p_psi is raised on an array of at least one
        dimension, so a single rate rounds as it does among many: NumPy's
        vectorized power can round differently from the libm ``pow`` it
        calls on a 0-d array."""
        r = np.asarray(r, dtype=float)
        if self.p_psi == 2.0:
            out = 0.5 * self.d_v * r * r
        else:
            out = 0.5 * self.d_v * (np.abs(np.atleast_1d(r)) ** self.p_psi).reshape(r.shape)
        return _unwrap(out)

    def dpsi(self, r):
        """Derivative of ``psi`` (continuous at 0 since p_psi >= 2)."""
        r = np.asarray(r, dtype=float)
        if self.p_psi == 2.0:
            out = self.d_v * r
        else:
            out = 0.5 * self.d_v * self.p_psi * np.abs(r) ** (self.p_psi - 1.0) * np.sign(r)
        return _unwrap(out)

    def rescaled_density(self, which: str, eps: float, a):
        """Small-strain rescaling ``eps^-2 * density(eps * a)``.

        ``which`` is one of ``"el"``, ``"vi"``, ``"psi"``. The viscous
        constraint applies to the unrescaled argument ``eps*a``.
        """
        if eps <= 0.0 or not np.isfinite(eps):
            raise ValidationError(f"eps must be finite and > 0, got {eps!r}")
        density = {"el": self.w_el, "vi": self.w_vi, "psi": self.psi}.get(which)
        if density is None:
            raise ValidationError(f"which must be 'el', 'vi' or 'psi', got {which!r}")
        return _unwrap(np.asarray(density(np.asarray(a, dtype=float) * eps)) / eps**2)

    def quadratic_limit(self) -> MaterialModel:
        """The small-strain (linearized) model: the curvatures c_e, c_v and
        d_v of the densities at 0, with a4 = 0, p_psi = 2 and no viscous
        constraint (``k_radius`` the largest float).

        Requires p_psi = 2: for other exponents the rescaled dissipation has
        no finite nonzero limit.
        """
        if self.p_psi != 2.0:
            raise ValidationError(
                f"quadratic limit requires p_psi = 2, got {self.p_psi!r}"
            )
        return MaterialModel(
            c_e=self.c_e, c_v=self.c_v, d_v=self.d_v, k_radius=sys.float_info.max
        )


def _unwrap(value: np.ndarray):
    return float(value) if np.ndim(value) == 0 else value
