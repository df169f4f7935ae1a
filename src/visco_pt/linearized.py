"""The small-strain (linearized) companion as a shear column, and the
rescaling bridge to it.

The linearized system evolves a displacement u and viscous displacement v
under the quadratic energy

    E0(t, u, v) = (1/2) c_e |u' - v'|^2 + (1/2) c_v |v'|^2 - <l0(t), u>

with quadratic rate dissipation (d_v/2)|vdot'|^2. In the slope coordinates
of :mod:`visco_pt.domain` this is exactly the finite-strain shear column of
the quadratic model (:meth:`~visco_pt.rheology.MaterialModel.quadratic_limit`:
a4 = 0, p_psi = 2, no viscous constraint), because the shear ansatz adds the
strains and leaves nothing to linearize. A linearized run is therefore
:func:`~visco_pt.stepper.run_evolution` of that model on a column
(:func:`linear_column`): the config's mesh in the shear column, and at a
material point one element (h = 1) under the resultant f + g as a top
traction. Its states hold the element slopes (u', v') as (gamma', beta'),
and its ledger prices them as any shear trajectory's.

The bridge: a finite-strain trajectory computed under load eps*l0 and
initial data id + eps*(u0, v0) is divided by eps into (u_eps, v_eps), and
the eps-scaled energies evaluate the nonlinear densities at eps-scaled
arguments times 1/eps^2. At a material point the elastic argument is
eps(u - v)/(1 + eps v); in the shear column it collapses to eps(u' - v')
exactly and quadratic densities make the rescaled problem eps-independent.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .domain import Loading, ShearColumnMesh
from .errors import ValidationError
from .rheology import MaterialModel
from .stepper import Trajectory


def linear_column(model: MaterialModel, mesh: Optional[ShearColumnMesh], loading: Loading):
    """The linearized problem of a finite-strain one on ``mesh`` (None at a
    material point), as ``(model, mesh, loading)`` of a shear column: the
    quadratic limit of ``model``; ``mesh`` itself under the same loading, or
    at a material point one element under a top traction whose coefficients
    are the sums of those of f and g. Its resultant is f + g, bit for bit
    when one of the two is zero."""
    quad = model.quadratic_limit()
    if mesh is not None:
        return quad, mesh, loading
    pairs = itertools.zip_longest(loading.f_coeffs, loading.g_coeffs, fillvalue=0.0)
    return quad, ShearColumnMesh(1), Loading(g_coeffs=tuple(f + g for f, g in pairs))


def rescale_displacements(traj: Trajectory, eps: float) -> np.ndarray:
    """The dof array of a finite-strain trajectory divided by eps into the
    layout of a linearized run: (F - 1, F_vi - 1) / eps at a material point,
    the slopes / eps in the shear column. The trajectory is expected to come
    from eps-scaled loading and initial data."""
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    shift = 1.0 if traj.mesh is None else 0.0
    return (traj.dofs - shift) / eps


def rescaled_energies(model: MaterialModel, mesh: Optional[ShearColumnMesh], u, v, eps: float):
    """Eps-scaled stored energies ``(W_el, W_vi)`` of the rescaled dofs
    (u, v) of one state in the geometry of ``mesh``.

    Evaluates eps^-2 W(eps-scaled arguments): at a material point (``mesh``
    None, one value each) the elastic argument keeps its (1 + eps v)^-1
    factor; the element slopes of the shear ansatz have none.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    if mesh is None:
        h, s_el = 1.0, eps * (u - v) / (1.0 + eps * v)
    else:
        h, s_el = mesh.h, eps * (u - v)
    w_el = h * float(np.sum(model.w_el(s_el))) / (eps * eps)
    w_vi = h * float(np.sum(model.w_vi(eps * v))) / (eps * eps)
    return w_el, w_vi
