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
initial data id + eps*(u0, v0) is divided by eps into (u_eps, v_eps)
(:func:`rescale_displacements`). Its eps-rescaled energies are the stored
energies its own ledger priced (``Trajectory.stored``) divided by eps^2. At
a material point the elastic argument F/F_vi - 1 is eps(u - v)/(1 + eps v);
in the shear column gamma' - beta' is eps(u' - v'), and quadratic densities
make the rescaled problem eps-independent.
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
