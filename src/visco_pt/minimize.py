"""Solver settings, the status of an unconverged solve and the resolution
of floating point.

Both geometries reduce a step to scalar equations, solved in
:mod:`visco_pt.kernels` by one march per trajectory: the material point to
one equation in F_vi, the shear column to one per element for the viscous
slope. Each is a closed form when the densities are quadratic and a
bracketed scalar Newton otherwise, and both Newton solves read these
settings and share one convergence rule: the residual (for the shear
column, h times each element residual) is at most ``grad_tol``, or the
Newton step is at most ``RESOLUTION * max(1, |x|)`` for the iterate x,
below which floating point cannot resolve x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError

MAX_ITER_EXCEEDED = "max_iter_exceeded"

# Changes at or below this multiple of the magnitude are rounding.
RESOLUTION = 16.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class MinimizeSettings:
    grad_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        grad_tol = self.grad_tol
        if not (grad_tol > 0.0 and math.isfinite(grad_tol)):
            raise ValidationError(f"grad_tol must be finite and > 0, got {grad_tol!r}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter!r}")
