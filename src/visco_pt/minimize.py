"""Solver settings, status names and the resolution of floating point.

Both geometries reduce a step to scalar equations: the material point to one
equation in F_vi (:func:`visco_pt.kernels.mp_minimize`), the shear column to
one per element for the viscous slope (in :mod:`visco_pt.stepper`). Each is
a closed form when the densities are quadratic and a bracketed scalar Newton
otherwise, and both Newton solves read these settings and share one
convergence rule: the residual (for the shear column, h times each element
residual) is at most ``grad_tol``, or the Newton step is at most
``RESOLUTION * max(1, |x|)`` for the iterate x, below which floating point
cannot resolve x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONVERGED = "converged"
MAX_ITER_EXCEEDED = "max_iter_exceeded"

# Changes at or below this multiple of the magnitude are rounding.
RESOLUTION = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MinimizeSettings:
    grad_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if self.grad_tol <= 0.0 or self.max_iter < 1:
            raise ValueError("grad_tol must be > 0 and max_iter >= 1")
