"""Solver settings, status names and the resolution of floating point.

The package has one iterative minimizer, the material-point kernel
(:func:`visco_pt.kernels.mp_minimize`); the shear column's per-element
viscous solve in :mod:`visco_pt.stepper` reads the same settings. Both stop
when the gradient (for the shear column, h times each element residual) is
at most ``grad_tol``, and both treat a change below ``RESOLUTION`` relative
to the magnitude of the iterate as the end of what floating point can
resolve: the kernel compares the predicted decrease ``-g.d`` with
``RESOLUTION * (1 + |f|)``, the shear solve its Newton step with
``RESOLUTION * max(1, |b|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONVERGED = "converged"
MAX_ITER_EXCEEDED = "max_iter_exceeded"
LINE_SEARCH_STALLED = "line_search_stalled"

# Changes at or below this multiple of the magnitude are rounding.
RESOLUTION = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MinimizeSettings:
    grad_tol: float = 1e-10
    max_iter: int = 10000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if self.grad_tol <= 0.0 or self.max_iter < 1:
            raise ValueError("grad_tol must be > 0 and max_iter >= 1")
        if not (0.0 < self.armijo_c < 1.0 and 0.0 < self.backtrack_factor < 1.0):
            raise ValueError("armijo_c and backtrack_factor must lie in (0, 1)")
