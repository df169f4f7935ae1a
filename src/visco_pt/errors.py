"""Error types shared across the package.

Infeasible (infinite-energy) states are always signaled with exceptions,
never encoded as floating-point specials.
"""

from __future__ import annotations


class ViscoPTError(Exception):
    """Base class for all package errors."""


class InfeasibleState(ViscoPTError):
    """State outside the admissible set (nonpositive F_vi, viscous strain
    outside the constraint radius, malformed dof layout)."""


class ValidationError(ViscoPTError):
    """Bad parameter or configuration value; the message names the field."""


class ConfigParseError(ViscoPTError):
    """Malformed config text; the message names the offending key or line."""


class NonFiniteObjective(ViscoPTError):
    """Objective or gradient evaluated to NaN/inf at an accepted point."""


class StepRejected(ViscoPTError):
    """Incremental step violated the stay-put minimality inequality."""

    def __init__(self, index: int, margin: float, tolerance: float):
        self.index = index
        self.margin = margin
        self.tolerance = tolerance
        super().__init__(
            f"step {index} rejected: stay-put inequality margin {margin:.3e} "
            f"< -{tolerance:.3e}"
        )


class SolverNotConverged(ViscoPTError):
    """Step or substep solve stopped at ``kernels.MAX_ITER`` iterations
    without meeting the kernels' stopping rule (:mod:`visco_pt.kernels`)."""

    def __init__(self, where: str, grad_inf: float):
        self.where = where
        self.grad_inf = grad_inf
        super().__init__(
            f"{where} not solved: max_iter_exceeded at |grad|_inf {grad_inf:.3e}"
        )
