"""Smooth unconstrained minimization and SPD quadratic solves.

``minimize_newton`` is damped Newton with Armijo backtracking for objectives
with an analytic Hessian; non-positive-definite Hessians fall back to a
ridge-shifted solve, so descent is preserved away from convexity. Infeasible
trial points are signaled by the objective (``InfeasibleState``) and treated
as +inf, so the line search backtracks away from them. Near the minimizer
the full Newton step's predicted decrease ``-g.d`` falls below the rounding
of f, where f can no longer rank trial points and Armijo would accept null
steps until ``max_iter``. The resolution rule (shared with the
material-point kernel): when ``-g.d <= RESOLUTION * (1 + |f|)``, the full
step is taken as one iteration if the trial point is feasible and finite and
its |grad|_inf is strictly below the current one, and the solver stops with
``line_search_stalled`` otherwise.

``CholeskyOperator`` factorizes a fixed SPD matrix once and solves with one
iterative-refinement pass, calling LAPACK ``dpotrs`` on the cached factor
directly (the routine ``scipy.linalg.cho_solve`` wraps); ``solve_quadratic``
uses it to solve min 1/2 x'Hx - b'x once, with a residual guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .errors import InfeasibleState, NonFiniteObjective, NotSymmetricPositiveDefinite

CONVERGED = "converged"
MAX_ITER_EXCEEDED = "max_iter_exceeded"
LINE_SEARCH_STALLED = "line_search_stalled"

_MIN_STEP = 1e-18
# Predicted decreases at or below this multiple of (1 + |f|) are rounding.
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


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad_inf: float
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def minimize_newton(
    value_and_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    settings: MinimizeSettings = MinimizeSettings(),
    value_only: Optional[Callable[[np.ndarray], float]] = None,
) -> MinimizeResult:
    """Damped Newton with Armijo backtracking.

    Parameters
    ----------
    value_and_grad : callable
        Returns ``(f(x), grad f(x))``; may raise ``InfeasibleState``.
    hessian : callable
        Returns the dense symmetric Hessian at x.
    x0 : array
        Feasible starting point.
    settings : MinimizeSettings
        Tolerances; convergence is ``|grad|_inf <= grad_tol``. Steps whose
        predicted decrease is below the rounding of f follow the resolution
        rule of the module docstring.
    value_only : callable, optional
        Cheaper value-only evaluation for line-search trials.

    Returns
    -------
    MinimizeResult
        Best point found; ``status`` is ``"converged"``,
        ``"max_iter_exceeded"`` or ``"line_search_stalled"`` (flags, not
        exceptions). The Newton system is solved by Cholesky; if the Hessian
        is not positive definite (or the Newton direction fails to descend),
        an escalating ridge ``H + lam*I`` is applied until it is.
    """
    if value_only is None:
        value_only = lambda x: value_and_grad(x)[0]
    x = np.array(x0, dtype=float)
    f, g = value_and_grad(x)
    _require_finite(f, g)

    iterations = 0
    while True:
        grad_inf = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_inf <= settings.grad_tol:
            return MinimizeResult(x, f, grad_inf, iterations, CONVERGED)
        if iterations >= settings.max_iter:
            return MinimizeResult(x, f, grad_inf, iterations, MAX_ITER_EXCEEDED)

        d, slope = _newton_direction(hessian(x), g)
        if -slope <= RESOLUTION * (1.0 + abs(f)):
            trial = x + d
            try:
                f_trial, g_trial = value_and_grad(trial)
            except InfeasibleState:
                return MinimizeResult(x, f, grad_inf, iterations, LINE_SEARCH_STALLED)
            if not (np.isfinite(f_trial) and np.all(np.isfinite(g_trial))
                    and float(np.max(np.abs(g_trial))) < grad_inf):
                return MinimizeResult(x, f, grad_inf, iterations, LINE_SEARCH_STALLED)
            x, f, g = trial, f_trial, g_trial
            iterations += 1
            continue
        alpha = 1.0
        while True:
            trial = x + alpha * d
            try:
                f_trial = value_only(trial)
            except InfeasibleState:
                f_trial = np.inf
            if np.isnan(f_trial):
                f_trial = np.inf
            if f_trial <= f + settings.armijo_c * alpha * slope:
                break
            alpha *= settings.backtrack_factor
            if alpha < _MIN_STEP:
                return MinimizeResult(x, f, grad_inf, iterations, LINE_SEARCH_STALLED)
        x = trial
        f, g = value_and_grad(x)
        _require_finite(f, g)
        iterations += 1


def _newton_direction(H: np.ndarray, g: np.ndarray):
    """Descent direction from a (possibly ridge-shifted) Newton solve."""
    H = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(H)):
        raise NonFiniteObjective("Hessian is not finite")
    lam = 0.0
    lam_unit = 1e-10 * max(float(np.max(np.abs(H))), 1.0)
    for _ in range(60):
        try:
            factor = scipy.linalg.cho_factor(
                H + lam * np.eye(H.shape[0]) if lam else H,
                lower=True,
                check_finite=False,
            )
        except scipy.linalg.LinAlgError:
            lam = lam_unit if lam == 0.0 else 10.0 * lam
            continue
        d = scipy.linalg.cho_solve(factor, -g, check_finite=False)
        slope = float(g @ d)
        if slope < 0.0 and np.all(np.isfinite(d)):
            return d, slope
        lam = lam_unit if lam == 0.0 else 10.0 * lam
    # Heavily shifted solves degenerate to steepest descent; take it directly.
    d = -g
    return d, float(g @ d)


def _require_finite(f: float, g: np.ndarray):
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NonFiniteObjective(
            f"objective or gradient is not finite (f={f!r})"
        )


def solve_quadratic(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize 1/2 x'Hx - b'x for symmetric positive definite H.

    Solves through :class:`CholeskyOperator` (dense, direct, one refinement
    pass); guarantees ``|Hx - b|_inf <= 1e-10 * (1 + |b|_inf)``.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != b.shape[0]:
        raise ValueError("H must be square and match b")
    x = CholeskyOperator(H).solve(b)
    bound = 1e-10 * (1.0 + float(np.max(np.abs(b))))
    achieved = float(np.max(np.abs(H @ x - b)))
    if achieved > bound:
        raise NotSymmetricPositiveDefinite(
            f"solve residual {achieved:.3e} exceeds bound {bound:.3e}"
        )
    return x


class CholeskyOperator:
    """Cached factorization of a fixed SPD matrix, for repeated solves with
    changing right-hand sides (one refinement pass per solve)."""

    def __init__(self, H: np.ndarray):
        H = np.asarray(H, dtype=float)
        scale = float(np.max(np.abs(H))) if H.size else 0.0
        if scale == 0.0 or float(np.max(np.abs(H - H.T))) > 1e-12 * scale:
            raise NotSymmetricPositiveDefinite("matrix is not symmetric")
        try:
            self._L, _ = scipy.linalg.cho_factor(H, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSymmetricPositiveDefinite(str(exc)) from exc
        self.H = H

    def _potrs(self, b: np.ndarray) -> np.ndarray:
        x, info = dpotrs(self._L, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._potrs(b)
        return x + self._potrs(b - self.H @ x)
