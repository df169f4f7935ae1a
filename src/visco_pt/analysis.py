"""Verification harness.

Every check returns a :class:`VerificationReport` whose residuals are signed
margins with a single convention: positive means the inequality under test
holds, and ``passed`` is true exactly when ``min(residuals) >= -tolerance``.
Checks that certify an equality store ``-|raw residual|`` so the same
convention applies. Fitted convergence orders are least-squares slopes in
log-log coordinates, and reports keep the raw errors so rates can be
recomputed externally.

Parameter sweeps run once per command. :func:`tau_sweep` and
:func:`eps_sweep` validate their whole list (:func:`tau_grids`,
:func:`eps_values`) and, for tau, that the ODE oracle applies before the
first trajectory runs; then they run each trajectory once, in parameter
order, judge it, and return the trajectories with the report, so the
command line writes the very trajectories that were judged.
:func:`tau_convergence` and :func:`epsilon_study` return the same reports
without the trajectories. Semistability is judged against the exact
elastic minimizer at every grid time, so no check draws random numbers.
Shear-column states are element slopes (:mod:`visco_pt.domain`), and the
epsilon study compares slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domain import (
    Loading,
    State,
    TimeGrid,
    dissipation_displacement,
    element_stress,
)
from .errors import ValidationError
from .linearized import (
    LinState,
    LinTrajectory,
    lin_stored,
    rescale_displacements,
    rescaled_energies,
    run_lin_evolution,
)
from .minimize import RESOLUTION, MinimizeSettings
from .rheology import MaterialModel
from .stepper import (
    Trajectory,
    _elastic_strains,
    de_giorgi_integral,
    phi_tau,
    run_evolution,
)

INEQUALITY_TOL = 1e-8
MONOTONICITY_TOL = 1e-9
QUAD_FLOOR = 1e-7
RK4_SUBSTEP = 1e-4


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; ``passed`` is derived, never stored by hand."""

    check: str
    params: Dict[str, object]
    residuals: List[float]
    rates: Dict[str, float]
    tolerance: float
    passed: bool

    @staticmethod
    def build(
        check: str,
        params: Dict[str, object],
        residuals: Sequence[float],
        rates: Optional[Dict[str, float]] = None,
        tolerance: float = 0.0,
    ) -> "VerificationReport":
        residuals = [float(r) for r in residuals]
        passed = min(residuals, default=0.0) >= -tolerance
        return VerificationReport(
            check=check,
            params=_jsonable(params),
            residuals=residuals,
            rates=_jsonable(rates or {}),
            tolerance=float(tolerance),
            passed=passed,
        )

    @property
    def min_residual(self) -> float:
        return min(self.residuals, default=0.0)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "residuals": self.residuals,
            "rates": self.rates,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def fit_rate(params: Sequence[float], errors: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(error) against log(parameter).

    Returns None when fewer than two strictly positive errors are available.
    """
    xs, ys = [], []
    for p, e in zip(params, errors):
        if e > 0.0 and np.isfinite(e) and p > 0.0:
            xs.append(math.log(p))
            ys.append(math.log(e))
    if len(xs) < 2:
        return None
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


# -- energy inequalities ----------------------------------------------------------


def check_energy_inequality(
    traj: Trajectory, factor: str = "one", m: int = 4
) -> VerificationReport:
    """Cumulative discrete energy inequality along the trajectory.

    With ``factor="one"`` the dissipation enters once and the residual at
    step n is E(0) - sum of load-rate work - E(t_n) - sum tau*Psi_i, which is
    nonnegative by per-step minimality. With ``factor="p_psi"`` the extra
    (p_psi - 1) * integral of the sub-step rate dissipation sharpens the
    bound. One :func:`de_giorgi_integral` pass gives that integral for every
    step, Gauss-Legendre with m nodes, and its error estimate by the rule
    with max(2, m // 2) nodes: m + max(2, m // 2) substep solves per step (6
    at the default m = 4) under ``traj.settings``. The summed estimate
    widens the tolerance (it is reported in ``params``). For a zero-load material point
    with p_psi = 2 the sharp form is an identity and residuals are reported
    as -|raw| against a quadrature-level tolerance.
    """
    if factor not in ("one", "p_psi"):
        raise ValidationError(f"factor must be 'one' or 'p_psi', got {factor!r}")
    model, loading, grid = traj.model, traj.loading, traj.grid
    e0 = traj.energy(0)
    equality = (
        factor == "p_psi"
        and traj.mesh is None
        and loading.is_zero
        and model.p_psi == 2.0
    )
    improved = np.zeros(grid.n_steps)
    quad_estimate = 0.0
    if factor == "p_psi":
        q, q_error = de_giorgi_integral(traj, m)
        improved = np.cumsum((model.p_psi - 1.0) * q)
        quad_estimate = float(np.cumsum((model.p_psi - 1.0) * q_error)[-1])
    lhs = traj.energies[1:] + traj.delta[1:] + improved
    raw = (e0 - traj.load_work[1:]) - lhs
    residuals = -np.abs(raw) if equality else raw
    if equality:
        tolerance = max(1e-3 * abs(e0), 1e-12)
    else:
        tolerance = INEQUALITY_TOL + quad_estimate
    return VerificationReport.build(
        check=f"energy_inequality_{factor}",
        params={
            "factor": factor,
            "m": m if factor == "p_psi" else None,
            "equality_mode": equality,
            "n_steps": grid.n_steps,
            "tau": grid.tau,
            "initial_energy": e0,
            "quadrature_estimate": quad_estimate if factor == "p_psi" else None,
        },
        residuals=residuals,
        tolerance=tolerance,
    )


# -- semistability ----------------------------------------------------------------


def semistability_sweep(traj: Trajectory) -> VerificationReport:
    """Semistability at every grid time, t = 0 included.

    With the viscous state frozen, the residual at t_i is the energy gap
    E(t_i, equilibrate_elastic(state_i)) - E(t_i, state_i) to the exact
    elastic minimizer (w_el is convex): it is never positive, and it is 0
    exactly when state i minimizes over the elastic variable. ``params``
    also record the step index of the worst gap and, reported only, the
    worst relative stress residual |w_el'(s) - sigma| / (1 + |sigma|) of
    the elastic strains s against the stress sigma that balances the load.
    All states are judged at once, in the arithmetic of the per-state
    functions; the energies come from the ledger of the minimizers.
    """
    model, mesh = traj.model, traj.mesh
    times = traj.grid.times[:, None]
    f, g = traj.loading.f(times), traj.loading.g(times)
    y, y_vi = traj.dofs[:, 0], traj.dofs[:, 1]
    if mesh is None:
        sigma = (f + g) * y_vi
        y_min = (1.0 + _elastic_strains(model, sigma[:, 0])[:, None]) * y_vi
        stored = model.w_el(y_min / y_vi - 1.0), model.w_vi(y_vi - 1.0)
        strain = y / y_vi - 1.0
    else:
        sigma = element_stress(mesh, f, g)
        y_min = _elastic_strains(model, sigma.ravel()).reshape(sigma.shape) + y_vi
        stored = [
            mesh.h * np.add.reduce(w, axis=-1)[:, None]
            for w in (model.w_el(y_min - y_vi), model.w_vi(y_vi))
        ]
        strain = y - y_vi
    minimizer = replace(traj, dofs=np.stack([y_min, y_vi], 1), stored=np.hstack(stored))
    residuals = minimizer.energies - traj.energies
    stress_residual = np.abs(model.dw_el(strain) - sigma) / (1.0 + np.abs(sigma))
    return VerificationReport.build(
        check="semistability",
        params={
            "times_checked": len(residuals),
            "worst_step_index": int(np.argmin(residuals)),
            "max_stress_residual": float(np.max(stress_residual)),
        },
        residuals=residuals,
        tolerance=INEQUALITY_TOL,
    )


# -- dissipation monotonicity ------------------------------------------------------


def _positive(name: str, values: Sequence[float]) -> List[float]:
    """The list as floats; raises unless it is nonempty and each entry is
    positive and finite."""
    values = [float(v) for v in values]
    if not values or any(not (v > 0.0 and math.isfinite(v)) for v in values):
        raise ValidationError(f"{name} entries must be positive and finite")
    return values


def substep_values(tau_list: Sequence[float], name: str = "tau_list") -> List[float]:
    """The substeps of a monotonicity check as floats: nonempty, positive,
    finite and nondecreasing. Errors name the list ``name``."""
    taus = _positive(name, tau_list)
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValidationError(f"{name} must be nondecreasing")
    return taus


def check_monotonicity(
    old: State,
    t_i: float,
    tau_list: Sequence[float],
    model: MaterialModel,
    loading: Loading = Loading(),
    settings: Optional[MinimizeSettings] = None,
) -> VerificationReport:
    """Unnormalized displacement dissipation is nondecreasing in the substep.

    For each r in ``tau_list`` the substep functional at target time t_i is
    minimized and Psi(old, y_vi,r - old) recorded; residuals are consecutive
    differences.
    """
    taus = substep_values(tau_list)
    settings = settings or MinimizeSettings()

    def displacement(r: float) -> float:
        sub = phi_tau(model, old, loading, t_i, r, settings)
        return dissipation_displacement(model, sub.state, old)

    values = [displacement(r) for r in taus]
    residuals = [b - a for a, b in zip(values, values[1:])]
    return VerificationReport.build(
        check="monotonicity",
        params={"t_i": t_i, "tau_list": taus, "values": values},
        residuals=residuals,
        tolerance=MONOTONICITY_TOL,
    )


# -- tau convergence ----------------------------------------------------------------


def rk4_viscous_oracle(
    model: MaterialModel, f_vi0: float, times: np.ndarray, substep: float = RK4_SUBSTEP
) -> np.ndarray:
    """Classical RK4 integration of the zero-load flow dF = -(c_v/d_v) F^2 (F-1).

    Integrates interval by interval so values land exactly on ``times``.
    """
    c = model.c_v / model.d_v

    def rhs(f: float) -> float:
        return -c * f * f * (f - 1.0)

    values = np.zeros(len(times))
    values[0] = f_vi0
    f = f_vi0
    for k in range(1, len(times)):
        span = float(times[k] - times[k - 1])
        n_sub = max(1, int(round(span / substep)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(f)
            k2 = rhs(f + 0.5 * h * k1)
            k3 = rhs(f + 0.5 * h * k2)
            k4 = rhs(f + h * k3)
            f += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[k] = f
    return values


def _oracle_on_grids(
    model: MaterialModel, f_vi0: float, t_final: float, grids: Dict[float, TimeGrid]
) -> Dict[float, np.ndarray]:
    """:func:`rk4_viscous_oracle` on each grid, sampled from one pass over the
    union of their times.

    A grid time k * t_final / n is the mark k * (L / n) on the common
    refinement into L = lcm(n) intervals. The pass visits the marks of all
    grids, so it costs about t_final / RK4_SUBSTEP RK4 steps plus one per
    mark, whether or not the grids nest; on nested grids the union is the
    finest grid itself.
    """
    common = math.lcm(*(grid.n_steps for grid in grids.values()))
    strides = {tau: common // grid.n_steps for tau, grid in grids.items()}
    marks = sorted({k * stride for tau, stride in strides.items()
                    for k in range(grids[tau].n_steps + 1)})
    times = np.array(marks, dtype=float) * (t_final / common)
    times[-1] = t_final
    values = rk4_viscous_oracle(model, f_vi0, times)
    position = {mark: j for j, mark in enumerate(marks)}
    return {
        tau: values[[position[k * stride] for k in range(grids[tau].n_steps + 1)]]
        for tau, stride in strides.items()
    }


def tau_values(tau_list: Sequence[float]) -> List[float]:
    """The distinct taus of a convergence sweep, largest first: at least two,
    each positive and finite."""
    taus = sorted(set(_positive("tau_list", tau_list)), reverse=True)
    if len(taus) < 2:
        raise ValidationError("need at least two tau values to fit an order")
    return taus


def tau_grids(t_final: float, tau_list: Sequence[float]) -> Dict[float, TimeGrid]:
    """The taus of :func:`tau_values`, each mapped to the uniform grid of
    [0, t_final] it divides into; raises :class:`ValidationError` unless
    each divides ``t_final``.
    """
    grids = {}
    for tau in tau_values(tau_list):
        n = int(round(t_final / tau))
        if n < 1 or abs(n * tau - t_final) > 1e-9 * max(1.0, t_final):
            raise ValidationError(f"tau={tau!r} does not divide t_final={t_final!r}")
        grids[tau] = TimeGrid(t_final, n)
    return grids


def tau_sweep(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    t_final: float,
    tau_list: Sequence[float],
    settings: Optional[MinimizeSettings] = None,
) -> Tuple[Dict[float, Trajectory], VerificationReport]:
    """Run one trajectory per distinct tau and judge its sup-over-grid error
    against the RK4 solution of the viscous ODE, with fitted order.

    The oracle requires a zero-load material point, where the viscous strain
    obeys a scalar ODE. The tau list and that requirement are validated
    before the first trajectory runs. Returns the trajectories, keyed by tau
    from largest to smallest, and the report.
    """
    grids = tau_grids(t_final, tau_list)
    taus = list(grids)
    settings = settings or MinimizeSettings()
    if state0.mesh is not None or not loading.is_zero:
        raise ValidationError("ode_rk4 oracle requires a zero-load material point")

    trajectories: Dict[float, Trajectory] = {}
    errors = []
    references = _oracle_on_grids(model, state0.F_vi, t_final, grids)
    for tau, grid in grids.items():
        traj = run_evolution(model, state0, loading, grid, settings)
        trajectories[tau] = traj
        errors.append(float(np.max(np.abs(traj.dofs[:, 1, 0] - references[tau]))))
    params = {
        "oracle": "ode_rk4",
        "tau_list": taus,
        "errors": errors,
        "t_final": t_final,
    }
    if max(errors) <= 1e-12:
        params["regime"] = "converged"
        report = VerificationReport.build(
            check="tau_convergence", params=params, residuals=[0.0], rates={}
        )
    else:
        order = fit_rate(taus, errors)
        params["regime"] = "rate"
        report = VerificationReport.build(
            check="tau_convergence",
            params=params,
            residuals=[order - 0.9] if order is not None else [-float("inf")],
            rates={"order": order},
            tolerance=0.0,
        )
    return trajectories, report


def tau_convergence(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    t_final: float,
    tau_list: Sequence[float],
    settings: Optional[MinimizeSettings] = None,
) -> VerificationReport:
    """The report of :func:`tau_sweep`, without its trajectories."""
    return tau_sweep(model, state0, loading, t_final, tau_list, settings)[1]


# -- linearization (epsilon) study ---------------------------------------------------


def eps_values(
    epsilon_list: Sequence[float], decreasing: bool = True, name: str = "epsilon_list"
) -> List[float]:
    """The epsilon list as floats, nonempty, each entry positive and finite
    and, if ``decreasing``, strictly decreasing (the order along which an
    epsilon study expects its errors to fall). Errors name the list
    ``name``."""
    eps_list = _positive(name, epsilon_list)
    if decreasing and any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError(f"{name} must be strictly decreasing")
    return eps_list


def eps_sweep(
    model: MaterialModel,
    lin0: LinState,
    loading0: Loading,
    grid: TimeGrid,
    epsilon_list: Sequence[float],
    settings: Optional[MinimizeSettings] = None,
) -> Tuple[LinTrajectory, Dict[float, Trajectory], VerificationReport]:
    """Run the linearized trajectory and one eps-rescaled finite-strain
    trajectory per eps, and compare them.

    For each eps the nonlinear problem uses loading eps*l0 and initial data
    id + eps*(u0, v0); its rescaled trajectory (u_eps, v_eps) is compared
    with the linearized solution in the dof sup-norm over the grid (for the
    shear column the sup-norm of the slopes, which bounds that of the nodal
    profiles), together with the rescaled-energy gaps at t = 0 and t = T.

    Each quantity (u error, v error, t = 0 gap) is judged separately: at or
    below the solver floor of 1e-7 it passes outright (the shear ansatz with
    quadratic densities is exactly eps-independent, and its stress is pinned
    by statics so v never deviates at all); above the floor the errors must
    decrease along the (descending) epsilon list and the t = 0 energy gap
    must vanish with fitted order >= 0.9. In the shear ansatz that gap is
    exactly the quartic Taylor remainder with order 2; at a material point
    the geometric factors reduce it to order 1.

    The epsilon list is validated before the first trajectory runs. Returns
    the linearized trajectory, the finite-strain trajectories keyed by eps
    in list order, and the report.
    """
    eps_list = eps_values(epsilon_list)
    settings = settings or MinimizeSettings()
    quad = model.quadratic_limit()
    lin_traj = run_lin_evolution(quad, lin0, loading0, grid)

    trajectories: Dict[float, Trajectory] = {}
    err_u, err_v, gap_t0, gap_tf = [], [], [], []
    for eps in eps_list:
        loading_eps = Loading(
            f_coeffs=tuple(eps * c for c in loading0.f_coeffs),
            g_coeffs=tuple(eps * c for c in loading0.g_coeffs),
        )
        if lin0.mesh is None:
            init = State.material_point(
                1.0 + eps * float(lin0.u[0]), 1.0 + eps * float(lin0.v[0])
            )
        else:
            init = State.shear_column(lin0.mesh, eps * lin0.u, eps * lin0.v)
        traj = run_evolution(model, init, loading_eps, grid, settings)
        trajectories[eps] = traj
        scaled = rescale_displacements(traj, eps)
        gap = np.abs(scaled.dofs - lin_traj.dofs)
        err_u.append(float(np.max(gap[:, 0])))
        err_v.append(float(np.max(gap[:, 1])))
        gaps = []
        for idx in (0, grid.n_steps):
            w_el, w_vi = rescaled_energies(scaled.states[idx], eps, model)
            w0_el, w0_vi = lin_stored(quad, lin_traj.states[idx])
            gaps.append(abs((w_el + w_vi) - (w0_el + w0_vi)))
        gap_t0.append(gaps[0])
        gap_tf.append(gaps[1])
    params = {
        "epsilon_list": eps_list,
        "err_u": err_u,
        "err_v": err_v,
        "energy_gap_t0": gap_t0,
        "energy_gap_t_final": gap_tf,
        "tau": grid.tau,
        "n_steps": grid.n_steps,
    }
    if len(eps_list) == 1:
        params["regime"] = "gaps_only"
        report = VerificationReport.build(
            check="epsilon_study", params=params, residuals=[0.0], rates={}
        )
        return lin_traj, trajectories, report
    regimes: Dict[str, str] = {}
    rates: Dict[str, float] = {}
    residuals: List[float] = []
    for name, values in (("u", err_u), ("v", err_v), ("energy_t0", gap_t0)):
        if max(values) <= QUAD_FLOOR:
            regimes[name] = "floor"
            residuals.extend(QUAD_FLOOR - e for e in values)
            continue
        regimes[name] = "rate"
        rate = fit_rate(eps_list, values)
        if rate is not None:
            rates[name] = rate
        residuals.extend(a - b for a, b in zip(values, values[1:]))
        if name == "energy_t0":
            residuals.append((rate - 0.9) if rate is not None else -float("inf"))
    params["regimes"] = regimes
    report = VerificationReport.build(
        check="epsilon_study",
        params=params,
        residuals=residuals,
        rates=rates,
        tolerance=0.0,
    )
    return lin_traj, trajectories, report


def epsilon_study(
    model: MaterialModel,
    lin0: LinState,
    loading0: Loading,
    grid: TimeGrid,
    epsilon_list: Sequence[float],
    settings: Optional[MinimizeSettings] = None,
) -> VerificationReport:
    """The report of :func:`eps_sweep`, without its trajectories."""
    return eps_sweep(model, lin0, loading0, grid, epsilon_list, settings)[2]


# -- density convergence ---------------------------------------------------------------


def density_convergence(
    model: MaterialModel,
    epsilon_list: Sequence[float],
    probe_grid: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Locally uniform convergence of the rescaled densities to their limits.

    For each density and eps, the sup over the probe grid of
    |eps^-2 W(eps a) - (1/2) c a^2| is recorded; densities with a nonzero gap
    must fit order >= 1.9 (the built-in quartic term gives exactly 2). A gap
    of at most 16 eps_mach * (1/2) c max|a|^2, the rounding of the limit
    density on the grid, counts as zero.
    """
    eps_list = eps_values(epsilon_list, decreasing=False)
    if probe_grid is None:
        probe_grid = np.linspace(-1.0, 1.0, 41)
    grid = np.asarray(probe_grid, dtype=float)
    if not np.all(np.isfinite(grid)) or grid.size == 0:
        raise ValidationError("probe_grid must be nonempty and bounded")
    quad = model.quadratic_limit()
    limits = {"el": quad.c_el, "vi": quad.c_vi, "psi": quad.d_diss}
    gaps: Dict[str, List[float]] = {}
    for which, c in limits.items():
        target = 0.5 * c * grid * grid
        gaps[which] = [
            float(np.max(np.abs(model.rescaled_density(which, eps, grid) - target)))
            for eps in eps_list
        ]
    rates: Dict[str, float] = {}
    residuals: List[float] = []
    for which in ("el", "vi", "psi"):
        # A gap within the rounding of the limit density is zero.
        rounding = RESOLUTION * 0.5 * limits[which] * float(np.max(grid * grid))
        if max(gaps[which]) <= rounding:
            residuals.append(0.0)
            continue
        rate = fit_rate(eps_list, gaps[which])
        if rate is None:
            residuals.append(-float("inf"))
            continue
        rates[which] = rate
        residuals.append(rate - 1.9)
    return VerificationReport.build(
        check="density_convergence",
        params={
            "epsilon_list": eps_list,
            "gaps": gaps,
            "probe_grid_size": int(grid.size),
            "probe_grid_max_abs": float(np.max(np.abs(grid))),
        },
        residuals=residuals,
        rates=rates,
        tolerance=0.0,
    )
