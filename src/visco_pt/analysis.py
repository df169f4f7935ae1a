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
without the trajectories. Shear-column states are element slopes
(:mod:`visco_pt.domain`): the semistability probes still move the nodal
profile, and the epsilon study compares slopes.
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
    energy_value,
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
from .rheology import MATERIAL_POINT, MaterialModel
from .stepper import Trajectory, de_giorgi_integral, phi_tau, run_evolution

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
    traj: Trajectory,
    factor: str = "one",
    m: int = 4,
    settings: Optional[MinimizeSettings] = None,
) -> VerificationReport:
    """Cumulative discrete energy inequality along the trajectory.

    With ``factor="one"`` the dissipation enters once and the residual at
    step n is E(0) - sum of load-rate work - E(t_n) - sum tau*Psi_i, which is
    nonnegative by per-step minimality. With ``factor="p_psi"`` the extra
    (p_psi - 1) * integral of the sub-step rate dissipation sharpens the
    bound. That integral is Gauss-Legendre with m nodes, and its error is
    estimated per step by the Gauss-Legendre rule with max(2, m // 2)
    nodes, so a step makes m + max(2, m // 2) substep solves (6 at the
    default m = 4). The summed estimate widens the tolerance (it is
    reported in ``params``). For a zero-load material point with p_psi = 2
    the sharp form is an identity and residuals are reported as -|raw|
    against a quadrature-level tolerance.
    """
    if factor not in ("one", "p_psi"):
        raise ValidationError(f"factor must be 'one' or 'p_psi', got {factor!r}")
    model, loading, grid = traj.model, traj.loading, traj.grid
    e0 = traj.energy(0)
    equality = (
        factor == "p_psi"
        and model.mode == MATERIAL_POINT
        and loading.is_zero
        and model.p_psi == 2.0
    )
    m_coarse = max(2, m // 2)
    work = 0.0
    diss = 0.0
    improved = 0.0
    quad_estimate = 0.0
    residuals = []
    for n in range(1, grid.n_steps + 1):
        t_n = float(grid.times[n])
        t_prev = float(grid.times[n - 1])
        work += loading.pairing_delta(traj.states[n - 1], t_n, t_prev)
        diss += float(traj.diss_increments[n - 1])
        if factor == "p_psi":
            q, _, _ = de_giorgi_integral(traj, n, m, settings)
            q_coarse, _, _ = de_giorgi_integral(traj, n, m_coarse, settings)
            improved += (model.p_psi - 1.0) * q
            quad_estimate += (model.p_psi - 1.0) * abs(q - q_coarse)
        lhs = traj.energy(n) + diss + improved
        raw = (e0 - work) - lhs
        residuals.append(-abs(raw) if equality else raw)
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


def _probe_direction(rng: np.random.Generator, state: State):
    if state.mode == MATERIAL_POINT:
        raw = float(rng.standard_normal())
        return 1.0 if raw >= 0.0 else -1.0
    raw = rng.standard_normal(state.mesh.n_elements)
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        raw[0] = 1.0
        peak = 1.0
    return raw / peak


def _perturb_elastic(state: State, direction, amplitude: float) -> State:
    """Move F, or the nodal values gamma(x_1..x_n) above the clamped bottom,
    by amplitude * direction; in slopes that adds the differences / h."""
    if state.mode == MATERIAL_POINT:
        return State.material_point(state.F + amplitude * direction, state.F_vi)
    shift = np.diff(amplitude * direction, prepend=0.0) / state.mesh.h
    return replace(state, gamma=state.gamma + shift)


def check_semistability(
    traj: Trajectory,
    t: float,
    n_probes: int = 20,
    amplitudes: Sequence[float] = (1e-2, 1e-1),
    seed: int = 0,
) -> VerificationReport:
    """Energy increase under random elastic perturbations at one grid time.

    The viscous state is frozen and the Dirichlet condition respected; the
    residual of probe delta at amplitude h is E(t, y_el + h*delta, y_vi) -
    E(t, y_el, y_vi), which is nonnegative when the elastic variable
    minimizes at frozen viscous state.
    """
    grid = traj.grid
    i = int(round(t / grid.tau))
    if not (0 <= i <= grid.n_steps) or abs(t - float(grid.times[i])) > 1e-9 * max(
        1.0, grid.t_final
    ):
        raise ValidationError(f"t={t!r} is not a grid time")
    state = traj.states[i]
    t_i = float(grid.times[i])
    base = traj.energy(i)
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(n_probes):
        direction = _probe_direction(rng, state)
        for amplitude in amplitudes:
            perturbed = _perturb_elastic(state, direction, float(amplitude))
            value = energy_value(traj.model, perturbed, traj.loading, t_i)
            residuals.append(value - base)
    return VerificationReport.build(
        check="semistability",
        params={
            "t": t_i,
            "step_index": i,
            "n_probes": n_probes,
            "amplitudes": list(amplitudes),
            "seed": seed,
        },
        residuals=residuals,
        tolerance=INEQUALITY_TOL,
    )


def semistability_sweep(
    traj: Trajectory,
    stride: int = 10,
    n_probes: int = 20,
    amplitudes: Sequence[float] = (1e-2, 1e-1),
    seed: int = 0,
) -> VerificationReport:
    """Aggregate semistability over every ``stride``-th grid time."""
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    grid = traj.grid
    indices = sorted(set(range(0, grid.n_steps + 1, stride)) | {grid.n_steps})
    residuals: List[float] = []
    for i in indices:
        sub = check_semistability(
            traj, float(grid.times[i]), n_probes, amplitudes, seed
        )
        residuals.extend(sub.residuals)
    return VerificationReport.build(
        check="semistability",
        params={
            "stride": stride,
            "times_checked": [float(grid.times[i]) for i in indices],
            "n_probes": n_probes,
            "amplitudes": list(amplitudes),
            "seed": seed,
        },
        residuals=residuals,
        tolerance=INEQUALITY_TOL,
    )


# -- dissipation monotonicity ------------------------------------------------------


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
    taus = [float(r) for r in tau_list]
    if any(r <= 0.0 or not np.isfinite(r) for r in taus):
        raise ValidationError("tau_list entries must be positive and finite")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValidationError("tau_list must be nondecreasing")
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


def tau_grids(t_final: float, tau_list: Sequence[float]) -> Dict[float, TimeGrid]:
    """The distinct taus of a convergence sweep, largest first, each mapped to
    the uniform grid of [0, t_final] it divides into.

    Raises :class:`ValidationError` unless there are at least two taus and
    each is positive, finite and divides ``t_final``.
    """
    taus = sorted({float(r) for r in tau_list}, reverse=True)
    if len(taus) < 2:
        raise ValidationError("need at least two tau values to fit an order")
    grids = {}
    for tau in taus:
        if not (tau > 0.0 and np.isfinite(tau)):
            raise ValidationError(f"tau={tau!r} must be positive and finite")
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
    if model.mode != MATERIAL_POINT or not loading.is_zero:
        raise ValidationError("ode_rk4 oracle requires a zero-load material point")

    trajectories: Dict[float, Trajectory] = {}
    errors = []
    for tau, grid in grids.items():
        traj = run_evolution(model, state0, loading, grid, settings)
        numeric = np.array([s.F_vi for s in traj.states])
        reference = rk4_viscous_oracle(model, state0.F_vi, grid.times)
        trajectories[tau] = traj
        errors.append(float(np.max(np.abs(numeric - reference))))
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


def eps_values(epsilon_list: Sequence[float], decreasing: bool = True) -> List[float]:
    """The epsilon list as floats, nonempty, each entry positive and finite
    and, if ``decreasing``, strictly decreasing (the order along which an
    epsilon study expects its errors to fall)."""
    eps_list = [float(e) for e in epsilon_list]
    if not eps_list:
        raise ValidationError("epsilon_list must not be empty")
    if any(not (e > 0.0 and np.isfinite(e)) for e in eps_list):
        raise ValidationError("epsilon_list entries must be positive and finite")
    if decreasing and any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("epsilon_list must be strictly decreasing")
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
        if model.mode == MATERIAL_POINT:
            init = State.material_point(
                1.0 + eps * float(lin0.u[0]), 1.0 + eps * float(lin0.v[0])
            )
        else:
            init = State.shear_column(lin0.mesh, eps * lin0.u, eps * lin0.v)
        traj = run_evolution(model, init, loading_eps, grid, settings)
        trajectories[eps] = traj
        scaled = rescale_displacements(traj, eps)
        pairs = list(zip(scaled.states, lin_traj.states))
        err_u.append(max(float(np.max(np.abs(a.u - b.u))) for a, b in pairs))
        err_v.append(max(float(np.max(np.abs(a.v - b.v))) for a, b in pairs))
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
