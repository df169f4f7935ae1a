"""Verification harness.

Every check returns a :class:`VerificationReport` whose residuals are signed
margins with a single convention: positive means the inequality under test
holds, and ``passed`` is true exactly when ``min(residuals) >= -tolerance``.
Checks that certify an equality store ``-|raw residual|`` so the same
convention applies. The tau, epsilon and density studies judge each error
series by one rule, :func:`_judge_rates`: at its floor it passes, otherwise
its order (the log-log least-squares slope of :func:`fit_rate`) must clear
its gate, and a falling series must not rise. Reports keep the raw errors,
so rates and slack can be recomputed externally.

The sharp energy inequality takes the De Giorgi integral exactly, with no
substep solve (:func:`~visco_pt.stepper.de_giorgi_dissipation`), and is an
identity under loads constant in time. The tau oracle is the exact
zero-load viscous flow, :func:`viscous_flow`.

Parameter sweeps run once per command. :func:`tau_sweep` and
:func:`eps_sweep` validate their whole list and, for tau, that the oracle
applies (:func:`tau_sweep_grids`, :func:`eps_study_values`) before the first
trajectory runs, as :func:`density_convergence` validates its list
(:func:`density_values`); the config runs the same validators on parse for
each check it lists. Then they run each trajectory once, in parameter order,
judge it, and return the trajectories with the report, so the command line
writes the very trajectories that were judged; ``verify`` keeps the report
alone. The validators name in their errors the config key each list comes
from (``tau_list``, ``mono_tau_list``, ``eps_list``). Every trajectory and
substep a check runs is solved under the one stopping rule of
:mod:`visco_pt.kernels`; no check takes a solver option. Semistability is
judged against the exact elastic minimizer at every grid time, so no check
draws random numbers.
Shear-column states are element slopes (:mod:`visco_pt.domain`), and the
epsilon study compares slopes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domain import (
    Loading,
    ShearColumnMesh,
    State,
    TimeGrid,
    dissipation_displacement,
    dof_stored_energies,
)
from .errors import ValidationError
from .kernels import RESOLUTION
from .linearized import linear_column, rescale_displacements
from .rheology import MaterialModel
from .stepper import (
    Trajectory,
    de_giorgi_dissipation,
    elastic_minimizers,
    equilibrate_elastic,
    phi_tau,
    run_evolution,
)

INEQUALITY_TOL = 1e-8
EQUALITY_TOL = 1e-10
MONOTONICITY_TOL = 1e-9
EPSILON_STUDY_FLOOR = 1e-7
# The probes a of density_convergence: 41 points on [-1, 1].
PROBE_GRID = np.linspace(-1.0, 1.0, 41)
PROBE_GRID.flags.writeable = False


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
        passed = _least(residuals) >= -tolerance
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
        return _least(self.residuals)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "residuals": self.residuals,
            "rates": self.rates,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _least(residuals: List[float]) -> float:
    """The least residual (0 for none), NaN when any is NaN: what ``min``
    alone returns then depends on where the NaN stands."""
    return math.nan if any(map(math.isnan, residuals)) else min(residuals, default=0.0)


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


def _judge_rates(params: Sequence[float], series) -> Tuple[dict, dict, List[float]]:
    """The ``(regimes, rates, residuals)`` of the error series ``(name,
    errors, floor, gate, falling)`` over ``params``. A series whose every
    error is at most ``floor`` is in regime "floor" and adds the residual 0.
    Otherwise it is in regime "rate", its :func:`fit_rate` order (where one
    fits) enters ``rates``, and it adds a - b for each consecutive pair of
    errors if ``falling``, rate - gate (-inf where no rate fits) if it has a
    gate, and -inf if an error is not finite, wherever that error stands.
    """
    regimes, rates, residuals = {}, {}, []
    for name, errors, floor, gate, falling in series:
        if all(e <= floor for e in errors):
            regimes[name] = "floor"
            residuals.append(0.0)
            continue
        regimes[name], rate = "rate", fit_rate(params, errors)
        if rate is not None:
            rates[name] = rate
        if falling:
            residuals.extend(a - b for a, b in zip(errors, errors[1:]))
        if gate is not None:
            residuals.append(-math.inf if rate is None else rate - gate)
        if not all(map(math.isfinite, errors)):
            residuals.append(-math.inf)
    return regimes, rates, residuals


# -- energy inequalities ----------------------------------------------------------


def check_energy_inequality(traj: Trajectory, factor: str = "one") -> VerificationReport:
    """Cumulative discrete energy inequality along the trajectory.

    With ``factor="one"`` the dissipation enters once and the residual at
    step n is E(0) - sum of load-rate work - E(t_n) - sum tau*Psi_i, which is
    nonnegative by per-step minimality. With ``factor="p_psi"`` the extra
    (p_psi - 1) * integral of the substep rate dissipation, exact from
    :func:`~visco_pt.stepper.de_giorgi_dissipation`, sharpens the bound.
    Each step then closes on the energy of its old viscous state reduced
    over the elastic variable at the new time, so under loads constant in
    time, from a start at its own elastic minimizer (as
    :func:`~visco_pt.stepper.equilibrate_elastic` gives it), the sharp form
    is an identity: residuals are reported as -|raw| against
    ``EQUALITY_TOL * max(1, |E(0)|)``, widened by the sum over the steps of
    the recorded |grad|_inf times the distance the viscous dofs moved, the
    most by which a solve's stopping rule moves a step's identity. A start
    off that minimizer keeps the strict inequality at step 1.
    """
    if factor not in ("one", "p_psi"):
        raise ValidationError(f"factor must be 'one' or 'p_psi', got {factor!r}")
    model, loading, grid = traj.model, traj.loading, traj.grid
    e0 = traj.energy(0)
    improved, equality = 0.0, False
    if factor == "p_psi":
        improved = np.cumsum((model.p_psi - 1.0) * de_giorgi_dissipation(traj))
        start = traj.states[0]
        equality = loading.is_constant and np.array_equal(
            equilibrate_elastic(model, start, loading, 0.0).gamma, start.gamma
        )
    lhs = traj.energies[1:] + traj.delta[1:] + improved
    raw = (e0 - traj.load_work[1:]) - lhs
    if equality:
        moved = np.add.reduce(np.abs(np.diff(traj.dofs[:, 1], axis=0)), axis=-1)
        solves = float(np.sum(traj.grad_inf * moved))
        residuals, tolerance = -np.abs(raw), EQUALITY_TOL * max(1.0, abs(e0)) + solves
    else:
        residuals, tolerance = raw, INEQUALITY_TOL
    return VerificationReport.build(
        check=f"energy_inequality_{factor}",
        params={
            "factor": factor,
            "equality_mode": equality,
            "n_steps": grid.n_steps,
            "tau": grid.tau,
            "initial_energy": e0,
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
    y, y_vi = traj.dofs[:, 0], traj.dofs[:, 1]
    y_min, sigma = elastic_minimizers(model, mesh, traj.loading, traj.grid.times, y_vi)
    strain = y / y_vi - 1.0 if mesh is None else y - y_vi
    stored = np.column_stack(dof_stored_energies(model, mesh, y_min, y_vi))
    minimizer = replace(traj, dofs=np.stack([y_min, y_vi], 1), stored=stored)
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


def substep_values(tau_list: Sequence[float]) -> List[float]:
    """The substeps of a monotonicity check as floats: at least two distinct
    (equal substeps have the same minimizer, so compare nothing), positive,
    finite and nondecreasing. Errors name the config key ``mono_tau_list``."""
    taus = _positive("mono_tau_list", tau_list)
    if len(set(taus)) < 2:
        raise ValidationError(
            "mono_tau_list needs at least two substeps to compare, distinct ones"
        )
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValidationError("mono_tau_list must be nondecreasing")
    return taus


def check_monotonicity(
    old: State,
    t_i: float,
    tau_list: Sequence[float],
    model: MaterialModel,
    loading: Loading = Loading(),
) -> VerificationReport:
    """Unnormalized displacement dissipation is nondecreasing in the substep.

    For each r in ``tau_list`` the substep functional at target time t_i is
    minimized and Psi(old, y_vi,r - old) recorded; residuals are consecutive
    differences.
    """
    taus = substep_values(tau_list)

    def displacement(r: float) -> float:
        sub = phi_tau(model, old, loading, t_i, r)
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


def viscous_flow(model: MaterialModel, f_vi0: float, times) -> np.ndarray:
    """The zero-load viscous flow dF/dt = -(c_v/d_v) F^2 (F - 1) from F(0) =
    f_vi0 > 0, exactly, at ``times``.

    Along the flow G(F) = log|1 - 1/F| + 1/F falls at the rate c_v/d_v
    (dG/dF = 1 / (F^2 (F - 1))), so G(F(t)) = G(f_vi0) - (c_v/d_v) t. F
    never crosses the rest state 1 and G is monotone on either side of it,
    so each F(t) is found by one bisection over all times at once, between
    f_vi0 and 1, down to two adjacent floats; of those it returns the one
    whose G is nearer the target (log1p forms G where F > 1). From f_vi0 = 1
    the flow rests.
    """
    times = np.asarray(times, dtype=float)
    start = np.full(times.shape, float(f_vi0))
    if f_vi0 == 1.0:
        return start

    def G(F):
        with np.errstate(divide="ignore"):
            if f_vi0 > 1.0:
                return np.log1p(-1.0 / F) + 1.0 / F
            return np.log(1.0 / F - 1.0) + 1.0 / F

    target = G(start) - (model.c_v / model.d_v) * times
    near, far = start, np.ones(times.shape)  # the ends toward f_vi0 and toward 1
    while True:
        mid = 0.5 * (near + far)
        moving = (mid != near) & (mid != far)
        if not moving.any():
            break
        passed = G(mid) > target  # the flow passes mid before the time sought
        near = np.where(moving & passed, mid, near)
        far = np.where(moving & ~passed, mid, far)
    nearer_far = np.abs(G(far) - target) < np.abs(G(near) - target)
    return np.where(nearer_far, far, near)


def tau_values(tau_list: Sequence[float]) -> List[float]:
    """The distinct taus of a convergence sweep, largest first: at least two,
    each positive and finite. Errors name the config key ``tau_list``."""
    taus = sorted(set(_positive("tau_list", tau_list)), reverse=True)
    if len(taus) < 2:
        raise ValidationError("need at least two tau values to fit an order")
    return taus


def tau_sweep_grids(
    model: MaterialModel,
    material_point: bool,
    loading: Loading,
    t_final: float,
    tau_list: Sequence[float],
) -> Dict[float, TimeGrid]:
    """The taus of :func:`tau_values`, each mapped to the uniform grid of
    [0, t_final] it divides into, once the exact-flow oracle of
    :func:`tau_sweep` applies: a zero-load material point with p_psi = 2.
    Raises :class:`ValidationError` unless each tau divides ``t_final`` and
    the oracle applies; the list is validated first."""
    grids = {}
    for tau in tau_values(tau_list):
        n = int(round(t_final / tau))
        if n < 1 or abs(n * tau - t_final) > 1e-9 * max(1.0, t_final):
            raise ValidationError(f"tau={tau!r} does not divide t_final={t_final!r}")
        grids[tau] = TimeGrid(t_final, n)
    if not material_point or not loading.is_zero:
        raise ValidationError("the exact-flow oracle requires a zero-load material point")
    if model.p_psi != 2.0:
        raise ValidationError(f"the exact-flow oracle requires p_psi = 2, got {model.p_psi!r}")
    return grids


def tau_sweep(
    model: MaterialModel,
    state0: State,
    loading: Loading,
    t_final: float,
    tau_list: Sequence[float],
) -> Tuple[Dict[float, Trajectory], VerificationReport]:
    """Run one trajectory per distinct tau and judge its sup-over-grid error
    against the exact viscous flow (:func:`viscous_flow`): the errors pass
    at the floor 1e-12, or else with fitted order >= 0.9 (:func:`_judge_rates`).

    The oracle requires a zero-load material point with p_psi = 2, where the
    viscous strain obeys that flow. The tau list and these requirements are
    validated before the first trajectory runs (:func:`tau_sweep_grids`).
    Returns the trajectories, keyed by tau from largest to smallest, and the
    report.
    """
    grids = tau_sweep_grids(model, state0.mesh is None, loading, t_final, tau_list)
    taus = list(grids)

    trajectories: Dict[float, Trajectory] = {}
    errors = []
    times = [grid.times for grid in grids.values()]
    flow = viscous_flow(model, state0.F_vi, np.concatenate(times))
    references = np.split(flow, np.cumsum([len(t) for t in times[:-1]]))
    for (tau, grid), reference in zip(grids.items(), references):
        traj = run_evolution(model, state0, loading, grid)
        trajectories[tau] = traj
        errors.append(float(np.max(np.abs(traj.dofs[:, 1, 0] - reference))))
    params = {
        "oracle": "exact_flow",
        "tau_list": taus,
        "errors": errors,
        "t_final": t_final,
    }
    regimes, rates, residuals = _judge_rates(taus, [("order", errors, 1e-12, 0.9, False)])
    params["regime"] = regimes["order"]
    return trajectories, VerificationReport.build("tau_convergence", params, residuals, rates)


# -- linearization (epsilon) study ---------------------------------------------------


def eps_values(epsilon_list: Sequence[float], probes: Sequence[float] = (1.0,)) -> List[float]:
    """The epsilon list as floats, nonempty, each entry positive. A rescaled
    density eps^-2 W(eps a) divides by eps^2 and squares eps a, so eps and
    eps times the smallest nonzero |a| of ``probes`` must each square to a
    positive normal float, or the rescaling loses its digits. Errors name
    the config key ``eps_list``."""
    eps_list = _positive("eps_list", epsilon_list)
    magnitudes = np.abs(np.asarray(probes, dtype=float))
    smallest = float(np.min(magnitudes[magnitudes > 0.0], initial=1.0))
    for eps in eps_list:
        if not sys.float_info.min <= eps * eps < math.inf:
            raise ValidationError(
                f"eps_list entry {eps!r} squares to {eps * eps!r}, not a positive normal float"
            )
        low = eps * smallest
        if low * low < sys.float_info.min:
            raise ValidationError(
                f"eps_list entry {eps!r} times the probe {smallest!r} squares to "
                f"{low * low!r}, not a positive normal float"
            )
    return eps_list


def eps_study_values(epsilon_list: Sequence[float], material_point: bool) -> List[float]:
    """The epsilon list of a study (:func:`eps_sweep`): the entries of
    :func:`eps_values`, strictly decreasing (the order along which the study
    expects its errors to fall), and from a material-point start each with
    ``RESOLUTION / eps`` at most ``EPSILON_STUDY_FLOOR``: a rescaled dof
    (F - 1) / eps carries the rounding of F, about one ulp of 1, divided by
    eps."""
    eps_list = eps_values(epsilon_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    if material_point:
        for eps in eps_list:
            if RESOLUTION / eps > EPSILON_STUDY_FLOOR:
                raise ValidationError(
                    f"eps_list entry {eps!r} is below "
                    f"{RESOLUTION / EPSILON_STUDY_FLOOR:.3g}: a material point's "
                    "rescaled dofs (F - 1) / eps would carry more rounding than "
                    f"the study's floor {EPSILON_STUDY_FLOOR!r}"
                )
    return eps_list


def eps_sweep(
    model: MaterialModel,
    mesh: Optional[ShearColumnMesh],
    lin0: State,
    loading0: Loading,
    grid: TimeGrid,
    epsilon_list: Sequence[float],
) -> Tuple[Trajectory, Dict[float, Trajectory], VerificationReport]:
    """Run the linearized trajectory and one eps-rescaled finite-strain
    trajectory per eps, and compare them.

    The finite-strain problem lives on ``mesh``, None at a material point;
    the geometry is given, since the linearized start ``lin0`` lives on the
    column of :func:`~visco_pt.linearized.linear_column` (one element at a
    material point) in both. The linearized trajectory is
    :func:`~visco_pt.stepper.run_evolution` of the quadratic model on that
    column. For each eps the nonlinear problem uses loading eps*l0 and
    initial data id + eps*(u0, v0); its rescaled trajectory (u_eps, v_eps)
    is compared with the linearized solution in the dof sup-norm over the
    grid (for the shear column the sup-norm of the slopes, which bounds that
    of the nodal profiles). The rescaled-energy gaps at t = 0 and t = T are
    read from the two ledgers: |W_el / eps^2 + W_vi / eps^2 - (W0_el +
    W0_vi)| with the stored energies of the finite-strain and the
    linearized state.

    Each quantity (u error, v error, t = 0 gap) is one series of
    :func:`_judge_rates`: at or below ``EPSILON_STUDY_FLOOR`` (1e-7) it
    passes outright (the shear ansatz with quadratic densities is exactly
    eps-independent, and its stress is pinned by statics so v never
    deviates at all); above the floor its errors must not increase along
    the (descending) epsilon list, and the t = 0 energy gap must vanish with
    fitted order >= 0.9. In the shear ansatz that gap is exactly the quartic
    Taylor remainder with order 2; at a material point the geometric
    factors reduce it to order 1. A single eps has no order to judge: its
    report keeps the gaps and passes, in regime "gaps_only".

    The epsilon list is validated before the first trajectory runs
    (:func:`eps_study_values`). Returns the linearized trajectory, the
    finite-strain trajectories keyed by eps in list order, and the report.
    """
    eps_list = eps_study_values(epsilon_list, mesh is None)
    quad, column, loading_lin = linear_column(model, mesh, loading0)
    if lin0.mesh != column:
        raise ValidationError(f"the linearized start must live on {column}")
    lin_traj = run_evolution(quad, lin0, loading_lin, grid)

    trajectories: Dict[float, Trajectory] = {}
    err_u, err_v, gap_t0, gap_tf = [], [], [], []
    for eps in eps_list:
        loading_eps = Loading(
            f_coeffs=tuple(eps * c for c in loading0.f_coeffs),
            g_coeffs=tuple(eps * c for c in loading0.g_coeffs),
        )
        if mesh is None:
            init = State.material_point(
                1.0 + eps * float(lin0.gamma[0]), 1.0 + eps * float(lin0.beta[0])
            )
        else:
            init = State.shear_column(mesh, eps * lin0.gamma, eps * lin0.beta)
        traj = run_evolution(model, init, loading_eps, grid)
        trajectories[eps] = traj
        scaled = rescale_displacements(traj, eps)
        gap = np.abs(scaled - lin_traj.dofs)
        err_u.append(float(np.max(gap[:, 0])))
        err_v.append(float(np.max(gap[:, 1])))
        gaps = []
        for idx in (0, grid.n_steps):
            w_el, w_vi = traj.stored[idx].tolist()
            w0_el, w0_vi = lin_traj.stored[idx].tolist()
            gaps.append(abs((w_el / (eps * eps) + w_vi / (eps * eps)) - (w0_el + w0_vi)))
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
        return lin_traj, trajectories, VerificationReport.build("epsilon_study", params, [0.0])
    floor = EPSILON_STUDY_FLOOR
    series = [("u", err_u, floor, None, True), ("v", err_v, floor, None, True),
              ("energy_t0", gap_t0, floor, 0.9, True)]
    params["regimes"], rates, residuals = _judge_rates(eps_list, series)
    report = VerificationReport.build("epsilon_study", params, residuals, rates)
    return lin_traj, trajectories, report


# -- density convergence ---------------------------------------------------------------


def density_values(epsilon_list: Sequence[float]) -> List[float]:
    """The epsilon list of :func:`density_convergence`: that of
    :func:`eps_values` against the probes of ``PROBE_GRID``."""
    return eps_values(epsilon_list, PROBE_GRID)


def density_convergence(
    model: MaterialModel, epsilon_list: Sequence[float]
) -> VerificationReport:
    """Locally uniform convergence of the rescaled densities to their limits.

    For each density and eps, the sup over ``PROBE_GRID`` of
    |eps^-2 W(eps a) - (1/2) c a^2| is recorded; densities with a nonzero gap
    must fit order >= 1.9 (the built-in quartic term gives exactly 2). A gap
    of at most 16 eps_mach * (1/2) c max|a|^2, the rounding of the limit
    density on the grid, counts as zero: the floor of :func:`_judge_rates`.
    The epsilon list is validated against the probe grid
    (:func:`density_values`).
    """
    eps_list = density_values(epsilon_list)
    quad = model.quadratic_limit()
    gaps: Dict[str, List[float]] = {}
    series = []
    for which, c in (("el", quad.c_e), ("vi", quad.c_v), ("psi", quad.d_v)):
        target = 0.5 * c * PROBE_GRID * PROBE_GRID
        gaps[which] = [
            float(np.max(np.abs(model.rescaled_density(which, eps, PROBE_GRID) - target)))
            for eps in eps_list
        ]
        # A gap within the rounding of the limit density is zero.
        rounding = RESOLUTION * 0.5 * c * float(np.max(PROBE_GRID * PROBE_GRID))
        series.append((which, gaps[which], rounding, 1.9, False))
    _, rates, residuals = _judge_rates(eps_list, series)
    return VerificationReport.build(
        check="density_convergence",
        params={
            "epsilon_list": eps_list,
            "gaps": gaps,
            "probe_grid_size": int(PROBE_GRID.size),
            "probe_grid_max_abs": float(np.max(np.abs(PROBE_GRID))),
        },
        residuals=residuals,
        rates=rates,
    )
