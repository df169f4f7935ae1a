"""Command-line interface: scenario runs, sweeps, and verification.

Subcommands: ``run`` (single trajectory to CSV), ``lin`` (linearized run),
``sweep-tau`` (grid refinement against the ODE oracle), ``sweep-eps``
(linearization study), ``verify`` (selected checks to JSON), ``densities``
(density-convergence table). Exit codes: 0 on pass, 2 when a check fails
(stderr names the check and its worst residual), 1 on runtime errors.

All outputs are written atomically (temp file + rename) with
17-significant-digit decimals, so identical config and seed give
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, analysis
from .config import ScenarioConfig, load_config
from .errors import ValidationError, ViscoPTError
from .linearized import (
    LinTrajectory,
    lin_pairing,
    lin_pairing_delta,
    lin_stored,
    run_lin_evolution,
)
from .stepper import Trajectory, run_evolution

CSV_HEADER = "t,F,F_vi,W_el,W_vi,load_work,E_total,diss_inc,delta,ineq_residual"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _dof_column(mesh, arrays, offset: float) -> list:
    """The F or F_vi column from one array per state: the value itself at a
    material point (no mesh); in the shear column the top value
    offset + h * (sum of the element slopes)."""
    stacked = np.array(arrays)
    if mesh is None:
        return stacked[:, 0].tolist()
    return (offset + mesh.h * stacked.sum(axis=1)).tolist()


def _ledger_csv(traj, energies, pairing_delta, dofs, flag: str = "") -> str:
    """Ledger CSV with cumulative bookkeeping, from the two dof columns, each
    state's ``(W_el, W_vi, E_total)`` and the load-rate work of each step; a
    nonempty ``flag`` ends every row and adds the ``lin`` column to the
    header."""
    states, times, delta = traj.states, traj.grid.times.tolist(), traj.delta.tolist()
    diss = [0.0] + traj.diss_increments.tolist()
    lines = [CSV_HEADER + (",lin" if flag else "")]
    e0, work = energies[0][2], 0.0
    for i, (y, y_vi, (w_el, w_vi, e_total)) in enumerate(zip(*dofs, energies)):
        if i > 0:
            work += pairing_delta(states[i - 1], times[i], times[i - 1])
        residual = (e0 - work) - (e_total + delta[i])
        row = (times[i], y, y_vi, w_el, w_vi, work, e_total, diss[i], delta[i],
               residual)
        # format() inline, as _fmt does: the ledger is the hot output loop
        lines.append(",".join([format(v, ".17g") for v in row]) + flag)
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    """Ledger CSV for a finite-strain trajectory, from the stored energies it
    carries; in the shear column F and F_vi are 1 + h * (sum of gamma') and
    1 + h * (sum of beta')."""
    states, mesh = traj.states, traj.states[0].mesh
    dofs = (
        _dof_column(mesh, [s.gamma for s in states], 1.0),
        _dof_column(mesh, [s.beta for s in states], 1.0),
    )
    energies = [(*w, traj.energy(i)) for i, w in enumerate(traj.stored.tolist())]
    return _ledger_csv(traj, energies, traj.loading.pairing_delta, dofs)


def lin_trajectory_csv(traj: LinTrajectory) -> str:
    """Same schema as trajectory_csv plus a lin flag; the F and F_vi columns
    carry u and v, in the shear column h * (sum of u') and h * (sum of v')."""
    loading, states, mesh = traj.loading, traj.states, traj.states[0].mesh
    dofs = (
        _dof_column(mesh, [s.u for s in states], 0.0),
        _dof_column(mesh, [s.v for s in states], 0.0),
    )
    energies = []
    for state, t in zip(states, traj.grid.times.tolist()):
        w_el, w_vi = lin_stored(traj.quad, state)
        energies.append((w_el, w_vi, w_el + w_vi - lin_pairing(state, loading, t)))
    return _ledger_csv(
        traj, energies, lambda s, t1, t0: lin_pairing_delta(s, loading, t1, t0),
        dofs, ",1",
    )


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_payload(config: ScenarioConfig, reports) -> dict:
    return {
        "tool": {
            "name": "visco-pt",
            "version": __version__,
            "kernel_backend": "python",
        },
        "config": config.as_dict(),
        "checks": [r.as_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }


def _emit_failures(reports) -> int:
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(
            f"check failed: {r.check} (min residual {r.min_residual:.6e}, "
            f"tolerance {r.tolerance:.1e})",
            file=sys.stderr,
        )
    return 2 if failed else 0


# -- check orchestration -----------------------------------------------------------


def _run_checks(config: ScenarioConfig, names: Sequence[str]):
    settings = config.settings()
    model = config.model()
    loading = config.loading()
    grid = config.grid()
    traj: Optional[Trajectory] = None

    def trajectory() -> Trajectory:
        nonlocal traj
        if traj is None:
            traj = run_evolution(
                model, config.initial_state(), loading, grid, settings
            )
        return traj

    reports = []
    for name in names:
        if name == "energy_one":
            reports.append(analysis.check_energy_inequality(trajectory(), "one"))
        elif name == "energy_sharp":
            reports.append(
                analysis.check_energy_inequality(
                    trajectory(), "p_psi", m=config.de_giorgi_m, settings=settings
                )
            )
        elif name == "semistability":
            reports.append(
                analysis.semistability_sweep(
                    trajectory(),
                    stride=config.stride,
                    n_probes=config.n_probes,
                    amplitudes=config.amplitudes,
                    seed=config.seed,
                )
            )
        elif name == "monotonicity":
            reports.append(
                analysis.check_monotonicity(
                    config.initial_state(),
                    max(config.mono_tau_list),
                    config.mono_tau_list,
                    model,
                    loading,
                    settings,
                )
            )
        elif name == "tau_convergence":
            reports.append(
                analysis.tau_convergence(
                    model,
                    config.initial_state(),
                    loading,
                    config.t_final,
                    config.tau_list,
                    settings=settings,
                )
            )
        elif name == "epsilon_study":
            reports.append(
                analysis.epsilon_study(
                    model,
                    config.lin_initial(),
                    loading,
                    grid,
                    config.eps_list,
                    settings,
                )
            )
        elif name == "density_convergence":
            reports.append(analysis.density_convergence(model, config.eps_list))
        else:
            raise ViscoPTError(f"unknown check {name!r}")
    return reports


# -- subcommands --------------------------------------------------------------------


def _cmd_run(config: ScenarioConfig, out: str) -> int:
    traj = run_evolution(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.grid(),
        config.settings(),
    )
    _atomic_write(os.path.join(out, "run.csv"), trajectory_csv(traj))
    return 0


def _cmd_lin(config: ScenarioConfig, out: str) -> int:
    quad = config.model().quadratic_limit()
    traj = run_lin_evolution(quad, config.lin_initial(), config.loading(), config.grid())
    _atomic_write(os.path.join(out, "lin.csv"), lin_trajectory_csv(traj))
    return 0


def _cmd_verify(config: ScenarioConfig, out: str) -> int:
    reports = _run_checks(config, config.checks)
    payload = _report_payload(config, reports)
    _atomic_write(os.path.join(out, "verify.json"), _json_dump(payload))
    return _emit_failures(reports)


def _cmd_sweep_tau(config: ScenarioConfig, out: str, tau_list) -> int:
    trajs, report = analysis.tau_sweep(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.t_final,
        tau_list or config.tau_list,
        settings=config.settings(),
    )
    for tau, traj in trajs.items():
        _atomic_write(os.path.join(out, f"tau_{_fmt(tau)}.csv"), trajectory_csv(traj))
    payload = _report_payload(config, [report])
    _atomic_write(os.path.join(out, "sweep_tau.json"), _json_dump(payload))
    return _emit_failures([report])


def _cmd_sweep_eps(config: ScenarioConfig, out: str, eps_list) -> int:
    lin_traj, trajs, report = analysis.eps_sweep(
        config.model(),
        config.lin_initial(),
        config.loading(),
        config.grid(),
        eps_list or config.eps_list,
        config.settings(),
    )
    _atomic_write(os.path.join(out, "eps_lin.csv"), lin_trajectory_csv(lin_traj))
    for e, traj in trajs.items():
        _atomic_write(os.path.join(out, f"eps_{_fmt(e)}.csv"), trajectory_csv(traj))
    payload = _report_payload(config, [report])
    _atomic_write(os.path.join(out, "sweep_eps.json"), _json_dump(payload))
    return _emit_failures([report])


def _cmd_densities(config: ScenarioConfig, out: str) -> int:
    report = analysis.density_convergence(config.model(), config.eps_list)
    gaps = report.params["gaps"]
    lines = ["eps,gap_el,gap_vi,gap_psi"]
    for i, e in enumerate(report.params["epsilon_list"]):
        lines.append(
            ",".join(
                _fmt(v) for v in (e, gaps["el"][i], gaps["vi"][i], gaps["psi"][i])
            )
        )
    _atomic_write(os.path.join(out, "densities.csv"), "\n".join(lines) + "\n")
    payload = _report_payload(config, [report])
    _atomic_write(os.path.join(out, "densities.json"), _json_dump(payload))
    return _emit_failures([report])


# -- entry point ---------------------------------------------------------------------


def _parse_list(text: Optional[str], flag: str) -> Optional[List[float]]:
    if text is None:
        return None
    values = []
    for part in text.replace(",", " ").split():
        try:
            values.append(float(part))
        except ValueError:
            raise ValidationError(f"{flag}: {part!r} is not a number") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visco-pt",
        description="Incremental-minimization solver for a finite-strain "
        "viscoelastic column, with a linearized companion and a "
        "verification harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single finite-strain trajectory to run.csv"),
        ("lin", "linearized trajectory to lin.csv"),
        ("sweep-tau", "tau refinement with ODE-oracle rates"),
        ("sweep-eps", "linearization study across epsilon"),
        ("verify", "run the configured checks to verify.json"),
        ("densities", "rescaled-density convergence table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        if name == "sweep-tau":
            p.add_argument("--tau-list", default=None, help="override tau values")
        if name == "sweep-eps":
            p.add_argument("--eps-list", default=None, help="override eps values")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "run":
            return _cmd_run(config, args.out)
        if args.command == "lin":
            return _cmd_lin(config, args.out)
        if args.command == "verify":
            return _cmd_verify(config, args.out)
        if args.command == "sweep-tau":
            taus = _parse_list(args.tau_list, "--tau-list")
            return _cmd_sweep_tau(config, args.out, taus)
        if args.command == "sweep-eps":
            eps = _parse_list(args.eps_list, "--eps-list")
            return _cmd_sweep_eps(config, args.out, eps)
        if args.command == "densities":
            return _cmd_densities(config, args.out)
        raise ViscoPTError(f"unknown command {args.command!r}")
    except ViscoPTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
