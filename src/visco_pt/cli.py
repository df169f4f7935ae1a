"""Command-line interface: scenario runs, sweeps, and verification.

One argument parser takes the command as its first positional argument:
``run`` (single trajectory to CSV), ``lin`` (linearized run), ``sweep-tau``
(grid refinement against the exact-flow oracle), ``sweep-eps``
(linearization study), ``verify`` (selected checks to JSON), ``densities``
(density-convergence table). Every command takes ``--config`` and ``--out``;
``--tau-list`` belongs to ``sweep-tau`` and ``--eps-list`` to ``sweep-eps``
alone. Exit codes: 0 on pass, 2 when a check fails (stderr names the check
and its worst residual) or the command line is malformed, 1 on runtime
errors, an unreadable config or an unwritable output included.

All outputs are written atomically (temp file + rename; a failed write
leaves no temp file). CSV cells are
17-significant-digit decimals ('%.17g'), JSON floats Python's shortest
round-trip ``repr``; both read back to the same bits, so identical configs
give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, analysis
from .config import ScenarioConfig, load_config
from .domain import State
from .errors import ValidationError, ViscoPTError
from .linearized import linear_column
from .stepper import Trajectory, run_evolution

CSV_HEADER = "t,F,F_vi,W_el,W_vi,load_work,E_total,diss_inc,delta,ineq_residual"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _csv_table(header: str, columns, flag: str = "") -> str:
    """A CSV table: the header line, then one row per entry of the
    equal-length ``columns``, each cell '%.17g' and each row ended by
    ``flag``."""
    row = ",".join(["%.17g"] * len(columns)) + flag + "\n"
    values = tuple(np.column_stack(columns).ravel().tolist())
    return header + "\n" + (row * len(columns[0])) % values


def _ledger_csv(traj, offset: float, flag: str = "") -> str:
    """Ledger CSV of a finite-strain or linearized trajectory, from its
    arrays: one row per grid time with the two dof columns, W_el, W_vi, the
    cumulative load-rate work, E_total, the step's dissipation, the
    cumulative dissipation and the energy-inequality residual. At a material
    point the dof columns are the dofs themselves; in the shear column they
    are offset + h * (sum of the element slopes). A nonempty ``flag`` ends
    every row and adds the ``lin`` column to the header."""
    y, y_vi = traj.dofs[:, 0], traj.dofs[:, 1]
    if traj.mesh is None:
        y, y_vi = y[:, 0], y_vi[:, 0]
    else:
        y, y_vi = (offset + traj.mesh.h * col.sum(axis=1) for col in (y, y_vi))
    energies, work, delta = traj.energies, traj.load_work, traj.delta
    residual = (energies[0] - work) - (energies + delta)
    diss = np.concatenate([[0.0], traj.diss_increments])
    columns = (traj.grid.times, y, y_vi, traj.stored[:, 0], traj.stored[:, 1],
               work, energies, diss, delta, residual)
    return _csv_table(CSV_HEADER + (",lin" if flag else ""), columns, flag)


def trajectory_csv(traj: Trajectory) -> str:
    """Ledger CSV for a finite-strain trajectory, from the stored energies it
    carries; in the shear column F and F_vi are 1 + h * (sum of gamma') and
    1 + h * (sum of beta')."""
    return _ledger_csv(traj, 1.0)


def lin_trajectory_csv(traj: Trajectory) -> str:
    """Same schema as trajectory_csv plus a lin flag, for a linearized run
    on its column; the F and F_vi columns carry u and v, h * (sum of u') and
    h * (sum of v') (one element, h = 1, at a material point)."""
    return _ledger_csv(traj, 0.0, ",1")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_payload(config: ScenarioConfig, reports) -> dict:
    return {
        "tool": {"name": "visco-pt", "version": __version__},
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
    model = config.model()
    loading = config.loading()
    grid = config.grid()
    state0: Optional[State] = None
    traj: Optional[Trajectory] = None

    def initial_state() -> State:
        nonlocal state0
        if state0 is None:
            state0 = config.initial_state()
        return state0

    def trajectory() -> Trajectory:
        nonlocal traj
        if traj is None:
            traj = run_evolution(model, initial_state(), loading, grid)
        return traj

    reports = []
    for name in names:
        if name == "energy_one":
            reports.append(analysis.check_energy_inequality(trajectory(), "one"))
        elif name == "energy_sharp":
            reports.append(analysis.check_energy_inequality(trajectory(), "p_psi"))
        elif name == "semistability":
            reports.append(analysis.semistability_sweep(trajectory()))
        elif name == "monotonicity":
            reports.append(
                analysis.check_monotonicity(
                    initial_state(),
                    max(config.mono_tau_list),
                    config.mono_tau_list,
                    model,
                    loading,
                )
            )
        elif name == "tau_convergence":
            reports.append(
                analysis.tau_convergence(
                    model,
                    initial_state(),
                    loading,
                    config.t_final,
                    config.tau_list,
                )
            )
        elif name == "epsilon_study":
            reports.append(
                analysis.epsilon_study(
                    model,
                    config.mesh(),
                    config.lin_initial(),
                    loading,
                    grid,
                    config.eps_list,
                    name="eps_list",
                )
            )
        elif name == "density_convergence":
            reports.append(analysis.density_convergence(model, config.eps_list, name="eps_list"))
        else:
            raise ViscoPTError(f"unknown check {name!r}")
    return reports


# -- commands -----------------------------------------------------------------------


def _cmd_run(config: ScenarioConfig, out: str) -> int:
    traj = run_evolution(
        config.model(),
        config.initial_state(),
        config.loading(),
        config.grid(),
    )
    _atomic_write(os.path.join(out, "run.csv"), trajectory_csv(traj))
    return 0


def _cmd_lin(config: ScenarioConfig, out: str) -> int:
    quad, _, loading = linear_column(config.model(), config.mesh(), config.loading())
    traj = run_evolution(quad, config.lin_initial(), loading, config.grid())
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
        "--tau-list" if tau_list else "tau_list",
    )
    for tau, traj in trajs.items():
        _atomic_write(os.path.join(out, f"tau_{_fmt(tau)}.csv"), trajectory_csv(traj))
    payload = _report_payload(config, [report])
    _atomic_write(os.path.join(out, "sweep_tau.json"), _json_dump(payload))
    return _emit_failures([report])


def _cmd_sweep_eps(config: ScenarioConfig, out: str, eps_list) -> int:
    lin_traj, trajs, report = analysis.eps_sweep(
        config.model(),
        config.mesh(),
        config.lin_initial(),
        config.loading(),
        config.grid(),
        eps_list or config.eps_list,
        "--eps-list" if eps_list else "eps_list",
    )
    _atomic_write(os.path.join(out, "eps_lin.csv"), lin_trajectory_csv(lin_traj))
    for e, traj in trajs.items():
        _atomic_write(os.path.join(out, f"eps_{_fmt(e)}.csv"), trajectory_csv(traj))
    payload = _report_payload(config, [report])
    _atomic_write(os.path.join(out, "sweep_eps.json"), _json_dump(payload))
    return _emit_failures([report])


def _cmd_densities(config: ScenarioConfig, out: str) -> int:
    report = analysis.density_convergence(config.model(), config.eps_list, name="eps_list")
    gaps = report.params["gaps"]
    columns = (report.params["epsilon_list"], gaps["el"], gaps["vi"], gaps["psi"])
    table = _csv_table("eps,gap_el,gap_vi,gap_psi", columns)
    _atomic_write(os.path.join(out, "densities.csv"), table)
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


COMMANDS = (
    ("run", "single finite-strain trajectory to run.csv"),
    ("lin", "linearized trajectory to lin.csv"),
    ("sweep-tau", "tau refinement with exact-flow oracle rates"),
    ("sweep-eps", "linearization study across epsilon"),
    ("verify", "run the configured checks to verify.json"),
    ("densities", "rescaled-density convergence table"),
)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is a positional choice, and
    the options of all commands sit beside it (:func:`main` refuses a list
    option on a command that does not take it)."""
    parser = argparse.ArgumentParser(
        prog="visco-pt",
        description="Incremental-minimization solver for a finite-strain viscoelastic\n"
        "column, with a linearized companion and a verification harness.",
        epilog="commands:\n" + "".join(f"  {n:<11}{h}\n" for n, h in COMMANDS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=[name for name, _ in COMMANDS], metavar="command",
        help="one of the commands below",
    )
    parser.add_argument("--config", required=True, help="scenario config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tau-list", default=None, help="override tau values (sweep-tau)")
    parser.add_argument("--eps-list", default=None, help="override eps values (sweep-eps)")
    parser.add_argument("--version", action="version", version=__version__)
    # Parsed and ignored; ROADMAP item 1 removes it with the benchmark's use.
    parser.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value, command in (
        ("--tau-list", args.tau_list, "sweep-tau"),
        ("--eps-list", args.eps_list, "sweep-eps"),
    ):
        if value is not None and args.command != command:
            parser.error(f"{flag} is accepted only by {command}")
    try:
        config = load_config(args.config)
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
    except (ViscoPTError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
