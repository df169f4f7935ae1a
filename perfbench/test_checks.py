"""Tests of the benchmark's own checks and tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py

Each check must accept the program's real output and reject a broken one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from visco_pt import cli  # noqa: E402


def config(stem):
    return os.path.join(ROOT, "configs", stem + ".cfg")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of the commands the checks judge, written once."""
    base = tmp_path_factory.mktemp("outputs")
    made = {}
    for command, stem in (("run", "mp_relax"), ("run", "mp_loaded"), ("run", "shear_quartic"),
                          ("sweep-tau", "mp_relax"), ("sweep-eps", "eps_quartic"),
                          ("sweep-eps", "eps_quadratic")):
        out = str(base / f"{command}_{stem}")
        assert cli.main([command, "--config", config(stem), "--out", out]) == 0
        made[command, stem] = out
    return made


@pytest.fixture
def copy_of(outputs, tmp_path):
    def copy(command, stem):
        dest = str(tmp_path / f"{command}_{stem}")
        shutil.copytree(outputs[command, stem], dest)
        return dest
    return copy


def edit_csv(path, row, column, change):
    """Rewrites one value of a trajectory CSV."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    k = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[k] = repr(change(float(cells[k])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("command, stem", [
    ("run", "mp_relax"), ("run", "mp_loaded"), ("run", "shear_quartic"),
    ("sweep-tau", "mp_relax"), ("sweep-eps", "eps_quartic"), ("sweep-eps", "eps_quadratic"),
])
def test_program_output_passes(outputs, command, stem):
    assert checks.CHECKS[command](outputs[command, stem], checks.read_config(config(stem))) == []


@pytest.mark.parametrize("column, change, message", [
    ("F_vi", lambda x: x + 1e-7, "W_vi"),
    ("W_el", lambda x: x + 1e-9, "W_el"),
    ("diss_inc", lambda x: x * 1.001, "delta"),
    ("delta", lambda x: x + 1e-9, "delta"),
    ("ineq_residual", lambda x: -1e-6, "ineq_residual"),
])
def test_broken_run_csv_is_rejected(copy_of, column, change, message):
    out = copy_of("run", "mp_loaded")
    edit_csv(os.path.join(out, "run.csv"), 100, column, change)
    fails = checks.check_run(out, checks.read_config(config("mp_loaded")))
    assert any(message in f for f in fails), fails


def test_perturbed_step_fails_stationarity_and_stay_put():
    """A consistent ledger around a state that is not the step's minimizer."""
    cfg = checks.read_config(config("mp_relax"))
    times = checks.grid_times(3.0, 3)
    F = np.array([1.5, 1.5, 1.5, 1.5])  # never moves: the viscous force is not balanced
    rows = {"t": times, "F": F, "F_vi": F.copy()}
    w_vi = 0.5 * (F - 1.0) ** 2
    zeros = np.zeros(4)
    rows.update(W_el=zeros, W_vi=w_vi, load_work=zeros, E_total=w_vi, diss_inc=zeros,
                delta=zeros, ineq_residual=w_vi[0] - w_vi)
    assert checks.check_ledger(rows) == []
    fails = checks.check_material_point(rows, cfg, [0.0], times)
    assert any("not stationary" in f for f in fails), fails
    rows["F_vi"] = np.array([1.5, 1.6, 1.6, 1.6])  # moves away from the minimum
    fails = checks.check_material_point(rows, cfg, [0.0], times)
    assert any("worse than staying put" in f for f in fails), fails


def test_viscous_flow_matches_an_independent_integration():
    times = np.linspace(0.0, 3.0, 31)
    ref = solve_ivp(lambda t, f: -f * f * (f - 1.0), (0.0, 3.0), [1.5], method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-15).y[0]
    assert np.max(np.abs(checks.viscous_flow(1.5, 1.0, times) - ref)) < 1e-11


def test_tau_sweep_order():
    taus = [0.1, 0.05, 0.025, 0.0125]
    assert checks.judge_tau_sweep(taus, [0.065 * t for t in taus]) == []
    assert any("order" in f for f in checks.judge_tau_sweep(taus, [0.02 * t**0.5 for t in taus]))
    assert any("does not fall" in f for f in checks.judge_tau_sweep(taus, [1e-3, 5e-4, 6e-4, 1e-4]))


def test_tau_sweep_with_shifted_trajectory_is_rejected(outputs):
    """Errors that stop falling, as from a coarse oracle or a wrong scheme."""
    cfg = checks.read_config(config("mp_relax"))
    files = checks._sweep_files(outputs["sweep-tau", "mp_relax"], "tau", cfg["tau_list"])
    sweep = {tau: checks.read_csv(path) for tau, path in files.items()}
    taus, errors = checks.tau_sweep_errors(sweep, lambda t: checks.viscous_flow(1.5, 1.0, t))
    assert checks.judge_tau_sweep(taus, errors) == []
    taus, errors = checks.tau_sweep_errors(sweep, lambda t: checks.viscous_flow(1.5, 1.0, t) + 2e-3)
    assert checks.judge_tau_sweep(taus, errors) != []


def test_eps_sweep_gaps():
    eps = [0.2, 0.1, 0.05]
    falling = [(8e-3, 1.3e-3), (4e-3, 6.8e-4), (2e-3, 3.4e-4)]
    assert checks.judge_eps_sweep(eps, falling, at_floor=False) == []
    flat = [(8e-3, 1.3e-3), (8e-3, 6.8e-4), (2e-3, 3.4e-4)]
    assert any("does not fall" in f for f in checks.judge_eps_sweep(eps, flat, at_floor=False))
    assert checks.judge_eps_sweep(eps, [(2e-14, 2e-14)] * 3, at_floor=True) == []
    assert any("above" in f for f in checks.judge_eps_sweep(eps, falling, at_floor=True))


def test_eps_csv_off_the_linearized_run_is_rejected(copy_of):
    """Quadratic shear: one row of the smallest eps run leaves the linearized run."""
    out = copy_of("sweep-eps", "eps_quadratic")
    path = [p for p in os.listdir(out) if p.startswith("eps_0.05")][0]
    edit_csv(os.path.join(out, path), 500, "F", lambda x: x + 1e-6)
    fails = checks.check_sweep_eps(out, checks.read_config(config("eps_quadratic")))
    assert any("above" in f for f in fails), fails


def test_missing_sweep_file_is_rejected(copy_of):
    out = copy_of("sweep-tau", "mp_relax")
    os.remove(os.path.join(out, sorted(os.listdir(out))[0]))
    assert checks.check_sweep_tau(out, checks.read_config(config("mp_relax"))) != []


def test_failing_report_is_rejected(tmp_path):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"pass": True, "checks": [{"check": "energy_inequality_one", "pass": False}]}))
    assert checks.check_report(str(path)) != []
    path.write_text(json.dumps({"pass": True, "checks": [{"check": "energy_inequality_one", "pass": True}]}))
    assert checks.check_report(str(path)) == []


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(1, 0, 1, "p", 0, 100, None)
    kids = [spans.Span(2, 1, 2, "c", 10, 60, None), spans.Span(3, 1, 3, "c", 40, 80, None),
            spans.Span(4, 1, 1, "c", 90, 120, None)]
    assert spans._covered(parent, kids) == 80


def test_missing_function_is_reported_absent(monkeypatch):
    from visco_pt import analysis
    monkeypatch.delattr(analysis, "semistability_sweep")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "analysis.semistability_sweep" in tracer.absent
    assert not hasattr(analysis, "semistability_sweep")


def test_rescaled_time_follows_the_reference_speed(monkeypatch):
    """A reference that takes twice its nominal time means a host at half
    speed, so the rescaled time is half the raw time."""
    monkeypatch.setattr(speed, "time_reference", lambda: 2 * speed.REF_S)
    sampler = speed.Sampler()
    sampler._sample()
    mark = sampler.mark()
    sum(range(200000))
    sampler._sample()
    raw, rescaled = sampler.since(mark)
    assert raw > 0
    assert rescaled == pytest.approx(raw / 2, rel=1e-12)


def bench(workload, cwd=ROOT, trace=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", ["mp-verify", "shear-verify", "sweeps"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = bench(workload)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in spans.COUNT_UNITS}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["stepper.steps"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench("shear-verify", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("shear-verify", cwd=str(tmp_path), trace=0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
