"""Command-line interface: config parsing, subcommand outputs, exit codes,
and byte-level determinism of the JSON reports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from visco_pt import ConfigParseError, ValidationError, analysis, cli, parse_config
from visco_pt.cli import main

MINIMAL = "mode = mp\nT = 3\nN = 300\nF_vi0 = 1.5\n"

RELAX_SMALL = """\
mode = mp
t_final = 1.0
n_steps = 20
F_vi0 = 1.5
"""

SHEAR_SMALL = """\
mode = shear
t_final = 0.5
n_steps = 10
n_elements = 8
v0_slope = 0.4
load_f = 0.0 0.2
load_g = 0.1
"""


REPO = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing ---------------------------------------------------------------


def test_parse_minimal_config_with_aliases():
    config = parse_config(MINIMAL)
    assert config.mode == "material_point"
    assert config.t_final == 3.0
    assert config.n_steps == 300
    assert config.F_vi0 == 1.5
    assert (config.c_e, config.c_v, config.d_v, config.p_psi) == (1, 1, 1, 2)


def test_parse_unknown_key_is_named():
    for key in ("tua", "armijo_c", "backtrack_factor"):
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = 0.1\n")


def test_parse_removed_probe_keys_are_unknown():
    for key in ("n_probes", "amplitudes", "stride", "seed"):
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = 1\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config(MINIMAL + "t_final = 4\n")


def test_parse_empty_value_and_bad_line():
    with pytest.raises(ConfigParseError):
        parse_config("mode = mp\nt_final =\nn_steps = 10\n")
    with pytest.raises(ConfigParseError, match="line 2"):
        parse_config("mode = mp\nwhat is this\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("c_e", "0"),
        ("c_v", "-1"),
        ("d_v", "nan"),
        ("k_radius", "inf"),
        ("a4", "-1"),
        ("a4", "inf"),
        ("p_psi", "1.5"),
        ("p_psi", "inf"),
        ("t_final", "0"),
        ("n_steps", "0"),
        ("n_elements", "0"),
        ("grad_tol", "0"),
        ("grad_tol", "nan"),
        ("grad_tol", "inf"),
        ("max_iter", "0"),
        ("load_f", "nan"),
    ],
)
def test_parse_names_the_key_of_an_out_of_range_value(key, value):
    # The objects the config builds check the ranges; the message names the key.
    keys = {"mode": "mp", "t_final": "3", "n_steps": "300", "F_vi0": "1.5", key: value}
    with pytest.raises(ValidationError, match=key):
        parse_config("".join(f"{k} = {v}\n" for k, v in keys.items()))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("tau_list", "0", "tau_list entries must be positive and finite"),
        ("tau_list", "0.1", "need at least two tau values"),
        ("mono_tau_list", "0.5 0.1", "mono_tau_list must be nondecreasing"),
        ("eps_list", "0.1 -0.05", "eps_list entries must be positive and finite"),
    ],
)
def test_list_keys_reach_the_validator_of_their_check(tmp_path, capsys, key, value, message):
    # The config parse and the command-line overrides share one validator per
    # list: analysis.tau_values, substep_values and eps_values.
    with pytest.raises(ValidationError, match=message):
        parse_config(MINIMAL + f"{key} = {value}\n")
    cfg = write(tmp_path, "bad.cfg", MINIMAL + f"{key} = {value}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_tau_list_override_of_zero_exits_1(tmp_path, capsys):
    cfg = str(REPO / "configs" / "mp_relax.cfg")
    argv = ["sweep-tau", "--config", cfg, "--out", str(tmp_path), "--tau-list", "0"]
    assert main(argv) == 1
    assert "error: tau_list entries must be positive and finite" in capsys.readouterr().err
    # The override is validated before the model or the state is looked at.
    with pytest.raises(ValidationError, match="positive and finite"):
        analysis.tau_sweep(None, None, None, 3.0, [0.0])


def test_zero_steps_is_a_validation_error():
    with pytest.raises(ValidationError):
        parse_config("mode = mp\nT = 3\nN = 0\nF_vi0 = 1.5\n")


# -- run / lin outputs ---------------------------------------------------------------


def test_run_writes_monotone_trajectory(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "run.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "F", "F_vi"]
    assert len(lines) == 1 + 21  # header + N + 1 states
    f_vi = np.array([float(row.split(",")[2]) for row in lines[1:]])
    assert np.all(np.diff(f_vi) < 0.0)


def test_lin_writes_flag_column(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL + "v0 = 0.5\n")
    out = tmp_path / "out"
    assert main(["lin", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "lin.csv").read_text().strip().splitlines()
    assert lines[0].endswith(",lin")
    assert all(row.endswith(",1") for row in lines[1:])
    assert len(lines) == 1 + 21


def count_calls(monkeypatch, modules, name):
    """Counts the calls made through ``name`` in each of ``modules``."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_trajectory_csv_makes_no_stored_energy_calls(monkeypatch):
    from visco_pt import domain, run_evolution, stepper

    config = parse_config(RELAX_SMALL)
    traj = run_evolution(
        config.model(), config.initial_state(), config.loading(), config.grid()
    )
    calls = count_calls(monkeypatch, (domain, stepper, cli), "stored_energies")
    rows = cli.trajectory_csv(traj).strip().splitlines()[1:]
    # every row reads the energies the trajectory carries
    assert len(rows) == len(traj.states)
    assert calls == []


@pytest.mark.parametrize("text", [RELAX_SMALL, SHEAR_SMALL])
def test_run_and_csv_evaluate_each_state_once(monkeypatch, text):
    # The stored energies of a state come from stored_energies (the initial
    # state), dof_stored_energies (a shear step) or the kernel, which
    # returns them with the minimizer (a material-point step): one of these
    # per state, and none from the CSV.
    from visco_pt import domain, kernels, run_evolution, stepper

    config = parse_config(text)
    state0 = config.initial_state()
    calls = count_calls(monkeypatch, (domain, stepper, cli), "stored_energies")
    steps = count_calls(monkeypatch, (stepper,), "dof_stored_energies")
    solves = count_calls(monkeypatch, (kernels,), "mp_minimize")
    traj = run_evolution(config.model(), state0, config.loading(), config.grid())
    cli.trajectory_csv(traj)
    assert len(calls) + len(steps) + len(solves) == config.n_steps + 1


def test_sweep_eps_formats_through_the_public_csv_functions(monkeypatch, tmp_path):
    # The CSV layer is timed at these two names; the command must call them.
    finite = count_calls(monkeypatch, (cli,), "trajectory_csv")
    lin = count_calls(monkeypatch, (cli,), "lin_trajectory_csv")
    cfg = write(tmp_path, "shear.cfg", SHEAR_SMALL + "eps_list = 0.2 0.1 0.05\n")
    assert main(["sweep-eps", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (len(finite), len(lin)) == (3, 1)


# -- verify -----------------------------------------------------------------------


def test_verify_passes_and_is_byte_identical(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    blob1 = (out1 / "verify.json").read_bytes()
    blob2 = (out2 / "verify.json").read_bytes()
    assert blob1 == blob2
    payload = json.loads(blob1)
    assert payload["pass"] is True
    assert payload["tool"]["name"] == "visco-pt"
    names = [c["check"] for c in payload["checks"]]
    assert names == [
        "energy_inequality_one",
        "energy_inequality_p_psi",
        "semistability",
        "monotonicity",
        "density_convergence",
    ]


def test_verify_ignores_the_seed_option(tmp_path):
    # No check draws random numbers; --seed is still parsed, and changes nothing.
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    blob = (out1 / "verify.json").read_bytes()
    assert (out2 / "verify.json").read_bytes() == blob
    assert "seed" not in json.loads(blob)["config"]


def test_verify_reports_where_semistability_is_worst(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL + "checks = semistability\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    (report,) = json.loads((out / "verify.json").read_text())["checks"]
    assert report["residuals"] == [0.0] * 21
    assert report["params"]["times_checked"] == 21
    assert report["params"]["worst_step_index"] == 0
    assert 0.0 <= report["params"]["max_stress_residual"] <= 1e-15


def test_seed_option_is_hidden(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--seed" not in capsys.readouterr().out


def test_verify_failure_exits_2_and_names_the_check(tmp_path, capsys):
    # start far from elastic equilibrium without equilibration: the t = 0
    # state lies above its elastic minimizer
    cfg = write(
        tmp_path,
        "bad.cfg",
        "mode = mp\nt_final = 1.0\nn_steps = 10\nF_vi0 = 1.0\nF0 = 2.0\n"
        "init_elastic = direct\nchecks = semistability\n",
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "check failed: semistability (min residual" in err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["pass"] is False


@pytest.mark.parametrize("key", ["c_e", "d_v"])
def test_verify_passes_on_shear_quartic_with_a_large_coefficient(tmp_path, key):
    # Scaled by 1e6, the element problems stay scalar and exact, and the
    # rounding of the quadratic densities is no density gap.
    text = (REPO / "configs" / "shear_quartic.cfg").read_text()
    assert f"\n{key} = 1.0\n" in text
    scaled = text.replace(f"\n{key} = 1.0\n", f"\n{key} = 1e6\n")
    cfg = write(tmp_path, "scaled.cfg", scaled)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "verify.json").read_text())["pass"] is True


def test_verify_passes_on_mp_relax_with_a_large_dissipation_coefficient(tmp_path):
    # d_v = 1e6 scales the objective by 1e6 / tau: the closed-form step does
    # not depend on an absolute gradient tolerance.
    text = (REPO / "configs" / "mp_relax.cfg").read_text()
    assert "\nd_v = 1.0\n" in text
    cfg = write(tmp_path, "scaled.cfg", text.replace("\nd_v = 1.0\n", "\nd_v = 1e6\n"))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "verify.json").read_text())["pass"] is True


def test_missing_required_key_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "broken.cfg", "mode = mp\nn_steps = 10\nF_vi0 = 1.5\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "t_final" in err


def test_unsolved_step_exits_1_and_names_the_step(tmp_path, capsys):
    # quartic elasticity under load needs more than one Newton iteration
    cfg = write(
        tmp_path,
        "tight.cfg",
        RELAX_SMALL + "a4 = 1.0\np_psi = 2.5\nload_f = 0.2\nmax_iter = 1\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 not solved: max_iter_exceeded at |grad|_inf")
    assert not (out / "run.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


# -- sweeps and densities --------------------------------------------------------


def test_sweep_tau_with_list_override(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out = tmp_path / "out"
    code = main(
        [
            "sweep-tau",
            "--config", cfg,
            "--out", str(out),
            "--tau-list", "0.1 0.05 0.025",
        ]
    )
    assert code == 0
    csvs = sorted(p.name for p in out.glob("tau_*.csv"))
    assert len(csvs) == 3
    payload = json.loads((out / "sweep_tau.json").read_text())
    order = payload["checks"][0]["rates"]["order"]
    assert order == pytest.approx(1.0, abs=0.3)


def test_sweep_eps_outputs(tmp_path):
    cfg = write(tmp_path, "shear.cfg", SHEAR_SMALL + "eps_list = 0.2 0.1\n")
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "eps_lin.csv").exists()
    assert len(list(out.glob("eps_0*.csv"))) == 2
    payload = json.loads((out / "sweep_eps.json").read_text())
    assert payload["checks"][0]["check"] == "epsilon_study"
    assert payload["pass"] is True


@pytest.mark.parametrize(
    "command, config, flag, values, message",
    [
        ("sweep-tau", "mp_relax", "--tau-list", "0.07 0.05", "does not divide"),
        ("sweep-tau", "mp_relax", "--tau-list", "abc", "--tau-list"),
        ("sweep-tau", "mp_relax", "--tau-list", "0 0.1", "positive"),
        ("sweep-eps", "eps_quartic", "--eps-list", "0.05 0.1", "strictly decreasing"),
        ("sweep-tau", "shear_quadratic", "--tau-list", "0.1 0.05",
         "ode_rk4 oracle requires a zero-load material point"),
    ],
)
def test_bad_sweep_list_exits_1_before_any_trajectory(
    tmp_path, capsys, command, config, flag, values, message
):
    cfg = str(REPO / "configs" / f"{config}.cfg")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), flag, values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert list(out.glob("*.csv")) == []


@pytest.fixture
def solver_calls(monkeypatch):
    """Records ``(grid step, loading)`` of every finite-strain run and
    ``"lin"`` for every linearized run that the command line or the analysis
    layer starts."""
    calls = []
    for module in (analysis, cli):
        evolve, lin_evolve = module.run_evolution, module.run_lin_evolution

        def run_evolution(model, state0, loading, grid, *args, _run=evolve, **kw):
            calls.append((grid.tau, loading))
            return _run(model, state0, loading, grid, *args, **kw)

        def run_lin_evolution(*args, _run=lin_evolve, **kw):
            calls.append("lin")
            return _run(*args, **kw)

        monkeypatch.setattr(module, "run_evolution", run_evolution)
        monkeypatch.setattr(module, "run_lin_evolution", run_lin_evolution)
    return calls


def test_sweep_tau_runs_each_trajectory_once(tmp_path, solver_calls):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out = tmp_path / "out"
    tau_list = ["--tau-list", "0.1 0.05 0.05 0.025"]
    assert main(["sweep-tau", "--config", cfg, "--out", str(out)] + tau_list) == 0
    assert sorted(tau for tau, _ in solver_calls) == pytest.approx([0.025, 0.05, 0.1])
    assert len(list(out.glob("tau_*.csv"))) == 3


def test_sweep_eps_runs_each_trajectory_once(tmp_path, solver_calls):
    cfg = write(tmp_path, "shear.cfg", SHEAR_SMALL + "eps_list = 0.2 0.1 0.05\n")
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
    assert solver_calls.count("lin") == 1
    finite = [call for call in solver_calls if call != "lin"]
    # load_g = 0.1, scaled by each eps in turn
    assert [loading.g_coeffs[0] for _, loading in finite] == pytest.approx(
        [0.02, 0.01, 0.005]
    )
    assert len(list(out.glob("eps_0*.csv"))) == 3


def test_densities_outputs(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL + "a4 = 1.0\n")
    out = tmp_path / "out"
    assert main(["densities", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "densities.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,gap_el,gap_vi,gap_psi"
    assert len(lines) == 4  # default eps list has three entries
    payload = json.loads((out / "densities.json").read_text())
    assert payload["pass"] is True


def test_no_temp_files_left_behind(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    leftovers = [p for p in out.iterdir() if p.suffix not in (".csv", ".json")]
    assert leftovers == []


# -- options ----------------------------------------------------------------------


def test_the_command_line_does_not_import_scipy():
    # The runtime needs only numpy; scipy is a test dependency.
    probe = "import sys, visco_pt.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_no_source_file_reads_the_environment():
    # Every option is a config key or a CLI flag; an environment switch
    # would change results without showing up in either.
    readers = [
        path.name
        for path in sorted((REPO / "src" / "visco_pt").glob("*.py"))
        if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
    ]
    assert readers == []
