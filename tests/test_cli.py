"""Command-line interface: config parsing, command outputs, exit codes,
and byte-level determinism of the JSON reports."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import visco_pt
from visco_pt import (
    ConfigParseError, ScenarioConfig, State, ValidationError, analysis, cli, kernels,
    parse_config,
)
from visco_pt.cli import main

from test_stepper import counted_inversions, march_load_by_load

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
v0 = 0.4
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


def test_parse_removed_initial_data_keys_are_unknown():
    # A given u0 is the elastic start as it is (F = 1 + u0), so neither a
    # second spelling of F nor a switch to take it as given is a key; u0 and
    # v0 are the initial data of the shear column too (gamma' = u0, beta' = v0).
    for key, value in (
        ("F0", "2.0"), ("init_elastic", "direct"), ("u0_slope", "0.5"), ("v0_slope", "0.4")
    ):
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = {value}\n")


@pytest.mark.parametrize(
    "key, value", [("grad_tol", "0"), ("grad_tol", "nan"), ("grad_tol", "inf"), ("max_iter", "0")]
)
def test_parse_removed_solver_keys_are_unknown(key, value):
    # The Newton stopping rule is a constant of the kernels, not of a scenario.
    with pytest.raises(ConfigParseError, match=f"unknown key '{key}'"):
        parse_config(MINIMAL + f"{key} = {value}\n")


def test_readme_names_every_config_key_and_no_removed_one():
    # README "Configuration files" documents each field of ScenarioConfig as
    # a key, in backticks or as a line of its example, and no key that was
    # removed from the format.
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]

    def named(key):
        return re.search(rf"`{key}[` ]|^\s*#?\s*{key} =", section, re.M) is not None

    assert [f.name for f in fields(ScenarioConfig) if not named(f.name)] == []
    removed = ("F0", "init_elastic", "u0_slope", "v0_slope", "grad_tol", "max_iter")
    assert [key for key in removed if named(key)] == []


def test_public_names_resolve_once_and_no_removed_one():
    # visco_pt.__all__ names each export once, each resolves, and no name
    # removed from the API is exported again.
    names = visco_pt.__all__
    assert [name for name in names if not hasattr(visco_pt, name)] == []
    assert sorted(set(names)) == sorted(names)
    removed = (
        "LinState", "LinTrajectory", "lin_equilibrium", "lin_el_residual",
        "run_lin_evolution", "QuadraticLimit", "MinimizeSettings",
    )
    assert [name for name in removed if name in names or hasattr(visco_pt, name)] == []


def test_shear_column_starts_from_v0_in_every_element():
    # v0 is the viscous datum of both geometries: beta' = v0 = 0.4 in each
    # element of the finite-strain start, v' = 0.4 in the linearized one.
    config = parse_config(SHEAR_SMALL)
    assert config.initial_state().beta.tolist() == [0.4] * 8
    assert config.lin_initial().beta.tolist() == [0.4] * 8


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "v0 = 0.5\n", "F_vi0 and v0 give one datum"),
        (SHEAR_SMALL + "F_vi0 = 1.5\n", "F_vi0 is a material-point key"),
    ],
)
def test_parse_refuses_initial_data_it_would_ignore(tmp_path, capsys, text, message):
    # One datum has one key, and neither geometry drops the other's keys.
    with pytest.raises(ValidationError, match=message):
        parse_config(text)
    cfg = write(tmp_path, "mixed.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_parse_duplicate_key():
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config(MINIMAL + "t_final = 4\n")


def test_parse_refuses_a_check_listed_twice(tmp_path, capsys):
    # A check runs once; listed twice it would write two identical reports.
    text = MINIMAL + "checks = energy_one semistability energy_one\n"
    with pytest.raises(ValidationError, match="duplicate check 'energy_one'"):
        parse_config(text)
    cfg = write(tmp_path, "twice.cfg", text)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: duplicate check 'energy_one'\n"
    assert not (tmp_path / "out").exists()


def test_parse_refuses_n_elements_at_a_material_point(tmp_path, capsys):
    # A material point has no mesh, so n_elements would be ignored; the shear
    # column takes 16 elements unless it is given.
    message = "n_elements is a shear-column key; a material point has no mesh"
    with pytest.raises(ValidationError, match=message):
        parse_config(MINIMAL + "n_elements = 3\n")
    cfg = write(tmp_path, "mp.cfg", MINIMAL + "n_elements = 3\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert parse_config(MINIMAL).n_elements is None
    shear = parse_config(SHEAR_SMALL.replace("n_elements = 8\n", ""))
    assert shear.n_elements is None and shear.mesh().n_elements == 16
    assert len(shear.initial_state().beta) == 16


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
        ("mono_tau_list", "0.5", "mono_tau_list needs at least two substeps"),
        ("mono_tau_list", "0.5 0.5", "mono_tau_list needs at least two substeps to compare, distinct"),
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


@pytest.mark.parametrize("command", ["densities", "verify"])
@pytest.mark.parametrize(
    "eps_list, square",
    [
        ("1e200 0.1", "1e+200 squares to inf"),
        ("1e-200", "1e-200 squares to 0.0"),
        ("1.5e-154 0.1", "1.5e-154 times the probe 0.04999999999999993 squares to 5.625e-311"),
    ],
)
def test_eps_whose_square_is_not_a_normal_float_exits_1(
    tmp_path, capsys, command, eps_list, square
):
    # The rescaled densities divide by eps^2, which must neither overflow (a
    # bare OverflowError from eps**2) nor underflow (NaN gaps), and square
    # eps a, which must not be subnormal for the smallest probe |a| = 0.05
    # (density_convergence failed at -1.81): exit 1, named.
    cfg = write(tmp_path, "eps.cfg", MINIMAL + f"eps_list = {eps_list}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: eps_list entry {square}, not a positive normal float\n"


@pytest.mark.parametrize(
    "argv, name", [(["verify"], "eps_list"), (["sweep-eps", "--eps-list", "0.1 0.2"], "--eps-list")]
)
def test_increasing_eps_list_is_named_as_written(tmp_path, capsys, argv, name):
    # An epsilon study needs a strictly decreasing list, and the error names
    # the config key or the flag that gave it (it named epsilon_list, a key
    # no config has). The config gives the list only where it is used: a
    # listed check refuses its list on parse, whatever the command.
    given = "eps_list = 0.1 0.2\n" if argv[0] == "verify" else ""
    cfg = write(tmp_path, "eps.cfg", MINIMAL + "checks = epsilon_study\n" + given)
    assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "out"), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {name} must be strictly decreasing\n"


@pytest.mark.parametrize(
    "command, stem, eps, code",
    [
        ("sweep-eps", "eps_quartic", "4e-08", 0),
        ("sweep-eps", "eps_quartic", "3e-08", 1),
        ("verify", "eps_quartic", "4e-08", 0),
        ("verify", "eps_quartic", "3e-08", 1),
        ("sweep-eps", "eps_quadratic", "1.5e-154", 0),
    ],
)
def test_material_point_eps_study_refuses_eps_below_its_rounding(
    tmp_path, capsys, command, stem, eps, code
):
    # A rescaled material-point dof (F - 1) / eps carries the rounding of F,
    # RESOLUTION = 16 ulp(1), divided by eps: above the study's floor 1e-7
    # for eps < 3.55e-8 (at 3e-8 epsilon_study failed with -0.024). A shear
    # column compares slopes that carry no offset of 1.
    text = (REPO / "configs" / f"{stem}.cfg").read_text()
    assert "\neps_list = 0.2 0.1 0.05\n" in text
    if command == "verify":
        text = text.replace("\neps_list = 0.2 0.1 0.05\n", f"\neps_list = 0.1 {eps}\n")
        argv, name = [], "eps_list"
    else:
        argv, name = ["--eps-list", f"0.1 {eps}"], "--eps-list"
    cfg = write(tmp_path, "eps.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"error: {name} entry {eps} is below 3.55e-08: ")
        assert list(out.glob("*")) == []
    else:
        assert err == ""


@pytest.mark.parametrize(
    "stem, edits, message",
    [
        ("mp_relax", {"tau_list": "0.07 0.035"}, "tau=0.07 does not divide t_final=3.0"),
        ("shear_quadratic", {"checks": "energy_one tau_convergence"},
         "the exact-flow oracle requires a zero-load material point"),
        ("eps_quartic",
         {"checks": "energy_one energy_sharp semistability epsilon_study",
          "eps_list": "0.1 3e-8"},
         "eps_list entry 3e-08 is below 3.55e-08: "),
        ("eps_quartic", {"eps_list": "0.1 0.2"}, "eps_list must be strictly decreasing"),
        ("mp_relax", {"eps_list": "0.1 1.5e-154"}, "eps_list entry 1.5e-154 times the probe"),
    ],
)
def test_verify_refuses_a_listed_checks_parameters_on_parse(
    tmp_path, capsys, monkeypatch, stem, edits, message
):
    # What a listed check would refuse before its work is refused when the
    # config is read, with the check's own message, before any trajectory.
    text = (REPO / "configs" / f"{stem}.cfg").read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        text += "" if count else f"{key} = {value}\n"
    cfg = write(tmp_path, "listed.cfg", text)
    runs = count_calls(monkeypatch, (cli, analysis), "run_evolution")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert runs == []
    assert not out.exists()


def test_tau_list_override_of_zero_exits_1(tmp_path, capsys):
    cfg = str(REPO / "configs" / "mp_relax.cfg")
    argv = ["sweep-tau", "--config", cfg, "--out", str(tmp_path), "--tau-list", "0"]
    assert main(argv) == 1
    assert "error: --tau-list entries must be positive and finite" in capsys.readouterr().err
    # The override is validated before the model or the loading is looked at.
    with pytest.raises(ValidationError, match="positive and finite"):
        analysis.tau_sweep(None, State.material_point(1.5, 1.5), None, 3.0, [0.0])


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


def test_run_starts_a_material_point_from_u0_and_v0(tmp_path):
    # eps_quartic gives u0 and v0 but no F_vi0: a run starts where the
    # epsilon study starts at eps = 1, from (F, F_vi) = (1 + u0, 1 + v0).
    out = tmp_path / "out"
    cfg = str(REPO / "configs" / "eps_quartic.cfg")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "run.csv").read_text().splitlines()[1].split(",")
    assert (float(first[1]), float(first[2])) == (1.3, 1.2)


def test_shear_run_starts_from_a_given_u0_as_lin_does(tmp_path):
    # A given u0 is the elastic start of every run: gamma' = 0.5 in each of
    # the 8 elements gives F = 1 + h * 4 = 1.5 and u = 0.5 at t = 0
    # (equilibrating the start would give F = 1.6000000000000001).
    cfg = write(
        tmp_path, "slope.cfg",
        (REPO / "configs" / "eps_quadratic.cfg").read_text() + "u0 = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["lin", "--config", cfg, "--out", str(out)]) == 0
    run_row = (out / "run.csv").read_text().splitlines()[1].split(",")
    lin_row = (out / "lin.csv").read_text().splitlines()[1].split(",")
    assert (float(run_row[1]), float(lin_row[1])) == (1.5, 0.5)


def test_material_point_run_without_viscous_data_is_a_validation_error():
    config = parse_config("mode = mp\nT = 1\nN = 10\nu0 = 0.3\n")
    with pytest.raises(ValidationError, match="requires F_vi0 or v0"):
        config.initial_state()


def test_lin_writes_flag_column(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
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
    # The stored energies of a state are priced once, the initial state's
    # with the steps', in the one array pass after the march: w_el sees the
    # elastic strains of every state in one call. The CSV prices none.
    from visco_pt import MaterialModel, run_evolution

    config = parse_config(text)
    state0 = config.initial_state()
    strains, w_el = [], MaterialModel.w_el

    def counted(self, s):
        strains.append(np.size(s))
        return w_el(self, s)

    monkeypatch.setattr(MaterialModel, "w_el", counted)
    marches = march_load_by_load(monkeypatch)
    traj = run_evolution(config.model(), state0, config.loading(), config.grid())
    assert strains == [(config.n_steps + 1) * len(state0.gamma)]
    strains.clear()
    marches.clear()
    cli.trajectory_csv(traj)
    assert (strains, marches) == ([], [])


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
    # -h lists every command and option but the ignored --seed.
    for argv in (["-h"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" not in out
        for name in ("run", "lin", "sweep-tau", "sweep-eps", "verify", "densities"):
            assert re.search(rf"^  {name} +\S", out, re.MULTILINE), name
        for flag in ("--config", "--out", "--tau-list", "--eps-list", "--version"):
            assert flag in out


def test_verify_failure_exits_2_and_names_the_check(tmp_path, capsys):
    # a given u0 = 1 starts at F = 2, far from elastic equilibrium: the
    # t = 0 state lies above its elastic minimizer
    cfg = write(
        tmp_path,
        "bad.cfg",
        "mode = mp\nt_final = 1.0\nn_steps = 10\nF_vi0 = 1.0\nu0 = 1.0\n"
        "checks = semistability\n",
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


def test_unsolved_step_exits_1_and_names_the_step(tmp_path, capsys, monkeypatch):
    # quartic elasticity under load needs more than one Newton iteration
    monkeypatch.setattr(kernels, "MAX_ITER", 1)
    cfg = write(tmp_path, "tight.cfg", RELAX_SMALL + "a4 = 1.0\np_psi = 2.5\nload_f = 0.2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 not solved: max_iter_exceeded at |grad|_inf")
    assert not (out / "run.csv").exists()


def test_step_of_infinite_energy_exits_1_and_names_the_step(tmp_path, capsys):
    # A traction of 1e200 strains each element by 1e200, so W_el and the load
    # pairing overflow and the stay-put margin is NaN: no step is accepted, as
    # a material point under the same load accepts none.
    cfg = write(
        tmp_path,
        "huge.cfg",
        "mode = shear\nt_final = 1\nn_steps = 4\nn_elements = 4\nc_v = 1e300\nload_g = 1e200\n",
    )
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: step 1: incremental objective is not finite\n"
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize(
    "command, stem, inversions",
    [("run", "shear_quartic", 16), ("verify", "shear_quartic", 64), ("sweep-eps", "eps_quartic", 3003)],
)
def test_commands_invert_each_repeated_stress_once(tmp_path, monkeypatch, command, stem, inversions):
    # Under constant dead loads the stresses of a column repeat from step to
    # step, bit for bit, and are inverted once per element: 8 for the start
    # and 8 for the 30 steps of a run (248 element by element). A verify
    # builds its start once for all its checks. A material-point march
    # inverts a target only when it changes: each step's anchor repeats the
    # last iterate of the step before, so the three runs of 1,000 steps of
    # the epsilon sweep invert 1,001 times each (6,000 at two a step).
    targets = counted_inversions(monkeypatch)
    cfg = str(REPO / "configs" / f"{stem}.cfg")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(targets) == inversions


def test_step_whose_rate_overflows_exits_1_and_names_the_step(tmp_path, capsys):
    # tau = 1e-160 and p_psi = 3: Newton's first iterate moves F_vi at a rate
    # whose square overflows the float power of psi. The step fails as an
    # objective that is not finite: one error line, no traceback.
    cfg = write(
        tmp_path,
        "overflow.cfg",
        "mode = mp\nt_final = 1e-158\nn_steps = 100\np_psi = 3\nF_vi0 = 1.5\nload_f = 0.3\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: step 1: incremental objective is not finite\n"
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize(
    "flag, command",
    [("--tau-list", c) for c in ("run", "lin", "sweep-eps", "verify", "densities")]
    + [("--eps-list", c) for c in ("run", "lin", "sweep-tau", "verify", "densities")],
)
def test_list_option_on_another_command_exits_2(tmp_path, capsys, flag, command):
    cfg = str(REPO / "configs" / "mp_relax.cfg")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), flag, "0.1 0.05"])
    assert exc.value.code == 2
    assert f"error: {flag} is accepted only by " in capsys.readouterr().err
    assert not out.exists()


def test_options_may_come_before_the_command(tmp_path):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["--out", str(out2), "--config", cfg, "run"]) == 0
    assert (out2 / "run.csv").read_bytes() == (out1 / "run.csv").read_bytes()


def test_main_builds_one_argument_parser(tmp_path, monkeypatch):
    # One parser per call, none cached across calls: a subparser tree would
    # build one parser per command besides the top one.
    import argparse

    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    for _ in range(2):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert built == ["visco-pt", "visco-pt"]


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
         "exact-flow oracle requires a zero-load material point"),
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
    ``"lin"`` for every linearized run (of the quadratic limit, whose viscous
    radius is the largest float) that the command line or the analysis layer
    starts."""
    calls = []
    for module in (analysis, cli):

        def run_evolution(model, state0, loading, grid, *args, _run=module.run_evolution, **kw):
            linear = model.k_radius == sys.float_info.max
            calls.append("lin" if linear else (grid.tau, loading))
            return _run(model, state0, loading, grid, *args, **kw)

        monkeypatch.setattr(module, "run_evolution", run_evolution)
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


def test_missing_config_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.cfg" in err


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    taken = write(tmp_path, "taken", "")
    assert main(["run", "--config", cfg, "--out", taken]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    # A directory where run.csv goes: the write succeeds, the rename fails.
    cfg = write(tmp_path, "relax.cfg", RELAX_SMALL)
    out = tmp_path / "out"
    (out / "run.csv").mkdir(parents=True)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in out.iterdir()] == ["run.csv"]


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


# -- shipped outputs --------------------------------------------------------------

# sha256 of every CSV the shipped configs write, recorded from the per-step
# march before the stepper priced its ledger in arrays (the densities tables
# before the config lost its u0_slope and v0_slope keys, and the
# material-point linearized runs once they ran as one-element quadratic
# columns, which price W_vi and the dissipation as any column). The CSVs hold only
# IEEE arithmetic (no LAPACK), so they must not change by a bit; the JSON
# reports are pinned by SHIPPED_JSON_SHA256 below.
SHIPPED_CSV_SHA256 = {
    ("run", "mp_relax"): {
        "run.csv": "d80aab09bd2b0d8c76fc64459d4a2ff0006f691dd05198a8fb7b004fd2d0aa9d",
    },
    ("run", "mp_loaded"): {
        "run.csv": "fd6465de30db7d1267b0410e5e887030899ccf2f4b0ffa15b17657028b584d5a",
    },
    ("run", "shear_quadratic"): {
        "run.csv": "c97948844631333f2fd2870cc439575b322dbc369234bc9b9c670dc5504799a2",
    },
    ("run", "shear_quartic"): {
        "run.csv": "1a0a949f1858f054e3d1ccf8b9230c6e43e534ac4ace6c385eb4886a527438e0",
    },
    ("run", "eps_quadratic"): {
        "run.csv": "8b14cac2a7a058cc0f63e42a89005d04af0ba179fecd0cde54c3ba7602ce9a79",
    },
    ("run", "eps_quartic"): {
        "run.csv": "3fda3fcea930d12cf6760bb1cb838f2bee8758554e7ab4d6cf7c32a4827f4324",
    },
    ("lin", "mp_relax"): {
        "lin.csv": "70fe2d8d42309dadfe7a9da246793648a79f1f945fe2ab6784fe1803b2c14725",
    },
    ("lin", "mp_loaded"): {
        "lin.csv": "e4b5a4fdfa37caf9b4d6010911737e5ddbe10f2c79164a000e9a88307ddb5246",
    },
    ("lin", "shear_quadratic"): {
        "lin.csv": "65b0fe20e2ec7e027b1e45403cfcc72beaebeffa7779e46d998738724f7eb738",
    },
    ("lin", "shear_quartic"): {
        "lin.csv": "007aa643061eb6e7fdea950cf28d23d1a95cda526215f1a61ec44f6dad40b961",
    },
    ("lin", "eps_quadratic"): {
        "lin.csv": "93fedf55d08b3027d9a6b5878379fe14bf13ba4574cc23944a524847c4ebf21f",
    },
    ("lin", "eps_quartic"): {
        "lin.csv": "6ecad32f731fec5f971aca6b0371b0522340696c71864cdae5e6f2340b5ff7a2",
    },
    ("sweep-tau", "mp_relax"): {
        "tau_0.012500000000000001.csv": "d56131ad9bdf5afd5fcb4b64a062fac70a37478200fff620455674d80bec4e0c",
        "tau_0.025000000000000001.csv": "a18d6f23259700e23d3fd4c4e4bec4623e745dbfe489254e651f47e8bc0d694d",
        "tau_0.050000000000000003.csv": "1e0d7113c666b55ee27f0322bf446ff33586b42c5a3fa82cccc2280378ac255f",
        "tau_0.10000000000000001.csv": "fa4349198297e80e783eb0fb473f920618af680a2e29a649cdd96ca610a23629",
    },
    ("sweep-eps", "eps_quadratic"): {
        "eps_0.050000000000000003.csv": "b3fd31902305c8a23471b9df4f4d15c3e66a271830589f79ce917a9a81861473",
        "eps_0.10000000000000001.csv": "22e45d238d4dd496cfeaefe4d80f3e672a79087e5bf72c7a08d31a9533417891",
        "eps_0.20000000000000001.csv": "656e5d91a586f0258779f6cfc55fa33ef4fa6cd77c7bf6ef74f2fa4e351aeab2",
        "eps_lin.csv": "93fedf55d08b3027d9a6b5878379fe14bf13ba4574cc23944a524847c4ebf21f",
    },
    ("sweep-eps", "eps_quartic"): {
        "eps_0.050000000000000003.csv": "20e49e238e2c5f2278591f418929ff7f6053f7c26b18d40dd5c6ec541280a0e5",
        "eps_0.10000000000000001.csv": "49b4de7067428249d6a4eb45864e229a53e22e36fb1083c63fcfdfdcc9140e6d",
        "eps_0.20000000000000001.csv": "42a0b02b68e043d949acc48e562b7d5c26c74d46f3b03fa3e8879e14b22f51ee",
        "eps_lin.csv": "6ecad32f731fec5f971aca6b0371b0522340696c71864cdae5e6f2340b5ff7a2",
    },
    ("densities", "mp_relax"): {
        "densities.csv": "2469fdd2c7fd42d6660466a813bc0b22d5204f4c93d24c614a34d4d6654ac121",
    },
    ("densities", "mp_loaded"): {
        "densities.csv": "2469fdd2c7fd42d6660466a813bc0b22d5204f4c93d24c614a34d4d6654ac121",
    },
    ("densities", "shear_quadratic"): {
        "densities.csv": "2469fdd2c7fd42d6660466a813bc0b22d5204f4c93d24c614a34d4d6654ac121",
    },
    ("densities", "shear_quartic"): {
        "densities.csv": "f62ee246061f6312dbe3a284f1c2681e45e807177f02e554b64603eaca82d8b0",
    },
    ("densities", "eps_quadratic"): {
        "densities.csv": "2469fdd2c7fd42d6660466a813bc0b22d5204f4c93d24c614a34d4d6654ac121",
    },
    ("densities", "eps_quartic"): {
        "densities.csv": "f62ee246061f6312dbe3a284f1c2681e45e807177f02e554b64603eaca82d8b0",
    },
}


@pytest.mark.parametrize("command, stem", list(SHIPPED_CSV_SHA256))
def test_shipped_csv_outputs_keep_their_digests(tmp_path, command, stem):
    cfg = str(REPO / "configs" / f"{stem}.cfg")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    expected = SHIPPED_CSV_SHA256[command, stem]
    assert written == sorted(expected)
    for name, digest in expected.items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest, f"{command} {stem}: {name} changed (sha256 {actual})"


# sha256 of the JSON report of verify and densities on every shipped config
# and of the sweeps above, recorded when the config lost its u0_slope and
# v0_slope keys.
# Their rates are polyfit slopes, from LAPACK's least squares, so another
# LAPACK build may move their last digits.
SHIPPED_JSON_SHA256 = {
    ("verify", "mp_relax"): "e142b1bc5b26ed9590775abbac38015bf2cfbd0cf0cc6d5d85b92173e9f615e3",
    ("verify", "mp_loaded"): "c52fe7ef0ca4370c4abcfc691cb4a1494a7e2b55977df6336c1837e673956355",
    ("verify", "shear_quadratic"): "0e93a17233d5062b21237729cfeb3bd66b936f873352200736734bad1974d304",
    ("verify", "shear_quartic"): "aef7d6525363e18dbf4d9e80de72f5120712aae26d55d17f8fde11e95a943782",
    ("verify", "eps_quadratic"): "8f885284c595320af74bdc3e604eb2a47cd46a2e772b08b78bed718eac7ffdd1",
    ("verify", "eps_quartic"): "678162ead6ee0e07bae8d4733eed4e2e408bbc85816e24641b0b0d5eb339ad67",
    ("sweep-tau", "mp_relax"): "4467803343a9dd443e9f195d6b6581dc6ae4f7560eb2b324df74bd809faa2bc8",
    ("sweep-eps", "eps_quadratic"): "a068c401095ce45a485a428ac3db7348969acb1a270d235a04ad0886dd4d7f63",
    ("sweep-eps", "eps_quartic"): "016678b4076986f4a92ad7f826422d4b3a16adc4acfc2d386cc58d6ceac99a66",
    ("densities", "mp_relax"): "e48781ddf87cc14d02e3e344b7a285e6b8e730a7df8fdf324631f3a9a95a6d03",
    ("densities", "mp_loaded"): "426af7a3c361c8ab847284fa053929ff2ba4144f23ad593ddd06036765faf9d9",
    ("densities", "shear_quadratic"): "57ff2b2e9240287e21f856f15d478ac9dbf61bfcd733f7570d66e894f424b662",
    ("densities", "shear_quartic"): "44b221f91902f427cd03278c5e795a6b0db8d5530affc403f9bada2a8b633bd6",
    ("densities", "eps_quadratic"): "063a25d38a5c865982bc1672795e9fbf6d6d8cbdc2233f20ff44f528e3ca35c7",
    ("densities", "eps_quartic"): "7f338703bcc1aa270feadff38b09818b143ee86f22c04c1ed227d853d8564fbb",
}


@pytest.mark.parametrize("command, stem", list(SHIPPED_JSON_SHA256))
def test_shipped_json_outputs_keep_their_digests(tmp_path, command, stem):
    cfg = str(REPO / "configs" / f"{stem}.cfg")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    (written,) = tmp_path.glob("*.json")
    actual = hashlib.sha256(written.read_bytes()).hexdigest()
    assert actual == SHIPPED_JSON_SHA256[command, stem], f"{command} {stem}: sha256 {actual}"


# float.hex of the values of the monotonicity check (the displacement
# dissipation of one phi_tau solve per mono_tau_list entry) on the four
# trajectory configs: no CSV digest covers these single solves.
SHIPPED_MONOTONICITY_VALUES = {
    "mp_relax": [
        "0x1.eb50b6898aedap-10", "0x1.5eab129180c2bp-8",
        "0x1.fe3a76b2ef2b2p-7", "0x1.b442a6a0916bdp-6",
    ],
    "mp_loaded": [
        "0x1.245fb620479f4p-10", "0x1.a26a5a96be46dp-9",
        "0x1.31be3cb016b5ap-7", "0x1.0647196b3c7e0p-6",
    ],
    "shear_quadratic": [
        "0x1.776906023348ep-13", "0x1.3b72ea61d950ep-11",
        "0x1.3b72ea61d950cp-9", "0x1.62e147ae147aep-8",
    ],
    "shear_quartic": [
        "0x1.5693156931564p-15", "0x1.1fdb97530ecabp-13",
        "0x1.1fdb97530eca8p-11", "0x1.43d70a3d70a3fp-10",
    ],
}


@pytest.mark.parametrize("stem", list(SHIPPED_MONOTONICITY_VALUES))
def test_shipped_monotonicity_values_keep_their_bits(stem):
    config = parse_config((REPO / "configs" / f"{stem}.cfg").read_text(encoding="utf-8"))
    (report,) = cli._run_checks(config, ["monotonicity"])
    values = [value.hex() for value in report.params["values"]]
    assert values == SHIPPED_MONOTONICITY_VALUES[stem]
