"""Output checks made apart from the program.

Nothing here imports ``visco_pt``. Each check compares an output file with
a computation made here, or with a property the method must have, and
returns a list of failure messages (empty when the output passes).
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

COLUMNS = "t,F,F_vi,W_el,W_vi,load_work,E_total,diss_inc,delta,ineq_residual"
LEDGER_RTOL = 1e-12  # recomputed column vs written column, relative to 1 + |value|
INEQ_TOL = 1e-8  # least allowed ineq_residual
STATIONARY_TOL = 1e-8  # largest allowed |gradient|_inf of the incremental functional
STAY_PUT_RTOL = 1e-12  # step value may exceed the stay-put value by this, relative
TAU_ORDER = (0.8, 1.2)  # accepted fitted order of the tau-sweep sup errors
EPS_FLOOR = 1e-9  # largest allowed gap when the rescaled problem is eps-independent

_DEFAULTS = {
    "c_e": 1.0, "a4": 0.0, "c_v": 1.0, "d_v": 1.0, "p_psi": 2.0,
    "load_f": (0.0,), "load_g": (0.0,),
    "tau_list": (0.1, 0.05, 0.025, 0.0125), "eps_list": (0.2, 0.1, 0.05),
}
_ALIASES = {"T": "t_final", "N": "n_steps"}
_LISTS = ("load_f", "load_g", "tau_list", "eps_list")


def read_config(path):
    """The keys of a scenario file the checks need, with the documented defaults."""
    cfg = dict(_DEFAULTS)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("[") or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            key = _ALIASES.get(key, key)
            if key in _LISTS:
                cfg[key] = tuple(float(v) for v in value.replace(",", " ").split())
            elif key == "mode":
                cfg[key] = "mp" if value in ("mp", "material_point") else "shear"
            elif key in ("c_e", "a4", "c_v", "d_v", "p_psi", "t_final", "F_vi0"):
                cfg[key] = float(value)
            elif key == "n_steps":
                cfg[key] = int(value)
    return cfg


def scaled_loading(cfg, eps=1.0):
    """Polynomial coefficients of f + g (both pair with F at a material point)."""
    f = [eps * c for c in cfg["load_f"]]
    g = [eps * c for c in cfg["load_g"]]
    n = max(len(f), len(g))
    return [(f[k] if k < len(f) else 0.0) + (g[k] if k < len(g) else 0.0) for k in range(n)]


def polyval(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


def read_csv(path):
    """The COLUMNS of a trajectory CSV as a dict; columns after them are ignored."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
    if not header.startswith(COLUMNS):
        raise ValueError(f"{path}: unexpected header {header!r}")
    names = COLUMNS.split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(len(names)))
    return {name: data[:, k] for k, name in enumerate(names)}


def _close(name, got, want, scale=None):
    scale = 1.0 + np.abs(want) if scale is None else scale
    bad = np.abs(got - want) > LEDGER_RTOL * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{name} row {i}: written {float(got[i])!r}, recomputed {float(want[i])!r}"]
    return []


def check_ledger(rows):
    """delta is the running sum of diss_inc; ineq_residual is the inequality slack
    (E(0) - load_work) - (E_total + delta) and is at least -INEQ_TOL."""
    if not all(np.all(np.isfinite(col)) for col in rows.values()):
        return ["non-finite value"]
    fails = []
    if rows["load_work"][0] != 0.0 or rows["diss_inc"][0] != 0.0 or rows["delta"][0] != 0.0:
        fails.append("row 0 must carry zero load_work, diss_inc and delta")
    fails += _close("delta", rows["delta"], np.cumsum(rows["diss_inc"]))
    e0 = rows["E_total"][0]
    slack = (e0 - rows["load_work"]) - (rows["E_total"] + rows["delta"])
    scale = 1.0 + abs(e0) + np.abs(rows["load_work"]) + np.abs(rows["E_total"]) + np.abs(rows["delta"])
    fails += _close("ineq_residual", rows["ineq_residual"], slack, scale)
    worst = float(np.min(rows["ineq_residual"]))
    if worst < -INEQ_TOL:
        fails.append(f"ineq_residual {worst!r} below -{INEQ_TOL}")
    return fails


def check_material_point(rows, cfg, load, times):
    """Recompute a material-point trajectory row by row from t, F and F_vi.

    W_el = c_e/2 s^2 + a4/4 s^4 with s = F/F_vi - 1, W_vi = c_v/2 (F_vi - 1)^2,
    E_total = W_el + W_vi - l(t) F, load_work the running sum of
    (l(t_i) - l(t_{i-1})) F_{i-1}, diss_inc = tau psi(r) with
    r = (F_vi_i - F_vi_{i-1}) / (tau F_vi_{i-1}) and psi(r) = d_v/2 |r|^p_psi.
    Every step must be a stationary point of the incremental functional and
    must not be worse than staying put.
    """
    c_e, a4, c_v, d_v, p = (cfg[k] for k in ("c_e", "a4", "c_v", "d_v", "p_psi"))
    t, F, Fv = rows["t"], rows["F"], rows["F_vi"]
    if t.shape != times.shape or np.any(np.abs(t - times) > 1e-12 * (1.0 + times[-1])):
        return [f"t column does not match the grid of {times.size - 1} steps"]
    tau = times[1] - times[0]

    def stored(F, Fv):
        s = F / Fv - 1.0
        return 0.5 * c_e * s * s + 0.25 * a4 * s**4, 0.5 * c_v * (Fv - 1.0) ** 2

    lt = np.array([polyval(load, x) for x in t])
    w_el, w_vi = stored(F, Fv)
    energy = w_el + w_vi - lt * F
    rate = (Fv[1:] - Fv[:-1]) / (tau * Fv[:-1])
    diss = tau * 0.5 * d_v * np.abs(rate) ** p
    fails = _close("W_el", rows["W_el"], w_el)
    fails += _close("W_vi", rows["W_vi"], w_vi)
    fails += _close("E_total", rows["E_total"], energy)
    fails += _close("load_work", rows["load_work"], np.concatenate([[0.0], np.cumsum(np.diff(lt) * F[:-1])]))
    fails += _close("diss_inc", rows["diss_inc"], np.concatenate([[0.0], diss]))

    s = F[1:] / Fv[1:] - 1.0
    dw = c_e * s + a4 * s**3
    dpsi = 0.5 * d_v * p * np.abs(rate) ** (p - 1.0) * np.sign(rate)
    g_F = dw / Fv[1:] - lt[1:]
    g_Fv = -dw * F[1:] / Fv[1:] ** 2 + c_v * (Fv[1:] - 1.0) + dpsi / Fv[:-1]
    grad = np.maximum(np.abs(g_F), np.abs(g_Fv))
    if np.max(grad) > STATIONARY_TOL:
        i = int(np.argmax(grad)) + 1
        fails.append(f"step {i} is not stationary: |grad| = {float(grad[i - 1])!r}")

    step_value = energy[1:] + diss
    stay_el, stay_vi = stored(F[:-1], Fv[:-1])
    stay_value = stay_el + stay_vi - lt[1:] * F[:-1]
    worse = step_value - stay_value > STAY_PUT_RTOL * (1.0 + np.abs(stay_value))
    if np.any(worse):
        i = int(np.argmax(worse)) + 1
        fails.append(f"step {i} is worse than staying put by {float(step_value[i - 1] - stay_value[i - 1])!r}")
    return fails


def check_trajectory(path, cfg=None, load=None, times=None):
    """Ledger checks on any trajectory CSV, plus the material-point recomputation
    when the scenario (cfg, load polynomial, grid times) is given."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    fails = check_ledger(rows)
    if cfg is not None and not fails:
        fails += check_material_point(rows, cfg, load, times)
    return [f"{os.path.basename(path)}: {msg}" for msg in fails]


def check_report(path):
    """verify.json / sweep_*.json: the run and every check in it passed."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    fails = [f"{path}: check {c.get('check')} did not pass" for c in payload.get("checks", []) if c.get("pass") is not True]
    if payload.get("pass") is not True or not payload.get("checks"):
        fails.append(f"{path}: report does not pass")
    return fails


def _sweep_files(out, prefix, expected):
    """{parameter: path} of the sweep's CSVs, which must cover `expected` exactly."""
    found = {}
    for path in glob.glob(os.path.join(out, prefix + "_*.csv")):
        tail = os.path.basename(path)[len(prefix) + 1:-4]
        if tail != "lin":
            found[float(tail)] = path
    if sorted(found) != sorted(float(x) for x in expected):
        raise ValueError(f"{prefix} sweep wrote {sorted(found)}, expected {sorted(expected)}")
    return found


def viscous_flow(f0, c, times):
    """Zero-load viscous flow dF/dt = -c F^2 (F - 1) from f0 > 1, in closed form.

    Separating variables gives G(F) = G(f0) - c t with
    G(F) = log(1 - 1/F) + 1/F, increasing on F > 1; each time is solved by
    bisection to the last bit.
    """
    def G(x):
        return math.log1p(-1.0 / x) + 1.0 / x

    g0 = G(f0)
    out = []
    for t in times:
        target = g0 - c * float(t)
        lo, hi = 1.0, f0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if mid == 1.0 or G(mid) < target:
                lo = mid
            else:
                hi = mid
        out.append(hi)
    return np.array(out)


def fit_order(params, errors):
    return float(np.polyfit(np.log(params), np.log(errors), 1)[0])


def tau_sweep_errors(sweep, flow):
    """Sup errors of F_vi against `flow(times)`; `sweep` maps tau to its rows."""
    taus = sorted(sweep, reverse=True)
    errors = []
    for tau in taus:
        rows = sweep[tau]
        errors.append(float(np.max(np.abs(rows["F_vi"] - flow(rows["t"])))))
    return taus, errors


def judge_tau_sweep(taus, errors):
    """Errors fall at every halving of tau and fit an order near 1."""
    fails = [f"error does not fall from tau={a} to tau={b}: {ea!r} -> {eb!r}"
             for a, b, ea, eb in zip(taus, taus[1:], errors, errors[1:]) if not eb < ea]
    order = fit_order(taus, errors)
    if not TAU_ORDER[0] <= order <= TAU_ORDER[1]:
        fails.append(f"fitted tau order {order:.4f} outside {TAU_ORDER}")
    return fails


def eps_sweep_gaps(sweep, lin):
    """Sup gaps of (F-1)/eps and (F_vi-1)/eps to the linearized run, per eps
    (descending); `sweep` maps eps to its rows, `lin` holds the eps_lin.csv rows."""
    eps = sorted(sweep, reverse=True)
    gaps = []
    for e in eps:
        rows = sweep[e]
        gaps.append((float(np.max(np.abs((rows["F"] - 1.0) / e - lin["F"]))),
                     float(np.max(np.abs((rows["F_vi"] - 1.0) / e - lin["F_vi"])))))
    return eps, gaps


def judge_eps_sweep(eps, gaps, at_floor):
    """At the floor (the rescaled problem does not depend on eps) every gap stays
    at solver level; otherwise each gap falls as eps falls."""
    fails = []
    for k, name in enumerate(("F", "F_vi")):
        seq = [g[k] for g in gaps]
        if at_floor:
            fails += [f"{name} gap {g!r} at eps={e} above {EPS_FLOOR}" for e, g in zip(eps, seq) if g > EPS_FLOOR]
        else:
            fails += [f"{name} gap does not fall from eps={a} to eps={b}: {ga!r} -> {gb!r}"
                      for a, b, ga, gb in zip(eps, eps[1:], seq, seq[1:]) if not gb < ga]
    return fails


def grid_times(t_final, n):
    return np.linspace(0.0, t_final, n + 1)


def check_run(out, cfg):
    """`run`: run.csv passes the ledger checks, and the recomputation at a material point."""
    path = os.path.join(out, "run.csv")
    if cfg["mode"] != "mp":
        return check_trajectory(path)
    return check_trajectory(path, cfg, scaled_loading(cfg), grid_times(cfg["t_final"], cfg["n_steps"]))


def check_verify(out, cfg):
    return check_report(os.path.join(out, "verify.json"))


def check_sweep_tau(out, cfg):
    """`sweep-tau`: every tau_*.csv, and the order of its errors against the viscous flow."""
    try:
        files = _sweep_files(out, "tau", cfg["tau_list"])
    except ValueError as exc:
        return [str(exc)]
    fails = check_report(os.path.join(out, "sweep_tau.json"))
    load = scaled_loading(cfg)
    sweep = {}
    for tau, path in files.items():
        times = grid_times(cfg["t_final"], int(round(cfg["t_final"] / tau)))
        fails += check_trajectory(path, cfg, load, times)
        sweep[tau] = read_csv(path)
    if fails:
        return fails
    c = cfg["c_v"] / cfg["d_v"]
    taus, errors = tau_sweep_errors(sweep, lambda t: viscous_flow(cfg["F_vi0"], c, t))
    return judge_tau_sweep(taus, errors)


def check_sweep_eps(out, cfg):
    """`sweep-eps`: every eps_*.csv and eps_lin.csv, and their rescaled gaps."""
    try:
        files = _sweep_files(out, "eps", cfg["eps_list"])
    except ValueError as exc:
        return [str(exc)]
    lin_path = os.path.join(out, "eps_lin.csv")
    fails = check_report(os.path.join(out, "sweep_eps.json")) + check_trajectory(lin_path)
    times = grid_times(cfg["t_final"], cfg["n_steps"])
    sweep = {}
    for e, path in files.items():
        if cfg["mode"] == "mp":
            fails += check_trajectory(path, cfg, scaled_loading(cfg, e), times)
        else:
            fails += check_trajectory(path)
        sweep[e] = read_csv(path)
    if fails:
        return fails
    at_floor = cfg["mode"] == "shear" and cfg["a4"] == 0.0 and cfg["p_psi"] == 2.0
    eps, gaps = eps_sweep_gaps(sweep, read_csv(lin_path))
    return judge_eps_sweep(eps, gaps, at_floor)


CHECKS = {
    "run": check_run,
    "verify": check_verify,
    "sweep-tau": check_sweep_tau,
    "sweep-eps": check_sweep_eps,
}
