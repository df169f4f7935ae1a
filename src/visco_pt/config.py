"""Scenario configuration: a flat key-value text format.

Lines hold ``key = value`` pairs; ``[section]`` headers are cosmetic
grouping, ``#`` starts a comment. Keys are globally unique, unknown keys are
an error (catches typos), and every value is validated on parse. List-valued
keys take whitespace-separated numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .domain import Loading, ShearColumnMesh, State, TimeGrid
from .errors import ConfigParseError, ValidationError
from .linearized import LinState, lin_equilibrium
from .minimize import MinimizeSettings
from .rheology import MODES, SHEAR_COLUMN, MATERIAL_POINT, MaterialModel

KNOWN_CHECKS = (
    "energy_one",
    "energy_sharp",
    "semistability",
    "monotonicity",
    "tau_convergence",
    "epsilon_study",
    "density_convergence",
)

DEFAULT_CHECKS = (
    "energy_one",
    "energy_sharp",
    "semistability",
    "monotonicity",
    "density_convergence",
)

_MODE_ALIASES = {"mp": MATERIAL_POINT, "shear": SHEAR_COLUMN}


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    t_final: float
    n_steps: int
    c_e: float = 1.0
    a4: float = 0.0
    c_v: float = 1.0
    d_v: float = 1.0
    p_psi: float = 2.0
    k_radius: float = 10.0
    n_elements: int = 16
    load_f: Tuple[float, ...] = (0.0,)
    load_g: Tuple[float, ...] = (0.0,)
    F0: Optional[float] = None
    F_vi0: Optional[float] = None
    init_elastic: str = "equilibrate"
    u0: Optional[float] = None
    v0: Optional[float] = None
    u0_slope: Optional[float] = None
    v0_slope: float = 0.0
    grad_tol: float = 1e-10
    max_iter: int = 10000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    seed: int = 0
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    de_giorgi_m: int = 4
    tau_list: Tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    mono_tau_list: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0)
    eps_list: Tuple[float, ...] = (0.2, 0.1, 0.05)
    n_probes: int = 20
    amplitudes: Tuple[float, ...] = (1e-2, 1e-1)
    stride: int = 10

    def __post_init__(self):
        object.__setattr__(self, "mode", _MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        _positive("t_final", self.t_final)
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        for name in ("c_e", "c_v", "d_v", "k_radius", "grad_tol", "armijo_c"):
            _positive(name, getattr(self, name))
        if self.a4 < 0.0:
            raise ValidationError(f"a4 must be >= 0, got {self.a4}")
        if self.p_psi < 2.0:
            raise ValidationError(f"p_psi must be >= 2, got {self.p_psi}")
        if self.n_elements < 1:
            raise ValidationError(f"n_elements must be >= 1, got {self.n_elements}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValidationError(
                f"backtrack_factor must be in (0, 1), got {self.backtrack_factor}"
            )
        if self.init_elastic not in ("equilibrate", "direct"):
            raise ValidationError(
                "init_elastic must be 'equilibrate' or 'direct', "
                f"got {self.init_elastic!r}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.de_giorgi_m < 2:
            raise ValidationError(f"de_giorgi_m must be >= 2, got {self.de_giorgi_m}")
        if self.n_probes < 1:
            raise ValidationError(f"n_probes must be >= 1, got {self.n_probes}")
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        for name in ("tau_list", "mono_tau_list", "eps_list", "amplitudes"):
            values = getattr(self, name)
            if not values or any(v <= 0.0 or not np.isfinite(v) for v in values):
                raise ValidationError(f"{name} entries must be positive and finite")
        for check in self.checks:
            if check not in KNOWN_CHECKS:
                raise ValidationError(
                    f"unknown check {check!r}; known: {', '.join(KNOWN_CHECKS)}"
                )

    # -- derived objects ---------------------------------------------------------

    def model(self) -> MaterialModel:
        return MaterialModel(
            mode=self.mode,
            c_e=self.c_e,
            a4=self.a4,
            c_v=self.c_v,
            d_v=self.d_v,
            p_psi=self.p_psi,
            k_radius=self.k_radius,
        )

    def grid(self) -> TimeGrid:
        return TimeGrid(self.t_final, self.n_steps)

    def loading(self) -> Loading:
        return Loading(f_coeffs=self.load_f, g_coeffs=self.load_g)

    def mesh(self) -> ShearColumnMesh:
        return ShearColumnMesh(self.n_elements)

    def settings(self) -> MinimizeSettings:
        return MinimizeSettings(
            grad_tol=self.grad_tol,
            max_iter=self.max_iter,
            armijo_c=self.armijo_c,
            backtrack_factor=self.backtrack_factor,
        )

    def initial_state(self) -> State:
        """Initial data for the finite-strain run."""
        from .stepper import equilibrate_elastic

        model = self.model()
        loading = self.loading()
        if self.mode == MATERIAL_POINT:
            if self.F_vi0 is None:
                raise ValidationError("material-point run requires F_vi0")
            if self.init_elastic == "direct":
                f0 = self.F_vi0 if self.F0 is None else self.F0
                return State.material_point(f0, self.F_vi0)
            seeded = State.material_point(self.F_vi0, self.F_vi0)
            return equilibrate_elastic(model, seeded, loading, 0.0)
        n = self.n_elements
        state = State.shear_column(
            self.mesh(), np.full(n, self.u0_slope or 0.0), np.full(n, self.v0_slope)
        )
        if self.init_elastic == "direct":
            return state
        return equilibrate_elastic(model, state, loading, 0.0)

    def lin_initial(self) -> LinState:
        """Initial data (u0, v0) for linearized runs and the epsilon study."""
        quad = self.model().quadratic_limit()
        loading = self.loading()
        if self.mode == MATERIAL_POINT:
            v0 = self.v0
            if v0 is None and self.F_vi0 is not None:
                v0 = self.F_vi0 - 1.0
            if v0 is None:
                raise ValidationError("material-point lin run requires v0 or F_vi0")
            if self.u0 is not None:
                return LinState.material_point(self.u0, v0)
            return lin_equilibrium(
                quad, LinState.material_point(v0, v0), loading, 0.0
            )
        n = self.n_elements
        state = LinState.shear_column(
            self.mesh(), np.full(n, self.u0_slope or 0.0), np.full(n, self.v0_slope)
        )
        if self.u0_slope is not None:
            return state
        return lin_equilibrium(quad, state, loading, 0.0)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def _positive(name: str, value: float):
    if not (value > 0.0 and np.isfinite(value)):
        raise ValidationError(f"{name} must be > 0, got {value!r}")


# -- parsing --------------------------------------------------------------------

_STR_KEYS = {"mode", "init_elastic"}
_INT_KEYS = {"n_steps", "n_elements", "max_iter", "seed", "de_giorgi_m", "n_probes", "stride"}
_FLOAT_KEYS = {
    "t_final",
    "c_e",
    "a4",
    "c_v",
    "d_v",
    "p_psi",
    "k_radius",
    "F0",
    "F_vi0",
    "u0",
    "v0",
    "u0_slope",
    "v0_slope",
    "grad_tol",
    "armijo_c",
    "backtrack_factor",
}
_FLOAT_LIST_KEYS = {
    "load_f",
    "load_g",
    "tau_list",
    "mono_tau_list",
    "eps_list",
    "amplitudes",
}
_STR_LIST_KEYS = {"checks"}
_ALL_KEYS = _STR_KEYS | _INT_KEYS | _FLOAT_KEYS | _FLOAT_LIST_KEYS | _STR_LIST_KEYS
_KEY_ALIASES = {"T": "t_final", "N": "n_steps"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; unknown keys are an error."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigParseError(
                f"line {lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigParseError(f"line {lineno}: empty value for key {key!r}")
        raw[key] = (lineno, value)

    kwargs = {}
    for key, (lineno, value) in raw.items():
        try:
            if key in _STR_KEYS:
                kwargs[key] = value
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            elif key in _FLOAT_LIST_KEYS:
                kwargs[key] = tuple(float(v) for v in value.split())
            else:
                kwargs[key] = tuple(value.split())
        except ValueError as exc:
            raise ConfigParseError(
                f"line {lineno}: cannot parse value for key {key!r}: {exc}"
            ) from None
    for required in ("mode", "t_final", "n_steps"):
        if required not in kwargs:
            raise ValidationError(f"missing required key {required!r}")
    return ScenarioConfig(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
