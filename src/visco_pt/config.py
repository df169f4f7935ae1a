"""Scenario configuration: a flat key-value text format.

Lines hold ``key = value`` pairs; ``[section]`` headers are cosmetic
grouping, ``#`` starts a comment. The keys are the fields of
:class:`ScenarioConfig`, each parsed by its field's type (lists are
whitespace-separated); fields without a default are required, unknown keys
are an error (catches typos), and a key may appear once. Every value is
validated on parse, numeric ranges by the objects the config builds.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Optional, Tuple, get_type_hints

import numpy as np

from .analysis import eps_values, substep_values, tau_values
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
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    de_giorgi_m: int = 4
    tau_list: Tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    mono_tau_list: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0)
    eps_list: Tuple[float, ...] = (0.2, 0.1, 0.05)

    def __post_init__(self):
        object.__setattr__(self, "mode", _MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        for build in (self.model, self.grid, self.loading, self.mesh, self.settings):
            build()  # each object checks the ranges of its own parameters
        if self.init_elastic not in ("equilibrate", "direct"):
            raise ValidationError(
                "init_elastic must be 'equilibrate' or 'direct', "
                f"got {self.init_elastic!r}"
            )
        if self.de_giorgi_m < 2:
            raise ValidationError(f"de_giorgi_m must be >= 2, got {self.de_giorgi_m}")
        tau_values(self.tau_list)
        substep_values(self.mono_tau_list, "mono_tau_list")
        eps_values(self.eps_list, decreasing=False, name="eps_list")
        for check in self.checks:
            if check not in KNOWN_CHECKS:
                raise ValidationError(
                    f"unknown check {check!r}; known: {', '.join(KNOWN_CHECKS)}"
                )

    # -- derived objects ---------------------------------------------------------

    def model(self) -> MaterialModel:
        return MaterialModel(
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


# -- parsing --------------------------------------------------------------------

_PARSERS = {
    str: str,
    int: int,
    float: float,
    Optional[float]: float,
    Tuple[float, ...]: lambda value: tuple(float(v) for v in value.split()),
    Tuple[str, ...]: lambda value: tuple(value.split()),
}
_KEY_PARSERS = {
    key: _PARSERS[hint] for key, hint in get_type_hints(ScenarioConfig).items()
}
_REQUIRED_KEYS = [f.name for f in fields(ScenarioConfig) if f.default is MISSING]
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
        if key not in _KEY_PARSERS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigParseError(f"line {lineno}: empty value for key {key!r}")
        raw[key] = (lineno, value)

    kwargs = {}
    for key, (lineno, value) in raw.items():
        try:
            kwargs[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigParseError(
                f"line {lineno}: cannot parse value for key {key!r}: {exc}"
            ) from None
    for required in _REQUIRED_KEYS:
        if required not in kwargs:
            raise ValidationError(f"missing required key {required!r}")
    return ScenarioConfig(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
