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

from .analysis import (
    density_values, eps_study_values, eps_values, substep_values, tau_sweep_grids, tau_values,
)
from .domain import Loading, ShearColumnMesh, State, TimeGrid
from .errors import ConfigParseError, ValidationError
from .linearized import linear_column
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
    n_elements: Optional[int] = None
    load_f: Tuple[float, ...] = (0.0,)
    load_g: Tuple[float, ...] = (0.0,)
    F_vi0: Optional[float] = None
    u0: Optional[float] = None
    v0: Optional[float] = None
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    tau_list: Tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    mono_tau_list: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0)
    eps_list: Tuple[float, ...] = (0.2, 0.1, 0.05)

    def __post_init__(self):
        object.__setattr__(self, "mode", _MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        for build in (self.model, self.grid, self.loading, self.mesh):
            build()  # each object checks the ranges of its own parameters
        tau_values(self.tau_list)
        substep_values(self.mono_tau_list)
        eps_values(self.eps_list)
        material_point = self.mode == MATERIAL_POINT
        if self.F_vi0 is not None and not material_point:
            raise ValidationError("F_vi0 is a material-point key; a shear column starts from v0")
        if self.n_elements is not None and material_point:
            raise ValidationError("n_elements is a shear-column key; a material point has no mesh")
        if self.F_vi0 is not None and self.v0 is not None:
            raise ValidationError("F_vi0 and v0 give one datum (F_vi0 = 1 + v0); give one of them")
        for check in self.checks:  # what a listed check validates before its work
            if check not in KNOWN_CHECKS:
                raise ValidationError(
                    f"unknown check {check!r}; known: {', '.join(KNOWN_CHECKS)}"
                )
            if self.checks.count(check) > 1:
                raise ValidationError(f"duplicate check {check!r}")
            if check == "tau_convergence":
                tau_sweep_grids(
                    self.model(), material_point, self.loading(), self.t_final, self.tau_list
                )
            elif check == "epsilon_study":
                eps_study_values(self.eps_list, material_point)
            elif check == "density_convergence":
                density_values(self.eps_list)

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

    def mesh(self) -> Optional[ShearColumnMesh]:
        """The geometry's mesh: None at a material point, in the shear column
        of 16 elements unless ``n_elements`` is given."""
        if self.mode == MATERIAL_POINT:
            return None
        return ShearColumnMesh(16 if self.n_elements is None else self.n_elements)

    def initial_state(self) -> State:
        """Initial state of the finite-strain run, by the rule of :meth:`_start`:
        F = 1 + u0 and F_vi = F_vi0 or 1 + v0 at a material point, the slopes
        gamma' = u0 and beta' = v0 in every element of the shear column."""
        return self._start(self.model(), self.mesh(), self.loading())

    def lin_initial(self) -> State:
        """Initial state of linearized runs and the epsilon study, on the
        column of :func:`~visco_pt.linearized.linear_column`, by the rule of
        :meth:`_start`: the slopes u' = u0 and v' = v0 in every element, at a
        material point v' = F_vi0 - 1 when ``F_vi0`` is given."""
        return self._start(*linear_column(self.model(), self.mesh(), self.loading()))

    def _start(
        self, model: MaterialModel, mesh: Optional[ShearColumnMesh], loading: Loading
    ) -> State:
        """The initial state on ``mesh`` (None: a material point) from the
        initial data, by one rule: a given ``u0`` is the elastic start as it
        is, and without one :func:`~visco_pt.stepper.equilibrate_elastic`
        relaxes the elastic variable at t = 0 under ``model`` and
        ``loading``. A material point needs one of ``F_vi0`` and ``v0``; a
        start given by ``F_vi0`` keeps its bits."""
        from .stepper import equilibrate_elastic

        if self.mode == MATERIAL_POINT and self.F_vi0 is None and self.v0 is None:
            raise ValidationError("material-point run requires F_vi0 or v0")
        if mesh is None:
            F_vi = 1.0 + self.v0 if self.F_vi0 is None else self.F_vi0
            state = State.material_point(F_vi if self.u0 is None else 1.0 + self.u0, F_vi)
        else:
            v = (self.v0 or 0.0) if self.F_vi0 is None else self.F_vi0 - 1.0
            n = mesh.n_elements
            state = State.shear_column(mesh, np.full(n, self.u0 or 0.0), np.full(n, v))
        return state if self.u0 is not None else equilibrate_elastic(model, state, loading, 0.0)

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
    Optional[int]: int,
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
