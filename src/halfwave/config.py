"""Run configuration: one YAML document with nested sections.

Unknown keys anywhere are hard errors (a typo in a tolerance name must not
silently fall back to a default).  ``resolve`` materializes every default
and returns ready-to-use objects plus the fully resolved mapping, which is
written next to the results so any run can be reproduced from its artifact
directory alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

import numpy as np
import yaml

from .errors import ConfigError
from .families import NonlinearityFamily, builtin_family
from .grids import Grid
from .nehari import SolverConfig
from .semiclassical import POTENTIALS, Potential

_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "grid": {
        "length": None,  # 40 * max(1, 1/sqrt(V0)) unless given
        "n_points": 2048,
    },
    "family": {
        "name": "cubic_exp",
        "beta0": 1.0,
        "sign_restricted": False,
        "r1": 2.0,
    },
    "potential": {
        "type": "constant",
        "V0": 1.0,
        "Vinf": 2.0,
        "separation": 2.0,
    },
    "solver": asdict(SolverConfig()),
    "moser": {
        "n_list": [4, 16, 64],
        "r1": 2.0,
    },
    "sweep": {
        "eps_list": [1.0, 0.5, 0.25, 0.125],
    },
    "theta": {
        "theta_list": [0.5, 1.0, 2.0, 4.0],
    },
}


def _merge_section(name: str, given: Dict[str, Any]) -> Dict[str, Any]:
    defaults = _DEFAULTS[name]
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {name}.{key!r}")
        out[key] = val
    return out


@dataclass
class RunConfig:
    """Validated configuration with all defaults materialized."""

    grid: Grid
    family: NonlinearityFamily
    potential: Potential
    solver: SolverConfig
    moser_n_list: list
    moser_r1: float
    sweep_eps_list: list
    theta_list: list
    resolved: Dict[str, Any]

    @property
    def V0(self) -> float:
        return self.potential.V0


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def resolve(raw: Optional[Dict[str, Any]] = None) -> RunConfig:
    """Validate a raw mapping and materialize every default."""
    raw = dict(raw or {})
    for section in raw:
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"section {section!r} must be a mapping")

    sections = {
        name: _merge_section(name, raw.get(name, {})) for name in _DEFAULTS
    }

    pot_sec = sections["potential"]
    _require(pot_sec["type"] in POTENTIALS, f"potential.type: unknown type {pot_sec['type']!r}")
    V0 = float(pot_sec["V0"])
    _require(V0 > 0, f"potential.V0: must be positive, got {V0}")
    if pot_sec["type"] == "constant":
        potential = POTENTIALS["constant"](V0)
    elif pot_sec["type"] == "single_well":
        potential = POTENTIALS["single_well"](V0, float(pot_sec["Vinf"]))
    else:
        potential = POTENTIALS["double_well"](
            V0, float(pot_sec["Vinf"]), float(pot_sec["separation"])
        )

    grid_sec = sections["grid"]
    if grid_sec["length"] is None:
        grid_sec["length"] = 40.0 * max(1.0, 1.0 / np.sqrt(V0))
    length = float(grid_sec["length"])
    n_points = grid_sec["n_points"]
    _require(length > 0, f"grid.length: must be positive, got {length}")
    _require(
        isinstance(n_points, int) and n_points >= 16 and n_points % 2 == 0,
        f"grid.n_points: must be an even integer >= 16, got {n_points}",
    )
    grid = Grid(length, n_points)

    fam_sec = sections["family"]
    _require(float(fam_sec["beta0"]) > 0, f"family.beta0: must be positive, got {fam_sec['beta0']}")
    try:
        family = builtin_family(
            fam_sec["name"],
            beta0=float(fam_sec["beta0"]),
            sign_restricted=bool(fam_sec["sign_restricted"]),
            V0=V0,
            r1=float(fam_sec["r1"]),
        )
    except Exception as err:
        raise ConfigError(f"family: {err}") from err

    sol_sec = dict(sections["solver"])
    try:
        solver = SolverConfig(**sol_sec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"solver: {err}") from err

    moser_sec = sections["moser"]
    n_list = list(moser_sec["n_list"])
    _require(
        len(n_list) > 0 and all(isinstance(n, int) and n >= 2 for n in n_list),
        f"moser.n_list: need integers >= 2, got {n_list}",
    )
    moser_r1 = float(moser_sec["r1"])
    _require(
        0 < moser_r1 < length / 2.0,
        f"moser.r1: must lie in (0, L/2)=(0, {length / 2}), got {moser_r1}",
    )

    sweep_sec = sections["sweep"]
    eps_list = [float(e) for e in sweep_sec["eps_list"]]
    _require(
        len(eps_list) >= 4 and all(e > 0 for e in eps_list),
        f"sweep.eps_list: need >= 4 positive values, got {eps_list}",
    )
    _require(
        sorted(eps_list, reverse=True) == eps_list and eps_list[0] / eps_list[-1] >= 2.0,
        "sweep.eps_list: must be descending with extremes differing by >= 2x",
    )

    theta_sec = sections["theta"]
    theta_list = [float(t) for t in theta_sec["theta_list"]]
    _require(
        all(t > 0 for t in theta_list) and sorted(theta_list) == theta_list,
        f"theta.theta_list: must be positive ascending, got {theta_list}",
    )

    return RunConfig(
        grid=grid,
        family=family,
        potential=potential,
        solver=solver,
        moser_n_list=n_list,
        moser_r1=moser_r1,
        sweep_eps_list=eps_list,
        theta_list=theta_list,
        resolved=sections,
    )


def load(path) -> RunConfig:
    """Read a YAML config file and resolve it."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"config parse error in {path}: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of sections")
    return resolve(raw)


def dump_resolved(cfg: RunConfig, path) -> None:
    """Write the fully resolved configuration next to the results."""
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.resolved, fh, sort_keys=False)
