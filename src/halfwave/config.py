"""Run configuration: one YAML document with nested sections.

Unknown keys anywhere are hard errors (a typo in a tolerance name must not
silently fall back to a default).  ``resolve`` materializes every default
and returns ready-to-use objects plus the fully resolved mapping, which is
written next to the results so any run can be reproduced from its artifact
directory alone.
"""

from __future__ import annotations

import inspect
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

import numpy as np
import yaml

from .errors import ConfigError, HalfwaveError
from .families import NonlinearityFamily, builtin_family
from .grids import Grid
from .nehari import SolverConfig
from .semiclassical import POTENTIALS, Potential, check_eps_ladder, check_theta_ladder

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


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats: ``1e-6``, ``4e1`` and
    ``1.0e6``, which YAML 1.1 reads as strings, are floats."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _merge_section(name: str, given: Dict[str, Any]) -> Dict[str, Any]:
    """The section's defaults updated by ``given``.  A key whose default is
    not a string or a bool is numeric: a string there, or in its list, is
    refused, so a number is read one way wherever it is written."""
    defaults = _DEFAULTS[name]
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {name}.{key!r}")
        default = defaults[key]
        if isinstance(default, list) and not isinstance(val, list):
            raise ConfigError(f"{name}.{key}: must be a list, got {val!r}")
        if isinstance(val, bool) and not isinstance(default, bool):
            raise ConfigError(f"{name}.{key}: must not be true or false")
        entries = val if isinstance(val, list) else [val]
        if not isinstance(default, (str, bool)) and any(isinstance(x, str) for x in entries):
            raise ConfigError(f"{name}: {key} must be a number, got {val!r}")
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


@contextmanager
def section_guard(name: str):
    """Re-raise a rejection by the objects a section builds as
    ConfigError("<name>: ..."), so each rule is written once, where it is
    enforced."""
    try:
        yield
    except ConfigError:
        raise
    except (HalfwaveError, TypeError, ValueError) as err:
        raise ConfigError(f"{name}: {err}") from err


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def resolve(raw: Optional[Dict[str, Any]] = None) -> RunConfig:
    """Validate a raw mapping and materialize every default.

    Raises ConfigError, naming the section, for an unknown section or key, a
    potential key the chosen type does not read, a value of the wrong type,
    or a value its object rejects.  The resolved ``potential`` section holds
    ``type`` and the keys that type reads.
    """
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
    with section_guard("potential"):
        kind = pot_sec["type"]
        _require(isinstance(kind, str) and kind in POTENTIALS, f"potential.type: unknown type {kind!r}")
        # the keys a type reads are its constructor's parameters, and the
        # resolved config keeps only those
        reads = inspect.signature(POTENTIALS[kind]).parameters
        unread = [k for k in raw.get("potential", {}) if k != "type" and k not in reads]
        _require(not unread, f"potential: type {kind!r} does not read {', '.join(unread)}")
        pot_sec = {k: v for k, v in pot_sec.items() if k == "type" or k in reads}
        sections["potential"] = pot_sec
        potential = POTENTIALS[kind](**{k: float(pot_sec[k]) for k in reads})
        V0 = float(pot_sec["V0"])

    grid_sec = sections["grid"]
    if grid_sec["length"] is None:
        grid_sec["length"] = 40.0 * max(1.0, 1.0 / float(np.sqrt(V0)))
    with section_guard("grid"):
        grid = Grid(float(grid_sec["length"]), grid_sec["n_points"])

    fam_sec = sections["family"]
    with section_guard("family"):
        family = builtin_family(
            fam_sec["name"],
            beta0=float(fam_sec["beta0"]),
            sign_restricted=fam_sec["sign_restricted"],
            V0=V0,
            r1=float(fam_sec["r1"]),
        )

    with section_guard("solver"):
        solver = SolverConfig(**sections["solver"])

    moser_sec = sections["moser"]
    n_list = moser_sec["n_list"]
    with section_guard("moser"):
        _require(
            len(n_list) > 0 and all(isinstance(n, int) and n >= 2 for n in n_list),
            f"moser.n_list: need integers >= 2, got {n_list}",
        )
        moser_r1 = float(moser_sec["r1"])
        _require(
            0 < moser_r1 < grid.length / 2.0,
            f"moser.r1: must lie in (0, L/2)=(0, {grid.length / 2}), got {moser_r1}",
        )

    with section_guard("sweep"):
        eps_list = check_eps_ladder(sections["sweep"]["eps_list"])
    with section_guard("theta"):
        theta_list = check_theta_ladder(sections["theta"]["theta_list"])

    return RunConfig(
        grid=grid,
        family=family,
        potential=potential,
        solver=solver,
        moser_n_list=list(n_list),
        moser_r1=moser_r1,
        sweep_eps_list=eps_list,
        theta_list=theta_list,
        resolved=sections,
    )


def load(path) -> RunConfig:
    """Read a YAML config file, with YAML 1.2 floats, and resolve it."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_Loader)
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
