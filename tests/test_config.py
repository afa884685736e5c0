import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.config import _DEFAULTS, dump_resolved, load, resolve
from halfwave.errors import ConfigError
from halfwave.nehari import SolverConfig


class TestResolve:
    def test_empty_gives_defaults(self):
        cfg = resolve({})
        assert cfg.grid.length == 40.0
        assert cfg.grid.n_points == 2048
        assert cfg.family.name == "cubic_exp"
        assert cfg.potential.name == "constant"
        assert cfg.solver.restarts == 5
        assert cfg.sweep_eps_list == [1.0, 0.5, 0.25, 0.125]

    def test_box_scales_with_small_v0(self):
        cfg = resolve({"potential": {"V0": 0.25}})
        assert cfg.grid.length == pytest.approx(80.0)
        cfg2 = resolve({"potential": {"V0": 4.0}})
        assert cfg2.grid.length == pytest.approx(40.0)

    def test_explicit_length_wins(self):
        cfg = resolve({"grid": {"length": 25.0}, "potential": {"V0": 0.25}})
        assert cfg.grid.length == 25.0

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            resolve({"grids": {}})

    # a typo, then settings that are gone because only one value was ever
    # used: a stale config naming one must not be silently accepted
    @pytest.mark.parametrize(
        "section, key",
        [
            ("solver", "max_outter"),
            ("solver", "max_linesearch"),
            ("solver", "armijo_c"),
            ("solver", "armijo_shrink"),
            ("solver", "newton_polish"),
            ("solver", "inner_tol"),
            ("solver", "max_inner"),
            ("sweep", "parallel"),
        ],
    )
    def test_unknown_key_names_path(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.'{key}'"):
            resolve({section: {key: 3}})

    def test_solver_section_keys(self):
        resolved = resolve({}).resolved
        assert list(resolved["solver"]) == [
            "el_tol", "max_outer", "restarts", "seed",
        ]
        assert list(resolved["sweep"]) == ["eps_list"]

    def test_solver_defaults_are_the_dataclass_defaults(self):
        assert resolve({}).solver == SolverConfig()

    def test_small_grid_names_constraint(self):
        with pytest.raises(ConfigError, match="n_points"):
            resolve({"grid": {"n_points": 8}})
        with pytest.raises(ConfigError, match="n_points"):
            resolve({"grid": {"n_points": 255}})

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            resolve({"family": {"name": "nonexistent"}})
        with pytest.raises(ConfigError, match="beta0"):
            resolve({"family": {"beta0": -2.0}})

    def test_bad_solver_values(self):
        with pytest.raises(ConfigError):
            resolve({"solver": {"el_tol": -1.0}})
        with pytest.raises(ConfigError):
            resolve({"solver": {"restarts": 0}})

    def test_solver_config_validates_itself(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            SolverConfig(restarts=0)
        for name in ("max_outer", "restarts", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(**{name: 2.5})
        # the restarts run in sequence: threads=1 is accepted and kept nowhere
        assert SolverConfig(threads=1) == SolverConfig()
        with pytest.raises(ValueError, match="threads must be 1"):
            SolverConfig(threads=3)
        for tol in ("1e-6", float("inf")):
            with pytest.raises(ValueError, match="el_tol must be a finite positive number"):
                SolverConfig(el_tol=tol)

    # a value of the wrong type is a ConfigError that names its section,
    # never a raw exception from the conversion or a later crash
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("potential", "V0", "abc"),
            ("potential", "Vinf", "z"),
            ("potential", "type", ["constant"]),
            ("grid", "length", "x"),
            ("grid", "length", True),
            ("grid", "n_points", 2048.0),
            ("family", "beta0", None),
            ("family", "r1", 0.0),
            ("family", "beta0", "1e200"),
            ("family", "beta0", "1e-320"),
            ("family", "sign_restricted", "false"),
            ("sweep", "eps_list", 3),
            ("sweep", "eps_list", [1.0, 0.5, 0.25, 0.0]),
            ("moser", "n_list", 5),
            ("moser", "r1", None),
            ("theta", "theta_list", ["a"]),
            ("solver", "restarts", 2.5),
            ("solver", "seed", "7"),
            ("solver", "el_tol", None),
            # a number is read one way: a string is refused for every
            # numeric key, as a scalar or a list entry, whatever it spells
            ("potential", "V0", "0.5"),
            ("solver", "el_tol", "1.0e-6"),
            ("grid", "length", "40"),
            ("moser", "r1", "2e0"),
            ("sweep", "eps_list", [1.0, "0.5", 0.25, 0.125]),
            ("moser", "n_list", [4, "16"]),
        ],
    )
    def test_wrongly_typed_value_names_section(self, section, key, value):
        with pytest.raises(ConfigError, match=f"^{section}"):
            resolve({section: {key: value}})

    def test_wrongly_typed_value_in_a_well_potential(self):
        with pytest.raises(ConfigError, match="^potential"):
            resolve({"potential": {"type": "single_well", "Vinf": "z"}})
        # at separation 0 the double well is 0/0 at the origin, at inf
        # inf/inf everywhere
        for separation in (0.0, float("inf")):
            with pytest.raises(ConfigError, match="^potential: separation"):
                resolve({"potential": {"type": "double_well", "separation": separation}})

    def test_bad_sweep_lists(self):
        with pytest.raises(ConfigError):
            resolve({"sweep": {"eps_list": [1.0, 0.5]}})
        with pytest.raises(ConfigError):
            resolve({"sweep": {"eps_list": [0.1, 0.2, 0.4, 0.8]}})

    def test_bad_moser(self):
        with pytest.raises(ConfigError):
            resolve({"moser": {"r1": 50.0}})
        with pytest.raises(ConfigError):
            resolve({"moser": {"n_list": [1]}})

    def test_potentials(self):
        cfg = resolve({"potential": {"type": "single_well", "V0": 1.0, "Vinf": 3.0}})
        assert cfg.potential.Vinf == 3.0
        cfg2 = resolve({"potential": {"type": "double_well", "separation": 1.5}})
        assert cfg2.potential.minima == (-1.5, 1.5)
        with pytest.raises(ConfigError):
            resolve({"potential": {"type": "triple_well"}})

    def test_potential_key_the_type_does_not_read_is_refused(self):
        # constant reads V0, single_well V0 and Vinf, double_well all three
        for kind, given in (("constant", {"Vinf": 5.0}),
                            ("constant", {"separation": float("inf")}),
                            ("constant", {"separation": 2.0}),  # its default, refused too
                            ("single_well", {"separation": 1.5})):
            with pytest.raises(ConfigError, match=f"^potential: type '{kind}' does not read"):
                resolve({"potential": {"type": kind, **given}})
        cfg = resolve({"potential": {"type": "double_well", "V0": 0.5, "Vinf": 3.0,
                                     "separation": 1.5}})
        assert (cfg.potential.V0, cfg.potential.Vinf, cfg.potential.minima) == (0.5, 3.0,
                                                                                (-1.5, 1.5))
        # a resolved config writes the keys its type reads, and resolves again
        for kind, keys in (("constant", ["type", "V0"]),
                           ("single_well", ["type", "V0", "Vinf"]),
                           ("double_well", ["type", "V0", "Vinf", "separation"])):
            resolved = resolve({"potential": {"type": kind}}).resolved
            assert list(resolved["potential"]) == keys
            assert resolve(resolved).potential.name == kind

    def test_family_constants_track_v0(self):
        cfg = resolve({"potential": {"V0": 2.0}})
        expected = max(8.0 * np.sqrt(np.e) * 2.0, np.pi / 2.0) + 1.0
        assert cfg.family.kappa0 == pytest.approx(expected)


_KEYS = [(section, key) for section, keys in _DEFAULTS.items() for key in keys]
_ODD_VALUES = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.sampled_from(["0", "-1", "nan", "inf", "1e200", "1e-320", "2.5"]),
    st.lists(st.one_of(st.none(), st.text(max_size=3), st.floats(), st.integers()), max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KEYS), _ODD_VALUES)
def test_resolve_rejects_or_accepts_any_odd_value(key, value):
    section, name = key
    try:
        resolve({section: {name: value}})
    except ConfigError:
        pass


class TestFileRoundtrip:
    def test_load_and_dump(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("grid:\n  n_points: 1024\nsolver:\n  seed: 7\n")
        cfg = load(path)
        assert cfg.grid.n_points == 1024
        assert cfg.solver.seed == 7
        out = tmp_path / "resolved.yaml"
        dump_resolved(cfg, out)
        back = yaml.safe_load(out.read_text())
        assert back["grid"]["n_points"] == 1024
        assert back["solver"]["seed"] == 7
        assert back["solver"]["restarts"] == 5  # default materialized
        # resolved config re-resolves to the same objects
        cfg2 = resolve(back)
        assert cfg2.grid == cfg.grid
        assert cfg2.solver == cfg.solver

    # YAML 1.2 floats: an exponent needs no dot, so these are numbers, and
    # they are written back as numbers
    @pytest.mark.parametrize(
        "text, section, key, value",
        [
            ("solver: {el_tol: 1e-6}", "solver", "el_tol", 1e-6),
            ("potential: {V0: 1e-3}", "potential", "V0", 1e-3),
            ("grid: {length: 4e1}", "grid", "length", 40.0),
            ("moser: {r1: 2e0}", "moser", "r1", 2.0),
        ],
    )
    def test_exponent_without_dot_is_a_float(self, tmp_path, text, section, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(text + "\n")
        cfg = load(path)
        assert cfg.resolved[section][key] == value
        out = tmp_path / "resolved.yaml"
        dump_resolved(cfg, out)
        back = yaml.safe_load(out.read_text())[section][key]
        assert isinstance(back, float) and back == value

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load(tmp_path / "nope.yaml")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load(path)

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load(path)
