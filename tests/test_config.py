import numpy as np
import pytest
import yaml

from halfwave.config import dump_resolved, load, resolve
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
            ("sweep", "parallel"),
        ],
    )
    def test_unknown_key_names_path(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.'{key}'"):
            resolve({section: {key: 3}})

    def test_solver_section_keys(self):
        resolved = resolve({}).resolved
        assert list(resolved["solver"]) == [
            "inner_tol", "outer_tol", "el_tol", "max_inner", "max_outer",
            "restarts", "seed", "threads",
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

    def test_family_constants_track_v0(self):
        cfg = resolve({"potential": {"V0": 2.0}})
        expected = max(8.0 * np.sqrt(np.e) * 2.0, np.pi / 2.0) + 1.0
        assert cfg.family.kappa0 == pytest.approx(expected)


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
