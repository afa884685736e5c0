import numpy as np
import pytest
import yaml

from halfwave.cli import main
from halfwave.families import builtin_family
from halfwave.grids import Field, Grid, write_field_binary
from halfwave.nehari import SolverConfig
from halfwave.semiclassical import constant_potential, double_well, solve_rescaled


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))


@pytest.fixture(scope="module")
def solve_cfg(tmp_path_factory):
    # small but resolved enough that all certificates pass quickly
    path = tmp_path_factory.mktemp("cfg") / "solve.yaml"
    write_yaml(
        path,
        {"grid": {"n_points": 2048}, "solver": {"restarts": 1, "seed": 0}},
    )
    return path


@pytest.fixture(scope="module")
def solved_run(solve_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "artifacts"
    code = main(["solve", "--config", str(solve_cfg), "--out", str(out)])
    return code, out


class TestSolveCommand:
    def test_exit_zero_and_artifacts(self, solved_run):
        code, out = solved_run
        assert code == 0
        for name in (
            "config_resolved.yaml",
            "report.yaml",
            "trace.csv",
            "u.bin",
            "v.bin",
            "u.csv",
            "v.csv",
        ):
            assert (out / name).exists()

    def test_report_contents(self, solved_run):
        _, out = solved_run
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["converged"] is True
        assert report["level_bound"]["passed"] is True
        assert report["residuals"]["pohozaev"] <= 1e-3
        assert report["residuals"]["nehari_ray"] <= 1e-6
        assert report["residuals"]["nehari_minus"] <= 1e-6

    def test_resolved_config_reproduces(self, solved_run, tmp_path):
        _, out = solved_run
        code = main(
            ["solve", "--config", str(out / "config_resolved.yaml"), "--out", str(tmp_path / "re")]
        )
        assert code == 0
        first = (out / "trace.csv").read_bytes()
        again = (tmp_path / "re" / "trace.csv").read_bytes()
        assert first == again

    def test_determinism_bit_identical_csvs(self, solve_cfg, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["solve", "--config", str(solve_cfg), "--out", str(a), "--seed", "3"]) == 0
        assert main(["solve", "--config", str(solve_cfg), "--out", str(b), "--seed", "3"]) == 0
        for name in ("trace.csv", "u.csv", "v.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_grid_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        write_yaml(cfg, {"grid": {"n_points": 8}})
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n_points" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        # a typo, and settings that have been removed
        for key in ("max_outter", "newton_polish", "inner_tol", "max_inner"):
            cfg = tmp_path / f"{key}.yaml"
            write_yaml(cfg, {"solver": {key: 3}})
            code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"solver.{key!r}" in capsys.readouterr().err

    def test_wrongly_typed_value_exits_two(self, tmp_path, capsys):
        # rejected before anything is written, not after config_resolved.yaml
        for section, key, value in (("potential", "V0", "abc"), ("solver", "restarts", 2.5)):
            cfg = tmp_path / f"{key}.yaml"
            write_yaml(cfg, {section: {key: value}})
            out = tmp_path / f"o_{key}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
            assert f"config error: {section}:" in capsys.readouterr().err
            assert not out.exists()
        # a number is read one way: a quoted one is a string, and refused
        for section, key, text in (("potential", "V0", '"0.5"'), ("solver", "el_tol", '"1.0e-6"')):
            cfg = tmp_path / f"quoted_{key}.yaml"
            cfg.write_text(f"{section}: {{{key}: {text}}}\n")
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o_q")]) == 2
            assert f"config error: {section}: {key} must be a number" in capsys.readouterr().err
        # a command-line override is checked like the file
        assert main(["solve", "--seed", "-1", "--out", str(tmp_path / "o_neg")]) == 2
        assert "config error: solver: seed must be >= 0" in capsys.readouterr().err

    def test_potential_key_the_type_does_not_read_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "unread.yaml"
        cfg.write_text("potential: {Vinf: 5.0, separation: .inf}\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: potential: type 'constant' does not read Vinf, separation" in err
        assert not out.exists()
        # a key at its default value is refused too
        cfg.write_text("potential: {type: constant, separation: 2.0}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: potential: type 'constant' does not read separation" in err
        assert not out.exists()

    def test_forced_failure_keeps_artifacts(self, tmp_path):
        cfg = tmp_path / "force.yaml"
        write_yaml(
            cfg,
            {
                "grid": {"n_points": 1024},
                "solver": {
                    "max_outer": 1,
                    "restarts": 1,
                },
            },
        )
        out = tmp_path / "forced"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert (out / "u.bin").exists()
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["converged"] is False

    def test_varying_potential_solves_like_the_library(self, tmp_path):
        # the well starts reach a well at 1.029147; the generic starts alone
        # certified the state at 1.236374 with its peak at x = 0.84
        cfg = tmp_path / "dw.yaml"
        write_yaml(cfg, {"potential": {"type": "double_well"}})
        out = tmp_path / "dw"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        lib = solve_rescaled(
            1.0, double_well(1.0, 2.0, 2.0), builtin_family("cubic_exp", beta0=1.0),
            Grid(40.0, 2048), SolverConfig(),
        )
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["level"] == lib.level
        assert report["restart_index"] == lib.restart_index
        # a varying V runs every start: the 5 generic ones and one per well
        assert report["restarts_run"] == lib.restarts_run == 7

    def test_constant_potential_reports_the_starts_run(self, tmp_path):
        # the default 5 starts stop at the first tie, after 2
        out = tmp_path / "const"
        assert main(["solve", "--out", str(out)]) == 0
        lib = solve_rescaled(
            1.0, constant_potential(1.0), builtin_family("cubic_exp", beta0=1.0),
            Grid(40.0, 2048), SolverConfig(),
        )
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["level"] == lib.level
        assert report["restart_index"] == lib.restart_index == 0
        assert report["restarts_run"] == lib.restarts_run == 2

    def test_box_too_small_exits_one(self, tmp_path, capsys):
        # V(L/2) = V(5) is 1.688, not within 5% of Vinf = 2
        cfg = tmp_path / "box.yaml"
        write_yaml(
            cfg, {"grid": {"length": 10.0, "n_points": 512}, "potential": {"type": "double_well"}}
        )
        out = tmp_path / "box"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "box too small" in yaml.safe_load((out / "report.yaml").read_text())["error"]
        assert "box too small" in capsys.readouterr().err

    def test_removed_threads_setting_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--threads", "2", "--out", str(tmp_path / "o_flag")])
        assert exc.value.code == 2
        cfg = tmp_path / "threads.yaml"
        write_yaml(cfg, {"solver": {"threads": 2}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o_key")]) == 2
        assert "solver.'threads'" in capsys.readouterr().err
        # the descent ends at the Newton handoff: it has no tolerance to set
        cfg = tmp_path / "outer_tol.yaml"
        write_yaml(cfg, {"solver": {"outer_tol": 1e-8}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o_tol")]) == 2
        assert "solver.'outer_tol'" in capsys.readouterr().err
        with pytest.raises(TypeError):
            SolverConfig(outer_tol=1e-7)

    def test_dump_fields_is_a_sweep_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--dump-fields", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestDiagnoseCommand:
    def test_zero_fields_report_zero(self, tmp_path, capsys):
        g = Grid(40.0, 256)
        z = Field(g, np.zeros(256))
        upath = tmp_path / "u.bin"
        vpath = tmp_path / "v.bin"
        write_field_binary(z, upath)
        write_field_binary(z, vpath)
        code = main(
            [
                "diagnose",
                "--u",
                str(upath),
                "--v",
                str(vpath),
                "--out",
                str(tmp_path / "rep"),
            ]
        )
        assert code == 0
        report = yaml.safe_load((tmp_path / "rep" / "report.yaml").read_text())
        assert all(v == 0.0 for v in report.values())

    def test_roundtrip_on_solved_fields(self, solved_run, tmp_path):
        _, out = solved_run
        code = main(
            [
                "diagnose",
                "--u",
                str(out / "u.bin"),
                "--v",
                str(out / "v.bin"),
                "--out",
                str(tmp_path / "rep2"),
            ]
        )
        assert code == 0
        report = yaml.safe_load((tmp_path / "rep2" / "report.yaml").read_text())
        assert report["pohozaev"] <= 1e-3
        assert report["euler_lagrange_u"] <= 1e-6
        # solve and diagnose certify with one function and write one schema
        solved = yaml.safe_load((out / "report.yaml").read_text())
        assert solved["residuals"] == report

    def test_roundtrip_on_a_varying_potential(self, tmp_path):
        cfg = tmp_path / "well.yaml"
        write_yaml(cfg, {"potential": {"type": "single_well"}, "solver": {"restarts": 1}})
        solved = tmp_path / "solved"
        assert main(["solve", "--config", str(cfg), "--out", str(solved)]) == 0
        fields = ["--u", str(solved / "u.bin"), "--v", str(solved / "v.bin")]
        rep = tmp_path / "rep"
        assert main(["diagnose", "--config", str(cfg), *fields, "--out", str(rep)]) == 0
        report = yaml.safe_load((rep / "report.yaml").read_text())
        assert yaml.safe_load((solved / "report.yaml").read_text())["residuals"] == report
        # the same fields do not solve the system with another potential
        other = tmp_path / "other.yaml"
        write_yaml(other, {"potential": {"type": "single_well", "V0": 1.2}})
        assert main(["diagnose", "--config", str(other), *fields, "--out", str(rep)]) == 1

    def test_box_too_small_exits_one(self, tmp_path, capsys):
        # zero fields pass every certificate, but diagnose applies the box
        # rule of solve: V(L/2) = V(5) is too far from Vinf
        z = Field(Grid(10.0, 256), np.zeros(256))
        write_field_binary(z, tmp_path / "u.bin")
        write_field_binary(z, tmp_path / "v.bin")
        cfg = tmp_path / "box.yaml"
        write_yaml(cfg, {"potential": {"type": "double_well"}})
        fields = ["--u", str(tmp_path / "u.bin"), "--v", str(tmp_path / "v.bin")]
        code = main(["diagnose", "--config", str(cfg), *fields, "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "box too small" in capsys.readouterr().err


class TestMoserCommand:
    def test_csv_shape(self, tmp_path):
        cfg = tmp_path / "m.yaml"
        write_yaml(cfg, {"grid": {"n_points": 8192}, "moser": {"n_list": [4, 16, 64], "r1": 2.0}})
        out = tmp_path / "m"
        code = main(["moser", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = (out / "moser.csv").read_text().strip().split("\n")
        assert rows[0] == "n,n_points,seminorm_sq,rel_err_vs_pi,l2_sq,l2_sq_exact"
        data = [r.split(",") for r in rows[1:]]
        finest = [r for r in data if int(r[1]) == 8192]
        assert {int(r[0]) for r in finest} == {4, 16, 64}
        # the sharp-threshold deficit is real: seminorms sit below pi
        assert all(float(r[2]) < np.pi for r in data)


class TestAuditCommand:
    def test_default_family_passes(self, tmp_path):
        out = tmp_path / "aud"
        code = main(["audit", "--out", str(out)])
        assert code == 0
        rows = (out / "audit.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 13
        assert all(",pass," in row for row in rows)

    def test_subcritical_family_fails(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        write_yaml(cfg, {"family": {"name": "cubic"}})
        code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "aud2")])
        assert code == 1


class TestSweepCommand:
    def test_sweep_artifacts(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        write_yaml(
            cfg,
            {
                "grid": {"length": 80.0, "n_points": 4096},
                "potential": {"type": "single_well", "V0": 1.0, "Vinf": 2.0},
                "solver": {"restarts": 1, "seed": 0},
                "theta": {"theta_list": [1.0, 2.0]},
            },
        )
        out = tmp_path / "sw"
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--dump-fields"])
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "epsilon,level,x_eps,dist_to_L,gap12,profile_drift"
        assert len(rows) == 5
        summary = yaml.safe_load((out / "sweep_summary.yaml").read_text())
        assert summary["levels_in_window"] is True
        assert summary["theta_strictly_increasing"] is True
        # the theta = V0 row is the sweep's own autonomous solve
        theta_rows = [r.split(",") for r in (out / "theta.csv").read_text().strip().split("\n")]
        assert theta_rows[0][:2] == ["theta", "level"] and float(theta_rows[1][0]) == 1.0
        assert float(theta_rows[1][1]) == summary["autonomous_level"]
        assert (out / "u_eps_0.125.bin").exists()

    def test_unconverged_rungs_exit_one(self, tmp_path, capsys):
        # the autonomous solve, every rung and theta level run out of their
        # one outer step, and each is still written
        cfg = tmp_path / "s1.yaml"
        write_yaml(
            cfg,
            {
                "grid": {"length": 80.0, "n_points": 4096},
                "potential": {"type": "single_well", "V0": 1.0, "Vinf": 2.0},
                "solver": {"restarts": 1, "seed": 0, "max_outer": 1},
                "theta": {"theta_list": [1.0, 2.0]},
            },
        )
        out = tmp_path / "sw1"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert len((out / "sweep.csv").read_text().strip().split("\n")) == 5
        assert yaml.safe_load((out / "sweep_summary.yaml").read_text())["errors"] == {}
        err = capsys.readouterr().err
        names = ("autonomous ", "eps=1 ", "eps=0.5 ", "eps=0.25 ", "eps=0.125 ", "theta=1 ", "theta=2 ")
        for name in names:
            assert f"unconverged: {name}" in err

    def test_box_too_small_fails(self, tmp_path, capsys):
        cfg = tmp_path / "s2.yaml"
        write_yaml(
            cfg,
            {
                "grid": {"length": 40.0, "n_points": 2048},
                "potential": {"type": "single_well"},
                "solver": {"restarts": 1},
            },
        )
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw2")])
        assert code == 1

    def test_repeated_theta_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "s3.yaml"
        write_yaml(cfg, {"theta": {"theta_list": [1.0, 1.0, 2.0]}})
        out = tmp_path / "sw3"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: theta: theta list must be positive and strictly ascending" in (
            capsys.readouterr().err)
        assert not out.exists()
