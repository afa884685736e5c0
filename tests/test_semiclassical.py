import dataclasses
import logging

import numpy as np
import pytest

from halfwave.energy import PairField
from halfwave.errors import InvalidField, NoAscent
from halfwave.families import builtin_family
from halfwave.grids import Field, Grid
from halfwave import semiclassical
from halfwave.nehari import (
    LEVEL_TIE_RTOL,
    POLISH_TARGET,
    SolverConfig,
    outer_minimize,
    solve_ground_state,
)
from halfwave.semiclassical import (
    POTENTIALS,
    Potential,
    autonomous_level_vs_theta,
    concentration_sweep,
    constant_potential,
    double_well,
    single_well,
    solve_rescaled,
)


@pytest.fixture(scope="module")
def fam():
    return builtin_family("cubic_exp", beta0=1.0)


@pytest.fixture(scope="module")
def sweep_grid():
    # h ~ 0.02 resolves the profile; box reaches the potential plateau
    return Grid(80.0, 4096)


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(restarts=1, seed=0)


class TestPotentials:
    def test_single_well_shape(self):
        pot = single_well(1.0, 2.0)
        assert pot.evaluate(np.array([0.0]))[0] == pytest.approx(1.0)
        assert pot.evaluate(np.array([100.0]))[0] == pytest.approx(2.0, rel=1e-3)
        assert pot.minima == (0.0,)

    def test_double_well_minima(self):
        pot = double_well(1.0, 2.0, separation=2.0)
        vals = pot.evaluate(np.array([-2.0, 0.0, 2.0]))
        assert vals[0] == pytest.approx(1.0)
        assert vals[2] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(2.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidField):
            Potential("bad", lambda x: x, V0=2.0, Vinf=1.0, minima=(0.0,))

    def test_rescaled_values_guarded(self, sweep_grid):
        pot = single_well(1.0, 2.0)
        vals = pot.values(sweep_grid, 0.5)
        assert np.min(vals) >= 1.0 - 1e-12
        with pytest.raises(InvalidField):
            pot.values(sweep_grid, -1.0)

    def test_box_check(self, sweep_grid):
        pot = single_well(1.0, 2.0)
        pot.values(sweep_grid, 0.25)
        with pytest.raises(InvalidField):
            pot.values(sweep_grid, 0.005)

    def test_non_finite_samples_are_invalid(self, sweep_grid):
        # NaN fails every comparison, so the box and infimum checks alone
        # would pass it: all-NaN, and NaN at the origin only (finite edge)
        well = single_well(1.0, 2.0).evaluate
        for evaluate in (
            lambda x: np.full_like(x, np.nan),
            lambda x: np.where(x == 0.0, np.nan, well(x)),
        ):
            pot = Potential("nan", evaluate, V0=1.0, Vinf=2.0, minima=(0.0,))
            with pytest.raises(InvalidField, match="NaN/Inf samples"):
                pot.values(sweep_grid, 0.5)

    def test_constant_values_are_the_scalar(self):
        # the multiplier path, on any box; eps is still checked
        pot = constant_potential(1.5)
        small = Grid(1.0, 64)
        assert pot.values(small, 0.01) == 1.5 and np.ndim(pot.values(small, 0.01)) == 0
        with pytest.raises(InvalidField, match="positive"):
            pot.values(small, 0.0)

    def test_registry(self):
        assert set(POTENTIALS) == {"constant", "single_well", "double_well"}


class TestSolveRescaled:
    def test_constant_potential_reduces_to_autonomous(self, fam, cfg):
        grid = Grid(40.0, 1024)
        auto = solve_ground_state(fam, 1.0, grid, cfg)
        res = solve_rescaled(1.0, constant_potential(1.0), fam, grid, cfg)
        # the same solve exactly: the scalar V0, the generic starts only
        assert res.level == auto.level
        assert res.report == auto.report
        assert res.restart_index == auto.restart_index
        assert res.w.u.values.tobytes() == auto.w.u.values.tobytes()
        assert res.w.v.values.tobytes() == auto.w.v.values.tobytes()

    def test_level_strictly_above_autonomous(self, fam, cfg, sweep_grid):
        auto = solve_ground_state(fam, 1.0, sweep_grid, cfg)
        res = solve_rescaled(1.0, single_well(1.0, 2.0), fam, sweep_grid, cfg)
        assert res.level > auto.level + 1e-3
        assert res.converged
        # the Pohozaev identity holds for a constant V only: no entry, not 0
        assert res.report.pohozaev is None

    def test_level_inside_window_at_small_eps(self, fam, cfg, sweep_grid):
        res = solve_rescaled(0.125, single_well(1.0, 2.0), fam, sweep_grid, cfg)
        assert 0.0 < res.level < np.pi


class TestThetaScan:
    def test_strictly_increasing(self, fam, cfg):
        grid = Grid(40.0, 1024)
        scan = autonomous_level_vs_theta([0.5, 1.0, 2.0, 4.0], fam, grid, cfg)
        assert scan.strictly_increasing
        levels = [r.level for r in scan.records]
        assert all(b - a > 1e-6 for a, b in zip(levels, levels[1:]))

    def test_theta_equals_v0_reproduces_autonomous(self, fam, cfg):
        grid = Grid(40.0, 1024)
        auto = solve_ground_state(fam, 1.0, grid, cfg)
        scan = autonomous_level_vs_theta([1.0, 2.0, 4.0, 8.0], fam, grid, cfg)
        assert scan.records[0].level == auto.level  # same code path exactly

    def test_rejects_bad_lists(self, fam, cfg):
        grid = Grid(40.0, 1024)
        with pytest.raises(InvalidField):
            autonomous_level_vs_theta([2.0, 1.0], fam, grid, cfg)
        with pytest.raises(InvalidField):
            autonomous_level_vs_theta([-1.0, 1.0], fam, grid, cfg)
        # a repeated theta would read as a monotonicity violation of a level
        # that increases
        with pytest.raises(InvalidField, match="strictly ascending"):
            autonomous_level_vs_theta([1.0, 1.0, 2.0], fam, grid, cfg)


class TestConcentrationSweep:
    def test_validation(self, fam, cfg, sweep_grid):
        pot = single_well(1.0, 2.0)
        with pytest.raises(InvalidField):
            concentration_sweep([1.0, 0.5, 0.25], pot, fam, sweep_grid, cfg)
        with pytest.raises(InvalidField):
            concentration_sweep([0.25, 0.5, 1.0, 2.0], pot, fam, sweep_grid, cfg)
        with pytest.raises(InvalidField):
            concentration_sweep([1.0, 0.9, 0.8, 0.7], pot, fam, sweep_grid, cfg)
        with pytest.raises(InvalidField, match="strictly descending"):
            concentration_sweep([1.0, 0.5, 0.5, 0.25], pot, fam, sweep_grid, cfg)

    def test_zero_epsilon_is_invalid_field(self, fam, cfg, sweep_grid):
        # the extremes' ratio divides by the last rung
        with pytest.raises(InvalidField, match="positive"):
            concentration_sweep([1, 0.5, 0.25, 0], single_well(1.0, 2.0), fam, sweep_grid, cfg)

    def test_sequential_sweep_concentrates(self, fam, cfg, sweep_grid):
        pot = single_well(1.0, 2.0)
        sweep = concentration_sweep([1.0, 0.5, 0.25, 0.125], pot, fam, sweep_grid, cfg)
        assert not sweep.errors
        assert [r.epsilon for r in sweep.records] == [1.0, 0.5, 0.25, 0.125]
        h = sweep_grid.spacing
        for a, b in zip(sweep.records, sweep.records[1:]):
            assert b.dist_to_minima <= 1.2 * a.dist_to_minima + 4.0 * h * b.epsilon
        last = sweep.records[-1]
        assert last.dist_to_minima <= 4.0 * h * last.epsilon
        assert last.gap12_cells <= 4
        assert last.profile_drift <= 0.05
        assert last.level <= 1.05 * sweep.autonomous_level
        assert sweep.levels_in_window(fam.beta0)
        levels = [r.level for r in sweep.records]
        assert levels == sorted(levels, reverse=True)

    def test_gauge_consistency_of_maximum(self, fam, sweep_grid):
        # multi-start from different seeds lands on the same maximum cell
        pot = single_well(1.0, 2.0)
        xs = []
        for seed in (0, 1):
            res = solve_rescaled(
                0.5, pot, fam, sweep_grid, SolverConfig(restarts=2, seed=seed)
            )
            prof = np.abs(res.w.u.values) + np.abs(res.w.v.values)
            xs.append(sweep_grid.x[int(np.argmax(prof))])
        assert abs(xs[0] - xs[1]) <= sweep_grid.spacing

    def test_double_well_lands_on_a_well(self, fam, sweep_grid):
        pot = double_well(1.0, 2.0, separation=2.0)
        res = solve_rescaled(0.25, pot, fam, sweep_grid, SolverConfig(restarts=1, seed=0))
        prof = np.abs(res.w.u.values) + np.abs(res.w.v.values)
        x_eps = 0.25 * sweep_grid.x[int(np.argmax(prof))]
        assert min(abs(x_eps - 2.0), abs(x_eps + 2.0)) <= 0.5
        # a varying V hands over to Newton only at gradient 1e-5: a 1e-2
        # handoff here stops at 1.0107162330456525
        assert res.level == pytest.approx(1.0102371015541878, rel=1e-9, abs=0)

    def test_sequential_double_well_sweep_stays_in_the_well(self, fam, cfg, sweep_grid):
        # each rung continues from the previous profile at the same physical
        # point; rolling its peak to x = 0 would put it on the hump
        pot = double_well(1.0, 2.0, separation=2.0)
        eps = [1.0, 0.5, 0.35, 0.25]
        sweep = concentration_sweep(eps, pot, fam, sweep_grid, cfg)
        assert not sweep.errors
        assert [r.epsilon for r in sweep.records] == eps
        for rec in sweep.records:
            assert abs(abs(rec.x_eps) - 2.0) <= 0.05
            assert rec.converged
            cold = solve_rescaled(rec.epsilon, pot, fam, sweep_grid, cfg)
            assert rec.level == pytest.approx(cold.level, rel=1e-4, abs=0)


class TestResolvedDoubleWell:
    """double_well(1, 2, 2) on Grid(80, 8192), h ~ 0.0098: the translation
    mode of the linearization is nearly free at the wells, and a steepest
    descent crept along it for its whole step budget."""

    @pytest.fixture(scope="class")
    def grid(self):
        return Grid(80.0, 8192)

    @pytest.fixture(scope="class")
    def pot(self):
        return double_well(1.0, 2.0, separation=2.0)

    def test_cold_descent_from_the_well_converges(self, fam, cfg, grid, pot):
        # steepest descent: out of its 600 steps at level 1.0167383
        eps = 0.5
        bump = Field(grid, np.exp(-((grid.x + 2.0 / eps) ** 2) / 2.0))
        res = outer_minimize(PairField(bump, bump), fam, pot.values(grid, eps), cfg)
        assert res.converged
        assert len(res.trace) <= 100
        assert res.level == pytest.approx(1.0167004271, rel=1e-8, abs=0)
        prof = np.abs(res.w.u.values) + np.abs(res.w.v.values)
        assert abs(eps * grid.x[int(np.argmax(prof))] + 2.0) <= 0.05

    def test_merge_returns_the_well_not_the_hump(self, fam, cfg, grid, pot):
        # both well restarts used to stop at EL residual 1.0018e-3, just over
        # the merge's bar, which then returned the hump saddle at 1.33198
        res = solve_rescaled(1.0, pot, fam, grid, cfg)
        assert res.converged
        assert res.level == pytest.approx(1.0301417271, rel=1e-8, abs=0)
        prof = np.abs(res.w.u.values) + np.abs(res.w.v.values)
        assert abs(grid.x[int(np.argmax(prof))] + 2.03) <= 0.05

    def test_cold_equals_warm_on_the_finer_grid(self, fam, cfg, pot):
        # on Grid(80, 8192) a warm rung may sit one lattice-pinned cell away
        # from the cold solve (up to 6.8e-7 in level); at h ~ 0.0049 both
        # reach the same state
        grid = Grid(80.0, 16384)
        start = solve_rescaled(0.5, pot, fam, grid, cfg)
        cold = solve_rescaled(0.35, pot, fam, grid, cfg)
        # the sweep's continuation: the peak keeps its physical point
        j = int(np.argmax(np.abs(start.w.u.values) + np.abs(start.w.v.values)))
        init = start.w.shift(grid.index_of(grid.x[j] * 0.5 / 0.35) - j)
        warm = solve_rescaled(0.35, pot, fam, grid, cfg, init=init)
        assert start.converged and cold.converged and warm.converged
        assert warm.level == pytest.approx(cold.level, rel=1e-8, abs=0)

    @pytest.mark.parametrize("eps, level", [(0.35, 1.0128401652), (0.25, 1.0105073101)])
    def test_cold_solve_at_small_eps_converges(self, fam, cfg, grid, pot, eps, level):
        # with a 1e-4 handoff Newton spent its 25 steps on the soft
        # translation mode and stopped at EL residual 2.8e-4 and 1.2e-4
        res = solve_rescaled(eps, pot, fam, grid, cfg)
        assert res.converged
        assert res.newton_steps <= 5
        assert res.level == pytest.approx(level, rel=1e-9, abs=0)
        prof = np.abs(res.w.u.values) + np.abs(res.w.v.values)
        assert abs(abs(eps * grid.x[int(np.argmax(prof))]) - 2.0) <= 0.05


def _record_rungs(monkeypatch, mark_unconverged=()):
    """Patch the sweep's newton_first and solve_rescaled to record, per
    call, (start, newton_first's result) and (init, result); the results of
    the rungs in ``mark_unconverged`` come back with ``converged`` false."""
    tried, solved = [], []
    real_first, real_solve = semiclassical.newton_first, semiclassical.solve_rescaled

    def first(w, *args):
        tried.append((w, real_first(w, *args)))
        return tried[-1][1]

    def solve(e, *args, init=None):
        res = real_solve(e, *args, init=init)
        solved.append((init, res))
        return dataclasses.replace(res, converged=False) if e in mark_unconverged else res

    monkeypatch.setattr(semiclassical, "newton_first", first)
    monkeypatch.setattr(semiclassical, "solve_rescaled", solve)
    return tried, solved


class TestNewtonFirst:
    """A warm rung starts with a Newton polish of the shifted previous rung;
    the descent confirms what it reaches, or runs from the unpolished start."""

    EPS = [1.0, 0.5, 0.25, 0.125]

    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp"])
    def test_single_well_rungs_are_confirmed(self, name, cfg, sweep_grid, monkeypatch, caplog):
        fam = builtin_family(name, beta0=1.0)
        pot = single_well(1.0, 2.0)
        tried, solved = _record_rungs(monkeypatch)
        caplog.set_level(logging.INFO, logger="halfwave.semiclassical")
        sweep = concentration_sweep(self.EPS, pot, fam, sweep_grid, cfg)
        assert not sweep.errors and len(tried) == 3
        *logged, auto_logged = [r for r in caplog.records if r.name == "halfwave.semiclassical"]
        assert [r.args[0] for r in logged] == self.EPS[1:]
        assert auto_logged.getMessage() == "autonomous solve: warm start from the eps=0.125 rung"
        assert not sweep.records[0].message.startswith("newton first")
        for (start, (out, steps, res)), (init, rung), rec, log_rec in zip(
                tried, solved[1:], sweep.records[1:], logged):
            # the polished state goes to the descent, which hands it over at
            # once: one inner solve, no descent Newton step, one certificate
            assert out is init and res <= POLISH_TARGET * cfg.el_tol
            assert len(rung.trace) == 1 and rung.newton_steps == 0 and rung.converged
            assert log_rec.args[1:] == ("accepted", steps, res)
            assert rec.message == f"newton first accepted ({steps} steps); {rung.message}"

        # the same sweep with every warm rung falling back to the descent
        monkeypatch.setattr(semiclassical, "newton_first", lambda *a: (None, 0, np.inf))
        fallback = concentration_sweep(self.EPS, pot, fam, sweep_grid, cfg)
        for a, b in zip(sweep.records, fallback.records):
            assert a.level == pytest.approx(b.level, rel=1e-12, abs=0)
            assert a.y_eps == b.y_eps

    def test_double_well_rungs_fall_back(self, fam, cfg, monkeypatch, caplog):
        # the soft translation mode stalls Newton from the warm start on the
        # resolved grid: it stops within 4 steps (4, 2 and 2), and the rung
        # runs the warm descent from the unpolished start
        grid = Grid(80.0, 8192)
        tried, solved = _record_rungs(monkeypatch)
        caplog.set_level(logging.INFO, logger="halfwave.semiclassical")
        eps = [1.0, 0.5, 0.35, 0.25]
        sweep = concentration_sweep(eps, double_well(1.0, 2.0, 2.0), fam, grid, cfg)
        assert not sweep.errors and len(tried) == 3
        logged = [r for r in caplog.records if r.name == "halfwave.semiclassical"]
        for (start, (out, steps, _)), (init, rung), rec, log_rec in zip(
                tried, solved[1:], sweep.records[1:], logged):
            assert out is None and init is start
            assert steps <= 4
            assert log_rec.args[1:3] == ("fell back", steps)
            assert rec.message.startswith(f"newton first fell back ({steps} steps); ")
            assert rung.converged
            assert abs(abs(rec.x_eps) - 2.0) <= 0.05

    def test_no_newton_first_after_an_unconverged_rung(self, fam, cfg, sweep_grid, monkeypatch,
                                                       caplog):
        tried, _ = _record_rungs(monkeypatch, mark_unconverged=(1.0,))
        caplog.set_level(logging.INFO, logger="halfwave.semiclassical")
        sweep = concentration_sweep(self.EPS, single_well(1.0, 2.0), fam, sweep_grid, cfg)
        assert len(tried) == 2
        messages = [r.message for r in sweep.records]
        assert not messages[0].startswith("newton first")
        assert messages[1].startswith("newton first skipped; ")
        assert all(m.startswith("newton first accepted") for m in messages[2:])
        logged = [r.getMessage() for r in caplog.records if r.name == "halfwave.semiclassical"]
        assert logged[0] == "eps=0.5: newton first skipped, the previous rung is unconverged"
        assert len(logged) == 4
        assert logged[3] == "autonomous solve: warm start from the eps=0.125 rung"


class TestAutonomousWarmStart:
    """The sweep solves the autonomous problem last, from the even part of
    its smallest-eps converged rung, and cold when that start fails."""

    CFG = SolverConfig(restarts=2, seed=0)
    SINGLE = (single_well(1.0, 2.0), Grid(80.0, 4096), [1.0, 0.5, 0.25, 0.125])
    DOUBLE = (double_well(1.0, 2.0, 2.0), Grid(80.0, 8192), [1.0, 0.5, 0.35, 0.25])

    @pytest.mark.parametrize("case", [SINGLE, DOUBLE], ids=["single_well", "double_well"])
    def test_one_start_reaches_the_cold_level(self, fam, case, caplog):
        pot, grid, eps = case
        caplog.set_level(logging.INFO, logger="halfwave.semiclassical")
        auto = concentration_sweep(eps, pot, fam, grid, self.CFG).autonomous
        cold = solve_ground_state(fam, 1.0, grid, self.CFG)
        start = f"warm start from the eps={eps[-1]:g} rung"
        assert auto.converged and auto.restarts_run == 1 and cold.restarts_run == 2
        assert auto.level == pytest.approx(cold.level, rel=LEVEL_TIE_RTOL, abs=0)
        assert auto.message.startswith(start + "; ")
        logged = [r for r in caplog.records if r.name == "halfwave.semiclassical"]
        assert logged[-1].getMessage() == "autonomous solve: " + start
        # from the double-well rung without its even part, the polish took
        # 20 Newton steps along the nearly free translation mode
        assert auto.newton_steps <= 5

    @pytest.mark.parametrize("fault, start", [
        ("unconverged", "cold start, the warm start ended unconverged"),
        ("raises", "cold start, the warm start raised NoAscent"),
        ("no rung", "cold start, no rung converged"),
    ])
    def test_failed_warm_start_falls_back_to_cold(self, fam, monkeypatch, caplog, fault, start):
        pot, grid, eps = self.SINGLE
        real = semiclassical.solve_ground_state
        warm_calls = []

        def solve(fam_, V, grid_, cfg_, inits=None):
            # the rungs pass sampled V; only the autonomous warm start passes
            # the scalar V0 with a start
            if np.ndim(V) == 0 and inits is not None:
                warm_calls.append(inits)
                if fault == "raises":
                    raise NoAscent("injected")
                return dataclasses.replace(real(fam_, V, grid_, cfg_, inits), converged=False)
            return real(fam_, V, grid_, cfg_, inits)

        monkeypatch.setattr(semiclassical, "solve_ground_state", solve)
        if fault == "no rung":
            _record_rungs(monkeypatch, mark_unconverged=eps)
        caplog.set_level(logging.INFO, logger="halfwave.semiclassical")
        auto = concentration_sweep(eps, pot, fam, grid, self.CFG).autonomous
        cold = real(fam, 1.0, grid, self.CFG)
        assert len(warm_calls) == (0 if fault == "no rung" else 1)
        assert auto.converged and auto.restarts_run == cold.restarts_run == 2
        assert auto.level == cold.level
        assert auto.message == f"{start}; {cold.message}"
        logged = [r for r in caplog.records if r.name == "halfwave.semiclassical"]
        assert logged[-1].getMessage() == "autonomous solve: " + start
