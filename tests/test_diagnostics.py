import numpy as np
import pytest

from halfwave.diagnostics import (
    TAIL_BAND,
    ResidualReport,
    decay_profile,
    level_bound_check,
    moser_field,
    moser_l2sq_exact,
    moser_table,
    peak,
    pohozaev_residual,
    recenter_pair,
)
from halfwave.energy import PairField
from halfwave.errors import InvalidField, UnderResolved
from halfwave.families import builtin_family
from halfwave.grids import Field, Grid, l2_norm, seminorm_sq
from halfwave.nehari import SolverConfig, build_report, solve_ground_state

from _oracles import moser_seminorm_sq_line
from _testutil import gaussian_bump


@pytest.fixture(scope="module")
def fam():
    return builtin_family("cubic_exp", beta0=1.0)


@pytest.fixture(scope="module")
def ground(fam):
    return solve_ground_state(
        fam, 1.0, Grid(40.0, 2048), SolverConfig(restarts=1, seed=0)
    )


class TestPohozaev:
    def test_zero_pair(self, fam):
        g = Grid(40.0, 256)
        assert pohozaev_residual(PairField.zero(g), fam, 1.0) == 0.0

    def test_converged_ground_state_small(self, fam, ground):
        assert pohozaev_residual(ground.w, fam, 1.0) <= 1e-3

    def test_non_solution_is_order_one(self, fam):
        g = Grid(40.0, 2048)
        b = gaussian_bump(g, amp=3.0)
        res = pohozaev_residual(PairField(b, b), fam, 1.0)
        assert res > 0.1

    def test_translation_invariant(self, fam, ground):
        shifted = ground.w.shift(321)
        assert pohozaev_residual(shifted, fam, 1.0) == pytest.approx(
            pohozaev_residual(ground.w, fam, 1.0), rel=1e-10
        )


class TestMoserField:
    def test_endpoint_values(self):
        g = Grid(40.0, 8192)
        mf = moser_field(16, 2.0, g)
        j_zero = g.index_of(0.0)
        assert mf.raw.values[j_zero] == pytest.approx(np.sqrt(np.log(16.0)), rel=1e-14)
        j_edge = g.index_of(2.0)
        assert mf.raw.values[j_edge] == pytest.approx(0.0, abs=1e-12)
        outside = np.abs(g.x) > 2.0
        assert np.all(mf.raw.values[outside] == 0.0)

    def test_under_resolved_raises(self):
        g = Grid(40.0, 256)
        with pytest.raises(UnderResolved):
            moser_field(64, 2.0, g)
        with pytest.raises(InvalidField):
            moser_field(4, 30.0, Grid(40.0, 8192))

    def test_l2_matches_exact_formula(self):
        g = Grid(40.0, 8192)
        for n in (4, 16, 64):
            mf = moser_field(n, 2.0, g)
            assert l2_norm(mf.raw) ** 2 == pytest.approx(
                moser_l2sq_exact(n, 2.0), rel=1e-4
            )

    def test_seminorm_below_sharp_threshold_and_rising(self):
        # the frozen Gagliardo double-sum oracle (run at build time) puts the
        # n=16, r1=1 seminorm at 2.2330, as does the closed form on the line;
        # spectrally we must match it and the sequence must increase toward
        # its limit pi without crossing
        g = Grid(40.0, 8192)
        semis = []
        for n in (4, 16, 64):
            mf = moser_field(n, 2.0, g)
            s = seminorm_sq(mf.raw)
            assert s < np.pi
            semis.append(s)
        assert semis[0] < semis[1] < semis[2]
        g1 = Grid(40.0, 8192)
        s16 = seminorm_sq(moser_field(16, 1.0, g1).raw)
        assert s16 == pytest.approx(2.2330, abs=5e-3)
        assert moser_seminorm_sq_line(16) == pytest.approx(2.2330, abs=1e-4)

    def test_seminorm_deficit_scales_like_inverse_log(self):
        # deficit * log(n) approaches 7 zeta(3)/pi = 2.6784 on the line; the
        # box adds ~4 pi r1^2 / (3 L^2) = 0.042 here (measured 2.68/2.72)
        g = Grid(40.0, 16384)
        vals = []
        for n in (64, 256):
            s = seminorm_sq(moser_field(n, 4.0, g).raw)
            vals.append((np.pi - s) * np.log(n))
        assert vals[0] == pytest.approx(vals[1], rel=0.05)

    def test_seminorm_independent_of_r1(self):
        g = Grid(40.0, 8192)
        s1 = seminorm_sq(moser_field(16, 1.0, g).raw)
        s2 = seminorm_sq(moser_field(16, 4.0, g).raw)
        assert abs(s1 - s2) / s1 <= 0.02

    def test_l2_ratio_consistent_with_inverse_log(self):
        # ratio n=16 vs n=256 within (log 256 / log 16)^{-1} * (1 +- 0.5)
        g = Grid(40.0, 16384)
        l16 = l2_norm(moser_field(16, 4.0, g).raw) ** 2
        l256 = l2_norm(moser_field(256, 4.0, g).raw) ** 2
        predicted = np.log(16.0) / np.log(256.0)
        assert 0.5 * predicted <= l256 / l16 <= 1.5 * predicted

    def test_normalization(self):
        g = Grid(40.0, 8192)
        mf = moser_field(16, 2.0, g, V0=1.0)
        nrm = np.sqrt(seminorm_sq(mf.normalized) + l2_norm(mf.normalized) ** 2)
        assert nrm == pytest.approx(1.0, rel=1e-12)

    def test_table_has_refinement_rows(self):
        g = Grid(40.0, 8192)
        rows = moser_table([4, 16], 2.0, g)
        n_points = sorted({r.n_points for r in rows})
        assert n_points == [2048, 4096, 8192]
        for row in rows:
            assert row.seminorm_sq < np.pi
            assert row.l2_sq == pytest.approx(row.l2_sq_exact, rel=1e-3)


class TestLevelBound:
    def test_interior_passes(self):
        chk = level_bound_check(np.pi / 2.0, 1.0)
        assert chk.passed and chk.margin > 0

    def test_boundary_fails(self):
        assert not level_bound_check(np.pi, 1.0).passed
        assert not level_bound_check(0.0, 1.0).passed

    def test_monotone_in_level(self):
        # once a level passes, any smaller positive level passes
        for level in (1e-6, 0.3, 2.0):
            assert level_bound_check(level, 1.0).passed

    def test_beta_scaling(self):
        assert level_bound_check(1.5, 2.0).passed is (1.5 < np.pi / 2.0)


class TestDecayAndRecenter:
    def test_compact_bump_has_zero_tail(self):
        g = Grid(40.0, 2048)
        vals = np.where(np.abs(g.x) < 5.0, np.cos(np.pi * g.x / 10.0) ** 2, 0.0)
        w = PairField(Field(g, vals), Field(g, vals))
        metrics = decay_profile(w)
        assert metrics.tail_sup == 0.0

    def test_recenter_contract(self):
        g = Grid(40.0, 2048)
        b = gaussian_bump(g, center=6.5)
        w, shift = recenter_pair(PairField(b, b))
        prof = np.abs(w.u.values) + np.abs(w.v.values)
        assert int(np.argmax(prof)) == g.index_of(0.0)

    def test_peak_on_a_grid_point(self):
        g = Grid(40.0, 2048)
        b = gaussian_bump(g, center=g.x[1300], width=0.3)
        j, offset = peak(PairField(b, 0.5 * b))
        assert j == 1300
        assert abs(offset) <= 1e-12

    def test_peak_half_a_cell_off(self):
        # samples at +-h/2 tie: the fit puts the peak between them
        g = Grid(40.0, 2048)
        b = gaussian_bump(g, center=g.x[1300] + 0.5 * g.spacing, width=0.3)
        j, offset = peak(PairField(b, b))
        assert j in (1300, 1301)
        assert abs(offset) == pytest.approx(0.5, abs=1e-9)
        assert j + offset == pytest.approx(1300.5, abs=1e-9)

    def test_decay_is_measured_about_the_peak(self, ground):
        # a pair whose peak lies in the outer band of the box: the tail band
        # about the peak wraps around the box edge, and the metrics equal
        # those of the recentred pair bit for bit
        g = ground.w.grid
        n = g.n_points
        w = PairField(ground.w.u, ground.w.v.shift(3) * 0.7)
        j_edge = n - 1 - int(0.25 * TAIL_BAND * n)
        moved = w.shift(j_edge - peak(w)[0])
        assert np.abs(g.x[peak(moved)[0]]) >= 0.5 * (1.0 - TAIL_BAND) * g.length
        metrics = decay_profile(moved)
        assert repr(metrics) == repr(decay_profile(recenter_pair(moved)[0]))
        assert 0.0 < metrics.tail_sup <= 1e-2 * metrics.linf_u

    def test_ground_state_tail_and_exponent(self, ground):
        # algebraic far-field of the half-Laplacian soliton: measured
        # tail/amplitude ratio ~4e-3 at L=40
        metrics = decay_profile(ground.w)
        amp = max(metrics.linf_u, metrics.linf_v)
        assert metrics.tail_sup <= 1e-2 * amp

    def test_report_assembly(self, fam, ground):
        report = build_report(ground.w, fam, 1.0)
        assert report.euler_lagrange <= 1e-6
        assert report.nehari <= 1e-6
        assert report.pohozaev <= 1e-3
        assert report.linf_u > 0.5
        d = report.as_dict()
        assert set(d) == {
            "pohozaev",
            "euler_lagrange_u",
            "euler_lagrange_v",
            "nehari_ray",
            "nehari_minus",
            "decay_tail",
            "linf_u",
            "linf_v",
        }

    def test_report_rejects_negative(self):
        with pytest.raises(InvalidField):
            ResidualReport(-1.0, 0, 0, 0, 0, 0, 0, 0)
