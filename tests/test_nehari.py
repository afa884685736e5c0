import ast
import dataclasses
import importlib
import inspect
import logging
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from halfwave.diagnostics import ResidualReport, recenter_pair
from halfwave.energy import (
    PairField,
    el_residual_norms,
    energy,
    nehari_residuals,
    potential_array,
    weighted_inner,
    weighted_norm,
)
from halfwave.errors import HalfwaveError, InvalidField, NoAscent, OverflowGuard
from halfwave.families import builtin_family
from halfwave import nehari
from halfwave.grids import Field, Grid, halflap, inv_multiplier, l2_norm, translate
from halfwave.nehari import (
    INNER_MAX_ITERS,
    INNER_TOL,
    POLISH_HANDOFF_CONSTANT_V,
    POLISH_HANDOFF_VARYING_V,
    GroundStateResult,
    NehariPoint,
    SolverConfig,
    _maximize_along_ray,
    _RaySlice,
    initial_directions,
    inner_maximize,
    outer_minimize,
    solve_ground_state,
)
from halfwave.semiclassical import double_well, single_well, solve_rescaled

from _oracles import scalar_diagonal_solve
from _testutil import gaussian_bump, smooth_random


@pytest.fixture(scope="module")
def fam():
    return builtin_family("cubic_exp", beta0=1.0)


@pytest.fixture(scope="module")
def grid():
    return Grid(40.0, 1024)


@pytest.fixture(scope="module")
def ground(fam, grid):
    return solve_ground_state(fam, 1.0, grid, SolverConfig(restarts=1, seed=0))


def _inner(d: PairField, fam, V, inner_tol=INNER_TOL, warm=None):
    """inner_maximize on the diagonal part of d, normalized as the descent
    normalizes it; without ``warm``, from the cold point."""
    grid = d.grid
    Va = potential_array(V, grid)
    a = 0.5 * (d.u.values + d.v.values)
    ahat, _ = nehari._diag_normalize(a, _fresh_k(a, Va, grid), grid.spacing)
    return inner_maximize(ahat, fam, Va, grid, inner_tol, _cold(grid) if warm is None else warm)


def _cold(grid):
    """The warm start t = 1, q = 0."""
    return NehariPoint(1.0, np.zeros(grid.n_points), np.zeros(grid.n_points))


def _warm(t, q, V, grid):
    """A warm start at (t, q), with K q taken afresh."""
    return NehariPoint(t, q, _fresh_k(q, V, grid))


class TestInnerMaximize:
    def test_pure_antidiagonal_raises(self, fam, grid):
        q = gaussian_bump(grid)
        with pytest.raises(NoAscent):
            _inner(PairField(q, -q), fam, 1.0)

    def test_symmetric_direction_keeps_phi_zero(self, fam, grid):
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), fam, 1.0, inner_tol=1e-10)
        assert not np.any(pt.q)
        assert pt.t > 0
        assert pt.ray_residual <= 1e-10 and pt.minus_residual == 0.0

    def test_cubic_ray_against_root_oracle(self, grid):
        # subcritical surrogate: the ray coordinate solves a scalar equation
        cubic = builtin_family("cubic")
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), cubic, 1.0, inner_tol=1e-12)
        a = 0.5 * (b.values + b.values)
        na = weighted_norm(Field(grid, a), 1.0)
        ahat = Field(grid, a / (np.sqrt(2.0) * na))

        def ray_pairing(t):
            vals = t * ahat.values
            return t * t - 2.0 * grid.spacing * np.sum(cubic.f(vals) * vals)

        oracle = brentq(ray_pairing, 1e-6, 50.0, xtol=1e-14)
        closed = 1.0 / np.sqrt(2.0 * grid.spacing * np.sum(ahat.values**4))
        assert oracle == pytest.approx(closed, rel=1e-12)
        assert pt.t == pytest.approx(oracle, rel=1e-8)

    def test_maximality_over_slice(self, fam, grid):
        # accepted point beats 100 random same-slice competitors
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), fam, 1.0, inner_tol=1e-11)
        a = 0.5 * (b.values + b.values)
        na = weighted_norm(Field(grid, a), 1.0)
        ahat = a / (np.sqrt(2.0) * na)
        rng = np.random.default_rng(5)
        j_star = pt.level
        for _ in range(100):
            t = rng.uniform(0.0, 2.0 * pt.t)
            q = smooth_random(grid, rng, amplitude=rng.uniform(0.0, 0.5))
            z = PairField(
                Field(grid, t * ahat + q.values), Field(grid, t * ahat - q.values)
            )
            assert energy(z, fam, 1.0) <= j_star + 1e-9

    def test_maximality_over_slice_asymmetric(self, grid):
        # f != g, so the maximizer has q != 0: it beats 50 random slice
        # competitors and 50 near it
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-11)
        assert weighted_norm(Field(grid, pt.q), 1.0) > 1e-2 * pt.t
        ahat = b.values / (np.sqrt(2.0) * weighted_norm(b, 1.0))
        rng = np.random.default_rng(5)
        for i in range(100):
            if i < 50:
                t = rng.uniform(0.0, 2.0 * pt.t)
                q = smooth_random(grid, rng, amplitude=rng.uniform(0.0, 0.5)).values
            else:
                t = pt.t * (1.0 + rng.uniform(-1e-2, 1e-2))
                q = pt.q + smooth_random(grid, rng, amplitude=1e-2).values
            z = PairField(Field(grid, t * ahat + q), Field(grid, t * ahat - q))
            assert energy(z, asym, 1.0) <= pt.level + 1e-12

    def test_ray_slope_derivative_against_central_difference(self, grid):
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid).values
        sl = _RaySlice(b / (np.sqrt(2.0) * weighted_norm(Field(grid, b), 1.0)), asym, grid.spacing)
        q = smooth_random(grid, np.random.default_rng(4), amplitude=0.2).values
        for t in (0.5, 1.5, 3.0):
            dt = 1e-5 * (1.0 + t)
            fd = (sl.ray_slope(t + dt, q)[0] - sl.ray_slope(t - dt, q)[0]) / (2.0 * dt)
            assert sl.ray_slope(t, q)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_slice_hessian_against_central_difference(self, grid):
        # -H of J in (t, q) at a state with q != 0 against central
        # differences of (J_t, J_q), J_q as its L2 representative
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid).values
        h = grid.spacing
        sl = _RaySlice(b / (np.sqrt(2.0) * weighted_norm(Field(grid, b), 1.0)), asym, h)
        rng = np.random.default_rng(4)
        t, q = 1.5, smooth_random(grid, rng, amplitude=0.2).values

        def grad(t, q):
            u, v = sl.components(t, q)
            j_q = -2.0 * (halflap(q, grid) + q) - asym.f(u) + asym.g(v)
            return t - h * np.sum((asym.f(u) + asym.g(v)) * sl.ahat), j_q

        m_tt, neg_hess = nehari._slice_hessian(sl, *sl.components(t, q))
        assert m_tt == pytest.approx(-sl.ray_slope(t, q)[1], rel=1e-14)
        for dt, dq in [(1.0, 0.0 * q), (0.0, smooth_random(grid, rng).values),
                       (0.7, smooth_random(grid, rng, amplitude=0.5).values)]:
            eps = 1e-5
            (tp, qp), (tm, qm) = grad(t + eps * dt, q + eps * dq), grad(t - eps * dt, q - eps * dq)
            fd_t, fd_q = (tm - tp) / (2.0 * eps), (qm - qp) / (2.0 * eps)
            op_t, op_q = neg_hess(dt, dq, _fresh_k(dq, 1.0, grid))
            scale = abs(fd_t) + np.max(np.abs(fd_q))
            assert abs(op_t - fd_t) <= 1e-6 * scale
            assert np.max(np.abs(op_q - fd_q)) <= 1e-6 * scale
        # self-adjoint in ab + h sum(x y)
        x, y = smooth_random(grid, rng).values, smooth_random(grid, rng).values
        ax_t, ax_q = neg_hess(0.3, x, _fresh_k(x, 1.0, grid))
        ay_t, ay_q = neg_hess(-1.1, y, _fresh_k(y, 1.0, grid))
        lhs = 0.3 * ay_t + h * np.sum(x * ay_q)
        assert lhs == pytest.approx(-1.1 * ax_t + h * np.sum(y * ax_q), rel=1e-12)

    def test_slice_newton_iteration_bounds(self, grid):
        # cold: one ray search then Newton to 1e-12; warm: from
        # that point on a perturbed direction to 1e-10
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid)
        cold = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-12)
        assert max(cold.ray_residual, cold.minus_residual) <= 1e-12
        assert cold.inner_iters <= 8
        d = b + smooth_random(grid, np.random.default_rng(3)) * 1e-2
        warm = _inner(PairField(d, d), asym, 1.0, inner_tol=1e-10, warm=cold)
        assert max(warm.ray_residual, warm.minus_residual) <= 1e-10
        assert warm.inner_iters <= 6

    def test_non_concave_ray_takes_a_ray_search(self, grid, monkeypatch):
        # at small t the ray is convex (-J_tt < 0): the iteration runs a ray
        # search from t instead of a slice Newton step, and reaches the point
        # the unperturbed solve reaches
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid)
        clean = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-12)
        real, starts = nehari._maximize_along_ray, []

        def low_first(sl, t0, q, q_norm_sq, tol):
            starts.append(t0)
            if len(starts) == 1:
                assert -sl.ray_slope(0.1, q)[1] < 0.0
                return 0.1, sl.j_value(0.1, q, q_norm_sq)
            return real(sl, t0, q, q_norm_sq, tol)

        monkeypatch.setattr(nehari, "_maximize_along_ray", low_first)
        res = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-12)
        assert starts == [1.0, 0.1]
        assert max(res.ray_residual, res.minus_residual) <= 1e-12
        assert res.t == pytest.approx(clean.t, rel=1e-10)
        assert res.level == pytest.approx(clean.level, rel=1e-12)

    def test_budget_exhaustion_carries_best(self, grid, monkeypatch):
        # asymmetric coupling needs several antidiagonal sweeps; the point
        # reached is returned, and its residuals show the miss
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid)
        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", 2)
        best = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-14)
        assert best.inner_iters == 2
        assert max(best.ray_residual, best.minus_residual) > 1e-14
        assert best.t > 0

    def test_budget_message_gives_count_and_reason(self, grid, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="halfwave.nehari")
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        b = gaussian_bump(grid)
        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", 2)
        _inner(PairField(b, b), asym, 1.0, inner_tol=1e-14)
        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", INNER_MAX_ITERS)
        # a step that only descends: the line search stalls on the first
        # iteration, and the point returned is the one its residuals describe
        real = nehari._slice_pcg
        monkeypatch.setattr(nehari, "_slice_pcg", lambda *args: tuple(-x for x in real(*args)))
        best = _inner(PairField(b, b), asym, 1.0, inner_tol=1e-12)
        misses = [r for r in caplog.records if r.getMessage().startswith("inner maximization")]
        assert [r.levelno for r in misses] == [logging.DEBUG, logging.DEBUG]
        budget, stalled = (r.getMessage() for r in misses)
        assert budget.endswith("above tol 1.00e-14, 2 of 2 iterations used (iteration budget exhausted)")
        assert stalled.endswith("above tol 1.00e-12, 1 of 300 iterations used (line search stalled)")
        assert best.inner_iters == 1
        ray, minus = nehari_residuals(best.w, asym, 1.0)
        assert best.ray_residual == pytest.approx(ray, abs=1e-12)
        assert best.minus_residual == pytest.approx(minus, rel=1e-6)
        assert minus > 1e-6


class _FlatRay:
    """Ray with slope 1 - t, so Newton lands on t = 1 exactly, and
    J(1) = j_top - drop; every J evaluation is recorded."""

    def __init__(self, j_top, drop):
        self.j_top, self.drop, self.calls = j_top, drop, []

    def ray_slope(self, t, q):
        return 1.0 - t, -1.0

    def j_value(self, t, q, q_norm_sq):
        self.calls.append(t)
        return self.j_top - self.drop if t == 1.0 else self.j_top


def _bump_ray(grid):
    """The gaussian_bump diagonal direction, scaled so ||(ahat, ahat)|| = 1."""
    b = gaussian_bump(grid).values
    return b / (np.sqrt(2.0) * weighted_norm(Field(grid, b), 1.0))


class _CountedSlice(_RaySlice):
    """_RaySlice that counts its slope and J evaluations."""

    slopes = js = 0

    def ray_slope(self, t, q):
        self.slopes += 1
        return super().ray_slope(t, q)

    def j_value(self, t, q, q_norm_sq):
        self.js += 1
        return super().j_value(t, q, q_norm_sq)


class TestRaySearch:
    @pytest.mark.parametrize("j_top", [1.0060139, 0.5, 3.0])
    def test_warm_maximizer_one_ulp_low_is_kept(self, j_top):
        # J is flat at its maximum: the slope root is returned even where
        # J(1) is an ulp below J(t0), with one J evaluation and no rescan
        ray = _FlatRay(j_top, j_top - np.nextafter(j_top, 0.0))
        t, j = _maximize_along_ray(ray, 1.0 + 1e-9, None, 0.0, 0.0)
        assert (t, j) == (1.0, np.nextafter(j_top, 0.0))
        assert ray.calls == [1.0]

    def test_unbounded_ray_raises_no_ascent(self):
        # f vanishes on u < 0, so J = t^2/2 grows without bound on this ray
        fam = builtin_family("cubic", sign_restricted=True)
        b = gaussian_bump(Grid(40.0, 256))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoAscent, match="no maximum on the ray"):
                _inner(PairField(-b, -b), fam, 1.0)

    @pytest.mark.parametrize("warm", [False, True])
    def test_returns_j_at_maximizer(self, grid, warm):
        # cold: from t0 = 1; warm: from the maximizer of the
        # unperturbed slice q = 0, as inner_maximize restarts from warm_t
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        sl = _RaySlice(_bump_ray(grid), asym, grid.spacing)
        t0 = _maximize_along_ray(sl, 1.0, np.zeros(grid.n_points), 0.0, 0.0)[0] if warm else 1.0
        q = smooth_random(grid, np.random.default_rng(4), amplitude=0.2).values
        q_norm_sq = weighted_inner(Field(grid, q), Field(grid, q), 1.0)
        t, j = _maximize_along_ray(sl, t0, q, q_norm_sq, 0.0)
        assert j == sl.j_value(t, q, q_norm_sq)
        assert abs(sl.ray_slope(t, q)[0]) <= 1e-12 * (1.0 + t)

    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp", "cubic"])
    def test_every_start_finds_the_slope_root(self, grid, name):
        # from far below, near, and far above the maximizer (the last two
        # beyond the exp-safe amplitude for the exponential families)
        ahat = _bump_ray(grid)
        q = np.zeros(grid.n_points)
        ts = []
        for t0 in (1e-6, 1.0, 1e3, 1e6):
            sl = _CountedSlice(ahat, builtin_family(name, beta0=1.0), grid.spacing)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                t, j = _maximize_along_ray(sl, t0, q, 0.0, 0.0)
            assert sl.slopes <= 32
            assert sl.js == 1
            assert abs(sl.ray_slope(t, q)[0]) <= 1e-12
            ts.append(t)
        assert ts == pytest.approx([ts[1]] * 4, rel=1e-14)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp", "cubic"])
    def test_tolerance_stops_at_the_requested_slope(self, grid, name, warm):
        # a tolerance ends the search once |s| <= tol t is assured, sooner
        # than the round-off rule of tol = 0 when tol is loose
        fam = builtin_family(name, beta0=1.0)
        ahat = _bump_ray(grid)
        t0 = _maximize_along_ray(_RaySlice(ahat, fam, grid.spacing), 1.0,
                                 np.zeros(grid.n_points), 0.0, 0.0)[0] if warm else 1.0
        q = smooth_random(grid, np.random.default_rng(4), amplitude=0.2).values
        q_norm_sq = weighted_inner(Field(grid, q), Field(grid, q), 1.0)
        slopes = {}
        for tol in (0.0, 1e-6, 1e-2):
            sl = _CountedSlice(ahat, fam, grid.spacing)
            t, j = _maximize_along_ray(sl, t0, q, q_norm_sq, tol)
            slopes[tol] = sl.slopes
            assert sl.js == 1 and j == sl.j_value(t, q, q_norm_sq)
            assert abs(sl.ray_slope(t, q)[0]) <= max(tol, 1e-15) * t
        assert slopes[1e-2] < slopes[0.0]
        assert slopes[1e-2] <= slopes[1e-6] <= slopes[0.0]


def _same_point(a, b):
    """Two NehariPoints agree bit for bit: scalars by repr, arrays by bytes."""
    def key(p):
        scalars = (p.t, p.ray_residual, p.minus_residual, p.level, p.inner_iters)
        return repr(scalars), [x.tobytes() for x in (p.w.u.values, p.w.v.values, p.q, p.kq)]

    assert key(a) == key(b)


class _Counts(dict):
    """Call counts of the wrapped callables, by name."""

    def wrap(self, name, fun):
        self[name] = 0

        def wrapped(*args, **kwargs):
            self[name] += 1
            return fun(*args, **kwargs)

        return wrapped


class TestSymmetricSlice:
    """f = g from a diagonal start: the slice work that is exactly 0 is
    skipped, and every result is bit for bit the general path's."""

    @pytest.fixture(scope="class", params=[False, True], ids=["plain", "restricted"])
    def sym(self, request):
        return builtin_family("cubic_exp", beta0=1.0, sign_restricted=request.param)

    @pytest.fixture(scope="class", params=["constant", "single_well"])
    def V(self, request, grid):
        return 1.0 if request.param == "constant" else single_well(1.0, 2.0).values(grid, 0.5)

    # the default call, a warm ray start, and slice Newton steps below round-off
    @pytest.mark.parametrize("kw", [{}, {"warm_t": 3.0}, {"inner_tol": 1e-17, "max_inner": 4}])
    def test_inner_point_is_bitwise_the_general_one(self, sym, V, grid, kw, monkeypatch):
        kw = dict(kw)
        if "max_inner" in kw:
            monkeypatch.setattr(nehari, "INNER_MAX_ITERS", kw.pop("max_inner"))
        if "warm_t" in kw:  # from a previous point with q = 0
            kw["warm"] = _warm(kw.pop("warm_t"), np.zeros(grid.n_points), V, grid)
        b = gaussian_bump(grid)
        fast = _inner(PairField(b, b), sym, V, **kw)
        general = dataclasses.replace(sym, symmetric=False)
        _same_point(fast, _inner(PairField(b, b), general, V, **kw))
        assert fast.w.v.values.tobytes() == fast.w.u.values.tobytes()

    def test_ground_state_is_bitwise_the_general_one(self, sym, V, grid):
        cfg = SolverConfig(restarts=2, seed=0)
        fast = solve_ground_state(sym, V, grid, cfg)
        slow = solve_ground_state(dataclasses.replace(sym, symmetric=False), V, grid, cfg)
        # the descent is bitwise the general one; the polish then runs on the
        # one row u, where the stacked pair's norms and dot products round
        # otherwise, so the polished state agrees to round-off (measured on
        # constant V: the level to 1 ulp, the samples to 2.2e-16, the report
        # to 8e-16).  A sampled V is held to the same: the two polishes agree
        # bit for bit on this one, but not on every V (on Grid(40, 2048), the
        # single and double wells have read up to 6.4e-10 apart, relative, in
        # the euler_lagrange certificate of a level that agrees bit for bit)
        def descent(r):
            return repr((r.message, r.restart_index, r.newton_steps, r.restarts_run, r.trace))

        assert descent(fast) == descent(slow)
        assert fast.level == pytest.approx(slow.level, rel=1e-14, abs=0)
        for a, b in ((fast.w.u, slow.w.u), (fast.w.v, slow.w.v)):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-13)
        assert dataclasses.astuple(fast.report) == pytest.approx(
            dataclasses.astuple(slow.report), rel=1e-12, abs=1e-13)

    def test_nonzero_warm_phi_takes_the_general_path(self, sym, grid, monkeypatch):
        b = gaussian_bump(grid)
        phi = 1e-3 * smooth_random(grid, np.random.default_rng(2)).values
        warm = _warm(2.0, phi, 1.0, grid)
        slow = _inner(PairField(b, b), dataclasses.replace(sym, symmetric=False), 1.0, warm=warm)
        counts = _Counts()
        monkeypatch.setattr(nehari, "inv_multiplier",
                            counts.wrap("inv_multiplier", nehari.inv_multiplier))
        fast = _inner(PairField(b, b), sym, 1.0, warm=warm)
        assert counts["inv_multiplier"] > 0
        _same_point(fast, slow)

    def test_diagonal_work_counts(self, grid, monkeypatch):
        counts = _Counts()
        for name in ("apply_k", "inv_multiplier"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        monkeypatch.setattr(_RaySlice, "ray_slope", counts.wrap("slopes", _RaySlice.ray_slope))
        fam = builtin_family("cubic_exp", beta0=1.0)
        kernels = {k: counts.wrap(k, getattr(fam, k)) for k in ("f", "g", "F", "G", "fp", "gp")}
        sym = dataclasses.replace(fam, **kernels)
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), sym, 1.0)
        assert pt.inner_iters == 1
        assert counts["slopes"] > 0
        # f and fp once per slope, f once per residual evaluation, F once
        # at the ray's maximum; nothing of g, and no FFT on q or r
        assert counts == {"apply_k": 0, "inv_multiplier": 0,
                          "slopes": counts["slopes"], "f": counts["slopes"] + 1, "g": 0,
                          "F": 1, "G": 0, "fp": counts["slopes"], "gp": 0}
        # slice Newton steps on the diagonal use f and fp alone too
        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", 4)
        _inner(PairField(b, b), sym, 1.0, inner_tol=1e-17)
        assert counts["g"] == counts["G"] == counts["gp"] == 0

    def test_diagonal_gradient_runs_f_once(self, grid):
        # the descent hands plus u and v as distinct arrays; when they are
        # equal and f = g, f runs once and (c, K c) is the general one, bit
        # for bit
        fam = builtin_family("cubic_exp", beta0=1.0)
        counts = _Counts()
        sym = dataclasses.replace(fam, f=counts.wrap("f", fam.f), g=counts.wrap("g", fam.g))
        u = 2.0 * gaussian_bump(grid).values
        ks = 2.0 * _fresh_k(u, 1.0, grid)
        fast = nehari.make_diagonal_gradient(grid, 1.0, sym)(u, u.copy(), ks)
        assert counts == {"f": 1, "g": 0}
        slow = nehari.make_diagonal_gradient(grid, 1.0, dataclasses.replace(sym, symmetric=False))
        general = slow(u, u.copy(), ks)
        assert counts == {"f": 2, "g": 1}
        assert all(x.tobytes() == y.tobytes() for x, y in zip(fast, general))
        # u != v takes both kernels, whatever the family
        nehari.make_diagonal_gradient(grid, 1.0, sym)(u, 0.5 * u, ks)
        assert counts == {"f": 3, "g": 2}

    def test_slice_newton_steps_take_no_fft(self, grid, monkeypatch):
        # q is exactly 0 on the diagonal, so the slice CG runs in t alone
        counts = _Counts()
        for name in ("apply_k", "inv_multiplier", "_slice_pcg"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        b = gaussian_bump(grid)
        fam = builtin_family("cubic_exp", beta0=1.0)
        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", 4)
        pt = _inner(PairField(b, b), fam, 1.0, inner_tol=1e-17)
        assert pt.inner_iters == 4
        assert counts == {"apply_k": 0, "inv_multiplier": 0, "_slice_pcg": 3}

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_nonlinearity_raises_in_the_loop(self, fam, grid, monkeypatch, symmetric,
                                                        bad):
        # the ray search is bypassed, so the loop's own check must catch f
        def broken(t):
            return np.where(np.abs(t) > 0.5, bad, fam.f(t))

        sick = dataclasses.replace(fam, f=broken, g=broken, symmetric=symmetric)
        monkeypatch.setattr(nehari, "_maximize_along_ray",
                            lambda sl, t0, q, q_norm_sq, tol: (2.0, 0.0))
        b = gaussian_bump(grid)
        with np.errstate(invalid="ignore"), pytest.raises(InvalidField, match="NaN/Inf"):
            _inner(PairField(b, b), sick, 1.0)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_scalar_guard_trips_where_the_array_guard_does(self, grid, restricted, monkeypatch):
        # the diagonal slice tests |t| max|ahat|, the general one max|t ahat|,
        # against the exp-safe amplitude: the ray gives -inf, and the loop
        # raises OverflowGuard at the same sample, from the same t to the ulp
        sym = builtin_family("cubic_exp", beta0=256.0, sign_restricted=restricted)
        general = dataclasses.replace(sym, symmetric=False)
        ahat, q, h = _bump_ray(grid), np.zeros(grid.n_points), grid.spacing
        fast, slow = _RaySlice(ahat, sym, h, diagonal=True), _RaySlice(ahat, general, h)
        ts = [sym.max_safe_amplitude() / np.max(np.abs(ahat))]
        for _ in range(3):
            ts = [np.nextafter(ts[0], 0.0), *ts, np.nextafter(ts[-1], np.inf)]
        tripped = []
        for t in ts + [-t for t in ts]:
            slope, j = fast.ray_slope(t, q), fast.j_value(t, q, 0.0)
            assert repr((slope, j)) == repr((slow.ray_slope(t, q), slow.j_value(t, q, 0.0)))
            tripped.append(j == -np.inf)
            assert (slope == (-np.inf, -np.inf)) == tripped[-1]
            assert np.isfinite(slope).all() != tripped[-1]
        assert tripped[: len(ts)] == tripped[len(ts):]
        assert any(tripped) and not all(tripped)

        monkeypatch.setattr(nehari, "INNER_MAX_ITERS", 1)
        Va = potential_array(1.0, grid)
        for t, trips in zip(ts, tripped):
            monkeypatch.setattr(nehari, "_maximize_along_ray",
                                lambda sl, t0, q, q_norm_sq, tol, t=t: (t, 0.0))
            wheres = []
            for fam in (sym, general):
                try:
                    inner_maximize(ahat, fam, Va, grid, INNER_TOL, _cold(grid))
                    wheres.append(None)
                except OverflowGuard as err:
                    wheres.append((err.where, str(err)))
            assert wheres[0] == wheres[1]
            assert (wheres[0] is not None) == trips
            if trips:
                assert wheres[0][0] == int(np.argmax(ahat))


class TestGroundStateSolve:
    def test_residuals_and_level_window(self, ground):
        assert ground.converged
        assert ground.el_residual <= 1e-6
        assert ground.nehari_residual <= 1e-6
        assert 0.0 < ground.level < np.pi

    def test_ground_state_identity(self, fam, ground):
        # level equals integral(f(u)u/2 - F(u)) + integral(g(v)v/2 - G(v))
        u, v = ground.w.u.values, ground.w.v.values
        h = ground.w.grid.spacing
        dual = h * np.sum(
            0.5 * fam.f(u) * u - fam.F(u) + 0.5 * fam.g(v) * v - fam.G(v)
        )
        assert ground.level == pytest.approx(dual, rel=1e-6)

    def test_trace_monotone_up_to_linesearch(self, ground):
        levels = [rec.level for rec in ground.trace]
        diffs = np.diff(levels)
        assert np.all(diffs <= 1e-8 * (1.0 + np.abs(levels[:-1])))

    def test_recentered_gauge(self, ground):
        prof = np.abs(ground.w.u.values) + np.abs(ground.w.v.values)
        assert int(np.argmax(prof)) == ground.w.grid.index_of(0.0)

    def test_translation_of_init_gives_same_level(self, fam, grid, ground):
        shifted = gaussian_bump(grid, center=-7.3)
        res = outer_minimize(
            PairField(shifted, shifted), fam, 1.0, SolverConfig(seed=0)
        )
        assert res.level == pytest.approx(ground.level, rel=1e-6)

    def test_multistart_deterministic(self, fam, grid):
        cfg = SolverConfig(restarts=3, seed=42)
        r1 = solve_ground_state(fam, 1.0, grid, cfg)
        r2 = solve_ground_state(fam, 1.0, grid, cfg)
        assert r1.level == r2.level
        assert np.array_equal(r1.w.u.values, r2.w.u.values)

    def test_outer_budget_exhaustion(self, fam, grid, caplog):
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        cfg = SolverConfig(seed=0, max_outer=1)
        b = gaussian_bump(grid)
        best = outer_minimize(PairField(b, b), fam, 1.0, cfg)
        assert isinstance(best, GroundStateResult)
        assert best.message == "max_outer reached"
        assert best.level > 0
        assert not best.converged
        assert best.newton_steps == 0
        exhausted = [r for r in caplog.records if r.getMessage().startswith("outer descent")]
        assert len(exhausted) == 1 and exhausted[0].levelno == logging.INFO
        assert exhausted[0].getMessage().endswith(" after 1 steps")

    @pytest.mark.parametrize("max_outer", [600, 1])
    def test_stalled_inner_solves_still_give_a_result(self, monkeypatch, max_outer):
        # every inner solve stalls on its first iteration, the first one of
        # the restart included: the descent goes on from the points reached
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        grid = Grid(40.0, 512)
        clean = solve_ground_state(asym, 1.0, grid, SolverConfig(restarts=1, seed=0))
        real = nehari._slice_pcg
        monkeypatch.setattr(nehari, "_slice_pcg", lambda *args: tuple(-x for x in real(*args)))
        cfg = SolverConfig(restarts=1, seed=0, max_outer=max_outer)
        res = solve_ground_state(asym, 1.0, grid, cfg)
        assert isinstance(res, GroundStateResult)
        assert res.converged == (res.el_residual <= 1e-6 and res.nehari_residual <= 1e-6)
        if max_outer == 1:
            assert not res.converged
            assert res.message == "max_outer reached"
        else:
            # the Newton polish does not need the inner solves to converge
            assert res.converged
            assert res.level == pytest.approx(clean.level, rel=1e-12)

    def test_asymmetric_family_converges(self, grid):
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        res = solve_ground_state(asym, 1.0, grid, SolverConfig(restarts=1, seed=0))
        assert res.converged
        assert res.el_residual <= 1e-6
        assert 0.0 < res.level < np.pi
        # asymmetric coupling: u and v genuinely differ
        diff = l2_norm(res.w.u - res.w.v) / l2_norm(res.w.u)
        assert diff > 1e-2

    def test_degenerate_init_raises(self, fam, grid):
        q = gaussian_bump(grid)
        with pytest.raises(NoAscent):
            outer_minimize(PairField(q, -q), fam, 1.0, SolverConfig(seed=0))


class TestScalarDiagonalOracle:
    def test_matches_system_level(self, fam, grid, ground):
        u = scalar_diagonal_solve(fam, 1.0, grid, SolverConfig(seed=0))
        pair = PairField(u, u)
        level = energy(pair, fam, 1.0)
        assert abs(level - ground.level) / ground.level <= 1e-4

    def test_diagonal_pair_solves_full_system(self, fam, grid):
        u = scalar_diagonal_solve(fam, 1.0, grid, SolverConfig(seed=0))
        res_u, res_v = el_residual_norms(PairField(u, u), fam, 1.0)
        assert max(res_u, res_v) <= 1e-6

    def test_even_symmetry_after_recentering(self, fam, grid):
        u = scalar_diagonal_solve(fam, 1.0, grid, SolverConfig(seed=0))
        pair, _ = recenter_pair(PairField(u, u))
        vals = pair.u.values
        mirrored = np.roll(vals[::-1], 1)  # reflection about the x=0 node
        asym = np.max(np.abs(vals - mirrored)) / np.max(np.abs(vals))
        assert asym <= 1e-6

    def test_energy_identity(self, fam, grid):
        u = scalar_diagonal_solve(fam, 1.0, grid, SolverConfig(seed=0))
        pair = PairField(u, u)
        direct = weighted_inner(u, u, 1.0) - 2.0 * grid.spacing * np.sum(
            fam.F(u.values)
        )
        assert energy(pair, fam, 1.0) == pytest.approx(direct, rel=1e-12)

    def test_requires_symmetric_family(self, grid):
        asym = builtin_family("cubic_quintic_exp", beta0=1.0)
        with pytest.raises(NoAscent):
            scalar_diagonal_solve(asym, 1.0, grid, SolverConfig(seed=0))


DEFAULT_GRID = Grid(40.0, 2048)  # README/CLI default
DEFAULT_GROUND_LEVEL = 1.006013857769  # on-grid minimizer on DEFAULT_GRID
DEFAULT_SADDLE_LEVEL = 1.006416452903  # the same state moved by h/2


# canned certificates: at tolerance (converged) and stalled above it
AT_TOL = ResidualReport(None, 1e-8, 1e-8, 1e-8, 1e-8, 0.0, 1.0, 1.0)
STALLED = ResidualReport(None, 2e-4, 2e-4, 1e-8, 1e-8, 0.0, 1.0, 1.0)


SCREEN_GRID = Grid(40.0, 4096)  # the smallest grid whose restarts are screened


def _merge_of_every_start(fam, V, inits, cfg):
    """outer_minimize from each start, and the result the merge rule picks."""
    per_start = [outer_minimize(init, fam, V, cfg, restart_index=i) for i, init in enumerate(inits)]
    candidates = [r for r in per_start if r.converged] or per_start
    lowest = min(r.level for r in candidates)
    return per_start, next(r for r in candidates if r.level - lowest <= 1e-12 * abs(lowest))


def _assert_same_result(won, full):
    assert (won.level, won.restart_index, won.el_residual) == (
        full.level, full.restart_index, full.el_residual)
    assert np.array_equal(won.w.u.values, full.w.u.values)
    assert np.array_equal(won.w.v.values, full.w.v.values)


def _check_early_stop(name, restarts, seed, grid):
    """A constant-V solve stops after two starts and returns the merge of
    every start; returns the per-start results."""
    fam = builtin_family(name, beta0=1.0)
    cfg = SolverConfig(restarts=restarts, seed=seed)
    per_start, full = _merge_of_every_start(fam, 1.0, initial_directions(grid, cfg, 1.0), cfg)
    won = solve_ground_state(fam, 1.0, grid, cfg)
    assert won.restarts_run == 2
    _assert_same_result(won, full)
    return per_start


@pytest.fixture(scope="module")
def default_starts(fam):
    """outer_minimize from each start of the seed-0, 5-restart default solve."""
    cfg = SolverConfig(restarts=5, seed=0)
    return [
        outer_minimize(init, fam, 1.0, cfg, restart_index=i)
        for i, init in enumerate(initial_directions(DEFAULT_GRID, cfg, 1.0))
    ]


class TestRestartMerge:
    def test_tied_levels_go_to_lowest_restart_index(self, fam, default_starts):
        # on constant V every restart reaches one state; levels that agree to
        # round-off (1e-12 relative) are one state, and where each polish
        # leaves its EL residual must not pick the winner
        per_start = default_starts
        lowest = min(r.level for r in per_start)
        tied = [r for r in per_start if r.level - lowest <= 1e-12 * abs(lowest)]
        assert len(tied) >= 2
        best = min(tied, key=lambda r: r.restart_index)
        # restart 0 is the centred bump for every seed, so the winner and its
        # level do not depend on the seed
        for seed in (0, 1, 2):
            won = solve_ground_state(fam, 1.0, DEFAULT_GRID, SolverConfig(restarts=5, seed=seed))
            assert won.restart_index == best.restart_index == 0
            assert won.level == best.level
            assert won.el_residual == best.el_residual

    @pytest.mark.parametrize("name, restarts", [("cubic_exp", 5), ("cubic_quintic_exp", 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_early_stop_returns_the_full_merge(self, name, restarts, seed):
        # on constant V every start reaches one state up to translation, so
        # the solve that stops at the first tie returns what the merge of
        # every start returns
        per_start = _check_early_stop(name, restarts, seed, DEFAULT_GRID)
        # the two that tie are one state: on a scalar V each result is
        # recentred, so their fields agree sample by sample (on N = 4096
        # only to 1.6e-6 for cubic_exp, seed 0)
        first, second = per_start[:2]
        assert first.converged and second.converged
        for a, b in ((first.w.u, second.w.u), (first.w.v, second.w.v)):
            assert np.max(np.abs(a.values - b.values)) <= 1e-6

    @pytest.mark.parametrize("name, restarts", [("cubic_exp", 5), ("cubic_quintic_exp", 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screened_early_stop_returns_the_full_merge(self, name, restarts, seed):
        # on N = 4096 the starts run on the quarter grid and only the
        # winner's start runs on N = 4096: the result is still the merge of
        # every start run on N = 4096
        _check_early_stop(name, restarts, seed, SCREEN_GRID)

    def test_screened_double_well_returns_the_full_merge(self, fam):
        # a sampled V runs every start; the quarter grid must pick the start
        # whose fine result the merge of every fine result picks, here not
        # restart 0
        grid = Grid(80.0, 4096)
        V = double_well(1.0, 2.0, separation=2.0).values(grid, 0.35)
        cfg = SolverConfig(restarts=5, seed=0)
        _, full = _merge_of_every_start(fam, V, initial_directions(grid, cfg, V), cfg)
        won = solve_ground_state(fam, V, grid, cfg)
        assert won.restarts_run == 5
        assert full.restart_index != 0
        _assert_same_result(won, full)

    def test_restarts_are_screened_on_the_quarter_grid(self, fam, monkeypatch, caplog):
        # N = 2048 runs every start on its own grid; N = 4096 runs the starts
        # on N = 1024, then the winner's own start once on N = 4096; a
        # single given start is run as given
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        real = nehari.outer_minimize
        calls = []

        def recording(init, *args, **kwargs):
            calls.append(init.grid)
            return real(init, *args, **kwargs)

        monkeypatch.setattr(nehari, "outer_minimize", recording)
        cfg = SolverConfig(restarts=5, seed=0)
        won = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg)
        assert calls == [DEFAULT_GRID] * won.restarts_run
        assert not [r for r in caplog.records if r.getMessage().startswith("screened")]
        calls.clear()
        won = solve_ground_state(fam, 1.0, SCREEN_GRID, cfg)
        assert calls == [Grid(40.0, 1024)] * won.restarts_run + [SCREEN_GRID]
        screened = [r for r in caplog.records if r.getMessage().startswith("screened")]
        assert len(screened) == 1 and screened[0].levelno == logging.INFO
        ran, coarse, index, coarse_level, fine, fine_level, gap = screened[0].args
        assert (ran, coarse, fine) == ([0, 1], Grid(40.0, 1024), SCREEN_GRID)
        assert index == won.restart_index
        assert fine_level == won.level and gap == abs(fine_level - coarse_level) > 0.0
        calls.clear()
        init = initial_directions(SCREEN_GRID, cfg, 1.0)[0]
        solve_ground_state(fam, 1.0, SCREEN_GRID, cfg, inits=[init])
        assert calls == [SCREEN_GRID]

    @pytest.mark.parametrize("n, coarse", [(2048, None), (4096, 1024), (4098, None), (4100, None),
                                           (4104, 1026)])
    def test_screening_needs_an_even_quarter_grid_of_1024_points(self, fam, monkeypatch, n, coarse):
        # the coarse points are every fourth fine point, at least 1024 of
        # them and an even number; the potential is decimated with them
        ran = []

        def fake(init, fam, V, cfg, restart_index=0):
            ran.append(init.grid.n_points)
            assert np.shape(V) == (init.grid.n_points,)
            return GroundStateResult(init, 1.0 + restart_index, AT_TOL, converged=True,
                                     restart_index=restart_index)

        monkeypatch.setattr(nehari, "outer_minimize", fake)
        grid = Grid(40.0, n)
        b = gaussian_bump(grid)
        won = solve_ground_state(fam, np.ones(n), grid, SolverConfig(), inits=[PairField(b, b)] * 3)
        assert ran == ([n] * 3 if coarse is None else [coarse] * 3 + [n])
        assert (won.restart_index, won.restarts_run, won.w.grid) == (0, 3, grid)

    def test_dropped_restart_is_logged(self, fam, grid, caplog):
        # a start with no diagonal part ends in NoAscent: the merge goes on
        # without it, and the log says which restart went and why
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        b = gaussian_bump(grid)
        cfg = SolverConfig(restarts=2, seed=0)
        won = solve_ground_state(fam, 1.0, grid, cfg, inits=[PairField(b, -b), PairField(b, b)])
        dropped = [r for r in caplog.records if r.getMessage().startswith("restart ")]
        assert len(dropped) == 1
        assert dropped[0].levelno == logging.INFO
        assert dropped[0].getMessage().startswith("restart 0 dropped: NoAscent: ")
        assert won.restart_index == 1
        assert won.converged
        # when every restart is dropped, the error keeps each one's cause
        with pytest.raises(NoAscent) as exc:
            solve_ground_state(fam, 1.0, grid, cfg, inits=[PairField(b, -b), PairField(b, -b)])
        msg = str(exc.value)
        for idx in (0, 1):
            assert f"restart {idx} dropped: NoAscent: diagonal direction vanished" in msg

    @pytest.fixture
    def canned(self, fam, grid, monkeypatch):
        """solve_ground_state over canned restart results, each (level,
        report) or None for a restart that ends in NoAscent; returns the
        merged result and the restart indices that ran."""
        b = gaussian_bump(grid)
        w = PairField(b, b)

        def solve(*results, V=1.0):
            ran = []

            def fake(init, fam, V, cfg, restart_index=0):
                ran.append(restart_index)
                if results[restart_index] is None:
                    raise NoAscent("canned")
                level, report = results[restart_index]
                return GroundStateResult(w, level, report, converged=report is AT_TOL,
                                         restart_index=restart_index)

            monkeypatch.setattr(nehari, "outer_minimize", fake)
            won = solve_ground_state(fam, V, grid, SolverConfig(restarts=1),
                                     inits=[w] * len(results))
            return won, ran

        return solve

    def test_merge_rule_on_canned_results(self, canned, caplog):
        # converged results first, then the lowest level up to LEVEL_TIE_RTOL,
        # then the first in restart order
        caplog.set_level(logging.WARNING, logger="halfwave.nehari")
        won, _ = canned((1.01, STALLED), (1.02, AT_TOL), (1.03, AT_TOL))
        assert (won.restart_index, won.converged) == (1, True)
        warned = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1
        assert warned[0].getMessage().startswith("unconverged restart 0 (EL residual 2.00e-04)")
        caplog.clear()
        # none converged: the lowest level wins, and nothing lower is left
        assert canned((1.02, STALLED), (1.01, STALLED))[0].restart_index == 1
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        # equal levels, up to round-off: the lowest index wins
        won, _ = canned((1.03, AT_TOL), (1.02 * (1 + 1e-15), AT_TOL), (1.02, AT_TOL))
        assert won.restart_index == 1
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_two_converged_ties_stop_a_constant_v_solve(self, canned, caplog):
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        won, ran = canned(*[(1.02, AT_TOL)] * 5)
        assert ran == [0, 1]
        assert (won.restart_index, won.restarts_run) == (0, 2)
        skipped = [r for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 1 and skipped[0].levelno == logging.INFO
        assert skipped[0].getMessage() == "restarts [2, 3, 4] skipped: restarts 0 and 1 tie at level 1.02"
        caplog.clear()
        # a tie at the last start skips nothing, and says nothing
        won, ran = canned((1.02, AT_TOL), (1.02, AT_TOL))
        assert ran == [0, 1] and won.restarts_run == 2
        assert not [r for r in caplog.records if "skipped" in r.getMessage()]

    def test_levels_apart_keep_the_starts_going(self, canned, caplog):
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        # 0 and 1 are 1e-11 apart, ten times LEVEL_TIE_RTOL; 2 ties with 0 but
        # not at the lowest level; 3 ties with 1, the lowest
        low = 1.02
        won, ran = canned((low * (1 + 1e-11), AT_TOL), (low, AT_TOL), (low * (1 + 1e-11), AT_TOL),
                          (low * (1 + 1e-15), AT_TOL), (low, AT_TOL), (low, AT_TOL))
        assert ran == [0, 1, 2, 3]
        assert (won.restart_index, won.restarts_run) == (1, 4)
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skipped == ["restarts [4, 5] skipped: restarts 1 and 3 tie at level 1.02"]

    def test_unconverged_and_dropped_restarts_never_tie(self, canned):
        # a stalled result at the converged level, and a dropped restart,
        # leave the converged count where it was
        won, ran = canned((1.02, STALLED), (1.02, AT_TOL), None, (1.02, STALLED), (1.02, AT_TOL),
                          (1.02, AT_TOL))
        assert ran == [0, 1, 2, 3, 4]
        assert (won.restart_index, won.restarts_run) == (1, 5)
        won, ran = canned((1.02, STALLED), (1.02, STALLED), (1.02, STALLED))
        assert ran == [0, 1, 2] and won.restarts_run == 3

    def test_sampled_potential_runs_every_start(self, canned, grid, caplog):
        # a sampled V, even a constant one, has wells that compete
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        won, ran = canned(*[(1.02, AT_TOL)] * 4, V=np.ones(grid.n_points))
        assert ran == [0, 1, 2, 3]
        assert (won.restart_index, won.restarts_run) == (0, 4)
        assert not [r for r in caplog.records if "skipped" in r.getMessage()]


def _translated(w, s):
    uv = translate(np.stack([w.u.values, w.v.values]), w.grid, s)
    return PairField(Field(w.grid, uv[0]), Field(w.grid, uv[1]))


class TestNewtonHandoff:
    def test_every_start_reaches_on_grid_minimizer(self, default_starts):
        # a constant-V descent hands over at gradient POLISH_HANDOFF_CONSTANT_V;
        # without centring the handoff state on a grid point, Newton lands on
        # the mid-cell saddle (peak offset +-0.5 cell) from start 3 of seed 1
        # and start 1 of seed 2 (test_no_early_polish_is_rejected), though
        # from none of these seed-0 starts
        for res in default_starts:
            assert res.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)
            assert res.converged
            # taken at the early handoff, not after a rejected polish
            last = res.trace[-1]
            assert last.grad_norm > POLISH_HANDOFF_VARYING_V * (1.0 + abs(last.level))
            assert last.grad_norm <= POLISH_HANDOFF_CONSTANT_V * (1.0 + abs(last.level))

    @pytest.mark.parametrize("fault", ["saddle", "off_manifold"])
    def test_rejected_polish_resumes_descent(self, fam, monkeypatch, fault):
        cfg = SolverConfig(restarts=1, seed=0)
        init = initial_directions(DEFAULT_GRID, cfg, 1.0)[0]
        real = nehari._newton_polish
        calls = []

        def faulty_first(w, fam_, V, target):
            calls.append(w)
            if len(calls) > 1:
                return real(w, fam_, V, target)
            out, res, steps = real(w, fam_, V, target)
            if fault == "saddle":  # the mid-cell saddle: the minimizer moved by h/2, polished
                return real(_translated(out, 0.5 * DEFAULT_GRID.spacing), fam_, V, target)
            return 1.01 * out, res, steps  # off the Nehari manifold

        monkeypatch.setattr(nehari, "_newton_polish", faulty_first)
        res = outer_minimize(init, fam, 1.0, cfg)
        monkeypatch.setattr(nehari, "_newton_polish", real)
        monkeypatch.setattr(nehari, "POLISH_HANDOFF_CONSTANT_V", POLISH_HANDOFF_VARYING_V)
        tight = outer_minimize(init, fam, 1.0, cfg)
        assert len(calls) == 2
        assert res.level == pytest.approx(tight.level, rel=1e-10, abs=0)
        assert res.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)
        assert len(res.trace) == len(tight.trace)
        assert res.converged

    def test_peak_guard_rejects_the_saddle_the_level_check_accepts(self, fam, monkeypatch):
        # on Grid(40, 4096) the mid-cell saddle sits 4e-7 above the on-grid
        # minimizer, below every early handoff level: only the peak offset
        # tells them apart
        grid = Grid(40.0, 4096)
        cfg = SolverConfig(restarts=1, seed=0)
        real_polish, handed = nehari._polish, []

        def recorded(point, *args, **kwargs):
            handed.append(point)
            return real_polish(point, *args, **kwargs)

        monkeypatch.setattr(nehari, "_polish", recorded)
        res = outer_minimize(initial_directions(grid, cfg, 1.0)[0], fam, 1.0, cfg)
        assert len(handed) == 1 and res.converged
        point = handed[0]
        target = nehari.POLISH_TARGET * cfg.el_tol
        saddle, _, _ = nehari._newton_polish(_translated(res.w, 0.5 * grid.spacing), fam, 1.0,
                                             target)
        assert abs(nehari.peak(res.w)[1]) <= 1e-12
        assert abs(nehari.peak(saddle)[1]) == pytest.approx(0.5, abs=1e-3)
        certified = nehari._finalize(saddle, fam, 1.0, [], 0, cfg, "saddle")
        assert res.level < certified.level <= point.level
        assert certified.nehari_residual <= cfg.el_tol
        monkeypatch.setattr(nehari, "_newton_polish", lambda w, fam_, V, target: (saddle, 0.0, 1))
        assert real_polish(point, fam, 1.0, [], cfg, 0, "handed to newton polish", early=True) is None

    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp"])
    def test_no_early_polish_is_rejected(self, name, caplog):
        caplog.set_level(logging.INFO, logger="halfwave.nehari")
        afam = builtin_family(name, beta0=1.0)
        for seed in range(3):
            cfg = SolverConfig(restarts=5, seed=seed)
            for i, init in enumerate(initial_directions(DEFAULT_GRID, cfg, 1.0)):
                caplog.clear()
                res = outer_minimize(init, afam, 1.0, cfg, restart_index=i)
                handoffs = [r.args for r in caplog.records
                            if r.getMessage().startswith("newton handoff")]
                assert len(handoffs) == 1 and res.converged, (seed, i)
                assert handoffs[0][1] == POLISH_HANDOFF_CONSTANT_V
                assert handoffs[0][4] == "accepted", (seed, i)

    def test_handoff_and_newton_steps_are_logged(self, fam, caplog):
        # each of the five default starts, run on its own
        caplog.set_level(logging.DEBUG, logger="halfwave.nehari")
        cfg = SolverConfig(restarts=5, seed=0)
        for i, init in enumerate(initial_directions(DEFAULT_GRID, cfg, 1.0)):
            res = outer_minimize(init, fam, 1.0, cfg, restart_index=i)
            assert res.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)
        handoffs = [r for r in caplog.records if r.getMessage().startswith("newton handoff")]
        steps = [r for r in caplog.records if r.getMessage().startswith("newton step")]
        assert len(handoffs) == 5
        for rec in handoffs:
            _, threshold, handoff_level, polished_level, verdict = rec.args
            assert threshold == POLISH_HANDOFF_CONSTANT_V
            assert verdict == "accepted"
            assert polished_level <= handoff_level
        assert len(steps) >= 5
        for rec in steps:
            assert rec.levelno == logging.DEBUG
            residual, eta, matvecs, damping = rec.args
            assert residual > 0.0 and 0.0 < eta <= nehari.EW_ETA_MAX
            assert matvecs >= 1 and 0.0 <= damping <= 1.0
        # the solve stops after the first two, which tie
        caplog.clear()
        won = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg)
        handoffs = [r for r in caplog.records if r.getMessage().startswith("newton handoff")]
        assert len(handoffs) == won.restarts_run == 2
        assert won.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)

    def test_each_restart_certifies_one_state(self, fam, monkeypatch):
        # the certificates are taken for the state a restart returns, not
        # for the descent states the polish replaces
        real = nehari.build_report
        calls = []

        def counted(w, fam_, V):
            calls.append(w)
            return real(w, fam_, V)

        monkeypatch.setattr(nehari, "build_report", counted)
        cfg = SolverConfig()
        assert cfg.restarts == 5
        for i, init in enumerate(initial_directions(DEFAULT_GRID, cfg, 1.0)):
            before = len(calls)
            outer_minimize(init, fam, 1.0, cfg, restart_index=i)
            assert len(calls) - before == 1
        calls.clear()
        won = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg)
        assert len(calls) == won.restarts_run == 2

    def test_converged_start_leaves_through_the_handoff(self, fam, monkeypatch):
        # a start that already solves the system has a gradient far below
        # every handoff threshold: the descent hands it to a 0-step polish,
        # which returns it certified once
        cfg = SolverConfig(restarts=1, seed=0)
        res = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg)
        real = nehari.build_report
        calls = []

        def counted(w, fam_, V):
            calls.append(w)
            return real(w, fam_, V)

        monkeypatch.setattr(nehari, "build_report", counted)
        again = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg, inits=[res.w])
        assert again.level == pytest.approx(res.level, rel=1e-12, abs=0)
        assert again.message == "handed to newton polish + newton polish (0 steps)"
        assert again.newton_steps == 0
        assert len(again.trace) == 1
        assert len(calls) == 1
        assert again.converged

    def test_varying_v_polish_work_is_stable_under_ulp_flips(self, fam, monkeypatch):
        # a weakly pinned single-well state: the polish must do the same work
        # from starts one ulp apart, not an amount decided by round-off
        grid = Grid(80.0, 2048)
        real = nehari._newton_polish
        handed = []

        def record(w, fam_, V, target):
            handed.append((w, V, target))
            return real(w, fam_, V, target)

        monkeypatch.setattr(nehari, "_newton_polish", record)
        solve_rescaled(0.5, single_well(1.0, 2.0), fam, grid, SolverConfig(restarts=1, seed=0))
        w, V, target = handed[0]
        assert np.ndim(V) == 1

        calls = 0

        def counted(fun):
            def wrapped(t):
                nonlocal calls
                calls += 1
                return fun(t)

            return wrapped

        # the stacked polish, and the one-row polish of f = g, which needs u == v
        # and so flips u and v together
        for symmetric in (False, True):
            cfam = dataclasses.replace(fam, f=counted(fam.f), g=counted(fam.g), symmetric=symmetric)
            work = []
            for seed in range(5):
                u = w.u.values
                if seed:
                    rng = np.random.default_rng(seed)
                    u = np.nextafter(u, rng.choice([-np.inf, np.inf], size=u.size))
                start = PairField(Field(grid, u), Field(grid, u) if symmetric else w.v)
                calls = 0
                _, res, steps = real(start, cfam, V, target)
                assert res <= target
                work.append((steps, calls))
            assert len(set(work)) == 1, (symmetric, work)


class TestInnerTolerance:
    """Each inner solve runs to max(INNER_TOL, min(handoff, 0.02 |g|)), |g|
    the gradient of the step it serves, and the first to max(INNER_TOL,
    handoff)."""

    ASYM = builtin_family("cubic_quintic_exp", beta0=1.0)

    @staticmethod
    def _recorded(monkeypatch):
        """Patch inner_maximize to record (inner_tol, warm, polishes so far)."""
        real, calls, polishes = nehari.inner_maximize, [], []

        def recorded(ahat, fam_, Va, grid_, inner_tol, *args, warm=None, **kwargs):
            calls.append((inner_tol, warm, len(polishes)))
            return real(ahat, fam_, Va, grid_, inner_tol, *args, warm=warm, **kwargs)

        monkeypatch.setattr(nehari, "inner_maximize", recorded)
        return calls, polishes

    @staticmethod
    def _check(res, calls, handoffs):
        # a line-search trial warm-starts from the point of the step it
        # serves, whose trace record holds that step's gradient
        by_level = {rec.level: rec for rec in res.trace}
        assert len(by_level) == len(res.trace)
        assert calls[0][0] == max(nehari.INNER_TOL, handoffs[0])
        for tol, warm, polishes in calls[1:]:
            rec = by_level[warm.level]
            want = max(nehari.INNER_TOL, min(handoffs[polishes], 0.02 * rec.grad_norm))
            assert tol == want
        return [tol for tol, _, _ in calls[1:]]

    def test_constant_v_schedule_is_live(self, monkeypatch):
        calls, _ = self._recorded(monkeypatch)
        cfg = SolverConfig(restarts=1, seed=0)
        init = initial_directions(DEFAULT_GRID, cfg, 1.0)[0]
        res = outer_minimize(init, self.ASYM, 1.0, cfg)
        assert res.converged
        tols = self._check(res, calls, [POLISH_HANDOFF_CONSTANT_V])
        assert max(tols) > POLISH_HANDOFF_VARYING_V
        assert max(tols) <= POLISH_HANDOFF_CONSTANT_V

    @pytest.mark.parametrize("name", ["single_well", "double_well"])
    def test_varying_v_stays_at_its_handoff(self, grid, monkeypatch, name):
        calls, _ = self._recorded(monkeypatch)
        b = gaussian_bump(grid, width=1.5)
        res = outer_minimize(PairField(b, b), self.ASYM, _sampled(name, grid),
                             SolverConfig(seed=0))
        assert res.converged
        tols = self._check(res, calls, [POLISH_HANDOFF_VARYING_V])
        assert max(tols) <= POLISH_HANDOFF_VARYING_V

    def test_rejected_polish_tightens_the_schedule(self, fam, monkeypatch):
        # after a rejected early polish the descent heads for the varying-V
        # handoff, and its inner solves are capped there
        calls, polishes = self._recorded(monkeypatch)
        real = nehari._newton_polish

        def saddle_first(w, fam_, V, target):
            polishes.append(None)
            if len(polishes) == 1:  # the mid-cell saddle, polished: rejected
                out, _, _ = real(w, fam_, V, target)
                w = _translated(out, 0.5 * DEFAULT_GRID.spacing)
            return real(w, fam_, V, target)

        monkeypatch.setattr(nehari, "_newton_polish", saddle_first)
        cfg = SolverConfig(restarts=1, seed=0)
        res = outer_minimize(initial_directions(DEFAULT_GRID, cfg, 1.0)[0], fam, 1.0, cfg)
        assert len(polishes) == 2 and res.converged
        self._check(res, calls, [POLISH_HANDOFF_CONSTANT_V, POLISH_HANDOFF_VARYING_V])
        assert any(p == 1 for _, _, p in calls)


class TestOneRowPolish:
    """f = g from a start with u == v: the polish runs on the one row u."""

    TARGET = 5e-8

    @pytest.fixture(scope="class")
    def start(self, ground, grid):
        u = 1.02 * ground.w.u.values
        return PairField(Field(grid, u), Field(grid, u))

    @pytest.fixture
    def shapes(self, monkeypatch):
        """The shapes of the GMRES operators, one per solve."""
        real, shapes = nehari.gmres, []

        def recorded(A, b, **kw):
            shapes.append(A.shape)
            return real(A, b, **kw)

        monkeypatch.setattr(nehari, "gmres", recorded)
        return shapes

    def test_polish_works_on_one_row(self, fam, grid, start, shapes):
        counts = _Counts()
        kernels = {k: counts.wrap(k, getattr(fam, k)) for k in ("f", "g", "F", "G", "fp", "gp")}
        out, res, steps = nehari._newton_polish(start, dataclasses.replace(fam, **kernels), 1.0,
                                                self.TARGET)
        assert res <= self.TARGET and steps >= 2
        assert counts["f"] > 0 and counts["fp"] > 0
        assert counts["g"] == counts["G"] == counts["gp"] == counts["F"] == 0
        assert set(shapes) == {(grid.n_points, grid.n_points)}
        assert out.u.values.tobytes() == out.v.values.tobytes()

    def test_agrees_with_the_stacked_polish(self, fam, start):
        one, res_one, _ = nehari._newton_polish(start, fam, 1.0, self.TARGET)
        stacked = dataclasses.replace(fam, symmetric=False)
        two, res_two, _ = nehari._newton_polish(start, stacked, 1.0, self.TARGET)
        assert res_one <= self.TARGET and res_two <= self.TARGET
        for a, b in ((one.u, two.u), (one.v, two.v)):
            assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_unequal_rows_take_the_stacked_polish(self, fam, grid, start, shapes):
        v = np.nextafter(start.v.values, np.inf)
        nehari._newton_polish(PairField(start.u, Field(grid, v)), fam, 1.0, self.TARGET)
        assert set(shapes) == {(2 * grid.n_points, 2 * grid.n_points)}


def _sampled(name, grid):
    """The potential ``name`` as the solver takes it on ``grid``."""
    if name == "constant":
        return 1.0
    pot = single_well(1.0, 2.0) if name == "single_well" else double_well(1.0, 2.0, 2.0)
    return pot.values(grid, 0.5)


def _fresh_k(x, V, grid):
    """K x = (-Delta)^{1/2} x + V x, with its own FFT."""
    return halflap(x, grid) + np.asarray(V) * x


class TestKImages:
    """K = P^{-1} + (V - vbar) for P = (|k| + vbar)^{-1}: the solver takes
    the K-image of a vector it has just preconditioned without an FFT, and
    carries K-images forward; every carried number matches a fresh one."""

    ASYM = builtin_family("cubic_quintic_exp", beta0=1.0)

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("potential", ["constant", "single_well", "double_well"])
    def test_k_of_a_preconditioned_vector(self, grid, potential, rows):
        V = np.asarray(_sampled(potential, grid))
        vbar = float(np.mean(V))
        shape = (grid.n_points,) if rows == 1 else (rows, grid.n_points)
        x = np.random.default_rng(rows).standard_normal(shape)
        z = inv_multiplier(x, grid, vbar)
        fresh = _fresh_k(z, V, grid)
        assert np.max(np.abs(fresh - (x + (V - vbar) * z))) <= 1e-13 * np.max(np.abs(fresh))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["one_row", "stacked"])
    def test_polish_matvec_takes_one_multiplier(self, fam, grid, ground, monkeypatch, symmetric):
        # the fused product J P y against J applied afresh to P y, with the
        # Jacobian's coupling read off the operator's closure
        V = _sampled("single_well", grid)
        ops = []
        real = nehari.gmres

        def recorded(A, b, **kw):
            ops.append((A, b))
            return real(A, b, **kw)

        monkeypatch.setattr(nehari, "gmres", recorded)
        u = 1.02 * ground.w.u.values
        start = PairField(Field(grid, u), Field(grid, u))
        pfam = fam if symmetric else self.ASYM
        nehari._newton_polish(start, pfam, V, 5e-8)
        op, b = ops[-1]
        rows = 1 if symmetric else 2
        assert op.shape[0] == rows * grid.n_points
        jacobian = inspect.getclosurevars(op.matvec).nonlocals
        z = inv_multiplier(b.reshape(rows, -1), grid, float(np.mean(V)))
        fresh = _fresh_k(z, V, grid) - jacobian["coupling"] * z[::-1]
        counts = _Counts()
        for name in ("apply_k", "inv_multiplier"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        fused = op.matvec(b)
        assert counts == {"apply_k": 0, "inv_multiplier": 1}
        assert np.max(np.abs(fused - fresh.ravel())) <= 1e-13 * np.max(np.abs(fresh))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["one_row", "stacked"])
    def test_polish_step_takes_ffts_in_gmres_alone(self, fam, grid, ground, monkeypatch,
                                                   symmetric):
        # one multiplier per GMRES product and none else: the step is the P y
        # of GMRES's last product; K is applied once, to the start, and the
        # K uv carried through the trials matches a fresh K
        energy_module = importlib.import_module("halfwave.energy")
        V = _sampled("single_well", grid)
        counts = _Counts()
        monkeypatch.setattr(energy_module, "halflap",
                            counts.wrap("K", energy_module.halflap))
        for name in ("apply_k", "inv_multiplier"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        real_gmres, real_strong, carried = nehari.gmres, nehari.strong_residual, []

        def counted_gmres(A, b, **kw):
            def product(x):
                counts["products"] += 1
                return A.matvec(x)

            return real_gmres(nehari.Operator(A.shape, A.dtype, product), b, **kw)

        def recorded_strong(uv, fam_, Va, grid_, kuv=None):
            carried.append((uv, kuv))
            return real_strong(uv, fam_, Va, grid_, kuv)

        counts["products"] = 0
        monkeypatch.setattr(nehari, "gmres", counted_gmres)
        monkeypatch.setattr(nehari, "strong_residual", recorded_strong)
        u = 1.02 * ground.w.u.values
        start = PairField(Field(grid, u), Field(grid, u))
        _, res, steps = nehari._newton_polish(start, fam if symmetric else self.ASYM, V, 5e-8)
        assert res <= 5e-8 and steps >= 2
        assert counts == {"K": 1, "apply_k": 1, "inv_multiplier": counts["products"],
                          "products": counts["products"]}
        assert len(carried) > steps
        for uv, kuv in carried:
            fresh = _fresh_k(uv, V, grid)
            assert np.max(np.abs(kuv - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    def test_slice_cg_iteration_takes_one_multiplier(self, grid, monkeypatch):
        V = _sampled("single_well", grid)
        vbar = float(np.mean(V))
        h = grid.spacing
        b = gaussian_bump(grid).values
        sl = _RaySlice(b / (np.sqrt(2.0) * weighted_norm(Field(grid, b), V)), self.ASYM, h)
        q = smooth_random(grid, np.random.default_rng(4), amplitude=0.1).values
        t, _ = _maximize_along_ray(sl, 1.0, q, weighted_inner(Field(grid, q), Field(grid, q), V), 0.0)
        u, v = sl.components(t, q)
        r = -2.0 * _fresh_k(q, V, grid) - self.ASYM.f(u) + self.ASYM.g(v)
        jt = t - h * float((self.ASYM.f(u) + self.ASYM.g(v)) @ sl.ahat)
        m_tt, neg_hess = nehari._slice_hessian(sl, u, v)
        rho = inv_multiplier(r, grid, vbar)
        counts = _Counts()
        for name in ("apply_k", "inv_multiplier"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        hess = counts.wrap("iterations", neg_hess)
        dt, dq, kdq = nehari._slice_pcg(hess, m_tt, jt, r, rho, V - vbar, grid, vbar, 1e-12)
        assert counts["iterations"] >= 5
        assert counts == {"apply_k": 0, "inv_multiplier": counts["iterations"],
                          "iterations": counts["iterations"]}
        fresh = _fresh_k(dq, V, grid)
        assert np.max(np.abs(kdq - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    def test_slice_cg_takes_the_preconditioned_gradient_on_first_negative_curvature(self, grid):
        # Steihaug's exit at the first direction: where -H curves down along
        # the preconditioned gradient (here -H flipped), that gradient is the
        # step, with its K-image carried
        V = _sampled("single_well", grid)
        vbar = float(np.mean(V))
        h = grid.spacing
        b = gaussian_bump(grid).values
        sl = _RaySlice(b / (np.sqrt(2.0) * weighted_norm(Field(grid, b), V)), self.ASYM, h)
        q = smooth_random(grid, np.random.default_rng(4), amplitude=0.1).values
        t, _ = _maximize_along_ray(sl, 1.0, q, weighted_inner(Field(grid, q), Field(grid, q), V), 0.0)
        u, v = sl.components(t, q)
        r = -2.0 * _fresh_k(q, V, grid) - self.ASYM.f(u) + self.ASYM.g(v)
        jt = t - h * float((self.ASYM.f(u) + self.ASYM.g(v)) @ sl.ahat)
        m_tt, neg_hess = nehari._slice_hessian(sl, u, v)
        assert m_tt > 0.0
        rho = inv_multiplier(r, grid, vbar)
        calls = []

        def flipped(dt, dq, kdq):
            calls.append(None)
            at, aq = neg_hess(dt, dq, kdq)
            return -at, -aq

        dt, dq, kdq = nehari._slice_pcg(flipped, m_tt, jt, r, rho, V - vbar, grid, vbar, 1e-12)
        assert len(calls) == 1
        assert dt == jt / m_tt and np.array_equal(dq, 0.5 * rho)
        fresh = _fresh_k(dq, V, grid)
        assert np.max(np.abs(kdq - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_inner_maximize_takes_no_halflap(self, grid, monkeypatch, warm):
        # a warm start hands K q in with q, so no start takes an FFT of q
        Va = potential_array(_sampled("single_well", grid), grid)
        a = gaussian_bump(grid).values
        ahat, _ = nehari._diag_normalize(a, _fresh_k(a, Va, grid), grid.spacing)
        phi = 1e-2 * smooth_random(grid, np.random.default_rng(2)).values
        start = _warm(1.0, phi, Va, grid) if warm else _cold(grid)
        counts = _Counts()
        for name in ("apply_k", "inv_multiplier"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        real_hessian, cg_iterations = nehari._slice_hessian, []

        def counted_hessian(*args):
            m_tt, neg_hess = real_hessian(*args)

            def counted(*hess_args):
                cg_iterations.append(None)
                return neg_hess(*hess_args)

            return m_tt, counted

        monkeypatch.setattr(nehari, "_slice_hessian", counted_hessian)
        pt = inner_maximize(ahat, self.ASYM, Va, grid, inner_tol=1e-12, warm=start)
        assert pt.inner_iters >= 3
        # one multiplier per residual evaluation and per CG iteration
        assert counts == {"apply_k": 0, "inv_multiplier": pt.inner_iters + len(cg_iterations)}

    @pytest.mark.parametrize("antidiagonal", [0.0, 0.1], ids=["diagonal", "antidiagonal"])
    def test_descent_hands_each_inner_solve_its_warm_start(self, grid, monkeypatch,
                                                           antidiagonal):
        # the first inner solve gets the start's own t0 = ||(a0, a0)||_W and
        # (u - v) / 2 with its K image, taken once, or q all zero when that
        # part is 0; every later one gets a point an earlier inner solve
        # returned
        V = _sampled("single_well", grid)
        real, warms, points = nehari.inner_maximize, [], []

        def recorded(*args, warm=None, **kwargs):
            warms.append(warm)
            points.append(real(*args, warm=warm, **kwargs))
            return points[-1]

        monkeypatch.setattr(nehari, "inner_maximize", recorded)
        b = gaussian_bump(grid)
        q = smooth_random(grid, np.random.default_rng(3), amplitude=antidiagonal)
        outer_minimize(PairField(b + q, b - q), self.ASYM, V, SolverConfig(seed=0, max_outer=3))
        first = warms[0]
        t0 = np.sqrt(2.0 * grid.spacing * float(b.values @ _fresh_k(b.values, V, grid)))
        assert first.t == pytest.approx(t0, rel=1e-14, abs=0)
        if antidiagonal:
            kq = _fresh_k(first.q, V, grid)
            assert np.any(first.q)
            assert np.max(np.abs(first.kq - kq)) <= 1e-13 * np.max(np.abs(kq))
        else:
            assert not np.any(first.q) and not np.any(first.kq)
        assert len(warms) >= 3
        assert all(any(w is p for p in points) for w in warms[1:])

    @pytest.mark.parametrize("antidiagonal", [0.0, 0.1], ids=["diagonal", "antidiagonal"])
    def test_descent_applies_halflap_to_its_start_alone(self, grid, monkeypatch, antidiagonal):
        # K a of the start, and K q when the start has an antidiagonal part;
        # every trial's K a comes from the carried K d.  The one polish
        # applies K once more, to its own start
        V = _sampled("single_well", grid)
        counts = _Counts()
        for name in ("apply_k", "_newton_polish"):
            monkeypatch.setattr(nehari, name, counts.wrap(name, getattr(nehari, name)))
        b = gaussian_bump(grid)
        q = smooth_random(grid, np.random.default_rng(3), amplitude=antidiagonal)
        res = outer_minimize(PairField(b + q, b - q), self.ASYM, V, SolverConfig(seed=0))
        assert res.converged and len(res.trace) >= 5
        assert counts == {"apply_k": 3 if antidiagonal else 2, "_newton_polish": 1}

    # The residuals below are compared on the scale the solver holds them
    # against: minus_residual, ||rho|| / (sqrt(2) ||w||), is scale-free and
    # meets inner_tol; the outer gradient meets a threshold times
    # 1 + |level|.  On that scale the gaps measure 4e-18 and 2e-16.  Relative
    # to the residual itself they reach 4e-2 at inner_tol 1e-12, where the
    # residual sits at its round-off floor of 1e-16.
    @pytest.mark.parametrize("inner_tol", [nehari.INNER_TOL, 1e-12])
    @pytest.mark.parametrize("potential", ["constant", "single_well"])
    def test_carried_images_give_the_fresh_antidiagonal_residual(self, grid, potential,
                                                                 inner_tol):
        V = _sampled(potential, grid)
        Va, vbar = np.asarray(V), float(np.mean(V))
        b = gaussian_bump(grid)
        pt = _inner(PairField(b, b), self.ASYM, V, inner_tol=inner_tol)
        assert pt.minus_residual <= inner_tol and pt.inner_iters >= 3
        q, u, v = pt.q, pt.w.u.values, pt.w.v.values
        kq = _fresh_k(q, V, grid)
        assert np.max(np.abs(pt.kq - kq)) <= 1e-13 * np.max(np.abs(kq))
        r = -2.0 * kq - self.ASYM.f(u) + self.ASYM.g(v)
        rho = Field(grid, inv_multiplier(r, grid, vbar))
        nw2 = pt.t**2 + 2.0 * weighted_inner(Field(grid, q), Field(grid, q), Va)
        fresh = weighted_norm(rho, Va) / np.sqrt(2.0 * nw2)
        assert abs(pt.minus_residual - fresh) <= 1e-14

    @pytest.mark.parametrize("potential", ["constant", "single_well"])
    def test_carried_images_give_the_fresh_outer_gradient(self, grid, monkeypatch, potential):
        V = _sampled(potential, grid)
        Va, vbar, h = np.asarray(V), float(np.mean(V)), grid.spacing
        real, points = nehari.inner_maximize, {}

        def recorded(ahat, *args, **kwargs):
            pt = real(ahat, *args, **kwargs)
            points[pt.level] = (ahat, pt)
            return pt

        monkeypatch.setattr(nehari, "inner_maximize", recorded)
        b = gaussian_bump(grid, width=1.5)
        res = outer_minimize(PairField(b, b), self.ASYM, V, SolverConfig(seed=0))
        assert res.converged and len(res.trace) >= 5
        for rec in res.trace:
            a, pt = points[rec.level]
            u, v = pt.w.u.values, pt.w.v.values
            c = inv_multiplier(_fresh_k(u + v, V, grid) - self.ASYM.f(u) - self.ASYM.g(v),
                               grid, vbar)
            ka, kc = _fresh_k(a, V, grid), _fresh_k(c, V, grid)
            coeff = h * float(ka @ c)
            g, kg = pt.t * (0.5 * c - coeff * a), pt.t * (0.5 * kc - coeff * ka)
            fresh = np.sqrt(2.0 * h * float(kg @ g))
            assert abs(rec.grad_norm - fresh) <= 1e-14 * (1.0 + abs(rec.level))


def _outer_steps(records):
    """Args of the DEBUG "outer step" log records: (level, gradient, step,
    trials, memory pairs, reset)."""
    return [r.args for r in records if r.getMessage().startswith("outer step")]


class TestOuterDescent:
    def test_two_loop_matches_dense_bfgs(self):
        # with K = I the recursion is the BFGS inverse update of H0 = gamma I
        rng = np.random.default_rng(3)
        n = 12
        pairs = []
        for _ in range(nehari.LBFGS_MEMORY):
            s = rng.normal(size=n)
            y = s + 0.3 * rng.normal(size=n)
            pairs.append((s, s, y, y, 1.0 / float(s @ y)))
        s, _, y, _, rho = pairs[-1]
        H = np.eye(n) / (rho * float(y @ y))
        for s, _, y, _, rho in pairs:
            E = np.eye(n) - rho * np.outer(s, y)
            H = E @ H @ E.T + rho * np.outer(s, s)
        g = rng.normal(size=n)
        d, kd = nehari._lbfgs_direction(g, g, pairs)
        assert d == pytest.approx(H @ g, rel=1e-12, abs=1e-12)
        assert kd == pytest.approx(H @ g, rel=1e-12, abs=1e-12)
        d, kd = nehari._lbfgs_direction(g, 2.0 * g, [])
        assert np.array_equal(d, g) and np.array_equal(kd, 2.0 * g)

    def test_every_direction_descends_under_a_scrambled_gradient(self, fam, grid, monkeypatch):
        # a gradient rescaled by a different factor at every evaluation
        # scrambles the secant pairs; the pairs kept still give a direction
        # that descends along the gradient the step uses
        real_gradient = nehari.make_diagonal_gradient
        real_direction = nehari._lbfgs_direction
        V = 1.0

        def scrambled(grid_, Va, fam_):
            plus = real_gradient(grid_, Va, fam_)
            calls = []

            def wrapped(u, v, ks):
                calls.append(None)
                scale = 1.0 + 0.6 * np.sin(1.7 * len(calls))
                c, kc = plus(u, v, ks)
                return scale * c, scale * kc

            return wrapped

        slopes, memory_sizes = [], []

        def spied(g, kg, memory):
            d, kd = real_direction(g, kg, memory)
            slopes.append(weighted_inner(Field(grid, g), Field(grid, d), V))
            memory_sizes.append(len(memory))
            return d, kd

        monkeypatch.setattr(nehari, "make_diagonal_gradient", scrambled)
        monkeypatch.setattr(nehari, "_lbfgs_direction", spied)
        b = gaussian_bump(grid, width=2.0)
        res = outer_minimize(PairField(b, b), fam, V, SolverConfig(seed=0))
        assert len(slopes) >= 5
        assert max(memory_sizes) >= 2
        assert min(slopes) > 0.0
        assert res.converged

    def test_non_descent_direction_resets_the_memory(self, fam, caplog, monkeypatch):
        # a two-loop built from pairs with <s, y> > 0 is positive definite, so
        # a direction that does not descend is injected at the direction: the
        # step then goes along the gradient with an empty memory
        caplog.set_level(logging.DEBUG, logger="halfwave.nehari")
        real = nehari._lbfgs_direction
        calls = []

        def flipped_once(g, kg, memory):
            calls.append(len(memory))
            d, kd = real(g, kg, memory)
            return (-d, -kd) if len(calls) == 4 else (d, kd)

        monkeypatch.setattr(nehari, "_lbfgs_direction", flipped_once)
        cfg = SolverConfig(restarts=1, seed=0)
        res = outer_minimize(initial_directions(DEFAULT_GRID, cfg, 1.0)[0], fam, 1.0, cfg)
        steps = _outer_steps(caplog.records)
        assert calls[3] >= 2
        resets = [i for i, (*_, reset) in enumerate(steps) if reset]
        assert resets == [3]
        _, _, step, _, memory, _ = steps[3]
        assert memory == 0 and step > 0.0
        assert steps[4][4] <= 1
        assert res.converged
        assert res.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)

    def test_default_solve_accepts_most_first_trials(self, fam, monkeypatch):
        # step doubling threw away every other trial (ratio 0.5); a unit
        # L-BFGS step is accepted at the first trial almost always, from
        # each of the five default starts
        real_inner = nehari.inner_maximize
        inner_calls, traces = [], []

        def counted_inner(*args, **kwargs):
            inner_calls.append(None)
            return real_inner(*args, **kwargs)

        monkeypatch.setattr(nehari, "inner_maximize", counted_inner)
        cfg = SolverConfig(restarts=5, seed=0)
        for i, init in enumerate(initial_directions(DEFAULT_GRID, cfg, 1.0)):
            before = len(inner_calls)
            res = outer_minimize(init, fam, 1.0, cfg, restart_index=i)
            traces.append((len(inner_calls) - before, len(res.trace)))
            assert res.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)
        assert len(traces) == 5
        trials = sum(calls - 1 for calls, _ in traces)  # the first call is the start
        accepted = sum(steps - 1 for _, steps in traces)  # the last record is the exit
        assert accepted / trials >= 0.85
        # the solve runs the first two starts only, since they tie
        won = solve_ground_state(fam, 1.0, DEFAULT_GRID, cfg)
        assert won.restarts_run == 2
        assert won.level == pytest.approx(DEFAULT_GROUND_LEVEL, rel=1e-10, abs=0)

    def test_trials_without_ascent_exhaust_the_line_search(self, fam, caplog, monkeypatch):
        # every trial slice has no maximum (NoAscent): the step shrinks through
        # all MAX_LINESEARCH trials, and the descent is polished where it stopped
        caplog.set_level(logging.DEBUG, logger="halfwave.nehari")
        real, calls = nehari.inner_maximize, []

        def start_only(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise NoAscent("no ascent on this trial")
            return real(*args, **kwargs)

        monkeypatch.setattr(nehari, "inner_maximize", start_only)
        cfg = SolverConfig(restarts=1, seed=0)
        res = outer_minimize(initial_directions(DEFAULT_GRID, cfg, 1.0)[0], fam, 1.0, cfg)
        assert len(calls) == 1 + nehari.MAX_LINESEARCH
        assert len(res.trace) == 1
        start = res.trace[0]
        assert _outer_steps(caplog.records) == [
            (start.level, start.grad_norm, 0.0, nehari.MAX_LINESEARCH, 0, False)
        ]
        assert res.message == f"line search exhausted + newton polish ({res.newton_steps} steps)"
        handoffs = [r.args for r in caplog.records if r.getMessage().startswith("newton handoff")]
        assert len(handoffs) == 1 and handoffs[0][0] == "line search exhausted"

    def test_outer_steps_are_logged(self, fam, caplog):
        caplog.set_level(logging.DEBUG, logger="halfwave.nehari")
        cfg = SolverConfig(restarts=1, seed=0)
        res = outer_minimize(initial_directions(DEFAULT_GRID, cfg, 1.0)[0], fam, 1.0, cfg)
        records = [r for r in caplog.records if r.getMessage().startswith("outer step")]
        steps = _outer_steps(records)
        # one record per line search; the last trace record is the handoff
        assert len(steps) == len(res.trace) - 1 >= 3
        for rec, (level, gradient, step, trials, memory, reset), point in zip(records, steps, res.trace):
            assert rec.levelno == logging.DEBUG
            assert level == point.level and gradient == point.grad_norm
            assert 0.0 < step <= 1.0 and trials >= 1
            assert 0 <= memory <= nehari.LBFGS_MEMORY and reset is False
        assert steps[0][4] == 0 and max(s[4] for s in steps) >= 2
        levels = [s[0] for s in steps]
        assert levels == sorted(levels, reverse=True)


def _nan_above(fun, amp):
    def wrapped(t):
        return np.where(np.abs(t) > amp, np.nan, fun(t))

    return wrapped


class TestFaultInjection:
    @pytest.fixture
    def nan_fam(self, fam):
        return dataclasses.replace(fam, f=_nan_above(fam.f, 0.5), g=_nan_above(fam.g, 0.5))

    def test_solve_raises_typed_error(self, nan_fam, grid):
        start = time.perf_counter()
        with pytest.raises(HalfwaveError):
            solve_ground_state(nan_fam, 1.0, grid, SolverConfig(restarts=2, seed=0))
        assert time.perf_counter() - start < 1.0

    def test_nan_slope_raises_invalid_field(self, nan_fam, grid):
        sl = _RaySlice(_bump_ray(grid), nan_fam, grid.spacing)
        with pytest.raises(InvalidField, match="ray slope is NaN"):
            _maximize_along_ray(sl, 1.0, np.zeros(grid.n_points), 0.0, 0.0)

    def test_scalar_oracle_raises_typed_error(self, nan_fam, grid):
        start = time.perf_counter()
        with pytest.raises(HalfwaveError):
            scalar_diagonal_solve(nan_fam, 1.0, grid, SolverConfig(seed=0))
        assert time.perf_counter() - start < 1.0


# calls that build or validate a Field (or go through one) per loop iteration
LOOP_BANNED = {"Field", "PairField", "weighted_inner", "weighted_norm", "pair_inner", "ray_derivative"}
LOOP_FUNCTIONS = {
    "inner_maximize", "_maximize_along_ray", "_slice_hessian", "_slice_pcg", "outer_minimize",
    "_lbfgs_direction", "_newton_polish",
}


def banned_loop_calls(source):
    """(line, name) of banned calls in for/while bodies of the solver loops,
    and anywhere in a nested function such a body calls; calls inside a
    return or raise statement of a loop body leave the loop and are allowed."""
    found = set()

    def named_call(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name)

    def check(call, nested, seen):
        name = call.func.id
        if name in LOOP_BANNED:
            found.add((call.lineno, call.col_offset, name))
        if name in nested and name not in seen:  # its whole body runs in the loop
            seen.add(name)
            for node in ast.walk(nested[name]):
                if named_call(node):
                    check(node, nested, seen)

    def collect(node, nested, seen):
        if isinstance(node, (ast.Return, ast.Raise)):
            return
        if named_call(node):
            check(node, nested, seen)
        for child in ast.iter_child_nodes(node):
            collect(child, nested, seen)

    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name in LOOP_FUNCTIONS:
            nested = {d.name: d for d in ast.walk(fn) if isinstance(d, ast.FunctionDef) and d is not fn}
            for loop in ast.walk(fn):
                if isinstance(loop, (ast.For, ast.While)):
                    for stmt in loop.body:
                        collect(stmt, nested, set())
    return sorted(found)


def test_solver_loops_work_on_arrays():
    src = Path(__file__).resolve().parents[1] / "src" / "halfwave" / "nehari.py"
    assert banned_loop_calls(src.read_text()) == []


CERTIFICATES = ("el_residual_norms", "nehari_residuals", "pohozaev_residual", "decay_profile")


def test_certificates_are_taken_in_one_function():
    # a certificate added or called anywhere but build_report would give the
    # solve and diagnose reports, or the traced layers, two sources
    callers = {name: set() for name in CERTIFICATES}
    for path in (Path(__file__).resolve().parents[1] / "src" / "halfwave").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add(f"{path.stem}.{fn.name}")
    assert callers == {name: {"nehari.build_report"} for name in CERTIFICATES}


def test_one_strong_residual_serves_the_certificates(monkeypatch):
    # the Euler-Lagrange and both Nehari certificates of a pair share one
    # evaluation of the coupled system, and read what each takes on its own
    energy_module = importlib.import_module("halfwave.energy")
    fam = builtin_family("cubic_quintic_exp", beta0=1.0)
    grid = Grid(40.0, 256)
    V = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.x / grid.length)
    w = PairField(gaussian_bump(grid, amp=0.8), gaussian_bump(grid, width=1.3, amp=0.6))
    real = energy_module.strong_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(energy_module, "strong_residual", counted)
    report = nehari.build_report(w, fam, V)
    assert len(calls) == 1
    assert (report.euler_lagrange_u, report.euler_lagrange_v) == el_residual_norms(w, fam, V)
    assert (report.nehari_ray, report.nehari_minus) == nehari_residuals(w, fam, V)


def top_level_callers(source, names):
    """{name: {"function" or "Class.method"}} of the calls to ``names`` (by
    function or attribute name) in ``source``, each under its enclosing
    top-level definition, so calls in nested functions count for it."""
    callers = {name: set() for name in names}
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{m.name}", m) for m in top.body if isinstance(m, ast.FunctionDef)]
        else:
            scopes = [(getattr(top, "name", "<module>"), top)]
        for scope, tree in scopes:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add(scope)
    return callers


def test_one_path_from_a_potential_to_a_solve():
    # a second runner of starts, or a second place that samples a potential,
    # lets two entry points hand the solver different inputs or starts
    callers = {"outer_minimize": set(), "evaluate": set()}
    for path in (Path(__file__).resolve().parents[1] / "src" / "halfwave").glob("*.py"):
        for name, scopes in top_level_callers(path.read_text(), callers).items():
            callers[name] |= {f"{path.stem}.{scope}" for scope in scopes}
    assert callers == {
        "outer_minimize": {"nehari.solve_ground_state"},
        "evaluate": {"semiclassical.Potential.values"},
    }


def test_restarts_run_in_one_loop():
    # the screened solve reuses the restart loop and the merge: one loop
    # runs the starts, outer_minimize is called there and once more for the
    # screened winner, and the tie rule (stop and merge) lives in this one
    # function, which does not call itself
    source = (Path(__file__).resolve().parents[1] / "src" / "halfwave" / "nehari.py").read_text()
    fn = next(f for f in ast.parse(source).body
              if isinstance(f, ast.FunctionDef) and f.name == "solve_ground_state")

    def calls(node, name):
        return [c for c in ast.walk(node)
                if isinstance(c, ast.Call) and getattr(c.func, "id", None) == name]

    loops = [n for n in ast.walk(fn)
             if isinstance(n, (ast.For, ast.While)) and calls(n, "outer_minimize")]
    assert len(loops) == 1
    assert len(calls(fn, "outer_minimize")) == 2
    assert len(calls(fn, "_lowest_tied")) == 2
    assert not calls(fn, "solve_ground_state")
    assert top_level_callers(source, ("_lowest_tied",)) == {"_lowest_tied": {"solve_ground_state"}}


def test_coupled_system_is_written_once():
    # the residual the polish drives to zero and the one the certificates
    # report come from energy.strong_residual; f and g are called elsewhere
    # only in the descent's own slice coordinates
    callers = set()
    for stem in ("energy", "nehari"):
        path = Path(__file__).resolve().parents[1] / "src" / "halfwave" / f"{stem}.py"
        for scopes in top_level_callers(path.read_text(), ("f", "g")).values():
            callers |= {f"{stem}.{scope}" for scope in scopes}
    assert callers <= {
        "energy.strong_residual", "nehari.make_diagonal_gradient",
        "nehari._RaySlice.ray_slope", "nehari.inner_maximize",
    }, callers


def test_caller_guard_sees_nested_and_method_calls():
    callers = top_level_callers(
        "def solve(x):\n"
        "    def run(y):\n"
        "        return outer_minimize(y)\n"
        "    return run(x)\n"
        "class P:\n"
        "    def values(self, g):\n"
        "        return self.evaluate(g)\n"
        "outer_minimize(0)\n",
        ("outer_minimize", "evaluate"),
    )
    assert callers == {"outer_minimize": {"solve", "<module>"}, "evaluate": {"P.values"}}

def test_loop_guard_sees_calls():
    flagged = banned_loop_calls(
        "def inner_maximize(x):\n"
        "    for i in x:\n"
        "        y = weighted_inner(Field(g, i), i, 1)\n"
        "        while y:\n"
        "            y = PairField(y)\n"
        "        if y:\n"
        "            return Field(g, y)\n"
        "        raise ValueError(pair_inner(y))\n"
        "def other(x):\n"
        "    for i in x:\n"
        "        Field(g, i)\n"
    )
    assert [name for _, _, name in flagged] == ["weighted_inner", "Field", "PairField"]
    # a nested function called in a loop runs there, its return included;
    # one called only to return leaves the loop
    flagged = banned_loop_calls(
        "def outer_minimize(x):\n"
        "    def trial(i):\n"
        "        f = Field(g, i)\n"
        "        return run(PairField(f, f))\n"
        "    def done(i):\n"
        "        return Field(g, i)\n"
        "    for i in x:\n"
        "        while trial(i):\n"
        "            i = trial(i)\n"
        "        if i:\n"
        "            return done(i)\n"
    )
    assert [(line, name) for line, _, name in flagged] == [(3, "Field"), (4, "PairField")]
