import numpy as np
import pytest
from scipy.integrate import quad

from halfwave.energy import (
    PairField,
    el_residual_norms,
    energy,
    nehari_residuals,
    pair_inner,
    pair_norm,
    pair_residual,
    phi,
    ray_derivative,
    riesz_solve,
    weighted_inner,
)
from halfwave.errors import GridMismatch
from halfwave.families import builtin_family
from halfwave.grids import Field, Grid

from _oracles import decompose, phi_prime_pairing
from _testutil import gaussian_bump, smooth_random, smooth_random_pair


@pytest.fixture(scope="module")
def fam():
    return builtin_family("cubic_exp", beta0=1.0)


@pytest.fixture(scope="module")
def grid():
    return Grid(40.0, 512)


class TestDecomposition:
    def test_diagonal_pair(self, grid):
        u = smooth_random(grid, np.random.default_rng(1))
        d = decompose(PairField(u, u))
        assert np.array_equal(d.plus.u.values, u.values)
        assert np.max(np.abs(d.minus.u.values)) == 0.0

    def test_antidiagonal_pair(self, grid):
        u = smooth_random(grid, np.random.default_rng(2))
        d = decompose(PairField(u, -u))
        assert np.max(np.abs(d.plus.u.values)) == 0.0
        assert np.array_equal(d.minus.u.values, u.values)
        assert np.array_equal(d.minus.v.values, -u.values)

    def test_sin_cos_reconstruction(self, grid):
        u = Field(grid, np.sin(2 * np.pi * grid.x / grid.length))
        v = Field(grid, np.cos(2 * np.pi * grid.x / grid.length))
        w = PairField(u, v)
        d = decompose(w)
        expected_plus = 0.5 * (u.values + v.values)
        assert np.allclose(d.plus.u.values, expected_plus, atol=1e-16)
        assert np.array_equal(d.plus.u.values, d.plus.v.values)
        assert np.array_equal(d.minus.u.values, -d.minus.v.values)
        rec = d.plus + d.minus
        assert np.max(np.abs(rec.u.values - u.values)) <= 1e-15
        assert np.max(np.abs(rec.v.values - v.values)) <= 1e-15

    def test_orthogonality_in_pair_inner(self, grid):
        rng = np.random.default_rng(3)
        w = smooth_random_pair(grid, rng)
        d = decompose(w)
        cross = pair_inner(d.plus, d.minus, 1.0)
        scale = pair_norm(d.plus, 1.0) * pair_norm(d.minus, 1.0)
        assert abs(cross) <= 1e-10 * max(scale, 1e-30)

    def test_grid_mismatch(self):
        u = Field(Grid(40.0, 64), np.zeros(64))
        v = Field(Grid(40.0, 128), np.zeros(128))
        with pytest.raises(GridMismatch):
            PairField(u, v)

    def test_pairings_reject_grid_mismatch(self):
        u = Field(Grid(40.0, 64), np.ones(64))
        for other in (Grid(40.0, 128), Grid(20.0, 64)):
            v = Field(other, np.ones(other.n_points))
            with pytest.raises(GridMismatch):
                weighted_inner(u, v, 1.0)


class TestPhi:
    def test_zero(self, grid, fam):
        assert phi(PairField.zero(grid), fam) == 0.0

    def test_single_component(self, grid, fam):
        u = gaussian_bump(grid, amp=0.4)
        z = Field(grid, np.zeros(grid.n_points))
        assert phi(PairField(u, z), fam) == pytest.approx(
            grid.spacing * np.sum(fam.F(u.values)), rel=1e-14
        )

    def test_against_quadrature_oracle(self, fam):
        # frozen oracle: adaptive quadrature of F(c * exp(-x^2)) over the line
        g = Grid(40.0, 2048)
        c = 0.1
        u = Field(g, c * np.exp(-g.x**2))
        z = Field(g, np.zeros(g.n_points))
        oracle, _ = quad(
            lambda x: fam.F(c * np.exp(-(x**2))),
            -20.0,
            20.0,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )
        assert phi(PairField(u, z), fam) == pytest.approx(oracle, rel=1e-8)

    def test_positive_off_zero(self, grid, fam):
        w = smooth_random_pair(grid, np.random.default_rng(4), amplitude=0.3)
        assert phi(w, fam) > 0.0

    def test_superquadraticity(self, grid, fam):
        for seed in range(10):
            w = smooth_random_pair(grid, np.random.default_rng(seed), amplitude=0.8)
            p = phi(w, fam)
            assert phi_prime_pairing(w, fam) > 2.0 * p > 0.0


class TestEnergy:
    def test_zero(self, grid, fam):
        assert energy(PairField.zero(grid), fam, 1.0) == 0.0

    def test_antidiagonal_nonpositive(self, grid, fam):
        for seed in range(5):
            u = smooth_random(grid, np.random.default_rng(seed), amplitude=0.6)
            w = PairField(u, -u)
            val = energy(w, fam, 1.0)
            expected = -weighted_inner(u, u, 1.0) - phi(w, fam)
            assert val <= 0.0
            assert val == pytest.approx(expected, rel=1e-12)

    def test_small_diagonal_positive(self, grid, fam):
        a = gaussian_bump(grid, amp=1e-3)
        assert energy(PairField(a, a), fam, 1.0) > 0.0

    def test_split_identity(self, grid, fam):
        for seed in range(5):
            w = smooth_random_pair(grid, np.random.default_rng(seed + 20), amplitude=0.7)
            d = decompose(w)
            split = (
                0.5 * pair_inner(d.plus, d.plus, 1.0)
                - 0.5 * pair_inner(d.minus, d.minus, 1.0)
                - phi(w, fam)
            )
            assert energy(w, fam, 1.0) == pytest.approx(split, rel=1e-10, abs=1e-12)

    def test_translation_invariance(self, grid, fam):
        w = smooth_random_pair(grid, np.random.default_rng(31), amplitude=0.5)
        val = energy(w, fam, 1.0)
        assert energy(w.shift(101), fam, 1.0) == pytest.approx(val, rel=1e-10)

    def test_weighted_inner_reduces_to_scalar(self, grid):
        rng = np.random.default_rng(37)
        u = smooth_random(grid, rng)
        v = smooth_random(grid, rng)
        arr = np.full(grid.n_points, 1.7)
        assert weighted_inner(u, v, arr) == pytest.approx(
            weighted_inner(u, v, 1.7), rel=1e-13
        )


class TestGradient:
    def test_zero_pair(self, grid, fam):
        r_u, r_v = pair_residual(PairField.zero(grid), fam, 1.0)
        assert np.max(np.abs(r_v)) == 0.0
        assert np.max(np.abs(r_u)) == 0.0

    def test_directional_derivative_oracle(self, fam):
        # central finite differences of J along 20 random directions
        g = Grid(40.0, 1024)
        rng = np.random.default_rng(42)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            w = smooth_random_pair(g, rng, amplitude=0.5)
            z = smooth_random_pair(g, rng, amplitude=0.3)
            fd = (energy(w + eps * z, fam, 1.0) - energy(w - eps * z, fam, 1.0)) / (2 * eps)
            r_u, r_v = pair_residual(w, fam, 1.0)
            pairing = g.spacing * (float(np.dot(r_v, z.u.values)) + float(np.dot(r_u, z.v.values)))
            worst = max(worst, abs(fd - pairing) / max(abs(fd), abs(pairing)))
        assert worst <= 1e-6

    def test_riesz_solve_varying_potential_against_dense(self):
        g = Grid(20.0, 128)
        V = 1.0 + 0.5 * np.sin(2 * np.pi * g.x / g.length) ** 2
        k = np.abs(2.0 * np.pi * np.fft.fftfreq(g.n_points, d=g.spacing))
        dense = np.zeros((128, 128))
        for j in range(128):
            e = np.zeros(128)
            e[j] = 1.0
            dense[:, j] = np.fft.ifft(k * np.fft.fft(e)).real
        dense += np.diag(V)
        rhs = smooth_random(g, np.random.default_rng(6)).values
        expected = np.linalg.solve(dense, rhs)
        got = riesz_solve(rhs, g, V)
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_nehari_residual_zero_scaling(self, grid, fam):
        # residuals are scale-free: zero pair reports zeros
        assert nehari_residuals(PairField.zero(grid), fam, 1.0) == (0.0, 0.0)

    def test_ray_derivative_formula(self, grid, fam):
        w = smooth_random_pair(grid, np.random.default_rng(8), amplitude=0.4)
        expected = 2.0 * weighted_inner(w.u, w.v, 1.0) - phi_prime_pairing(w, fam)
        assert ray_derivative(w, fam, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_el_norms_of_linear_solution(self, grid, fam):
        # u solving (-Delta)^{1/2}u + V0 u = g(v) exactly for given v
        rng = np.random.default_rng(9)
        v = smooth_random(grid, rng, amplitude=0.4)
        gu = Field(grid, fam.g(v.values))
        u = Field(grid, riesz_solve(gu.values, grid, 1.0))
        res_u, res_v = el_residual_norms(PairField(u, v), fam, 1.0)
        assert res_u <= 1e-11
        assert res_v > 1e-3  # the other equation is not satisfied
