import re
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from halfwave.energy import weighted_inner, weighted_norm
from halfwave.errors import GridMismatch, InvalidField
from halfwave.grids import (
    HALF,
    QUARTER,
    Field,
    Grid,
    SpectralExponent,
    apply_fractional_laplacian,
    half_pairing,
    halflap,
    integrate,
    inv_multiplier,
    l2_norm,
    linf_norm,
    read_field_binary,
    seminorm_sq,
    translate,
    write_field_binary,
    write_field_csv,
)

from _oracles import gagliardo_double_sum, periodized, pv_half_laplacian


def smooth_random(grid, rng, modes=8):
    """Band-limited random field, deterministic given rng."""
    n = grid.n_points
    c = np.zeros(n, complex)
    c[0] = rng.normal()
    for m in range(1, modes + 1):
        c[m] = rng.normal() + 1j * rng.normal()
        c[-m] = np.conj(c[m])
    return Field(grid, np.fft.ifft(c).real * np.sqrt(n))


class TestGridBasics:
    def test_spacing_and_x(self):
        g = Grid(40.0, 256)
        assert g.spacing * g.n_points == g.length
        assert g.x[0] == -20.0
        assert g.index_of(0.0) == 128

    def test_one_zero_wavenumber(self):
        g = Grid(40.0, 256)
        assert np.count_nonzero(g.abs_k == 0.0) == 1

    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(InvalidField):
            Grid(40.0, 255)
        with pytest.raises(InvalidField):
            Grid(40.0, 8)
        for n in (2048.0, "2048", None, True):
            with pytest.raises(InvalidField, match="even integer"):
                Grid(40.0, n)
        assert Grid(40.0, np.int64(64)) == Grid(40.0, 64)

    def test_equality_and_hash_are_on_length_and_n(self):
        assert Grid(40.0, 64) == Grid(40, 64)
        assert Grid(40.0, 64) != Grid(40.0, 128)
        assert Grid(40.0, 64) != Grid(20.0, 64)
        assert len({Grid(40.0, 64), Grid(40, 64), Grid(20.0, 64)}) == 2

    def test_field_rejects_nan(self):
        g = Grid(40.0, 64)
        vals = np.zeros(64)
        vals[3] = np.nan
        with pytest.raises(InvalidField):
            Field(g, vals)

    def test_cross_grid_is_error(self):
        u = Field(Grid(40.0, 64), np.zeros(64))
        v = Field(Grid(20.0, 64), np.zeros(64))
        with pytest.raises(GridMismatch):
            u + v


class TestFractionalLaplacian:
    def test_cosine_eigenrelation_ten_modes(self):
        g = Grid(40.0, 1024)
        for m in range(1, 11):
            lam = 2.0 * np.pi * m / g.length
            u = Field(g, np.cos(2.0 * np.pi * m * g.x / g.length))
            out = apply_fractional_laplacian(u, HALF)
            err = np.max(np.abs(out.values - lam * u.values)) / lam
            assert err <= 1e-10

    def test_constant_maps_to_zero(self):
        g = Grid(40.0, 128)
        for s in (QUARTER, HALF, SpectralExponent(0.7)):
            out = apply_fractional_laplacian(Field(g, np.full(128, 3.7)), s)
            assert np.max(np.abs(out.values)) <= 1e-13

    def test_gaussian_vs_pv_quadrature_oracle(self):
        # frozen oracle: adaptive quadrature of the periodized singular
        # integral, singular cell handled by Taylor value (see _oracles)
        g = Grid(40.0, 2048)
        u = Field(g, np.exp(-g.x**2))
        spec = apply_fractional_laplacian(u, HALF).values
        fun = periodized(lambda t: np.exp(-(t**2)), g.length)
        for x0 in np.linspace(-5.0, 5.0, 11):
            j = g.index_of(x0)
            oracle = pv_half_laplacian(fun, g.x[j], g.length)
            assert abs(oracle - spec[j]) <= 1e-5

    def test_semigroup_quarter_quarter_is_half(self):
        g = Grid(40.0, 512)
        u = smooth_random(g, np.random.default_rng(11))
        twice = apply_fractional_laplacian(
            apply_fractional_laplacian(u, QUARTER), QUARTER
        )
        once = apply_fractional_laplacian(u, HALF)
        rel = np.max(np.abs(twice.values - once.values)) / np.max(np.abs(once.values))
        assert rel <= 1e-10

    def test_exponent_domain(self):
        with pytest.raises(InvalidField):
            SpectralExponent(1.0)
        with pytest.raises(InvalidField):
            SpectralExponent(0.0)


class TestInnerProducts:
    def test_cosine_h_half_value(self):
        g = Grid(40.0, 512)
        V0 = 1.3
        for m in (1, 4, 9):
            u = Field(g, np.cos(2.0 * np.pi * m * g.x / g.length))
            expected = (2.0 * np.pi * m / g.length + V0) * g.length / 2.0
            assert weighted_inner(u, u, V0) == pytest.approx(expected, rel=1e-10)

    def test_distinct_modes_orthogonal(self):
        g = Grid(40.0, 512)
        u = Field(g, np.cos(2.0 * np.pi * 3 * g.x / g.length))
        v = Field(g, np.cos(2.0 * np.pi * 5 * g.x / g.length))
        bound = 1e-12 * weighted_norm(u, 1.0) * weighted_norm(v, 1.0)
        assert abs(weighted_inner(u, v, 1.0)) <= bound

    def test_double_sum_quadrature_oracle(self):
        g = Grid(40.0, 2048)
        rng = np.random.default_rng(7)
        u = smooth_random(g, rng)
        v = smooth_random(g, rng)
        spec = weighted_inner(u, v, 1.0)
        oracle = gagliardo_double_sum(u.values, v.values, g.x, g.length, 1.0)
        scale = weighted_norm(u, 1.0) * weighted_norm(v, 1.0)
        assert abs(oracle - spec) <= 0.01 * scale
        # same-field case has no cancellation: plain relative agreement
        spec_uu = weighted_inner(u, u, 1.0)
        oracle_uu = gagliardo_double_sum(u.values, u.values, g.x, g.length, 1.0)
        assert oracle_uu == pytest.approx(spec_uu, rel=0.01)

    def test_symmetry_and_positivity(self):
        g = Grid(40.0, 256)
        rng = np.random.default_rng(3)
        u = smooth_random(g, rng)
        v = smooth_random(g, rng)
        assert weighted_inner(u, v, 2.0) == pytest.approx(weighted_inner(v, u, 2.0), rel=1e-13)
        assert weighted_inner(u, u, 2.0) > 0

    def test_lower_bound_by_l2(self):
        g = Grid(40.0, 256)
        u = smooth_random(g, np.random.default_rng(5))
        assert weighted_inner(u, u, 1.7) >= 1.7 * l2_norm(u) ** 2 - 1e-12

    def test_translation_invariance(self):
        g = Grid(40.0, 256)
        u = smooth_random(g, np.random.default_rng(9))
        base = weighted_inner(u, u, 1.0)
        shifted = u.shift(37)
        assert weighted_inner(shifted, shifted, 1.0) == pytest.approx(base, rel=1e-12)

    def test_plancherel(self):
        g = Grid(40.0, 256)
        rng = np.random.default_rng(13)
        u = smooth_random(g, rng)
        v = smooth_random(g, rng)
        direct = g.spacing * np.sum(u.values * v.values)
        uhat, vhat = np.fft.fft(u.values), np.fft.fft(v.values)
        spectral = g.spacing / g.n_points * np.sum(uhat * np.conj(vhat)).real
        assert spectral == pytest.approx(direct, rel=1e-10)

    def test_multiplier_solve_inverts(self):
        g = Grid(40.0, 256)
        u = smooth_random(g, np.random.default_rng(17))
        w = Field(g, inv_multiplier(u.values, g, 1.5))
        back = apply_fractional_laplacian(w, HALF) + 1.5 * w
        assert np.max(np.abs(back.values - u.values)) <= 1e-10 * linf_norm(u)


class TestQuadrature:
    def test_full_period_cosine_integrates_to_zero(self):
        g = Grid(40.0, 256)
        u = Field(g, np.cos(2.0 * np.pi * g.x / g.length))
        assert abs(integrate(u)) <= 1e-12

    def test_l2_norm_of_constant(self):
        g = Grid(40.0, 256)
        assert l2_norm(Field(g, np.full(256, -2.5))) == pytest.approx(
            2.5 * np.sqrt(40.0), rel=1e-13
        )

    def test_gaussian_integral(self):
        g = Grid(40.0, 2048)
        assert integrate(Field(g, np.exp(-g.x**2))) == pytest.approx(
            np.sqrt(np.pi), abs=1e-10
        )

    def test_l2_inner_matches_seminorm_split(self):
        g = Grid(40.0, 512)
        rng = np.random.default_rng(23)
        u = smooth_random(g, rng)
        v = smooth_random(g, rng)
        assert weighted_inner(u, v, 2.2) == pytest.approx(
            weighted_inner(u, v, 1.0) + 1.2 * g.spacing * float(np.dot(u.values, v.values)),
            rel=1e-11,
        )
        assert seminorm_sq(u) == pytest.approx(
            weighted_inner(u, u, 1.0) - l2_norm(u) ** 2, rel=1e-11
        )


class TestSerialization:
    def test_binary_roundtrip_exact(self, tmp_path):
        g = Grid(40.0, 128)
        u = smooth_random(g, np.random.default_rng(29))
        path = tmp_path / "field.bin"
        write_field_binary(u, path)
        back = read_field_binary(path)
        assert back.grid == g
        assert np.array_equal(back.values, u.values)

    def test_binary_header_layout(self, tmp_path):
        g = Grid(12.5, 64)
        path = tmp_path / "field.bin"
        write_field_binary(Field(g, np.zeros(64)), path)
        raw = path.read_bytes()
        length, n = struct.unpack("<dQ", raw[:16])
        assert length == 12.5 and n == 64
        assert len(raw) == 16 + 64 * 8

    def test_csv_dump(self, tmp_path):
        g = Grid(40.0, 64)
        u = Field(g, np.sin(2 * np.pi * g.x / g.length))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "x,value"
        x0, v0 = rows[1].split(",")
        assert float(x0) == g.x[0] and float(v0) == u.values[0]


class TestConcurrency:
    def test_parallel_matches_sequential(self):
        g = Grid(40.0, 512)
        fields = [smooth_random(g, np.random.default_rng(s)) for s in range(8)]
        sequential = [apply_fractional_laplacian(f, HALF).values for f in fields]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(lambda f: apply_fractional_laplacian(f, HALF).values, fields)
            )
        for a, b in zip(sequential, parallel):
            assert np.array_equal(a, b)


class TestSpectralKernel:
    def test_wavenumbers_cached_read_only(self):
        g = Grid(40.0, 64)
        assert g.abs_k is g.abs_k
        assert not g.abs_k.flags.writeable
        # |k| on the rfft half-spectrum: j = 0..N/2, k_j = 2 pi j / L
        assert g.abs_k.shape == (33,)
        assert np.allclose(g.abs_k, 2.0 * np.pi * np.arange(33) / g.length, rtol=1e-15)

    def test_translate_by_whole_cells_is_roll(self):
        g = Grid(40.0, 64)
        x = np.random.default_rng(31).normal(size=64)
        for m in (1, 5, -3, 17):
            assert np.max(np.abs(translate(x, g, m * g.spacing) - np.roll(x, m))) <= 1e-13

    def test_translate_cosine_closed_form(self):
        g = Grid(40.0, 128)
        for m in (1, 7, 30):
            kx = 2.0 * np.pi * m / g.length
            for s in (0.013, -0.4, 2.7):
                got = translate(np.cos(kx * g.x), g, s)
                assert np.max(np.abs(got - np.cos(kx * (g.x - s)))) <= 1e-13

    def test_translate_round_trip(self):
        g = Grid(40.0, 256)
        x = np.exp(-g.x**2) + 0.3 * np.sin(6.0 * np.pi * g.x / g.length)
        for s in (0.37 * g.spacing, -1.9, 5.05):
            back = translate(translate(x, g, s), g, -s)
            assert np.max(np.abs(back - x)) <= 1e-13

    def test_translate_nyquist_mode(self):
        # the real Nyquist bin of irfft keeps only the cosine of the phase
        g = Grid(40.0, 64)
        alt = (-1.0) ** np.arange(64)
        for s in (0.25 * g.spacing, 0.5 * g.spacing, 1.3 * g.spacing):
            expected = np.cos(np.pi * s / g.spacing) * alt
            assert np.max(np.abs(translate(alt, g, s) - expected)) <= 1e-13

    def test_multiplier_acts_on_last_axis(self):
        g = Grid(40.0, 128)
        rows = np.stack([np.cos(2.0 * np.pi * m * g.x / g.length) for m in (2, 9)])
        out = halflap(rows, g)
        for row, m in zip(out, (2, 9)):
            lam = 2.0 * np.pi * m / g.length
            assert np.max(np.abs(row - lam * np.cos(lam * g.x))) <= 1e-12

    def test_only_grids_touches_the_spectrum(self):
        # every FFT and |k| array goes through halfwave.grids
        src = Path(__file__).resolve().parents[1] / "src" / "halfwave"
        banned = re.compile(r"np\.fft|numpy\.fft|scipy\.fft|fftfreq|\.wavenumbers")
        modules = sorted(p for p in src.glob("*.py") if p.name != "grids.py")
        assert len(modules) >= 5
        offenders = [
            f"{p.name}:{i}: {line.strip()}"
            for p in modules
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if banned.search(line)
        ]
        assert offenders == []


class TestHalfPairing:
    """The rfft half-spectrum pairing against its full-spectrum definition."""

    def test_zero_mode_contributes_nothing(self):
        g = Grid(40.0, 256)
        rng = np.random.default_rng(41)
        a = smooth_random(g, rng).values
        b = smooth_random(g, rng).values
        assert half_pairing(np.full(256, 3.7), b, g) == pytest.approx(0.0, abs=1e-12)
        assert half_pairing(np.full(256, 3.7), np.full(256, 3.7), g) == pytest.approx(0.0, abs=1e-12)
        assert half_pairing(a + 2.5, b, g) == pytest.approx(half_pairing(a, b, g), rel=1e-12)

    def test_nyquist_mode_counted_once(self):
        # (-1)^j is the mode |k| = pi N / L with |uhat|^2 = N^2: seminorm = pi N
        for n in (16, 64, 256):
            g = Grid(40.0, n)
            alt = Field(g, (-1.0) ** np.arange(n))
            assert seminorm_sq(alt) == pytest.approx(np.pi * n, rel=1e-13)

    def test_matches_full_complex_spectrum(self):
        for length, n in ((40.0, 256), (13.0, 128), (160.0, 1024)):
            g = Grid(length, n)
            rng = np.random.default_rng(n)
            k = np.abs(2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing))
            for _ in range(5):
                a = smooth_random(g, rng, modes=12).values
                b = smooth_random(g, rng, modes=12).values
                full = np.sum(k * np.fft.fft(a) * np.conj(np.fft.fft(b))).real * g.spacing / n
                assert half_pairing(a, b, g) == pytest.approx(full, rel=1e-12, abs=1e-12)
                full_aa = np.sum(k * np.abs(np.fft.fft(a)) ** 2) * g.spacing / n
                assert half_pairing(a, a, g) == pytest.approx(full_aa, rel=1e-12)
