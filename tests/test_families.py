import ast
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from halfwave.errors import OverflowGuard, UnknownFamily
from halfwave.families import (
    F_SERIES_RTOL,
    NonlinearityFamily,
    _horner,
    audit_grid,
    audit_hypotheses,
    builtin_family,
    trudinger_moser_functional,
)
from halfwave.grids import Field, Grid, integrate, l2_norm, seminorm_sq


@pytest.fixture(scope="module")
def cubic_exp():
    return builtin_family("cubic_exp", beta0=1.0)


class TestBuiltins:
    def test_f_at_one(self, cubic_exp):
        assert cubic_exp.f(1.0) == pytest.approx(np.e, rel=1e-14)
        assert cubic_exp.mu == 4.0

    def test_unknown_name(self):
        with pytest.raises(UnknownFamily):
            builtin_family("septic")
        with pytest.raises(UnknownFamily):
            builtin_family("cubic_exp", beta0=-1.0)

    def test_symmetric_flag(self):
        # only a family known to have f = g takes the solver's diagonal path
        ident = lambda t: np.asarray(t, dtype=float)
        direct = NonlinearityFamily("direct", ident, ident, ident, ident, beta0=1.0, mu=2.1,
                                    M=1.0, kappa0=1.0, r1=2.0, fp=ident, gp=ident)
        assert direct.symmetric is False
        assert builtin_family("cubic_quintic_exp").symmetric is False
        for restricted in (False, True):
            fam = builtin_family("cubic_exp", sign_restricted=restricted)
            assert fam.symmetric is True
            assert (fam.g, fam.G, fam.gp) == (fam.f, fam.F, fam.fp)

    def test_small_t_vanishing_order(self, cubic_exp):
        # ratio f(t)/t^2 must fall below 1e-5 on the way to 0
        ts = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        ratios = np.abs(cubic_exp.f(ts)) / ts**2
        assert np.all(np.diff(ratios) < 0)
        assert ratios[-1] < 1e-5

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5, -1.7])
    def test_F_matches_quadrature(self, cubic_exp, t):
        oracle, _ = quad(lambda s: s**3 * np.exp(s * s), 0.0, t, epsabs=1e-12, epsrel=1e-12)
        assert cubic_exp.F(t) == pytest.approx(oracle, abs=1e-10, rel=1e-10)

    def test_F_closed_form_value(self, cubic_exp):
        # int_0^1 s^3 e^{s^2} ds = (e^{t^2}(t^2-1)+1)/2 at t=1 -> 1/2
        assert cubic_exp.F(1.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 1.5])
    def test_asymmetric_G_matches_quadrature(self, t):
        fam = builtin_family("cubic_quintic_exp", beta0=0.8)
        oracle, _ = quad(
            lambda s: s**5 * np.exp(0.8 * s * s), 0.0, t, epsabs=1e-12, epsrel=1e-12
        )
        assert fam.G(t) == pytest.approx(oracle, abs=1e-10, rel=1e-10)

    def test_antiderivative_consistency_fd(self, cubic_exp):
        # central difference of F reproduces f on |t| <= 5
        ts = np.linspace(-5.0, 5.0, 101)
        ts = ts[np.abs(ts) > 1e-3]
        step = 1e-5
        fd = (cubic_exp.F(ts + step) - cubic_exp.F(ts - step)) / (2.0 * step)
        rel = np.abs(fd - cubic_exp.f(ts)) / (1.0 + np.abs(cubic_exp.f(ts)))
        assert np.max(rel) <= 1e-6

    def test_sign_restricted_is_zero_on_negatives(self):
        fam = builtin_family("cubic_exp", 1.0, sign_restricted=True)
        ts = np.linspace(-10.0, 0.0, 50)
        assert np.all(fam.f(ts) == 0.0)
        assert np.all(fam.G(ts) == 0.0)
        assert fam.f(2.0) == pytest.approx(8.0 * np.exp(4.0), rel=1e-14)

    def test_monotone_quotient(self, cubic_exp):
        ts = np.concatenate([-np.logspace(-4, 1, 200)[::-1], np.logspace(-4, 1, 200)])
        q = cubic_exp.f(ts) / np.abs(ts)
        assert np.all(np.diff(q) > 0)

    def test_ar_direction(self, cubic_exp):
        ts = np.linspace(-6.0, 6.0, 301)
        ts = ts[ts != 0.0]
        assert np.all(ts * cubic_exp.f(ts) - 4.0 * cubic_exp.F(ts) >= 0.0)

    def test_F_nonnegative_and_zero_at_zero(self, cubic_exp):
        ts = np.linspace(-8.0, 8.0, 400)
        assert np.all(cubic_exp.F(ts) >= 0.0)
        assert cubic_exp.F(0.0) == 0.0
        assert cubic_exp.G(0.0) == 0.0


EXP_FAMILIES = [
    (name, beta) for name in ("cubic_exp", "cubic_quintic_exp") for beta in (0.8, 1.0)
]
KERNELS = ("f", "g", "F", "G", "fp", "gp")


def _odd_power(name):
    """(kernel prefix, m) pairs: f = t^(2m+1) exp(beta t^2)."""
    return (("f", 1), ("g", 2 if name == "cubic_quintic_exp" else 1))


def _mp_f(t, beta, m):
    return t ** (2 * m + 1) * mp.exp(mp.mpf(beta) * t * t)


def _rel_err(got, exact):
    return abs(float((mp.mpf(float(got)) - exact) / exact))


class TestKernelOracle:
    """The exponential kernels against mpmath at 40 digits; beta is the same
    double on both sides, so the oracle is exact for the kernel's inputs."""

    TS = np.concatenate([-np.logspace(-4, np.log10(5.0), 40), np.logspace(-4, np.log10(5.0), 120)])

    @pytest.mark.parametrize("name,beta", EXP_FAMILIES)
    def test_f_and_g(self, name, beta):
        fam = builtin_family(name, beta)
        with mp.workdps(40):
            for key, m in _odd_power(name):
                kernel = getattr(fam, key)
                worst = max(_rel_err(kernel(t), _mp_f(mp.mpf(t), beta, m)) for t in self.TS)
                assert worst <= 1e-14, (key, worst)

    @pytest.mark.parametrize("name,beta", EXP_FAMILIES)
    def test_derivatives_against_complex_step(self, name, beta):
        fam = builtin_family(name, beta)
        h = mp.mpf("1e-30")
        with mp.workdps(40):
            for key, m in _odd_power(name):
                kernel = getattr(fam, key + "p")
                worst = max(
                    _rel_err(kernel(t), mp.im(_mp_f(mp.mpc(t, h), beta, m)) / h) for t in self.TS
                )
                assert worst <= 1e-14, (key, worst)

    @pytest.mark.parametrize("name,beta", EXP_FAMILIES)
    def test_antiderivatives_across_series_switch(self, name, beta):
        fam = builtin_family(name, beta)
        eps = np.finfo(float).eps
        with mp.workdps(30):
            for key, m in _odd_power(name):
                kernel = getattr(fam, key.upper())
                # s = beta t^2 on a log grid, at the old switch s = 1e-3 and its
                # worst points, and just either side of the switch derived from m
                switch = (eps * math.factorial(m + 1) / F_SERIES_RTOL) ** (1.0 / (m + 1))
                s = np.concatenate([
                    np.logspace(-8, np.log10(25.0), 30),
                    [1e-3, 1.02e-3, 1.34e-3],
                    switch * np.array([0.9, 0.999, 1.0, 1.001, 1.1]),
                ])
                for t in np.sqrt(s / beta):
                    exact = mp.quad(lambda x: _mp_f(x, beta, m), [0, mp.mpf(t)])
                    assert _rel_err(kernel(t), exact) <= 1e-12, (key, t)
                    assert _rel_err(kernel(-t), exact) <= 1e-12, (key, -t)


def _where_antiderivative(m, b):
    """F of t^(2m+1) exp(b t^2) as both branches over every sample, picked
    by np.where: the formula F must reproduce bit for bit."""
    eps = np.finfo(float).eps
    switch = math.pow(eps * math.factorial(m + 1) / F_SERIES_RTOL, 1.0 / (m + 1))
    poly = [math.perm(m, m - k) * (-1.0 if (m - k) % 2 else 1.0) for k in range(m, -1, -1)]
    series = [1.0 / (math.factorial(n) * (n + m + 1)) for n in range(40)]
    series = [c for n, c in enumerate(series) if (m + 1) * c * math.pow(switch, n) >= eps / 2][::-1]

    def F(t):
        s = b * (t * t)
        small = math.prod([s] * (m + 1), start=_horner(series, s))
        return np.where(s < switch, small, np.exp(s) * _horner(poly, s) - poly[-1]) * (
            0.5 / math.pow(b, m + 1)
        )

    return F


@pytest.mark.parametrize("name,beta", EXP_FAMILIES)
def test_antiderivatives_bitwise_equal_where_formula(name, beta):
    fam = builtin_family(name, beta)
    rng = np.random.default_rng(11)
    grid = Grid(40.0, 512)
    for key, m in _odd_power(name):
        kernel, oracle = getattr(fam, key.upper()), _where_antiderivative(m, beta)
        for _ in range(20):
            # a bump whose peak lies above the switch and whose tails below
            amp = rng.uniform(0.6, 2.0)
            t = amp * np.exp(-((grid.x - rng.uniform(-5, 5)) ** 2) / rng.uniform(0.5, 8.0))
            t = t * rng.choice([-1.0, 1.0], size=t.size)
            assert np.array_equal(kernel(t), oracle(t))
        out = kernel(np.array([np.nan, 0.1, np.nan, 2.0]))
        assert np.array_equal(np.isnan(out), [True, False, True, False])
        assert np.isnan(kernel(np.nan))


class TestKernelShapes:
    """Every kernel maps float64 inputs of any shape to float64 of that shape."""

    N = 64
    INPUTS = {
        "float": 0.7,
        "0-d": np.array(-0.7),
        "1-D": np.linspace(-2.0, 2.0, N),
        "(2, N)": np.stack([np.linspace(-2.0, 2.0, N), np.linspace(1.5, -0.5, N)]),
    }

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp", "cubic"])
    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_shape_dtype_and_values(self, name, restricted, kind):
        fam = builtin_family(name, 1.0, sign_restricted=restricted)
        x = self.INPUTS[kind]
        before = np.array(x, copy=True)
        for key in KERNELS:
            kernel = getattr(fam, key)
            out = kernel(x)
            assert np.shape(out) == np.shape(x), key
            assert np.asarray(out).dtype == np.float64, key
            # the same samples evaluated one by one, as 1-D arrays
            flat = np.ravel(x)
            one_by_one = np.array([kernel(np.array([v]))[0] for v in flat])
            np.testing.assert_array_equal(np.ravel(out), one_by_one, err_msg=key)
            np.testing.assert_array_equal(np.asarray(x), before, err_msg=key)


def pow_lines(source):
    """Line numbers of ``**`` in builtin_family and in every module-level
    function it calls, directly or through another such function."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, seen, lines = ["builtin_family"], set(), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                lines.add(node.lineno)
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
    return sorted(lines)


def test_kernels_are_power_free():
    src = Path(__file__).resolve().parents[1] / "src" / "halfwave" / "families.py"
    assert pow_lines(src.read_text()) == []


def test_power_guard_sees_pow():
    flagged = pow_lines(
        "def helper(t):\n"
        "    return t ** 3\n"
        "def unused(t):\n"
        "    return t ** 4\n"
        "def builtin_family(b):\n"
        "    def f(t):\n"
        "        t **= 2\n"
        "        return t\n"
        "    return lambda t: helper(t) + b ** 2\n"
    )
    assert flagged == [2, 7, 9]


class TestAudit:
    def test_default_family_all_pass(self, cubic_exp):
        audit = audit_hypotheses(cubic_exp)
        assert audit.all_pass
        assert audit.checks["H3_f"].margin >= -1e-12
        for _, check in audit.checks.items():
            assert check.n_samples > 0

    def test_asymmetric_and_restricted_pass(self):
        assert audit_hypotheses(builtin_family("cubic_quintic_exp", 1.0)).all_pass
        assert audit_hypotheses(builtin_family("cubic_exp", 1.0, sign_restricted=True)).all_pass

    def test_linear_family_fails_h2(self):
        ident = lambda t: np.asarray(t, dtype=float)
        sq = lambda t: 0.5 * np.asarray(t, dtype=float) ** 2
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        lin = NonlinearityFamily(
            "linear", ident, ident, sq, sq,
            beta0=1.0, mu=2.1, M=1.0, kappa0=1.0, r1=2.0, fp=one, gp=one, exponential=False,
        )
        audit = audit_hypotheses(lin)
        assert audit.checks["H2_f"].status == "fail"

    def test_subcritical_cubic_fails_critical_growth(self):
        audit = audit_hypotheses(builtin_family("cubic"))
        assert audit.checks["H6_f"].status == "fail"
        assert audit.checks["H7_f"].status == "fail"
        assert audit.checks["H3_f"].status == "pass"

    def test_h7_tail_with_recorded_kappa0(self, cubic_exp):
        # kappa0 witness max(8 sqrt(e) V0 / beta0, pi/(beta0 r1)) + 1
        expected = max(8.0 * np.sqrt(np.e), np.pi / 2.0) + 1.0
        assert cubic_exp.kappa0 == pytest.approx(expected, rel=1e-13)
        audit = audit_hypotheses(cubic_exp)
        assert audit.checks["H7_f"].status == "pass"
        assert audit.checks["H7_f"].margin > 0

    def test_default_grid_shape(self, cubic_exp):
        grid = audit_grid(cubic_exp)
        assert np.max(grid) >= 10.0
        assert np.min(grid) == -np.max(grid)
        assert np.min(np.abs(grid[grid != 0])) <= 1e-7
        # the positive half-line for a sign-restricted family
        assert np.min(audit_grid(builtin_family("cubic_exp", 1.0, sign_restricted=True))) == 0.0
        # above beta0 ~ 3.9 the range is cut at 0.9 of the exp-safe amplitude
        big = builtin_family("cubic_exp", beta0=16.0)
        assert np.max(audit_grid(big)) == pytest.approx(0.9 * big.max_safe_amplitude(), rel=1e-14)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("name", ["cubic_exp", "cubic_quintic_exp"])
    @pytest.mark.parametrize("beta0, M", [(16.0, 0.052719), (64.0, 0.026363)])
    def test_large_beta0_is_sampled_where_exp_is_finite(self, beta0, M, name, restricted):
        # on |t| <= 12, exp(beta0 t^2) overflows from beta0 ~ 4.9, and F/|f|
        # on [0.05, 10] is inf/inf from ~7.1: both samplings must stay in
        # the exp-safe range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = builtin_family(name, beta0, sign_restricted=restricted)
            audit = audit_hypotheses(fam)
        assert fam.M == pytest.approx(M, rel=1e-4)
        assert audit.all_pass, [k for k, c in audit.checks.items() if c.status != "pass"]


class TestTrudingerMoser:
    def test_zero_field(self):
        g = Grid(40.0, 64)
        assert trudinger_moser_functional(Field(g, np.zeros(64)), np.pi) == 0.0

    def test_small_amplitude_taylor(self):
        g = Grid(40.0, 2048)
        bump = 1e-3 * np.exp(-g.x**2)
        u = Field(g, bump)
        beta = np.pi
        expected = beta * integrate(Field(g, bump**2))
        assert trudinger_moser_functional(u, beta) == pytest.approx(expected, rel=1e-3)

    def test_overflow_guard(self):
        g = Grid(40.0, 64)
        u = Field(g, np.full(64, 30.0))
        with pytest.raises(OverflowGuard) as exc:
            trudinger_moser_functional(u, 1.0)
        assert exc.value.where is not None

    def test_moser_sequence_divergence_trend(self):
        # super-threshold growth ratio must increase along the sequence
        g = Grid(40.0, 8192)
        ratios = []
        for n in (4, 16, 64):
            vals = np.zeros(g.n_points)
            ax = np.abs(g.x)
            r1 = 2.0
            vals[ax <= r1 / n] = np.sqrt(np.log(n))
            ring = (ax > r1 / n) & (ax <= r1)
            vals[ring] = np.log(r1 / ax[ring]) / np.sqrt(np.log(n))
            w = Field(g, vals)
            nrm = np.sqrt(seminorm_sq(w) + l2_norm(w) ** 2)
            wn = Field(g, vals / nrm)
            ratios.append(
                trudinger_moser_functional(wn, 4.0 * np.pi)
                / trudinger_moser_functional(wn, np.pi)
            )
        assert ratios[0] < ratios[1] < ratios[2]

    def test_positive_for_nonzero(self):
        g = Grid(40.0, 256)
        u = Field(g, 0.1 * np.exp(-g.x**2 / 4.0))
        assert trudinger_moser_functional(u, 2.0) > 0.0
