"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 3 and 5 check paper facts that hold only in a limit, at inputs
where the fact is attainable:

* criterion 3: the sharp constant pi is the n -> oo limit of the Moser
  seminorm; at finite n the FFT seminorm is compared with the exact line
  value S(n) (``_oracles.moser_seminorm_sq_line``), and the deficit
  (pi - S(n)) log n with its limit 7 zeta(3)/pi;
* criterion 5: the Pohozaev residual at fixed L is floored by O(L^-2) box
  truncation, so it is judged on resolved grids (spectral tail <= 1e-5)
  while the box doubles at fixed spacing.
"""

import time

import numpy as np
import pytest
from scipy.special import zeta

from halfwave.cli import main
from halfwave.diagnostics import (
    level_bound_check,
    moser_field,
    pohozaev_residual,
)
from halfwave.energy import (
    PairField,
    energy,
    pair_inner,
    pair_norm,
    pair_residual,
    phi,
)
from halfwave.families import builtin_family
from halfwave.grids import (
    HALF,
    QUARTER,
    Field,
    Grid,
    apply_fractional_laplacian,
    l2_norm,
    seminorm_sq,
)
from halfwave.nehari import SolverConfig, solve_ground_state
from halfwave.semiclassical import concentration_sweep, single_well

from _oracles import (
    decompose,
    moser_seminorm_sq_line,
    periodized,
    phi_prime_pairing,
    pv_half_laplacian,
    scalar_diagonal_solve,
)
from _testutil import smooth_random, smooth_random_pair, spectral_tail

DEFAULT_FAM = builtin_family("cubic_exp", beta0=1.0)


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_solve():
    cfg = SolverConfig(restarts=5, seed=0)
    return solve_ground_state(DEFAULT_FAM, 1.0, Grid(40.0, 2048), cfg)


def test_criterion_1_spectral_correctness():
    t0 = time.time()
    g = Grid(40.0, 1024)
    worst_eig = 0.0
    for m in range(1, 11):
        lam = 2.0 * np.pi * m / g.length
        u = Field(g, np.cos(2.0 * np.pi * m * g.x / g.length))
        out = apply_fractional_laplacian(u, HALF)
        worst_eig = max(worst_eig, np.max(np.abs(out.values - lam * u.values)) / lam)

    u = smooth_random(g, np.random.default_rng(1))
    twice = apply_fractional_laplacian(apply_fractional_laplacian(u, QUARTER), QUARTER)
    once = apply_fractional_laplacian(u, HALF)
    semi_err = np.max(np.abs(twice.values - once.values)) / np.max(np.abs(once.values))

    g2 = Grid(40.0, 2048)
    gauss = Field(g2, np.exp(-g2.x**2))
    spec = apply_fractional_laplacian(gauss, HALF).values
    fun = periodized(lambda t: np.exp(-(t**2)), g2.length)
    worst_pv = 0.0
    for x0 in np.linspace(-5.0, 5.0, 11):
        j = g2.index_of(x0)
        worst_pv = max(worst_pv, abs(pv_half_laplacian(fun, g2.x[j], g2.length) - spec[j]))

    elapsed = time.time() - t0
    ok = worst_eig <= 1e-10 and semi_err <= 1e-10 and worst_pv <= 1e-5 and elapsed < 10.0
    report(
        1,
        ok,
        f"eigenrelation {worst_eig:.2e} (<=1e-10), semigroup {semi_err:.2e} (<=1e-10), "
        f"PV-quadrature {worst_pv:.2e} (<=1e-5), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_gradient_consistency():
    t0 = time.time()
    g = Grid(40.0, 1024)
    rng = np.random.default_rng(42)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        w = smooth_random_pair(g, rng, amplitude=0.5)
        z = smooth_random_pair(g, rng, amplitude=0.3)
        fd = (energy(w + eps * z, DEFAULT_FAM, 1.0) - energy(w - eps * z, DEFAULT_FAM, 1.0)) / (
            2.0 * eps
        )
        r_u, r_v = pair_residual(w, DEFAULT_FAM, 1.0)
        pairing = g.spacing * (float(np.dot(r_v, z.u.values)) + float(np.dot(r_u, z.v.values)))
        worst = max(worst, abs(fd - pairing) / max(abs(fd), abs(pairing)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, ok, f"worst relative error {worst:.2e} (<=1e-6) over 20 pairs, {elapsed:.1f}s (<30s)")


def test_criterion_3_moser_estimates():
    t0 = time.time()
    g = Grid(40.0, 8192)
    r1 = 2.0
    semis, exact, l2s = {}, {}, {}
    for n in (4, 16, 64):
        mf = moser_field(n, r1, g)
        semis[n] = seminorm_sq(mf.raw)
        exact[n] = moser_seminorm_sq_line(n)
        l2s[n] = l2_norm(mf.raw) ** 2
    # pi is only the n -> oo limit; at finite n the seminorm is S(n), which
    # the periodic box lowers by O(L^-2) (~3e-3 relative at L=40)
    worst_exact = max(abs(semis[n] - exact[n]) / exact[n] for n in semis)
    below_pi = all(s < np.pi for s in semis.values())
    rising = semis[4] < semis[16] < semis[64]
    # the deficit pi - S(n) decays like 7 zeta(3) / (pi log n)
    rate_const = 7.0 * zeta(3.0) / np.pi
    scaled_deficit = (np.pi - semis[64]) * np.log(64.0)
    rate_ok = abs(scaled_deficit - rate_const) <= 0.05 * rate_const
    pi_ok = worst_exact <= 0.01 and below_pi and rising and rate_ok

    # O((log n)^-1) consistency within factor 1.5: norms decrease, the
    # scaled sequence stays below 1.5x the known asymptotic constant 4*r1,
    # and the asymptotic adjacent ratio matches the log prediction
    decreasing = l2s[4] > l2s[16] > l2s[64]
    scaled_ok = all(l2s[n] * np.log(n) <= 1.5 * 4.0 * r1 for n in (4, 16, 64))
    predicted = np.log(16.0) / np.log(64.0)
    ratio = l2s[64] / l2s[16]
    ratio_ok = predicted / 1.5 <= ratio <= predicted * 1.5
    l2_ok = decreasing and scaled_ok and ratio_ok

    elapsed = time.time() - t0
    ok = pi_ok and l2_ok and elapsed < 60.0
    report(
        3,
        ok,
        f"seminorm {semis[4]:.4f}/{semis[16]:.4f}/{semis[64]:.4f} vs exact line "
        f"values {exact[4]:.4f}/{exact[16]:.4f}/{exact[64]:.4f}: worst rel dev "
        f"{worst_exact:.2e} (<=1e-2), below pi={below_pi}, rising={rising}; "
        f"deficit*log(64) {scaled_deficit:.4f} vs 7 zeta(3)/pi={rate_const:.4f} "
        f"(within 5%)={rate_ok}; "
        f"L2 scaling {'OK' if l2_ok else 'BAD'} "
        f"(decreasing={decreasing}, bounded={scaled_ok}, ratio={ratio:.3f} vs "
        f"predicted {predicted:.3f}); {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_ground_state_solve(default_solve):
    t0 = time.time()
    res = default_solve
    bound = level_bound_check(res.level, DEFAULT_FAM.beta0)
    elapsed = time.time() - t0
    ok = (
        res.converged
        and res.el_residual <= 1e-6
        and res.nehari_residual <= 1e-6
        and bound.passed
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"level {res.level:.6f} in (0, pi)={bound.passed}, EL {res.el_residual:.2e} "
        f"(<=1e-6), manifold {res.nehari_residual:.2e} (<=1e-6), 5 restarts, "
        f"{elapsed:.1f}s (<300s)",
    )


def test_criterion_5_pohozaev_identity():
    # at fixed L the residual is floored by O(L^-2) box truncation, so the
    # identity is checked under box refinement: L and N double together at a
    # spacing (h ~ 0.01) that resolves the profile
    t0 = time.time()
    cfg = SolverConfig(restarts=2, seed=0)
    coarse = solve_ground_state(DEFAULT_FAM, 1.0, Grid(80.0, 8192), cfg)
    fine = solve_ground_state(DEFAULT_FAM, 1.0, Grid(160.0, 16384), cfg)
    tails = (spectral_tail(coarse.w), spectral_tail(fine.w))
    resolved = max(tails) <= 1e-5
    p_80 = pohozaev_residual(coarse.w, DEFAULT_FAM, 1.0)
    p_160 = pohozaev_residual(fine.w, DEFAULT_FAM, 1.0)
    elapsed = time.time() - t0
    ok = resolved and p_80 <= 1e-3 and p_160 <= 0.5 * p_80 and elapsed < 600.0
    report(
        5,
        ok,
        f"spectral tails {tails[0]:.1e}/{tails[1]:.1e} (<=1e-5), "
        f"L=80 N=8192 residual {p_80:.3e} (<=1e-3), L=160 N=16384 residual "
        f"{p_160:.3e} (required <= {0.5 * p_80:.3e}); {elapsed:.1f}s (<600s)",
    )


def test_criterion_6_diagonal_oracle(default_solve):
    t0 = time.time()
    g = Grid(40.0, 2048)
    u = scalar_diagonal_solve(DEFAULT_FAM, 1.0, g, SolverConfig(seed=0))
    pair = PairField(u, u)
    level = energy(pair, DEFAULT_FAM, 1.0)
    rel = abs(level - default_solve.level) / default_solve.level
    r_u, r_v = pair_residual(pair, DEFAULT_FAM, 1.0)
    h = np.sqrt(g.spacing)
    full_res = max(h * np.linalg.norm(r_v), h * np.linalg.norm(r_u))
    elapsed = time.time() - t0
    ok = rel <= 1e-4 and full_res <= 1e-6 and elapsed < 300.0
    report(
        6,
        ok,
        f"scalar vs system level rel diff {rel:.2e} (<=1e-4), diagonal pair full-system "
        f"residual {full_res:.2e} (<=1e-6), {elapsed:.1f}s (<300s)",
    )


def test_criterion_7_theta_monotonicity():
    t0 = time.time()
    cfg = SolverConfig(restarts=2, seed=0)
    levels = []
    for theta in (0.5, 1.0, 2.0, 4.0):
        length = 40.0 * max(1.0, 1.0 / np.sqrt(theta))
        res = solve_ground_state(DEFAULT_FAM, theta, Grid(length, 2048), cfg)
        levels.append(res.level)
    margins = np.diff(levels)
    elapsed = time.time() - t0
    ok = bool(np.all(margins >= 1e-6)) and elapsed < 900.0
    report(
        7,
        ok,
        f"levels {[f'{l:.5f}' for l in levels]} strictly increasing with min margin "
        f"{np.min(margins):.3e} (>= 1.0e-06), {elapsed:.1f}s (<900s)",
    )


def test_criterion_8_semiclassical_concentration():
    t0 = time.time()
    g = Grid(160.0, 8192)
    pot = single_well(1.0, 2.0)
    cfg = SolverConfig(restarts=2, seed=0)
    sweep = concentration_sweep([1.0, 0.5, 0.25, 0.125], pot, DEFAULT_FAM, g, cfg)
    h = g.spacing
    dist_ok = all(
        b.dist_to_minima <= 1.2 * a.dist_to_minima + 4.0 * h * b.epsilon
        for a, b in zip(sweep.records, sweep.records[1:])
    )
    last = sweep.records[-1]
    gap_ok = last.gap12_cells <= 4
    limsup_ok = last.level <= 1.05 * sweep.autonomous_level
    elapsed = time.time() - t0
    ok = (
        not sweep.errors
        and dist_ok
        and gap_ok
        and limsup_ok
        and sweep.levels_in_window(DEFAULT_FAM.beta0)
        and elapsed < 1200.0
    )
    dists = [f"{r.dist_to_minima:.2e}" for r in sweep.records]
    report(
        8,
        ok,
        f"dist(x_eps, minima) {dists} decreasing={dist_ok}, component gap "
        f"{last.gap12_cells} cells (<=4), limsup {last.level:.5f} <= "
        f"{1.05 * sweep.autonomous_level:.5f}={limsup_ok}, {elapsed:.1f}s (<1200s)",
    )


def test_criterion_9_invariant_suite():
    t0 = time.time()
    g = Grid(40.0, 512)
    rng = np.random.default_rng(2024)
    orth_ok = super_ok = trans_ok = sign_ok = True
    for _ in range(50):
        w = smooth_random_pair(g, rng, amplitude=0.8)
        d = decompose(w)
        cross = abs(pair_inner(d.plus, d.minus, 1.0))
        scale = pair_norm(d.plus, 1.0) * pair_norm(d.minus, 1.0)
        orth_ok &= cross <= 1e-10 * max(scale, 1e-30)

        p = phi(w, DEFAULT_FAM)
        super_ok &= phi_prime_pairing(w, DEFAULT_FAM) > 2.0 * p > 0.0

        val = energy(w, DEFAULT_FAM, 1.0)
        shifted = energy(w.shift(int(rng.integers(1, 511))), DEFAULT_FAM, 1.0)
        trans_ok &= abs(shifted - val) <= 1e-10 * max(abs(val), 1e-30)

        u = smooth_random(g, rng, amplitude=0.8)
        sign_ok &= energy(PairField(u, -u), DEFAULT_FAM, 1.0) <= 0.0
    elapsed = time.time() - t0
    ok = orth_ok and super_ok and trans_ok and sign_ok and elapsed < 60.0
    report(
        9,
        ok,
        f"50 random fields: orthogonality={orth_ok}, superquadraticity={super_ok}, "
        f"translation invariance={trans_ok}, antidiagonal sign={sign_ok}, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.time()
    import yaml

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        yaml.safe_dump({"grid": {"n_points": 1024}, "solver": {"restarts": 2, "seed": 5}})
    )
    a, b = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(cfg), "--out", str(a)])
    main(["solve", "--config", str(cfg), "--out", str(b)])
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("trace.csv", "u.csv", "v.csv")
    )
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"grid": {"n_points": 8}}))
    code_bad = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
    elapsed = time.time() - t0
    ok = identical and code_bad == 2 and elapsed < 60.0
    report(
        10,
        ok,
        f"bit-identical CSVs={identical}, invalid config exit code {code_bad} (==2), "
        f"{elapsed:.1f}s (<60s)",
    )
