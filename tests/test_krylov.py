import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from halfwave.grids import Grid, halflap, inv_multiplier
from halfwave import krylov
from halfwave.krylov import Operator, cg, gmres

ROOT = Path(__file__).resolve().parents[1]


def counted(a):
    """Operator for the matrix a whose ``calls`` list grows by one per product."""
    calls = []

    def matvec(x):
        calls.append(1)
        return a @ x

    op = Operator(a.shape, float, matvec)
    return op, calls


def nonsymmetric(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return np.diag(np.linspace(4.0, 12.0, n)) + 0.3 * rng.standard_normal((n, n))


def spd(n=40, seed=1):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0.0, 3.0, n)) @ q.T


def test_gmres_stops_on_the_true_residual():
    a = nonsymmetric()
    b = np.random.default_rng(2).standard_normal(a.shape[0])
    # right preconditioning folded into the operator, A M with M = diag(m),
    # whose scale varies by 1e6 across components: a preconditioned residual
    # would say little about b - A x for x = M y
    m = 1.0 / (np.logspace(-3.0, 3.0, a.shape[0]) * np.diag(a))
    op, _ = counted(a * m)
    rtol = 1e-6
    y, info = gmres(op, b, rtol=rtol)
    assert info == 0
    assert np.linalg.norm(b - a @ (m * y)) <= rtol * np.linalg.norm(b)
    x_tight, info = gmres(counted(a / np.diag(a))[0], b, rtol=1e-13)
    assert info == 0
    np.testing.assert_allclose(x_tight / np.diag(a), np.linalg.solve(a, b), rtol=0, atol=1e-11)


def test_gmres_starved_budget_reports_failure(monkeypatch):
    n = 60
    a = np.diag(np.logspace(0.0, 6.0, n)) + np.triu(np.ones((n, n)), 1)
    b = np.ones(n)
    op, calls = counted(a)
    monkeypatch.setattr(krylov, "GMRES_MAX_ITERS", 2)
    x, info = gmres(op, b, rtol=1e-10)
    assert info != 0
    assert np.all(np.isfinite(x))
    assert len(calls) == 3  # two Arnoldi products and the true residual


def test_gmres_stops_on_a_nan_operator():
    op, calls = counted(np.full((8, 8), np.nan))
    x, info = gmres(op, np.ones(8), rtol=1e-8)
    assert info != 0
    assert len(calls) == 2  # one Arnoldi product, one residual


@pytest.mark.parametrize("solve, start", [(gmres, {}), (cg, {})])
def test_zero_right_hand_side_needs_no_product(solve, start):
    op, calls = counted(spd(8))
    if solve is cg:
        start = {**start, "M": lambda v: 2.0 * v}
    x, info = solve(op, np.zeros(8), rtol=1e-10, **start)
    assert info == 0
    assert calls == []
    np.testing.assert_array_equal(x, np.zeros(8))


@pytest.mark.parametrize("solve, a", [(gmres, nonsymmetric()), (cg, spd())])
def test_scipy_linear_operator_is_accepted(solve, a):
    b = np.random.default_rng(5).standard_normal(a.shape[0])
    jacobi = 1.0 / np.diag(a)
    kw = {"M": lambda v: jacobi * v} if solve is cg else {}
    plain, info_plain = solve(counted(a)[0], b, rtol=1e-10, **kw)
    wrapped, info = solve(LinearOperator(a.shape, matvec=lambda v: a @ v, dtype=float), b,
                          rtol=1e-10, **kw)
    assert info == info_plain == 0
    np.testing.assert_array_equal(wrapped, plain)


def test_fused_right_preconditioning_matches_a_dense_solve():
    # the Newton polish's Jacobian K - C swap on two stacked rows, shifted
    # here by lam (the polish takes no shift), A = K + lam - C swap with
    # K = (-Delta)^{1/2} + V and P = (|k| + mean V)^{-1}: P applied to the
    # GMRES solution of the fused product A P, against A x = b solved
    # densely, A assembled column by column
    grid = Grid(40.0, 256)
    n = grid.n_points
    V = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.x / grid.length)
    vbar, lam = float(np.mean(V)), 1e-3
    rng = np.random.default_rng(7)
    coupling = 0.5 * np.exp(-grid.x**2) * (1.0 + 0.1 * rng.random((2, n)))

    def prec(x):
        return inv_multiplier(x.reshape(2, n), grid, vbar).ravel()

    def jac(x):
        x = x.reshape(2, n)
        return (halflap(x, grid) + (V + lam) * x - coupling * x[::-1]).ravel()

    def jac_prec(y):
        z = prec(y).reshape(2, n)
        return (y.reshape(2, n) + (V - vbar + lam) * z - coupling * z[::-1]).ravel()

    b = rng.standard_normal(2 * n)
    dense = np.linalg.solve(np.column_stack([jac(e) for e in np.eye(2 * n)]), b)
    y, info = gmres(Operator((2 * n, 2 * n), float, jac_prec), b, rtol=1e-12)
    assert info == 0
    # cond(A) is about 32, so rtol 1e-12 bounds the error by about 3e-11 (measured 2.8e-12)
    assert np.max(np.abs(prec(y) - dense)) <= 1e-10 * np.max(np.abs(dense))


IMPORT_GUARD = """
import sys

import halfwave
import halfwave.cli

calls = {}


def counting(module, name):
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    setattr(module, name, wrapped)


counting(sys.modules["halfwave.nehari"], "gmres")
counting(sys.modules["halfwave.energy"], "cg")
fam = halfwave.builtin_family("cubic_quintic_exp", beta0=1.0)
cfg = halfwave.SolverConfig(restarts=1, seed=0)
halfwave.solve_ground_state(fam, 1.0, halfwave.Grid(40.0, 512), cfg)
halfwave.solve_rescaled(1.0, halfwave.single_well(1.0, 2.0), fam, halfwave.Grid(80.0, 1024), cfg)
print(calls.get("gmres", 0), calls.get("cg", 0))
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_runtime_imports_no_scipy():
    # a constant-V and a single-well solve reach the Newton polish and the
    # Riesz CG; neither they nor the CLI module may load scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts, scipy_modules = (proc.stdout.splitlines() + [""])[:2]
    n_gmres, n_cg = map(int, counts.split())
    assert n_gmres > 0 and n_cg > 0
    assert scipy_modules == ""
