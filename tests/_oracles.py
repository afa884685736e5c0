"""Independent slow oracles used by the test suite.

The operator oracles deliberately avoid the FFT code paths they are used to
check: the singular-integral oracle goes through adaptive quadrature of the
periodized kernel, the Gagliardo oracle through a dense double sum, the
Moser seminorm through its closed form on the line.  The pair splitting
and <Phi'(w), w> are written out on fields, apart from the array kernels
of ``halfwave.energy``.  The scalar diagonal solve checks the coupled
two-level solver with a different scheme, and its Newton polish runs on
scipy's GMRES rather than ``halfwave.krylov``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, gmres
from scipy.special import zeta

from halfwave.diagnostics import recenter_pair
from halfwave.energy import PairField, inner_values, norm_values, potential_array
from halfwave.errors import InvalidField, NoAscent
from halfwave.families import NonlinearityFamily
from halfwave.grids import Field, Grid, halflap, inv_multiplier
from halfwave.nehari import ARMIJO_C, ARMIJO_SHRINK, MAX_LINESEARCH, SolverConfig


def periodized(fun, L, images=2):
    """Periodize a decaying function over a box of length L."""

    def wrapped(t):
        return sum(fun(t + m * L) for m in range(-images, images + 1))

    return wrapped


def pv_half_laplacian(fun, x0, L, delta=1e-3):
    """(-Delta)^{1/2} of a smooth periodic function at one point.

    Adaptive quadrature of (1/pi) PV int (u(x)-u(y)) K(x-y) dy over one
    period, with the periodized kernel K(z) = (pi/L)^2 / sin^2(pi z/L) and
    the singular cell |z| < delta handled by the Taylor value -u''(x)*delta.
    """
    ux = fun(x0)

    def integrand(z):
        kper = (np.pi / L) ** 2 / np.sin(np.pi * z / L) ** 2
        return (2.0 * ux - fun(x0 + z) - fun(x0 - z)) * kper

    val, _ = quad(
        integrand,
        delta,
        0.5 * L,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
        points=[0.01, 0.1, 1.0, 5.0],
    )
    step = 1e-4
    udd = (fun(x0 + step) - 2.0 * ux + fun(x0 - step)) / step**2
    return (val - udd * delta) / np.pi


def gagliardo_double_sum(u, v, x, L, V0):
    """H^{1/2} inner product by brute-force double sum.

    (1/2pi) * sum_{i != j} (u_i-u_j)(v_i-v_j) K(x_i-x_j) h^2 + V0 h sum u v,
    periodized kernel, diagonal excluded.
    """
    n = x.size
    h = L / n
    dx = x[:, None] - x[None, :]
    kper = (np.pi / L) ** 2 / np.sin(np.pi * dx / L + np.eye(n)) ** 2
    du = u[:, None] - u[None, :]
    dv = v[:, None] - v[None, :]
    np.fill_diagonal(kper, 0.0)
    semi = np.sum(du * dv * kper) * h**2 / (2.0 * np.pi)
    return semi + V0 * h * float(np.dot(u, v))


@dataclass(frozen=True)
class Decomposition:
    """w = plus + minus with plus = (a, a) and minus = (b, -b)."""

    plus: PairField
    minus: PairField


def decompose(w: PairField) -> Decomposition:
    a = 0.5 * (w.u.values + w.v.values)
    b = 0.5 * (w.u.values - w.v.values)
    fa = Field(w.grid, a)
    fb = Field(w.grid, b)
    return Decomposition(PairField(fa, fa), PairField(fb, -fb))


def phi_prime_pairing(w: PairField, fam: NonlinearityFamily) -> float:
    """<Phi'(w), w> = integral(f(u)u + g(v)v)."""
    fam.guard_amplitude(w.u.values, "u")
    fam.guard_amplitude(w.v.values, "v")
    dens = fam.f(w.u.values) * w.u.values + fam.g(w.v.values) * w.v.values
    return float(w.grid.spacing * np.sum(dens))


def antiderivative(f, t, **kw):
    """Adaptive quadrature of int_0^t f."""
    val, _ = quad(f, 0.0, t, limit=200, epsabs=1e-14, epsrel=1e-14, **kw)
    return val


def moser_seminorm_sq_line(n):
    """Exact Gagliardo seminorm squared of the truncated-log member on the line.

    The member is U = sqrt(log n) on |x| <= r1/n, log(r1/|x|)/sqrt(log n) on
    r1/n < |x| <= r1 and 0 beyond; its seminorm does not depend on r1.
    Integrating by parts twice,

        [U]^2 = -(1/pi) int int U'(x) U'(y) log|x - y| dx dy.

    U' = -sign(x)/(|x| sqrt(log n)) on the ring.  With x = +-e^{-s}
    (r1 = 1, s in [0, log n]) the same-sign and opposite-sign quadrants
    combine into log|(e^{-s} - e^{-t})/(e^{-s} + e^{-t})|, so

        [U]^2 = (2/(pi log n)) int int_{[0, log n]^2} -log tanh(|s - t|/2).

    The series -log tanh(d/2) = 2 sum_{m odd} e^{-m d}/m and
    int int_{[0,l]^2} e^{-m|s-t|} = 2l/m - 2(1 - e^{-ml})/m^2 sum this to

        S(n) = pi - (7 zeta(3) - 8 chi3(1/n)) / (pi log n),
        chi3(x) = sum_{m odd} x^m / m^3,

    so the sequence rises to the sharp constant pi with deficit
    7 zeta(3)/(pi log n) + O(1/(n log n)).  Closed form, no FFT.
    """
    if n <= 1:
        raise ValueError(f"sequence index must be > 1, got {n}")
    x = 1.0 / n
    chi3 = 0.0
    m = 1
    while x**m / m**3 >= 1e-17:
        chi3 += x**m / m**3
        m += 2
    return np.pi - (7.0 * zeta(3.0) - 8.0 * chi3) / (np.pi * np.log(n))


def scalar_diagonal_solve(
    fam: NonlinearityFamily, V, grid: Grid, cfg: SolverConfig, init: Optional[Field] = None
) -> Field:
    """Independent single-equation solve of (-Delta)^{1/2}u + V u = f(u).

    Classic scalar constrained-ray descent: on the unit sphere the ray
    coordinate is maximized by a bracketed search, and the sphere direction
    descends along the projected gradient; a scalar Newton polish finishes.
    Requires a symmetric family (f = g); then (u, u) solves the full system.
    """
    if not fam.symmetric:
        raise NoAscent("scalar diagonal solve requires f = g")
    h = grid.spacing
    Va = potential_array(V, grid)
    vbar = float(np.mean(Va))

    def normalize(vals):
        nrm = norm_values(vals, Va, grid)
        if nrm <= 1e-14:
            raise NoAscent("scalar direction vanished")
        return vals / nrm

    def scalar_I(t, d):
        vals = t * d
        if np.max(np.abs(vals)) > fam.max_safe_amplitude():
            return -np.inf
        return 0.5 * t * t - h * float(np.sum(fam.F(vals)))

    def best_t(d, t0):
        t_hi = max(2.0 * t0, 1.0)
        while scalar_I(t_hi, d) > scalar_I(0.5 * t_hi, d):
            t_hi *= 1.7
            if t_hi > 1e8:
                break
        ts = np.linspace(0.0, t_hi, 48)
        js = [scalar_I(t, d) for t in ts]
        j = int(np.argmax(js))
        a, b = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
        for _ in range(200):
            if b - a <= 1e-13 * (1.0 + b):
                break
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if scalar_I(m1, d) < scalar_I(m2, d):
                a = m1
            else:
                b = m2
        return 0.5 * (a + b)

    if init is None:
        init = Field(grid, np.exp(-(grid.x**2) * vbar / 2.0))
    d = normalize(init.values)
    t = 1.0
    alpha = 1.0
    for _ in range(cfg.max_outer):
        t = best_t(d, t)
        z = t * d
        strong_z = halflap(z, grid) + Va * z - fam.f(z)
        grad = inv_multiplier(strong_z, grid, vbar)  # exact strong residual only
        coeff = inner_values(grad, d, Va, grid)
        tang = grad - coeff * d
        gnorm = norm_values(tang, Va, grid) * t
        if not np.isfinite(gnorm):
            raise InvalidField("scalar descent gradient has NaN/Inf samples")
        if gnorm <= 1e-7:
            break
        level = scalar_I(t, d)
        step = alpha
        accepted = False
        for _ in range(MAX_LINESEARCH):
            d_try = normalize(d - step * t * tang)
            t_try = best_t(d_try, t)
            if scalar_I(t_try, d_try) <= level - ARMIJO_C * step * gnorm**2:
                d, t = d_try, t_try
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
        alpha = min(step / ARMIJO_SHRINK, 1e3)

    u = t * d
    # scalar Newton polish on K u = f(u)
    def strong(x):
        return halflap(x, grid) + Va * x - fam.f(x)

    r = strong(u)
    best_u, best_norm = u.copy(), np.sqrt(h) * np.linalg.norm(r)
    for _ in range(15):
        if best_norm <= 0.05 * cfg.el_tol:
            break
        fp = fam.fp(u)

        def jac(x):
            return halflap(x, grid) + Va * x - fp * x

        def prec(x):
            return inv_multiplier(x, grid, vbar)

        op = LinearOperator((grid.n_points, grid.n_points), matvec=jac)
        pc = LinearOperator((grid.n_points, grid.n_points), matvec=prec)
        delta, info = gmres(op, r, M=pc, rtol=1e-6, atol=0.0, restart=60, maxiter=200)
        if info != 0:
            break
        improved = False
        damp = 1.0
        for _ in range(8):
            trial = u - damp * delta
            rt = strong(trial)
            nt = np.sqrt(h) * np.linalg.norm(rt)
            if nt < best_norm:
                u, r = trial, rt
                best_u, best_norm = trial.copy(), nt
                improved = True
                break
            damp *= 0.5
        if not improved:
            break

    out = Field(grid, best_u)
    if Va.ndim == 0:
        pair, _ = recenter_pair(PairField(out, out))
        out = pair.u
    return out
