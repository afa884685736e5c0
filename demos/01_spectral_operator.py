#!/usr/bin/env python3
"""Fractional Laplacian on the periodic grid: three independent checks.

1. Fourier modes are eigenfunctions: (-Delta)^{1/2} cos(kx) = |k| cos(kx).
2. Semigroup property: applying (-Delta)^{1/4} twice equals (-Delta)^{1/2}.
3. The multiplier matches the principal-value singular integral (periodized
   kernel, adaptive quadrature with the singular cell handled analytically).

All three pin down the 1/pi convention of the pointwise definition.
"""

import numpy as np
from scipy.integrate import quad

from halfwave import (
    Field,
    Grid,
    SpectralExponent,
    apply_fractional_laplacian,
    weighted_inner,
)

HALF = SpectralExponent(0.5)
QUARTER = SpectralExponent(0.25)

print("=" * 72)
print("FOURIER-MULTIPLIER FRACTIONAL LAPLACIAN")
print("=" * 72)

g = Grid(40.0, 2048)
print(f"grid: L = {g.length}, N = {g.n_points}, h = {g.spacing:.5f}")

print("\n1. eigenrelation on pure modes")
print(f"{'m':>4s} {'|k| = 2 pi m / L':>18s} {'max rel error':>15s}")
for m in (1, 3, 7, 15):
    lam = 2.0 * np.pi * m / g.length
    u = Field(g, np.cos(2.0 * np.pi * m * g.x / g.length))
    out = apply_fractional_laplacian(u, HALF)
    err = np.max(np.abs(out.values - lam * u.values)) / lam
    print(f"{m:4d} {lam:18.6f} {err:15.3e}")

print("\n2. semigroup: quarter twice vs half once")
rng = np.random.default_rng(7)
coef = np.zeros(g.n_points, complex)
for m in range(1, 9):
    coef[m] = rng.normal() + 1j * rng.normal()
    coef[-m] = np.conj(coef[m])
u = Field(g, np.fft.ifft(coef).real * np.sqrt(g.n_points))
twice = apply_fractional_laplacian(apply_fractional_laplacian(u, QUARTER), QUARTER)
once = apply_fractional_laplacian(u, HALF)
print(
    "   max rel deviation:",
    f"{np.max(np.abs(twice.values - once.values)) / np.max(np.abs(once.values)):.3e}",
)

print("\n3. singular-integral quadrature (gaussian input, core |x| <= 5)")


def u_per(t):
    return sum(np.exp(-((t + m * g.length) ** 2)) for m in (-1, 0, 1))


def pv_oracle(x0, delta=1e-3):
    ux = u_per(x0)

    def integrand(z):
        kper = (np.pi / g.length) ** 2 / np.sin(np.pi * z / g.length) ** 2
        return (2.0 * ux - u_per(x0 + z) - u_per(x0 - z)) * kper

    val, _ = quad(integrand, delta, g.length / 2, limit=200, points=[0.01, 0.1, 1.0])
    step = 1e-4
    udd = (u_per(x0 + step) - 2.0 * ux + u_per(x0 - step)) / step**2
    return (val - udd * delta) / np.pi


gauss = Field(g, np.exp(-g.x**2))
spec = apply_fractional_laplacian(gauss, HALF).values
print(f"{'x':>6s} {'multiplier':>14s} {'PV quadrature':>14s} {'abs diff':>12s}")
for x0 in (-4.0, -2.0, -0.5, 0.0, 1.0, 3.0, 5.0):
    j = g.index_of(x0)
    oracle = pv_oracle(g.x[j])
    print(f"{g.x[j]:6.2f} {spec[j]:14.8f} {oracle:14.8f} {abs(spec[j] - oracle):12.3e}")

print("\n4. Parseval consistency of the H^{1/2} pairing")
m = 4
V0 = 1.3
mode = Field(g, np.cos(2.0 * np.pi * m * g.x / g.length))
expected = (2.0 * np.pi * m / g.length + V0) * g.length / 2.0
print(f"   <cos, cos>_(1/2) = {weighted_inner(mode, mode, V0):.10f}")
print(f"   (|k| + V0) L / 2 = {expected:.10f}")
