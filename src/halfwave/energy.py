"""The coupled-pair energy and its first derivative.

The energy of a pair w = (u, v) is

    J(w) = <u, v>_{1/2,V} - integral(F(u) + G(v)),

whose quadratic part is positive on the diagonal subspace {(a, a)} and
negative on the antidiagonal {(b, -b)}.  The derivative is exposed as the
strong-form L2 residuals of the coupled Euler-Lagrange system; the
manifold residuals take Riesz representatives in the pair inner product,
one solve with the multiplier (|k| + V)^{-1} away.

The potential V may be a positive scalar (autonomous problem) or a sample
vector on the grid (rescaled semiclassical problem).  Riesz solves are a
pure Fourier multiplier in the scalar case and a preconditioned CG solve in
the varying case.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import GridMismatch, InvalidField
from .families import NonlinearityFamily
from .grids import Field, Grid, half_pairing, halflap, inv_multiplier
from .krylov import Operator, cg

PotentialValues = Union[float, np.ndarray]

RIESZ_RTOL = 1e-13  # relative CG tolerance of the varying-potential Riesz solve


class PairField:
    """w = (u, v) on a shared grid."""

    __slots__ = ("u", "v")

    def __init__(self, u: Field, v: Field):
        if u.grid != v.grid:
            raise GridMismatch("pair components live on different grids")
        self.u = u
        self.v = v

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def __add__(self, other: "PairField") -> "PairField":
        return PairField(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "PairField") -> "PairField":
        return PairField(self.u - other.u, self.v - other.v)

    def __mul__(self, c: float) -> "PairField":
        return PairField(self.u * c, self.v * c)

    __rmul__ = __mul__

    def shift(self, n_cells: int) -> "PairField":
        return PairField(self.u.shift(n_cells), self.v.shift(n_cells))

    @classmethod
    def zero(cls, grid: Grid) -> "PairField":
        z = Field(grid, np.zeros(grid.n_points))
        return cls(z, z)


def potential_array(V: PotentialValues, grid: Grid) -> np.ndarray:
    """V as a validated positive scalar or sample array on ``grid``."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 0:
        if not V > 0:
            raise InvalidField(f"potential must be positive, got {V}")
        return V
    if V.shape != (grid.n_points,):
        raise InvalidField(
            f"potential samples must match grid (N={grid.n_points}), got {V.shape}"
        )
    if not np.all(V > 0):
        raise InvalidField("potential samples must be positive")
    return V


def inner_values(a: np.ndarray, b: np.ndarray, Va, grid: Grid) -> float:
    """:func:`weighted_inner` on sample arrays, ``Va`` from :func:`potential_array`."""
    return float(half_pairing(a, b, grid) + grid.spacing * np.sum(Va * a * b))


def norm_values(a: np.ndarray, Va, grid: Grid) -> float:
    return float(np.sqrt(max(inner_values(a, a, Va, grid), 0.0)))


def weighted_inner(u: Field, v: Field, V: PotentialValues) -> float:
    """<u,v> = integral((-Delta)^{1/4}u (-Delta)^{1/4}v) + integral(V u v)."""
    u._check_same_grid(v)
    return inner_values(u.values, v.values, potential_array(V, u.grid), u.grid)


def weighted_norm(u: Field, V: PotentialValues) -> float:
    return norm_values(u.values, potential_array(V, u.grid), u.grid)


def pair_inner(w1: PairField, w2: PairField, V: PotentialValues) -> float:
    return weighted_inner(w1.u, w2.u, V) + weighted_inner(w1.v, w2.v, V)


def pair_norm(w: PairField, V: PotentialValues) -> float:
    return float(np.sqrt(max(pair_inner(w, w, V), 0.0)))


def apply_k(x: np.ndarray, Va, grid: Grid) -> np.ndarray:
    """K x = (-Delta)^{1/2} x + V x along the last axis, ``Va`` from
    :func:`potential_array`."""
    return halflap(x, grid) + Va * x


def riesz_solve(rhs: np.ndarray, grid: Grid, V: PotentialValues) -> np.ndarray:
    """Invert (-Delta)^{1/2} + V; exact multiplier for scalar V, CG otherwise."""
    Va = potential_array(V, grid)
    if Va.ndim == 0:
        return inv_multiplier(rhs, grid, float(Va))

    vbar = float(np.mean(Va))
    n = grid.n_points

    def apply_prec(x):
        return inv_multiplier(x, grid, vbar)

    op = Operator((n, n), float, lambda x: apply_k(x, Va, grid))
    sol, info = cg(op, rhs, M=apply_prec, rtol=RIESZ_RTOL)
    if info != 0:
        raise InvalidField(f"Riesz CG solve did not converge (info={info})")
    return sol


def phi(w: PairField, fam: NonlinearityFamily) -> float:
    """Potential term integral(F(u) + G(v)); guards the exp argument."""
    fam.guard_amplitude(w.u.values, "u")
    fam.guard_amplitude(w.v.values, "v")
    dens = fam.F(w.u.values) + fam.G(w.v.values)
    return float(w.grid.spacing * np.sum(dens))


def energy(w: PairField, fam: NonlinearityFamily, V: PotentialValues) -> float:
    return weighted_inner(w.u, w.v, V) - phi(w, fam)


def strong_residual(uv: np.ndarray, fam: NonlinearityFamily, Va, grid: Grid, kuv=None):
    """The coupled system in strong form at uv = (u, v), stacked rows:
    r = K uv - nl with K = (-Delta)^{1/2} + V and nl = (g(v), f(u)), so r[0]
    is the u-equation residual and r[1] the v-equation one; ``Va`` is from
    :func:`potential_array`, and ``kuv`` = K uv when the caller carries it
    (otherwise K is applied here).  Returns (r, nl) and guards nothing.  The
    Newton polish and every certificate of J' take their residual here.  A
    single row uv = (u,) stands for the pair (u, u) of a symmetric family
    (f = g), whose two rows are both r = (-Delta)^{1/2} u + V u - f(u)."""
    nl = fam.f(uv) if len(uv) == 1 else np.stack([fam.g(uv[1]), fam.f(uv[0])])
    return (apply_k(uv, Va, grid) if kuv is None else kuv) - nl, nl


def pair_residual(w: PairField, fam: NonlinearityFamily, V: PotentialValues) -> np.ndarray:
    """:func:`strong_residual` of a pair, behind the exp-argument guard.

    The certificates below take it as ``r``, so one evaluation can serve
    them all; without ``r`` each evaluates it."""
    fam.guard_amplitude(w.u.values, "u")
    fam.guard_amplitude(w.v.values, "v")
    uv = np.stack([w.u.values, w.v.values])
    return strong_residual(uv, fam, potential_array(V, w.grid), w.grid)[0]


def el_residual_norms(w: PairField, fam: NonlinearityFamily, V: PotentialValues, r=None):
    """L2 norms of the two Euler-Lagrange equation residuals (u-eq, v-eq)."""
    r_u, r_v = pair_residual(w, fam, V) if r is None else r
    h = w.grid.spacing
    return (
        float(np.sqrt(h) * np.linalg.norm(r_u)),
        float(np.sqrt(h) * np.linalg.norm(r_v)),
    )


def ray_derivative(w: PairField, fam: NonlinearityFamily, V: PotentialValues, r=None) -> float:
    """<J'(w), w> = 2<u,v> - integral(f(u)u + g(v)v), paired in strong form:
    integral(r_v u + r_u v)."""
    r_u, r_v = pair_residual(w, fam, V) if r is None else r
    return w.grid.spacing * float(np.sum(r_v * w.u.values + r_u * w.v.values))


def wminus_riesz(w: PairField, fam: NonlinearityFamily, V: PotentialValues, r=None) -> Field:
    """Riesz representative of phi -> <J'(w), (phi, -phi)> in H^{1/2}_V:
    ((-Delta)^{1/2} + V)^{-1} (r_v - r_u)."""
    r_u, r_v = pair_residual(w, fam, V) if r is None else r
    return Field(w.grid, riesz_solve(r_v - r_u, w.grid, V))


def nehari_residuals(w: PairField, fam: NonlinearityFamily, V: PotentialValues, r=None):
    """Normalized membership residuals for the constrained manifold.

    Returns (ray, minus): |<J'(w),w>| / ||w||^2 and the dual norm of the
    antidiagonal derivative over unit antidiagonal directions, / ||w||.
    ``r`` is :func:`pair_residual` at w, when the caller has it.
    """
    nw2 = pair_inner(w, w, V)
    if nw2 <= 0.0:
        return 0.0, 0.0
    ray = abs(ray_derivative(w, fam, V, r)) / nw2
    rho = wminus_riesz(w, fam, V, r)
    minus = weighted_norm(rho, V) / np.sqrt(2.0 * nw2)
    return float(ray), float(minus)
