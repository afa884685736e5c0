"""Numerical certificates for candidate solutions.

Everything here is pure quadrature on given fields: the dilation identity
residual, the piecewise-logarithmic capacity-type test sequence and its
norm estimates, the level window check, and tail/amplitude metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .energy import PairField
from .errors import InvalidField, UnderResolved
from .families import NonlinearityFamily
from .grids import Field, Grid, l2_norm, linf_norm, seminorm_sq

TAIL_BAND = 0.1  # outer fraction of the box on which decay_profile takes the tail sup
MOSER_REFINEMENTS = 2  # coarsenings by 2 that moser_table repeats its rows on


@dataclass
class ResidualReport:
    """All scalar certificates for one candidate pair; ``pohozaev`` is None
    for a sampled V, where the identity does not hold.  Built by
    ``nehari.build_report``."""

    pohozaev: Optional[float]
    euler_lagrange_u: float
    euler_lagrange_v: float
    nehari_ray: float
    nehari_minus: float
    decay_tail: float
    linf_u: float
    linf_v: float

    def __post_init__(self):
        for name, val in self.as_dict().items():
            if val is not None and not (np.isfinite(val) and val >= 0.0):
                raise InvalidField(f"report entry {name} must be finite >= 0, got {val}")

    @property
    def nehari(self) -> float:
        return max(self.nehari_ray, self.nehari_minus)

    @property
    def euler_lagrange(self) -> float:
        return max(self.euler_lagrange_u, self.euler_lagrange_v)

    def as_dict(self):
        return {
            "pohozaev": self.pohozaev,
            "euler_lagrange_u": self.euler_lagrange_u,
            "euler_lagrange_v": self.euler_lagrange_v,
            "nehari_ray": self.nehari_ray,
            "nehari_minus": self.nehari_minus,
            "decay_tail": self.decay_tail,
            "linf_u": self.linf_u,
            "linf_v": self.linf_v,
        }


def pohozaev_residual(w: PairField, fam: NonlinearityFamily, V0: float) -> float:
    """Normalized residual of integral(F(u) + G(v) - V0 u v) = 0.

    Pure quadrature, no solve; scale-free: the defect is divided by
    integral(F(u) + G(v) + V0 |u v|).

    On a periodic box the residual of a ground state has two parts: an
    O(L^-2) box-truncation part (~2.3e-3 at L=40) and a discretization
    part (~1.7e-3, of opposite sign, at h=0.0195).  It certifies the
    whole-line identity only on a resolved grid in a large box; the default
    Grid(40, 2048) meets 1e-3 only because the two parts cancel.
    """
    fam.guard_amplitude(w.u.values, "u")
    fam.guard_amplitude(w.v.values, "v")
    h = w.grid.spacing
    fu = fam.F(w.u.values)
    gv = fam.G(w.v.values)
    uv = w.u.values * w.v.values
    num = abs(h * np.sum(fu + gv - V0 * uv))
    den = h * np.sum(fu + gv + V0 * np.abs(uv))
    if den <= 1e-300:
        return 0.0
    return float(num / den)


def peak(w: PairField):
    """Where the pair sits: (j, offset), j the index of the largest sample of
    |u|+|v| and offset the peak's distance from it in cells (3-point
    parabolic fit), 0 where the samples do not curve down.

    On a grid a constant-V ground state has an on-grid minimizer and a
    mid-cell saddle, the same profile moved by h/2: the fit reads ~1e-15
    on the first and +-1/2 on the second.
    """
    p = np.abs(w.u.values) + np.abs(w.v.values)
    j = int(np.argmax(p))
    pm, p0, pp = p[j - 1], p[j], p[(j + 1) % p.size]
    curv = pm - 2.0 * p0 + pp
    return j, (0.5 * (pm - pp) / curv if curv < 0.0 else 0.0)


def recenter_pair(w: PairField):
    """Roll the pair so its peak sample (``peak``) sits at the grid point x=0.

    Returns (recentered pair, shift in cells applied).
    """
    shift = w.grid.index_of(0.0) - peak(w)[0]
    return w.shift(shift), shift


@dataclass
class DecayMetrics:
    tail_sup: float
    linf_u: float
    linf_v: float


def decay_profile(w: PairField) -> DecayMetrics:
    """Tail and amplitude metrics: ``tail_sup`` is the sup of |u|+|v| on the
    outer TAIL_BAND of the box about the pair's peak sample (``peak``), the
    points at least (1 - TAIL_BAND) N/2 cells from it, periodically."""
    n = w.grid.n_points
    profile = np.abs(w.u.values) + np.abs(w.v.values)
    dist = np.abs((np.arange(n) - peak(w)[0] + n // 2) % n - n // 2)
    outer = dist >= 0.5 * (1.0 - TAIL_BAND) * n
    tail = float(np.max(profile[outer])) if np.any(outer) else 0.0
    return DecayMetrics(tail_sup=tail, linf_u=linf_norm(w.u), linf_v=linf_norm(w.v))


# -- piecewise-logarithmic test sequence -------------------------------------


@dataclass
class MoserField:
    n: int
    r1: float
    raw: Field
    normalized: Field


def moser_values(n: int, r1: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    ax = np.abs(x)
    ln = np.log(n)
    out[ax <= r1 / n] = np.sqrt(ln)
    ring = (ax > r1 / n) & (ax <= r1)
    out[ring] = np.log(r1 / ax[ring]) / np.sqrt(ln)
    return out


def moser_field(n: int, r1: float, grid: Grid, V0: float = 1.0) -> MoserField:
    """Sample the truncated-logarithm sequence member exactly on the grid."""
    if n < 2:
        raise InvalidField(f"sequence index must be >= 2, got {n}")
    if not r1 < 0.5 * grid.length:
        raise InvalidField(f"support radius r1={r1} must be < L/2={grid.length / 2}")
    if grid.spacing > r1 / (4.0 * n):
        raise UnderResolved(
            f"h={grid.spacing:.4g} too coarse for plateau width r1/n={r1 / n:.4g}; "
            f"need h <= r1/(4n)={r1 / (4 * n):.4g}"
        )
    raw = Field(grid, moser_values(n, r1, grid.x))
    nrm = np.sqrt(seminorm_sq(raw) + V0 * l2_norm(raw) ** 2)
    return MoserField(n=n, r1=r1, raw=raw, normalized=raw * (1.0 / nrm))


def moser_l2sq_exact(n: int, r1: float) -> float:
    """Exact L2 norm squared of the sequence member on the line."""
    ln = np.log(n)
    ring = (r1 / ln) * (2.0 - (ln**2 + 2.0 * ln + 2.0) / n)
    return 2.0 * ((r1 / n) * ln + ring)


@dataclass
class MoserRow:
    n: int
    n_points: int
    seminorm_sq: float
    rel_err_vs_pi: float
    l2_sq: float
    l2_sq_exact: float


def moser_table(n_list, r1: float, grid: Grid) -> List[MoserRow]:
    """Seminorm/L2 table across n, on ``grid`` and on MOSER_REFINEMENTS
    coarsenings of it by 2, coarsest first.

    Members a grid does not resolve are left out.  The repeated rows
    document grid convergence of the seminorm (the corner of the profile
    limits spectral accuracy to an algebraic rate).
    """
    rows = []
    for level in range(MOSER_REFINEMENTS, -1, -1):
        n_pts = grid.n_points // (2**level)
        sub = Grid(grid.length, n_pts)
        for n in n_list:
            try:
                mf = moser_field(n, r1, sub)
            except UnderResolved:
                continue
            semi = seminorm_sq(mf.raw)
            rows.append(
                MoserRow(
                    n=n,
                    n_points=n_pts,
                    seminorm_sq=semi,
                    rel_err_vs_pi=(semi - np.pi) / np.pi,
                    l2_sq=l2_norm(mf.raw) ** 2,
                    l2_sq_exact=float(moser_l2sq_exact(n, r1)),
                )
            )
    return rows


# -- level window -------------------------------------------------------------


@dataclass
class LevelBoundCheck:
    passed: bool
    level: float
    upper: float
    margin: float


def level_bound_check(level: float, beta0: float) -> LevelBoundCheck:
    """Strict window 0 < level < pi/beta0 with the margin to the nearest edge."""
    upper = np.pi / beta0
    passed = bool(0.0 < level < upper)
    margin = min(level, upper - level)
    return LevelBoundCheck(passed=passed, level=float(level), upper=float(upper), margin=float(margin))
