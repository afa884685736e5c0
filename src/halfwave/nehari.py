"""Two-level constrained minimization for ground-state candidates.

Outer level: Riemannian L-BFGS descent of F(s) = J(m(s)) over the unit
sphere of the diagonal subspace (retraction = renormalization, vector
transport = projection, Armijo backtracking from a unit step).  Inner
level: for a fixed diagonal direction, maximize J over the span of the ray
and the antidiagonal subspace, where the maximizer is unique (Szulkin-Weth)
and J is concave in the antidiagonal coordinate: one safeguarded Newton
search on the slope in the ray coordinate, then joint Newton steps in (ray,
antidiagonal), each a truncated preconditioned CG solve globalized by an
Armijo test on J.  For f = g the swap (u, v) -> (v, u) maps J(t, q) to
J(t, -q), so the maximizer has q = 0, and from a diagonal start the inner
level skips the work on q, which is exactly 0.  A matrix-free Newton polish
then drives the strong-form residual of the coupled system to the requested
tolerance once the descent has localized the candidate (for f = g and u = v,
on the one row u); from a warm start ``newton_first`` runs it with no descent.

Every level applies K = (-Delta)^{1/2} + V and the preconditioner
P = (|k| + vbar)^{-1}, vbar = mean V.  For the discrete multipliers
K P x = x + (V - vbar) P x exactly, so a vector just preconditioned has its
K-image without another FFT; the descent, the slice CG and the polish take
K-images that way and carry them forward, while the certificates
(``build_report``) apply K afresh.

All randomness is seeded: start 0 is a centred bump, and start r >= 1 a
bump whose centre, width and wiggle wavenumber are three .random() draws,
in that order, from the standard-library ``random.Random(seed + 1000 r)``
(``initial_directions``).  Restarts run one after another and are merged
deterministically, so runs are reproducible bit-for-bit.  For a constant
potential the restarts stop once two converged ones tie in level, since
every start then reaches the same state up to translation.  On a grid of
N >= 4096 points the restarts run on the grid of N/4 points, and only the
winner's own start runs on the full grid.
"""

from __future__ import annotations

import logging
import random
from dataclasses import InitVar, dataclass, field, replace
from typing import List, Optional

import numpy as np

from .diagnostics import ResidualReport, decay_profile, peak, pohozaev_residual, recenter_pair
from .energy import (
    PairField,
    apply_k,
    el_residual_norms,
    energy,
    nehari_residuals,
    pair_residual,
    potential_array,
    strong_residual,
    weighted_inner,  # noqa: F401  (perfbench/spans.py patches these names here)
    weighted_norm,  # noqa: F401
)
from .errors import InvalidField, NoAscent, OverflowGuard
from .families import NonlinearityFamily
from .grids import Field, Grid, inv_multiplier, translate
from .krylov import Operator, gmres

# floor of the inner residual target, and the iteration budget of inner_maximize
INNER_TOL = 1e-9
INNER_MAX_ITERS = 300
NEWTON_MAX_STEPS = 25  # iteration budget of _newton_polish
POLISH_TARGET = 0.05  # the polish targets this fraction of el_tol
# ulps of |J| within which J is flat to round-off: a slice Newton step that
# predicts less increase is taken whole
RAY_J_ULPS = 4
LEVEL_TIE_RTOL = 1e-12  # restart levels this close (relative) are one state
# restarts are screened on the grid with 1/SCREEN_FACTOR of the points when
# that grid keeps at least SCREEN_MIN_POINTS
SCREEN_FACTOR = 4
SCREEN_MIN_POINTS = 1024
# outer gradient, relative to 1 + |level|, at which the descent hands over to
# Newton: a constant V leaves one minimizer up to translation, so Newton can
# take over early (from 1e-1 some polishes fail the checks of _polish and the
# descent resumes; 5e-2 keeps a factor 2 below that); a varying V pins the
# profile only weakly, so the descent must localize it first (from 1e-4,
# Newton spends its whole budget on the double well's translation mode at
# eps <= 0.35)
POLISH_HANDOFF_CONSTANT_V = 5e-2
POLISH_HANDOFF_VARYING_V = 1e-5
# an early polish is kept only if its peak sits within this many cells of a
# grid point (3-point parabolic fit): the on-grid minimizer reads ~1e-15, the
# mid-cell saddle 1/2
PEAK_OFFSET_MAX = 0.25
# Eisenstat-Walker choice-2 forcing terms for the Newton-GMRES solves
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_ETA_MAX = 0.5
# inner slice Newton: largest CG forcing term, and the CG iteration cap
SLICE_ETA_MAX = 0.03
SLICE_CG_MAX = 20
# Armijo backtracking of the outer descent: trial budget, sufficient-decrease
# constant and step shrink factor
MAX_LINESEARCH = 30
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# outer L-BFGS: (s, y) pairs kept, and the curvature <s, y> relative to
# |s| |y| at or below which a pair is dropped
LBFGS_MEMORY = 5
LBFGS_CURVATURE_RTOL = 1e-10

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one solve, each checked here (ValueError): el_tol is a
    finite positive number, the rest integers, with max_outer, restarts >= 1 and
    seed >= 0.  The descent has no tolerance: it ends at the Newton handoff.
    ``restarts`` is the number of starts; for a constant V it is an upper
    bound, as ``solve_ground_state`` stops once two converged starts tie.
    On N >= 4096 points the starts are screened on N/4 points and one runs
    on N (see ``solve_ground_state``); no setting turns that on or off."""

    el_tol: float = 1e-6
    max_outer: int = 600
    restarts: int = 5
    seed: int = 0
    # restarts run in sequence; perfbench/workloads.py still passes
    # threads=1, the only value accepted.  Not a field: asdict, repr and
    # equality leave it out
    threads: InitVar[int] = 1

    def __post_init__(self, threads):
        if threads != 1:
            raise ValueError(f"threads must be 1 (restarts run in sequence), got {threads!r}")
        tol = self.el_tol
        if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and 0 < tol < np.inf):
            raise ValueError(f"el_tol must be a finite positive number, got {tol!r}")
        for name, least in (("max_outer", 1), ("restarts", 1), ("seed", 0)):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            if val < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass
class NehariPoint:
    """Intersection of one ray-plus-antidiagonal slice with the manifold:
    w = t (ahat, ahat) + (q, -q), with the arrays q and kq = K q.  A warm
    start needs t, q and kq alone; the other fields default to unsolved."""

    t: float
    q: np.ndarray
    kq: np.ndarray
    w: Optional[PairField] = None
    ray_residual: float = np.inf
    minus_residual: float = np.inf
    level: float = np.nan
    inner_iters: int = 0


@dataclass
class IterationRecord:
    outer_step: int
    level: float
    grad_norm: float
    inner_iters: int


@dataclass
class GroundStateResult:
    w: PairField
    level: float
    report: ResidualReport
    trace: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    message: str = ""
    restart_index: int = 0
    newton_steps: int = 0
    restarts_run: int = 1  # starts solve_ground_state ran, dropped ones included

    @property
    def el_residual(self) -> float:
        return self.report.euler_lagrange

    @property
    def nehari_residual(self) -> float:
        return self.report.nehari


# -- inner level --------------------------------------------------------------


def make_diagonal_gradient(grid: Grid, V, fam: NonlinearityFamily):
    """Preconditioned diagonal derivative representative and its K-image.

    ``plus(u, v, ks)``, with ks = K (u + v), returns (c, K c) for c =
    P(strong residual), which represents b -> <J'(w), (b, b)> and vanishes
    exactly at critical points.  P = (|k| + mean V)^{-1} is the exact Riesz
    map for scalar V and, for a varying potential, the spectrally equivalent
    preconditioner used for all descent directions (exact representatives
    are only needed in reports).
    """
    vbar = float(np.mean(V))
    dv = np.asarray(V, dtype=float) - vbar

    # P is applied to exact strong-form residuals only: shortcuts of the
    # form u - P(f) are biased whenever P is not the exact inverse.  K c is
    # no such shortcut: K = P^{-1} + (V - vbar) holds for the discrete
    # multipliers themselves, so K c = res + (V - vbar) c is exact algebra,
    # equal to a fresh halflap(c) + V c up to round-off
    # on the symmetric slice (f = g, u = v) f runs once, and the residual
    # is formed in the same order, so it is bit for bit the general one
    def plus(u, v, ks):
        if fam.symmetric and np.array_equal(u, v):
            fu = fam.f(u)
            res = ks - fu - fu
        else:
            res = ks - fam.f(u) - fam.g(v)
        c = inv_multiplier(res, grid, vbar)
        return c, res + dv * c

    return plus


class _RaySlice:
    """State for maximizing J over {t*(ahat,ahat) + (q,-q)}; on the ``diagonal``
    slice (f = g, q = 0; see inner_maximize) u is v and each kernel runs once."""

    def __init__(self, ahat: np.ndarray, fam: NonlinearityFamily, h: float, diagonal=False):
        self.ahat = ahat
        self.ahat_sq = ahat * ahat
        self.ahat_max = float(np.max(np.abs(ahat)))
        self.fam = fam
        self.h = h
        self.diagonal = diagonal

    def components(self, t, q):
        if self.diagonal:
            u = t * self.ahat
            return u, u
        return t * self.ahat + q, t * self.ahat - q

    def beyond_safe(self, t):
        """On the diagonal slice, whether t ahat leaves the exp-safe amplitude:
        rounding is monotone, so |t| max|ahat| is max|t ahat| bit for bit."""
        return abs(t) * self.ahat_max > self.fam.max_safe_amplitude()

    def _safe_components(self, t, q):
        """components(t, q), or None beyond the exp-safe amplitude."""
        if self.diagonal:
            return None if self.beyond_safe(t) else self.components(t, q)
        u, v = self.components(t, q)
        amp = max(np.max(np.abs(u), initial=0.0), np.max(np.abs(v), initial=0.0))
        return None if amp > self.fam.max_safe_amplitude() else (u, v)

    def j_value(self, t, q, q_norm_sq):
        """J = t^2/2 - ||q||^2 - Phi; -inf if the exponent guard trips."""
        uv = self._safe_components(t, q)
        if uv is None:
            return -np.inf
        u, v = uv
        Fu = np.sum(self.fam.F(u))
        phi = Fu + Fu if self.diagonal else Fu + np.sum(self.fam.G(v))
        return 0.5 * t * t - q_norm_sq - self.h * float(phi)

    def ray_slope(self, t, q):
        """dJ/dt = t - integral((f(u) + g(v)) * ahat) and its t-derivative
        1 - integral((f'(u) + g'(v)) * ahat^2); (-inf, -inf) if the exponent
        guard trips.  Each integral is a sum of two dot products; on the
        diagonal slice g(v) = f(u), and x + x = 2x is exact, so one dot
        product doubled is the general path bit for bit."""
        uv = self._safe_components(t, q)
        if uv is None:
            return -np.inf, -np.inf
        u, v = uv
        fam, ahat, ahat_sq = self.fam, self.ahat, self.ahat_sq
        if self.diagonal:
            nl, curv = 2.0 * (fam.f(u) @ ahat), 2.0 * (fam.fp(u) @ ahat_sq)
        else:
            nl = fam.f(u) @ ahat + fam.g(v) @ ahat
            curv = fam.fp(u) @ ahat_sq + fam.gp(v) @ ahat_sq
        return t - self.h * float(nl), 1.0 - self.h * float(curv)

    def ray_pairing(self, t, q_norm_sq, u, v, fu, gv):
        """<J'(w), w> = t^2 - 2||q||^2 - integral(f(u)u + g(v)v) at
        (u, v) = components(t, q), given fu = f(u) and gv = g(v), as
        ||(ahat, ahat)|| = 1 gives <u, v> = t^2/2 - ||q||^2."""
        pairing = 2.0 * (fu @ u) if self.diagonal else fu @ u + gv @ v
        return t * t - 2.0 * q_norm_sq - self.h * float(pairing)


def _maximize_along_ray(sl: _RaySlice, t0: float, q, q_norm_sq, tol: float):
    """Locate argmax of t -> J on the ray from t0 > 0; returns (t, J(t)).

    Newton on the slope s = dJ/dt, safeguarded as rtsafe (Numerical Recipes
    9.4) by a bracket lo < t* < hi with s(lo) > 0 >= s(hi), from (0, inf).
    With S = t - s = h sum((f(u) + g(v)) ahat), where S > 0 and its
    elasticity e = S' t / S exceeds 1 the step is Newton on log S = log t
    in log t, t -> t exp(-log(S / t) / (e - 1)), which is exact for a power
    nonlinearity (S = c t^e) and takes the same slope evaluation; elsewhere
    it is Newton on s, t -> t - s / s'.  A step that leaves the bracket,
    overflows, is Newton on s where s' >= 0 (the ray is not concave) or is
    more than half the previous step gives way to doubling t while hi = inf
    and to bisection after.  Stops after a Newton step taken from
    |s| <= tol t / 10, which leaves |s| well below tol t, or at a step
    <= 1e-13 (1 + t); ``tol`` = 0 keeps only the latter.  Evaluates J
    once, at the result.  Raises InvalidField on a NaN slope and NoAscent
    when t overflows (J has no maximum on the ray).
    """
    lo, hi = 0.0, np.inf
    t, step = t0, np.inf
    while True:
        s, sp = sl.ray_slope(t, q)
        if np.isnan(s):
            raise InvalidField("ray slope is NaN")
        if s > 0.0:
            lo = t
        else:
            hi = t
        s_nl = t - s  # S, the nonlinear part of the slope
        elasticity = (1.0 - sp) * t / s_nl if s_nl > 0.0 else 0.0
        if elasticity > 1.0:
            with np.errstate(over="ignore"):
                t_new = t * np.exp(-np.log(s_nl / t) / (elasticity - 1.0))
        else:
            t_new = t - s / sp if sp < 0.0 else np.nan
        newton = lo <= t_new <= hi and abs(t_new - t) <= 0.5 * step and t_new < np.inf
        if not newton:
            t_new = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
        if t_new == np.inf:
            raise NoAscent("J has no maximum on the ray")
        close = newton and abs(s) <= 0.1 * tol * t
        t, step = t_new, abs(t_new - t)
        if close or step <= 1e-13 * (1.0 + t):
            return t, sl.j_value(t, q, q_norm_sq)


def _slice_hessian(sl: _RaySlice, u, v):
    """-J_tt and the operator -H of J on the slice at (u, v) = sl.components(t, q).

    With K = (-Delta)^{1/2} + V, s = f'(u) + g'(v) and
    c = (f'(u) - g'(v)) ahat,

        -H (dt, dq) = (-J_tt dt + h sum(c dq), c dt + 2 K dq + s dq),
        -J_tt = h sum(s ahat^2) - 1,

    self-adjoint in (a, x).(b, y) = ab + h sum(x y); the q part is the L2
    representative, like r = -2 K q - f(u) + g(v) for J_q; ``neg_hess``
    takes ``kdq`` = K dq with dq, so it applies no K.  On the diagonal slice
    c = 0 and the q part is exactly 0, held as an empty array.
    """
    h, ahat = sl.h, sl.ahat
    fpu = sl.fam.fp(u)
    gpv = fpu if v is u else sl.fam.gp(v)
    s = fpu + gpv
    c = (fpu - gpv) * ahat
    m_tt = h * float(s @ sl.ahat_sq) - 1.0

    def neg_hess(dt, dq, kdq):
        if not dq.size:
            return m_tt * dt, dq
        return m_tt * dt + h * float(c @ dq), c * dt + 2.0 * kdq + s * dq

    return m_tt, neg_hess


def _slice_pcg(neg_hess, m_tt, jt, r, rho, dv, grid: Grid, vbar, eta):
    """Inexact Newton step (dt, dq) solving -H (dt, dq) = (J_t, r), and K dq.

    Truncated PCG (Steihaug 1983) preconditioned by
    (1/(-J_tt), (2 (|k| + vbar))^{-1}), whose action on r is rho/2.  It stops
    at preconditioned relative residual ``eta``, after SLICE_CG_MAX
    iterations, or on non-positive curvature at its current iterate (the
    preconditioned gradient if that is the first direction).  The q parts
    carry K-images, from K z = r / 2 + dv z for z = P r / 2 (dv = V - vbar),
    so an iteration takes one inv_multiplier and no halflap.  Empty q parts
    (the diagonal slice) leave the recurrence in t alone, with no FFT.
    """
    h = grid.spacing
    xt, xq, kxq = 0.0, np.zeros_like(r), np.zeros_like(r)
    rt, rq = jt, r
    zt, zq = jt / m_tt, 0.5 * rho
    kzq = 0.5 * rq + dv * zq if rq.size else rq
    pt, pq, kpq = zt, zq, kzq
    rz = rt * zt + h * float(rq @ zq)
    stop = eta * eta * rz
    for k in range(SLICE_CG_MAX):
        at, aq = neg_hess(pt, pq, kpq)
        curv = pt * at + h * float(pq @ aq)
        if not curv > 0.0:
            return (zt, zq, kzq) if k == 0 else (xt, xq, kxq)
        alpha = rz / curv
        xt, xq, kxq = xt + alpha * pt, xq + alpha * pq, kxq + alpha * kpq
        rt, rq = rt - alpha * at, rq - alpha * aq
        zt = rt / m_tt
        if rq.size:
            zq = 0.5 * inv_multiplier(rq, grid, vbar)
            kzq = 0.5 * rq + dv * zq
        rz_new = rt * zt + h * float(rq @ zq)
        if rz_new <= stop:
            break
        beta, rz = rz_new / rz, rz_new
        pt, pq, kpq = zt + beta * pt, zq + beta * pq, kzq + beta * kpq
    return xt, xq, kxq


def inner_maximize(
    ahat: np.ndarray,
    fam: NonlinearityFamily,
    Va,
    grid: Grid,
    inner_tol: float,
    warm: NehariPoint,
) -> NehariPoint:
    """Maximize J over the slice {t (ahat, ahat) + (q, -q)}.

    ``ahat`` is a diagonal direction as ``_diag_normalize`` returns it,
    ||(ahat, ahat)||_W = 1, and ``Va`` a potential from ``potential_array``.
    One ray search (``_maximize_along_ray``, from ``warm.t``, to the slope
    ``inner_tol`` asks of the ray residual) places t; then
    Newton iterations in (t, q), each solved inexactly by ``_slice_pcg`` to
    the forcing term min(SLICE_ETA_MAX, sqrt(residual)) and globalized by
    an Armijo test on J, run until the ray and antidiagonal residuals are
    at ``inner_tol``, at most INNER_MAX_ITERS of them.  The outer descent
    passes max(INNER_TOL, min(handoff, 0.02 |g|)), as accurate as its
    gradient g, and max(INNER_TOL, handoff) to its first solve (see
    ``outer_minimize``).
    Where the predicted increase is within RAY_J_ULPS ulp of |J|, J is flat
    to round-off and the full step is taken.  Where the ray is not concave
    the step is a ray search from t instead.  ``inner_iters`` counts the
    iterations, i.e. the residual evaluations.

    q and K q start from ``warm`` (the previous point), and K q is
    carried with the K dq of each step, so r, ||q||^2 = h q.Kq and ||rho||^2
    = h rho.(r + (V - vbar) rho) take no halflap.

    Symmetric slice: for a family with ``symmetric`` set (f = g) and a
    start with q identically 0 (a ``warm`` with q all zero), q
    stays 0 bit for bit: r = -2 K q - f(u) + g(v) and the coupling
    (f'(u) - g'(v)) ahat vanish, so every step has dq = 0.  Then f, F and f'
    run once for the pair, each integral is one dot product doubled, q and r
    take no FFT, and the exp guard is the scalar test |t| max|ahat| (the
    array guard runs only when it trips, to name the sample); the results
    equal the general path's.

    When the residual targets are not met within INNER_MAX_ITERS iterations,
    or the line search stalls, the last iterate is returned: its residuals
    show the miss, and a DEBUG record on ``halfwave.nehari`` gives the
    iterations used and the reason.

    Raises NoAscent when the maximum collapses to the origin; OverflowGuard
    when an iterate leaves the exp-safe amplitude range.
    """
    h = grid.spacing
    vbar = float(np.mean(Va))
    diagonal = fam.symmetric and not np.any(warm.q)
    sl = _RaySlice(ahat, fam, h, diagonal)
    dv = Va - vbar
    q, kq = warm.q, warm.kq
    q_norm_sq = h * float(q @ kq)
    t, j_cur = _maximize_along_ray(sl, warm.t, q, q_norm_sq, inner_tol)

    def point(ray_res, minus_res, level):
        """The slice point at the current (t, q), with w as fields."""
        u, v = sl.components(t, q)
        w = PairField(Field(grid, u), Field(grid, v))
        return NehariPoint(float(t), q, kq, w, ray_res, minus_res, float(level), iters)

    reason = "iteration budget exhausted"
    for it in range(INNER_MAX_ITERS):
        if t <= 1e-12:
            raise NoAscent("maximum collapses onto the antidiagonal subspace")

        # gradient: J_t, the L2 representative r of J_q, and rho = P r
        u, v = sl.components(t, q)
        if diagonal:
            if sl.beyond_safe(t):  # the array guard names where
                fam.guard_amplitude(u, "u")
            # r = -2 K 0 - f(u) + f(u): 0, or NaN where f(u) is not finite;
            # r and rho are 0, held as empty q parts (see _slice_pcg)
            fu = fam.f(u)
            gv, r, rho, rho_norm_sq = fu, q[:0], q[:0], (0.0 if np.isfinite(fu).all() else np.nan)
        else:
            fam.guard_amplitude(u, "u")
            fam.guard_amplitude(v, "v")
            fu, gv = fam.f(u), fam.g(v)
            r = -2.0 * kq - fu + gv
            rho = inv_multiplier(r, grid, vbar)  # exact strong residual only
            rho_norm_sq = h * float(rho @ (r + dv * rho))  # K rho = r + (V - vbar) rho
        if not np.isfinite(rho_norm_sq):
            raise InvalidField("antidiagonal gradient has NaN/Inf samples")

        # residuals (scale-free)
        nw2 = max(t * t + 2.0 * q_norm_sq, 1e-300)
        ray_res = abs(sl.ray_pairing(t, q_norm_sq, u, v, fu, gv)) / nw2
        minus_res = np.sqrt(rho_norm_sq) / np.sqrt(2.0 * nw2)
        iters = it + 1
        if ray_res <= inner_tol and minus_res <= inner_tol:
            return point(ray_res, minus_res, j_cur)
        if iters == INNER_MAX_ITERS:
            break

        jt = t - h * float((fu + gv) @ ahat)
        eta = min(SLICE_ETA_MAX, np.sqrt(max(ray_res, minus_res)))
        m_tt, neg_hess = _slice_hessian(sl, u, v)
        if not m_tt > 0.0:  # the ray is not concave at t
            t, j_cur = _maximize_along_ray(sl, t, q, q_norm_sq, inner_tol)
            continue
        dt, dq, kdq = _slice_pcg(neg_hess, m_tt, jt, r, rho, dv, grid, vbar, eta)
        gain = jt * dt + h * float(r @ dq)  # predicted increase <grad J, step>
        flat = abs(gain) <= RAY_J_ULPS * np.finfo(float).eps * abs(j_cur)
        step = 1.0
        for _ in range(40):
            t_try, q_try, kq_try = t + step * dt, q, kq
            if not diagonal:
                q_try, kq_try = q + step * dq, kq + step * kdq
            q_try_norm_sq = h * float(q_try @ kq_try)
            j_try = sl.j_value(t_try, q_try, q_try_norm_sq)
            if (gain > 0.0 and j_try >= j_cur + 1e-4 * step * gain) or (flat and j_try > -np.inf):
                break
            step *= 0.5
        else:
            reason = "line search stalled"
            break
        t, q, kq, q_norm_sq, j_cur = t_try, q_try, kq_try, q_try_norm_sq, j_try

    log.debug(
        "inner maximization: residuals (%.2e, %.2e) above tol %.2e, %d of %d iterations used (%s)",
        ray_res, minus_res, inner_tol, iters, INNER_MAX_ITERS, reason,
    )
    return point(ray_res, minus_res, j_cur)


# -- Newton polish ------------------------------------------------------------


def _newton_polish(w: PairField, fam: NonlinearityFamily, V, target: float):
    """Matrix-free Newton refinement of the coupled strong system.

    The linear solves are GMRES preconditioned on the right by the inverse
    multiplier P, as GMRES on J P y = y + (V - vbar) z - coupling z
    swapped, z = P y (one inv_multiplier, no halflap), with step P y.  The
    true linear residual meets the Eisenstat-Walker
    choice-2 forcing term (SIAM J. Sci. Comput. 17, 1996),
    floored at half the relative accuracy the target needs.  A step that can
    reach the target solves to exactly that accuracy, 0.5 target / residual,
    so the last step lands well below the target instead of anywhere below
    the Eisenstat-Walker promise.  Whether it can is predicted from the last
    step: K is linear, so a step's Taylor remainder comes from f and g alone
    and is measured pointwise; scaled by the squared residual contraction,
    it must be within the other half of the target.  A varying potential
    pins the profile only weakly; Newton-GMRES takes full steps along that
    translation mode too, with step halving as the one safeguard.  Each
    step runs one GMRES solve, and the polish stops at the first step it
    cannot take: a GMRES failure, a step longer than max(||start||, 1)/2,
    or 6 halvings that all fail to lower the residual.
    Every accepted step lowers the residual, so the last iterate is the best.
    For f = g (``fam.symmetric``) from u == v, the residual is (r, r) and the
    Jacobian maps (x, x) to (K x - f'(u) x) twice, so Newton keeps u = v and
    runs on the one row u (residual K u - f(u), Jacobian K - f'(u), no g),
    with norms that weigh the row twice: the target, the forcing terms and
    the step guards mean what they mean for the pair.

    K is applied once, to the start (``energy.apply_k``).  The step
    delta = P y is the z of GMRES's last product, the one that checked its
    true residual at y, and K delta = y + (V - vbar) delta, so K uv is
    carried through the trials into ``strong_residual``: a step spends FFTs
    only in its GMRES products.
    Returns (iterate, its residual norm, accepted steps).
    """
    grid = w.grid
    n = grid.n_points
    Va = np.asarray(V, dtype=float)
    vbar = float(np.mean(V))
    dv = Va - vbar
    # the Newton unknown uv stacks the rows (u, v), or holds the one row u
    rows = 1 if fam.symmetric and np.array_equal(w.u.values, w.v.values) else 2
    uv = np.stack([w.u.values, w.v.values][:rows])
    weight = np.sqrt(2.0 * grid.spacing / rows)  # sqrt(h); sqrt(2h) for a row that counts twice

    def res_norm(r):
        return weight * np.linalg.norm(r)

    # Jacobian at the current iterate times P, whose u-row couples to v and
    # v-row to u through ``coupling`` = (g'(v), f'(u)); matvecs counts it for
    # the step log, and ``last`` keeps the newest product's (y, P y)
    def jac_prec(y):
        nonlocal matvecs, last
        matvecs += 1
        z = inv_multiplier(y.reshape(rows, n), grid, vbar)
        last = y, z
        return (y.reshape(rows, n) + dv * z - coupling * z[::-1]).ravel()

    op = Operator((rows * n, rows * n), float, jac_prec)

    kuv = apply_k(uv, Va, grid)
    r, nl = strong_residual(uv, fam, Va, grid, kuv)
    r_norm = res_norm(r)
    scale = max(res_norm(uv), 1.0)
    last = None, None
    steps = 0
    eta, prev_norm = EW_ETA_MAX, None
    remainder = np.inf  # Taylor remainder of the last step, per unit damping^2
    for _ in range(NEWTON_MAX_STEPS):
        if r_norm <= target:
            break
        # forcing term: solve as accurately as the last step's contraction
        # warrants, never more than the target itself needs
        if prev_norm is not None:
            eta_ew = EW_GAMMA * (r_norm / prev_norm) ** EW_ALPHA
            guard = EW_GAMMA * eta**EW_ALPHA
            eta = min(EW_ETA_MAX, max(eta_ew, guard) if guard > 0.1 else eta_ew)
        floor = 0.5 * target / r_norm
        reach = prev_norm is not None and remainder * (r_norm / prev_norm) ** 2 <= 0.5 * target
        eta = min(EW_ETA_MAX, floor if reach else max(eta, floor))
        prev_norm = r_norm
        coupling = fam.fp(uv) if rows == 1 else np.stack([fam.gp(uv[1]), fam.fp(uv[0])])
        matvecs = 0
        y, info = gmres(op, r.ravel(), rtol=eta)
        # GMRES took its last product at the y it returns, to check the
        # true residual there (unless r = 0 needed none): delta = P y is its z
        delta = last[1] if last[0] is y else inv_multiplier(y.reshape(rows, n), grid, vbar)
        y = y.reshape(rows, n)
        improved = False
        damp = 1.0
        if info == 0 and res_norm(delta) <= 0.5 * scale:
            k_delta = y + dv * delta
            for _ in range(6):
                trial, k_trial = uv - damp * delta, kuv - damp * k_delta
                rt, nlt = strong_residual(trial, fam, Va, grid, k_trial)
                nt = res_norm(rt)
                if nt < r_norm:
                    taylor = nlt - nl + damp * (coupling * delta[::-1])
                    remainder = res_norm(taylor) / damp**2
                    uv, kuv, r, nl, r_norm = trial, k_trial, rt, nlt, nt
                    improved = True
                    steps += 1
                    break
                damp *= 0.5
        log.debug(
            "newton step: residual %.3e, eta %.2e, gmres matvecs %d, damping %g",
            r_norm, eta, matvecs, damp if improved else 0.0,
        )
        if not improved:
            break
    return PairField(Field(grid, uv[0]), Field(grid, uv[-1])), r_norm, steps


# -- outer level ----------------------------------------------------------------


def _diag_normalize(a_vals: np.ndarray, ka_vals: np.ndarray, h: float):
    """The diagonal direction ahat = a / (sqrt(2) ||a||_W) that
    ``inner_maximize`` takes, so ||(ahat, ahat)||_W = 1, and K ahat, given
    ka_vals = K a; ||a||_W^2 = h a.Ka takes no FFT."""
    nrm = np.sqrt(max(h * float(a_vals @ ka_vals), 0.0))
    if nrm <= 1e-14:
        raise NoAscent("diagonal direction vanished: the direction has no diagonal component")
    return a_vals / (np.sqrt(2.0) * nrm), ka_vals / (np.sqrt(2.0) * nrm)


def _lbfgs_direction(g, kg, memory):
    """(H g, K H g) for the L-BFGS inverse Hessian H of ``memory`` (two-loop
    recursion, Nocedal & Wright, Algorithm 7.4), with H0 = gamma I from the
    newest pair, given kg = K g.

    ``memory`` holds (s, K s, y, K y, 1/<s, y>) pairs, oldest first; every
    inner product is <x, z> ~ (K x) . z, the W inner product up to a constant
    factor, which cancels in the recursion.  H g combines g, the y and the s,
    so K H g combines their K-images with the same coefficients.  An empty
    memory returns (g, kg).
    """
    q, kq, alphas = g, kg, []
    for _, ks, y, ky, rho in reversed(memory):
        al = rho * float(ks @ q)
        q, kq = q - al * y, kq - al * ky
        alphas.append(al)
    if not memory:
        return q, kq
    _, _, y, ky, rho = memory[-1]
    den = rho * float(ky @ y)  # 1 / gamma, gamma = <s, y> / <y, y>
    r, kr = q / den, kq / den
    for (s, ks, _, ky, rho), al in zip(memory, reversed(alphas)):
        b = al - rho * float(ky @ r)
        r, kr = r + b * s, kr + b * ks
    return r, kr


def outer_minimize(
    init_direction: PairField,
    fam: NonlinearityFamily,
    V,
    cfg: SolverConfig,
    restart_index: int = 0,
) -> GroundStateResult:
    """Descend F(s) = J(m(s)) over the unit diagonal sphere from one start.

    Riemannian L-BFGS (Huang, Gallivan & Absil, SIAM J. Optim. 25, 2015) in
    the pair metric 2<., .>_W: the gradient g is t times the tangent part of
    the Riesz-preconditioned diagonal derivative, the retraction is
    renormalization and the vector transport is projection onto the tangent
    space.  The newest LBFGS_MEMORY pairs (s, y) of iterate and gradient
    differences, projected at the new iterate, are kept with K s and K y
    (K = (-Delta)^{1/2} + V); a pair with <s, y> <= LBFGS_CURVATURE_RTOL
    |s| |y| is dropped.  The direction d is the two-loop's, projected; the
    Armijo test starts from a unit step and asks for the decrease ARMIJO_C *
    step * <g, d>.  Where <g, d> <= 0 the memory is cleared and d = g.  Each
    step is logged at DEBUG on ``halfwave.nehari``.  K is applied to the
    start's a alone: K g follows from K a and K c, the two-loop carries K d
    from K g, K s and K y, and a trial a - step d has K-image K a - step K d,
    so no step applies halflap outside the inner level.

    Each inner solve runs to max(INNER_TOL, min(handoff, 0.02 |g|)), where
    |g| is the last gradient and handoff the threshold below: the inner
    level is only as accurate as the gradient it feeds, never looser than
    the state Newton will take, and the first solve, with no gradient yet,
    runs to max(INNER_TOL, handoff).

    The descent only localizes the minimizer; it has no tolerance of its
    own and ends in one of three returns.  At the handoff threshold on the
    gradient (relative to 1 + |level|: POLISH_HANDOFF_CONSTANT_V for a
    constant V, POLISH_HANDOFF_VARYING_V otherwise) ``_polish`` finishes
    the state; a rejected early constant-V polish lets the descent resume
    to the varying-V threshold.  An Armijo search (MAX_LINESEARCH trials)
    that finds no decrease is polished where it stopped.  After
    ``max_outer`` steps the last state is returned unpolished, with the
    message "max_outer reached", and the gradient is logged at INFO.  An
    inner solve that misses its targets enters the descent with the point
    it reached.  The first inner solve starts from the start itself,
    t0 (a, a) + (q0, -q0) with t0 = ||(a0, a0)||_W from the K a0 taken
    anyway, so a converged start is the first inner point and leaves through
    a 0-step polish, and a polished f != g start keeps its antidiagonal part
    q0; K q0 is taken there, once (none for q0 = 0), and each inner solve
    hands its K q to the next.
    """
    grid = init_direction.grid
    h = grid.spacing
    Va = potential_array(V, grid)
    u0, v0 = init_direction.u.values, init_direction.v.values
    a0 = 0.5 * (u0 + v0)
    ka0 = apply_k(a0, Va, grid)
    a, ka = _diag_normalize(a0, ka0, h)
    # the start is t0 (a, a) + (q0, -q0), with t0 = ||(a0, a0)||_W
    t0 = np.sqrt(2.0 * h * float(a0 @ ka0))
    q0 = 0.5 * (u0 - v0)
    start = NehariPoint(t0, q0, apply_k(q0, Va, grid) if np.any(q0) else np.zeros_like(q0))
    trace: List[IterationRecord] = []
    memory: List[tuple] = []
    last = None  # (a, K a, g, K g) where the last step was accepted
    handoff = POLISH_HANDOFF_CONSTANT_V if Va.ndim == 0 else POLISH_HANDOFF_VARYING_V

    grad_plus = make_diagonal_gradient(grid, Va, fam)
    inner_tol_eff = max(INNER_TOL, handoff)
    point = inner_maximize(a, fam, Va, grid, inner_tol_eff, warm=start)
    for outer in range(cfg.max_outer):
        # u + v = 2 t a, as a is the slice's ahat
        c, kc = grad_plus(point.w.u.values, point.w.v.values, 2.0 * point.t * ka)
        coeff = h * float(ka @ c)  # <c, a>_W
        g = point.t * (0.5 * c - coeff * a)
        kg = point.t * (0.5 * kc - coeff * ka)
        grad_norm = float(np.sqrt(max(2.0 * h * float(kg @ g), 0.0)))
        trace.append(IterationRecord(outer, point.level, grad_norm, point.inner_iters))

        if last is not None:
            # the newest secant pair, projected onto the tangent space at a
            s, ks, y, ky = a - last[0], ka - last[1], g - last[2], kg - last[3]
            last = None  # freed, so the line search (the memory peak) does not hold it
            s_a, y_a = 2.0 * h * float(ka @ s), 2.0 * h * float(ka @ y)
            s, ks, y, ky = s - s_a * a, ks - s_a * ka, y - y_a * a, ky - y_a * ka
            sy = float(ks @ y)
            if sy > LBFGS_CURVATURE_RTOL * np.sqrt(max(float(ks @ s) * float(ky @ y), 0.0)):
                memory = (memory + [(s, ks, y, ky, 1.0 / sy)])[-LBFGS_MEMORY:]

        if grad_norm <= handoff * (1.0 + abs(point.level)):
            polished = _polish(point, fam, V, trace, cfg, restart_index, "handed to newton polish",
                               early=handoff == POLISH_HANDOFF_CONSTANT_V)
            if polished is not None:
                return polished
            handoff = POLISH_HANDOFF_VARYING_V
        # inner accuracy tracks the outer gradient (inexact descent), up to
        # the handoff the descent is heading for
        inner_tol_eff = max(INNER_TOL, min(handoff, 0.02 * grad_norm))

        # Armijo backtracking from a unit step along the projected direction
        d, kd = _lbfgs_direction(g, kg, memory)
        d_a = 2.0 * h * float(ka @ d)
        d, kd = d - d_a * a, kd - d_a * ka
        slope = 2.0 * h * float(kg @ d)  # <g, d>
        reset = not slope > 0.0
        if reset:
            memory, d, kd, slope = [], g, kg, grad_norm * grad_norm
        accepted = False
        step = 1.0
        for trials in range(1, MAX_LINESEARCH + 1):
            a_try, ka_try = _diag_normalize(a - step * d, ka - step * kd, h)
            try:
                pt_try = inner_maximize(a_try, fam, Va, grid, inner_tol_eff, warm=point)
            except NoAscent:
                step *= ARMIJO_SHRINK
                continue
            if pt_try.level <= point.level - ARMIJO_C * step * slope:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        log.debug(
            "outer step: level %.15g, gradient %.3e, step %g, trials %d, memory %d, reset %s",
            point.level, grad_norm, step if accepted else 0.0, trials, len(memory), reset,
        )
        if not accepted:
            return _polish(point, fam, V, trace, cfg, restart_index, "line search exhausted",
                           early=False)
        last = (a, ka, g, kg)
        a, ka, point = a_try, ka_try, pt_try
    log.info("outer descent: gradient %.2e after %d steps", grad_norm, cfg.max_outer)
    return _finalize(point.w, fam, V, trace, restart_index, cfg, "max_outer reached")


def _polish(point, fam, V, trace, cfg, restart_index, message, early):
    """Newton polish from the descent state ``point``, certified.

    The polished state (the start itself after 0 steps; every accepted step
    lowers the strong residual) is certified and returned, with "+ newton
    polish (n steps)" added to ``message``.  An early handoff starts from
    the state translated so its peak (``diagnostics.peak``) sits on a grid
    point, where Newton converges to the minimizer, not to the saddle nearer
    a start centred mid-cell.  It returns None, so the descent can resume,
    unless the polish keeps the level (up to LEVEL_TIE_RTOL), meets the
    Nehari constraints to ``el_tol`` and keeps its peak within
    PEAK_OFFSET_MAX cells of a grid point; the state it rejects is
    certified too, since those certificates decide.  The peak check does
    not depend on the handoff level: the mid-cell saddle sits below every
    handoff level that gradient 5e-2 leaves on Grid(40, 2048) (and 4e-7
    above the minimizer on Grid(40, 4096)), so the level check alone keeps
    it.
    """
    start = point.w
    if early:
        grid = start.grid
        uv = translate(np.stack([start.u.values, start.v.values]), grid,
                       -peak(start)[1] * grid.spacing)
        start = PairField(Field(grid, uv[0]), Field(grid, uv[1]))
    polished, _, steps = _newton_polish(start, fam, V, target=POLISH_TARGET * cfg.el_tol)
    out = _finalize(
        polished, fam, V, trace, restart_index, cfg,
        message=message + f" + newton polish ({steps} steps)",
        newton_steps=steps,
    )
    accepted = not early or (
        out.level <= point.level + LEVEL_TIE_RTOL * abs(point.level)
        and out.nehari_residual <= cfg.el_tol
        and abs(peak(polished)[1]) <= PEAK_OFFSET_MAX
    )
    log.info(
        "newton handoff (%s, threshold %.0e): level %.15g -> %.15g, %s",
        message, POLISH_HANDOFF_CONSTANT_V if early else POLISH_HANDOFF_VARYING_V,
        point.level, out.level, "accepted" if accepted else "rejected",
    )
    return out if accepted else None


def newton_first(w: PairField, fam: NonlinearityFamily, V, cfg: SolverConfig):
    """Newton polish of a warm start, no descent (``_newton_polish``, which
    stops at the first step it cannot take): (the polished state certified
    once, or None above the polish target; steps; residual)."""
    target = POLISH_TARGET * cfg.el_tol
    out, res, steps = _newton_polish(w, fam, V, target)
    if res > target:
        return None, steps, res
    message = f"newton first accepted ({steps} steps)"
    return _finalize(out, fam, V, [], 0, cfg, message, newton_steps=steps), steps, res


def build_report(w: PairField, fam: NonlinearityFamily, V) -> ResidualReport:
    """The certificate set of a candidate pair, the one place each is taken.

    The Pohozaev identity holds for a constant potential only: a scalar V
    is its V0, and for a sampled V the entry is None.  The decay tail is
    measured about the pair's peak (``decay_profile``).  The strong residual
    is evaluated once and serves the Euler-Lagrange and Nehari certificates.
    """
    r = pair_residual(w, fam, V)
    res_u, res_v = el_residual_norms(w, fam, V, r)
    ray, minus = nehari_residuals(w, fam, V, r)
    poh = pohozaev_residual(w, fam, float(V)) if np.ndim(V) == 0 else None
    decay = decay_profile(w)
    return ResidualReport(
        pohozaev=poh,
        euler_lagrange_u=res_u,
        euler_lagrange_v=res_v,
        nehari_ray=ray,
        nehari_minus=minus,
        decay_tail=decay.tail_sup,
        linf_u=decay.linf_u,
        linf_v=decay.linf_v,
    )


def _finalize(w, fam, V, trace, restart_index, cfg, message, newton_steps=0):
    """Assemble the result; ``converged`` means certificate-quality residuals.

    For a scalar V the pair is first recentred (``recenter_pair``), since
    only a varying V fixes where the profile sits.
    """
    if np.ndim(V) == 0:
        w, _ = recenter_pair(w)
    report = build_report(w, fam, V)
    return GroundStateResult(
        w=w,
        level=float(energy(w, fam, V)),
        report=report,
        trace=list(trace),
        converged=bool(report.euler_lagrange <= cfg.el_tol and report.nehari <= cfg.el_tol),
        message=message,
        restart_index=restart_index,
        newton_steps=newton_steps,
    )


# -- multi-start orchestration ---------------------------------------------------


def initial_directions(grid: Grid, cfg: SolverConfig, V) -> List[PairField]:
    """Deterministic family of diagonal bump starts (centered + perturbed).

    Start 0 is the Gaussian bump of width width0 = (mean V)^{-1/2} centred
    at 0.  Start r >= 1 draws x1, x2, x3 in that order from the .random()
    method of the standard-library ``random.Random(seed + 1000 r)``, the one
    method Python reproduces across versions for an int seed: centre
    L (x1 - 1/2) / 4, width width0 (0.6 + 1.2 x2), and a 20% cosine wiggle
    of wavenumber 1 + int(3 x3) in {1, 2, 3}.  No numpy.random is loaded.
    """
    width0 = 1.0 / np.sqrt(float(np.mean(V)))
    outs = []
    for r in range(cfg.restarts):
        if r == 0:
            center, width, wavenumber = 0.0, width0, 0
        else:
            draw = random.Random(int(cfg.seed) + 1000 * r).random
            center = grid.length * (draw() - 0.5) / 4.0
            width = width0 * (0.6 + 1.2 * draw())
            wavenumber = 1 + int(3 * draw())
        vals = np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
        if wavenumber:
            vals = vals * (1.0 + 0.2 * np.cos(2.0 * np.pi * wavenumber * grid.x / grid.length))
        f = Field(grid, vals)
        outs.append(PairField(f, f))
    return outs


def _lowest_tied(results: List[GroundStateResult]) -> List[GroundStateResult]:
    """The results whose levels are within LEVEL_TIE_RTOL (relative) of the
    lowest, in restart order."""
    if not results:
        return []
    lowest = min(r.level for r in results)
    return [r for r in results if r.level - lowest <= LEVEL_TIE_RTOL * abs(lowest)]


def _decimated(w: PairField, coarse: Grid) -> PairField:
    """w sampled at every SCREEN_FACTOR-th point: coarse x_j is fine x_{4j}."""
    u, v = w.u.values[::SCREEN_FACTOR], w.v.values[::SCREEN_FACTOR]
    return PairField(Field(coarse, u), Field(coarse, v))


def solve_ground_state(
    fam: NonlinearityFamily,
    V,
    grid: Grid,
    cfg: SolverConfig,
    inits: Optional[List[PairField]] = None,
) -> GroundStateResult:
    """Run the descent from each start in turn and return the merged result.

    Every restart that ends yields a result, unconverged when it ran out
    of budget; restarts that end in NoAscent or OverflowGuard are dropped
    and logged (INFO on ``halfwave.nehari``), and if all are, the NoAscent
    raised lists each one's index, error type and message.

    For a constant (scalar) V the ground state is unique up to translation,
    so the starts stop early: once two converged results tie at the lowest
    converged level (within ``LEVEL_TIE_RTOL``), the remaining starts are
    skipped and one INFO record names them and the two that tied.  The
    number of starts given is then an upper bound; ``restarts_run`` on the
    result counts the ones that ran, dropped ones included.  A sampled V
    runs every start, because its wells compete.

    The merge takes the converged results, or all of them when none
    converged; among those, the levels within ``LEVEL_TIE_RTOL`` (relative)
    of the lowest; among those, the first in restart order.  Round-off in a
    level or in a polished residual therefore never picks the winner.  An
    unconverged restart that reached a lower level than the one returned is
    logged at WARNING.

    Screening: with more than one start and N / SCREEN_FACTOR an even
    integer >= SCREEN_MIN_POINTS (N >= 4096), the restart loop and the
    merge above run on ``Grid(L, N / SCREEN_FACTOR)``, from the starts and
    a sampled V taken at every SCREEN_FACTOR-th point (exactly their values
    at the coarse points).  The descent then runs once on the given grid
    from the winner's own start, not from its coarse state, which on the
    double well can settle one cell off at a higher level; that result is
    returned, with ``restart_index`` the winner's and ``restarts_run`` the
    number of starts screened.  One INFO record gives the coarse grid, the
    screened restarts, the winner, its coarse and fine levels and their
    gap.  An error of the fine run propagates.
    """
    if inits is None:
        inits = initial_directions(grid, cfg, V)
    # the coarse points are every SCREEN_FACTOR-th fine point, an even number
    coarse_n = grid.n_points // SCREEN_FACTOR
    screen = (len(inits) > 1 and coarse_n >= SCREEN_MIN_POINTS
              and grid.n_points % (2 * SCREEN_FACTOR) == 0)
    run_grid, run_V, run_inits = grid, V, inits
    if screen:
        run_grid = Grid(grid.length, coarse_n)
        run_V = V if np.ndim(V) == 0 else np.asarray(V)[::SCREEN_FACTOR]
        run_inits = [_decimated(w, run_grid) for w in inits]
    found, dropped = [], []
    for idx, init in enumerate(run_inits):
        try:
            found.append(outer_minimize(init, fam, run_V, cfg, restart_index=idx))
        except (NoAscent, OverflowGuard) as err:
            dropped.append(f"restart {idx} dropped: {type(err).__name__}: {err}")
            log.info(dropped[-1])
        tied = _lowest_tied([r for r in found if r.converged]) if np.ndim(V) == 0 else []
        if len(tied) >= 2:
            if idx + 1 < len(inits):
                log.info(
                    "restarts %s skipped: restarts %d and %d tie at level %.15g",
                    list(range(idx + 1, len(inits))), tied[0].restart_index,
                    tied[1].restart_index, tied[0].level,
                )
            break
    if not found:
        raise NoAscent("all restarts failed before producing a candidate: " + "; ".join(dropped))

    best = _lowest_tied([r for r in found if r.converged] or found)[0]
    for r in found:
        if r.level < best.level - LEVEL_TIE_RTOL * abs(best.level):
            log.warning(
                "unconverged restart %d (EL residual %.2e) reached level %.15g, "
                "below the returned %.15g (restart %d)",
                r.restart_index, r.el_residual, r.level, best.level, best.restart_index,
            )
    ran = len(found) + len(dropped)
    if screen:
        won = best.restart_index
        fine = outer_minimize(inits[won], fam, V, cfg, restart_index=won)
        log.info(
            "screened restarts %s on %s: restart %d won at level %.15g; "
            "on %s it reaches %.15g, |fine - coarse| %.2e",
            list(range(ran)), run_grid, won, best.level, grid, fine.level,
            abs(fine.level - best.level),
        )
        best = fine
    return replace(best, restarts_run=ran)
