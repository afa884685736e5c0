"""Admissible nonlinearity families and the numerical hypothesis audit.

A family bundles the pair (f, g) driving the coupled system together with
their antiderivatives (F, G), their derivatives (fp, gp) for the Newton
steps, and the structural constants (beta0, mu, M, kappa0, r1) that the
admissibility conditions refer to.  The audit samples each condition on a
log-refined grid and reports margins; it never attempts symbolic reasoning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict

import numpy as np

from .errors import OverflowGuard, UnknownFamily
from .grids import Field, integrate

EXP_ARG_LIMIT = 700.0  # exp() ceiling in double precision
# the audit and the M witness sample |t| up to this fraction of
# max_safe_amplitude(), where exp(beta0 t^2) <= exp(0.81 EXP_ARG_LIMIT)
SAFE_SAMPLE_FRACTION = 0.9
F_SERIES_RTOL = 1e-13  # cancellation allowed in F, G before the series takes over


@dataclass(frozen=True)
class NonlinearityFamily:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    beta0: float
    mu: float
    M: float
    kappa0: float
    r1: float
    fp: Callable[[np.ndarray], np.ndarray]
    gp: Callable[[np.ndarray], np.ndarray]
    sign_restricted: bool = False
    exponential: bool = True
    # f = g (with F = G, fp = gp): the solver then skips the antidiagonal
    # work, which is exactly 0 on the diagonal; set it only when true
    symmetric: bool = False

    def max_safe_amplitude(self) -> float:
        """Largest |t| for which exp(beta0 t^2) stays finite."""
        if not self.exponential:
            return np.inf
        return float(np.sqrt(EXP_ARG_LIMIT / self.beta0))

    def guard_amplitude(self, values: np.ndarray, what: str = "field") -> None:
        amp = float(np.max(np.abs(values))) if values.size else 0.0
        if amp > self.max_safe_amplitude():
            j = int(np.argmax(np.abs(values)))
            raise OverflowGuard(
                f"{what} amplitude {amp:.3g} exceeds exp-safe bound "
                f"{self.max_safe_amplitude():.3g} for beta0={self.beta0}",
                where=j,
            )


def _horner(coefs, s):
    """Polynomial with coefficients ``coefs``, highest power first, at s."""
    acc = coefs[0] * s + coefs[1]
    for c in coefs[2:]:
        acc *= s
        acc += c
    return acc


def _odd_power_exp(m: int, b: float):
    """(f, F, f') of f(t) = t^(2m+1) exp(b t^2), every power built from t*t.

    With s = b t^2, F = (e^s P_m(s) - P_m(0)) / (2 b^(m+1)) for P_m(s) =
    sum_k (-1)^(m-k) m!/k! s^k.  The difference loses about eps (m+1)!/s^(m+1)
    (relative) to cancellation; where that exceeds F_SERIES_RTOL, F sums
    s^(m+1) sum_n s^n/(n! (n+m+1)) instead, up to its first term below eps/2.
    F evaluates the series on every sample and the closed form only on the
    samples at or above the switch.
    """
    eps = np.finfo(float).eps
    switch = math.pow(eps * math.factorial(m + 1) / F_SERIES_RTOL, 1.0 / (m + 1))
    poly = [math.perm(m, m - k) * (-1.0 if (m - k) % 2 else 1.0) for k in range(m, -1, -1)]
    series = [1.0 / (math.factorial(n) * (n + m + 1)) for n in range(40)]
    series = [c for n, c in enumerate(series) if (m + 1) * c * math.pow(switch, n) >= eps / 2][::-1]
    try:
        scale = 0.5 / math.pow(b, m + 1)
    except (OverflowError, ZeroDivisionError) as err:
        raise OverflowGuard(f"beta0={b} puts b^{m + 1} out of double range") from err

    def f(t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        return math.prod([t2] * m, start=t * np.exp(b * t2))

    def F(t):
        t = np.asarray(t, dtype=float)
        s = b * (t * t)
        out = np.asarray(math.prod([s] * (m + 1), start=_horner(series, s)))
        big = s >= switch
        sb = s[big]
        out[big] = np.exp(sb) * _horner(poly, sb) - poly[-1]
        return out * scale

    def fp(t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        return math.prod([t2] * m, start=(2.0 * b * t2 + (2 * m + 1)) * np.exp(b * t2))

    return f, F, fp


def _restrict(fun):
    def wrapped(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, fun(np.maximum(t, 0.0)), 0.0)

    return wrapped


def builtin_family(
    name: str,
    beta0: float = 1.0,
    sign_restricted: bool = False,
    V0: float = 1.0,
    r1: float = 2.0,
) -> NonlinearityFamily:
    """Construct one of the built-in families.

    ``cubic_exp``          f = g = t^3 exp(beta0 t^2)
    ``cubic_quintic_exp``  f = t^3 exp(beta0 t^2), g = t^5 exp(beta0 t^2)
    ``cubic``              f = g = t^3 (subcritical surrogate for oracles)

    V0 and r1 only enter the recorded kappa0 witness
    max(8 sqrt(e) V0 / beta0, pi / (beta0 r1)) + 1.  Raises UnknownFamily
    for an unknown name, when beta0 is not positive and finite or r1 not
    positive, or when sign_restricted is not a bool; OverflowGuard when
    beta0 is too large or too small for double precision.
    """
    if not 0 < beta0 < np.inf:
        raise UnknownFamily(f"beta0 must be positive and finite, got {beta0}")
    if not r1 > 0:
        raise UnknownFamily(f"r1 must be positive, got {r1}")
    if not isinstance(sign_restricted, (bool, np.bool_)):
        raise UnknownFamily(f"sign_restricted must be true or false, got {sign_restricted!r}")
    b = float(beta0)

    def f_cubic(t):
        t = np.asarray(t, dtype=float)
        return t * t * t

    def F_cubic(t):
        t = np.asarray(t, dtype=float)
        return 0.25 * (t * t) * (t * t)

    def fp_cubic(t):
        t = np.asarray(t, dtype=float)
        return 3.0 * t * t

    if name == "cubic_exp":
        f, F, fp = g, G, gp = _odd_power_exp(1, b)
    elif name == "cubic_quintic_exp":
        (f, F, fp), (g, G, gp) = _odd_power_exp(1, b), _odd_power_exp(2, b)
    elif name == "cubic":
        f, F, fp = g, G, gp = f_cubic, F_cubic, fp_cubic
    else:
        raise UnknownFamily(f"no builtin family named {name!r}")
    exponential, symmetric = name != "cubic", g is f
    kappa0 = max(8.0 * np.sqrt(np.e) * V0 / b, np.pi / (b * r1)) + 1.0

    if sign_restricted:
        f, F, fp = _restrict(f), _restrict(F), _restrict(fp)
        g, G, gp = (f, F, fp) if symmetric else (_restrict(g), _restrict(G), _restrict(gp))

    fam = NonlinearityFamily(
        name=name,
        f=f,
        g=g,
        F=F,
        G=G,
        beta0=b,
        mu=4.0,
        M=np.nan,
        kappa0=float(kappa0),
        r1=float(r1),
        sign_restricted=sign_restricted,
        exponential=exponential,
        symmetric=symmetric,
        fp=fp,
        gp=gp,
    )
    # M witness for (H4): slightly above the sampled max of F/|f| on
    # [0.05, 10], cut at SAFE_SAMPLE_FRACTION of the exp-safe amplitude
    ts = np.linspace(0.05, min(10.0, SAFE_SAMPLE_FRACTION * fam.max_safe_amplitude()), 400)
    return replace(fam, M=float(1.05 * np.max(F(ts) / np.abs(f(ts)))))


def trudinger_moser_functional(u: Field, beta: float) -> float:
    """integral of exp(beta u^2) - 1 over the box."""
    if not beta > 0:
        raise OverflowGuard(f"beta must be positive, got {beta}")
    arg = beta * u.values**2
    if np.max(arg) > EXP_ARG_LIMIT:
        j = int(np.argmax(arg))
        raise OverflowGuard(
            f"exponent beta*u^2 = {np.max(arg):.3g} exceeds {EXP_ARG_LIMIT} "
            f"at x = {u.grid.x[j]:.4g}",
            where=j,
        )
    return integrate(Field(u.grid, np.expm1(arg)))


# -- hypothesis audit ---------------------------------------------------------

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
MARGIN_FLOOR = 1e-12
# audit samples: [-T, T] for T = min(AUDIT_T, SAFE_SAMPLE_FRACTION *
# max_safe_amplitude()), AUDIT_PER_DECADE log-spaced points per decade from
# 1e-8 up
AUDIT_T = 12.0
AUDIT_PER_DECADE = 60


@dataclass
class HypothesisCheck:
    status: str
    margin: float
    worst_point: float
    n_samples: int
    note: str = ""


@dataclass
class HypothesisAudit:
    family: str
    t_min: float
    t_max: float
    checks: Dict[str, HypothesisCheck] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.status == PASS for c in self.checks.values())

    def rows(self):
        for key in sorted(self.checks):
            c = self.checks[key]
            yield key, c.status, c.margin, c.worst_point, c.n_samples, c.note


def audit_grid(fam: NonlinearityFamily) -> np.ndarray:
    """The audit's samples of [-T, T], T = min(AUDIT_T, SAFE_SAMPLE_FRACTION
    * ``max_safe_amplitude()``), with log-spaced refinement near 0; only
    t >= 0 for a sign-restricted family, the domain the restriction trick
    targets."""
    t_max = min(AUDIT_T, SAFE_SAMPLE_FRACTION * fam.max_safe_amplitude())
    decades = int(np.ceil((np.log10(t_max) + 8.0) * AUDIT_PER_DECADE))
    pos = np.logspace(-8.0, np.log10(t_max), decades)
    if fam.sign_restricted:
        return np.concatenate([[0.0], pos])
    return np.concatenate([-pos[::-1], [0.0], pos])


def _rel_margin(num, scale):
    return num / np.maximum(scale, 1e-300)


def audit_hypotheses(fam: NonlinearityFamily) -> HypothesisAudit:
    """Sample every admissibility condition on ``audit_grid(fam)`` and
    record worst-case margins."""
    t_grid = audit_grid(fam)
    T = float(np.max(np.abs(t_grid)))

    audit = HypothesisAudit(family=fam.name, t_min=float(np.min(t_grid)), t_max=T)
    nz = t_grid[t_grid != 0.0]
    fv, gv = fam.f(nz), fam.g(nz)
    Fv, Gv = fam.F(nz), fam.G(nz)

    def add(key, status, margin, worst, n, note=""):
        audit.checks[key] = HypothesisCheck(status, float(margin), float(worst), n, note)

    # H1: finiteness + no sampled jumps (relative to local scale)
    finite = np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))
    sub = nz[:: max(1, nz.size // 64)]
    step = 1e-7 * np.maximum(np.abs(sub), 1.0)
    jump_f = np.max(np.abs(fam.f(sub + step) - fam.f(sub)) / (1.0 + np.abs(fam.f(sub))))
    jump_g = np.max(np.abs(fam.g(sub + step) - fam.g(sub)) / (1.0 + np.abs(fam.g(sub))))
    jump = max(jump_f, jump_g)
    add(
        "H1",
        PASS if finite and jump < 1e-3 else FAIL,
        1e-3 - jump,
        0.0,
        nz.size,
        "finiteness and sampled continuity",
    )

    # H2: f(t) = o(t^2) as t -> 0
    small = nz[np.abs(nz) <= 0.1]
    for key, fun in (("H2_f", fam.f), ("H2_g", fam.g)):
        q = np.abs(fun(small)) / small**2
        order = np.argsort(np.abs(small))
        q_sorted = q[order]  # ascending |t|
        shrinks = q_sorted[0] < 1e-5 and np.all(np.diff(q_sorted) >= -1e-12)
        add(
            key,
            PASS if shrinks else FAIL,
            1e-5 - q_sorted[0],
            float(small[order][0]),
            small.size,
            "|f|/t^2 shrinking toward 0",
        )

    # H3: 0 <= mu*F <= t f(t) (non-strict)
    for key, val, anti in (("H3_f", fv, Fv), ("H3_g", gv, Gv)):
        lower = _rel_margin(anti, np.abs(anti) + np.abs(nz * val))
        upper = _rel_margin(nz * val - fam.mu * anti, np.abs(nz * val) + fam.mu * np.abs(anti))
        worst = min(np.min(lower), np.min(upper))
        j = int(np.argmin(np.minimum(lower, upper)))
        add(
            key,
            PASS if worst >= -MARGIN_FLOOR else FAIL,
            worst,
            nz[j],
            nz.size,
            f"mu = {fam.mu}",
        )

    # H4: 0 < F(t) <= M |f(t)| for t != 0
    for key, val, anti in (("H4_f", fv, Fv), ("H4_g", gv, Gv)):
        pos = np.min(anti)
        slack = _rel_margin(fam.M * np.abs(val) - anti, fam.M * np.abs(val) + anti)
        worst = min(np.min(slack), _rel_margin(pos, np.abs(pos)) if pos != 0 else 0.0)
        status = PASS if pos > 0 and np.min(slack) >= -MARGIN_FLOOR else FAIL
        add(key, status, worst, nz[int(np.argmin(slack))], nz.size, f"M = {fam.M:.4g}")

    # H5: f(t)/|t| strictly increasing (relative margins between samples)
    for key, fun in (("H5_f", fam.f), ("H5_g", fam.g)):
        q = fun(nz) / np.abs(nz)
        dq = np.diff(q)
        scale = np.maximum(np.abs(q[1:]), np.abs(q[:-1]))
        rel = _rel_margin(dq, scale)
        worst = float(np.min(rel))
        if worst > MARGIN_FLOOR:
            status = PASS
        elif worst < -MARGIN_FLOOR:
            status = FAIL
        else:
            status = INCONCLUSIVE
        add(key, status, worst, nz[int(np.argmin(rel))], nz.size, "monotone quotient")

    # H6: critical exponential growth at rate beta0
    tail = nz[np.abs(nz) >= 0.5 * T]
    tail = np.sort(np.abs(tail))
    for key, fun in (("H6_f", fam.f), ("H6_g", fam.g)):
        hi = np.abs(fun(tail)) * np.exp(-1.25 * fam.beta0 * tail**2)
        lo = np.abs(fun(tail)) * np.exp(-0.75 * fam.beta0 * tail**2)
        dies = hi[-1] < 1e-6 * (hi[0] + 1e-300) or hi[-1] < 1e-12
        blows = lo[-1] > 1e6 * (lo[0] + 1e-300)
        add(
            key,
            PASS if dies and blows else FAIL,
            float(np.log10((lo[-1] + 1e-300) / (hi[-1] + 1e-300))),
            float(tail[-1]),
            tail.size,
            "decay above beta0, growth below",
        )

    # H7: liminf t f(t) exp(-beta0 t^2) >= kappa0 on the sampled tail
    for key, fun in (("H7_f", fam.f), ("H7_g", fam.g)):
        vals = fun(tail) * tail * np.exp(-fam.beta0 * tail**2)
        worst = float(np.min(vals) - fam.kappa0)
        add(
            key,
            PASS if worst >= 0.0 else FAIL,
            worst,
            float(tail[int(np.argmin(vals))]),
            tail.size,
            f"kappa0 = {fam.kappa0:.4g}",
        )

    return audit
