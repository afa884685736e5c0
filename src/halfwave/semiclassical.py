"""Rescaled singularly perturbed solves and the concentration sweep.

Substituting u(x) = phi(eps x) turns the perturbed system into the same
coupled system with the sampled potential V(eps x) on a fixed grid, so the
whole two-level machinery applies with a spatially varying potential; only
translation invariance is lost, which makes the location of the profile
maximum meaningful.  The sweep tracks that location x_eps = eps * y_eps in
original coordinates, its distance to the set of potential minima, the gap
between the two component maxima, and the drift of the recentered profile
from the autonomous ground state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .diagnostics import level_bound_check, peak, recenter_pair
from .energy import PairField, pair_norm
from .errors import HalfwaveError, InvalidField
from .families import NonlinearityFamily
from .grids import Field, Grid
from .nehari import (
    LEVEL_TIE_RTOL,
    GroundStateResult,
    SolverConfig,
    initial_directions,
    newton_first,
    outer_minimize,  # noqa: F401  (perfbench/spans.py patches this name here)
    solve_ground_state,
)

# largest relative distance of V(eps L/2) from Vinf that Potential.values accepts
BOX_SLACK = 0.05

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Potential:
    """External potential with declared infimum, limit, and minimizer set."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    V0: float
    Vinf: float
    minima: Tuple[float, ...]

    def __post_init__(self):
        if not (0.0 < self.V0 <= self.Vinf < np.inf):
            raise InvalidField(
                f"need 0 < V0 <= Vinf < inf, got V0={self.V0}, Vinf={self.Vinf}"
            )

    @property
    def is_constant(self) -> bool:
        return self.V0 == self.Vinf

    def values(self, grid: Grid, epsilon: float):
        """V(eps x) as the solver takes it: the float V0 if constant, else the
        samples on ``grid``.  InvalidField unless eps > 0, V(eps L/2) and
        every sample are finite, V(eps L/2) is within BOX_SLACK of Vinf
        (relative) and no sample dips below V0."""
        if not epsilon > 0:
            raise InvalidField(f"epsilon must be positive, got {epsilon}")
        if self.is_constant:
            return self.V0
        edge = float(self.evaluate(np.array([epsilon * grid.length / 2.0]))[0])
        vals = np.asarray(self.evaluate(epsilon * grid.x), dtype=float)
        if not (np.isfinite(edge) and np.all(np.isfinite(vals))):
            raise InvalidField(f"potential {self.name} has NaN/Inf samples at epsilon={epsilon}")
        if abs(edge - self.Vinf) > BOX_SLACK * self.Vinf:
            raise InvalidField(
                f"box too small for epsilon={epsilon}: V(eps*L/2)={edge:.4g} is "
                f"more than {100 * BOX_SLACK:.0f}% away from Vinf={self.Vinf}"
            )
        if np.min(vals) < self.V0 - 1e-12:
            raise InvalidField(
                f"potential dips below its declared infimum: min={np.min(vals)}"
            )
        return vals


def constant_potential(V0: float) -> Potential:
    return Potential("constant", lambda x: np.full_like(np.asarray(x, float), V0), V0, V0, (0.0,))


def single_well(V0: float = 1.0, Vinf: float = 2.0) -> Potential:
    """V0 + (Vinf - V0) x^2/(1+x^2): unique minimum at 0, limit Vinf."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        return V0 + (Vinf - V0) * x * x / (1.0 + x * x)

    return Potential("single_well", ev, V0, Vinf, (0.0,))


def double_well(V0: float = 1.0, Vinf: float = 2.0, separation: float = 2.0) -> Potential:
    """Two symmetric minima at +-separation, hump at 0, limit Vinf.

    Raises InvalidField unless 0 < separation < inf (at 0 the formula is
    0/0, at inf every sample is inf/inf).
    """
    if not 0 < separation < np.inf:
        raise InvalidField(f"separation must be finite and positive, got {separation}")
    a = separation

    def ev(x):
        x = np.asarray(x, dtype=float)
        return V0 + (Vinf - V0) * (x * x - a * a) ** 2 / (x**4 + a**4)

    return Potential("double_well", ev, V0, Vinf, (-a, a))


POTENTIALS = {
    "constant": constant_potential,
    "single_well": single_well,
    "double_well": double_well,
}


def solve_rescaled(
    epsilon: float,
    potential: Potential,
    fam: NonlinearityFamily,
    grid: Grid,
    cfg: SolverConfig,
    init: Optional[PairField] = None,
) -> GroundStateResult:
    """Ground-state solve of the rescaled system with V(eps x) on the grid.

    V is ``potential.values``, so a constant potential is exactly the
    autonomous solve.  An init goes to ``newton_first`` (outcome logged at
    INFO), and short of the polish target is the descent's one start
    ("newton first fell back (k steps); " heads the message); else a varying V
    adds to the generic starts a bump at each minimum (in grid coordinates),
    so wells away from the origin get their own basin start.
    """
    V = potential.values(grid, epsilon)
    if init is not None:
        res, steps, resid = newton_first(init, fam, V, cfg)
        log.info("eps=%g: newton first %s after %d steps, residual %.2e",
                 epsilon, "fell back" if res is None else "accepted", steps, resid)
        if res is None:
            res = solve_ground_state(fam, V, grid, cfg, inits=[init])
            res = replace(res, message=f"newton first fell back ({steps} steps); {res.message}")
        return res
    inits = initial_directions(grid, cfg, V)
    width = 1.0 / np.sqrt(potential.V0)
    for m in potential.minima if np.ndim(V) else ():
        y = m / epsilon
        if abs(y) < 0.45 * grid.length:
            bump = Field(grid, np.exp(-((grid.x - y) ** 2) / (2.0 * width**2)))
            inits.append(PairField(bump, bump))
    return solve_ground_state(fam, V, grid, cfg, inits=inits)


@dataclass
class ThetaLevel:
    theta: float
    level: float
    el_residual: float
    converged: bool


@dataclass
class ThetaScan:
    records: List[ThetaLevel]

    @property
    def strictly_increasing(self) -> bool:
        return all(b.level - a.level > LEVEL_TIE_RTOL * abs(a.level)
                   for a, b in zip(self.records, self.records[1:]))


def autonomous_level_vs_theta(
    theta_list, fam: NonlinearityFamily, grid: Grid, cfg: SolverConfig
) -> ThetaScan:
    """Ground-state level of the constant-potential problem across theta.

    Uses the same code path as the autonomous solve with V0 replaced by
    theta.  The list is checked by ``check_theta_ladder``; a rise of at most
    LEVEL_TIE_RTOL (relative), a tie for restarts, is not strictly increasing.
    """
    thetas = check_theta_ladder(theta_list)
    records = []
    for theta in thetas:
        res = solve_ground_state(fam, theta, grid, cfg)
        records.append(ThetaLevel(theta, res.level, res.el_residual, res.converged))
    return ThetaScan(records)


@dataclass
class SweepRecord:
    epsilon: float
    level: float
    y_eps: float
    x_eps: float
    dist_to_minima: float
    gap12: float
    gap12_cells: int
    profile_drift: float
    el_residual: float
    converged: bool
    message: str
    solution: Optional[PairField] = None


@dataclass
class SweepResult:
    records: List[SweepRecord]
    autonomous: GroundStateResult
    errors: dict = field(default_factory=dict)

    @property
    def autonomous_level(self) -> float:
        return self.autonomous.level

    def levels_in_window(self, beta0: float) -> bool:
        return all(level_bound_check(r.level, beta0).passed for r in self.records if r.converged)


def check_theta_ladder(theta_list) -> List[float]:
    """The theta values as floats; InvalidField unless all are positive,
    finite and strictly ascending."""
    thetas = [float(t) for t in theta_list]
    if not (all(0.0 < t < np.inf for t in thetas)
            and all(a < b for a, b in zip(thetas, thetas[1:]))):
        raise InvalidField(f"theta list must be positive and strictly ascending, got {thetas}")
    return thetas


def check_eps_ladder(eps_list) -> List[float]:
    """The epsilon values as floats; InvalidField unless there are at least
    4, all positive and finite, strictly descending, with extremes a factor
    >= 2 apart."""
    eps = [float(e) for e in eps_list]
    if not (len(eps) >= 4 and all(0.0 < e < np.inf for e in eps)
            and all(a > b for a, b in zip(eps, eps[1:])) and eps[0] >= 2.0 * eps[-1]):
        raise InvalidField(
            f"epsilon list must hold >= 4 positive values, strictly descending, with "
            f"extremes >= 2x apart; got {eps}"
        )
    return eps


def concentration_sweep(
    eps_list,
    potential: Potential,
    fam: NonlinearityFamily,
    grid: Grid,
    cfg: SolverConfig,
    keep_solutions: bool = False,
) -> SweepResult:
    """Solve across a descending epsilon ladder and track concentration.

    The ladder is checked by ``check_eps_ladder``.  The first rung
    multi-starts (``solve_rescaled``); a rung after a converged rung warm-starts
    from it (``solve_rescaled``'s init), moved so that a peak at y on rung eps
    sits at y * eps / eps' on rung eps' (the same physical point, so the
    profile stays in its well).  A rung that runs out of budget is recorded
    with ``converged`` false; a rung that raises is recorded in ``errors``; the
    rung after either starts cold, and the sweep continues.  The autonomous
    solve (V0), kept for ``profile_drift``, runs last from the smallest-eps
    converged rung, recentred and cut to its even part about x = 0
    (j <-> N - j), as a lopsided rung sends the polish along the nearly free
    translation mode; cold if no rung converged or the warm solve raises or
    ends unconverged.  ``message`` and an INFO record say which.
    """
    eps = check_eps_ladder(eps_list)

    def make_record(e: float, res: GroundStateResult) -> SweepRecord:
        y_eps = float(grid.x[peak(res.w)[0]])
        y_u = float(grid.x[int(np.argmax(np.abs(res.w.u.values)))])
        y_v = float(grid.x[int(np.argmax(np.abs(res.w.v.values)))])
        dist = min(abs(e * y_eps - m) for m in potential.minima)
        gap_cells = int(round(abs(y_u - y_v) / grid.spacing))
        drift = pair_norm(recenter_pair(res.w)[0] - auto.w, potential.V0) / auto_norm
        return SweepRecord(
            epsilon=e,
            level=res.level,
            y_eps=y_eps,
            x_eps=e * y_eps,
            dist_to_minima=dist,
            gap12=abs(e * y_u - e * y_v),
            gap12_cells=gap_cells,
            profile_drift=float(drift),
            el_residual=res.el_residual,
            converged=res.converged,
            message=res.message,
            solution=res.w if keep_solutions else None,
        )

    solved: List[Tuple[float, GroundStateResult]] = []
    errors: dict = {}

    prev = None  # (eps, solution) of the last rung, if it converged
    for e in eps:
        warm = None
        try:
            if prev is not None:
                e_prev, w_prev = prev
                j = peak(w_prev)[0]
                warm = w_prev.shift(grid.index_of(grid.x[j] * e_prev / e) - j)
            res = solve_rescaled(e, potential, fam, grid, cfg, init=warm)
            solved.append((e, res))
            prev = (e, res.w) if res.converged else None
        except HalfwaveError as err:
            errors[e] = str(err)
            prev = None

    auto, start = None, "cold start, no rung converged"
    converged = [(e, res.w) for e, res in solved if res.converged]
    if converged:
        w = recenter_pair(converged[-1][1])[0]
        even = [Field(grid, 0.5 * (a + np.roll(a[::-1], 1))) for a in (w.u.values, w.v.values)]
        try:
            auto = solve_ground_state(fam, potential.V0, grid, cfg, inits=[PairField(*even)])
            start = (f"warm start from the eps={converged[-1][0]:g} rung" if auto.converged
                     else "cold start, the warm start ended unconverged")
        except HalfwaveError as err:
            start = f"cold start, the warm start raised {type(err).__name__}"
    if auto is None or not auto.converged:
        auto = solve_ground_state(fam, potential.V0, grid, cfg)
    log.info("autonomous solve: %s", start)
    auto = replace(auto, message=f"{start}; {auto.message}")
    auto_norm = pair_norm(auto.w, potential.V0)
    return SweepResult([make_record(*rung) for rung in solved], auto, errors)
