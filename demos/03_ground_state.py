#!/usr/bin/env python3
"""Ground-state solve of the coupled system and its certificates.

Runs the two-level scheme (up to 5 restarts) for the default family
f = g = t^3 exp(t^2) at V0 = 1, prints the descent trace, checks every
certificate (Euler-Lagrange and manifold residuals, dilation identity,
level window, decay), and cross-checks the level against its dual form.
Fields and trace go to demos/output/.
"""

from pathlib import Path

import numpy as np

from halfwave import (
    Grid,
    SolverConfig,
    builtin_family,
    level_bound_check,
    solve_ground_state,
    write_field_csv,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

fam = builtin_family("cubic_exp", beta0=1.0)
grid = Grid(40.0, 2048)
cfg = SolverConfig(restarts=5, seed=0)

print("=" * 72)
print("TWO-LEVEL GROUND-STATE SOLVE  (f = g = t^3 exp(t^2), V0 = 1)")
print("=" * 72)
res = solve_ground_state(fam, 1.0, grid, cfg)

print("\ndescent trace (winning restart):")
print(f"{'iter':>5s} {'level':>16s} {'grad norm':>12s} {'inner sweeps':>13s}")
stride = max(1, len(res.trace) // 12)
for rec in res.trace[::stride]:
    print(f"{rec.outer_step:5d} {rec.level:16.10f} {rec.grad_norm:12.3e} {rec.inner_iters:13d}")

bound = level_bound_check(res.level, fam.beta0)
print(f"\nlevel                      {res.level:.10f}")
print(f"window (0, pi/beta0)       passed={bound.passed} (upper {bound.upper:.6f})")
print(f"euler-lagrange residual    {res.el_residual:.3e}")
print(f"manifold residual          {res.nehari_residual:.3e}")
rep = res.report
print(f"dilation identity residual {rep.pohozaev:.3e}")
print(f"amplitudes                 |u|_inf={rep.linf_u:.6f}  |v|_inf={rep.linf_v:.6f}")
print(f"tail (outer 10% of box)    {rep.decay_tail:.3e}")
print(f"converged                  {res.converged}  [{res.message}]")

print("\ndual form of the level (integral of f(u)u/2 - F(u) + g(v)v/2 - G(v)):")
uu, vv = res.w.u.values, res.w.v.values
dual = grid.spacing * np.sum(
    0.5 * fam.f(uu) * uu - fam.F(uu) + 0.5 * fam.g(vv) * vv - fam.G(vv)
)
print(f"dual level                 {dual:.10f}")
print(f"relative difference        {abs(dual - res.level) / res.level:.3e}")

write_field_csv(res.w.u, OUT / "ground_u.csv")
write_field_csv(res.w.v, OUT / "ground_v.csv")
with open(OUT / "ground_trace.csv", "w") as fh:
    fh.write("iter,level,grad_norm,inner_iters\n")
    for rec in res.trace:
        fh.write(f"{rec.outer_step},{rec.level!r},{rec.grad_norm!r},{rec.inner_iters}\n")
print(f"\nwrote {OUT / 'ground_u.csv'}, ground_v.csv, ground_trace.csv")
