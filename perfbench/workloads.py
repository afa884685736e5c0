"""The three workloads: inputs, one execution, and the correctness gate.

Every call into halfwave goes through ``sys.modules`` at call time, so the
patches a tracer installs in those module namespaces are the ones that run.
"""

from __future__ import annotations

import json
import math
import os
import sys

with open(os.path.join(os.path.dirname(__file__), "reference.json")) as _fh:
    REFERENCE = json.load(_fh)
REL_TOL = REFERENCE["rel_tol"]

WHY = {
    "solve_sym_n2048": (
        "README/CLI default solve (cubic_exp, N=2048, 5 restarts): per-call overhead, "
        "restart orchestration and the ray search; f=g, so no antidiagonal ascent or CG"
    ),
    "solve_asym_n2048": (
        "cubic_quintic_exp (f!=g), N=2048, 3 restarts: the only workload where the "
        "antidiagonal ascent runs many sweeps per inner call"
    ),
    "sweep_single_well_n8192": (
        "4-rung epsilon sweep on a single well, N=8192: throughput-bound kernels, CG "
        "Riesz solves and the Newton-GMRES polish with translation alignment"
    ),
}
NAMES = tuple(WHY)


def build(name):
    """Inputs of one workload; the solver seed is supplied per execution."""
    hw = sys.modules["halfwave"]
    if name == "solve_sym_n2048":
        return {"fam": hw.builtin_family("cubic_exp", beta0=1.0), "V0": 1.0,
                "grid": hw.Grid(40.0, 2048), "restarts": 5}
    if name == "solve_asym_n2048":
        return {"fam": hw.builtin_family("cubic_quintic_exp", beta0=1.0), "V0": 1.0,
                "grid": hw.Grid(40.0, 2048), "restarts": 3}
    if name == "sweep_single_well_n8192":
        return {"fam": hw.builtin_family("cubic_exp", beta0=1.0),
                "potential": sys.modules["halfwave.semiclassical"].single_well(1.0, 2.0),
                "eps": [1.0, 0.5, 0.25, 0.125], "grid": hw.Grid(160.0, 8192), "restarts": 2}
    raise KeyError(name)


def execute(name, inputs, seed):
    """One full workload execution with ``SolverConfig.seed = seed`` (sequential)."""
    nehari = sys.modules["halfwave.nehari"]
    cfg = nehari.SolverConfig(restarts=inputs["restarts"], seed=seed, threads=1)
    if "eps" in inputs:
        return sys.modules["halfwave.semiclassical"].concentration_sweep(
            inputs["eps"], inputs["potential"], inputs["fam"], inputs["grid"], cfg
        )
    return nehari.solve_ground_state(inputs["fam"], inputs["V0"], inputs["grid"], cfg)


def levels(result):
    """Every level an execution produced, for bit-for-bit comparisons."""
    if hasattr(result, "records"):
        return [r.level for r in result.records] + [result.autonomous_level]
    return [result.level]


def _level_faults(what, level, ref, beta0):
    faults = []
    if not abs(level - ref) <= REL_TOL * abs(ref):
        faults.append(f"{what} level {level!r} is more than {REL_TOL:g} relative from {ref!r}")
    if not 0.0 < level < math.pi / beta0:
        faults.append(f"{what} level {level!r} outside (0, pi/beta0)")
    return faults


def gate(name, inputs, result, el_tol):
    """Reasons the execution failed; empty when its outputs are correct."""
    ref = REFERENCE[name]
    beta0 = inputs["fam"].beta0
    if "eps" not in inputs:
        faults = _level_faults("solve", result.level, ref["level"], beta0)
        if not (result.converged and result.el_residual <= el_tol):
            faults.append(f"not converged (el_residual {result.el_residual:.3g})")
        return faults

    faults = [f"rung eps={e} raised: {msg}" for e, msg in result.errors.items()]
    if len(result.records) != len(inputs["eps"]):
        faults.append(f"{len(result.records)} rungs recorded, expected {len(inputs['eps'])}")
    cell = inputs["grid"].spacing
    for rec, ref_level in zip(result.records, ref["rung_levels"]):
        what = f"rung eps={rec.epsilon}"
        faults += _level_faults(what, rec.level, ref_level, beta0)
        if not (rec.converged and rec.el_residual <= el_tol):
            faults.append(f"{what} not converged (el_residual {rec.el_residual:.3g})")
        if rec.dist_to_minima > rec.epsilon * cell:
            faults.append(f"{what} peak {rec.dist_to_minima:.3g} from the minimum, over one cell")
    faults += _level_faults("autonomous", result.autonomous_level, ref["autonomous_level"], beta0)
    return faults
