"""Self-test of the benchmark on small grids (a few seconds on one core).

    python3 perfbench/selftest.py

Checks that tracing changes no result (traced levels equal untraced levels
bit for bit), that the traced counters follow the structure of each
workload (one inner sweep per inner call and no CG on the symmetric
constant-potential solve; more sweeps than calls when f != g; CG only with a
varying potential), that every per-layer metric named in ``BENCHMARK.json``
gets a finite value, that uninstalling the tracer restores every patched
name, and that the correctness gate rejects a level one part in 1e9 off.
Exits 1 and lists the failed checks otherwise.
"""

import dataclasses
import importlib
import math
import sys

import run
import spans
import workloads

SMALL = {
    "solve_sym_n2048": {"grid": (40.0, 512), "restarts": 2},
    "solve_asym_n2048": {"grid": (40.0, 512), "restarts": 2},
    "sweep_single_well_n8192": {"grid": (160.0, 2048), "restarts": 1},
}


def originals(patches):
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr in patches}


def main():
    fft_patches = [(mod, attr) for mod in spans.FFT_MODULES for attr in spans.TRANSFORMS + spans.FREQS]
    fft_originals = originals(fft_patches)
    tracer = run.start_tracer()
    hw = sys.modules["halfwave"]
    span_originals = originals((mod, attr) for mod, attr, _ in spans.SPAN_PATCHES)
    units = run.metric_specs("per_layer")
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name, small in SMALL.items():
        inputs = workloads.build(name)
        inputs.update(grid=hw.Grid(*small["grid"]), restarts=small["restarts"])
        plain = workloads.execute(name, inputs, 0)
        traced_inputs = dict(inputs, fam=tracer.wrap_family(inputs["fam"]))
        traced, m = run.traced_execution(tracer, name, traced_inputs, 0, 0)
        metrics = run.aggregate([m], [m["trace.wall_s"]])

        check(workloads.levels(plain) == workloads.levels(traced),
              f"{name}: traced levels equal untraced levels bit for bit")
        sweeps, calls = metrics["nehari.inner_sweeps"], metrics["nehari.inner_calls"]
        if inputs["fam"].symmetric:
            check(calls > 0 and sweeps == calls,
                  f"{name}: inner_sweeps == inner_calls ({sweeps} vs {calls})")
        else:
            check(sweeps > calls, f"{name}: inner_sweeps > inner_calls ({sweeps} vs {calls})")
        cg = metrics["energy.cg_calls"]
        if "eps" in inputs:
            check(cg > 0 and metrics["semiclassical.rungs"] == len(inputs["eps"]),
                  f"{name}: CG runs with a varying potential ({cg} calls), one span per rung")
        else:
            check(cg == 0, f"{name}: no CG with a constant potential ({cg} calls)")
        check(metrics["grids.fft_calls"] > 0 and metrics["families.f_evals"] > 0
              and metrics["nehari.gmres_matvecs"] > 0,
              f"{name}: FFT, family and GMRES wrappers bind")
        missing = [k for k in units if not (k in metrics and math.isfinite(metrics[k]))]
        check(not missing, f"{name}: every per-layer metric has a finite value {missing or ''}")
        gap = abs(metrics["trace.wall_s"] - metrics["trace.self_sum_s"])
        check(gap <= 1e-3 * metrics["trace.wall_s"],
              f"{name}: layer self times sum to the traced wall time (gap {gap:.2e} s)")

    now = originals(list(fft_originals) + list(span_originals))
    check(now == {**fft_originals, **span_originals}, "uninstall restores every patched name")

    inputs = workloads.build("solve_sym_n2048")
    ref = workloads.REFERENCE["solve_sym_n2048"]["level"]
    fake = dataclasses.make_dataclass("R", ["level", "converged", "el_residual"])
    check(workloads.gate("solve_sym_n2048", inputs, fake(ref, True, 1e-12), 1e-6) == [],
          "gate accepts the reference level")
    check(workloads.gate("solve_sym_n2048", inputs, fake(ref * (1 + 1e-9), True, 1e-12), 1e-6) != [],
          "gate rejects a level 1e-9 relative off")
    check(workloads.gate("solve_sym_n2048", inputs, fake(ref, False, 1e-12), 1e-6) != [],
          "gate rejects an unconverged result")

    if failures:
        raise SystemExit(f"{len(failures)} self-test check(s) failed")
    print("self-test passed")


if __name__ == "__main__":
    main()
