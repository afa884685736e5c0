"""halfwave benchmark: solver workloads, end-to-end timings, traced layer split.

Run from the root of a source checkout (halfwave is imported from ``src/``)::

    python3 perfbench/run.py --workload solve_sym_n2048 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 1

``--trace 0`` reports the end-to-end metrics of one workload:

* ``wall_s``: time of one workload execution, the lower quartile over the
  run's executions.  Execution i solves with ``SolverConfig.seed`` = the i-th
  number drawn from ``--seed`` (the first is ``--seed`` itself); restarts 1..
  start from seeded random bumps, so one seed's solve can take 1.8x another's,
  and pooling many seeds per run keeps that out of run-to-run comparisons.
  On a shared 2-core host, other tenants slow whole stretches of executions
  by tens of percent: over six runs of solve_sym_n2048 the run-to-run spread
  (IQR/median) was 0.27 for the median and 0.11 for the lower quartile, so
  the lower quartile is reported and the median is printed beside it.
* ``setup_s``: median over fresh interpreters, started between executions,
  of importing halfwave and building the workload's inputs.
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` alternates untraced and traced executions at ``SolverConfig.seed
= --seed`` and reports the per-layer metrics of the traced ones (medians over
executions), the tracing overhead (traced minus untraced wall time) and the
layer self times; spans are written to ``perfbench/out/`` at exit.

Every execution is checked against the seed-commit levels in
``reference.json`` (see ``workloads.gate``); a failed execution is counted in
``failed``, never dropped.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads run single-process and single-threaded (``threads=1``, BLAS and
OpenMP pools pinned to one thread), which is sequential mode.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads  # neither imports halfwave

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

# one thread everywhere; numpy and scipy read these when they load, later on
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def check_sources():
    if not (SRC / "halfwave" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no halfwave sources at {SRC / 'halfwave'}")


def import_halfwave():
    """Import halfwave from this checkout's sources, never from elsewhere."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import halfwave

    if Path(halfwave.__file__).resolve().parent != SRC / "halfwave":
        raise SystemExit(f"perfbench: imported halfwave from {halfwave.__file__}, not {SRC}")


def metric_specs(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def solver_seeds(seed):
    """SolverConfig seeds of a run's executions: ``seed``, then draws from it."""
    rng = random.Random(seed)
    yield seed
    while True:
        yield rng.randrange(2**32)


def run_execution(name, inputs, seed, el_tol):
    """Time one execution and gate it; returns (seconds, faults, result)."""
    start = time.perf_counter()
    try:
        result = workloads.execute(name, inputs, seed)
    except Exception as err:  # a raising execution is a failed operation
        return time.perf_counter() - start, [f"raised {type(err).__name__}: {err}"], None
    elapsed = time.perf_counter() - start
    return elapsed, workloads.gate(name, inputs, result, el_tol), result


def report(faults_by_exec, metrics, units):
    failed = sum(1 for f in faults_by_exec if f)
    for i, faults in enumerate(faults_by_exec):
        for fault in faults:
            print(f"execution {i} FAILED: {fault}")
    for key, value in metrics.items():
        print(f"{key:40s} {value:>16.6g} {units[key]}")
    out = {
        "correct": failed == 0,
        "attempted": len(faults_by_exec),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out), flush=True)


def child(args, *extra):
    """Run this script again in a fresh interpreter; return its last line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: child {' '.join(cmd[2:])} exited {proc.returncode}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args):
    start = time.perf_counter()
    import_halfwave()
    workloads.build(args.workload)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure(args):
    units = metric_specs("end_to_end")
    setups = []

    def probe():
        setups.append(child(args, "--setup-probe")[1]["setup_s"])

    probe()
    import_halfwave()
    inputs = workloads.build(args.workload)
    el_tol = sys.modules["halfwave.nehari"].SolverConfig().el_tol

    # set-up probes run between executions, so that both samples span the
    # run; only execution time counts against --seconds
    walls, faults = [], []
    seeds = solver_seeds(args.seed)
    while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
        wall, fault, _ = run_execution(args.workload, inputs, next(seeds), el_tol)
        walls.append(wall)
        faults.append(fault)
        if len(setups) < SETUP_PROBES:
            probe()
    while len(setups) < SETUP_PROBES:
        probe()
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
    print(f"{args.workload}: {len(walls)} executions, wall_s quartiles "
          f"{q1:.4f} / {med:.4f} / {q3:.4f} s")
    print(f"wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "wall_s": q1,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report(faults, metrics, units)


def traced_execution(tracer, name, inputs, seed, trace_id):
    """One execution under the tracer; returns (result, per-layer metrics)."""
    tracer.begin(trace_id)
    tracer.install()
    try:
        result = tracer.call("bench.execution", workloads.execute, (name, inputs, seed), {})
    finally:
        tracer.uninstall()
        tracer.finish()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.wall_s"] = tracer.spans[0].duration
    metrics["trace.self_sum_s"] = sum(
        metrics[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "bench"
    )
    return result, metrics


def aggregate(per_exec, plain_walls):
    """Medians over traced executions; the overhead pairs each traced execution
    with the untraced one run just before it."""
    metrics = {k: statistics.median(m[k] for m in per_exec) for k in per_exec[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(plain_walls)
    metrics["trace.overhead_s"] = statistics.median(
        m["trace.wall_s"] - p for m, p in zip(per_exec, plain_walls)
    )
    return metrics


def start_tracer():
    """Tracer with FFT wraps installed before halfwave is imported; left inactive."""
    tracer = spans.Tracer()
    tracer.install()
    import_halfwave()
    tracer.uninstall()
    return tracer


def measure_traced(args):
    units = metric_specs("per_layer")
    tracer = start_tracer()
    inputs = workloads.build(args.workload)
    traced_inputs = dict(inputs, fam=tracer.wrap_family(inputs["fam"]))
    el_tol = sys.modules["halfwave.nehari"].SolverConfig().el_tol

    plain_walls, per_exec, faults = [], [], []
    begin = time.perf_counter()
    while not per_exec or time.perf_counter() - begin + statistics.median(
        [p + m["trace.wall_s"] for p, m in zip(plain_walls, per_exec)]
    ) <= args.seconds:
        wall, fault, plain = run_execution(args.workload, inputs, args.seed, el_tol)
        plain_walls.append(wall)
        faults.append(fault)
        try:
            traced, m = traced_execution(tracer, args.workload, traced_inputs, args.seed,
                                         len(per_exec))
        except Exception as err:  # counted like an untraced failure, then reported
            faults.append([f"traced execution raised {type(err).__name__}: {err}"])
            break
        fault = workloads.gate(args.workload, traced_inputs, traced, el_tol)
        if plain is not None and workloads.levels(plain) != workloads.levels(traced):
            fault.append("traced levels differ from untraced levels")
        faults.append(fault)
        per_exec.append(m)

    if not per_exec:
        report(faults, {}, units)
        return
    metrics = aggregate(per_exec, plain_walls)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: per-layer metrics not produced: {sorted(missing)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    gap = abs(metrics["trace.wall_s"] - metrics["trace.self_sum_s"])
    print(f"{args.workload}: {len(per_exec)} traced executions; layer self times sum to "
          f"{metrics['trace.self_sum_s']:.4f} s of {metrics['trace.wall_s']:.4f} s traced "
          f"(gap {gap:.2e} s, tracing overhead {metrics['trace.overhead_s']:.4f} s)")
    report(faults, {k: metrics[k] for k in units}, units)


def measure_all(args):
    """Every workload in its own interpreter; metric names get a workload prefix."""
    attempted = failed = 0
    metrics = {}
    for name in workloads.NAMES:
        text, res = child(argparse.Namespace(**dict(vars(args), workload=name)))
        print(text.rstrip().rsplit("\n", 1)[0], flush=True)
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    check_sources()
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        measure_all(args)
    elif args.trace:
        measure_traced(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
