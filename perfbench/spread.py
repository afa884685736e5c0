"""Run one workload at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve_sym_n2048 --seeds 10 [--json out.json]

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  Runs are sequential, one
interpreter at a time, with the benchmark's own ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        res = run_once(args.workload, seed, spec["run_seconds"], 0)
        results.append(res)
        values = {k: round(v["value"], 6) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values}", flush=True)

    summary = {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "end_to_end": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([r["metrics"][name]["value"] for r in results])
        summary["end_to_end"][name] = s
        flag = "ok" if s["spread"] < metric["bound"] / 3 else "WIDE"
        print(f"{args.workload} {name}: median {s['median']:.6g} {metric['unit']}, "
              f"spread {s['spread']:.4f} (bound {metric['bound']}, third {metric['bound'] / 3:.4f}) "
              f"{flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
