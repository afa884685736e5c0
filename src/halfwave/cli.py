"""Command-line runner: solve | diagnose | moser | sweep | audit.

Exit-code contract: 0 when the requested computation succeeded and its
certificates pass, 1 on a compute failure or an unconverged or uncertified
result (partial artifacts are written), 2 on configuration errors.  Every
run writes the fully resolved config to the output directory; identical
config and seed reproduce bit-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from . import config as config_mod
from .diagnostics import level_bound_check, moser_table
from .energy import PairField
from .errors import ConfigError, HalfwaveError
from .families import audit_hypotheses
from .grids import read_field_binary, write_field_binary, write_field_csv
from .nehari import build_report
from .semiclassical import autonomous_level_vs_theta, concentration_sweep, solve_rescaled

POHOZAEV_TOL = 1e-3


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row) + "\n")


def _write_yaml(path: Path, payload) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)


def _prepare_outdir(args, cfg) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_mod.dump_resolved(cfg, out / "config_resolved.yaml")
    return out


def _load_config(args):
    cfg = config_mod.load(args.config) if args.config else config_mod.resolve({})
    if args.seed is not None:
        with config_mod.section_guard("solver"):
            cfg.solver = replace(cfg.solver, seed=args.seed)
        cfg.resolved["solver"]["seed"] = args.seed
    return cfg


def _result_payload(res, cfg):
    bound = level_bound_check(res.level, cfg.family.beta0)
    return {
        "level": float(res.level),
        "level_bound": {
            "passed": bool(bound.passed),
            "upper": float(bound.upper),
            "margin": float(bound.margin),
        },
        "residuals": res.report.as_dict(),
        "converged": bool(res.converged),
        "message": res.message,
        "restart_index": int(res.restart_index),
        "restarts_run": int(res.restarts_run),
        "newton_steps": int(res.newton_steps),
    }


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _prepare_outdir(args, cfg)
    try:
        res = solve_rescaled(1.0, cfg.potential, cfg.family, cfg.grid, cfg.solver)
    except HalfwaveError as err:
        _write_yaml(out / "report.yaml", {"error": str(err)})
        print(f"solve failed: {err}", file=sys.stderr)
        return 1

    write_field_binary(res.w.u, out / "u.bin")
    write_field_binary(res.w.v, out / "v.bin")
    write_field_csv(res.w.u, out / "u.csv")
    write_field_csv(res.w.v, out / "v.csv")
    _write_csv(
        out / "trace.csv",
        ["iter", "level", "grad_norm", "inner_iters"],
        [(r.outer_step, r.level, r.grad_norm, r.inner_iters) for r in res.trace],
    )
    payload = _result_payload(res, cfg)
    _dump_report(out, payload)

    ok = _certified(res.report, cfg) and payload["level_bound"]["passed"]
    print(f"level={res.level:.8f} {_summary(res.report)} converged={res.converged}")
    return 0 if ok else 1


def _certified(report, cfg) -> bool:
    """The exit rule of solve and diagnose: the Euler-Lagrange and Nehari
    residuals are at most solver.el_tol, and Pohozaev, where taken, at most
    POHOZAEV_TOL."""
    tol, poh = cfg.solver.el_tol, report.pohozaev
    return max(report.euler_lagrange, report.nehari) <= tol and (poh is None or poh <= POHOZAEV_TOL)


def _summary(report) -> str:
    """One stdout line of a report; a missing Pohozaev entry prints as none."""
    poh = "none" if report.pohozaev is None else f"{report.pohozaev:.3e}"
    return f"el={report.euler_lagrange:.3e} nehari={report.nehari:.3e} pohozaev={poh}"


def _dump_report(out: Path, payload: dict) -> None:
    """Machine-readable key-value document plus a flat CSV for plotting."""
    _write_yaml(out / "report.yaml", payload)
    flat = []

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(f"{prefix}{key}" if not prefix else f"{prefix}.{key}", val)
        else:
            flat.append((prefix, "" if node is None else str(node)))

    walk("", payload)
    _write_csv(out / "report.csv", ["key", "value"], flat)


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    out = _prepare_outdir(args, cfg)
    u = read_field_binary(args.u)
    v = read_field_binary(args.v)
    w = PairField(u, v)
    report = build_report(w, cfg.family, cfg.potential.values(w.grid, 1.0))
    _dump_report(out, report.as_dict())
    print(_summary(report))
    return 0 if _certified(report, cfg) else 1


def cmd_moser(args) -> int:
    cfg = _load_config(args)
    out = _prepare_outdir(args, cfg)
    rows = moser_table(cfg.moser_n_list, cfg.moser_r1, cfg.grid)
    if not rows:
        print("no resolvable sequence members for this grid", file=sys.stderr)
        return 1
    _write_csv(
        out / "moser.csv",
        ["n", "n_points", "seminorm_sq", "rel_err_vs_pi", "l2_sq", "l2_sq_exact"],
        [
            (r.n, r.n_points, r.seminorm_sq, r.rel_err_vs_pi, r.l2_sq, r.l2_sq_exact)
            for r in rows
        ],
    )
    finest = [r for r in rows if r.n_points == cfg.grid.n_points]
    worst = max(abs(r.rel_err_vs_pi) for r in finest)
    print(f"{len(rows)} rows; worst |seminorm - pi|/pi at full resolution: {worst:.3f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _prepare_outdir(args, cfg)
    try:
        sweep = concentration_sweep(
            cfg.sweep_eps_list,
            cfg.potential,
            cfg.family,
            cfg.grid,
            cfg.solver,
            keep_solutions=bool(args.dump_fields),
        )
    except HalfwaveError as err:
        print(f"sweep failed: {err}", file=sys.stderr)
        return 1
    _write_csv(
        out / "sweep.csv",
        ["epsilon", "level", "x_eps", "dist_to_L", "gap12", "profile_drift"],
        [
            (r.epsilon, r.level, r.x_eps, r.dist_to_minima, r.gap12, r.profile_drift)
            for r in sweep.records
        ],
    )
    theta_scan = autonomous_level_vs_theta(cfg.theta_list, cfg.family, cfg.grid, cfg.solver)
    _write_csv(
        out / "theta.csv",
        ["theta", "level", "el_residual"],
        [(r.theta, r.level, r.el_residual) for r in theta_scan.records],
    )
    if args.dump_fields:
        for rec in sweep.records:
            if rec.solution is not None:
                tag = _fmt(rec.epsilon)
                write_field_binary(rec.solution.u, out / f"u_eps_{tag}.bin")
                write_field_binary(rec.solution.v, out / f"v_eps_{tag}.bin")
    _write_yaml(
        out / "sweep_summary.yaml",
        {
            "autonomous_level": float(sweep.autonomous_level),
            "errors": {str(k): v for k, v in sweep.errors.items()},
            "levels_in_window": bool(sweep.levels_in_window(cfg.family.beta0)),
            "theta_strictly_increasing": bool(theta_scan.strictly_increasing),
        },
    )
    for rec in sweep.records:
        print(
            f"eps={rec.epsilon:g} level={rec.level:.6f} x_eps={rec.x_eps:+.4f} "
            f"dist={rec.dist_to_minima:.3e} drift={rec.profile_drift:.4f}"
        )
    solves = [("autonomous", sweep.autonomous)]
    solves += [(f"eps={r.epsilon:g}", r) for r in sweep.records]
    solves += [(f"theta={r.theta:g}", r) for r in theta_scan.records]
    unconverged = [(name, rec) for name, rec in solves if not rec.converged]
    for name, rec in unconverged:
        print(f"unconverged: {name} (el_residual {rec.el_residual:.3e})", file=sys.stderr)
    ok = not sweep.errors and not unconverged and sweep.levels_in_window(cfg.family.beta0)
    return 0 if ok else 1


def cmd_audit(args) -> int:
    cfg = _load_config(args)
    out = _prepare_outdir(args, cfg)
    audit = audit_hypotheses(cfg.family)
    _write_csv(
        out / "audit.csv",
        ["hypothesis", "status", "margin", "worst_point", "n_samples", "note"],
        list(audit.rows()),
    )
    for key, status, margin, worst, _, _ in audit.rows():
        print(f"{key:6s} {status:12s} margin={margin:.3e} worst_at={worst:.3e}")
    return 0 if audit.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Ground states of the coupled square-root-Laplacian system "
        "with exponential nonlinearities, plus verification diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (defaults used if omitted)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override solver.seed")

    for name, fn in (
        ("solve", cmd_solve),
        ("diagnose", cmd_diagnose),
        ("moser", cmd_moser),
        ("sweep", cmd_sweep),
        ("audit", cmd_audit),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
        if name == "diagnose":
            p.add_argument("--u", required=True, help="binary dump of the first component")
            p.add_argument("--v", required=True, help="binary dump of the second component")
        if name == "sweep":
            p.add_argument("--dump-fields", action="store_true", help="dump per-epsilon fields")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except HalfwaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
