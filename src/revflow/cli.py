"""Experiment driver: validate / bounds / run / cmc / sweep subcommands.

Exit codes: 0 success, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import flow as flow_mod
from .ambient import validate_space
from .bounds import compute_bounds
from .cmc import ShootingError, cylinder_for_volume, shoot_cmc
from .config import _NUMBER, ConfigError, _get_as, load_config, parse_config
from .flow import FlowConfig, StopTag, build_summary, write_history_csv, write_summary_json
from .hypersurface import enclosed_volume, lateral_area, save_profile_csv
from .svgplot import write_line_plot

__all__ = ["main"]

MAX_PROFILE_SNAPSHOTS = 9


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def cmd_validate(cfg, args):
    report = validate_space(cfg.space, cfg.validate_probe, cfg.validate_samples)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if report.rss_ok and report.rss2_branch is None:
        _warn("space is rotationally symmetric but the sign conditions "
              "S_zi < 0, S_ri <= 0 fail; the flow guarantees do not apply")
    return 0 if report.rss_ok else 2


def cmd_bounds(cfg, args):
    V = enclosed_volume(cfg.initial, cfg.space)
    area = lateral_area(cfg.initial, cfg.space)
    report = compute_bounds(cfg.space, cfg.a, cfg.b, V, area)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _snapshot_indices(count):
    if count <= MAX_PROFILE_SNAPSHOTS:
        return list(range(count))
    stride = (count - 1) / (MAX_PROFILE_SNAPSHOTS - 1)
    return sorted({round(i * stride) for i in range(MAX_PROFILE_SNAPSHOTS)})


def run_to_directory(cfg, outdir, seed=None):
    """Execute flow.run for a parsed config and write all artifacts."""
    report = validate_space(cfg.space, cfg.validate_probe, cfg.validate_samples)
    if not report.rss_ok:
        raise RuntimeError("space validation failed: " + "; ".join(report.violations))
    if report.rss2_branch is None:
        _warn("sign conditions fail; running outside the guaranteed regime")

    os.makedirs(outdir, exist_ok=True)
    result = flow_mod.run(cfg.initial, cfg.space, cfg.flow)
    first = result.history[0]  # the initial profile
    bounds_report = compute_bounds(cfg.space, cfg.a, cfg.b, first.V, first.area)

    write_history_csv(result.history, os.path.join(outdir, "history.csv"))
    for k in _snapshot_indices(len(result.snapshots)):
        save_profile_csv(result.snapshots[k], os.path.join(outdir, f"profile_{k}.csv"))

    columns = {c: [getattr(rec, c) for rec in result.history]
               for c in ("t", "V", "area", "Hbar", "min_r")}
    write_line_plot(os.path.join(outdir, "diagnostics.svg"), columns.pop("t"), columns,
                    title="flow diagnostics")

    extras = {} if seed is None else {"seed": seed}
    summary = build_summary(result, bounds_report, cfg.echo, extras)
    write_summary_json(summary, os.path.join(outdir, "summary.json"))
    return result, summary


def cmd_run(cfg, args):
    outdir = args.out or cfg.outdir or "out"
    result, _ = run_to_directory(cfg, outdir, seed=args.seed)
    print(f"reason: {result.reason.tag.value}"
          + (f" at z={result.reason.location:.6g}" if result.reason.location is not None else ""))
    print(f"t_final: {result.final.t:.6g}   steps: {result.steps}   "
          f"records: {len(result.history)}")
    print(f"artifacts in {outdir}/")
    failed = result.reason.tag in (StopTag.INSTABILITY, StopTag.PROJECTION_FAILED)
    return 2 if failed else 0


def cmd_cmc(cfg, args):
    outdir = args.out or cfg.outdir or "out"
    os.makedirs(outdir, exist_ok=True)
    section = cfg.cmc
    mode = section.get("mode", "shoot" if "h_target" in section else "cylinder")

    def number(key):
        return _get_as(_NUMBER, {"cmc": section}, "cmc", key, required=True)

    if mode == "cylinder":
        prof = cylinder_for_volume(cfg.space, cfg.a, cfg.b, number("volume"), m=cfg.m)
    elif mode == "shoot":
        prof = shoot_cmc(cfg.space, cfg.a, cfg.b, number("h_target"), number("guess"), m=cfg.m)
    else:
        raise ConfigError(f"[cmc] mode: unknown value {mode!r}")

    path = os.path.join(outdir, "cmc_profile.csv")
    save_profile_csv(prof.profile, path)
    print(json.dumps({
        "H_const": prof.H_const,
        "residual": prof.residual,
        "volume": prof.volume,
        "r_at_a": float(prof.profile.r[0]),
        "profile_csv": path,
    }, indent=2, sort_keys=True))
    return 0


_SWEEP_FINALS = ("V", "area", "Hbar", "min_r", "max_r", "max_v")  # final-record floats
_SWEEP_COLUMNS = ("reason", "location", "t_final", "steps") + _SWEEP_FINALS + ("error",)


def _sweep_worker(payload):
    idx, sections, outdir, base_dir = payload
    row = {"run_id": idx}
    try:
        cfg = parse_config(sections, base_dir=base_dir)
        result, summary = run_to_directory(cfg, os.path.join(outdir, f"run_{idx:04d}"))
        final = summary["final"]
        row.update({
            "reason": result.reason.tag.value,
            "location": "" if result.reason.location is None else repr(result.reason.location),
            "t_final": repr(final["t"]),
            "steps": summary["steps"],
            **{col: repr(final[col]) for col in _SWEEP_FINALS},
            "error": "",
        })
    except Exception as exc:  # a failed run must not sink the sweep
        row.setdefault("reason", "error")
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg, args):
    outdir = args.out or cfg.outdir or "out"
    os.makedirs(outdir, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    items = cfg.sweep_items
    keys = [f"{sect}.{opt}" for (sect, opt), _ in items]
    combos = list(itertools.product(*[values for _, values in items])) if items else []

    payloads = []
    for idx, combo in enumerate(combos):
        sections = {s: dict(kv) for s, kv in cfg.echo.items()}
        sections.pop("sweep", None)
        for ((sect, opt), _), value in zip(items, combo):
            sections.setdefault(sect, {})[opt] = value
        payloads.append((idx, sections, outdir, base_dir))

    rows = []
    jobs = args.jobs or os.cpu_count() or 1
    if payloads:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_worker, payloads))
        else:
            rows = [_sweep_worker(p) for p in payloads]

    table_path = os.path.join(outdir, "sweep.csv")
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id"] + keys + list(_SWEEP_COLUMNS))
        for row, combo in zip(rows, combos):
            writer.writerow([row["run_id"], *combo] + [row.get(c, "") for c in _SWEEP_COLUMNS])
    print(f"{len(rows)} runs -> {table_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="revflow",
        description="Volume-preserving mean curvature flow of revolution graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check the ambient-space hypotheses"),
        ("bounds", "print the a-priori radii and small-volume criterion as JSON"),
        ("run", "evolve the configured profile and write artifacts"),
        ("cmc", "emit a constant-mean-curvature profile as CSV"),
        ("sweep", "run the cartesian sweep from the [sweep] section"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to config (.ini or summary.json)")
        p.add_argument("--out", help="output directory")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=None, help="worker count")
        if name == "run":
            p.add_argument("--seed", type=int, default=None,
                           help="recorded as 'seed' in summary.json; "
                                "the computation does not use it")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _err(str(exc))
        return 1

    dispatch = {
        "validate": cmd_validate,
        "bounds": cmd_bounds,
        "run": cmd_run,
        "cmc": cmd_cmc,
        "sweep": cmd_sweep,
    }
    try:
        return dispatch[args.command](cfg, args)
    except ConfigError as exc:
        _err(str(exc))
        return 1
    except (ShootingError, RuntimeError, ValueError, ArithmeticError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
