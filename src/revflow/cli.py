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
_PROBE_MARGIN = 1.05


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def _validate(cfg):
    """``validate_space`` on (0, r_probe_max], and to 5% past the initial max r."""
    probe = max(cfg.validate_probe,
                min(_PROBE_MARGIN * float(cfg.initial.r.max()), cfg.space.r_max_domain))
    return validate_space(cfg.space, probe, cfg.validate_samples)


def cmd_validate(cfg, args):
    report = _validate(cfg)
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


def _prepare(cfg, outdir):
    """Validate the space for ``cfg`` and make ``outdir``; raise on a failed validation."""
    report = _validate(cfg)
    if not report.rss_ok:
        raise RuntimeError("space validation failed: " + "; ".join(report.violations))
    if report.rss2_branch is None:
        _warn("sign conditions fail; running outside the guaranteed regime")
    os.makedirs(outdir, exist_ok=True)


def run_to_directory(cfgs, outdirs, seed=None):
    """Execute ``flow.run`` for equal-length lists of parsed configs and
    their output directories, and write each member's artifacts.

    The configs differ only in ``[initial]``, a sweep group or a single
    ``revflow run``: their runs step together, as one ``flow.run``
    ensemble.  Returns, per member, its (result, summary) or the exception
    its own validation, run or writes raised.  If the ensemble raises, a
    group of two or more runs each member alone, so that the error lands on
    the member that raised it.
    """
    outs = [None] * len(cfgs)
    ready = []
    for i, (c, d) in enumerate(zip(cfgs, outdirs)):
        try:
            _prepare(c, d)
            ready.append(i)
        except Exception as exc:
            outs[i] = exc
    if not ready:
        return outs
    first = cfgs[ready[0]]
    try:
        results = flow_mod.run([cfgs[i].initial for i in ready], first.space, first.flow)
    except Exception as exc:
        results = [exc] if len(ready) == 1 else [_run_alone(cfgs[i]) for i in ready]
    for i, result in zip(ready, results):
        try:
            if isinstance(result, Exception):
                raise result
            outs[i] = result, _write_artifacts(cfgs[i], outdirs[i], result, seed)
        except Exception as exc:
            outs[i] = exc
    return outs


def _run_alone(cfg):
    try:
        return flow_mod.run(cfg.initial, cfg.space, cfg.flow)
    except Exception as exc:
        return exc


def _write_artifacts(cfg, outdir, result, seed):
    """Write one run's artifacts; return its summary."""
    write_history_csv(result.history, os.path.join(outdir, "history.csv"))
    for k in _snapshot_indices(len(result.snapshots)):
        save_profile_csv(result.snapshots[k], os.path.join(outdir, f"profile_{k}.csv"))

    columns = {c: [getattr(rec, c) for rec in result.history]
               for c in ("t", "V", "area", "Hbar", "min_r")}
    write_line_plot(os.path.join(outdir, "diagnostics.svg"), columns.pop("t"), columns,
                    title="flow diagnostics")

    extras = {} if seed is None else {"seed": seed}
    first = result.history[0]  # the initial profile
    try:  # last, so that a failure leaves the run's artifacts in place
        bounds_report = compute_bounds(cfg.space, cfg.a, cfg.b, first.V, first.area)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        bounds_report = None
        extras.update(bounds=None, bounds_error=f"{type(exc).__name__}: {exc}")
        _warn(f"bounds not computed: {extras['bounds_error']}")
    summary = build_summary(result, bounds_report, cfg.echo, extras)
    write_summary_json(summary, os.path.join(outdir, "summary.json"))
    return summary


def _outdir(cfg, args):
    """--out, else the config's [output] dir, else ./out."""
    return args.out or cfg.outdir or "out"


def cmd_run(cfg, args):
    outdir = _outdir(cfg, args)
    [out] = run_to_directory([cfg], [outdir], seed=args.seed)  # a sweep group of one
    if isinstance(out, Exception):
        raise out
    result, _ = out
    print(f"reason: {result.reason.tag.value}"
          + (f" at z={result.reason.location:.6g}" if result.reason.location is not None else ""))
    print(f"t_final: {result.final.t:.6g}   steps: {result.steps}   "
          f"records: {len(result.history)}")
    print(f"artifacts in {outdir}/")
    failed = result.reason.tag in (StopTag.INSTABILITY, StopTag.PROJECTION_FAILED)
    return 2 if failed else 0


def cmd_cmc(cfg, args):
    outdir = _outdir(cfg, args)
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


def _sweep_group(members, outdir, base_dir):
    """The rows of one sweep group: its members parse, run together and write."""
    rows, cfgs, dirs, parsed = [], [], [], []
    for idx, sections in members:
        row = {"run_id": idx}
        rows.append(row)
        try:
            cfgs.append(parse_config(sections, base_dir=base_dir))
        except Exception as exc:  # a failed run must not sink the sweep
            row.update(reason="error", error=f"{type(exc).__name__}: {exc}")
            continue
        dirs.append(os.path.join(outdir, f"run_{idx:04d}"))
        parsed.append(row)
    for row, out in zip(parsed, run_to_directory(cfgs, dirs) if cfgs else []):
        if isinstance(out, Exception):
            row.update(reason="error", error=f"{type(out).__name__}: {out}")
            continue
        result, summary = out
        final = summary["final"]
        row.update({
            "reason": result.reason.tag.value,
            "location": "" if result.reason.location is None else repr(result.reason.location),
            "t_final": repr(final["t"]),
            "steps": summary["steps"],
            **{col: repr(final[col]) for col in _SWEEP_FINALS},
            "error": summary.get("bounds_error", ""),
        })
    return rows


def cmd_sweep(cfg, args):
    outdir = _outdir(cfg, args)
    os.makedirs(outdir, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    items = cfg.sweep_items
    keys = [f"{sect}.{opt}" for (sect, opt), _ in items]
    combos = list(itertools.product(*[values for _, values in items])) if items else []

    # members that differ only in [initial] share a space, grid and flow: one group
    groups = {}
    for idx, combo in enumerate(combos):
        sections = {s: dict(kv) for s, kv in cfg.echo.items()}
        sections.pop("sweep", None)
        for ((sect, opt), _), value in zip(items, combo):
            sections.setdefault(sect, {})[opt] = value
        key = tuple(v for ((sect, _), _), v in zip(items, combo) if sect != "initial")
        groups.setdefault(key, []).append((idx, sections))
    rows = sorted((row for group in groups.values()
                   for row in _sweep_group(group, outdir, base_dir)),
                  key=lambda row: row["run_id"])

    table_path = os.path.join(outdir, "sweep.csv")
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id"] + keys + list(_SWEEP_COLUMNS))
        for row, combo in zip(rows, combos):
            writer.writerow([row["run_id"], *combo] + [row.get(c, "") for c in _SWEEP_COLUMNS])
    print(f"{len(rows)} runs -> {table_path}")
    return 0


def _worker_count(text):
    """argparse type of ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
            p.add_argument("--jobs", type=_worker_count, default=1,
                           help="at least 1; no effect: a sweep runs in one process, "
                                "each group as one ensemble")
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
