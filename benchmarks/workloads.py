"""Workload inputs, execution and output checks for the revflow benchmark.

Every input is drawn from a ``numpy.random.Generator`` seeded by the
benchmark's ``--seed``; the program only ever sees the generated profiles,
configs and flow thresholds.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

import revflow
from revflow import bounds as bounds_mod
from revflow import cli as cli_mod
from revflow import cmc as cmc_mod
from revflow import config as config_mod
from revflow import flow as flow_mod
from revflow import hypersurface as hyp_mod
from tracer import instrument

CONVERGE = {
    # preset, lambda, cmc deviation/|H| tolerance, conv_tol as a share of
    # |Hbar(0)| (None keeps the FlowConfig default of 1e-6, as criterion 3 does)
    "converge-euclid": ("euclidean", None, 1e-6, 5e-7),
    "converge-hyperbolic": ("hyperbolic", -1.0, 1e-5, None),
}
SWEEP = "neckpinch-sweep"
# In-process sweep: on a 2-vCPU host, two workers slow each other by a
# factor that depends on the neighbours' load (README.md, Steadiness).
SWEEP_JOBS = 1
# speed.py kernel that scales each workload's times: a copy of its hot loop
SPEED_KERNEL = {**dict.fromkeys(CONVERGE, "step"), SWEEP: "quadrature"}
WORKLOADS = tuple(CONVERGE) + (SWEEP,)


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    converge_m: int       # grid nodes of the converge workloads
    sweep_m: int          # grid nodes of every sweep run
    neck_cells: int       # neck strata; a sweep runs 3 * neck_cells dumbbells
    setup_probes: int     # fresh processes timed for setup_s, at least
    min_reps: int         # timed executions per run, at least


# Criterion 3 runs at m = 201, where one explicit solve takes about a minute
# on a 2-core Xeon; at m = 61 a solve takes about 4 s, so several fit in one
# measured run (see README.md).
FULL = Size(converge_m=61, sweep_m=201, neck_cells=2, setup_probes=5, min_reps=3)
TINY = Size(converge_m=21, sweep_m=41, neck_cells=1, setup_probes=1, min_reps=1)

# sweep inputs: neck in [0.03, 0.1], bulge in [0.6, 0.9], exponent k
NECK = (0.03, 0.1)
BULGE = (0.6, 0.9)
EXPONENTS = (4, 6, 8)
# Each dumbbell is drawn inside its own stratum, jittered over this share of
# the stratum width.  The pinch time grows about as neck^2, so uniform draws
# would let one seed's sweep cost twice another's; strata fix the mix of
# cheap and expensive runs while the seed still moves every input.  A
# sweep's time moves about 4% per 1% change of its thickest neck
# (README.md), hence the narrow jitter.
JITTER = 0.02

CUSTOM_SPACE = {
    # criterion 2's custom space: f = cosh(r)^2, h = sinh(r)
    "preset": "custom", "n": "2",
    "f": "cosh(r)^2", "df": "sinh(2*r)", "d2f": "2*cosh(2*r)",
    "h": "sinh(r)", "dh": "cosh(r)", "d2h": "sinh(r)",
}

VOLUME_DRIFT_TOL = 1e-10
RADIUS_TOL = 1e-4


# ---------------------------------------------------------------- inputs


def converge_profile(rng, m):
    """``1 + sum a_k cos(k pi z)`` near criterion 3's ``1 + 0.1 cos(pi z)``.

    Cosine modes keep rdot = 0 at both walls.
    """
    amps = (rng.uniform(0.09, 0.11), rng.uniform(-0.02, 0.02), rng.uniform(-0.01, 0.01))
    z = np.linspace(0.0, 1.0, m)
    r = 1.0 + sum(a * np.cos((k + 1) * np.pi * z) for k, a in enumerate(amps))
    return revflow.ProfileGrid(0.0, 1.0, r)


def sweep_expressions(rng, neck_cells):
    """Dumbbells ``neck + bulge cos(pi z)^k``, most expensive first.

    One dumbbell per (neck stratum, exponent); the bulge strata follow a
    Latin square so every exponent meets every bulge stratum.  Listing the
    thick necks first lets the process pool start its longest runs first.
    """
    neck_w = (NECK[1] - NECK[0]) / neck_cells
    bulge_w = (BULGE[1] - BULGE[0]) / len(EXPONENTS)
    exprs = []
    for i in reversed(range(neck_cells)):
        for j, k in enumerate(EXPONENTS):
            neck = NECK[0] + (i + 0.5 + JITTER * rng.uniform(-0.5, 0.5)) * neck_w
            cell = (i + j) % len(EXPONENTS)
            bulge = BULGE[0] + (cell + 0.5 + JITTER * rng.uniform(-0.5, 0.5)) * bulge_w
            exprs.append(f"{neck:.6f} + {bulge:.6f}*cos(pi*z)^{k}")
    return exprs


def sweep_config_text(exprs, m):
    sections = {
        "space": CUSTOM_SPACE,
        "domain": {"a": "0.0", "b": "1.0"},
        "grid": {"m": str(m)},
        "initial": {"expr": exprs[0]},
        "flow": {"record_every": "10"},
        "sweep": {"initial.expr": ", ".join(exprs)},
    }
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in kv.items())
        lines.append("")
    return "\n".join(lines)


@dataclass
class ConvergeCase:
    space: object
    initial: object
    cfg: object
    cmc_tol: float


@dataclass
class SweepCase:
    config_path: Path
    exprs: List[str]
    m: int
    workdir: Path


def prepare(workload, rng, size, workdir):
    """Build one input of ``workload``: everything up to the first timed call."""
    if workload in CONVERGE:
        preset, lam, cmc_tol, tol_share = CONVERGE[workload]
        space = revflow.make_preset(preset, lam, n=2)
        initial = converge_profile(rng, size.converge_m)
        conv_tol = None
        if tol_share is not None:
            conv_tol = tol_share * abs(revflow.averaged_mean_curvature(initial, space).Hbar)
        cfg = revflow.FlowConfig(max_t=10.0, record_every=200, conv_tol=conv_tol)
        return ConvergeCase(space, initial, cfg, cmc_tol)
    if workload == SWEEP:
        exprs = sweep_expressions(rng, size.neck_cells)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "sweep.ini"
        path.write_text(sweep_config_text(exprs, size.sweep_m))
        config_mod.load_config(str(path))  # parse and compile, as `revflow sweep` will
        return SweepCase(path, exprs, size.sweep_m, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- execution


@dataclass
class Outcome:
    """One timed execution: its wall time and per-operation check results."""

    wall_s: float
    problems: List[List[str]]   # one list per attempted operation, [] = passed
    bytes_written: int = 0

    @property
    def attempted(self):
        return len(self.problems)

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)


def execute(case, tracer=None):
    """Run one prepared case, then check its outputs.

    With a ``tracer`` the space's warp is wrapped and the timed section runs
    inside ``tracer.instrument``; checks always run untraced.
    """
    scope = instrument(tracer) if tracer is not None else contextlib.nullcontext()
    if isinstance(case, ConvergeCase):
        space = tracer.wrap_space(case.space) if tracer is not None else case.space
        t0 = time.perf_counter()
        try:
            with scope:
                result = flow_mod.run(case.initial, space, case.cfg)
                wall = time.perf_counter() - t0
                first = result.history[0]
                report = bounds_mod.compute_bounds(space, case.initial.a, case.initial.b,
                                                   first.V, first.area)
        except Exception as exc:  # a raising solve is a failed operation, not a crash
            return Outcome(time.perf_counter() - t0,
                           [[f"raised {type(exc).__name__}: {exc}"]])
        problems = check_converge(result, case.space, report, case.cmc_tol)
        return Outcome(wall, [problems])

    outdir = case.workdir / ("traced" if tracer is not None else "out")
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["sweep", "--config", str(case.config_path), "--out", str(outdir),
            "--jobs", str(SWEEP_JOBS)]
    with scope, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli_mod.main(argv)
        wall = time.perf_counter() - t0
    problems = check_sweep(outdir, len(case.exprs), case.m)
    if code != 0:
        problems = [p + [f"revflow sweep exited {code}"] for p in problems]
    written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
    shutil.rmtree(outdir, ignore_errors=True)
    return Outcome(wall, problems, bytes_written=written)


# ---------------------------------------------------------------- checks


def check_converge(result, space, report, cmc_tol):
    """Problems with one converge run; an empty list means it passed."""
    problems = []
    if result.reason.tag is not revflow.StopTag.CONVERGED:
        problems.append(f"stopped {result.reason.tag.value}, not converged")
    final = result.final.profile
    dev = float(np.max(np.abs(final.r - report.r1)))
    if not dev <= RADIUS_TOL:
        problems.append(f"max|r-r1|={dev:.3e} > {RADIUS_TOL:g}")
    dist = cmc_mod.distance_to_cmc(final, space)
    rel = dist.deviation / abs(dist.h_best)
    if not rel <= cmc_tol:
        problems.append(f"cmc deviation/|H|={rel:.3e} > {cmc_tol:g}")
    v0 = result.history[0].V
    drift = max(abs(rec.V - v0) / v0 for rec in result.history)
    if not drift <= VOLUME_DRIFT_TOL:
        problems.append(f"max|V-V0|/V0={drift:.3e} > {VOLUME_DRIFT_TOL:g}")
    return problems


def check_sweep(outdir, expected_runs, m):
    """Problems per expected sweep run (index = run_id).

    A run passes when its ``sweep.csv`` row parses to the header's field
    count, stops with ``singularity``, and its location is interior and
    within 2 dz of a critical point of the run's final profile snapshot.
    Runs with no well-formed row fail; nothing is skipped.
    """
    problems = [["no well-formed sweep.csv row"] for _ in range(expected_runs)]
    table = Path(outdir) / "sweep.csv"
    if not table.is_file():
        return problems
    with open(table, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        rows = list(reader)
    for row in rows:
        try:
            run_id = int(row[0])
        except (ValueError, IndexError):
            continue
        if not 0 <= run_id < expected_runs:
            continue
        if len(row) != len(header):
            problems[run_id] = [f"row has {len(row)} fields, header {len(header)}"]
            continue
        problems[run_id] = _check_sweep_row(dict(zip(header, row)),
                                            Path(outdir) / f"run_{run_id:04d}", m)
    return problems


def _check_sweep_row(row, rundir, m):
    if row.get("reason") != "singularity":
        return [f"reason {row.get('reason')!r}, not singularity ({row.get('error', '')})"]
    try:
        loc = float(row["location"])
    except (KeyError, ValueError):
        return [f"unparsable location {row.get('location')!r}"]
    dz = 1.0 / (m - 1)
    if not 0.0 < loc < 1.0:
        return [f"location {loc} not interior"]
    snaps = sorted(rundir.glob("profile_*.csv"), key=lambda p: int(p.stem.split("_")[1]))
    if not snaps:
        return ["no profile snapshot"]
    try:
        final = hyp_mod.load_profile_csv(snaps[-1])
    except ValueError as exc:
        return [f"unreadable final snapshot: {exc}"]
    gap = float(np.min(np.abs(hyp_mod.critical_points(final) - loc)))
    if not gap <= 2.0 * dz:
        return [f"location {loc} is {gap:.3g} from a critical point (> 2dz)"]
    return []
