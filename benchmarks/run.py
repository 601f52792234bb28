"""revflow benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload converge-euclid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"detail": ...}`` object with sample counts, spreads and the machine.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: a timed run keeps one thread busy.  Set before
# numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SPEC = ROOT / "BENCHMARK.json"


def import_revflow():
    """Import ``revflow`` from this checkout's ``src/``; raise if absent."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import revflow

    origin = Path(revflow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"revflow imported from {origin}, not from {SRC}")
    return revflow


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workdir_for(args):
    return ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"


def probe_setup(args):
    """Child side of a setup probe: prepare the first input, print the clock."""
    import numpy as np
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    workdir = workdir_for(args)
    try:
        workloads.prepare(args.workload, np.random.default_rng(args.seed), size, workdir)
        print(f"ready {time.perf_counter()!r}", flush=True)
    finally:
        workloads.shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_probe_s(args):
    """Seconds from the start of a fresh process to its first timed call.

    The probe is a new interpreter that imports revflow and builds the
    workload's first input; the clock is the system-wide monotonic one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "ready":
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(lines[-1]) - t0


def machine(args, workloads):
    import numpy as np
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy has no dict form; the header is informative only
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sweep_jobs": workloads.SWEEP_JOBS,
        "seed": args.seed,
    }


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux: this process plus its largest waited-for child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_untraced(args, workloads, size, rng, deadline, workdir):
    """Timed executions until the deadline, each followed by a setup probe.

    A ``speed.index`` call of the workload's kernel precedes the first
    execution and follows every one, so each execution lies between two
    calls.  It is returned as an ``(outcome, index)`` pair, index being the
    mean of those two.  Interleaving the probes samples set-up time across
    the whole run.
    """
    from speed import index

    kernel = workloads.SPEED_KERNEL[args.workload]
    timed, setup, spent = [], [], []
    before = index(kernel)
    while True:
        t0 = time.perf_counter()
        case = workloads.prepare(args.workload, rng, size, workdir)
        outcome = workloads.execute(case)
        after = index(kernel)
        timed.append((outcome, 0.5 * (before + after)))
        before = after
        setup.append(setup_probe_s(args))
        spent.append(time.perf_counter() - t0)
        if len(timed) >= size.min_reps and time.perf_counter() + max(spent) > deadline:
            break
    while len(setup) < size.setup_probes:
        setup.append(setup_probe_s(args))
    return timed, setup


def run_traced(args, workloads, size, rng, deadline, workdir):
    """Pairs of untraced and traced executions of the same input."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, spent = [], [], []
    while True:
        t0 = time.perf_counter()
        case = workloads.prepare(args.workload, rng, size, workdir)
        plain.append(workloads.execute(case))
        traced.append(workloads.execute(case, tracer=tracer))
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() + max(spent) > deadline:
            return tracer, plain, traced


def end_to_end(args, workloads, timed, setup_samples):
    """Medians of the execution times, and of the set-up probes.

    An execution ``t`` seconds long, bracketed by speed-index calls of
    mean ``c``, reports ``t / c``: seconds on the reference machine at its
    usual speed.  The raw times and the index are in the detail line.
    Set-up is not scaled: the index does not track it (README.md).
    """
    raw, times = [], []
    for o, cal in timed:
        passed = o.attempted - o.failed
        t = o.wall_s / passed if passed else o.wall_s
        raw.append(t)
        times.append(t / cal)
    values = {
        "time_to_result_s": statistics.median(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "time_to_result_s": summary(times),
        "setup_s": summary(setup_samples),
        "speed_index": summary([cal for _, cal in timed]),
    }
    outcomes = [o for o, _ in timed]
    if args.workload == workloads.SWEEP:
        rates = [(o.attempted - o.failed) / o.wall_s for o in outcomes]
        detail["raw_runs_per_s"] = summary(rates)
        detail["runs_per_sweep"] = outcomes[0].attempted
        detail["raw_sweep_wall_s"] = summary([o.wall_s for o in outcomes])
    else:
        detail["raw_time_to_cmc_s"] = summary(raw)
    return values, detail


def per_layer(tracer, plain, traced):
    from tracer import SOURCES, layer_metrics

    values, present = layer_metrics(tracer.spans)
    runs = sum(o.attempted for o in traced)
    values["cli.bytes_written"] = sum(o.bytes_written for o in traced) / runs
    base = sum(o.wall_s for o in plain)
    overhead = sum(o.wall_s for o in traced) - base
    values["trace.overhead_frac"] = overhead / base
    not_applicable = sorted(name for name, srcs in SOURCES.items()
                            if not present.intersection(srcs))
    detail = {
        "traced_runs": runs,
        "spans": len(tracer.spans),
        "untraced_wall_s": base,
        "tracing_overhead_s": overhead,
        "not_applicable": not_applicable,
        "absent": tracer.absent(),
    }
    if values["flow.records"]:
        detail["diagnose_ms_per_record"] = 1e3 * values["flow.diagnostics_s"] / values["flow.records"]
    return values, detail


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        import_revflow()
    except ImportError as exc:
        print(f"error: cannot import revflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)

    size = workloads.TINY if args.tiny else workloads.FULL
    rng = np.random.default_rng(args.seed)
    workdir = workdir_for(args)
    try:
        if args.trace:
            deadline = started + args.seconds
            tracer, plain, traced = run_traced(args, workloads, size, rng, deadline, workdir)
            outcomes = plain + traced
            values, detail = per_layer(tracer, plain, traced)
        else:
            deadline = time.perf_counter() + args.seconds
            timed, setup_samples = run_untraced(args, workloads, size, rng, deadline,
                                                workdir)
            outcomes = [o for o, _ in timed]
            values, detail = end_to_end(args, workloads, timed, setup_samples)
    finally:
        workloads.shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = result_line(outcomes, metrics)
    problems = [f"execution {i} op {j}: " + "; ".join(p)
                for i, o in enumerate(outcomes) for j, p in enumerate(o.problems) if p]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "executions": len(outcomes),
        "fail_frac": result["failed"] / result["attempted"], "problems": problems[:10],
        "machine": machine(args, workloads),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


def result_line(outcomes, metrics):
    """The final JSON object: every checked operation counts, failed or not."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {"correct": attempted > 0 and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
