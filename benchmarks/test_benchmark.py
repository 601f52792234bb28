"""Self-tests of the benchmark: output schema, failure counting, tracer.

Run with ``python -m pytest benchmarks``.  Every workload runs at its tiny
size, so the whole file takes a few seconds.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import revflow  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_contract_schema(workload, trace):
    detail, result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0
    assert detail["workload"] == workload
    assert detail["machine"]["seed"] == 7
    if trace:
        assert detail["absent"] == []
        assert "flow.steps" not in detail["not_applicable"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    # only the benchmark's own files: no src/, so revflow cannot be imported
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench_dir = tmp_path / HERE.name
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "converge-euclid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unconverged_run_is_counted_as_failed(tmp_path):
    case = wl.prepare("converge-euclid", np.random.default_rng(0), wl.TINY, tmp_path)
    case.cfg = revflow.FlowConfig(max_t=1e-4, record_every=200, conv_tol=case.cfg.conv_tol)
    outcome = wl.execute(case)
    assert outcome.attempted == 1 and outcome.failed == 1
    assert any("not converged" in p for p in outcome.problems[0])
    ok = wl.execute(wl.prepare("converge-euclid", np.random.default_rng(0), wl.TINY, tmp_path))
    line = bench.result_line([ok, outcome], {})
    assert line["attempted"] == 2 and line["failed"] == 1 and line["correct"] is False


def test_timings_are_scaled_by_the_speed_index():
    solve = wl.Outcome(2.0, [[]])
    # on a machine running at half the reference speed, 2 s reads as 1 s
    timed = [(solve, 2.0), (solve, 2.0), (solve, 1.0)]
    args = argparse.Namespace(workload="converge-euclid")
    values, detail = bench.end_to_end(args, wl, timed, [0.3, 0.4, 0.5])
    assert values["time_to_result_s"] == pytest.approx(1.0)
    assert values["setup_s"] == 0.4
    assert detail["raw_time_to_cmc_s"]["median"] == 2.0
    assert detail["speed_index"]["median"] == pytest.approx(2.0)
    for workload in wl.WORKLOADS:
        assert speed.calibrate(wl.SPEED_KERNEL[workload], size=2) > 0.0


def _tiny_sweep(tmp_path):
    case = wl.prepare(wl.SWEEP, np.random.default_rng(0), wl.TINY, tmp_path)
    outdir = tmp_path / "out"
    with wl.contextlib.redirect_stdout(wl.io.StringIO()):
        assert revflow.cli.main(["sweep", "--config", str(case.config_path),
                                 "--out", str(outdir), "--jobs", "1"]) == 0
    return case, outdir


def test_malformed_or_missing_sweep_rows_are_counted_as_failed(tmp_path):
    case, outdir = _tiny_sweep(tmp_path)
    runs = len(case.exprs)
    assert wl.check_sweep(outdir, runs, case.m) == [[]] * runs

    table = outdir / "sweep.csv"
    header, first, *rest = table.read_text().splitlines()
    # an unquoted comma in the error column adds a field to run 0's row
    table.write_text("\n".join([header, first + ",extra"] + rest[:-1]) + "\n")
    problems = wl.check_sweep(outdir, runs, case.m)
    assert "fields" in problems[0][0]
    assert problems[-1] == ["no well-formed sweep.csv row"]
    assert sum(1 for p in problems if p) == 2


def test_non_singular_sweep_row_fails(tmp_path):
    case, outdir = _tiny_sweep(tmp_path)
    table = outdir / "sweep.csv"
    table.write_text(table.read_text().replace("singularity", "max_time", 1))
    problems = wl.check_sweep(outdir, len(case.exprs), case.m)
    assert "not singularity" in problems[0][0]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ("flow.run", 0.0, 10.0, -1, 7),
        ("ambient.warp", 1.0, 2.0, 0, 5),                 # step 1
        ("ambient.eval_fh", 2.0, 2.5, 0, 0),
        ("ambient.warp", 3.0, 4.0, 0, 5),                 # step 2
        ("ambient.eval_fh", 4.0, 4.5, 0, 0),
        ("hypersurface.enclosed_volume", 5.0, 7.0, 0, 0),
        ("bounds.beta", 5.5, 6.5, 5, 0),
        ("ambient.warp", 5.6, 6.0, 6, 100),
        ("ambient.warp", 8.0, 9.0, 0, 5),                 # final check
    ]
    m, present = tr.layer_metrics(spans)
    assert m["flow.steps"] == 2
    assert m["flow.records"] == 7
    assert m["flow.projection_fh_calls_per_step"] == 1.0
    assert m["bounds.quad_points"] == 100
    assert m["flow.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert m["flow.diagnostics_s"] == pytest.approx(2.0)
    assert m["ambient.warp_calls"] == 4
    assert m["cli.run_s"] == 0.0 and "cli.run_to_directory" not in present


def test_instrument_restores_the_package_and_tolerates_removed_names(tmp_path, monkeypatch):
    original_run = revflow.flow.run
    # a later change that drops a public name must not crash the tracer
    monkeypatch.delattr(revflow.svgplot, "write_line_plot")
    tracer = tr.Tracer()
    case = wl.prepare(wl.SWEEP, np.random.default_rng(1), wl.TINY, tmp_path)
    outcome = wl.execute(case, tracer=tracer)
    assert outcome.failed == 0
    assert revflow.flow.run is original_run
    assert not hasattr(revflow.AmbientSpace.eval_fh, "_bench_span")
    assert "svgplot.write_line_plot" in tracer.absent()
    metrics, present = tr.layer_metrics(tracer.spans)
    assert metrics["flow.steps"] > 0 and metrics["cli.run_s"] > 0.0
