import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from revflow import flow
from revflow.cli import main
from revflow.config import ConfigError, load_config
from revflow.flow import HISTORY_COLUMNS, FlowStopped, StopReason, StopTag
from revflow.hypersurface import load_profile_csv


def write_ini(path, text):
    path.write_text(text)
    return str(path)


BASE = """
[space]
preset = euclidean
n = 2

[domain]
a = 0.0
b = 1.0

[grid]
m = 21

[initial]
cylinder = 1.0
perturb = 0.05*cos(pi*z)

[flow]
max_t = 5.0
record_every = 100
"""


class TestConfigParsing:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_ini(tmp_path / "c.ini", BASE))
        assert cfg.m == 21 and cfg.a == 0.0 and cfg.space.preset == "euclidean"
        assert cfg.initial.r[0] == pytest.approx(1.05)

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            load_config(write_ini(tmp_path / "c.ini",
                                  BASE.replace("[grid]\nm = 21\n", "")))

    def test_bad_number_identifies_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[domain\] b"):
            load_config(write_ini(tmp_path / "c.ini", BASE.replace("b = 1.0", "b = abc")))

    def test_m_minimum(self, tmp_path):
        with pytest.raises(ConfigError, match="m >= 11"):
            load_config(write_ini(tmp_path / "c.ini", BASE.replace("m = 21", "m = 5")))

    def test_positive_profile_required(self, tmp_path):
        bad = BASE.replace("cylinder = 1.0", "cylinder = 0.01")
        with pytest.raises(ConfigError, match="positive"):
            load_config(write_ini(tmp_path / "c.ini", bad))

    def test_unknown_flow_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown option"):
            load_config(write_ini(tmp_path / "c.ini", BASE + "dt = 0.1\n"))

    def test_csv_initial(self, tmp_path):
        from revflow import ProfileGrid, save_profile_csv
        prof = ProfileGrid(0.0, 1.0, np.full(21, 1.2))
        save_profile_csv(prof, tmp_path / "prof.csv")
        text = BASE.replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)",
                            "csv = prof.csv")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        np.testing.assert_array_equal(cfg.initial.r, prof.r)

    @pytest.mark.parametrize("section,value", [
        ("space", "euclidean"),
        ("flow", {"max_t": "5.0", "volume_projection": True}),
    ])
    def test_malformed_json_sections_are_config_errors(self, tmp_path, capsys, section, value):
        sections = {"space": {"preset": "euclidean", "n": "2"},
                    "domain": {"a": "0.0", "b": "1.0"}, "grid": {"m": "21"},
                    "initial": {"cylinder": "1.0"}, "flow": {"max_t": "5.0"}}
        sections[section] = value
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"config": sections}))
        with pytest.raises(ConfigError, match=r"section must map option names to strings"):
            load_config(str(path))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: [")

    def test_custom_space(self, tmp_path):
        text = BASE.replace(
            "preset = euclidean\nn = 2",
            "preset = custom\nn = 2\nf = cosh(r)\ndf = sinh(r)\nd2f = cosh(r)\n"
            "h = sinh(r)\ndh = cosh(r)\nd2h = sinh(r)")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        assert cfg.space.preset == "custom"
        f, _, _, h, _, _ = cfg.space.warp(1.0)
        assert float(f) == pytest.approx(math.cosh(1.0))


class TestValidateCommand:
    def test_euclid_ok(self, tmp_path, capsys):
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", BASE)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rss_ok"] is True and out["rss2_branch"] == "b"

    def test_spherical_warns_but_ok(self, tmp_path, capsys):
        text = BASE.replace("preset = euclidean\nn = 2",
                            "preset = spherical\nlambda = 1.0\nn = 2") \
                   .replace("cylinder = 1.0", "cylinder = 0.5")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["rss2_branch"] is None
        assert "warning" in captured.err

    def test_bad_warp_exit_nonzero(self, tmp_path, capsys):
        text = BASE.replace(
            "preset = euclidean\nn = 2",
            "preset = custom\nn = 2\nf = 1\ndf = 0\nd2f = 0\n"
            "h = r^2\ndh = 2*r\nd2h = 2")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert any("h'(0)" in v for v in out["violations"])

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_h_vanishing_within_the_profile_exit_2(self, tmp_path, capsys, command):
        # r_probe_max = 0.5 stops short of h = 0 at r = 1; the probe runs on
        # 5% past the profile's largest radius, 1.0
        outdir = tmp_path / "out"
        code = main([command, "--config", write_ini(tmp_path / "c.ini", H_VANISHES),
                     "--out", str(outdir)])
        assert code == 2
        out, err = capsys.readouterr()
        assert "h not positive on (0, 1.05]" in (err if command == "run" else out)
        assert not (outdir / "summary.json").exists()

    def test_h_vanishing_past_the_profile_stops_the_run(self, tmp_path, capsys):
        # the first state with a node where h <= 0 is an instability
        outdir = tmp_path / "out"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", H_LEAVES),
                     "--out", str(outdir)])
        summary = json.loads((outdir / "summary.json").read_text())
        assert code == 2 and summary["reason"] == "instability"
        assert 1.0 < summary["final"]["max_r"] < 1.02

    def test_config_error_exit_1(self, tmp_path, capsys):
        code = main(["validate", "--config",
                     write_ini(tmp_path / "c.ini", BASE.replace("b = 1.0", "b = x"))])
        assert code == 1
        assert "[domain] b" in capsys.readouterr().err

    def test_module_entry_point_exit_codes(self, tmp_path):
        # ``python -m revflow.cli`` goes through ``sys.exit(main())``
        src = os.path.dirname(os.path.dirname(os.path.abspath(flow.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for text, expected in ((BASE, 0), (BASE.replace("[grid]\nm = 21\n", ""), 1)):
            path = write_ini(tmp_path / "c.ini", text)
            proc = subprocess.run([sys.executable, "-m", "revflow.cli", "validate",
                                   "--config", path], env=env, capture_output=True, text=True)
            assert proc.returncode == expected, proc.stderr
        assert "[grid]" in proc.stderr

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("option,value", [("samples", "1"), ("r_probe_max", "-1")])
    def test_out_of_range_validate_option_exit_1(self, tmp_path, capsys, command, option, value):
        text = BASE + f"\n[validate]\n{option} = {value}\n"
        code = main([command, "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"[validate] {option}" in capsys.readouterr().err


class TestBoundsCommand:
    def test_json_fields(self, tmp_path, capsys):
        code = main(["bounds", "--config", write_ini(tmp_path / "c.ini", BASE)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"r1", "r2", "r3", "small_volume_threshold",
                            "criterion_met", "sigma"}
        assert 0.0 < out["r3"] < out["r1"] < out["r2"]


# h = r - r^2 vanishes at r = 1, where the profile 0.9 + 0.1 cos(pi z)^2
# reaches: the hypotheses fail on the profile's own radii
H_VANISHES = (BASE.replace("preset = euclidean\nn = 2",
                           "preset = custom\nn = 2\nf = 1\ndf = 0\nd2f = 0\n"
                           "h = r - r^2\ndh = 1 - 2*r\nd2h = -2\n\n"
                           "[validate]\nr_probe_max = 0.5")
              .replace("m = 21", "m = 51")
              .replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)",
                       "expr = 0.9 + 0.1*cos(pi*z)^2"))


# the same space with a profile inside the probed (0, 0.9975]: validation
# passes, and the flow carries the profile past r = 1, where h < 0
H_LEAVES = H_VANISHES.replace("expr = 0.9 + 0.1*cos(pi*z)^2", "expr = 0.9 + 0.05*cos(pi*z)^2")


# the same space on its ball r < 1: a profile past 0.99 r_max stops as an
# instability at step 0, and the bounds' r2 target is unreachable in r < 1
BOUNDS_FAIL = (H_VANISHES.replace("d2h = -2", "d2h = -2\nr_max = 1")
               .replace("expr = 0.9 + 0.1*cos(pi*z)^2", "expr = 0.895 + 0.1*cos(pi*z)^2"))


# the same space with a profile inside r < 1, where h > 0: every kernel pass
# is finite, so these runs need no np.errstate
FALLING_DELTA = H_VANISHES.replace("expr = 0.9 + 0.1*cos(pi*z)^2",
                                   "expr = 0.8 + 0.1*cos(pi*z)^2")


class TestNonIncreasingIntegral:
    def test_bounds_exit_2_naming_delta(self, tmp_path, capsys):
        # delta = r^2/2 - r^3/3 falls past r = 1: the r2 bracket stops at r = 2
        code = main(["bounds", "--config", write_ini(tmp_path / "c.ini", FALLING_DELTA)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta = int_0^r h^(n-1)")
        assert "not finite and increasing" in err and "at r=2.0" in err

    def test_run_keeps_its_artifacts(self, tmp_path, capsys):
        # outside the sign conditions the flow's own stop reason is not pinned
        outdir = tmp_path / "out"
        main(["run", "--config", write_ini(tmp_path / "c.ini", FALLING_DELTA),
              "--out", str(outdir)])
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["bounds"] is None
        assert summary["bounds_error"].startswith("ValueError: delta = int_0^r h^(n-1)")
        assert (outdir / "history.csv").exists()


class TestRunCommand:
    def test_artifacts_and_schema(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", BASE),
                     "--out", str(outdir), "--seed", "7"])
        assert code == 0
        history = (outdir / "history.csv").read_text().strip().split("\n")
        assert history[0] == ",".join(HISTORY_COLUMNS)
        for line in history[1:]:
            assert len(line.split(",")) == len(HISTORY_COLUMNS)
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["reason"] == "converged"
        assert summary["seed"] == 7
        endgame = summary["endgame"]
        assert set(endgame) == {"step", "t", "gap", "share", "iterations", "residual", "lambda1",
                               "rate"}
        assert summary["steps"] == endgame["step"] + 1
        assert endgame["residual"] < summary["flow_config"]["conv_tol"] <= endgame["gap"]
        assert {"r1", "r2", "r3"} <= set(summary["bounds"])
        assert summary["config"]["grid"]["m"] == "21"
        assert (outdir / "diagnostics.svg").read_text().startswith("<svg")
        profiles = sorted(outdir.glob("profile_*.csv"))
        assert profiles
        for path in profiles:
            load_profile_csv(path)  # schema check: every emitted file parses

    def test_round_trip_bit_identical(self, tmp_path, capsys):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["run", "--config", write_ini(tmp_path / "c.ini", BASE),
                     "--out", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "summary.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_instability_exit_2(self, tmp_path, capsys):
        text = BASE.replace("preset = euclidean\nn = 2",
                            "preset = spherical\nlambda = 1.0\nn = 2") \
                   .replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)",
                            "cylinder = 1.5628")  # 0.995 * pi/2
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_projection_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        def miss(*args):
            raise FlowStopped(StopReason(StopTag.PROJECTION_FAILED))

        monkeypatch.setattr(flow, "_project_volume", miss)
        outdir = tmp_path / "out"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", BASE),
                     "--out", str(outdir)])
        assert code == 2
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["reason"] == "projection_failed" and summary["steps"] == 0

    def test_bounds_failure_keeps_the_run_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", BOUNDS_FAIL),
                     "--out", str(outdir)])
        assert code == 2  # from the stop reason
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["reason"] == "instability" and summary["bounds"] is None
        assert "unreachable within the domain" in summary["bounds_error"]
        assert "unreachable within the domain" in capsys.readouterr().err
        assert (outdir / "history.csv").exists() and (outdir / "profile_0.csv").exists()
        assert (outdir / "diagnostics.svg").exists()

    def test_run_error_exits_2_after_one_run(self, tmp_path, capsys, monkeypatch):
        # `revflow run` is a sweep group of one: its member's exception is
        # raised again, once, and no summary is written
        calls = []

        def failing_run(*args):
            calls.append(args)
            raise ArithmeticError("overflow in the warp")

        monkeypatch.setattr(flow, "run", failing_run)
        outdir = tmp_path / "out"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", BASE),
                     "--out", str(outdir)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: overflow in the warp")
        assert len(calls) == 1
        assert not (outdir / "summary.json").exists()

    def test_import_leaves_scipy_out(self):
        # scipy would add to every command's start-up time and memory
        code = "import sys, revflow.cli; sys.exit('scipy' in sys.modules)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(flow.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_leaves_the_process_pool_out(self):
        # no command uses it, and the import would cost every command: this
        # guards against its return
        code = "import sys, revflow.cli; sys.exit('concurrent.futures.process' in sys.modules)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(flow.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_leaves_numpy_polynomial_out(self):
        # the quadrature rules are literals; building them with leggauss at
        # import would add to every command's start-up time and memory
        code = "import sys, revflow.cli; sys.exit('numpy.polynomial' in sys.modules)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(flow.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCmcCommand:
    def test_cylinder_mode(self, tmp_path, capsys):
        text = BASE + f"\n[cmc]\nmode = cylinder\nvolume = {math.pi}\n"
        code = main(["cmc", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["H_const"] == pytest.approx(1.0, rel=1e-10)
        prof = load_profile_csv(tmp_path / "out" / "cmc_profile.csv")
        np.testing.assert_allclose(prof.r, 1.0, rtol=1e-10)

    def test_shoot_mode(self, tmp_path, capsys):
        text = BASE + "\n[cmc]\nmode = shoot\nh_target = 1.0\nguess = 1.1\n"
        code = main(["cmc", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] <= 1e-6

    def test_shooter_overflow_exit_2(self, tmp_path, capsys):
        text = (BASE.replace("preset = euclidean", "preset = hyperbolic\nlambda = -1.0")
                .replace("m = 21", "m = 201")
                + "\n[cmc]\nmode = shoot\nh_target = 1.8\nguess = 0.9\n")
        code = main(["cmc", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("mode = cylinder\nvolume = abc", "volume"),
        ("mode = shoot\nh_target = abc\nguess = 1.1", "h_target"),
        ("mode = shoot\nh_target = 1.0\nguess = abc", "guess"),
    ])
    def test_non_numeric_value_exit_1(self, tmp_path, capsys, section, key):
        text = BASE + f"\n[cmc]\n{section}\n"
        code = main(["cmc", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: [cmc] {key}: expected a number, got 'abc'" in capsys.readouterr().err


class TestSweepCommand:
    def test_amplitude_sweep_all_converged(self, tmp_path, capsys):
        text = BASE + "\n[sweep]\ninitial.perturb = 0.05*cos(pi*z), 0.1*cos(pi*z), 0.2*cos(pi*z)\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "2"])
        assert code == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(row["reason"] == "converged" for row in rows)
        assert all((outdir / f"run_{i:04d}" / "summary.json").exists() for i in range(3))

    def test_rows_and_summaries_report_steps(self, tmp_path, capsys):
        text = BASE + "\n[sweep]\ninitial.perturb = 0.05*cos(pi*z), 0.1*cos(pi*z)\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "1"])
        assert code == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for i, row in enumerate(rows):
            summary = json.loads((outdir / f"run_{i:04d}" / "summary.json").read_text())
            assert int(row["steps"]) == summary["steps"] >= summary["records"] - 1 > 0

    def test_neck_depth_transition(self, tmp_path, capsys):
        text = BASE.replace("m = 21", "m = 51") \
                   .replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)",
                            "expr = 0.5 + 0.9*cos(pi*z)^6")
        text += "\n[sweep]\ninitial.expr = 0.5 + 0.9*cos(pi*z)^6, 0.05 + 0.9*cos(pi*z)^6\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "1"])
        assert code == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["reason"] for row in rows] == ["converged", "singularity"]
        endgames = [json.loads((outdir / f"run_{i:04d}" / "summary.json").read_text())["endgame"]
                    for i in range(2)]
        assert endgames[0] is not None and endgames[1] is None

    def test_failed_run_recorded_and_sweep_continues(self, tmp_path, capsys):
        text = BASE + "\n[sweep]\ninitial.cylinder = 1.0, -1.0\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "1"])
        assert code == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["reason"] == "converged" and rows[0]["error"] == ""
        assert rows[1]["reason"] == "error" and rows[1]["error"]

    def test_bounds_failure_keeps_the_run_reason(self, tmp_path, capsys):
        text = BOUNDS_FAIL + "\n[sweep]\ngrid.m = 51\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "1"])
        assert code == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["reason"] == "instability"
        assert rows[0]["steps"] == "0" and "unreachable within the domain" in rows[0]["error"]

    def test_empty_sweep(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", BASE),
                     "--out", str(outdir)])
        assert code == 0
        lines = (outdir / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1  # header only

    def test_error_row_with_commas_is_quoted(self, tmp_path, capsys):
        # the run fails with "[initial] give exactly one of: expr, csv, cylinder"
        text = BASE + "\n[sweep]\ninitial.expr = 1 + 0.1*cos(pi*z)\n"
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir), "--jobs", "1"])
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert all(len(row) == len(header) for row in rows)
        row = dict(zip(header, rows[0]))
        assert row["reason"] == "error" and "expr, csv, cylinder" in row["error"]


CUSTOM_FLAT = BASE.replace(
    "preset = euclidean\nn = 2",
    "preset = custom\nn = 2\nf = 1\ndf = 0\nd2f = 0\nh = r\ndh = 1\nd2h = 0")


class TestSpaceAndInitialSources:
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("old,new", [
        ("n = 2", "n = 1"), ("d2h = 0", "d2h = 0\nr_max = -1"),
        ("d2h = 0", "d2h = 0\nr_max = nan"), ("d2h = 0", "d2h = 0\nr_max = -inf"),
    ], ids=["n=1", "r_max=-1", "r_max=nan", "r_max=-inf"])
    def test_bad_custom_space_exit_1(self, tmp_path, capsys, command, old, new):
        text = CUSTOM_FLAT.replace(old, new)
        code = main([command, "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [space] ")

    def test_custom_r_max_inf_and_number(self, tmp_path):
        for raw, expected in (("INF", math.inf), ("4.5", 4.5)):
            text = CUSTOM_FLAT.replace("d2h = 0", f"d2h = 0\nr_max = {raw}")
            cfg = load_config(write_ini(tmp_path / "c.ini", text))
            assert cfg.space.r_max_domain == expected

    @pytest.mark.parametrize("empty", ["expr", "csv"])
    def test_empty_source_counts_as_not_given(self, tmp_path, empty):
        text = BASE.replace("cylinder = 1.0", f"{empty} =\ncylinder = 1.0")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        assert cfg.initial.r[0] == pytest.approx(1.05)

    def test_empty_perturb_counts_as_not_given(self, tmp_path):
        text = BASE.replace("perturb = 0.05*cos(pi*z)", "perturb =")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        assert np.all(cfg.initial.r == 1.0)

    @pytest.mark.parametrize("key", ["f", "dh"])
    def test_malformed_warp_names_its_option(self, tmp_path, capsys, key):
        text = CUSTOM_FLAT.replace(f"\n{key} = ", f"\n{key} = cosh(r + ")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: [space] {key}: cannot parse")

    @pytest.mark.parametrize("expr", ["1 + 0*(-2)^0.5", "1 + r*(-2)^0.5"])
    def test_constant_power_with_no_real_value_exit_2(self, tmp_path, capsys, expr):
        text = CUSTOM_FLAT.replace("\nf = 1\n", f"\nf = {expr}\n")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        assert code == 2
        assert capsys.readouterr().err == "error: (-2.0)^0.5 has no real value\n"

    @pytest.mark.parametrize("perturb", ["0/0", "(-2)^0.5"])
    def test_initial_evaluation_error_exit_1(self, tmp_path, capsys, perturb):
        text = BASE.replace("perturb = 0.05*cos(pi*z)", f"perturb = {perturb}")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [initial] perturb: ")

    @pytest.mark.parametrize("argv", [["bounds", "--jobs", "2"], ["sweep", "--seed", "1"],
                                      ["validate", "--seed", "1"], ["run", "--jobs", "2"]],
                             ids=["bounds-jobs", "sweep-seed", "validate-seed", "run-jobs"])
    def test_flag_on_wrong_subcommand_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", write_ini(tmp_path / "c.ini", BASE)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


MIXED_EXPRS = ["1 + 0.1*cos(pi*z)", "0.05 + 0.9*cos(pi*z)^6", "0.9*cos(pi*z)^2 - 0.5",
               "0.08 + 0.7*cos(pi*z)^4"]
MIXED = (BASE.replace("m = 21", "m = 41")
         .replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)", "expr = 1 + 0.1*cos(pi*z)")
         .replace("max_t = 5.0\nrecord_every = 100", "max_t = 2.0\nrecord_every = 5")
         + "\n[sweep]\ninitial.expr = " + ", ".join(MIXED_EXPRS) + "\ngrid.m = 31, 41\n")


def _tree(root):
    """{relative path: bytes} of every file under ``root``."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


class TestSweepGroups:
    # a converging member, two pinches and an [initial] error row, on two
    # grids: the members of each grid.m step together as one group
    def test_members_write_what_their_own_runs_write(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        assert main(["sweep", "--config", write_ini(tmp_path / "c.ini", MIXED),
                     "--out", str(outdir), "--jobs", "1"]) == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["reason"] for row in rows] == [  # grid.m varies fastest
            reason for reason in ("converged", "singularity", "error", "singularity")
            for _ in range(2)]
        for idx, row in enumerate(rows):
            if row["reason"] == "error":
                assert not (outdir / f"run_{idx:04d}").exists()
                continue
            text = (MIXED.split("[sweep]")[0].replace("m = 41", f"m = {row['grid.m']}")
                    .replace("expr = 1 + 0.1*cos(pi*z)", f"expr = {row['initial.expr']}"))
            solo = tmp_path / f"solo_{idx}"
            assert main(["run", "--config", write_ini(tmp_path / f"s{idx}.ini", text),
                         "--out", str(solo)]) == 0
            member, alone = _tree(outdir / f"run_{idx:04d}"), _tree(solo)
            assert set(member) == set(alone)
            for name in member:
                if name.endswith(".csv"):
                    assert member[name] == alone[name], name
            assert (json.loads(member["summary.json"]) == json.loads(alone["summary.json"]))

    def test_one_and_two_jobs_write_the_same_trees(self, tmp_path, capsys):
        config = write_ini(tmp_path / "c.ini", MIXED)
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", config, "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
        assert _tree(tmp_path / "1") == _tree(tmp_path / "2")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", write_ini(tmp_path / "c.ini", MIXED),
                  "--out", str(tmp_path / "sweep"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("members, calls", [(1, 1), (3, 4)])
    def test_a_raising_group_reruns_only_to_place_the_error(self, tmp_path, capsys,
                                                            monkeypatch, members, calls):
        # a group of one reports its run's error as it is; a larger group
        # runs each member alone to learn whose error it was
        seen = []

        def raising(initial, space, cfg):
            seen.append(initial)
            raise ArithmeticError("overflow in the warp")

        monkeypatch.setattr(flow, "run", raising)
        exprs = ", ".join(MIXED_EXPRS[:1] * members)
        text = MIXED.split("[sweep]")[0] + f"[sweep]\ninitial.expr = {exprs}\n"
        outdir = tmp_path / "sweep"
        assert main(["sweep", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir)]) == 0
        with open(outdir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        error = "ArithmeticError: overflow in the warp"
        assert [row["error"] for row in rows] == [error] * members
        assert len(seen) == calls


SPHERE = BASE.replace("preset = euclidean\nn = 2", "preset = spherical\nlambda = 1.0\nn = 2")


class TestInitialChecks:
    @pytest.mark.parametrize("command", ["validate", "bounds", "run"])
    @pytest.mark.parametrize("source", ["csv", "cylinder"])
    def test_profile_past_r_max_exit_1(self, tmp_path, capsys, command, source):
        # r = 1.6 > r_max = pi/2: the same error whichever source gives it
        from revflow import ProfileGrid, save_profile_csv
        save_profile_csv(ProfileGrid(0.0, 1.0, np.full(21, 1.6)), tmp_path / "prof.csv")
        initial = "csv = prof.csv" if source == "csv" else "cylinder = 1.6"
        text = SPHERE.replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)", initial)
        code = main([command, "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [initial] ") and "ambient domain" in err

    @pytest.mark.parametrize("radius", ["-1.0", "nan"])
    def test_csv_radius_not_positive_exit_1(self, tmp_path, capsys, radius):
        rows = "".join(f"{0.05 * i!r},{radius if i == 3 else '1.0'}\n" for i in range(21))
        (tmp_path / "prof.csv").write_text("z,r\n" + rows)
        text = BASE.replace("cylinder = 1.0\nperturb = 0.05*cos(pi*z)", "csv = prof.csv")
        code = main(["validate", "--config", write_ini(tmp_path / "c.ini", text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [initial] csv: ")

    @pytest.mark.parametrize("a,b", [("0.0", "inf"), ("-inf", "1.0"), ("0.0", "nan")])
    def test_slab_must_be_finite(self, tmp_path, a, b):
        text = BASE.replace("a = 0.0\nb = 1.0", f"a = {a}\nb = {b}")
        with pytest.raises(ConfigError, match=r"\[domain\] need finite a < b"):
            load_config(write_ini(tmp_path / "c.ini", text))


class TestFlowOptions:
    def test_volume_projection_no(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        text = BASE + "volume_projection = no\n"
        assert main(["run", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["flow_config"]["volume_projection"] is False

    def test_volume_projection_not_a_boolean_exit_1(self, tmp_path, capsys):
        text = BASE + "volume_projection = maybe\n"
        code = main(["run", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[flow] volume_projection: expected a boolean" in capsys.readouterr().err

    def test_snapshots_thinned_to_nine(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        text = (BASE.replace("record_every = 100", "record_every = 1")
                .replace("perturb = 0.05*cos(pi*z)", "perturb = 0.2*cos(pi*z)"))
        assert main(["run", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(outdir)]) == 0
        records = json.loads((outdir / "summary.json").read_text())["records"]
        assert records > 9
        ks = sorted(int(p.stem.split("_")[1]) for p in outdir.glob("profile_*.csv"))
        assert len(ks) == 9 and ks[0] == 0 and ks[-1] == records - 1


_SOURCE = "cylinder = 1.0\nperturb = 0.05*cos(pi*z)"
# one error per case, each with its exit code and the start of its stderr;
# a text of None writes no config, and {path} is the config's path
_ERRORS = {
    "missing-option": (BASE.replace("b = 1.0\n", ""), ["run"], 1,
                       "error: [domain] b: missing required option"),
    "unknown-preset": (BASE.replace("preset = euclidean", "preset = torus"), ["run"], 1,
                       "error: [space] preset: unknown value 'torus'"),
    "csv-grid-mismatch": (BASE.replace(_SOURCE, "csv = eleven.csv"), ["run"], 1,
                          "error: [initial] csv: grid does not match [domain]/[grid]"),
    "bad-expression": (BASE.replace(_SOURCE, "expr = 1 +"), ["run"], 1, "error: [initial] expr: "),
    "dt_safety": (BASE + "dt_safety = 1.5\n", ["run"], 1,
                  "error: [flow] dt_safety must lie in (0, 1)"),
    "sweep-key-without-a-dot": (BASE + "\n[sweep]\nperturb = 0.1\n", ["sweep"], 1,
                                "error: [sweep] perturb: keys must look like section.option"),
    "unreadable-file": (None, ["run"], 1, "error: [Errno 2] No such file or directory"),
    "bad-json": ("{not json", ["run"], 1, "error: {path}: bad JSON ("),
    "no-config-sections": ('{"config": [1]}', ["run"], 1,
                           "error: {path}: no config sections found"),
    "ini-syntax": ("a = 1\n", ["run"], 1, "error: File contains no section headers."),
    "unknown-cmc-mode": (BASE + "\n[cmc]\nmode = sphere\n", ["cmc"], 1,
                         "error: [cmc] mode: unknown value 'sphere'"),
    # argparse's usage error: the message follows the usage line
    "jobs-not-an-integer": (BASE, ["sweep", "--jobs", "two"], 2,
                            "revflow sweep: error: argument --jobs: invalid int value: 'two'"),
}


@pytest.mark.parametrize("case", list(_ERRORS))
def test_each_error_exits_with_its_code_and_message(tmp_path, capsys, case):
    text, (command, *extra), code, start = _ERRORS[case]
    path = str(tmp_path / "c.ini")
    if text is not None:
        write_ini(tmp_path / "c.ini", text)
    (tmp_path / "eleven.csv").write_text(
        "z,r\n" + "".join(f"{z!r},1.0\n" for z in np.linspace(0.0, 1.0, 11).tolist()))
    argv = [command, "--config", path, "--out", str(tmp_path / "out"), *extra]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
    else:
        assert main(argv) == 1
        err = capsys.readouterr().err
    assert err.startswith(start.format(path=path)), err
