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

    def test_config_error_exit_1(self, tmp_path, capsys):
        code = main(["validate", "--config",
                     write_ini(tmp_path / "c.ini", BASE.replace("b = 1.0", "b = x"))])
        assert code == 1
        assert "[domain] b" in capsys.readouterr().err

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

    def test_import_leaves_scipy_out(self):
        # scipy would add to every command's start-up time and memory
        code = "import sys, revflow.cli; sys.exit('scipy' in sys.modules)"
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

    @pytest.mark.parametrize("argv", [["bounds", "--jobs", "2"], ["sweep", "--seed", "1"],
                                      ["validate", "--seed", "1"], ["run", "--jobs", "2"]],
                             ids=["bounds-jobs", "sweep-seed", "validate-seed", "run-jobs"])
    def test_flag_on_wrong_subcommand_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", write_ini(tmp_path / "c.ini", BASE)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
