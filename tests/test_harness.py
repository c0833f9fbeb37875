"""Experiment harness: artifacts, exit codes, sweeps, and the CLI."""

import csv
import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qimcf
from qimcf import (ConfigError, DiagnosticsRecord, ExperimentConfig,
                   FlowState, MeanConvexityLost, NonFiniteRecord,
                   NonFiniteState, StepControl, StiffnessError, ambient, flow,
                   harness, run_experiment, run_flow, sweep)
from qimcf.cli import main
from qimcf.config import check_mean_convexity, override_config
from qimcf.flow import MAX_STAGES, METHODS, diagnostics_record
from qimcf.geometry import cached_grid
from qimcf.harness import (AMBIENT_TOLERANCES, EXIT_CONFIG, EXIT_OK,
                           SWEEP_RESULT_COLUMNS, resolve_out_dir,
                           verify_ambient_report)
from qimcf.limits import (T_USABLE, VERDICT_TOL, constancy_verdict,
                          extract_conformal_factor, fit_decay_rate)

ROOT = Path(__file__).resolve().parent.parent

CONFIG_TEXT = """\
n = 2

[grid]
points = 64

[initial]
kind = bump
r0 = 3.0
amplitude = 0.1

[time]
t_end = 21.0
"""


FORK_ONLY = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="a sweep runs its cells in processes of their own only where "
           "os.fork exists")


def fast_cfg(**kw):
    base = dict(grid_points=64, initial_kind="bump", initial_r0=3.0,
                initial_amplitude=0.1, t_end=21.0)
    base.update(kw)
    return ExperimentConfig(**base)


def write_cfg(tmp_path, text=CONFIG_TEXT):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    """Header and data rows of a CSV output file, as strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def observed_profiles(cfg):
    """(t, rho) of every record of cfg's flow, as a run_flow observer
    sees them, from a run_flow call of its own."""
    seen = []
    run_flow(FlowState(t=0.0, profile=check_mean_convexity(cfg)),
             StepControl(t_end=cfg.t_end, cfl_safety=cfg.cfl_safety,
                         record_every=cfg.snapshot_every),
             observers=[lambda state, _: seen.append(
                 (state.t, state.profile.rho))])
    return seen


def assert_profiles_follow_diagnostics(out):
    """profiles.csv has one row per diagnostics.csv row, with its t."""
    _, diagnostics = read_csv(out / "diagnostics.csv")
    _, profiles = read_csv(out / "profiles.csv")
    assert [row[0] for row in profiles] == [row[0] for row in diagnostics]
    return profiles


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def each_writer(monkeypatch):
    """Set each way of writing profiles.csv in turn, yielding its name:
    the forked writer process (where os.fork exists), then in-process.
    After each, no child process may be left."""
    for forked in (True, False) if hasattr(os, "fork") else (False,):
        monkeypatch.setattr(harness, "_fork_writer", forked)
        yield "forked" if forked else "in_process"
        assert_no_child_left()


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "run"
    result = run_experiment(fast_cfg(), out_dir=str(out))
    assert result.exit_code == EXIT_OK
    assert result.out_dir == str(out)

    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "profiles.csv", "report.json"]
    header, profiles = read_csv(out / "profiles.csv")
    assert len(header) == 1 + 64
    assert len(profiles) == 43  # t = 0, 0.5, ..., 21
    assert all(len(row) == 1 + 64 for row in profiles)

    with open(out / "diagnostics.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(DiagnosticsRecord._fields)
    assert len(rows) == 44
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 21.0
    h_min_col = [float(r[4]) for r in rows[1:]]
    assert min(h_min_col) == result.min_H_over_run > 0

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report == result.report
    # both decay series are diagnostics.csv columns, the H one as
    # max(|H_min - (4n+2)|, |H_max - (4n+2)|)
    col = {name: [float(r[i]) for r in rows[1:]]
           for i, name in enumerate(rows[0])}
    h_dev = [max(abs(lo - 10), abs(hi - 10))
             for lo, hi in zip(col["H_min"], col["H_max"])]
    assert report["decay_rates"] == {
        "grad_phi": fit_decay_rate(zip(col["t"], col["sup_grad_phi_sq"]),
                                   T_USABLE),
        "H": fit_decay_rate(zip(col["t"], h_dev), T_USABLE)}
    assert set(report) == {"n", "grid_size", "t_end", "f_range", "limit_Q",
                           "Q_final", "verdict", "decay_rates",
                           "cauchy_residual", "steps", "evaluations",
                           "steps_by_method", "dt_max",
                           "cfl_safety", "snapshot_every", "initial",
                           "version"}
    assert set(report["decay_rates"]) == {"grad_phi", "H"}
    dt_max = StepControl(t_end=21.0).dt_max
    assert report["dt_max"] == dt_max
    assert report["steps"] == round(21.0 / dt_max)
    assert (3 * report["steps"] <= report["evaluations"]
            <= MAX_STAGES * report["steps"])
    assert sum(report["steps_by_method"].values()) == report["steps"]
    assert set(report["steps_by_method"]) <= {m.name for m in METHODS}
    assert report["cfl_safety"] == StepControl(t_end=21.0).cfl_safety
    assert report["snapshot_every"] == 0.5
    assert report["initial"] == {"kind": "bump", "r0": 3.0,
                                 "amplitude": 0.1, "tau": 4.0}
    assert report["version"] == qimcf.__version__
    assert report["verdict"] == "NON_CONSTANT"
    assert report["decay_rates"]["grad_phi"] < -0.1


def test_profiles_match_observed_profiles(tmp_path, monkeypatch):
    cfg = fast_cfg(t_end=11.0)
    seen = observed_profiles(cfg)
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        result = run_experiment(cfg, out_dir=str(out))
        header, _ = read_csv(out / "profiles.csv")
        profiles = assert_profiles_follow_diagnostics(out)
        assert header[0] == "t"
        expected_theta = cached_grid(2, 64).theta
        theta = np.array([float(x) for x in header[1:]])
        assert theta.tobytes() == expected_theta.tobytes()  # repr round-trips
        _, diagnostics = read_csv(out / "diagnostics.csv")
        assert len(profiles) == len(seen) == 23  # t = 0, 0.5, ..., 11
        for row, diag, (t, rho) in zip(profiles, diagnostics, seen):
            assert row[0] == diag[0] == repr(t)  # the same t text
            assert np.array([float(x) for x in row[1:]]).tobytes() \
                == rho.tobytes()
        # too few post-layer records to fit a rate, and that is not an error
        assert result.report["decay_rates"]["grad_phi"] is None


def test_profiles_bytes(tmp_path, monkeypatch):
    # the header and t as repr, rho with 17 significant digits, the same
    # bytes from either writer
    cfg = fast_cfg(t_end=11.0)
    expected = io.StringIO()
    rows = csv.writer(expected, lineterminator="\n")
    rows.writerow(["t", *map(repr, cached_grid(2, 64).theta.tolist())])
    rows.writerows([repr(t), *("%.17g" % x for x in rho.tolist())]
                   for t, rho in observed_profiles(cfg))
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        run_experiment(cfg, out_dir=str(out))
        written = (out / "profiles.csv").read_bytes()
        assert written == expected.getvalue().encode("ascii")
        lines = written.split(b"\n")
        assert lines[0].startswith(b"t,0.01227184630308513,")
        # 17 digits where repr would write 16 (3.099247953459871), and %g
        # drops a trailing zero (3.0997290456678690)
        assert lines[1].startswith(b"0.0,3.0999698818696206,"
                                   b"3.099729045667869,3.0992479534598711,")
        assert lines[-2].startswith(b"11.0,")
        assert lines[-1] == b""


def test_run_experiment_deterministic(tmp_path):
    cfg = fast_cfg()
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for name in ("diagnostics.csv", "report.json", "profiles.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_experiment_kernel_calls(tmp_path, monkeypatch):
    # one kernel evaluation per stage plus the convexity check's, whose
    # result the t = 0 record reads; every later record shares its
    # evaluation with the step taken from it
    import qimcf.geometry
    calls = []
    kernel = qimcf.geometry.kernel

    def counting(grid, rho, work):
        calls.append(rho.size)
        return kernel(grid, rho, work)

    monkeypatch.setattr(qimcf.geometry, "kernel", counting)
    monkeypatch.setattr(flow, "kernel", counting)
    result = run_experiment(fast_cfg(), out_dir=str(tmp_path / "run"))
    assert result.exit_code == EXIT_OK
    assert len(calls) == result.report["evaluations"] + 1


def test_profiles_rows_in_record_order(tmp_path, monkeypatch):
    # 106 records at cadence 0.1: one row each, in time order
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        run_experiment(fast_cfg(t_end=10.5, snapshot_every=0.1),
                       out_dir=str(out))
        profiles = assert_profiles_follow_diagnostics(out)
        times = [float(row[0]) for row in profiles]
        assert len(times) == 106
        assert times[0] == 0.0
        assert times[-1] == 10.5
        assert all(a < b for a, b in zip(times, times[1:]))


def test_limit_analysis_gets_two_profiles(tmp_path, monkeypatch):
    passed = []

    def spy(snapshots):
        passed.append(list(snapshots))
        return extract_conformal_factor(snapshots)

    monkeypatch.setattr("qimcf.harness.extract_conformal_factor", spy)
    run_experiment(fast_cfg(), out_dir=str(tmp_path / "run"))
    assert len(passed) == 1
    assert len(passed[0]) <= 2


@pytest.mark.parametrize("t_end,every", [
    (41.0, 1.0),          # 20 and 21 tie for nearest 41 / 2; 20 is taken
    (40.25, 0.5),         # the last record is off the cadence
    (41.0 + 1e-13, 1.0),  # the last record is at 41, not at t_end
])
def test_limit_analysis_matches_every_profile(tmp_path, monkeypatch,
                                              t_end, every):
    profiles = []
    real_run_flow = harness.run_flow

    def run_flow(state0, ctrl, observers=()):
        def keep(state, record):
            profiles.append((state.t, state.profile))
        return real_run_flow(state0, ctrl, observers=[*observers, keep])

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    result = run_experiment(fast_cfg(t_end=t_end, snapshot_every=every),
                            out_dir=str(tmp_path / "run"))
    factor = extract_conformal_factor(profiles)
    verdict = constancy_verdict(factor)
    assert result.report["limit_Q"] == verdict.limit_Q
    assert result.report["f_range"] == verdict.f_range
    assert result.report["cauchy_residual"] == factor.cauchy_residual


def test_refusal_creates_no_files(tmp_path):
    # the run is the one check of the initial profile, before any mkdir
    for r0, amplitude, message in [
            (1.0, 0.9, "initial profile is not mean convex: mean convexity "
                       "lost at t=0: H=-1187.11 at node 63 (theta=1.55852)"),
            (0.05, 0.1, "initial profile is not a radial graph: rho must be "
                        "positive everywhere, min rho = -0.0499699")]:
        bad = fast_cfg(initial_r0=r0, initial_amplitude=amplitude,
                       output_dir=str(tmp_path / "bad"))
        with pytest.raises(ConfigError) as excinfo:
            run_experiment(bad)
        assert str(excinfo.value) == message
        assert not (tmp_path / "bad").exists()

    with pytest.raises(ConfigError):
        run_experiment(fast_cfg(grid_points=16), out_dir=str(tmp_path / "g"))
    assert not (tmp_path / "g").exists()


def test_too_short_run_is_rejected(tmp_path):
    out = tmp_path / "short"
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(fast_cfg(t_end=5.0), out_dir=str(out))
    assert "limit analysis" in str(excinfo.value)
    assert not out.exists()  # refused before any integration or output


class SlowStep(StiffnessError):
    """A subclass of a classified failure, which exits with its code."""


@pytest.mark.parametrize("exc,code", [
    (MeanConvexityLost(0.7, 3, 0.05, -0.2), 2),
    (StiffnessError(0.7, 1e-14), 3),
    (NonFiniteState(0.7, 3, 0.05, float("nan")), 4),
    (NonFiniteRecord(0.7, "Q", float("nan")), 4),
    (SlowStep(0.7, 1e-14), 3),
])
def test_integration_failure_exit_codes(tmp_path, monkeypatch, exc, code):
    # each failure class carries its exit code, so a subclass keeps it (an
    # exact-type lookup gave SlowStep exit code 1)
    def fake_run_flow(state0, ctrl, observers=()):
        rec = diagnostics_record(state0)
        for obs in observers:
            obs(state0, rec)
        raise exc

    monkeypatch.setattr("qimcf.harness.run_flow", fake_run_flow)
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        result = run_experiment(fast_cfg(), out_dir=str(out))
        assert result.exit_code == code
        assert result.report is None
        assert result.min_H_over_run > 0
        assert len(assert_profiles_follow_diagnostics(out)) == 1
        assert not (out / "report.json").exists()
        assert not (out / "decay.dat").exists()


def test_resolve_out_dir_priority():
    cfg = ExperimentConfig(output_dir="cfgdir")
    assert resolve_out_dir(cfg) == Path("cfgdir")
    assert resolve_out_dir(cfg, "argdir") == Path("argdir")
    # only None means "not given": an empty --out is refused, as an empty
    # output.dir is, not replaced by output.dir
    for empty in ("", " "):
        with pytest.raises(ConfigError, match=r"\(--out\) must not be empty"):
            resolve_out_dir(cfg, empty)


def test_empty_out_dir_is_refused_with_nothing_written(tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = fast_cfg(output_dir="cfgdir")
    with pytest.raises(ConfigError, match="must not be empty"):
        run_experiment(cfg, out_dir="")
    with pytest.raises(ConfigError, match="must not be empty"):
        sweep(cfg, [("initial.r0", ["2.5", "3"])], out_dir="")
    text = CONFIG_TEXT + "\n[output]\ndir = cfgdir\n"
    path = write_cfg(tmp_path, text)
    for argv in (["run"], ["sweep", "--vary", "initial.r0=2.5,3"]):
        assert main([*argv, "--config", path, "--out", ""]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_sweep_cells_match_individual_runs(tmp_path):
    base = fast_cfg()
    rows = sweep(base, [("initial.amplitude", ["0", "0.1"])],
                 out_dir=str(tmp_path / "sw"), max_workers=2)
    assert [r["verdict"] for r in rows] == ["CONSTANT", "NON_CONSTANT"]

    direct = run_experiment(
        override_config(base, [("initial.amplitude", "0.1")]),
        out_dir=str(tmp_path / "direct"))
    cell_report = json.loads(
        (tmp_path / "sw" / "amplitude=0.1" / "report.json").read_text())
    assert cell_report == direct.report
    assert rows[1]["Q_final"] == repr(direct.report["Q_final"])

    with open(tmp_path / "sw" / "sweep.csv", encoding="utf-8") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["amplitude", *SWEEP_RESULT_COLUMNS]
    assert len(srows) == 3
    assert srows[1][3] == "CONSTANT"
    assert srows[2][3] == "NON_CONSTANT"
    assert [r[0] for r in srows[1:]] == ["0", "0.1"]  # the varied values
    assert [r[-2:] for r in srows[1:]] == [["0", ""], ["0", ""]]  # no error
    assert [r["error"] for r in rows] == ["", ""]


def test_sweep_failed_cell_keeps_row(tmp_path):
    base = fast_cfg(initial_r0=1.0)
    rows = sweep(base, [("initial.amplitude", ["0.1", "0.9"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert rows[0]["verdict"] == "NON_CONSTANT"
    bad = rows[1]
    assert bad["verdict"] == "FAILED"
    assert bad["Q_final"] == ""
    assert bad["limit_Q"] == ""
    assert bad["min_H_over_run"] == ""
    assert bad["amplitude"] == "0.9"
    assert bad["exit_code"] == EXIT_CONFIG
    assert bad["error"].startswith("ConfigError: ")
    # the cell was refused before any directory was created
    assert not (tmp_path / "sw" / "amplitude=0.9").exists()


def test_sweep_cells_that_inherit_a_non_convex_start_fail_alone(tmp_path):
    # every cell keeps the base's amplitude 0.9: each fails its own row
    base = fast_cfg(initial_r0=1.0, initial_amplitude=0.9)
    rows = sweep(base, [("grid.points", ["32", "64"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert [(r["verdict"], r["exit_code"]) for r in rows] == [
        ("FAILED", EXIT_CONFIG), ("FAILED", EXIT_CONFIG)]
    assert all(r["error"].startswith("ConfigError: initial profile is not "
                                     "mean convex") for r in rows)
    assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == \
        ["sweep.csv"]
    assert len(read_csv(tmp_path / "sw" / "sweep.csv")[1]) == 2


def test_sweep_cells_that_leave_a_non_convex_base_run(tmp_path, capsys):
    # parse_config leaves the base's profile to a run, and no cell runs
    # amplitude 0.9
    cfg = write_cfg(tmp_path, "[grid]\npoints = 32\n[initial]\nkind = bump"
                              "\nr0 = 1.0\namplitude = 0.9\n[time]\n"
                              "t_end = 12\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--vary",
                 "initial.amplitude=0.1,0.2", "--out", str(out)]) == EXIT_OK
    assert "2 cells, 0 failed" in capsys.readouterr().out
    header, rows = read_csv(out / "sweep.csv")
    assert [row[header.index("exit_code")] for row in rows] == ["0", "0"]


def test_sweep_axis_order_does_not_matter(tmp_path):
    # snapshot_every = 50 with the base's t_end = 21 leaves the limit
    # analysis one record at t >= 10, but no cell has that t_end
    vary = [("output.snapshot_every", ["50"]), ("time.t_end", ["100"])]
    reports = []
    for name, axes in (("a", vary), ("b", vary[::-1])):
        rows = sweep(fast_cfg(), axes, out_dir=str(tmp_path / name),
                     max_workers=1)
        assert [r["exit_code"] for r in rows] == [EXIT_OK]
        cell = next(p for p in (tmp_path / name).iterdir() if p.is_dir())
        reports.append(json.loads((cell / "report.json").read_text()))
    assert reports[0] == reports[1]
    assert (reports[0]["t_end"], reports[0]["snapshot_every"]) == (100, 50)


def test_sweep_builds_one_config_per_cell(tmp_path, monkeypatch):
    # a 3-axis sweep of 2 x 2 x 3 cells validates the 12 configs it runs
    # and no other
    base = fast_cfg()
    built, ran = [], []
    post_init = ExperimentConfig.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def run_experiment(cfg, out_dir=None):
        ran.append(cfg)
        raise RuntimeError("not run")

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counting_post_init)
    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    rows = sweep(base, [("initial.r0", ["2.5", "3"]),
                        ("initial.amplitude", ["0", "0.1"]),
                        ("time.t_end", ["20", "21", "22"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert len(rows) == len(built) == len(ran) == 12
    assert all(cfg is cell for cfg, cell in zip(built, ran))


def test_sweep_rows_name_the_varied_key(tmp_path, monkeypatch):
    real_run_flow = harness.run_flow

    def run_flow(state0, ctrl, observers=()):
        if state0.profile.rho.mean() > 3.4:  # the r0 = 3.5 cell
            for obs in observers:
                obs(state0, diagnostics_record(state0))
            raise StiffnessError(0.7, 1e-14)
        return real_run_flow(state0, ctrl, observers)

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    rows = sweep(fast_cfg(), [("initial.r0", ["2.5", "3.5", "3.0"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    with open(tmp_path / "sw" / "sweep.csv", encoding="utf-8") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["r0", *SWEEP_RESULT_COLUMNS]
    # the failed cell's row names the reason; the others keep their reports
    error = "StiffnessError: time step underflow at t=0.7: dt=1.000e-14"
    assert [(r[0], r[3], r[-2], r[-1]) for r in srows[1:]] == [
        ("2.5", "NON_CONSTANT", "0", ""),
        ("3.5", "FAILED", "3", error),
        ("3.0", "NON_CONSTANT", "0", "")]
    assert rows[1]["exit_code"] == 3
    assert rows[1]["error"] == error
    assert rows[1]["min_H_over_run"] != ""
    assert (tmp_path / "sw" / "r0=3.5" / "diagnostics.csv").exists()
    assert not (tmp_path / "sw" / "r0=3.5" / "report.json").exists()
    for row in (rows[0], rows[2]):
        report = json.loads((tmp_path / "sw" / f"r0={row['r0']}"
                             / "report.json").read_text(encoding="utf-8"))
        assert repr(report["limit_Q"]) == row["limit_Q"]
    assert rows[0]["limit_Q"] != rows[2]["limit_Q"]


def test_sweep_survives_non_positive_initial_profile(tmp_path):
    rows = sweep(fast_cfg(), [("initial.r0", ["0.05", "3.0"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert [r["verdict"] for r in rows] == ["FAILED", "NON_CONSTANT"]
    with open(tmp_path / "sw" / "sweep.csv", encoding="utf-8") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["r0", *SWEEP_RESULT_COLUMNS]
    assert [(r[0], r[3], r[-2]) for r in srows[1:]] == [
        ("0.05", "FAILED", "1"), ("3.0", "NON_CONSTANT", "0")]
    assert rows[0]["error"].startswith("ConfigError: ")


def divide_by_zero_after_first_record(state0, ctrl, observers=()):
    """A run_flow that records t = 0, then raises an ArithmeticError."""
    for obs in observers:
        obs(state0, diagnostics_record(state0))
    return 1.0 / 0.0


def test_sweep_survives_arithmetic_error(tmp_path, monkeypatch, caplog):
    # the r0 = 2.5 cell raises ZeroDivisionError; the r0 = 3.0 cell still
    # runs, and sweep.csv gives the failed cell's reason
    real_run_flow = harness.run_flow

    def run_flow(state0, ctrl, observers=()):
        flow = (divide_by_zero_after_first_record
                if state0.profile.rho.mean() < 2.8 else real_run_flow)
        return flow(state0, ctrl, observers)

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    rows = sweep(fast_cfg(), [("initial.r0", ["2.5", "3.0"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert [(r["r0"], r["exit_code"]) for r in rows] == [("2.5", 1),
                                                         ("3.0", 0)]
    assert "ZeroDivisionError" in caplog.text
    with open(tmp_path / "sw" / "sweep.csv", encoding="utf-8") as fh:
        srows = list(csv.reader(fh))
    assert [(r[0], r[-2], r[-1]) for r in srows[1:]] == [
        ("2.5", "1", "ZeroDivisionError: float division by zero"),
        ("3.0", "0", "")]
    assert (tmp_path / "sw" / "r0=3.0" / "report.json").exists()


def test_run_survives_arithmetic_error(tmp_path, monkeypatch, caplog):
    # exit code 1, the error text, the diagnostics so far on disk, no report
    monkeypatch.setattr("qimcf.harness.run_flow",
                        divide_by_zero_after_first_record)
    out = tmp_path / "run"
    result = run_experiment(fast_cfg(), out_dir=str(out))
    assert result.exit_code == EXIT_CONFIG
    assert result.error == "ZeroDivisionError: float division by zero"
    assert "ZeroDivisionError" in caplog.text
    assert len(assert_profiles_follow_diagnostics(out)) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("r0,volume", [("0.01", "0.0"),
                                       ("0.235", "1.357264363751387e-309")])
def test_run_refuses_volume_underflow(tmp_path, caplog, r0, volume):
    # at n = 64 the volume of a small sphere underflows at t = 0, to 0.0
    # or to a subnormal: exit code 4 naming t and the volume, no report
    text = ("n = 64\n\n[grid]\npoints = 64\n\n[initial]\nkind = sphere\n"
            f"r0 = {r0}\n\n[time]\nt_end = 12\n")
    out = tmp_path / "run"
    assert main(["run", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 4
    assert (f"NonFiniteRecord: underflowed volume={volume} at t=0"
            in caplog.text)
    assert assert_profiles_follow_diagnostics(out) == []
    assert not (out / "report.json").exists()


def test_failed_rerun_leaves_no_earlier_results(tmp_path, monkeypatch):
    # a success, then a run that loses mean convexity at t = 1 in the same
    # directory: none of the first run's report or profile rows survive,
    # nor the decay table that older versions wrote, and a file the run
    # did not write does
    real_run_flow = harness.run_flow

    def fail_at_1(state, record):
        if state.t == 1.0:
            raise MeanConvexityLost(state.t, 0, 0.01, -1.0)

    def run_flow(state0, ctrl, observers):
        return real_run_flow(state0, ctrl, observers=[*observers, fail_at_1])

    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        monkeypatch.setattr("qimcf.harness.run_flow", real_run_flow)
        assert run_experiment(fast_cfg(),
                              out_dir=str(out)).exit_code == EXIT_OK
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        (out / "decay.dat").write_text(
            "# t sup_grad_phi_sq H_dev_max abs_Q\n", encoding="utf-8")
        monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
        result = run_experiment(fast_cfg(), out_dir=str(out))
        assert result.exit_code == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics.csv", "notes.txt", "profiles.csv"]
        profiles = assert_profiles_follow_diagnostics(out)
        assert [row[0] for row in profiles] == ["0.0", "0.5", "1.0"]


def test_unclassified_failure_leaves_matching_rows(tmp_path, monkeypatch):
    # a success, then a rerun into the same directory that an OSError from
    # the stepper stops after 20 steps (t = 20/6): both per-record files
    # hold the rerun's rows t = 0, 0.5, ..., 3, and none of the first run's
    real_step = flow.step
    taken = []

    def step(state, ctrl, dt_cap=None):
        if len(taken) == 20:
            raise OSError("disk gone")
        taken.append(state.t)
        return real_step(state, ctrl, dt_cap=dt_cap)

    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        monkeypatch.setattr(flow, "step", real_step)
        assert run_experiment(fast_cfg(),
                              out_dir=str(out)).exit_code == EXIT_OK
        taken.clear()
        monkeypatch.setattr(flow, "step", step)
        with pytest.raises(OSError, match="disk gone"):
            run_experiment(fast_cfg(), out_dir=str(out))
        profiles = assert_profiles_follow_diagnostics(out)
        assert [row[0] for row in profiles] == [
            repr(0.5 * k) for k in range(7)]


def test_interrupted_run_leaves_matching_rows(tmp_path, monkeypatch):
    # Ctrl-C after three records: KeyboardInterrupt leaves run_experiment
    # with the three rows of both files on disk and no writer behind
    real_run_flow = harness.run_flow

    def interrupt_at_1(state, record):
        if state.t == 1.0:
            raise KeyboardInterrupt

    def run_flow(state0, ctrl, observers):
        return real_run_flow(state0, ctrl,
                             observers=[*observers, interrupt_at_1])

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        with pytest.raises(KeyboardInterrupt):
            run_experiment(fast_cfg(), out_dir=str(out))
        profiles = assert_profiles_follow_diagnostics(out)
        assert [row[0] for row in profiles] == ["0.0", "0.5", "1.0"]


def assert_rows_up_to_0_5(out):
    """Both per-record files hold the rows t = 0 and 0.5, and no other."""
    profiles = assert_profiles_follow_diagnostics(out)
    assert [row[0] for row in profiles] == ["0.0", "0.5"]


@pytest.mark.parametrize("handed_over", [False, True])
def test_exception_in_the_profile_write_leaves_matching_rows(
        tmp_path, monkeypatch, handed_over):
    # Ctrl-C inside the t = 1 profile write, before or after its row is
    # handed over: both files keep the rows t = 0 and 0.5
    real_write = harness._ProfileWriter.write

    def write(self, t, rho):
        if t != 1.0 or handed_over:
            real_write(self, t, rho)
        if t == 1.0:
            raise KeyboardInterrupt

    monkeypatch.setattr(harness._ProfileWriter, "write", write)
    for writer in each_writer(monkeypatch):
        with pytest.raises(KeyboardInterrupt):
            run_experiment(fast_cfg(), out_dir=str(tmp_path / writer))
        assert_rows_up_to_0_5(tmp_path / writer)


def test_exception_in_the_diagnostics_write_leaves_matching_rows(
        tmp_path, monkeypatch):
    # the disk fills halfway through the t = 1 diagnostics row, after its
    # profile row was handed over: both files keep the rows t = 0 and 0.5
    writes = []

    class Diagnostics(io.TextIOWrapper):
        def write(self, text):
            writes.append(text)
            if len(writes) == 4:  # the header, t = 0, 0.5, then t = 1
                super().write(text[:len(text) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

    def fake_open(file, mode="r", **kwargs):
        if str(file).endswith("diagnostics.csv"):
            return Diagnostics(open(file, "wb"), **kwargs)
        return open(file, mode, **kwargs)

    monkeypatch.setattr(harness, "open", fake_open, raising=False)
    for writer in each_writer(monkeypatch):
        writes.clear()
        with pytest.raises(OSError) as excinfo:
            run_experiment(fast_cfg(), out_dir=str(tmp_path / writer))
        assert excinfo.value.errno == errno.ENOSPC
        assert_rows_up_to_0_5(tmp_path / writer)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_second_ctrl_c_waits_for_the_writer(tmp_path, monkeypatch):
    # a second Ctrl-C while the run waits for its writer: the run still
    # reaps the writer, with its three rows on disk, before it raises
    real_run_flow, real_waitpid, waits = harness.run_flow, os.waitpid, []

    def interrupt_at_1(state, record):
        if state.t == 1.0:
            raise KeyboardInterrupt

    def run_flow(state0, ctrl, observers):
        return real_run_flow(state0, ctrl,
                             observers=[*observers, interrupt_at_1])

    def waitpid(pid, options):
        waits.append(pid)
        if len(waits) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(harness, "_fork_writer", True)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(fast_cfg(), out_dir=str(tmp_path / "run"))
    assert len(waits) == 2
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    assert_no_child_left()
    profiles = assert_profiles_follow_diagnostics(tmp_path / "run")
    assert [row[0] for row in profiles] == ["0.0", "0.5", "1.0"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
def test_failed_fork_leaves_no_descriptor(tmp_path, monkeypatch):
    # os.fork fails once the pipe exists: the run raises that error and
    # closes both ends of the pipe
    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process left")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_fork_writer", True)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        run_experiment(fast_cfg(), out_dir=str(tmp_path / "run"))
    assert len(os.listdir("/proc/self/fd")) == before
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, where every write fails")
def test_full_disk_keeps_its_errno(tmp_path, monkeypatch, capsys):
    # profiles.csv on a full device: ENOSPC, as a run reports it when the
    # disk fills, not a broken pipe; no report and no child process left
    for writer in each_writer(monkeypatch):
        out = tmp_path / writer
        out.mkdir()
        (out / "profiles.csv").symlink_to("/dev/full")
        with pytest.raises(OSError) as excinfo:
            run_experiment(fast_cfg(), out_dir=str(out))
        assert excinfo.value.errno == errno.ENOSPC
        assert not (out / "report.json").exists()
        assert_no_child_left()
        code = main(["run", "--config", write_cfg(tmp_path),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "i/o error: [Errno 28] ")
        assert not (out / "report.json").exists()


def fork_with_file_size_limit(monkeypatch, limit=0):
    """Make every forked writer fail with EFBIG at its first write past
    byte limit of a file, by default at its first write of a row;
    returns the list its pids are appended to."""
    import resource  # Unix only, as os.fork is
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid == 0:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        else:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_writer_failure_surfaces(tmp_path, monkeypatch):
    """The writer dies on the first row, which at N = 512 overflows its
    buffer; the run's next frame meets a closed pipe, and run_experiment
    raises the writer's EFBIG from that broken pipe."""
    pids = fork_with_file_size_limit(monkeypatch)
    monkeypatch.setattr(harness, "_fork_writer", True)

    def run_flow(state0, ctrl, observers=()):
        record = diagnostics_record(state0)
        for obs in observers:
            obs(state0, record)
        deadline = time.monotonic() + 30
        while (os.waitid(os.P_PID, pids[0],
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        for obs in observers:
            obs(state0, record)
        raise AssertionError("the second record reached a dead writer")

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    out = tmp_path / "run"
    with pytest.raises(OSError) as excinfo:
        run_experiment(fast_cfg(grid_points=512), out_dir=str(out))
    assert excinfo.value.errno == errno.EFBIG
    assert isinstance(excinfo.value.__context__, BrokenPipeError)
    assert excinfo.value.filename == str(out / "profiles.csv")
    assert not (out / "report.json").exists()
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_writer_leaves_matching_rows(tmp_path, monkeypatch):
    # the writer may not write past half of the t = 1 row, so it dies with
    # EFBIG while the run goes on recording: both files keep the rows
    # t = 0 and 0.5, whole, as the in-process writer wrote them
    monkeypatch.setattr(harness, "_fork_writer", False)
    run_experiment(fast_cfg(), out_dir=str(tmp_path / "in_process"))
    whole = (tmp_path / "in_process" / "profiles.csv").read_bytes()
    lines = whole.splitlines(keepends=True)
    fork_with_file_size_limit(
        monkeypatch, len(b"".join(lines[:3])) + len(lines[3]) // 2)
    monkeypatch.setattr(harness, "_fork_writer", True)
    out = tmp_path / "forked"
    with pytest.raises(OSError) as excinfo:
        run_experiment(fast_cfg(), out_dir=str(out))
    assert excinfo.value.errno == errno.EFBIG
    assert_no_child_left()
    assert_rows_up_to_0_5(out)
    assert (out / "profiles.csv").read_bytes() == b"".join(lines[:3])


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "waitid"),
                    reason="needs os.fork and os.waitid")
def test_writer_failure_surfaces_from_the_next_record(tmp_path, monkeypatch):
    assert_writer_failure_surfaces(tmp_path, monkeypatch)


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "waitid"),
                    reason="needs os.fork and os.waitid")
def test_writer_failure_surfaces_through_text_frames(tmp_path, monkeypatch):
    # the same failure while the run formats every row itself, so the
    # writer dies copying the run's text rather than formatting
    monkeypatch.setattr(harness._ProfileWriter, "_behind",
                        lambda self: True)
    assert_writer_failure_surfaces(tmp_path, monkeypatch)


def spy_frame_lengths(monkeypatch, size):
    """Record the length that starts each frame the run sends its writer:
    0 for raw values, which the writer formats, else the bytes of a row
    that the run formatted itself."""
    real_write, lengths, left = os.write, [], [0]

    def write(fd, data):
        if not left[0]:
            lengths.append(int.from_bytes(bytes(data[:8]), "little"))
            left[0] = 8 + (lengths[-1] or 8 * (size + 1))
        written = real_write(fd, data)
        left[0] -= written
        return written

    monkeypatch.setattr(os, "write", write)
    return lengths


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("probe", ["every_row", "every_other_row",
                                   "cannot_tell"])
def test_run_formats_rows_while_the_writer_is_behind(tmp_path, monkeypatch,
                                                     probe):
    # the run formats each row that the backlog probe finds the writer
    # behind on, and none where the probe cannot tell; profiles.csv has
    # the in-process writer's bytes whoever formats which row
    cfg = fast_cfg(t_end=11.0)
    monkeypatch.setattr(harness, "_fork_writer", False)
    run_experiment(cfg, out_dir=str(tmp_path / "in_process"))
    probes = []

    def behind(self):
        probes.append(probe)
        if probe == "cannot_tell":
            raise AttributeError("no FIONREAD here")
        return probe == "every_row" or len(probes) % 2 == 1

    monkeypatch.setattr(harness._ProfileWriter, "_behind", behind)
    monkeypatch.setattr(harness, "_fork_writer", True)
    lengths = spy_frame_lengths(monkeypatch, 64)
    run_experiment(cfg, out_dir=str(tmp_path / "forked"))
    assert_no_child_left()
    formatted = {"every_row": [True] * 23, "cannot_tell": [False] * 23,
                 "every_other_row": [k % 2 == 0 for k in range(23)]}
    assert [length > 0 for length in lengths] == formatted[probe]
    for name in ("diagnostics.csv", "profiles.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == \
            (tmp_path / "in_process" / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_ctrl_c_inside_a_text_frame_leaves_whole_rows(tmp_path, monkeypatch):
    # Ctrl-C once the t = 1 row's length and half its text have gone
    # down the pipe: the writer drops that frame, so profiles.csv holds
    # the t = 0 and t = 0.5 rows, whole, and no child is left
    cfg = fast_cfg()
    monkeypatch.setattr(harness, "_fork_writer", False)
    run_experiment(cfg, out_dir=str(tmp_path / "in_process"))
    real_write, calls = os.write, []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) == 3:
            return real_write(fd, data[:len(data) // 2])
        if len(calls) == 4:
            raise KeyboardInterrupt
        return real_write(fd, data)

    monkeypatch.setattr(harness._ProfileWriter, "_behind",
                        lambda self: True)
    monkeypatch.setattr(harness, "_fork_writer", True)
    monkeypatch.setattr(os, "write", write)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, out_dir=str(tmp_path / "forked"))
    monkeypatch.setattr(os, "write", real_write)
    assert_no_child_left()
    whole = (tmp_path / "in_process" / "profiles.csv").read_bytes()
    assert (tmp_path / "forked" / "profiles.csv").read_bytes() == \
        b"".join(whole.splitlines(keepends=True)[:3])


def test_backlog_probe_reads_half_a_pipe(tmp_path):
    # behind from half the pipe's size of unread bytes, not before
    fcntl = pytest.importorskip("fcntl")
    termios = pytest.importorskip("termios")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("needs F_GETPIPE_SZ")
    read_end, write_end = os.pipe()
    try:
        with open(tmp_path / "profiles.csv", "w", encoding="utf-8") as fh:
            writer = harness._ProfileWriter(fh, 4)
            writer._pipe, writer._modules = write_end, (fcntl, termios)
            half = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) // 2
            assert not writer._behind()
            os.write(write_end, bytes(half - 1))
            assert not writer._behind()
            os.write(write_end, bytes(1))
            assert writer._behind()
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_writer_failure_outranks_the_flow_failure(tmp_path, monkeypatch):
    # a flow failure after the writer failed: the run raises the writer's
    # EFBIG, since profiles.csv lacks rows, and not the flow's exit code
    fork_with_file_size_limit(monkeypatch)
    monkeypatch.setattr(harness, "_fork_writer", True)

    def run_flow(state0, ctrl, observers=()):
        record = diagnostics_record(state0)
        for obs in observers:
            obs(state0, record)
        raise MeanConvexityLost(0.0, 0, 0.01, -1.0)

    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    out = tmp_path / "run"
    with pytest.raises(OSError) as excinfo:
        run_experiment(fast_cfg(grid_points=512), out_dir=str(out))
    assert excinfo.value.errno == errno.EFBIG
    assert isinstance(excinfo.value.__context__, MeanConvexityLost)
    assert not (out / "report.json").exists()
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_writer_outlasts_ctrl_c(tmp_path, monkeypatch):
    # Ctrl-C reaches the whole process group; the writer ignores it, so
    # the run that handles it (or, here, goes on) loses no row
    real_fork, real_run_flow, pids = os.fork, harness.run_flow, []

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    def interrupt_writer(state, record):
        if state.t == 0.5:
            # at N = 512 a row overflows the writer's buffer, so the t = 0
            # row on disk shows the writer has set up its signals
            path, deadline = tmp_path / "run" / "profiles.csv", \
                time.monotonic() + 30
            while (path.read_bytes().count(b"\n") < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            os.kill(pids[0], signal.SIGINT)

    def run_flow(state0, ctrl, observers):
        return real_run_flow(state0, ctrl,
                             observers=[*observers, interrupt_writer])

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_fork_writer", True)
    monkeypatch.setattr("qimcf.harness.run_flow", run_flow)
    result = run_experiment(fast_cfg(grid_points=512),
                            out_dir=str(tmp_path / "run"))
    assert result.exit_code == EXIT_OK
    assert len(assert_profiles_follow_diagnostics(tmp_path / "run")) == 43
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings(
    "ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_concurrent_runs_do_not_hold_each_others_pipes(tmp_path,
                                                       monkeypatch):
    # two runs in two threads, each forking its writer only once both
    # pipes exist: a writer that kept the other run's pipe open would
    # keep that writer from its end of file, and each run would wait on
    # the other's writer forever
    cfgs = [fast_cfg(), fast_cfg(initial_amplitude=0.05)]
    for i, cfg in enumerate(cfgs):
        run_experiment(cfg, out_dir=str(tmp_path / f"serial{i}"))
    barrier, real_fork = threading.Barrier(2, timeout=60), os.fork

    def fork():
        barrier.wait()
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_fork_writer", True)
    results = {}

    def run(i):
        results[i] = run_experiment(cfgs[i], out_dir=str(tmp_path /
                                                         f"thread{i}"))

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(2)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 60
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i].exit_code for i in range(2)] == [EXIT_OK] * 2
    for i in range(2):
        for name in ("diagnostics.csv", "profiles.csv", "report.json"):
            assert (tmp_path / f"thread{i}" / name).read_bytes() == \
                (tmp_path / f"serial{i}" / name).read_bytes()
    assert_no_child_left()


def test_largest_n_run_reports_a_finite_limit_q(tmp_path):
    # at n = 109 (m = 219) e^{2mf} overflowed in limit_Q, and the run died
    # writing a NaN into report.json, with exit code 1 and no report
    text = ("n = 109\n\n[grid]\npoints = 64\n\n[initial]\nkind = bump\n"
            "r0 = 1.0\namplitude = 0.9\n\n[time]\nt_end = 12\n")
    out = tmp_path / "run"
    assert main(["run", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == EXIT_OK
    with open(out / "report.json", encoding="utf-8") as fh:
        limit_q = json.load(fh)["limit_Q"]
    assert math.isfinite(limit_q) and abs(limit_q) > VERDICT_TOL


@pytest.mark.parametrize("index,name,value", [(1, "Q", math.nan),
                                              (2, "q_rhs", math.inf)])
def test_run_refuses_non_finite_Q_or_q_rhs(tmp_path, monkeypatch, index,
                                           name, value):
    # no admitted config makes Q or q_rhs overflow while the volume stays
    # finite, so q_terms is patched to return one of them non-finite
    real_q_terms = flow.q_terms

    def q_terms(profile, derivs):
        terms = list(real_q_terms(profile, derivs))
        terms[index] = value
        return tuple(terms)

    monkeypatch.setattr("qimcf.flow.q_terms", q_terms)
    message = f"non-finite {name}={value!r} at t=0"
    state = FlowState(t=0.0, profile=check_mean_convexity(fast_cfg()))
    with pytest.raises(NonFiniteRecord, match=message):
        diagnostics_record(state)
    out = tmp_path / "run"
    result = run_experiment(fast_cfg(), out_dir=str(out))
    assert result.exit_code == 4
    assert result.error == f"NonFiniteRecord: {message}"
    assert assert_profiles_follow_diagnostics(out) == []
    assert not (out / "report.json").exists()


def test_run_refuses_non_finite_record(tmp_path, caplog):
    # Vol(S^{4n-1}) sinh^{4n-1}(rho) overflows at t = 0 for n = 80 and
    # r0 = 3: the run stops with exit code 4 instead of recording NaN, and
    # numpy warns of nothing on the way
    text = ("n = 80\n\n[grid]\npoints = 64\n\n[initial]\nkind = sphere\n"
            "r0 = 3\n\n[time]\nt_end = 12\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 4
    assert "NonFiniteRecord: non-finite volume=nan at t=0" in caplog.text
    assert assert_profiles_follow_diagnostics(out) == []
    assert not (out / "report.json").exists()


def test_report_refuses_nan(tmp_path, monkeypatch):
    def nan_verdict(factor):
        return dataclasses.replace(constancy_verdict(factor),
                                   limit_Q=float("nan"))

    monkeypatch.setattr("qimcf.harness.constancy_verdict", nan_verdict)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="not JSON compliant"):
        run_experiment(fast_cfg(), out_dir=str(out))
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("exc", [
    OSError("disk full"), ValueError("bad array"),
    NonFiniteState(0.7, 3, 0.05, float("nan"))])
def test_sweep_cell_failure_keeps_other_cells(tmp_path, monkeypatch, exc):
    # raised from the flow of the amplitude-0 cell: run_experiment returns
    # a flow failure with its exit code, and the sweep cell catches the
    # rest with exit code 1
    real = run_flow

    def flaky(state0, ctrl, observers=()):
        if np.ptp(state0.profile.rho) == 0.0:
            raise exc
        return real(state0, ctrl, observers)

    monkeypatch.setattr("qimcf.harness.run_flow", flaky)
    rows = sweep(fast_cfg(), [("initial.amplitude", ["0", "0.1"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert [r["verdict"] for r in rows] == ["FAILED", "NON_CONSTANT"]
    assert [r["error"] for r in rows] == [f"{type(exc).__name__}: {exc}", ""]
    assert [r["exit_code"] for r in rows] == [
        getattr(exc, "exit_code", EXIT_CONFIG), EXIT_OK]
    assert (tmp_path / "sw" / "sweep.csv").exists()


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=FORK_ONLY)])
def test_sweep_unexpected_exception_costs_only_its_cell(tmp_path, monkeypatch,
                                                         workers):
    # an exception that no layer classifies fails its own cells with exit
    # code 1 and loses no other cell; it used to propagate out of sweep,
    # which then wrote no sweep.csv
    real = run_experiment

    def flaky(cfg, out_dir=None):
        if cfg.initial_tau == 3.5:
            raise RuntimeError("boom in a worker")
        return real(cfg, out_dir=out_dir)

    monkeypatch.setattr("qimcf.harness.run_experiment", flaky)
    vary = [("initial.tau", ["3.5", "4.0"]),
            ("initial.amplitude", ["0.05", "0.1"])]
    out = tmp_path / "sw"
    rows = sweep(fast_cfg(initial_kind="tau_family", t_end=10.5), vary,
                 out_dir=str(out), max_workers=workers)
    assert [r["exit_code"] for r in rows] == [EXIT_CONFIG] * 2 + [EXIT_OK] * 2
    assert [r["verdict"] for r in rows[:2]] == ["FAILED"] * 2
    assert [r["error"] for r in rows] == \
        ["RuntimeError: boom in a worker"] * 2 + ["", ""]
    assert sorted(p.parent.name for p in out.glob("*/report.json")) == [
        "tau=4.0_amplitude=0.05", "tau=4.0_amplitude=0.1"]
    header, csv_rows = read_csv(out / "sweep.csv")
    assert [row[header.index("exit_code")] for row in csv_rows] == \
        ["1", "1", "0", "0"]


def dead_cell_error(name, how):
    return (f"ChildProcessError: the process of cell {name} ended with "
            f"{how} before it sent its row")


@FORK_ONLY
def test_sweep_dead_worker_keeps_other_cells_rows(tmp_path, monkeypatch,
                                                  capsys):
    # the last cell's process dies at once: that cell alone fails, named
    # in its error, every other row is a serial sweep's, sweep.csv is
    # written and qimcf sweep exits 1
    real, parent = run_experiment, os.getpid()

    def dying(cfg, out_dir=None):
        if (cfg.initial_tau, cfg.initial_amplitude) == (4.0, 0.1) \
                and os.getpid() != parent:
            os._exit(1)
        return real(cfg, out_dir=out_dir)

    cfg = fast_cfg(initial_kind="tau_family", t_end=10.5)
    vary = [("initial.tau", ["3.5", "4.0"]),
            ("initial.amplitude", ["0.05", "0.1"])]
    serial = sweep(cfg, vary, out_dir=str(tmp_path / "serial"),
                   max_workers=1)
    monkeypatch.setattr("qimcf.harness.run_experiment", dying)
    rows = sweep(cfg, vary, out_dir=str(tmp_path / "sw"), max_workers=2)
    assert_no_child_left()
    assert rows[:3] == serial[:3]
    assert [rows[3][key] for key in ("verdict", "exit_code", "error")] == [
        "FAILED", EXIT_CONFIG,
        dead_cell_error("tau=4.0_amplitude=0.1", "exit status 1")]
    header, csv_rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert [row[header.index("exit_code")] for row in csv_rows] == \
        ["0", "0", "0", "1"]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    text = CONFIG_TEXT.replace("kind = bump", "kind = tau_family") \
        .replace("t_end = 21.0", "t_end = 10.5")
    code = main(["sweep", "--config", write_cfg(tmp_path, text),
                 "--vary", "initial.tau=3.5,4.0",
                 "--vary", "initial.amplitude=0.05,0.1",
                 "--out", str(tmp_path / "cli")])
    assert code == EXIT_CONFIG
    assert "sweep complete: 4 cells, 1 failed" in capsys.readouterr().out
    assert (tmp_path / "cli" / "sweep.csv").exists()


@FORK_ONLY
def test_sweep_dead_worker_costs_only_its_own_cell(tmp_path, monkeypatch):
    # the first cell's process dies at once, by exit status 1 or by
    # SIGKILL, while the next cell runs and the rest wait: only the dying
    # cell fails, named with its exit status or signal in its error, it
    # is not rerun, and every other row is a serial sweep's
    real, parent = run_experiment, os.getpid()
    cfg = fast_cfg(initial_kind="tau_family", t_end=10.5)
    vary = [("initial.tau", ["3.5", "4.0", "4.5"]),
            ("initial.amplitude", ["0.05", "0.1"])]
    serial = sweep(cfg, vary, out_dir=str(tmp_path / "serial"),
                   max_workers=1)
    for how, die in (("exit status 1", lambda: os._exit(1)),
                     (f"signal {int(signal.SIGKILL)}",
                      lambda: os.kill(os.getpid(), signal.SIGKILL))):
        runs = tmp_path / f"pids_{how}"
        runs.mkdir()

        def dying(cfg, out_dir=None):
            (runs / str(os.getpid())).touch()
            if (cfg.initial_tau, cfg.initial_amplitude) == (3.5, 0.05) \
                    and os.getpid() != parent:
                die()
            return real(cfg, out_dir=out_dir)

        monkeypatch.setattr("qimcf.harness.run_experiment", dying)
        out = tmp_path / f"sw_{how}"
        rows = sweep(cfg, vary, out_dir=str(out), max_workers=2)
        assert_no_child_left()
        assert [r["exit_code"] for r in rows] == [EXIT_CONFIG] + [EXIT_OK] * 5
        assert rows[0]["verdict"] == "FAILED"
        assert rows[0]["error"] == dead_cell_error("tau=3.5_amplitude=0.05",
                                                   how)
        assert rows[1:] == serial[1:]
        assert len(list(out.glob("*/report.json"))) == 5
        # one process per cell, none of them this one
        assert len({p.name for p in runs.iterdir()} - {str(parent)}) == 6


@FORK_ONLY
def test_sweep_ctrl_c_waits_for_the_running_cells(tmp_path, monkeypatch):
    # a Ctrl-C sent to the sweep's process alone while its two cell
    # processes run: no further cell starts, and KeyboardInterrupt is
    # raised only once both cells have ended and been reaped
    real, parent = run_experiment, os.getpid()
    marks = tmp_path / "marks"
    marks.mkdir()

    def cell(cfg, out_dir=None):
        name = Path(out_dir).name
        (marks / f"{name}.started").touch()
        deadline = time.monotonic() + 60
        while (len(list(marks.glob("*.started"))) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if name == "tau=3.5_amplitude=0.05":
            os.kill(parent, signal.SIGINT)
        time.sleep(0.5)
        result = real(cfg, out_dir=out_dir)
        (marks / f"{name}.ended").touch()
        return result

    monkeypatch.setattr("qimcf.harness.run_experiment", cell)
    vary = [("initial.tau", ["3.5", "4.0"]),
            ("initial.amplitude", ["0.05", "0.1"])]
    with pytest.raises(KeyboardInterrupt):
        sweep(fast_cfg(initial_kind="tau_family", t_end=10.5), vary,
              out_dir=str(tmp_path / "sw"), max_workers=2)
    assert_no_child_left()
    first = ["tau=3.5_amplitude=0.05", "tau=3.5_amplitude=0.1"]
    assert sorted(p.name for p in marks.iterdir()) == sorted(
        [f"{name}.ended" for name in first]
        + [f"{name}.started" for name in first])
    assert not (tmp_path / "sw" / "sweep.csv").exists()


@FORK_ONLY
def test_sweep_cell_with_a_long_error_keeps_its_whole_row(tmp_path,
                                                          monkeypatch):
    # a row far longer than a pipe holds: the sweep reads the cell's pipe
    # while the cell writes it, so the whole row comes back
    real, message = run_experiment, "x" * 200_000

    def failing(cfg, out_dir=None):
        if cfg.initial_amplitude == 0.05:
            raise RuntimeError(message)
        return real(cfg, out_dir=out_dir)

    def hung(signum, frame):
        raise TimeoutError("the sweep hung")

    monkeypatch.setattr("qimcf.harness.run_experiment", failing)
    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        rows = sweep(fast_cfg(), [("initial.amplitude", ["0.05", "0.1"])],
                     out_dir=str(tmp_path / "sw"), max_workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert_no_child_left()
    assert [r["exit_code"] for r in rows] == [EXIT_CONFIG, EXIT_OK]
    assert rows[0]["error"] == "RuntimeError: " + message
    assert (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1] == \
        f"0.05,,,FAILED,,1,RuntimeError: {message}"


def test_sweep_product_order_and_naming(tmp_path):
    # the shortest t_end on the 0.5 record cadence that leaves the limit
    # analysis two records at t >= 10
    base = fast_cfg(initial_kind="tau_family", t_end=10.5)
    rows = sweep(base, [("initial.tau", ["4.0", "4.5"]),
                        ("initial.amplitude", ["0.0", "0.1"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert len(rows) == 4
    assert [(r["tau"], r["amplitude"]) for r in rows] == [
        ("4.0", "0.0"), ("4.0", "0.1"), ("4.5", "0.0"), ("4.5", "0.1")]
    for name in ("tau=4.0_amplitude=0.0", "tau=4.0_amplitude=0.1",
                 "tau=4.5_amplitude=0.0", "tau=4.5_amplitude=0.1"):
        assert (tmp_path / "sw" / name / "diagnostics.csv").exists()


def test_sweep_requires_axes(tmp_path):
    with pytest.raises(ConfigError):
        sweep(fast_cfg(), [], out_dir=str(tmp_path / "x"))
    # a key varied twice would give cells with the same short name
    with pytest.raises(ConfigError, match="each once"):
        sweep(fast_cfg(), [("initial.r0", ["2.5"]), ("initial.r0", ["3"])],
              out_dir=str(tmp_path / "y"))
    assert not (tmp_path / "y").exists()


def test_sweep_refuses_an_axis_without_values(tmp_path):
    # an empty axis makes no cell: refused before anything is created
    with pytest.raises(ConfigError, match="each with a value"):
        sweep(fast_cfg(), [("initial.r0", ["3"]), ("initial.tau", [])],
              out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


def test_sweep_refuses_cells_that_share_a_directory(tmp_path):
    # cells that share a directory run the same flow
    with pytest.raises(ConfigError,
                       match="sweep cells r0=3 and r0=3 run the same flow"):
        sweep(fast_cfg(), [("initial.r0", ["3", "3"])],
              out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()
    assert main(["sweep", "--config", write_cfg(tmp_path), "--vary",
                 "initial.r0=2.5,3,2.5", "--out",
                 str(tmp_path / "cli")]) == EXIT_CONFIG
    assert not (tmp_path / "cli").exists()


def test_sweep_refuses_cells_that_run_the_same_flow(tmp_path, capsys):
    # tau_family reads tau, not r0, so r0 = 3 and 4 are one flow under two
    # labels: refused before any directory is made
    text = CONFIG_TEXT.replace("kind = bump", "kind = tau_family")
    out = tmp_path / "cli"
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--vary",
                 "initial.r0=3,4", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: sweep cells r0=3 and r0=4 run the same flow")
    assert not out.exists()
    # a sphere reads no amplitude, and a bump no tau
    for kind, axis in (("sphere", ("initial.amplitude", ["0", "0.1"])),
                       ("bump", ("initial.tau", ["3", "3.0"]))):
        with pytest.raises(ConfigError, match="run the same flow"):
            sweep(fast_cfg(initial_kind=kind), [axis],
                  out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


def test_sweep_runs_kinds_that_give_different_flows(tmp_path):
    # with amplitude 0.1 a sphere and a bump of the same r0 differ
    rows = sweep(fast_cfg(), [("initial.kind", ["sphere", "bump"])],
                 out_dir=str(tmp_path / "sw"), max_workers=1)
    assert [(r["kind"], r["exit_code"]) for r in rows] == [
        ("sphere", EXIT_OK), ("bump", EXIT_OK)]
    assert rows[0]["limit_Q"] != rows[1]["limit_Q"]


def test_verify_ambient_report():
    report, checks, ok = verify_ambient_report(2, 200, seed=1)
    assert ok
    assert {name for name, _, _, _ in checks} == set(AMBIENT_TOLERANCES)
    for _, value, tol, passed in checks:
        assert passed
        assert value < tol
    assert -4.0 - 1e-10 <= report["sectional_min"]
    assert report["sectional_max"] <= -1.0 + 1e-10


@pytest.mark.parametrize("name,broken,check", [
    ("curvature_tensor", lambda real: lambda *a: 1.001 * real(*a),
     "ricci_max_error"),
    ("sectional", lambda real: lambda X, Y: real(X, Y) + 0.5,
     "sectional_range_violation"),
])
def test_verify_ambient_report_can_fail(monkeypatch, name, broken, check):
    monkeypatch.setattr(ambient, name, broken(getattr(ambient, name)))
    report, checks, ok = verify_ambient_report(2, 200, seed=1)
    assert not ok
    assert report[check] > AMBIENT_TOLERANCES[check]
    assert (check, report[check], AMBIENT_TOLERANCES[check], False) in checks


def test_cli_run(tmp_path, capsys):
    code = main(["run", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "run complete" in out
    assert "verdict = NON_CONSTANT" in out
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_run_leaves_the_process_pool_unloaded(tmp_path):
    # neither a run nor a sweep in two cell processes (two CPUs, two
    # cells) imports concurrent.futures or multiprocessing
    script = ("import os, sys\n"
              "os.cpu_count = lambda: 2\n"
              "from qimcf.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, sorted(m for m in ('concurrent.futures', "
              "'multiprocessing') if m in sys.modules))\n")
    src = str(Path(qimcf.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))
    config = ["--config", str(ROOT / "examples.cfg")]
    for argv in (["run", *config, "--out", str(tmp_path / "o")],
                 ["sweep", *config, "--vary", "initial.amplitude=0.05,0.1",
                  "--out", str(tmp_path / "sw")]):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
    assert len(read_csv(tmp_path / "sw" / "sweep.csv")[1]) == 2


def test_cli_run_large_n(tmp_path, capsys):
    # (2n-1)! overflows a float from n = 86 on; the run still completes
    cfg = write_cfg(tmp_path, "n = 86\n[grid]\npoints = 64\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads((tmp_path / "o" / "report.json").read_text())["n"] == 86


def test_cli_run_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_cli_run_rejected_config(tmp_path, capsys):
    code = main(["run", "--config", write_cfg(tmp_path, "bogus = 1\n")])
    assert code == 1
    assert "config error: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[time]\nt_end = inf\n",
                                  "[time]\nt_end = 1e308\n",
                                  "[initial]\nr0 = inf\n",
                                  "[initial]\nkind = tau_family\ntau = inf\n"])
def test_cli_run_refuses_non_finite_config(tmp_path, capsys, text):
    out = tmp_path / "o"
    code = main(["run", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_refuses_invalid_config(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "[grid]\npoints = 8\n")
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: grid.points must be >= 32, got 8\n"
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "--config", write_cfg(tmp_path),
                 "--vary", "initial.amplitude=0,0.1",
                 "--out", str(tmp_path / "sw")])
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep complete: 2 cells, 0 failed" in out
    assert (tmp_path / "sw" / "sweep.csv").exists()


def test_cli_sweep_refuses_invalid_cell(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--config", write_cfg(tmp_path),
                 "--vary", "grid.points=8,64", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error: grid.points must be >= 32, got 8" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_bad_vary(tmp_path, capsys):
    code = main(["sweep", "--config", write_cfg(tmp_path),
                 "--vary", "notakv"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [], ["run"], ["sweep", "--config", "x.cfg"], ["frobnicate"],
    ["verify-ambient", "--n", "x"]])
def test_cli_usage_error_exits_1(capsys, argv):
    # exit code 2 is MeanConvexityLost's, not argparse's
    assert main(argv) == EXIT_CONFIG
    assert "usage: qimcf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: qimcf")


def test_cli_has_only_run_and_sweep(capsys):
    # the ambient checks run in the test suite, through verify_ambient
    assert main(["verify-ambient"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: qimcf [-h] {run,sweep} ...\n")
    assert "invalid choice: 'verify-ambient'" in err


@pytest.mark.parametrize("argv", [
    ["run"], ["sweep", "--vary", "initial.amplitude=0,0.1"]])
def test_cli_refuses_a_config_that_is_not_utf8(tmp_path, capsys, argv):
    # "# café" saved as Latin-1 is a config error, not a traceback
    path = tmp_path / "latin1.cfg"
    path.write_bytes("n = 2\n# caf\xe9\n".encode("latin-1"))
    out = tmp_path / "o"
    code = main([*argv, "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: line 2: {path} is not UTF-8: 'utf-8' codec can't "
        f"decode byte 0xe9")
    assert not out.exists()


def test_cli_reads_a_config_with_a_byte_order_mark(tmp_path):
    # a UTF-8 config saved with a BOM gives what the same text without it
    # gives, in a run and in a sweep
    for name, data in (("plain", CONFIG_TEXT.encode("utf-8")),
                       ("bom", CONFIG_TEXT.encode("utf-8-sig"))):
        path = tmp_path / f"{name}.cfg"
        path.write_bytes(data)
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / name / "run")]) == EXIT_OK
        assert main(["sweep", "--config", str(path), "--vary",
                     "initial.amplitude=0,0.1", "--out",
                     str(tmp_path / name / "sweep")]) == EXIT_OK
    for rel in ("run/report.json", "sweep/sweep.csv"):
        assert (tmp_path / "bom" / rel).read_bytes() == \
            (tmp_path / "plain" / rel).read_bytes()
