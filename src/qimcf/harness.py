"""Experiment orchestration: runs, parameter sweeps, file emission.

Output contract per run directory:

  diagnostics.csv  one row per record time, schema DiagnosticsRecord
  profiles.csv     header t,theta_0,...,theta_{N-1}; row k holds t and
                   rho at the N nodes for record k, the record of row k
                   of diagnostics.csv; t and theta as repr, rho with 17
                   significant digits
  report.json      limit-analysis summary and how the run was made
                   (success only, never partial)
  decay.dat        gnuplot-ready decay table (# comment header)

Both per-record files get their row as each record is made, so any
exception leaves them with matching rows.

Exit codes: 0 success, 1 configuration, verification or arithmetic
failure, else the flow failure's exit_code: 2 mean convexity lost, 3
step-size collapse, 4 non-finite state or record.  Sweeps run one cell
per worker process and classify failures per cell without aborting the
sweep; the process pool is imported on the first parallel sweep, so a
single run never loads concurrent.futures or multiprocessing.
"""

import csv
import itertools
import json
import logging
import operator
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import __version__, ambient
from .config import (ConfigError, ExperimentConfig, check_mean_convexity,
                     override_config)
from .flow import (METHODS, DiagnosticsRecord, FlowError, FlowState,
                   last_record, run_flow)
from .limits import (T_USABLE, LimitSnapshots, constancy_verdict,
                     extract_conformal_factor, fit_decay_rate)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1

SWEEP_RESULT_COLUMNS = ("Q_final", "limit_Q", "verdict", "min_H_over_run",
                        "exit_code", "error")


@dataclass(frozen=True)
class ExperimentResult:
    """What a single run produced, for callers that aggregate."""

    exit_code: int
    out_dir: str
    report: Optional[dict]
    min_H_over_run: Optional[float]
    error: str  # "ExceptionClass: message" of a failed run, else ""


def resolve_out_dir(cfg: ExperimentConfig,
                    out_dir: Optional[str] = None) -> Path:
    """The output directory: out_dir (--out) when given, else output.dir."""
    return Path(out_dir or cfg.output_dir)


def _write_decay_table(out: Path, records: Sequence[DiagnosticsRecord],
                       h_dev: Sequence[float]):
    """Decay table for plotting: t, sup(phi')^2, max|H - (4n+2)|, |Q|."""
    with open(out / "decay.dat", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t sup_grad_phi_sq H_dev_max abs_Q\n")
        for rec, dev in zip(records, h_dev):
            fh.write(f"{rec.t!r} {rec.sup_grad_phi_sq!r} {dev!r} "
                     f"{abs(rec.Q)!r}\n")


def _fit_or_none(series, t_min: float) -> Optional[float]:
    """Decay rate, or None when the series is unfittable (zeros, too short)."""
    try:
        return fit_decay_rate(series, t_min)
    except ValueError:
        return None


def run_experiment(cfg: ExperimentConfig,
                   out_dir: Optional[str] = None) -> ExperimentResult:
    """Run one configured flow and write the output files.

    Raises ConfigError when the initial profile is not mean convex
    (nothing is written); integration and arithmetic failures are
    reported through the exit code with the diagnostics and profiles
    recorded so far on disk, and no report.json.  A rerun first deletes
    the earlier run's report and decay table, and rewrites both
    per-record files from their headers.
    """
    profile0 = check_mean_convexity(cfg)
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a failed rerun must not leave an earlier run's results beside its own
    for stale in ("report.json", "decay.dat"):
        (out / stale).unlink(missing_ok=True)

    state0 = FlowState(t=0.0, profile=profile0)
    ctrl = cfg.step_control()

    records = []
    limit_snapshots = LimitSnapshots(
        last_record(ctrl.record_every, ctrl.t_end)[1])
    names = [f.name for f in fields(DiagnosticsRecord)]
    values = operator.attrgetter(*names)

    try:
        with open(out / "diagnostics.csv", "w", encoding="utf-8",
                  newline="") as diagnostics, \
                open(out / "profiles.csv", "w", encoding="utf-8",
                     newline="") as profiles:
            diagnostics.write(",".join(names) + "\n")
            theta = ",".join(map(repr, profile0.theta.tolist()))
            profiles.write(f"t,{theta}\n")
            # every diagnostic and t as repr, so both files give t one
            # text; rho as %.17g, which round-trips every float64 without
            # repr's shortest-digit search
            diagnostics_row = ",".join(["%r"] * len(names)) + "\n"
            profiles_row = "%r" + ",%.17g" * profile0.rho.size + "\n"

            def observer(state, record):
                diagnostics.write(diagnostics_row % values(record))
                profiles.write(profiles_row
                               % (state.t, *state.profile.rho.tolist()))
                records.append(record)
                limit_snapshots.add(state.t, state.profile)

            final, _ = run_flow(state0, ctrl, observers=[observer])
    except (FlowError, ArithmeticError) as err:
        result = _failure(err, out, _min_H(records))
        logger.error("run failed, %s", result.error)
        return result

    horo = 4 * cfg.n + 2
    h_dev = [max(abs(r.H_min - horo), abs(r.H_max - horo)) for r in records]
    _write_decay_table(out, records, h_dev)

    factor = extract_conformal_factor(limit_snapshots.kept)
    verdict = constancy_verdict(factor)

    grad_series = [(r.t, r.sup_grad_phi_sq) for r in records]
    h_series = [(r.t, dev) for r, dev in zip(records, h_dev)]
    report = {
        "n": cfg.n,
        "grid_size": cfg.grid_points,
        "t_end": cfg.t_end,
        "f_range": verdict.f_range,
        "limit_Q": verdict.limit_Q,
        "Q_final": records[-1].Q,
        "verdict": verdict.verdict,
        "decay_rates": {
            # the decay fits skip the initial layer, as the limit does
            "grad_phi": _fit_or_none(grad_series, T_USABLE),
            "H": _fit_or_none(h_series, T_USABLE),
        },
        "cauchy_residual": factor.cauchy_residual,
        "steps": final.step_count,
        "evaluations": final.evaluations,
        "steps_by_method": {method.name: count for method, count
                            in zip(METHODS, final.steps_by_method) if count},
        "dt_max": ctrl.dt_max,
        "cfl_safety": ctrl.cfl_safety,
        "snapshot_every": cfg.snapshot_every,
        "initial": {"kind": cfg.initial_kind, "r0": cfg.initial_r0,
                    "amplitude": cfg.initial_amplitude,
                    "tau": cfg.initial_tau},
        "version": __version__,
    }
    # a NaN or inf raises here, before a partial report.json exists
    text = json.dumps(report, indent=2, allow_nan=False)
    with open(out / "report.json", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(text + "\n")
    return ExperimentResult(EXIT_OK, str(out), report, _min_H(records), "")


def _min_H(records) -> Optional[float]:
    return min((r.H_min for r in records), default=None)


def _failure(err: BaseException, out_dir,
             min_H: Optional[float] = None) -> ExperimentResult:
    """The result of a run that err stopped, exit code err.exit_code or 1."""
    return ExperimentResult(getattr(err, "exit_code", EXIT_CONFIG),
                            str(out_dir), None, min_H,
                            f"{type(err).__name__}: {err}")


def _cell_name(labels: dict) -> str:
    return "_".join(f"{key}={val}" for key, val in labels.items())


def _text(value) -> str:
    return "" if value is None else repr(value)


def _sweep_cell(item):
    """Worker body: run one cell, classify, never raise across the pool."""
    cfg, out_dir, labels = item
    try:
        result = run_experiment(cfg, out_dir=out_dir)
    except (ConfigError, ValueError, OSError) as err:
        result = _failure(err, out_dir)
    return _cell_row(result, labels)


def _cell_row(result: ExperimentResult, labels: dict) -> dict:
    if result.exit_code != EXIT_OK:
        logger.error("sweep cell %s failed with exit code %d: %s",
                     _cell_name(labels), result.exit_code, result.error)
    report = result.report or {"verdict": "FAILED"}
    return dict(labels, Q_final=_text(report.get("Q_final")),
                limit_Q=_text(report.get("limit_Q")),
                verdict=report["verdict"],
                min_H_over_run=_text(result.min_H_over_run),
                exit_code=result.exit_code, error=result.error)


def _pool_rows(items, workers: int) -> list:
    """_sweep_cell of each item in a pool of workers processes, in item
    order; None for each cell left unfinished when a worker died."""
    # imported here, not at the top: it costs every run ~20 ms and ~1 MB
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    rows = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(_sweep_cell, item) for item in items]:
            try:
                rows.append(future.result())
            except BrokenProcessPool:
                rows.append(None)
    return rows


def sweep(cfg: ExperimentConfig,
          vary: Sequence[Tuple[str, Sequence[str]]],
          out_dir: Optional[str] = None,
          max_workers: Optional[int] = None) -> list:
    """Cartesian-product parameter sweep, one flow per worker process.

    vary is a sequence of (config key, value strings); cells are laid out
    in lexicographic order of the given axes.  Each cell writes a full
    run directory under the sweep output dir; the aggregate sweep.csv is
    written single-threaded at the end, one row per cell: the values of
    the varied keys under their short names (as in the cell directory
    names), then SWEEP_RESULT_COLUMNS.  Failed cells keep their row, with
    verdict FAILED, their exit code, the error's class and message, and
    empty numeric columns, and do not stop the sweep; error is empty for
    a cell that succeeded.  A dead worker breaks the pool: each cell left
    unfinished then reruns once, one after another, alone in a fresh
    one-worker pool, so only a cell whose worker dies again fails, with a
    BrokenProcessPool that names it.  Cells that would share a directory
    are refused.

    Returns the aggregate rows as dicts in cell order.
    """
    if not vary or len({key for key, _ in vary}) < len(vary):
        raise ConfigError("sweep needs at least one key to vary, each once")
    base = resolve_out_dir(cfg, out_dir)

    axes = [[(key, val) for val in values] for key, values in vary]
    items = []
    for combo in itertools.product(*axes):
        cell_cfg = cfg
        for key, val in combo:
            cell_cfg = override_config(cell_cfg, key, val)
        labels = {key.rpartition(".")[2]: val for key, val in combo}
        cell = str(base / _cell_name(labels))
        if any(item[1] == cell for item in items):
            raise ConfigError(f"sweep cell {_cell_name(labels)} appears "
                              f"twice; give each value once")
        items.append((cell_cfg, cell, labels))
    base.mkdir(parents=True, exist_ok=True)

    workers = max_workers or min(len(items), os.cpu_count() or 1)
    if workers > 1:
        rows = _pool_rows(items, workers)
        for i, (_, cell, labels) in enumerate(items):
            if rows[i] is None:
                # alone in a fresh pool, a second death is the cell's own
                rows[i] = _pool_rows(items[i:i + 1], 1)[0]
            if rows[i] is None:
                from concurrent.futures.process import BrokenProcessPool
                err = BrokenProcessPool(f"the worker running cell "
                                        f"{_cell_name(labels)} died twice")
                rows[i] = _cell_row(_failure(err, cell), labels)
    else:
        rows = [_sweep_cell(item) for item in items]

    columns = list(items[0][2]) + list(SWEEP_RESULT_COLUMNS)
    with open(base / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
    return rows


AMBIENT_TOLERANCES = {
    "sectional_range_violation": 1e-10,
    "quaternionic_plane_error": 1e-10,
    "real_plane_error": 1e-10,
    "pair_symmetry_error": 1e-10,
    "bianchi_error": 1e-10,
    "ricci_max_error": 1e-10,
}


def verify_ambient_report(n: int, samples: int, seed: int = 0):
    """Ambient curvature verification with pass/fail per check.

    Returns (full report, list of (name, value, tolerance, passed), all_ok).
    """
    report = ambient.verify_ambient(n, samples, seed=seed)
    checks = [(name, report[name], tol, report[name] < tol)
              for name, tol in AMBIENT_TOLERANCES.items()]
    return report, checks, all(ok for _, _, _, ok in checks)
