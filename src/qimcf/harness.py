"""Experiment orchestration: runs, parameter sweeps, file emission.

Output contract per run directory:

  diagnostics.csv  one row per record time, schema DiagnosticsRecord
  profiles.csv     header t,theta_0,...,theta_{N-1}; row k holds t and
                   rho at the N nodes for record k, the record of row k
                   of diagnostics.csv; t and theta as repr, rho with 17
                   significant digits
  report.json      limit-analysis summary and how the run was made
                   (success only, never partial)

Every row of both per-record files is on disk when run_experiment
returns or raises, and any exception leaves them cut to the rows that
both hold.  The run writes diagnostics.csv itself, and profiles.csv
through a writer process that it forks wherever os.fork exists, except
in a sweep's cell processes, which already occupy the CPUs; the writer
ends before run_experiment does, and the run formats the rows that it
sends while the writer is half a pipe behind.  Without a writer the run
formats profiles.csv itself.

Exit codes: 0 success, 1 configuration or arithmetic failure, else the
flow failure's exit_code: 2 mean convexity lost, 3 step-size collapse,
4 non-finite state or record.  A parallel sweep forks one process per
cell, where os.fork exists, and classifies failures per cell without
aborting the sweep; qimcf loads neither concurrent.futures nor
multiprocessing.
"""

import csv
import errno
import itertools
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__, ambient
from .config import (ConfigError, ExperimentConfig, check_mean_convexity,
                     initial_shape, override_config)
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
    """The output directory: out_dir (--out) unless None, else output.dir;
    an empty or blank out_dir is refused, as an empty output.dir is."""
    if out_dir is not None and not str(out_dir).strip():
        raise ConfigError("the output directory (--out) must not be empty")
    return Path(cfg.output_dir if out_dir is None else out_dir)


def _fit_or_none(series, t_min: float) -> Optional[float]:
    """Decay rate, or None when the series is unfittable (zeros, too short)."""
    try:
        return fit_decay_rate(series, t_min)
    except ValueError:
        return None


# whether a run forks a profiles.csv writer process (module docstring)
_fork_writer = hasattr(os, "fork")


def _profiles_row(size: int) -> bytes:
    """The %-template of one profiles.csv row: t, then size rho values."""
    # t as repr, the text diagnostics.csv gives it; rho as %.17g, which
    # round-trips every float64 without repr's shortest-digit search
    return ("%r" + ",%.17g" * size + "\n").encode()


class _ProfileWriter:
    """profiles.csv rows, formatted by the run, or by a writer process
    that start() forks where _fork_writer is set; the run then formats a
    row only while the pipe's unread bytes (FIONREAD) fill at least half
    its size (F_GETPIPE_SZ), never where either call is missing.

    A record goes down the pipe as an 8-byte little-endian length L,
    then, for L = 0, t and rho as raw float64 values, which the writer
    formats, or else the L bytes of the row that the run formatted,
    which the writer copies; both use one bytes template.  start()
    flushes the header and forks the writer; close() closes the pipe
    and reaps the writer, so every row is on disk when it returns, and
    raises OSError with the writer's own errno if the writer failed; a
    write() after that failure meets a broken pipe, and the run's
    close() then replaces that EPIPE by the writer's error.  close()
    releases whatever start() got to make, so a run calls start()
    inside the try whose finally calls close().
    """

    def __init__(self, fh, size: int):
        self._fh, self._size, self._path = fh, size, str(fh.name)
        self._row = _profiles_row(size)
        # a raw frame: the length 0, then t and rho
        self._frame = np.zeros(size + 2)
        self._pipe = self._pid = self._modules = None

    def start(self) -> None:
        # a forked writer inherits fh with an empty buffer, so nothing is
        # written twice, and a header that cannot be written fails here
        self._fh.flush()
        if not _fork_writer:
            return
        # imported here, so that only a run that forks a writer loads them
        import fcntl
        import termios
        self._modules = fcntl, termios
        self._pid, self._pipe = _fork(_writer_main, self._fh, self._row,
                                      self._size, reads=True)

    def _behind(self) -> bool:
        """Whether the writer is half a pipe behind (AttributeError where
        it cannot tell)."""
        fcntl, termios = self._modules
        unread = fcntl.ioctl(self._pipe, termios.FIONREAD, bytes(4))
        return (2 * memoryview(unread).cast("i")[0]
                >= fcntl.fcntl(self._pipe, fcntl.F_GETPIPE_SZ))

    def write(self, t: float, rho) -> None:
        if self._pipe is None:
            self._fh.buffer.write(self._row % (t, *rho.tolist()))
            return
        try:
            behind = self._behind()
        except AttributeError:  # no way to tell: the writer formats
            behind = False
        if behind:
            text = self._row % (t, *rho.tolist())
            view = memoryview(len(text).to_bytes(8, "little") + text)
        else:
            frame = self._frame
            frame[1] = t
            frame[2:] = rho
            view = memoryview(frame).cast("B")
        while view:
            view = view[os.write(self._pipe, view):]

    def close(self) -> None:
        if self._pipe is not None:
            os.close(self._pipe)
        if self._pid is None:
            return
        code, = _reap(self._pid)
        if code > 0:
            raise OSError(code, os.strerror(code), self._path)
        if code < 0:
            raise OSError(errno.EIO, f"the profiles.csv writer was killed "
                          f"by signal {-code}", self._path)


def _fork(body, *args, reads: bool) -> Tuple[int, int]:
    """The pid of a child that runs body(end, *args), end being its end of
    a new pipe (the read end if reads), and the caller's end.  The child
    ends through os._exit, which flushes no inherited buffer, with what
    body returns, or EIO, after a traceback, if it raises."""
    end, own = os.pipe()[::1 if reads else -1]
    try:
        pid = os.fork()
        if pid == 0:
            code = errno.EIO
            try:
                os.close(own)
                code = body(end, *args)
            except BaseException:
                import traceback
                traceback.print_exc()
            finally:
                os._exit(code)
    except BaseException:
        os.close(own)
        raise
    finally:
        os.close(end)
    return pid, own


def _reap(*pids) -> list:
    """The exit codes of the children pids (-signal for one killed), once
    each has ended; a Ctrl-C during the wait is raised after the last."""
    codes, interrupt = [], None
    while len(codes) < len(pids):
        try:
            status = os.waitpid(pids[len(codes)], 0)[1]
            codes.append(os.waitstatus_to_exitcode(status))
        except KeyboardInterrupt as err:
            interrupt = err
    if interrupt:
        raise interrupt
    return codes


def _writer_main(read_end: int, fh, row: bytes, size: int) -> int:
    """Body of the forked writer, which _fork runs.

    Formats each raw frame from read_end into fh with row, and copies
    each text frame, until the pipe closes, dropping a frame that the
    close cuts short; then returns 0, or the errno of the OSError that
    stopped it (EIO for any other failure).  It first closes every
    inherited descriptor but 0-2, read_end and fh, so that it holds no
    other run's pipe open.
    """
    try:
        # imported here, not in the run, which then loads no new module
        import signal
        # Ctrl-C stops the run's flow; the writer still drains the pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        low = 3
        for fd in sorted((read_end, fh.fileno())):
            os.closerange(low, fd)
            low = max(low, fd + 1)
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        with open(read_end, "rb", closefd=False) as frames:
            while len(head := frames.read(8)) == 8:
                text = int.from_bytes(head, "little")
                nbytes = text or 8 * (size + 1)
                if len(body := frames.read(nbytes)) < nbytes:
                    break
                fh.buffer.write(body if text else
                                row % tuple(memoryview(body).cast("d")))
        fh.flush()
        return 0
    except OSError as err:
        return err.errno if err.errno and err.errno < 256 else errno.EIO


def run_experiment(cfg: ExperimentConfig,
                   out_dir: Optional[str] = None) -> ExperimentResult:
    """Run one configured flow and write the output files.

    The only check of a config's initial profile: ConfigError, with
    nothing written, when it is not mean convex or has rho <= 0.
    Integration and arithmetic failures are reported through the exit
    code with the diagnostics and profiles recorded so far on disk, and
    no report.json; any exception leaves both files with the rows that
    both hold.  A rerun first deletes an earlier report.json and
    decay.dat, and rewrites both per-record files from their headers.
    Where os.fork exists, except in a sweep's cell processes, a forked
    process writes profiles.csv; it has ended when this returns or
    raises, and its failure raises OSError.
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
    try:
        with open(out / "diagnostics.csv", "w", encoding="utf-8",
                  newline="") as diagnostics, \
                open(out / "profiles.csv", "w", encoding="utf-8",
                     newline="") as profiles:
            names = DiagnosticsRecord._fields
            diagnostics.write(",".join(names) + "\n")
            theta = ",".join(map(repr, profile0.theta.tolist()))
            profiles.write(f"t,{theta}\n")
            # every diagnostic and t as repr, so both files give t one text
            diagnostics_row = ",".join(["%r"] * len(names)) + "\n"
            writer = _ProfileWriter(profiles, profile0.rho.size)

            def observer(state, record):
                writer.write(state.t, state.profile.rho)
                diagnostics.write(diagnostics_row % record)
                records.append(record)
                limit_snapshots.add(state.t, state.profile)

            try:
                writer.start()
                final, _ = run_flow(state0, ctrl, observers=[observer])
            finally:
                writer.close()
    except BaseException as err:
        _keep_common_rows(out)
        if not isinstance(err, (FlowError, ArithmeticError)):
            raise
        result = _failure(err, out, _min_H(records))
        logger.error("run failed, %s", result.error)
        return result

    factor = extract_conformal_factor(limit_snapshots.kept)
    verdict = constancy_verdict(factor)

    horo = 4 * cfg.n + 2
    grad_series = [(r.t, r.sup_grad_phi_sq) for r in records]
    h_series = [(r.t, max(abs(r.H_min - horo), abs(r.H_max - horo)))
                for r in records]
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


def _keep_common_rows(out: Path) -> None:
    """Cut diagnostics.csv and profiles.csv in out to the whole rows that
    both hold, where both are regular files.  Whichever write failed,
    the run's or its writer's, each file holds a prefix of its rows."""
    paths = [out / "diagnostics.csv", out / "profiles.csv"]
    if not all(path.is_file() for path in paths):
        return
    texts = [path.read_bytes() for path in paths]
    lines = min(text.count(b"\n") for text in texts)
    for path, text in zip(paths, texts):
        end = 0
        for _ in range(lines):
            end = text.index(b"\n", end) + 1
        os.truncate(path, end)


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
    """Run one cell and classify it, in the cell's own process in a
    parallel sweep; an exception that run_experiment does not classify
    fails only this cell, with exit code 1."""
    cfg, out_dir, labels = item
    try:
        result = run_experiment(cfg, out_dir=out_dir)
    except Exception as err:  # not BaseException: Ctrl-C still stops it
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


def _cell_main(write_end: int, item, read_ends) -> int:
    """Body of a cell process: its _sweep_cell row, as JSON."""
    global _fork_writer
    _fork_writer = False  # the cells already occupy the CPUs
    for fd in read_ends:  # the other cells' pipes
        os.close(fd)
    with open(write_end, "wb") as pipe:
        pipe.write(json.dumps(_sweep_cell(item)).encode())
    return 0


def _forked_rows(items, workers: int) -> list:
    """_sweep_cell of each item in a process of its own, at most workers
    at a time, in item order (see sweep)."""
    import select  # only a parallel sweep waits on its pipes
    rows, running, poller = [None] * len(items), {}, select.poll()
    pending = enumerate(items)
    try:
        while True:
            for i, item in itertools.islice(pending, workers - len(running)):
                pid, fd = _fork(_cell_main, item, running, reads=False)
                running[fd] = (i, pid, [])
                poller.register(fd, select.POLLIN)
            if not running:
                return rows
            for fd, _ in poller.poll():
                i, pid, chunks = running[fd]
                chunks.append(os.read(fd, 1 << 16))
                if chunks[-1]:  # reaped only once its pipe is read to EOF
                    continue
                poller.unregister(fd)
                os.close(fd)
                del running[fd]
                code, = _reap(pid)
                try:
                    rows[i] = json.loads(b"".join(chunks))
                except ValueError:  # no whole row
                    _, cell, labels = items[i]
                    how = (f"signal {-code}" if code < 0
                           else f"exit status {code}")
                    err = ChildProcessError(
                        f"the process of cell {_cell_name(labels)} ended "
                        f"with {how} before it sent its row")
                    rows[i] = _cell_row(_failure(err, cell), labels)
    finally:
        for fd in running:
            os.close(fd)
        _reap(*[pid for _, pid, _ in running.values()])


def sweep(cfg: ExperimentConfig,
          vary: Sequence[Tuple[str, Sequence[str]]],
          out_dir: Optional[str] = None,
          max_workers: Optional[int] = None) -> list:
    """Cartesian-product parameter sweep, one process per cell.

    vary is a sequence of (config key, value strings); cells are laid out
    in lexicographic order of the given axes.  Each cell writes a full
    run directory under the sweep output dir; the aggregate sweep.csv is
    written single-threaded at the end, one row per cell: the values of
    the varied keys under their short names (as in the cell directory
    names), then SWEEP_RESULT_COLUMNS.  Failed cells keep their row, with
    verdict FAILED, their exit code, the error's class and message, and
    empty numeric columns, and do not stop the sweep; error is empty for
    a cell that succeeded.  With os.fork and more than one worker (by
    default one per CPU, up to the cell count) each cell runs in a process
    of its own; one that dies fails alone, with exit code 1 and a
    ChildProcessError that names it.  An exception, Ctrl-C included,
    starts no further cell and is raised once the running cells have
    ended.  Two cells that would run the same flow are refused, and with
    them two cells that would share a directory.

    Returns the aggregate rows as dicts in cell order.
    """
    if (not vary or len({key for key, _ in vary}) < len(vary)
            or not all(values for _, values in vary)):
        raise ConfigError("sweep needs at least one key to vary, each once, "
                          "each with a value")
    base = resolve_out_dir(cfg, out_dir)

    axes = [[(key, val) for val in values] for key, values in vary]
    items, flows = [], {}
    for combo in itertools.product(*axes):
        c = override_config(cfg, combo)
        labels = {key.rpartition(".")[2]: val for key, val in combo}
        flow = (initial_shape(c), c.n, c.grid_points, c.t_end, c.cfl_safety,
                c.snapshot_every)
        if flow in flows:
            raise ConfigError(f"sweep cells {flows[flow]} and "
                              f"{_cell_name(labels)} run the same flow")
        flows[flow] = _cell_name(labels)
        items.append((c, str(base / _cell_name(labels)), labels))
    base.mkdir(parents=True, exist_ok=True)

    workers = max_workers or min(len(items), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        rows = _forked_rows(items, workers)
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
