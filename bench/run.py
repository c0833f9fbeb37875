"""qimcf benchmark: four laboratory workloads, timed end to end and traced.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --workload all [--seed S] [--seconds T]

Run it from the repository root; it imports qimcf from ./src.  Workloads
enter through the calls ``qimcf run`` and ``qimcf sweep`` make:
parse_config, then run_experiment or sweep.  Load comes from this one
process, plus at most min(2, nproc) sweep worker processes.  Every
operation (one run_experiment call or one sweep cell) writes into a
temporary directory under .bench_work/, is checked (workloads.check_run)
and is deleted.

--trace 0 repeats the workload until --seconds have passed and reports
the end-to-end metrics:
  wall_s       per-call median wall time of the harness calls, summed
               over the workload's calls; set-up is excluded
  setup_s      median over fresh interpreters of ``import qimcf`` plus
               parse_config of the workload's config texts; one sample
               before each pass and at least 7, because the machine's
               speed drifts over tens of seconds
  peak_rss_mb  larger of this process's and its children's peak RSS
  ok_frac      operations that passed their check / operations attempted
               (failed_frac = 1 - ok_frac is printed too)

--trace 1 runs the workload once untraced, then once with every traced
function wrapped (spans.py), in-process (a sweep with max_workers=1),
then times ``qimcf.cli.main(["run", ...])`` on the seed-0 reference bump
N=256 config and ``verify_ambient(2, 10000)``, and reports the per-layer
metrics.  It also asserts that the workload stayed in its regime.

--workload all runs every workload with --trace 0 and --trace 1 in
child processes and prints all their metrics.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it carry the provenance and
the human-readable report.

Deliberately left out: the Tier-1 test-suite wall time (test code differs
between parent and change, and one suite run takes about 22 s), and flow
times past t ~ 100, where the diagnostics lose their digits to
cancellation (ROADMAP item 4); no workload gets there, which limits the
benchmark's scope and does not show that the code is correct there.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
AMBIENT_N, AMBIENT_SAMPLES = 2, 10000

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import qimcf
for text in sys.argv[1:]:
    qimcf.parse_config(text)
print(repr(time.perf_counter() - t0))
"""


def _load_qimcf():
    """Import qimcf from this checkout's src, or exit without a result."""
    if not (SRC / "qimcf" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qimcf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qimcf
    if Path(qimcf.__file__).resolve().parent != SRC / "qimcf":
        sys.exit(f"benchmark: imported qimcf from {qimcf.__file__}, "
                 f"not from {SRC}")


def _tree_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _expected(wl, seed):
    return workloads.FINGERPRINTS[wl.name] if seed == 0 else None


def run_once(wl, cfgs, workers, expected):
    """One pass over the workload's operations.

    Returns (seconds of each harness call, problems per operation,
    files written, bytes written).  Only the harness calls are timed.
    """
    from qimcf import harness
    seconds, problems = [], []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        if wl.vary is None:
            for i, cfg in enumerate(cfgs):
                out = tmp / f"run{i}"
                start = time.perf_counter()
                try:
                    result = harness.run_experiment(cfg, out_dir=str(out))
                except Exception:
                    seconds.append(time.perf_counter() - start)
                    problems.append([traceback.format_exc()])
                    continue
                seconds.append(time.perf_counter() - start)
                problems.append(
                    [f"exit code {result.exit_code}"] if result.exit_code
                    else workloads.check_run(out, expected and expected[i]))
        else:
            start, error = time.perf_counter(), ""
            try:
                rows = harness.sweep(cfgs[0], wl.vary, out_dir=str(tmp),
                                     max_workers=workers)
            except Exception:
                rows, error = [], traceback.format_exc()
            seconds.append(time.perf_counter() - start)
            problems = workloads.check_sweep(tmp, rows, expected)
            problems += [[f"no row for cell {i}: {error}"]
                         for i in range(len(rows), len(wl.runs))]
        files, nbytes = _tree_size(tmp)
    return seconds, problems, files, nbytes


def setup_sample(texts):
    """Seconds of import qimcf + parse_config in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *texts],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def _count_steps(steps):
    """Record each in-process run's step count, for the provenance."""
    from qimcf import harness
    original = harness.run_flow

    def run_flow(*args, **kwargs):
        final, records = original(*args, **kwargs)
        steps.append(final.step_count)
        return final, records

    harness.run_flow = run_flow


def provenance(wl, seed, workers, steps):
    import numpy
    head = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, text=True,
                                  capture_output=True, timeout=60).stdout
        head = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain").strip())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_head": head, "git_dirty": dirty,
            "seed": seed, "workload": wl.name, "sweep_workers": workers,
            "runs": [{"N": r.points, "steps": s}
                     for r, s in zip(wl.runs, steps + [None] * len(wl.runs))]}


def untraced(wl, cfgs, texts, seed, seconds, workers):
    setup_sample(texts)  # fills __pycache__ and the page cache; not counted
    steps = []
    _count_steps(steps)
    expected = _expected(wl, seed)
    setup, passes, problems = [], [], []
    start = time.perf_counter()
    # Whole passes only, as many as fit in the measuring time, at least
    # one.  The machine's speed drifts over tens of seconds, so set-up
    # samples are spread over the run rather than taken in one burst.
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) \
            <= seconds:
        setup.append(setup_sample(texts))
        calls, probs, _, _ = run_once(wl, cfgs, workers, expected)
        passes.append(calls)
        problems += probs
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(texts))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    failed = sum(1 for p in problems if p)
    wall_s = sum(statistics.median(call) for call in zip(*passes))
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_frac": ((len(problems) - failed) / len(problems), "fraction"),
    }
    notes = [f"{len(passes)} passes of {len(wl.runs)} operations; seconds "
             f"per harness call: {passes}",
             f"{len(setup)} set-up samples, seconds: {setup}",
             f"failed_frac = {failed / len(problems)!r} fraction"]
    prov = provenance(wl, seed, workers, steps[:len(wl.runs)])
    return metrics, problems, prov, notes


def traced(wl, cfgs, texts, seed, workers):
    from qimcf import cli, config, harness
    expected = _expected(wl, seed)
    base_s, problems, _, _ = run_once(wl, cfgs, workers, expected)
    serial_s = base_s
    if wl.vary is not None:
        serial_s, more, _, _ = run_once(wl, cfgs, 1, expected)
        problems += more
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op("setup")
        for text in texts:
            config.parse_config(text)
        tracer.begin_op("workload")
        traced_s, more, files, nbytes = run_once(wl, cfgs, 1, expected)
        problems += more
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            ref = workloads.build("reference", 0)
            path, out = Path(tmp) / "bump256.cfg", Path(tmp) / "out"
            path.write_text(ref.runs[0].config_text(), encoding="utf-8")
            tracer.begin_op("cli")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(path),
                                 "--out", str(out)])
            problems.append([f"cli exit code {code}"] if code else
                            workloads.check_run(
                                out, workloads.FINGERPRINTS["reference"][0]))
        tracer.begin_op("ambient")
        _, checks, ok = harness.verify_ambient_report(AMBIENT_N,
                                                      AMBIENT_SAMPLES)
        problems.append([] if ok else [f"verify_ambient: {checks}"])
    finally:
        tracer.uninstall()

    stats, counts = tracer.summarize("workload")
    # a workload without a sweep counts as a one-worker sweep of its runs
    metrics = layer_metrics(stats, counts, files, nbytes,
                            workers if wl.vary else 1,
                            sum(base_s), sum(serial_s), sum(traced_s))
    setup_stats, _ = tracer.summarize("setup")
    cli_stats, _ = tracer.summarize("cli")
    ambient_stats, _ = tracer.summarize("ambient")
    metrics.update({
        "config.parse_config.us":
            (_us(setup_stats, "config.parse_config"), "us"),
        "config.check_mean_convexity.us":
            (_us(setup_stats, "config.check_mean_convexity"), "us"),
        "ambient.verify_ambient.s":
            (_get(ambient_stats, "ambient.verify_ambient")["total_s"], "s"),
        "cli.main.overhead_s":
            (_get(cli_stats, "cli.main")["total_s"]
             - _get(cli_stats, "harness.run_experiment")["total_s"], "s"),
    })
    regime = check_regime(wl.name, metrics, stats)
    if regime:
        problems.append([regime])
    steps = _ops_steps(tracer)
    notes = ["spans by self time (one traced pass):"] + [
        f"  {name:34s} calls {e['calls']:8d}  total {e['total_s']:9.4f} s"
        f"  self {e['self_s']:9.4f} s"
        for name, e in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])]
    return metrics, problems, provenance(wl, seed, workers, steps), notes


def _ops_steps(tracer):
    """flow.step calls per traced workload operation, in order."""
    ops = [op for op, phase in tracer.op_phase.items() if phase == "workload"]
    per_op = {op: 0 for op in ops}
    for name, _, _, _, op in tracer.spans:
        if name == "flow.step" and op in per_op:
            per_op[op] += 1
    return [n for n in per_op.values() if n]


_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under": {}}


def _get(stats, name):
    return stats.get(name, _EMPTY)


def _us(stats, name):
    entry = _get(stats, name)
    return entry["total_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0


def layer_metrics(stats, counts, files, nbytes, workers, base_s, serial_s,
                  traced_s):
    """Per-layer metrics of one traced pass.

    Which end-to-end metric each should move, and where:
      geometry.*         wall_s on reference (call overhead at N <= 512)
                         and stiff_start (arithmetic at N = 1024);
                         evals_per_record (2.0 today) on dense_records
      flow.step.*, flow.dt_limit.dt_max
                         wall_s on reference, where adaptive stepping acts;
                         dt_limit.cfl dominates stiff_start
      flow.diagnostics_record.*, harness.observer.*, harness.*_written,
      harness.run_experiment.self_s
                         wall_s on dense_records
      harness.sweep.*    wall_s and peak_rss_mb on sweep_2x2
      limits.*           nothing (< 0.1% of wall_s); catches a slowdown
      config.*           setup_s on every workload
    """
    pd = _get(stats, "geometry.profile_derivatives")
    step = _get(stats, "flow.step")
    diag = _get(stats, "flow.diagnostics_record")
    runs = _get(stats, "harness.run_experiment")
    observer = _get(stats, "harness.observer")
    # evaluations made for the records: those outside stepping and the
    # initial convexity check
    record_evals = (pd["calls"] - pd["under"].get("flow.step", 0)
                    - pd["under"].get("config.check_mean_convexity", 0))
    return {
        "geometry.profile_derivatives.calls": (pd["calls"], "count"),
        "geometry.profile_derivatives.us":
            (_us(stats, "geometry.profile_derivatives"), "us"),
        "geometry.profile_derivatives.ns_per_node":
            (pd["total_s"] * 1e9 / max(counts["profile_nodes"], 1), "ns"),
        "geometry.mean_curvature_profile.calls":
            (_get(stats, "geometry.mean_curvature_profile")["calls"], "count"),
        "geometry.mean_curvature_profile.us":
            (_us(stats, "geometry.mean_curvature_profile"), "us"),
        "geometry.evals_per_record":
            (record_evals / max(diag["calls"], 1), "ratio"),
        "flow.step.calls": (step["calls"], "count"),
        "flow.step.us": (_us(stats, "flow.step"), "us"),
        "flow.step.self_us":
            (step["self_s"] / max(step["calls"], 1) * 1e6, "us"),
        "flow.step.total_s": (step["total_s"], "s"),
        "flow.dt_limit.cfl": (counts["dt_limit.cfl"], "count"),
        "flow.dt_limit.dt_max": (counts["dt_limit.dt_max"], "count"),
        "flow.dt_limit.record": (counts["dt_limit.record"], "count"),
        "flow.diagnostics_record.calls": (diag["calls"], "count"),
        "flow.diagnostics_record.us":
            (_us(stats, "flow.diagnostics_record"), "us"),
        "flow.diagnostics_record.total_s": (diag["total_s"], "s"),
        "flow.run_flow.self_s": (_get(stats, "flow.run_flow")["self_s"], "s"),
        "harness.observer.calls": (observer["calls"], "count"),
        "harness.observer.total_s": (observer["total_s"], "s"),
        "harness.run_experiment.self_s": (runs["self_s"], "s"),
        "harness.bytes_written": (nbytes, "B"),
        "harness.files_written": (files, "count"),
        "harness.sweep.cell_s":
            (runs["total_s"] / max(runs["calls"], 1), "s"),
        "harness.sweep.parallel_eff":
            (runs["total_s"] / (workers * base_s), "ratio"),
        "limits.extract_conformal_factor.us":
            (_us(stats, "limits.extract_conformal_factor"), "us"),
        "limits.constancy_verdict.us":
            (_us(stats, "limits.constancy_verdict"), "us"),
        "limits.limit_Q.us": (_us(stats, "limits.limit_Q"), "us"),
        "limits.fit_decay_rate.calls":
            (_get(stats, "limits.fit_decay_rate")["calls"], "count"),
        "limits.fit_decay_rate.us":
            (_us(stats, "limits.fit_decay_rate"), "us"),
        "trace.overhead_frac": (traced_s / serial_s - 1, "ratio"),
    }


def check_regime(name, metrics, stats):
    """A message when the traced counts show the workload left its regime."""
    cfl = metrics["flow.dt_limit.cfl"][0]
    steps = metrics["flow.step.calls"][0]
    if name == "reference" and cfl != 0:
        return f"reference: {cfl} CFL-limited steps, expected none"
    if name == "stiff_start" and not cfl > steps / 2:
        return f"stiff_start: {cfl} of {steps} steps CFL-limited, " \
               f"expected most"
    if name == "dense_records":
        top = max(stats, key=lambda s: stats[s]["self_s"])
        if top != "harness.observer":
            return f"dense_records: largest self time is {top}, expected " \
                   f"harness.observer"
    return None


def run_all(args):
    """Every workload, untraced then traced, each in a child process."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=900)
            lines = proc.stdout.splitlines()
            print(f"== {name} --trace {trace}", *lines[:-1], sep="\n")
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"benchmark: {name} --trace {trace} failed")
            child = json.loads(lines[-1])
            result["correct"] &= child["correct"]
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            for metric, value in child["metrics"].items():
                result["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _load_qimcf()
    if args.workload == "all":
        return run_all(args)

    from qimcf import config
    wl = workloads.build(args.workload, args.seed)
    texts = [run.config_text() for run in (
        wl.runs if wl.vary is None else (wl.base,))]
    cfgs = [config.parse_config(text) for text in texts]
    workers = min(2, os.cpu_count() or 1)
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = traced(wl, cfgs, texts, args.seed, workers)
        else:
            result = untraced(wl, cfgs, texts, args.seed, args.seconds,
                              workers)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics, problems, prov, notes = result
    failed = [p for p in problems if p]
    for p in failed:
        print("FAILED:", *p, sep="\n  ", file=sys.stderr)
    print("provenance", json.dumps(prov))
    print(*notes, sep="\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
