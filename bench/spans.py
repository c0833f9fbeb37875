"""In-memory span tracing around qimcf's public functions, from outside.

The tracer changes nothing in the package.  It replaces every module-level
binding of a traced function inside ``qimcf.*`` with one timing wrapper,
so each call is timed on the name its caller uses: ``run_flow`` calls
``qimcf.flow.step``, ``run_experiment`` calls ``qimcf.harness.run_flow``,
``check_mean_convexity`` calls ``qimcf.config.profile_derivatives``.

A span is (name, start, end, parent index, operation id).  Spans stay in
memory until ``summarize`` folds them into per-name totals at the end of
the run.  Self time is a span's duration minus the durations of its
direct children; calls are single-threaded and nest, so children never
overlap.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = ("config", "geometry", "flow", "limits", "harness", "ambient",
           "cli")

# (defining module, function); the span name is "module.function"
TARGETS = (
    ("config", "parse_config"),
    ("config", "check_mean_convexity"),
    ("geometry", "profile_derivatives"),
    ("geometry", "mean_curvature_profile"),
    ("flow", "step"),
    ("flow", "diagnostics_record"),
    ("flow", "run_flow"),
    ("limits", "extract_conformal_factor"),
    ("limits", "constancy_verdict"),
    ("limits", "limit_Q"),
    ("limits", "fit_decay_rate"),
    ("harness", "run_experiment"),
    ("harness", "sweep"),
    ("ambient", "verify_ambient"),
    ("cli", "main"),
)

OBSERVER_SPAN = "harness.observer"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.op_phase = {}       # operation id -> phase label
        self.counts = Counter()  # (operation id, key) -> count
        self.op = None
        self._stack = []
        self._patched = []
        self._phase = None

    def begin_op(self, phase):
        """Start a new operation; later spans carry its id."""
        self._phase = phase
        self.op = len(self.op_phase)
        self.op_phase[self.op] = phase

    def _wrap(self, fn, name, on_call=None, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # hooks: counts that need a call's arguments or result

    def _count_nodes(self, args, kwargs, result):
        self.counts[(self.op, "profile_nodes")] += args[0].rho.size

    def _classify_step(self, args, kwargs, result):
        ctrl = _arg(args, kwargs, 1, "ctrl")
        dt_cap = _arg(args, kwargs, 2, "dt_cap")
        if result.last_dt == dt_cap:
            limit = "record"
        elif result.last_dt == ctrl.dt_max:
            limit = "dt_max"
        else:
            limit = "cfl"
        self.counts[(self.op, "dt_limit." + limit)] += 1

    def _wrap_observers(self, args, kwargs):
        if "observers" in kwargs:
            kwargs = dict(kwargs, observers=[
                self._wrap(obs, OBSERVER_SPAN) for obs in kwargs["observers"]])
        elif len(args) > 2:
            args = args[:2] + ([self._wrap(obs, OBSERVER_SPAN)
                                for obs in args[2]],) + args[3:]
        return args, kwargs

    def _new_run_op(self, args, kwargs):
        # every run, including each in-process sweep cell, is its own op
        self.begin_op(self._phase)
        return args, kwargs

    def install(self):
        import qimcf
        hooks = {
            "geometry.profile_derivatives": (None, self._count_nodes),
            "flow.step": (None, self._classify_step),
            "flow.run_flow": (self._wrap_observers, None),
            "harness.run_experiment": (self._new_run_op, None),
        }
        modules = [qimcf] + [importlib.import_module(f"qimcf.{m}")
                             for m in MODULES]
        for module, func in TARGETS:
            original = getattr(importlib.import_module(f"qimcf.{module}"),
                               func, None)
            if original is None:
                continue
            name = f"{module}.{func}"
            wrapper = self._wrap(original, name,
                                 *hooks.get(name, (None, None)))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summarize(self, phase):
        """Per-name totals over the spans of one phase.

        Returns (stats, counts): stats maps a span name to its calls,
        total_s, self_s and ``under``, a Counter of the names of the spans
        it was called from; counts sums the hook counters.
        """
        ops = {op for op, p in self.op_phase.items() if p == phase}
        child_s = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "under": Counter()})
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
            entry["under"][self.spans[parent][0] if parent >= 0 else None] += 1
        counts = Counter()
        for (op, key), value in self.counts.items():
            if op in ops:
                counts[key] += value
        return stats, counts
