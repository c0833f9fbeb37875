"""Experiment configuration: a small line-based text format.

Grammar: `key = value` lines grouped under `[section]` headers; the
single global key `n` appears before any section.  Blank lines are
ignored and `#` starts a comment.  Unknown keys and bad types are
rejected with the offending line number, which is why this stays a
hand-rolled parser rather than an off-the-shelf INI reader; invalid
values are refused by ExperimentConfig itself, however it is built.

Example:

    n = 2

    [grid]
    points = 256

    [initial]
    kind = bump
    r0 = 3.0
    amplitude = 0.1

    [time]
    t_end = 40.0

    [output]
    dir = out/bump
    snapshot_every = 0.5
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .flow import StepControl, initial_profile, last_record, record_index
from .geometry import profile_derivatives
from .limits import T_USABLE

INITIAL_KINDS = ("sphere", "bump", "tau_family")
MAX_N = 109  # Vol(S^{4n-1}) is below the smallest normal float from n = 110


class ConfigError(Exception):
    """Configuration rejection; carries the source line when known."""

    def __init__(self, message: str, line: int = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment parameters with defaults applied, checked when built."""

    n: int = 2
    grid_points: int = 256
    initial_kind: str = "sphere"
    initial_r0: float = 1.0
    initial_amplitude: float = 0.0
    initial_tau: float = 4.0
    t_end: float = 40.0
    cfl_safety: float = StepControl.cfl_safety
    output_dir: str = "out"
    snapshot_every: float = 0.5

    def __post_init__(self):
        for (section, key), (attr, conv) in _SCHEMA.items():
            value = getattr(self, attr)
            if conv is float and not math.isfinite(value):
                raise ConfigError(
                    f"{section}.{key} must be finite, got {value}")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.n > MAX_N:
            raise ConfigError(f"n must be <= {MAX_N}, got {self.n}")
        if self.grid_points < 32:
            raise ConfigError(
                f"grid.points must be >= 32, got {self.grid_points}")
        if self.initial_kind not in INITIAL_KINDS:
            raise ConfigError(
                f"initial.kind must be one of {', '.join(INITIAL_KINDS)}, "
                f"got {self.initial_kind!r}")
        if self.initial_r0 <= 0:
            raise ConfigError(
                f"initial.r0 must be positive, got {self.initial_r0}")
        if self.initial_amplitude < 0:
            raise ConfigError(f"initial.amplitude must be >= 0, "
                              f"got {self.initial_amplitude}")
        if self.initial_tau <= 0:
            raise ConfigError(
                f"initial.tau must be positive, got {self.initial_tau}")
        if self.t_end <= 0:
            raise ConfigError(f"time.t_end must be positive, got {self.t_end}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError(
                f"time.cfl_safety must be in (0,1], got {self.cfl_safety}")
        every = self.snapshot_every
        if every <= 0:
            raise ConfigError(
                f"output.snapshot_every must be positive, got {every}")
        if not math.isfinite(self.t_end / every):
            raise ConfigError(
                f"time.t_end / output.snapshot_every overflows: "
                f"{self.t_end:g} / {every:g}")
        # the limit analysis needs the first record at t >= T_USABLE to be
        # followed by another
        if record_index(every, T_USABLE) >= last_record(every, self.t_end)[0]:
            raise ConfigError(
                f"limit analysis needs two records at t >= {T_USABLE:g}; "
                f"time.t_end = {self.t_end:g} with output.snapshot_every = "
                f"{every:g} gives fewer")


# (section, key) -> (attribute, converter); the global n has section "".
_SCHEMA = {
    ("", "n"): ("n", int),
    ("grid", "points"): ("grid_points", int),
    ("initial", "kind"): ("initial_kind", str),
    ("initial", "r0"): ("initial_r0", float),
    ("initial", "amplitude"): ("initial_amplitude", float),
    ("initial", "tau"): ("initial_tau", float),
    ("time", "t_end"): ("t_end", float),
    ("time", "cfl_safety"): ("cfl_safety", float),
    ("output", "dir"): ("output_dir", str),
    ("output", "snapshot_every"): ("snapshot_every", float),
}

_SECTIONS = {s for s, _ in _SCHEMA if s}


def _convert(section: str, key: str, value: str, name: str, line: int = None):
    """(attribute, converted value) of one config entry, or None when the
    schema has no such key; a bad value is refused citing ``name``."""
    if (section, key) not in _SCHEMA:
        return None
    attr, conv = _SCHEMA[(section, key)]
    try:
        return attr, conv(value)
    except ValueError:
        raise ConfigError(f"{name!r} expects {conv.__name__}, got {value!r}",
                          line)


def check_mean_convexity(cfg: ExperimentConfig):
    """The initial profile, once it is checked to be mean convex.

    The flow speed 1/H is undefined at H <= 0, so the run must not start;
    the error lists the offending theta values to make the bad amplitude
    obvious.
    """
    try:
        profile = initial_profile(
            cfg.n, cfg.grid_points, cfg.initial_kind, r0=cfg.initial_r0,
            amplitude=cfg.initial_amplitude, tau=cfg.initial_tau)
    except ValueError as err:
        raise ConfigError(f"initial profile is not a radial graph: {err}")
    H = profile_derivatives(profile).H
    bad = np.flatnonzero(H <= 0)
    if bad.size:
        shown = ", ".join(f"{profile.theta[k]:.4f}" for k in bad[:5])
        more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
        raise ConfigError(
            f"initial profile is not mean convex: H <= 0 at theta = "
            f"{shown}{more}; min H = {H.min():.6g}")
    return profile


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; errors carry line numbers."""
    values = {}
    seen = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        entry = _convert(section, key, value, key, lineno)
        if entry is None:
            where = f"[{section}]" if section else "the global scope"
            raise ConfigError(f"unknown key {key!r} in {where}", lineno)
        attr, converted = entry
        if attr in seen:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen[attr]})",
                lineno)
        values[attr] = converted
        seen[attr] = lineno

    cfg = ExperimentConfig(**values)
    check_mean_convexity(cfg)
    return cfg


def override_config(cfg: ExperimentConfig, dotted_key: str,
                    value: str) -> ExperimentConfig:
    """Replace one field addressed as section.key (e.g. initial.tau) or n.

    Used by parameter sweeps; the value goes through the parser's
    converter, and the mean convexity check is left to the run.
    """
    section, _, key = dotted_key.rpartition(".")
    entry = _convert(section, key, value, dotted_key)
    if entry is None:
        raise ConfigError(f"unknown config key {dotted_key!r}")
    return replace(cfg, **dict([entry]))
