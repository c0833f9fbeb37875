"""Config parsing, validation, and sweep overrides."""

import dataclasses
import time

import numpy as np
import pytest

from qimcf import (ConfigError, ExperimentConfig, FlowState, StepControl,
                   cached_grid, flow, initial_profile, parse_config,
                   run_experiment, sweep)
from qimcf.config import check_mean_convexity, override_config
from qimcf.flow import RECORD_SNAP, last_record

FULL = """\
n = 2

[grid]
points = 128

# initial surface
[initial]
kind = bump
r0 = 3.0
amplitude = 0.1

[time]
t_end = 30.0
cfl_safety = 0.3

[output]
dir = out/bump
snapshot_every = 1.0
"""


def test_empty_config_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_full_config_roundtrip():
    cfg = parse_config(FULL)
    assert cfg.n == 2
    assert cfg.grid_points == 128
    assert cfg.initial_kind == "bump"
    assert cfg.initial_r0 == 3.0
    assert cfg.initial_amplitude == 0.1
    assert cfg.initial_tau == 4.0  # untouched default
    assert cfg.t_end == 30.0
    assert cfg.cfl_safety == 0.3
    assert cfg.output_dir == "out/bump"
    assert cfg.snapshot_every == 1.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nn = 3  # quaternionic\n   \n"
                       "[grid]  # nodes\npoints = 64#\n")
    assert cfg.n == 3
    assert cfg.grid_points == 64


def test_n_range():
    # (2n-1)! overflows a float from n = 86 on, but Vol(S^{4n-1}) =
    # 2 pi^{2n} / (2n-1)! stays a normal float up to n = 109
    assert parse_config("n = 86\n[grid]\npoints = 64\n").n == 86
    assert parse_config("n = 109\n[grid]\npoints = 32\n").n == 109


def err_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value


def refusal_of(text, out):
    """The ConfigError that refuses text before anything is written:
    parse_config's for a value, the run's for the initial profile."""
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(parse_config(text), out_dir=str(out))
    assert not out.exists()
    return excinfo.value


def test_unknown_global_key():
    e = err_of("bogus = 1")
    assert e.line == 1
    assert "unknown key 'bogus'" in str(e)
    assert "global scope" in str(e)


def test_unknown_section():
    for text, line in (("n = 2\n[quantum]", 2),
                       ("[verify]\nambient_samples = 5", 1)):
        e = err_of(text)
        assert e.line == line
        assert "unknown section" in str(e)


def test_key_not_valid_in_section():
    e = err_of("[grid]\nn = 2")
    assert e.line == 2
    assert "unknown key 'n' in [grid]" in str(e)


def test_missing_equals():
    e = err_of("[grid]\npoints 256")
    assert e.line == 2
    assert "expected key = value" in str(e)


def test_type_mismatch_int():
    e = err_of("[grid]\npoints = many")
    assert e.line == 2
    assert "expects int" in str(e)
    assert err_of("[grid]\npoints = 128.5").line == 2


def test_type_mismatch_float():
    e = err_of("[time]\nt_end = soon")
    assert e.line == 2
    assert "expects float" in str(e)


def test_duplicate_key():
    e = err_of("n = 2\nn = 3")
    assert e.line == 2
    assert "duplicate key 'n'" in str(e)
    assert "line 1" in str(e)


@pytest.mark.parametrize("text,needle", [
    ("n = 1", "n must be >= 2"),
    ("n = 110", "n must be <= 109, got 110"),
    # refused before any factorial or grid is built
    ("n = 1000000", "n must be <= 109, got 1000000"),
    ("[grid]\npoints = 16", "grid.points must be >= 32"),
    ("[initial]\nkind = torus", "initial.kind must be one of"),
    ("[initial]\nr0 = 0", "initial.r0 must be positive"),
    ("[initial]\namplitude = -0.1", "initial.amplitude must be >= 0"),
    ("[initial]\ntau = 0", "initial.tau must be positive"),
    ("[time]\nt_end = 0", "time.t_end must be positive"),
    ("[time]\ncfl_safety = 1.5", "cfl_safety must be in (0,1]"),
    ("[time]\ncfl_safety = 0", "cfl_safety must be in (0,1]"),
    ("[output]\nsnapshot_every = 0", "snapshot_every must be positive"),
    ("[initial]\nkind = bump\nr0 = 0.05\namplitude = 0.1",
     "min rho = -0.0499"),
    ("[time]\nt_end = 10.0", "limit analysis needs two records at t >= 10"),
    ("[time]\nt_end = 40\n[output]\nsnapshot_every = 50",
     "limit analysis needs two records at t >= 10"),
])
def test_invariant_violations(text, needle, tmp_path):
    e = refusal_of(text, tmp_path / "o")
    assert needle in str(e)
    assert e.line is None  # semantic, not syntactic


NON_FINITE = [
    ("[time]\nt_end = inf", "time.t_end must be finite, got inf"),
    ("[time]\nt_end = 1e308", "time.t_end / output.snapshot_every overflows"),
    ("[initial]\nr0 = inf", "initial.r0 must be finite, got inf"),
    ("[initial]\nkind = tau_family\ntau = inf",
     "initial.tau must be finite, got inf"),
    ("[initial]\namplitude = nan", "initial.amplitude must be finite"),
    ("[output]\nsnapshot_every = inf", "output.snapshot_every must be finite"),
]


@pytest.mark.parametrize("text,needle", NON_FINITE)
def test_non_finite_values_refused(text, needle):
    # each of these was accepted, or died in the record count with an
    # OverflowError, before any value had to be finite
    e = err_of(text)
    assert needle in str(e)
    assert e.line is None


def test_mean_convexity_refusal(tmp_path):
    # flow.checked_min_K's message: the node of the smallest H, its theta
    # and H, at t = 0, from the run; parse_config leaves the profile alone
    text = "[initial]\nkind = bump\nr0 = 1.0\namplitude = 0.9"
    assert parse_config(text).initial_amplitude == 0.9
    e = refusal_of(text, tmp_path / "o")
    assert str(e).startswith("initial profile is not mean convex: mean "
                             "convexity lost at t=0: H=-")
    assert " at node " in str(e) and "(theta=" in str(e)


def test_mean_convexity_check_is_the_stage_guard():
    # at r0 = 400, A = sinh^2 overflows and H = K/sqrt(A) underflows to 0,
    # which an H <= 0 test refused, though K > 0; at r0 = 800, H is NaN,
    # which an H <= 0 test admitted
    with np.errstate(all="ignore"):
        check_mean_convexity(ExperimentConfig(initial_r0=400.0))
        with pytest.raises(ConfigError) as excinfo:
            check_mean_convexity(ExperimentConfig(initial_r0=800.0))
    assert str(excinfo.value).startswith(
        "initial profile is not mean convex: non-finite state at t=0: "
        "H=nan at node 0 (theta=")


def test_check_mean_convexity_accepts_good_profiles():
    check_mean_convexity(ExperimentConfig())
    check_mean_convexity(ExperimentConfig(
        initial_kind="bump", initial_r0=3.0, initial_amplitude=0.1))


def test_check_mean_convexity_returns_the_configured_profile():
    cfg = ExperimentConfig(initial_kind="tau_family", initial_tau=5.0,
                           initial_amplitude=0.2, grid_points=64)
    profile = check_mean_convexity(cfg)
    assert profile.n == 2 and profile.rho.size == 64
    theta = cached_grid(2, 64).theta
    assert np.array_equal(profile.rho, 5.0 + 0.2 * np.cos(2 * theta))


# (key, attribute, value, message): one invalid value per case, the rest
# defaults, with the message each way of building the config gives
INVALID = [
    ("n", "n", 1, "n must be >= 2, got 1"),
    ("n", "n", 110, "n must be <= 109, got 110"),
    ("grid.points", "grid_points", 8, "grid.points must be >= 32, got 8"),
    ("initial.kind", "initial_kind", "torus",
     "initial.kind must be one of sphere, bump, tau_family, got 'torus'"),
    ("initial.r0", "initial_r0", 0.0, "initial.r0 must be positive, got 0.0"),
    ("initial.r0", "initial_r0", float("inf"),
     "initial.r0 must be finite, got inf"),
    ("initial.amplitude", "initial_amplitude", -0.1,
     "initial.amplitude must be >= 0, got -0.1"),
    ("initial.amplitude", "initial_amplitude", float("nan"),
     "initial.amplitude must be finite, got nan"),
    ("initial.tau", "initial_tau", 0.0,
     "initial.tau must be positive, got 0.0"),
    ("time.t_end", "t_end", 0.0, "time.t_end must be positive, got 0.0"),
    ("time.t_end", "t_end", 1e308,
     "time.t_end / output.snapshot_every overflows: 1e+308 / 0.5"),
    ("time.t_end", "t_end", 10.0,
     "limit analysis needs two records at t >= 10; time.t_end = 10 with "
     "output.snapshot_every = 0.5 gives fewer"),
    ("time.cfl_safety", "cfl_safety", 1.5,
     "time.cfl_safety must be in (0,1], got 1.5"),
    ("output.snapshot_every", "snapshot_every", 0.0,
     "output.snapshot_every must be positive, got 0.0"),
    ("output.snapshot_every", "snapshot_every", 50.0,
     "limit analysis needs two records at t >= 10; time.t_end = 40 with "
     "output.snapshot_every = 50 gives fewer"),
    # Path("") is the working directory, where a run would overwrite files
    ("output.dir", "output_dir", "", "output.dir must not be empty"),
    ("output.dir", "output_dir", " ", "output.dir must not be empty"),
]

# (attribute, value, message): a value of the wrong type, which only
# library code can pass, as the parser and override_config convert first
WRONG_TYPE = [
    ("n", 2.5, "n expects int, got 2.5"),
    ("n", True, "n expects int, got True"),
    ("grid_points", 64.0, "grid.points expects int, got 64.0"),
    ("initial_r0", "3", "initial.r0 expects float, got '3'"),
    ("initial_kind", None, "initial.kind expects str, got None"),
]


def test_every_way_of_building_refuses_invalid_values():
    for key, attr, value, message in INVALID:
        section, _, name = key.rpartition(".")
        text = f"[{section}]\n{name} = {value}" if section else \
            f"{name} = {value}"
        for build in (lambda: ExperimentConfig(**{attr: value}),
                      lambda: dataclasses.replace(ExperimentConfig(),
                                                  **{attr: value}),
                      lambda: parse_config(text),
                      lambda: override_config(ExperimentConfig(),
                                              [(key, str(value))])):
            with pytest.raises(ConfigError) as excinfo:
                build()
            assert str(excinfo.value) == message
            assert excinfo.value.line is None
    for attr, value, message in WRONG_TYPE:
        for build in (lambda: ExperimentConfig(**{attr: value}),
                      lambda: dataclasses.replace(ExperimentConfig(),
                                                  **{attr: value})):
            with pytest.raises(ConfigError) as excinfo:
                build()
            assert str(excinfo.value) == message


def test_record_window_boundary():
    # the accepted sides of the refusals in test_invariant_violations:
    # records at 10 and 10.4, and at 50 and 60, are two at t >= 10
    ExperimentConfig(t_end=10.4, snapshot_every=0.5)
    ExperimentConfig(t_end=60.0, snapshot_every=50.0)
    with pytest.raises(ConfigError, match="limit analysis"):
        override_config(ExperimentConfig(), [("output.snapshot_every", "50")])


def test_record_rule_cannot_overflow(tmp_path):
    # 10 / 1e-308 is no record index; the rule reads the run's own
    # schedule, whose record before the last falls before t = 10
    message = ("limit analysis needs two records at t >= 10; time.t_end = "
               "1e-300 with output.snapshot_every = 1e-308 gives fewer")
    pairs = [("time.t_end", "1e-300"), ("output.snapshot_every", "1e-308")]
    base = ExperimentConfig(output_dir=str(tmp_path / "sw"))
    for build in (
            lambda: parse_config("[time]\nt_end = 1e-300\n"
                                 "[output]\nsnapshot_every = 1e-308\n"),
            lambda: ExperimentConfig(t_end=1e-300, snapshot_every=1e-308),
            lambda: override_config(base, pairs),
            lambda: sweep(base, [(key, [val]) for key, val in pairs])):
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert str(excinfo.value) == message
    assert not (tmp_path / "sw").exists()


def test_override_dotted_key():
    base = ExperimentConfig()
    out = override_config(base, [("initial.tau", "5.5")])
    assert out.initial_tau == 5.5
    assert base.initial_tau == 4.0
    assert out.n == base.n


def test_override_sets_every_pair_in_one_replace():
    # snapshot_every = 50 alone is refused at the default t_end = 40;
    # set with t_end = 100 in one replace, in either order, it is not
    pairs = [("output.snapshot_every", "50"), ("time.t_end", "100")]
    out = override_config(ExperimentConfig(), pairs)
    assert (out.snapshot_every, out.t_end) == (50.0, 100.0)
    assert override_config(ExperimentConfig(), pairs[::-1]) == out


def test_override_bare_attribute():
    # sweep keys are section.key (or n); attribute names are not keys
    with pytest.raises(ConfigError) as excinfo:
        override_config(ExperimentConfig(), [("t_end", "10")])
    assert "unknown config key 't_end'" in str(excinfo.value)
    assert override_config(ExperimentConfig(), [("n", "3")]).n == 3


def test_override_unknown_key():
    with pytest.raises(ConfigError) as excinfo:
        override_config(ExperimentConfig(), [("quantum.flux", "1")])
    assert "unknown config key" in str(excinfo.value)


def test_override_bad_value():
    with pytest.raises(ConfigError) as excinfo:
        override_config(ExperimentConfig(), [("grid.points", "many")])
    assert "expects int" in str(excinfo.value)


def test_override_revalidates():
    with pytest.raises(ConfigError):
        override_config(ExperimentConfig(), [("grid.points", "16")])


def test_override_defers_convexity_to_run_time():
    # amplitude alone passes static validation; the run entry point is
    # responsible for the surface-level refusal
    out = override_config(ExperimentConfig(initial_kind="bump"),
                          [("initial.amplitude", "0.9")])
    assert out.initial_amplitude == 0.9
    with pytest.raises(ConfigError):
        check_mean_convexity(out)


def test_last_record_matches_run_flow(monkeypatch):
    # run_flow's own record loop, with each step landing on the next record
    # time; t_end sits on, just above and just below a cadence time.  The
    # records are on the cadence, and the last is the first within
    # RECORD_SNAP of t_end
    monkeypatch.setattr(flow, "step", lambda state, ctrl, dt_cap: (
        dataclasses.replace(state, t=state.t + dt_cap)))
    monkeypatch.setattr(flow, "diagnostics_record", lambda state: state.t)
    state0 = FlowState(t=0.0, profile=initial_profile(2, 32, 1.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        every = float(rng.uniform(0.05, 2.0))
        k = int(rng.integers(5, 300))
        for eps in (0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.3 * every):
            t_end = k * every + eps
            _, times = flow.run_flow(
                state0, StepControl(t_end=t_end, record_every=every))
            assert last_record(every, t_end) == (len(times) - 1, times[-1])
            assert times == [min(k * every, t_end)
                             for k in range(len(times))]
            assert times[-2] < t_end - RECORD_SNAP <= times[-1] <= t_end


def test_dense_cadence_validates_at_once():
    # 400,001 records: validation does no per-record work (tens of
    # microseconds, where a scan over the record times took 0.4 s)
    start = time.perf_counter()
    cfg = ExperimentConfig(t_end=40.0, snapshot_every=1e-4)
    assert time.perf_counter() - start < 0.05
    assert last_record(cfg.snapshot_every, cfg.t_end) == (400000, 40.0)
