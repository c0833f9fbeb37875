"""Shared flow runs for the test suite.

The long runs (t_end = 40) are the expensive part of testing, so each is
executed once per session and shared between the module tests and the
acceptance checks.
"""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from qimcf import (DiagnosticsRecord, FlowState, RadialProfile, StepControl,
                   initial_profile, run_flow)


@dataclass(frozen=True)
class RunData:
    final: FlowState
    records: List[DiagnosticsRecord]
    snapshots: List[Tuple[float, RadialProfile]]


def execute_run(grid_size: int, r0: float, amplitude: float = 0.0,
                t_end: float = 40.0) -> RunData:
    profile = initial_profile(2, grid_size, r0, amplitude)
    snapshots = []

    def keep(state, record):
        snapshots.append((state.t, state.profile))

    final, records = run_flow(FlowState(t=0.0, profile=profile),
                              StepControl(t_end=t_end), observers=[keep])
    return RunData(final=final, records=records, snapshots=snapshots)


@pytest.fixture(scope="session")
def sphere_run():
    return execute_run(256, 2.0)


@pytest.fixture(scope="session")
def bump_run():
    return execute_run(256, 3.0, 0.1)


@pytest.fixture(scope="session")
def bump_run_fine():
    return execute_run(512, 3.0, 0.1)


@pytest.fixture(scope="session")
def tau_run():
    return execute_run(256, 4.0, 0.1)


@pytest.fixture(scope="session")
def tau_run_fine():
    return execute_run(512, 4.0, 0.1)
