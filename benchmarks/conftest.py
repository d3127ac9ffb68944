"""Shared session fixtures for the benchmark harness.

Building the workload (Tempo specializations for every paper array
size) is expensive; it is done once per session and shared.
"""

import pytest

from repro.bench.workloads import IntArrayWorkload


@pytest.fixture(scope="session")
def workload():
    return IntArrayWorkload()
