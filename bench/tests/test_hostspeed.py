"""The host speed sampler: samples are spaced in time and scale as documented.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from pathlib import Path

import pytest

import hostspeed
from hostspeed import REFERENCE_S, HostSpeed


def test_tick_waits_for_the_interval():
    host = HostSpeed(interval=3600.0)
    host.tick()
    host.tick()
    assert len(host.samples) == 1
    host.sample()
    assert len(host.samples) == 2


def test_factor_is_reference_over_mean():
    host = HostSpeed()
    host.samples.extend([1e-3, 3e-3])
    assert host.mean_s() == pytest.approx(2e-3)
    assert host.factor() == pytest.approx(REFERENCE_S / 2e-3)


def test_kernel_is_fixed_work_outside_qkernel():
    source = Path(hostspeed.__file__).read_text()
    imported = {line.split()[1].split(".")[0] for line in source.splitlines()
                if line.startswith(("import ", "from "))}
    assert "qkernel" not in imported
    assert hostspeed.reference_kernel() == hostspeed.reference_kernel()
