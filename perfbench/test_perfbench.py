"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import time

import numpy as np
import pytest

from perfbench import speed
from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_span()
        clock.now += 0.5
        leaf_span()

    def outer():
        clock.now += 3.0
        middle_span()
        counted()

    leaf_span = t.span("leaf", leaf)
    middle_span = t.span("middle", middle)
    counted = t.count("counted", lambda: None)
    t.span("outer", outer)()

    assert t.calls == {"outer": 1, "middle": 1, "leaf": 2, "counted": 1}
    assert t.incl["leaf"] == pytest.approx(4.0)
    assert t.self_time["leaf"] == pytest.approx(4.0)
    assert t.incl["middle"] == pytest.approx(5.5)
    assert t.self_time["middle"] == pytest.approx(1.5)
    assert t.incl["outer"] == pytest.approx(8.5)
    assert t.self_time["outer"] == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("gate")

    boom_span = t.span("boom", boom)

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            boom_span()

    t.span("outer", outer)()
    assert t.incl["boom"] == pytest.approx(1.0)
    assert t.self_time["outer"] == pytest.approx(2.0)


def test_install_rebinds_every_namespace_and_restores():
    from kerrloss import evolution, noise, oracle, superops

    originals = (noise.expm_propagate, oracle.expm_propagate, evolution.to_blocks,
                 superops.GeneratorAction.sparse_matrix)
    with tracing.install(tracing.Tracer()):
        # noise holds its own name for oracle's function
        assert noise.expm_propagate is oracle.expm_propagate
        assert noise.expm_propagate is not originals[0]
        assert evolution.to_blocks is not originals[2]
        assert superops.GeneratorAction.sparse_matrix is not originals[3]
    assert (noise.expm_propagate, oracle.expm_propagate, evolution.to_blocks,
            superops.GeneratorAction.sparse_matrix) == originals


def _flatten(value):
    """The numbers inside an input structure, in a fixed order."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _flatten(value[key])]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flatten(item)]
    if hasattr(value, "entries"):
        return list(np.ravel(value.entries))
    if hasattr(value, "kappa2"):
        return [value.omega, value.U, value.kappa1, value.kappa2]
    if hasattr(value, "n_max"):
        return [value.n_max]
    return [value]


@pytest.mark.parametrize("workload", ["evolve_warm", "scan_cold"])
def test_inputs_depend_only_on_the_seed(workload):
    make_inputs = WORKLOADS[workload][0]
    first, again, other = (_flatten(make_inputs(s)) for s in (7, 7, 8))
    assert first == again
    assert first != other


def test_speed_probe_clock_excludes_its_samples():
    with speed.SpeedProbe(interval=0.01) as probe:
        wall0, clock0, spent0 = time.perf_counter(), probe.clock(), probe.spent
        end = wall0 + 0.2
        while time.perf_counter() < end:
            pass
        wall, clock, spent = time.perf_counter(), probe.clock(), probe.spent
    assert len(probe.samples) >= 5
    assert spent > spent0
    assert abs((wall - wall0) - (clock - clock0) - (spent - spent0)) < 1e-3


def test_speed_is_the_mean_rate_of_the_samples():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_KERNEL_S, speed.REFERENCE_KERNEL_S / 2]
    # a host twice as fast for half the samples runs 1.5 times the reference
    assert probe.speed() == pytest.approx(1.5)
