"""Differential tests: parallel fleets are identical to serial ones.

The central guarantee of :mod:`repro.runtime`: for any ``jobs``
setting, :func:`run_fleet` produces the same distances, detected sets
and test counts as the serial path - including when workers crash and
targets are retried, because every outcome is a pure function of its
spec's seeds.
"""

import os
from dataclasses import dataclass

import pytest

from repro.dram.controller import TestStats as Stats
from repro.runtime import (CampaignSpec, FleetExecutionError, chip_seed,
                           run_fleet)


def _characterize_specs(n_rows=48, sample_size=400):
    return [
        CampaignSpec(experiment="characterize", vendor=v, index=1,
                     build_seed=chip_seed(11, v, 0, "build"),
                     run_seed=chip_seed(11, v, 0, "run"),
                     n_rows=n_rows, sample_size=sample_size)
        for v in ("A", "B", "C")
    ]


@pytest.fixture(scope="module")
def serial_baseline():
    return run_fleet(_characterize_specs(), jobs=1)


def _assert_equivalent(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.spec.label() == y.spec.label()
        assert x.distances == y.distances
        assert x.detected == y.detected
        assert x.total_tests == y.total_tests
        assert x.tests_per_level == y.tests_per_level
    assert a.signatures() == b.signatures()
    assert a.stats.tests == b.stats.tests
    assert a.stats.rows_written == b.stats.rows_written
    assert a.stats.rows_read == b.stats.rows_read
    assert a.stats.retention_waits == b.stats.retention_waits


def test_jobs4_identical_to_serial_all_vendors(serial_baseline):
    parallel = run_fleet(_characterize_specs(), jobs=4)
    _assert_equivalent(serial_baseline, parallel)
    assert parallel.jobs == 3  # capped at the number of targets


def test_jobs2_identical_to_serial(serial_baseline):
    _assert_equivalent(serial_baseline,
                       run_fleet(_characterize_specs(), jobs=2))


def test_compare_experiment_identical_across_jobs():
    specs = [CampaignSpec(experiment="compare", vendor=v, index=1,
                          build_seed=chip_seed(23, v, 0, "build"),
                          run_seed=chip_seed(23, v, 0, "run") % 2**31,
                          n_rows=32)
             for v in ("A", "B")]
    serial = run_fleet(specs, jobs=1)
    parallel = run_fleet(specs, jobs=4)
    _assert_equivalent(serial, parallel)
    for x, y in zip(serial.outcomes, parallel.outcomes):
        assert x.comparison == y.comparison


def test_outcomes_keep_submission_order():
    fleet = run_fleet(_characterize_specs(), jobs=3)
    assert [o.spec.vendor for o in fleet.outcomes] == ["A", "B", "C"]


def test_empty_fleet():
    fleet = run_fleet([], jobs=4)
    assert fleet.outcomes == []
    assert fleet.stats.tests == 0


# -- failure injection ----------------------------------------------------


@dataclass(frozen=True)
class CrashOnceSpec(CampaignSpec):
    """Hard-kills its process on first execution (sentinel on disk)."""

    sentinel: str = ""

    def run(self):
        if self.sentinel and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(13)  # simulates a segfaulting worker
        return super().run()


@dataclass(frozen=True)
class FlakyOnceSpec(CampaignSpec):
    """Raises on first execution, succeeds afterwards."""

    sentinel: str = ""

    def run(self):
        if self.sentinel and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            raise RuntimeError("injected transient failure")
        return super().run()


@dataclass(frozen=True)
class AlwaysFailSpec(CampaignSpec):
    """Never succeeds."""

    sentinel: str = ""

    def run(self):
        raise RuntimeError("injected permanent failure")


def _with_crash(specs, crash_index, cls, sentinel):
    out = list(specs)
    s = out[crash_index]
    out[crash_index] = cls(
        experiment=s.experiment, vendor=s.vendor, index=s.index,
        build_seed=s.build_seed, run_seed=s.run_seed, n_rows=s.n_rows,
        sample_size=s.sample_size, run_sweep=s.run_sweep,
        sentinel=sentinel)
    return out


def test_worker_crash_is_retried_and_result_unchanged(tmp_path,
                                                      serial_baseline):
    """A dying worker breaks the pool; the rebuilt pool re-runs the
    unfinished targets and the fleet result is still byte-identical."""
    sentinel = str(tmp_path / "crashed")
    specs = _with_crash(_characterize_specs(), 1, CrashOnceSpec, sentinel)
    fleet = run_fleet(specs, jobs=3, retries=2)
    assert os.path.exists(sentinel)
    assert fleet.attempts > len(specs)
    _assert_equivalent(serial_baseline, fleet)


def test_serial_exception_is_retried_and_result_unchanged(tmp_path,
                                                          serial_baseline):
    sentinel = str(tmp_path / "flaked")
    specs = _with_crash(_characterize_specs(), 2, FlakyOnceSpec, sentinel)
    fleet = run_fleet(specs, jobs=1, retries=2)
    assert fleet.attempts == len(specs) + 1
    _assert_equivalent(serial_baseline, fleet)


def test_parallel_exception_is_retried_and_result_unchanged(
        tmp_path, serial_baseline):
    sentinel = str(tmp_path / "flaked-parallel")
    specs = _with_crash(_characterize_specs(), 0, FlakyOnceSpec, sentinel)
    fleet = run_fleet(specs, jobs=2, retries=2)
    assert fleet.attempts > len(specs)
    _assert_equivalent(serial_baseline, fleet)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhausted_retries_raise(jobs):
    specs = _with_crash(_characterize_specs(), 0, AlwaysFailSpec, "")
    with pytest.raises(FleetExecutionError) as err:
        run_fleet(specs, jobs=jobs, retries=1)
    assert "characterize:A1" in str(err.value)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        run_fleet(_characterize_specs(), jobs=-1)
    with pytest.raises(ValueError):
        run_fleet(_characterize_specs(), retries=-1)
    with pytest.raises(ValueError):
        CampaignSpec(experiment="nonsense", vendor="A")


@pytest.mark.parametrize("field, value", [("n_rows", 0), ("n_rows", -3),
                                          ("sample_size", -1)])
def test_impossible_geometry_refused_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        CampaignSpec(experiment="characterize", vendor="A",
                     **{field: value})
    CampaignSpec(experiment="characterize", vendor="A", n_rows=1,
                 sample_size=0)


def test_stats_merge_matches_outcome_sum(serial_baseline):
    merged = Stats.merge(o.stats for o in serial_baseline.outcomes)
    assert merged.tests == serial_baseline.stats.tests
    assert merged.rows_written == serial_baseline.stats.rows_written
