"""Unit tests for the resilience layer: journal, backoff, deadlines,
degraded mode, and the pool-break retry-budget fix.

The scenario-level recovery proofs (seeded chaos schedules, SIGINT
resume, golden degraded report) live in ``tests/chaos``; this module
pins the contracts of the individual pieces.
"""

import os
import time

import pytest

from repro.runtime import (CampaignSpec, CheckpointJournal,
                           CheckpointMismatch, FleetExecutionError,
                           backoff_delay, chip_seed, run_fleet)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _specs(n_rows=32, sample_size=200):
    return [
        CampaignSpec(experiment="characterize", vendor=v, index=1,
                     build_seed=chip_seed(7, v, 0, "build"),
                     run_seed=chip_seed(7, v, 0, "run"),
                     n_rows=n_rows, sample_size=sample_size,
                     run_sweep=False)
        for v in ("A", "B", "C")
    ]


@pytest.fixture(scope="module")
def baseline():
    return run_fleet(_specs(), jobs=1)


# -- deterministic backoff ------------------------------------------------


class TestBackoff:
    def test_deterministic(self):
        spec = _specs()[0]
        assert backoff_delay(spec, 1) == backoff_delay(spec, 1)

    def test_exponential_envelope_and_jitter_range(self):
        spec = _specs()[0]
        for attempt in range(1, 6):
            delay = backoff_delay(spec, attempt, base=0.1, cap=1e9)
            lo = 0.1 * 2 ** (attempt - 1) * 0.5
            assert lo <= delay < 3 * lo

    def test_cap(self):
        spec = _specs()[0]
        assert backoff_delay(spec, 30, base=1.0, cap=2.5) == 2.5

    def test_zero_base_disables(self):
        assert backoff_delay(_specs()[0], 3, base=0.0) == 0.0

    def test_decorrelated_across_targets(self):
        a, b, c = _specs()
        delays = {backoff_delay(s, 1) for s in (a, b, c)}
        assert len(delays) == 3


# -- checkpoint keys and journal ------------------------------------------


class TestCheckpointKey:
    def test_stable_and_distinct(self):
        a, b, c = _specs()
        assert a.checkpoint_key() == a.checkpoint_key()
        assert len({s.checkpoint_key() for s in (a, b, c)}) == 3

    def test_sensitive_to_result_affecting_fields(self):
        import dataclasses
        spec = _specs()[0]
        assert spec.checkpoint_key() != dataclasses.replace(
            spec, n_rows=64).checkpoint_key()
        assert spec.checkpoint_key() != dataclasses.replace(
            spec, run_seed=spec.run_seed + 1).checkpoint_key()

    def test_insensitive_to_trace(self):
        import dataclasses
        spec = _specs()[0]
        assert spec.checkpoint_key() == dataclasses.replace(
            spec, trace=True).checkpoint_key()

    def test_chaos_wrapper_shares_key(self, tmp_path):
        spec = _specs()[0]
        wrapped = spec.with_faults(process=("transient",),
                                   chaos_dir=str(tmp_path))
        assert wrapped.checkpoint_key() == spec.checkpoint_key()


class TestJournal:
    def test_roundtrip(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        with CheckpointJournal(path) as journal:
            for spec, outcome in zip(_specs(), baseline.outcomes):
                journal.record(spec, outcome)
        reopened = CheckpointJournal(path, resume=True)
        assert len(reopened) == 3
        for spec, outcome in zip(_specs(), baseline.outcomes):
            assert reopened.has(spec)
            restored = reopened.outcome(spec)
            assert restored.signature() == outcome.signature()
            assert restored.stats.tests == outcome.stats.tests
        reopened.close()

    def test_truncated_tail_tolerated(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        with CheckpointJournal(path) as journal:
            for spec, outcome in zip(_specs(), baseline.outcomes):
                journal.record(spec, outcome)
        with open(path) as fh:
            lines = fh.readlines()
        # Simulate a crash mid-write of the final record.
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][:len(lines[-1]) // 2])
        reopened = CheckpointJournal(path, resume=True)
        assert len(reopened) == 2
        reopened.close()

    def test_mismatch_detected(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        spec = _specs()[0]
        with CheckpointJournal(path) as journal:
            journal.record(spec, baseline.outcomes[0])
            corrupted = run_fleet([spec]).outcomes[0]
            corrupted.distances = list(corrupted.distances) + [9999]
            assert not journal.signature_matches(spec, corrupted)
            with pytest.raises(CheckpointMismatch):
                journal.record(spec, corrupted)

    def test_fresh_journal_truncates(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        with CheckpointJournal(path) as journal:
            journal.record(_specs()[0], baseline.outcomes[0])
        with CheckpointJournal(path, resume=False) as journal:
            assert len(journal) == 0


# -- resume ---------------------------------------------------------------


class TestResume:
    def test_resume_skips_completed(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        partial = run_fleet(_specs()[:2], jobs=1, checkpoint=path)
        assert partial.checkpoint_hits == 0
        resumed = run_fleet(_specs(), jobs=1, checkpoint=path,
                            resume=True)
        assert resumed.checkpoint_hits == 2
        assert resumed.attempts == 1  # only vendor C executed
        assert resumed.signatures() == baseline.signatures()
        assert resumed.stats.tests == baseline.stats.tests

    def test_resume_parallel_matches_serial(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        run_fleet(_specs()[:1], jobs=1, checkpoint=path)
        resumed = run_fleet(_specs(), jobs=2, checkpoint=path,
                            resume=True)
        assert resumed.checkpoint_hits == 1
        assert resumed.signatures() == baseline.signatures()

    def test_verify_resume_reruns_and_matches(self, tmp_path, baseline):
        path = str(tmp_path / "fleet.ckpt")
        run_fleet(_specs(), jobs=1, checkpoint=path)
        verified = run_fleet(_specs(), jobs=1, checkpoint=path,
                             resume="verify")
        assert verified.checkpoint_hits == 0
        assert verified.attempts == 3
        assert verified.signatures() == baseline.signatures()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            run_fleet(_specs(), resume=True)
        with pytest.raises(ValueError):
            run_fleet(_specs(), checkpoint=None, resume="sometimes")


# -- graceful degradation -------------------------------------------------


class TestDegraded:
    def test_partial_outcomes_and_errors(self, tmp_path, baseline):
        specs = _specs()
        specs[1] = specs[1].with_faults(process=("transient",) * 4,
                                        chaos_dir=str(tmp_path))
        fleet = run_fleet(specs, jobs=1, retries=1, strict=False,
                          backoff_base=0.0)
        assert not fleet.ok
        assert [e.label for e in fleet.errors] == ["characterize:B1"]
        assert fleet.errors[0].attempts == 2
        assert fleet.errors[0].kind == "exception"
        assert [o.spec.vendor for o in fleet.outcomes] == ["A", "C"]
        expected = [baseline.signatures()[0], baseline.signatures()[2]]
        assert fleet.signatures() == expected

    def test_max_failures_budget(self, tmp_path):
        specs = _specs()
        specs[0] = specs[0].with_faults(process=("transient",) * 4,
                                        chaos_dir=str(tmp_path / "a"))
        specs[1] = specs[1].with_faults(process=("transient",) * 4,
                                        chaos_dir=str(tmp_path / "b"))
        for sub in ("a", "b"):
            os.makedirs(str(tmp_path / sub), exist_ok=True)
        with pytest.raises(FleetExecutionError):
            run_fleet(specs, jobs=1, retries=0, strict=False,
                      max_failures=1, backoff_base=0.0)

    def test_strict_default_still_raises(self, tmp_path):
        specs = _specs()
        specs[0] = specs[0].with_faults(process=("transient",) * 4,
                                        chaos_dir=str(tmp_path))
        with pytest.raises(FleetExecutionError):
            run_fleet(specs, jobs=1, retries=0, backoff_base=0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_fleet(_specs(), timeout_s=0)
        with pytest.raises(ValueError):
            run_fleet(_specs(), strict=False, max_failures=-1)


# -- serial deadline ------------------------------------------------------


class TestSerialDeadline:
    def test_hang_interrupted_and_recovered(self, tmp_path, baseline):
        specs = _specs()
        specs[0] = specs[0].with_faults(process=("hang",),
                                        chaos_dir=str(tmp_path), hang_s=30.0)
        t0 = time.perf_counter()
        fleet = run_fleet(specs, jobs=1, retries=1, timeout_s=2.0,
                          backoff_base=0.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 15.0  # nowhere near the 30 s hang
        assert fleet.signatures() == baseline.signatures()
        assert fleet.attempts == len(specs) + 1

    def test_exhausted_timeouts_degrade(self, tmp_path):
        specs = _specs()[:1]
        specs[0] = specs[0].with_faults(process=("hang", "hang"),
                                        chaos_dir=str(tmp_path), hang_s=30.0)
        fleet = run_fleet(specs, jobs=1, retries=1, timeout_s=0.3,
                          strict=False, backoff_base=0.0)
        assert not fleet.ok
        assert fleet.errors[0].kind == "timeout"


# -- pool-break retry budget (the overcharging fix) -----------------------


class TestPoolBreakBudget:
    def test_repeat_crasher_does_not_exhaust_innocents(
            self, tmp_path, baseline):
        """Two crashes with retries=2: under the old accounting every
        collateral ``BrokenProcessPool`` charged the innocent targets
        too; now casualties requeue free and only the isolated crasher
        pays."""
        specs = _specs()
        specs[1] = specs[1].with_faults(process=("crash", "crash"),
                                        chaos_dir=str(tmp_path), hang_s=1.0)
        fleet = run_fleet(specs, jobs=3, retries=2, backoff_base=0.01)
        assert fleet.signatures() == baseline.signatures()
        assert fleet.attempts > len(specs)

    def test_crasher_alone_is_charged_and_fails(self, tmp_path):
        specs = _specs()[:1]
        specs[0] = specs[0].with_faults(process=("crash",) * 5,
                                        chaos_dir=str(tmp_path))
        # Single-target fleets run serially; force the pool path with
        # a second clean target and strict failure on the crasher.
        specs.append(_specs()[1])
        with pytest.raises(FleetExecutionError) as err:
            run_fleet(specs, jobs=2, retries=1, backoff_base=0.01)
        assert "characterize:A1" in str(err.value)

    def test_degraded_crash_keeps_innocents(self, tmp_path, baseline):
        specs = _specs()
        specs[2] = specs[2].with_faults(process=("crash",) * 5,
                                        chaos_dir=str(tmp_path))
        fleet = run_fleet(specs, jobs=3, retries=1, strict=False,
                          backoff_base=0.01)
        assert [e.label for e in fleet.errors] == ["characterize:C1"]
        assert fleet.errors[0].kind == "crash"
        expected = baseline.signatures()[:2]
        assert fleet.signatures() == expected
