"""Durability contracts of the checkpoint journal and seed-ladder
backoff: fsync mode, idempotent/signal-safe close, the read-only
loader, cross-process backoff determinism, and checkpoint-key
properties.

These are the satellites of the campaign service: the daemon leans on
``fsync=True`` journals, closes them from drain paths and signal
handlers, renders them live with :meth:`CheckpointJournal.read`, and
schedules retries with :func:`backoff_delay` computed in *different
processes* than the one that will honour them.
"""

import json
import pathlib
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (CampaignSpec, CheckpointJournal,
                           backoff_delay, chip_seed, run_fleet)

HERE = pathlib.Path(__file__).parent
SRC = HERE.parents[1] / "src"

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


# -- fsync mode ------------------------------------------------------------


class TestFsync:
    def test_fsync_journal_roundtrips(self, tmp_path):
        """A fleet checkpointed with ``checkpoint_fsync=True`` writes
        a journal an ordinary resume can consume."""
        ckpt = tmp_path / "fleet.ckpt"
        first = run_fleet(_specs(), jobs=1, checkpoint=str(ckpt),
                          checkpoint_fsync=True)
        resumed = run_fleet(_specs(), jobs=1, checkpoint=str(ckpt),
                            resume=True)
        assert resumed.checkpoint_hits == len(_specs())
        assert resumed.signatures() == first.signatures()

    def test_fsync_append_then_truncated_tail_tolerated(self, tmp_path):
        """fsync'd records survive; a torn final line does not poison
        them."""
        ckpt = tmp_path / "fleet.ckpt"
        spec = _specs()[0]
        journal = CheckpointJournal(str(ckpt), fsync=True)
        journal.record(spec, spec.run())
        journal.close()
        with open(ckpt, "a") as fh:
            fh.write('{"kind": "outcome", "key": "torn')  # no newline
        reopened = CheckpointJournal(str(ckpt), resume=True)
        try:
            assert reopened.has(spec)
            assert len(reopened) == 1
        finally:
            reopened.close()


# -- idempotent, signal-safe close ----------------------------------------


class TestClose:
    def test_close_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.ckpt"))
        journal.close()
        journal.close()  # second close is a no-op, not an error

    def test_append_after_close_raises(self, tmp_path):
        spec = _specs()[0]
        journal = CheckpointJournal(str(tmp_path / "j.ckpt"))
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.record(spec, spec.run())

    def test_close_swallows_reentrant_flush(self, tmp_path):
        """A close that interrupts ``record``'s buffered write gets the
        writer's reentrancy ``RuntimeError`` from ``flush()``; close is
        best effort, so it must not escape.  Deterministic stand-in for
        the signal race below: the file object raises on its own."""
        journal = CheckpointJournal(str(tmp_path / "j.ckpt"))
        real = journal._fh

        class Reentrant:
            closed = False

            def flush(self):
                raise RuntimeError(
                    "reentrant call inside <_io.BufferedWriter>")

            def fileno(self):
                return real.fileno()

            def close(self):
                raise AssertionError("close after a failed flush")

        journal._fh = Reentrant()
        journal.close()
        assert journal._fh is None
        journal.close()  # still idempotent
        real.close()

    def test_close_from_signal_handler_midstream(self, tmp_path):
        """A close racing in from a signal handler leaves a valid
        journal and the writer failing loudly, not corrupting.

        This is the drain-on-SIGTERM shape: the handler closes the
        journal while the main loop is still trying to append.
        """
        if not hasattr(signal, "setitimer"):
            pytest.skip("platform without setitimer")
        path = tmp_path / "j.ckpt"
        spec = _specs()[0]
        outcome = spec.run()
        journal = CheckpointJournal(str(path))

        def _close(signum, frame):
            journal.close()
            journal.close()  # reentrant double-close must hold too

        import dataclasses

        previous = signal.signal(signal.SIGALRM, _close)
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        try:
            with pytest.raises(ValueError, match="closed"):
                attempt = 0
                while True:  # appends until the handler closes us
                    attempt += 1
                    journal.record(
                        dataclasses.replace(spec, run_seed=attempt),
                        outcome)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # Every line that made it to disk is intact JSON.
        lines = path.read_text().splitlines()
        assert lines  # header at minimum
        for line in lines:
            json.loads(line)


# -- read-only loader ------------------------------------------------------


class TestRead:
    def test_read_matches_journal_and_tolerates_tail(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt"
        fleet = run_fleet(_specs(), jobs=1, checkpoint=str(ckpt))
        with open(ckpt, "a") as fh:
            fh.write('{"kind": "outcome", "key": "torn')
        records = CheckpointJournal.read(str(ckpt))
        assert [r["label"] for r in records] \
            == [o.signature()[0] for o in fleet.outcomes]
        assert all(r["kind"] == "outcome" for r in records)

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            CheckpointJournal.read(str(tmp_path / "absent.ckpt"))


# -- backoff determinism across processes ---------------------------------


BACKOFF_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest_backoff import spec_for
from repro.runtime import backoff_delay
vendor = sys.argv[2]
print(json.dumps([backoff_delay(spec_for(vendor), attempt)
                  for attempt in range(1, 6)]))
"""

HELPER = """\
from repro.runtime import CampaignSpec, chip_seed

def spec_for(vendor):
    return CampaignSpec(experiment="characterize", vendor=vendor,
                        index=1,
                        build_seed=chip_seed(7, vendor, 0, "build"),
                        run_seed=chip_seed(7, vendor, 0, "run"),
                        n_rows=32, sample_size=200, run_sweep=False)
"""


class TestBackoffAcrossProcesses:
    def test_backoff_identical_in_fresh_interpreter(self, tmp_path):
        """The retry ladder a daemon computes before dying is the one
        its replacement recomputes: no per-process randomness."""
        (tmp_path / "conftest_backoff.py").write_text(HELPER)
        for vendor in ("A", "B"):
            out = subprocess.run(
                [sys.executable, "-c", BACKOFF_CHILD, str(tmp_path),
                 vendor],
                env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, check=True)
            child_delays = json.loads(out.stdout)
            spec = CampaignSpec(
                experiment="characterize", vendor=vendor, index=1,
                build_seed=chip_seed(7, vendor, 0, "build"),
                run_seed=chip_seed(7, vendor, 0, "run"),
                n_rows=32, sample_size=200, run_sweep=False)
            assert child_delays == [backoff_delay(spec, attempt)
                                    for attempt in range(1, 6)]


# -- checkpoint-key properties ---------------------------------------------


_spec_fields = st.fixed_dictionaries({
    "experiment": st.sampled_from(["characterize", "compare"]),
    "vendor": st.sampled_from(["A", "B", "C"]),
    "index": st.integers(min_value=0, max_value=3),
    "build_seed": st.integers(min_value=0, max_value=2 ** 16),
    "run_seed": st.integers(min_value=0, max_value=2 ** 16),
    "n_rows": st.sampled_from([32, 64]),
    "sample_size": st.sampled_from([100, 200]),
    "run_sweep": st.booleans(),
    "rounds": st.integers(min_value=1, max_value=3),
})


class TestCheckpointKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(fields=_spec_fields)
    def test_key_is_stable(self, fields):
        """Same identity, same key - across fresh spec objects."""
        assert (CampaignSpec(**fields).checkpoint_key()
                == CampaignSpec(**fields).checkpoint_key())

    @settings(max_examples=60, deadline=None)
    @given(a=_spec_fields, b=_spec_fields)
    def test_distinct_identities_never_collide(self, a, b):
        """Different result-affecting fields, different key.

        The durable queue, the shard partitioner, the campaign IDs
        and the checkpoint journal all key on this digest; a
        collision would silently alias two different targets.
        """
        key_a = CampaignSpec(**a).checkpoint_key()
        key_b = CampaignSpec(**b).checkpoint_key()
        assert (key_a == key_b) == (a == b)
