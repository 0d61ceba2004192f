"""Service-level chaos: kill, hang, corrupt - and recover verified.

Each scenario drives a *real* daemon subprocess over its unix socket
(the same entry point ``repro serve`` uses) and asserts the service's
core guarantee: whatever dies mid-flight, a restarted daemon finishes
the campaign with result signatures byte-identical to an unperturbed
in-process ``run_fleet`` - not merely "it completed", but *verified*
(the daemon's default ``resume_mode="verify"`` re-checks journaled
outcomes on the way back up).

The faults are seeded through :func:`repro.runtime.service_chaos_plan`
so every run of this suite kills the same shard at the same target for
a given seed; the kill test sweeps three seeds to move the crash
around the shard layout.
"""

import time

import pytest

from repro.runtime import corrupt_queue_record, service_chaos_plan
from repro.runtime.chaos import CRASH_EXIT_CODE
from repro.service import client
from tests.service.harness import (result_signature_map,
                                   signature_map, start_daemon,
                                   stop_daemon)

from .conftest import small_specs

SHARD_SIZE = 2


def _submit_and_expect_crash(tmp_path, wrapped, proc):
    """Submit the armed campaign and wait for the daemon to die."""
    sock = str(tmp_path / "svc.sock")
    response = client.submit(sock, wrapped, tenant="chaos")
    assert response["ok"] and response["shards"] == 2
    returncode = proc.wait(timeout=120)
    assert returncode == CRASH_EXIT_CODE  # injected os._exit, nothing else
    return response["campaign"]


@pytest.mark.parametrize("seed", [7, 19, 41])
def test_kill_daemon_mid_shard_recovers_byte_identical(
        tmp_path, clean_baseline, seed):
    """SIGKILL-equivalent mid-shard: restart resumes and verifies.

    The seeded ``kill-daemon`` fault fires ``os._exit`` inside a
    target while the daemon executes the shard in-process - the
    daemon dies between two fsync'd checkpoint appends, exactly like
    a kill -9.  A fresh daemon on the same state dir must replay the
    queue, re-run only what never finished (``resume="verify"``
    re-checks what did), and deliver signatures identical to the
    clean baseline.
    """
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    chaos_dir = state / "chaos"
    chaos_dir.mkdir(parents=True)

    specs = small_specs()
    wrapped = service_chaos_plan(seed, specs, str(chaos_dir), SHARD_SIZE,
                                 kinds=("kill-daemon",))

    proc = start_daemon(sock, state, shard_size=SHARD_SIZE)
    try:
        campaign = _submit_and_expect_crash(tmp_path, wrapped, proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The kill left durable state behind: the submit record at
    # minimum, and whatever checkpoint appends beat the crash.
    assert (state / "queue.jsonl").exists()

    restarted = start_daemon(sock, state, shard_size=SHARD_SIZE)
    try:
        results = client.wait_results(str(sock), campaign,
                                      timeout=300.0)
        assert results["end"]["ok"], results["end"]
        assert (result_signature_map(results["results"])
                == signature_map(clean_baseline))
        status = client.status(str(sock))
        counters = status["counters"]
        assert counters.get("proc.service.resumed_campaigns") == 1
        assert status["corrupt_records"] == 0
    finally:
        assert stop_daemon(restarted, sock) == 0


def test_hang_shard_killed_by_watchdog_and_retried(tmp_path,
                                                   clean_baseline):
    """A target hanging past the watchdog does not wedge the daemon.

    With ``jobs=2`` the shard runs under ``run_fleet``'s parallel
    watchdog: the injected hang is killed at the deadline, the
    cross-process attempt counter advances, and the retry runs clean
    - all inside one daemon lifetime.
    """
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    chaos_dir = state / "chaos"
    chaos_dir.mkdir(parents=True)

    specs = small_specs()
    wrapped = service_chaos_plan(5, specs, str(chaos_dir), SHARD_SIZE,
                                 kinds=("hang-shard",), hang_s=120.0)

    proc = start_daemon(sock, state, shard_size=SHARD_SIZE, jobs=2,
                        timeout_s=5.0)
    try:
        response = client.submit(str(sock), wrapped, tenant="chaos")
        results = client.wait_results(str(sock),
                                      response["campaign"],
                                      timeout=300.0)
        assert results["end"]["ok"], results["end"]
        assert (result_signature_map(results["results"])
                == signature_map(clean_baseline))
        counters = client.status(str(sock))["counters"]
        # The hang cost a fleet-level retry, not a shard failure.
        assert not counters.get("proc.service.shards_failed")
    finally:
        assert stop_daemon(proc, sock) == 0


def test_corrupt_queue_record_is_detected_and_shard_rerun(tmp_path,
                                                          clean_baseline):
    """Bit rot in the queue journal: detected, dropped, re-run.

    A tampered ``shard_done`` record fails its CRC on replay; the
    restarted daemon counts it, treats the shard as pending again,
    and re-runs it under checkpoint verification - so the corruption
    costs one shard of compute, never wrong results.
    """
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    specs = small_specs()

    proc = start_daemon(sock, state, shard_size=SHARD_SIZE)
    try:
        response = client.submit(str(sock), specs, tenant="chaos")
        campaign = response["campaign"]
        client.wait_results(str(sock), campaign, timeout=300.0)
    finally:
        assert stop_daemon(proc, sock) == 0

    corrupt_queue_record(str(state / "queue.jsonl"), seed=3,
                         kinds=("shard_done",))

    restarted = start_daemon(sock, state, shard_size=SHARD_SIZE)
    try:
        status = client.status(str(sock))
        assert status["corrupt_records"] == 1
        assert status["counters"].get(
            "proc.service.corrupt_records") == 1
        results = client.wait_results(str(sock), campaign,
                                      timeout=300.0)
        assert (result_signature_map(results["results"])
                == signature_map(clean_baseline))
        # Wait for the re-run of the dropped shard to settle before
        # draining, then confirm it actually ran (and verified).
        give_up = time.monotonic() + 120.0
        while time.monotonic() < give_up:
            status = client.status(str(sock))
            if status["pending_targets"] == 0:
                break
            time.sleep(0.05)
        assert status["pending_targets"] == 0
        assert status["counters"].get("proc.service.shards_done") == 1
    finally:
        assert stop_daemon(restarted, sock) == 0


def test_sigterm_drains_gracefully_and_restart_completes(
        tmp_path, clean_baseline):
    """SIGTERM = graceful drain: exit 0, durable queue, clean resume."""
    import signal as signal_mod

    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    specs = small_specs()

    proc = start_daemon(sock, state, shard_size=1)
    try:
        response = client.submit(str(sock), specs, tenant="chaos")
        campaign = response["campaign"]
        time.sleep(0.3)  # let the first shard get in flight
        proc.send_signal(signal_mod.SIGTERM)
        assert proc.wait(timeout=120) == 0  # drained, not killed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    restarted = start_daemon(sock, state, shard_size=1)
    try:
        results = client.wait_results(str(sock), campaign,
                                      timeout=300.0)
        assert results["end"]["ok"], results["end"]
        assert (result_signature_map(results["results"])
                == signature_map(clean_baseline))
    finally:
        assert stop_daemon(restarted, sock) == 0
