"""Daemon behaviour over the real socket: admission control and
backpressure, idempotent resubmission, shard retry, tenant
degradation, and protocol-level error handling.

Crash/kill/corruption recovery lives in
``tests/chaos/test_service_chaos.py``; this module covers the
daemon's steady-state contracts.
"""

import socket as socket_mod

import pytest

from repro.runtime import CampaignSpec, chip_seed
from repro.service import ServiceConfig, client
from tests.service.harness import start_daemon, stop_daemon


def _specs(n=3, rows=32, sample=200):
    vendors = ("A", "B", "C", "A", "B", "C")
    return [
        CampaignSpec(experiment="characterize", vendor=vendors[i],
                     index=1 + i // 3,
                     build_seed=chip_seed(11, vendors[i], i, "build"),
                     run_seed=chip_seed(11, vendors[i], i, "run"),
                     n_rows=rows, sample_size=sample,
                     run_sweep=False)
        for i in range(n)
    ]


class TestConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            ServiceConfig(socket_path="s", state_dir="d", jobs=0)
        with pytest.raises(ValueError):
            ServiceConfig(socket_path="s", state_dir="d",
                          max_queued_targets=0)
        with pytest.raises(ValueError):
            ServiceConfig(socket_path="s", state_dir="d",
                          resume_mode="later")


def test_overload_rejected_with_retry_after_then_accepted(tmp_path):
    """The bounded queue rejects overload with a retry hint, counts
    it, and accepts the same work once the backlog clears."""
    sock = tmp_path / "svc.sock"
    first, second = _specs(3), _specs(6)[3:]
    proc = start_daemon(sock, tmp_path / "state", shard_size=4,
                        max_queued_targets=4)
    try:
        accepted = client.submit(str(sock), first, tenant="t1")
        assert accepted["ok"]
        # 3 targets pending (one shard, still running or queued);
        # 3 more would exceed the bound of 4.
        with pytest.raises(client.ServiceRejected) as rejected:
            client.submit(str(sock), second, tenant="t2")
        assert rejected.value.retry_after > 0
        assert "queue full" in str(rejected.value)
        counters = client.status(str(sock))["counters"]
        assert counters.get("proc.service.rejected") == 1

        # Backlog drains -> the same submission is admitted.
        client.wait_results(str(sock), accepted["campaign"])
        retried = client.submit(str(sock), second, tenant="t2")
        assert retried["ok"] and not retried.get("attached")
        results = client.wait_results(str(sock), retried["campaign"])
        assert results["end"]["ok"]
    finally:
        assert stop_daemon(proc, sock) == 0


def test_resubmission_attaches_idempotently(tmp_path):
    sock = tmp_path / "svc.sock"
    specs = _specs(2)
    proc = start_daemon(sock, tmp_path / "state", shard_size=2)
    try:
        first = client.submit(str(sock), specs, tenant="t")
        again = client.submit(str(sock), list(reversed(specs)),
                              tenant="t")
        assert again["campaign"] == first["campaign"]
        assert again["attached"]
        counters = client.status(str(sock))["counters"]
        assert counters.get("proc.service.submitted") == 1
    finally:
        assert stop_daemon(proc, sock) == 0


def test_failing_shard_is_retried_with_backoff(tmp_path):
    """A shard whose fleet raises gets a second attempt; the chaos
    attempt counter makes that attempt clean."""
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    chaos_dir = state / "chaos"
    chaos_dir.mkdir(parents=True)
    specs = _specs(2)
    # retries=0 means the transient fault fails the whole fleet ->
    # the *shard* retry (not the fleet's) must recover it.
    specs[0] = specs[0].with_faults(process=("transient",),
                                    chaos_dir=str(chaos_dir))
    proc = start_daemon(sock, state, shard_size=2, retries=0,
                        shard_retries=1)
    try:
        response = client.submit(str(sock), specs, tenant="t")
        results = client.wait_results(str(sock),
                                      response["campaign"])
        assert results["end"]["ok"]
        assert all("signature" in r for r in results["results"])
        counters = client.status(str(sock))["counters"]
        assert counters.get("proc.service.shard_retries") == 1
        assert not counters.get("proc.service.shards_failed")
    finally:
        assert stop_daemon(proc, sock) == 0


def test_exhausted_tenant_is_degraded_and_locked_out(tmp_path):
    """A tenant whose shards keep failing is degraded: the campaign
    settles with failed shards and new submissions are refused."""
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    chaos_dir = state / "chaos"
    chaos_dir.mkdir(parents=True)
    doomed = _specs(2)
    doomed[0] = doomed[0].with_faults(process=("transient",) * 3,
                                      chaos_dir=str(chaos_dir))
    proc = start_daemon(sock, state, shard_size=2, retries=0,
                        shard_retries=1, max_tenant_failures=0)
    try:
        response = client.submit(str(sock), doomed, tenant="bad")
        results = client.wait_results(str(sock),
                                      response["campaign"])
        assert not results["end"]["ok"]
        assert results["end"]["failed_shards"] == [0]
        status = client.status(str(sock))
        assert status["tenants"]["bad"]["degraded"]
        assert status["counters"].get(
            "proc.service.degraded_tenants") == 1
        with pytest.raises(client.ServiceError, match="degraded"):
            client.submit(str(sock), _specs(1), tenant="bad")
        # Other tenants are unaffected.
        ok = client.submit(str(sock), _specs(1), tenant="good")
        assert client.wait_results(str(sock),
                                   ok["campaign"])["end"]["ok"]
    finally:
        assert stop_daemon(proc, sock) == 0


def test_protocol_errors_answered_not_fatal(tmp_path):
    sock = tmp_path / "svc.sock"
    proc = start_daemon(sock, tmp_path / "state")
    try:
        with pytest.raises(client.ServiceError, match="unknown op"):
            client.request(str(sock), {"op": "explode"})
        with pytest.raises(client.ServiceError, match="non-empty"):
            client.request(str(sock), {"op": "submit", "specs": []})
        with pytest.raises(client.ServiceError, match="unknown spec"):
            client.request(str(sock), {
                "op": "submit",
                "specs": [{"experiment": "characterize",
                           "vendor": "A", "surprise": 1}]})
        with pytest.raises(client.ServiceError,
                           match="unknown campaign"):
            client.status(str(sock), campaign="c000")
        # Raw garbage on the wire gets an error response, and the
        # daemon keeps serving afterwards.
        with socket_mod.socket(socket_mod.AF_UNIX,
                               socket_mod.SOCK_STREAM) as raw:
            raw.connect(str(sock))
            raw.sendall(b"this is not json\n")
            assert b'"ok": false' in raw.recv(4096)
        assert client.ping(str(sock))["ok"]
    finally:
        assert stop_daemon(proc, sock) == 0


def test_results_for_missing_campaign_errors(tmp_path):
    sock = tmp_path / "svc.sock"
    proc = start_daemon(sock, tmp_path / "state")
    try:
        with pytest.raises(client.ServiceError,
                           match="unknown campaign"):
            client.wait_results(str(sock), "c-missing")
    finally:
        assert stop_daemon(proc, sock) == 0
