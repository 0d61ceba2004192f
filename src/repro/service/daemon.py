"""The campaign service daemon: ``repro serve``.

An asyncio daemon that accepts JSON campaign submissions over a unix
socket, shards them into the durable queue, and executes shards
through the existing :func:`~repro.runtime.fleet.run_fleet` machinery.
Robustness is the design center:

* **Admission control.**  The queue is bounded
  (``max_queued_targets``); a submission that would overflow it is
  rejected with a ``retry_after`` hint instead of growing memory
  without bound.  Rejections are counted (``proc.service.rejected``).
* **Fair-share scheduling.**  Shards are picked by the
  :class:`~repro.service.scheduler.FairShareScheduler`: least-served
  tenant first, then priority, then age - deterministic and
  starvation-free.
* **Crash safety.**  Every submission is journalled durably
  (fsync'd) *before* it is acknowledged, and every shard runs under a
  per-campaign :class:`~repro.runtime.resilience.CheckpointJournal`
  with ``fsync=True``.  A daemon killed mid-shard (SIGKILL, power
  loss) restarts, replays the queue journal, and re-runs exactly the
  unfinished shards - in ``resume="verify"`` mode the recovered
  outcomes are checked byte-identical against the journal
  (``tests/chaos/test_service_chaos.py``).
* **Shard retry.**  A shard whose fleet raises is retried with the
  deterministic seed-ladder backoff
  (:func:`~repro.runtime.resilience.backoff_delay`), then marked
  failed; a tenant that accumulates too many failed shards is
  degraded (parked shards, rejected submissions) instead of burning
  fleet capacity.
* **Graceful drain.**  SIGTERM (or the ``drain`` op) stops admission,
  finishes the in-flight shard, flushes the journals, and exits 0;
  queued shards stay durable for the next start.
* **Watchdogs.**  ``timeout_s`` passes through to ``run_fleet``'s
  per-target watchdog, so a hung target inside a shard is killed and
  retried, not waited on forever (requires ``jobs >= 2``; the serial
  in-thread path cannot arm ``SIGALRM``).

Lifecycle events flow through :mod:`repro.obs` as ``service.*`` events
and ``proc.service.*`` counters; on clean shutdown the session trace
is written to ``<state_dir>/service.trace.jsonl`` for ``repro
report``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from .. import obs
from ..runtime.fleet import FleetResult, run_fleet
from ..runtime.resilience import (DEFAULT_BACKOFF_BASE,
                                  DEFAULT_BACKOFF_CAP,
                                  CheckpointJournal, backoff_delay)
from ..runtime.seeds import ladder_seed
from .protocol import (ProtocolError, campaign_id, error_response,
                       read_message, spec_from_json, write_message)
from .queue import (DEFAULT_SHARD_SIZE, CampaignState, DurableQueue,
                    Shard)
from .scheduler import FairShareScheduler

__all__ = ["ReproService", "ServiceConfig", "serve"]

QUEUE_FILE = "queue.jsonl"
TRACE_FILE = "service.trace.jsonl"

#: Initial per-target wall-clock estimate feeding ``retry_after``
#: hints, refined by an EWMA over completed shards.
INITIAL_TARGET_COST_S = 1.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to run.

    Attributes:
        socket_path: unix socket the daemon listens on.
        state_dir: durable state directory (queue journal, one fleet
            checkpoint per campaign, shutdown trace).
        jobs: worker processes per shard (``run_fleet`` fan-out).
        shard_size: targets per shard.
        max_queued_targets: admission bound; submissions that would
            exceed it are rejected with ``retry_after``.
        retries: per-target retry budget inside a shard.
        shard_retries: extra attempts for a shard whose fleet raised.
        timeout_s: per-target watchdog deadline (parallel shards).
        max_tenant_failures: failed shards a tenant may accumulate
            before being degraded (``None`` = never).
        fsync: fsync the queue and checkpoint journals per record.
        resume_mode: how a shard whose campaign checkpoint already
            exists (i.e. after a crash or for a later shard) treats
            the journal: ``True`` skips journaled targets,
            ``"verify"`` re-runs them and requires byte-identical
            signatures.
        backoff_base / backoff_cap: deterministic retry backoff.
    """

    socket_path: str
    state_dir: str
    jobs: int = 1
    shard_size: int = DEFAULT_SHARD_SIZE
    max_queued_targets: int = 64
    retries: int = 2
    shard_retries: int = 1
    timeout_s: Optional[float] = None
    max_tenant_failures: Optional[int] = None
    fsync: bool = True
    resume_mode: Union[bool, str] = "verify"
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_cap: float = DEFAULT_BACKOFF_CAP

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.max_queued_targets < 1:
            raise ValueError("max_queued_targets must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        if (self.max_tenant_failures is not None
                and self.max_tenant_failures < 0):
            raise ValueError("max_tenant_failures must be >= 0")
        if self.resume_mode not in (True, "verify"):
            raise ValueError('resume_mode must be True or "verify"')

    def trace_id(self) -> str:
        digest = ladder_seed(0, "service", self.state_dir)
        return f"service#{digest:016x}"


class ReproService:
    """One daemon instance (see the module docstring for semantics)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue: Optional[DurableQueue] = None
        self.scheduler = FairShareScheduler(
            max_tenant_failures=config.max_tenant_failures)
        self._draining = False
        self._drain_reason = ""
        self._wake: Optional[asyncio.Event] = None
        self._settled: Optional[asyncio.Condition] = None
        self._target_cost = INITIAL_TARGET_COST_S

    # -- state helpers -----------------------------------------------------

    @property
    def state(self) -> str:
        return "draining" if self._draining else "running"

    def _ckpt_path(self, campaign: str) -> str:
        return os.path.join(self.config.state_dir, f"{campaign}.ckpt")

    def _retry_after(self, extra_targets: int) -> float:
        """How long until the queue likely has room for the rejected
        work: the pending backlog's estimated wall clock."""
        backlog = self.queue.pending_targets() if self.queue else 0
        estimate = (backlog * self._target_cost
                    / max(1, self.config.jobs))
        return max(0.5, min(estimate, 300.0))

    # -- shard execution ---------------------------------------------------

    def _run_shard(self, shard: Shard) -> FleetResult:
        """Execute one shard (called in a worker thread).

        The shard's targets run under the campaign's checkpoint
        journal with ``fsync``, so every completed target is durable
        before the next one starts; if the journal already exists
        (later shard, or restart after a kill) the configured
        ``resume_mode`` applies - ``"verify"`` re-runs journaled
        targets and requires byte-identical signatures.
        """
        ckpt = self._ckpt_path(shard.campaign)
        resume: Union[bool, str] = (self.config.resume_mode
                                    if os.path.exists(ckpt) else False)
        if resume:
            obs.inc("proc.service.resumed_shards")
        return run_fleet(
            shard.specs, jobs=self.config.jobs,
            retries=self.config.retries,
            timeout_s=self.config.timeout_s, checkpoint=ckpt,
            resume=resume, checkpoint_fsync=self.config.fsync,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap)

    async def _execute_shard(self, shard: Shard) -> None:
        campaign = self.queue.campaigns[shard.campaign]
        obs.event("service.shard_start", campaign=campaign.id,
                  shard=shard.index, tenant=campaign.tenant,
                  targets=len(shard.specs))
        attempt = 0
        started = time.monotonic()
        while True:
            attempt += 1
            try:
                await asyncio.to_thread(self._run_shard, shard)
            except Exception as exc:  # noqa: BLE001 - retried below
                if attempt <= self.config.shard_retries:
                    obs.event("service.shard_retry",
                              campaign=campaign.id, shard=shard.index,
                              attempt=attempt, error=repr(exc))
                    obs.inc("proc.service.shard_retries")
                    await asyncio.sleep(backoff_delay(
                        shard.specs[0], attempt,
                        self.config.backoff_base,
                        self.config.backoff_cap))
                    continue
                self.queue.mark_shard_failed(shard, repr(exc))
                obs.event("service.shard_failed",
                          campaign=campaign.id, shard=shard.index,
                          attempts=attempt, error=repr(exc))
                obs.inc("proc.service.shards_failed")
                self.scheduler.note_failure(campaign.tenant)
                break
            self.queue.mark_shard_done(shard)
            elapsed = time.monotonic() - started
            per_target = elapsed / max(1, len(shard.specs))
            self._target_cost = (0.7 * self._target_cost
                                 + 0.3 * per_target)
            obs.event("service.shard_done", campaign=campaign.id,
                      shard=shard.index, targets=len(shard.specs))
            obs.inc("proc.service.shards_done")
            obs.inc("proc.service.targets_done", len(shard.specs))
            obs.observe("service.shard_ms", elapsed * 1e3)
            break
        await self._settle(campaign)

    async def _settle(self, campaign: CampaignState) -> None:
        if campaign.settled and not campaign.done:
            self.queue.mark_campaign_done(campaign)
            obs.event("service.campaign_done", campaign=campaign.id,
                      failed_shards=campaign.failed_shards())
            obs.inc("proc.service.campaigns_done")
        async with self._settled:
            self._settled.notify_all()

    def _park_degraded(self) -> List[CampaignState]:
        """Fail pending shards of degraded tenants without running
        them; returns the campaigns whose state changed."""
        pending = self.queue.pending_shards()
        touched: Dict[str, CampaignState] = {}
        for shard in self.scheduler.degraded_shards(
                pending, self.queue.campaigns):
            self.queue.mark_shard_failed(shard, "tenant degraded")
            obs.inc("proc.service.parked_shards")
            touched[shard.campaign] = \
                self.queue.campaigns[shard.campaign]
        return list(touched.values())

    async def _work_loop(self) -> None:
        while not self._draining:
            for campaign in self._park_degraded():
                await self._settle(campaign)
            shard = self.scheduler.next_shard(
                self.queue.pending_shards(), self.queue.campaigns)
            if shard is None:
                self._wake.clear()
                if self._draining:
                    break
                await self._wake.wait()
                continue
            await self._execute_shard(shard)

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                message = read_message(line)
            except ProtocolError as exc:
                write_message(writer, error_response(str(exc)))
                return
            op = message.get("op")
            if op == "ping":
                write_message(writer, {"ok": True,
                                       "state": self.state})
            elif op == "submit":
                write_message(writer, self._op_submit(message))
            elif op == "status":
                write_message(writer, self._op_status(message))
            elif op == "results":
                await self._op_results(message, writer)
            elif op in ("drain", "shutdown"):
                self._begin_drain(op)
                write_message(writer, {"ok": True,
                                       "state": self.state})
            else:
                write_message(writer,
                              error_response(f"unknown op {op!r}"))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        tenant = str(message.get("tenant", "default"))
        try:
            priority = int(message.get("priority", 0))
        except (TypeError, ValueError):
            return error_response("priority must be an integer")
        raw_specs = message.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            return error_response("specs must be a non-empty list")
        try:
            specs = [spec_from_json(s) for s in raw_specs]
        except ProtocolError as exc:
            return error_response(str(exc))

        cid = campaign_id(tenant, specs)
        existing = self.queue.campaigns.get(cid)
        if existing is not None:
            # Idempotent resubmission: attach, costs no admission.
            return {"ok": True, "campaign": existing.id,
                    "shards": len(existing.shards),
                    "targets": existing.targets,
                    "done": existing.done, "attached": True}

        if self._draining:
            rejection = error_response("service is draining",
                                       retry_after=self._retry_after(
                                           len(specs)))
        elif self.scheduler.tenant(tenant).degraded:
            rejection = error_response(f"tenant {tenant!r} is "
                                       f"degraded")
        elif (self.queue.pending_targets() + len(specs)
                > self.config.max_queued_targets):
            rejection = error_response(
                "queue full",
                retry_after=self._retry_after(len(specs)))
        else:
            rejection = None
        if rejection is not None:
            obs.event("service.rejected", tenant=tenant,
                      targets=len(specs),
                      error=rejection["error"])
            obs.inc("proc.service.rejected")
            return rejection

        campaign = self.queue.submit(tenant, priority, specs)
        obs.event("service.submit", campaign=campaign.id,
                  tenant=tenant, targets=campaign.targets,
                  shards=len(campaign.shards), priority=priority)
        obs.inc("proc.service.submitted")
        obs.inc("proc.service.submitted_targets", campaign.targets)
        self._wake.set()
        return {"ok": True, "campaign": campaign.id,
                "shards": len(campaign.shards),
                "targets": campaign.targets, "done": False}

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        wanted = message.get("campaign")
        campaigns = [c.status() for c in
                     sorted(self.queue.campaigns.values(),
                            key=lambda c: c.seq)
                     if wanted is None or c.id == wanted]
        if wanted is not None and not campaigns:
            return error_response(f"unknown campaign {wanted!r}")
        session = obs.active()
        counters = (dict(session.metrics.counters)
                    if session is not None else {})
        return {"ok": True, "state": self.state,
                "campaigns": campaigns,
                "tenants": self.scheduler.status(),
                "pending_targets": self.queue.pending_targets(),
                "max_queued_targets": self.config.max_queued_targets,
                "corrupt_records": self.queue.corrupt_records,
                "counters": counters}

    async def _op_results(self, message: Dict[str, Any],
                          writer: asyncio.StreamWriter) -> None:
        cid = message.get("campaign")
        campaign = self.queue.campaigns.get(cid)
        if campaign is None:
            write_message(writer,
                          error_response(f"unknown campaign {cid!r}"))
            return
        if message.get("wait", True):
            async with self._settled:
                await self._settled.wait_for(
                    lambda: campaign.done or self._draining)
        if not campaign.done:
            write_message(writer, error_response(
                f"campaign {cid!r} incomplete "
                f"(service {self.state})"))
            return
        write_message(writer, {"ok": True, "campaign": campaign.id,
                               "targets": campaign.targets})
        journaled: Dict[str, Dict[str, Any]] = {}
        ckpt = self._ckpt_path(campaign.id)
        if os.path.exists(ckpt):
            journaled = {r["key"]: r
                         for r in CheckpointJournal.read(ckpt)}
        for spec in campaign.specs:  # submission order
            key = spec.checkpoint_key()
            entry = journaled.get(key)
            if entry is None:
                record = {"kind": "result", "label": spec.label(),
                          "key": key, "missing": True}
            else:
                record = {"kind": "result", "label": entry["label"],
                          "key": key,
                          "signature": entry["signature"]}
            write_message(writer, record)
            await writer.drain()
        write_message(writer, {
            "kind": "end", "campaign": campaign.id,
            "ok": not campaign.failed_shards(),
            "failed_shards": campaign.failed_shards()})

    # -- lifecycle ---------------------------------------------------------

    def _begin_drain(self, reason: str) -> None:
        if not self._draining:
            self._draining = True
            self._drain_reason = reason
            obs.event("service.drain", reason=reason)
            obs.inc("proc.service.drains")
        self._wake.set()
        # Unblock any `results --wait` clients so they see the drain.
        asyncio.get_event_loop().create_task(self._notify_settled())

    async def _notify_settled(self) -> None:
        async with self._settled:
            self._settled.notify_all()

    async def run(self) -> int:
        """Serve until drained; returns the process exit code."""
        config = self.config
        os.makedirs(config.state_dir, exist_ok=True)
        self._wake = asyncio.Event()
        self._settled = asyncio.Condition()
        self.queue = DurableQueue(
            os.path.join(config.state_dir, QUEUE_FILE),
            shard_size=config.shard_size, fsync=config.fsync)
        resumed = [c for c in self.queue.campaigns.values()
                   if not c.done]
        obs.event("service.start", socket=config.socket_path,
                  state_dir=config.state_dir, jobs=config.jobs,
                  resumed_campaigns=len(resumed))
        obs.inc("proc.service.starts")
        if resumed:
            obs.inc("proc.service.resumed_campaigns", len(resumed))
            self._wake.set()

        if os.path.exists(config.socket_path):
            os.unlink(config.socket_path)  # stale socket from a kill
        server = await asyncio.start_unix_server(
            self._handle, path=config.socket_path)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._begin_drain,
                    signal.Signals(signum).name.lower())
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without support
        try:
            await self._work_loop()
        finally:
            server.close()
            await server.wait_closed()
            self.queue.close()
            try:
                os.unlink(config.socket_path)
            except OSError:
                pass
            obs.event("service.stop", reason=self._drain_reason
                      or "drained")
        return 0


def serve(config: ServiceConfig) -> int:
    """Run the daemon under an observability session (sync entry).

    The session collects the ``service.*`` events and
    ``proc.service.*`` counters for the daemon's whole lifetime; on a
    clean exit the trace lands in ``<state_dir>/service.trace.jsonl``
    for ``repro report``.  A killed daemon writes no trace - its
    story is the queue journal, which ``repro report --journal``
    renders.
    """
    from ..obs.trace import write_jsonl

    with obs.session(config.trace_id(), label="service") as sess:
        code = asyncio.run(ReproService(config).run())
        records = sess.export_records()
    os.makedirs(config.state_dir, exist_ok=True)
    write_jsonl(os.path.join(config.state_dir, TRACE_FILE), records)
    return code
