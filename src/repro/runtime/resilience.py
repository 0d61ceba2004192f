"""Fault tolerance for fleet campaigns: checkpoints, deadlines, backoff.

Long fleet campaigns (the paper tests 144 chips) must survive partial
failure: a killed process, a hung worker, or an exhausted retry budget
should cost one target's progress, never the whole run.  This module
provides the pieces :func:`repro.runtime.fleet.run_fleet` composes:

* :class:`CheckpointJournal` - an append-only JSON Lines journal of
  completed outcomes, keyed by each spec's deterministic
  :meth:`~repro.runtime.specs.CampaignSpec.checkpoint_key`.  Every
  record is flushed as soon as its target completes, so a fleet killed
  mid-run resumes with the finished targets loaded from disk; in
  ``resume="verify"`` mode re-run results are checked byte-identical
  against the journal, which is how corrupted outcomes are caught.
* :func:`backoff_delay` - exponential backoff whose jitter comes from
  the SHA-256 seed ladder, so retry timing is itself a deterministic
  function of (spec identity, attempt number).
* :func:`deadline` - a ``SIGALRM``-based per-target deadline for the
  serial path (the parallel path's watchdog kills worker processes
  instead); exceeding it raises :class:`TargetTimeout`.
* :class:`TargetError` / :func:`render_degraded` - the per-target
  failure records a non-strict fleet carries instead of aborting, and
  the table that reports them.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import signal
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from .seeds import ladder_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .specs import CampaignOutcome, CampaignSpec

__all__ = [
    "CheckpointJournal", "CheckpointMismatch", "TargetError",
    "TargetTimeout", "backoff_delay", "deadline", "render_degraded",
]

CHECKPOINT_SCHEMA = 1

DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 30.0


class TargetTimeout(RuntimeError):
    """A target exceeded its per-target deadline."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"target exceeded its {timeout_s:g} s deadline")
        self.timeout_s = timeout_s


class CheckpointMismatch(RuntimeError):
    """A re-run outcome differs from the journaled one (corruption)."""

    def __init__(self, label: str) -> None:
        super().__init__(
            f"outcome for {label} does not match the checkpoint journal "
            f"(corrupted result or changed spec)")
        self.label = label


@dataclass
class TargetError:
    """One target's terminal failure in a non-strict fleet.

    Attributes:
        index: the target's position in the input spec list.
        label: ``spec.label()``.
        attempts: executions charged before giving up.
        kind: ``"exception"`` | ``"timeout"`` | ``"crash"`` |
            ``"corrupt"`` - the last failure's category.
        error: ``repr`` of the last failure.
    """

    index: int
    label: str
    attempts: int
    kind: str
    error: str


# -- deterministic backoff ------------------------------------------------


def backoff_delay(spec: "CampaignSpec", attempt: int,
                  base: float = DEFAULT_BACKOFF_BASE,
                  cap: float = DEFAULT_BACKOFF_CAP) -> float:
    """Delay before retry ``attempt`` (1-based) of ``spec``, seconds.

    Exponential (``base * 2**(attempt-1)``) with multiplicative jitter
    in ``[0.5, 1.5)`` drawn from the seed ladder, so the schedule is a
    pure function of (spec identity, attempt) - reproducible across
    processes and runs, yet decorrelated across targets.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    jitter = ladder_seed(spec.build_seed, "backoff", spec.experiment,
                         spec.vendor, spec.index, spec.run_seed,
                         attempt) / float(2 ** 63)
    return min(cap, base * (2 ** (attempt - 1)) * (0.5 + jitter))


# -- serial-path deadline -------------------------------------------------


@contextmanager
def deadline(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`TargetTimeout` if the block runs past the deadline.

    Uses ``SIGALRM``/``setitimer``, so it only arms on platforms that
    have it and only from the main thread; elsewhere it is a no-op
    (the parallel path enforces deadlines by killing workers and never
    needs this).  ``None`` or non-positive timeouts disable it.
    """
    if (not timeout_s or timeout_s <= 0
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise TargetTimeout(timeout_s)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- checkpoint journal ---------------------------------------------------


def signature_json(signature: Any) -> Any:
    """Canonical JSON form of ``CampaignOutcome.signature()``.

    Tuples become lists recursively, so a signature that round-tripped
    through the journal compares equal to a freshly computed one.
    """
    if isinstance(signature, (list, tuple)):
        return [signature_json(part) for part in signature]
    return signature


class CheckpointJournal:
    """Append-only JSON Lines journal of completed campaign outcomes.

    Format (one JSON object per line):

    * header: ``{"kind": "checkpoint", "schema": 1}``;
    * outcome: ``{"kind": "outcome", "key": <spec.checkpoint_key()>,
      "label": ..., "signature": <jsonable signature>, "payload":
      <base64(zlib(pickle(outcome)))>}``.

    Each record is written and flushed the moment its target
    completes, so a killed process loses at most the target it was
    executing.  Loading tolerates a truncated final line (the write
    the crash interrupted).  Recording a key that already exists
    verifies the new signature against the journaled one and raises
    :class:`CheckpointMismatch` on disagreement - the corruption
    detector behind ``resume="verify"``.

    ``fsync=True`` additionally fsyncs the journal after every append,
    so records survive power-loss-style kills (SIGKILL only loses
    unwritten *OS* buffers; a power cut loses the page cache too).
    The service daemon (:mod:`repro.service`) runs its journals in
    this mode; one fsync per completed *target* is bounded work that
    shrinks relative to campaign size, exactly like the flush.
    """

    def __init__(self, path: str, resume: bool = False,
                 fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._entries: Dict[str, Dict[str, Any]] = {}
        if resume and os.path.exists(path):
            self._read_existing()
            self._fh: Optional[Any] = open(path, "a")
        else:
            self._fh = open(path, "w")
            self._append({"kind": "checkpoint",
                          "schema": CHECKPOINT_SCHEMA})

    def _read_existing(self) -> None:
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # truncated tail from an interrupted write
                if record.get("kind") == "checkpoint":
                    if record.get("schema") != CHECKPOINT_SCHEMA:
                        raise ValueError(
                            f"{self.path}: unsupported checkpoint "
                            f"schema {record.get('schema')!r}")
                elif record.get("kind") == "outcome":
                    self._entries[record["key"]] = record

    def _append(self, record: Dict[str, Any]) -> None:
        # One local handle: a signal handler's close() detaches
        # ``self._fh`` mid-append, and the append must then fail on
        # the closed file (ValueError), not on a None attribute.
        fh = self._fh
        if fh is None:
            raise ValueError("checkpoint journal is closed")
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def __len__(self) -> int:
        return len(self._entries)

    def has(self, spec: "CampaignSpec") -> bool:
        return spec.checkpoint_key() in self._entries

    def signature_matches(self, spec: "CampaignSpec",
                          outcome: "CampaignOutcome") -> bool:
        """Whether ``outcome`` is byte-identical to the journaled one."""
        entry = self._entries[spec.checkpoint_key()]
        return entry["signature"] == signature_json(outcome.signature())

    def outcome(self, spec: "CampaignSpec"
                ) -> Optional["CampaignOutcome"]:
        """The journaled outcome for ``spec``, or None."""
        entry = self._entries.get(spec.checkpoint_key())
        if entry is None:
            return None
        raw = zlib.decompress(base64.b64decode(entry["payload"]))
        return pickle.loads(raw)

    def record(self, spec: "CampaignSpec",
               outcome: "CampaignOutcome") -> None:
        """Journal a completed outcome (flushed immediately).

        An existing entry for the same key is verified instead of
        rewritten; a signature mismatch raises
        :class:`CheckpointMismatch`.
        """
        key = spec.checkpoint_key()
        if key in self._entries:
            if not self.signature_matches(spec, outcome):
                raise CheckpointMismatch(spec.label())
            return
        # Level 1: about a third of the default level's time for a
        # few percent more bytes; readers only call zlib.decompress.
        payload = base64.b64encode(
            zlib.compress(pickle.dumps(outcome,
                                       protocol=pickle.HIGHEST_PROTOCOL),
                          1)
        ).decode("ascii")
        entry = {"kind": "outcome", "key": key, "label": spec.label(),
                 "signature": signature_json(outcome.signature()),
                 "payload": payload}
        self._entries[key] = entry
        self._append(entry)

    @staticmethod
    def read(path: str) -> List[Dict[str, Any]]:
        """Read a journal's outcome records without opening it to write.

        The read-only companion of ``resume=True``: ``repro report
        --journal`` uses it to inspect the journal of a *running*
        fleet, so it must neither create, truncate, nor append to the
        file.  Returns the ``{"kind": "outcome", ...}`` records in
        file order (payloads included), tolerating a truncated final
        line exactly like resume does; an unsupported schema still
        raises, because misreading a journal is worse than rejecting
        it.
        """
        records: List[Dict[str, Any]] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # truncated tail from an in-flight write
                if record.get("kind") == "checkpoint":
                    if record.get("schema") != CHECKPOINT_SCHEMA:
                        raise ValueError(
                            f"{path}: unsupported checkpoint schema "
                            f"{record.get('schema')!r}")
                elif record.get("kind") == "outcome":
                    records.append(record)
        return records

    def close(self) -> None:
        """Flush and close the journal; idempotent and signal-safe.

        The handle is detached *before* it is touched, so a second
        call - including a re-entrant one from a signal handler that
        interrupted the first - sees None and returns immediately
        instead of double-closing.  Errors from the final flush are
        swallowed: close() runs on every exit path of ``run_fleet``
        (interrupts included) and must never mask the original
        exception; every record was already flushed when it was
        appended.  That includes the ``RuntimeError`` a buffered file
        raises when a signal handler's close interrupts :meth:`record`
        inside its write ("reentrant call"): the interrupted write
        then finishes on the detached handle.
        """
        fh, self._fh = self._fh, None
        if fh is None or fh.closed:
            return
        try:
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            fh.close()
        except (OSError, ValueError, RuntimeError):  # best effort
            pass

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


# -- degraded-mode reporting ----------------------------------------------


def render_degraded(result: "Any") -> str:
    """Per-target status table for a (possibly) degraded fleet.

    Works off the result alone: successful outcomes are in submission
    order and each :class:`TargetError` carries its original index, so
    the input order is reconstructible without the spec list.
    """
    from ..analysis.tables import format_table

    errors = {error.index: error for error in result.errors}
    total = len(result.outcomes) + len(errors)
    successes = iter(result.outcomes)
    rows: List[List[object]] = []
    for index in range(total):
        error = errors.get(index)
        if error is not None:
            rows.append([error.label, f"failed ({error.kind})",
                         error.attempts, error.error])
        else:
            outcome = next(successes)
            rows.append([outcome.spec.label(), "ok", "", ""])
    table = format_table(["Target", "Status", "Attempts", "Error"], rows)
    tally = (f"{total - len(errors)}/{total} targets ok, "
             f"{len(errors)} failed")
    return f"degraded fleet: {tally}\n{table}"
