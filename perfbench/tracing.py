"""Span recording around the public entry points of each layer.

The benchmark never edits the program: :class:`Tracer` wraps the
functions named in :data:`HOOKS` at the binding each caller uses (a
module global or a class attribute), records one span per call with a
parent link, and restores the originals on :meth:`Tracer.uninstall`.

Spans live in memory.  A process traced apart from the benchmark's
(the service daemon) writes its spans to ``spans-<pid>.jsonl`` in the
spool directory with :meth:`Tracer.flush`, and :func:`load_spool`
merges them afterwards.

A layer's *self* time is a span's duration minus the time its child
spans (same process and thread) cover; :func:`summarise` sums self
time and the per-call counts by span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# A span: [id, parent id, name, start, end, pid, thread id, counts].
Span = list

Counter = Callable[[tuple, dict, Any], Dict[str, float]]


def _rows_arg(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rows": len(args[1] if len(args) > 1 else kwargs["rows"])}


def _bank_rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rows": args[0].n_rows}


def _discovery(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"tests": result.n_discovery_tests}


def _recursion(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"tests": result.total_tests}


def _sweep(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return {"tests": schedule.total_rounds}


def _robust_sweep(args: tuple, kwargs: dict, result: Any
                  ) -> Dict[str, float]:
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return {"tests": result.rounds_executed + result.control_rounds,
            "rounds_executed": result.rounds_executed,
            "control_rounds": result.control_rounds,
            "quarantined": len(result.quarantine),
            "schedule_rounds": schedule.total_rounds}


def _campaign(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    counts = {"total_tests": result.total_tests,
              "detected": len(result.detected)}
    if result.stats is not None:
        counts["retention_waits"] = result.stats.retention_waits
    if result.quarantine is not None:
        counts["ecc_ambiguous"] = result.quarantine.reason_counts().get(
            "ecc-ambiguous", 0)
    return counts


def _first_seed(specs: Any) -> int:
    """Identifies a campaign's specs (``run_seed`` is unique per target)."""
    return min(spec.run_seed for spec in specs)


def _fleet(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    specs = args[0] if args else kwargs["targets"]
    outcomes = pickle.dumps(result.outcomes,
                            protocol=pickle.HIGHEST_PROTOCOL)
    return {"targets": len(result.outcomes) + len(result.errors),
            "attempts": result.attempts, "jobs": result.jobs,
            "outcome_bytes": len(outcomes),
            "first_seed": _first_seed(specs)}


def _queue_submit(args: tuple, kwargs: dict, result: Any
                  ) -> Dict[str, float]:
    specs = args[3] if len(args) > 3 else kwargs["specs"]
    return {"first_seed": _first_seed(specs)}


#: ``(module, owner or None, attribute, span name, counter)``.  An
#: owner names a class in the module whose method is wrapped; without
#: one the module global itself is the binding.
HOOKS: Tuple[Tuple[str, Optional[str], str, str, Optional[Counter]],
             ...] = (
    ("repro.dram.bank", "Bank", "write_rows", "dram.write", _rows_arg),
    ("repro.dram.bank", "Bank", "write_rows_patched", "dram.write",
     _rows_arg),
    ("repro.dram.bank", "Bank", "write_all", "dram.write", None),
    ("repro.dram.bank", "Bank", "retention_failures", "dram.read",
     _bank_rows),
    ("repro.dram.bank", "Bank", "retention_read_rows", "dram.read",
     _rows_arg),
    ("repro.dram.bank", "Bank", "retention_check_cells", "dram.read",
     _rows_arg),
    ("repro.dram.bank", "Bank", "retention_read_all", "dram.read", None),
    ("repro.core.detector", None, "find_initial_victims",
     "core.discovery", _discovery),
    ("repro.core.detector", None, "recursive_neighbour_search",
     "core.recursion", _recursion),
    ("repro.core.detector", None, "build_schedule", "core.schedule",
     None),
    ("repro.core.detector", None, "neighbour_aware_sweep", "core.sweep",
     _sweep),
    ("repro.robust.vote", None, "robust_sweep", "robust.sweep",
     _robust_sweep),
    ("repro.ecc.spec", None, "infer_ecc", "ecc.infer", None),
    ("repro.ecc.spec", None, "validate_inference", "ecc.validate", None),
    ("repro.ecc.ondie", "OnDieEcc", "transform_read",
     "ecc.transform_read", None),
    ("repro.runtime.specs", "CampaignSpec", "run", "campaign", _campaign),
    ("repro.service.daemon", None, "run_fleet", "fleet.run", _fleet),
    ("repro.runtime.resilience", "CheckpointJournal", "record",
     "checkpoint.record", None),
    ("repro.service.queue", "DurableQueue", "submit",
     "service.queue_submit", _queue_submit),
    ("repro.service.daemon", None, "spec_from_json", "service.protocol",
     None),
    ("repro.service.daemon", None, "read_message", "service.protocol",
     None),
    ("repro.service.daemon", None, "write_message", "service.protocol",
     None),
)

#: Span names that belong to a measured layer.  ``campaign`` is the
#: benchmark's per-target marker, so its self time counts as
#: unattributed.
LAYER_SPANS = frozenset(name for *_, name, _ in HOOKS) - {"campaign"}


class Tracer:
    """In-memory span recorder installed over :data:`HOOKS`."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str,
              counter: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                tracer._ids += 1
                span_id = tracer._ids
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            tracer.spans.append([span_id, parent, name, start, end,
                                 os.getpid(), threading.get_ident(),
                                 counts])
            return result

        return traced

    def flush(self) -> None:
        """Append this process's spans to its spool file and clear."""
        if not self.spans:
            return
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def load_spool(spool_dir: str) -> List[Span]:
    """Every span flushed to ``spool_dir`` by any process."""
    spans: List[Span] = []
    for entry in sorted(os.listdir(spool_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(spool_dir, entry)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


class Summary:
    """Per-name totals over a set of spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, Dict[str, float]] = {}

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0.0)

    @property
    def layer_self_s(self) -> float:
        return sum(v for k, v in self.self_s.items() if k in LAYER_SPANS)


def summarise(spans: Iterable[Span]) -> Summary:
    """Sum calls, wall time, self time and counts by span name."""
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = {}
    for span_id, parent, _n, start, end, pid, _t, _c in spans:
        if parent:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    out = Summary()
    for span_id, _p, name, start, end, pid, _t, counts in spans:
        wall = end - start
        out.calls[name] = out.calls.get(name, 0) + 1
        out.wall[name] = out.wall.get(name, 0.0) + wall
        out.self_s[name] = (out.self_s.get(name, 0.0) + wall
                            - child_time.get((pid, span_id), 0.0))
        if counts:
            bucket = out.counts.setdefault(name, {})
            for key, value in counts.items():
                bucket[key] = bucket.get(key, 0.0) + value
    return out
