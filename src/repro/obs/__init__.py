"""Opt-in campaign observability: tracing, metrics, and reporting.

The layer is **off by default** and activated per run with
:func:`session`; while no session is active every hook below is a
no-op closure - a module-global load plus a ``None`` check - so the
instrumented engine stays bit-identical to the uninstrumented one
(the PR-1 golden benchmarks and parallel-equivalence tests run with
tracing off and are unaffected; ``tests/obs`` asserts the traced run
is outcome-identical too).

Usage::

    from repro import obs
    from repro.obs.trace import write_jsonl

    with obs.session("trace-id", label="demo") as sess:
        fleet = run_fleet(specs, jobs=4)     # instrumented end to end
    write_jsonl("trace.jsonl", sess.export_records())

Worker processes never see the parent's session object: a
:class:`~repro.runtime.specs.CampaignSpec` with ``trace=True`` opens
its *own* session inside the worker and ships the collected records
and metrics back on its outcome; the parent merges them (metrics via
:meth:`MetricsRegistry.merge`, the same shape as ``TestStats.merge``)
and writes one self-contained JSON Lines file.  ``repro report``
renders that file back into per-level / per-vendor / per-phase tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .trace import NULL_SPAN, Span, Tracer, read_jsonl, write_jsonl

__all__ = [
    "MetricsRegistry", "ObsSession", "Tracer",
    "active", "detach", "enabled", "event", "inc", "observe",
    "session", "span", "read_jsonl", "write_jsonl",
]

_ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """One activated observability scope: a tracer plus a registry."""

    def __init__(self, trace_id: str, label: str = "") -> None:
        self.tracer = Tracer(trace_id, label=label)
        self.metrics = MetricsRegistry()

    def export_records(self) -> List[Dict[str, Any]]:
        """Trace records plus a metrics snapshot record.

        The metrics record makes a dumped trace file self-contained;
        :func:`repro.obs.report.render_report` folds every metrics
        record it finds back together with ``MetricsRegistry.merge``.
        """
        records = list(self.tracer.records)
        if len(self.metrics):
            records.append({"kind": "metrics",
                            "trace": self.tracer.trace_id,
                            **self.metrics.to_dict()})
        return records


def active() -> Optional[ObsSession]:
    """The active session, or None while observability is off."""
    return _ACTIVE


def enabled() -> bool:
    """Is an observability session active?  Instrumented code checks
    this before building costly metric or event payloads."""
    return _ACTIVE is not None


def detach() -> None:
    """Forget any active session without closing it.

    Worker-pool initializer: on fork-start platforms a freshly forked
    worker inherits the parent's ``_ACTIVE`` session, and anything it
    records into that copy is silently discarded when the worker
    exits.  Detaching first means a worker only ever records into a
    session it opened itself (``CampaignSpec.trace``), whose records
    ship back on the outcome.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def session(trace_id: str, label: str = "") -> Iterator[ObsSession]:
    """Activate observability for the duration of the block.

    Nested activation joins the outer session (records keep their
    original trace ID) instead of stacking - a spec traced inside an
    already-traced fleet contributes to the fleet's trace.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    _ACTIVE = ObsSession(trace_id, label=label)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = None


# -- instrumentation hooks (no-op closures while no session is active) --


def span(name: str, **attrs: Any):
    """Open a span under the active tracer, or return the null span."""
    sess = _ACTIVE
    if sess is None:
        return NULL_SPAN
    return sess.tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an event, or do nothing."""
    sess = _ACTIVE
    if sess is not None:
        sess.tracer.event(name, **attrs)


def inc(name: str, value: float = 1) -> None:
    """Bump a counter, or do nothing."""
    sess = _ACTIVE
    if sess is not None:
        sess.metrics.inc(name, value)


def observe(name: str, value: float) -> None:
    """Fold a histogram observation, or do nothing."""
    sess = _ACTIVE
    if sess is not None:
        sess.metrics.observe(name, value)
