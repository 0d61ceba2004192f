"""Synchronous client for the campaign service.

Thin by design: one connection per request, line-framed JSON both
ways (see :mod:`repro.service.protocol`).  The CLI (``repro submit``,
``repro status``) and the test/benchmark harnesses all go through
these helpers, so the daemon is only ever exercised over its real
wire protocol.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..runtime.specs import CampaignSpec
from .protocol import (ProtocolError, read_message, spec_to_json,
                       write_message)

__all__ = [
    "ServiceError", "ServiceRejected", "drain", "ping", "request",
    "status", "stream", "submit", "wait_for_service", "wait_results",
]

DEFAULT_TIMEOUT_S = 120.0


class ServiceError(RuntimeError):
    """The service answered ``ok: false`` (or not at all)."""

    def __init__(self, message: str, response: Optional[Dict[str, Any]]
                 = None) -> None:
        super().__init__(message)
        self.response = response or {}


class ServiceRejected(ServiceError):
    """An admission-control rejection; carries the retry hint."""

    @property
    def retry_after(self) -> float:
        return float(self.response.get("retry_after", 0.0))


def _connect(socket_path: str, timeout: float) -> socket.socket:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    conn.connect(socket_path)
    return conn


def stream(socket_path: str, message: Dict[str, Any],
           timeout: float = DEFAULT_TIMEOUT_S
           ) -> Iterator[Dict[str, Any]]:
    """Send one request and yield every response line."""
    with _connect(socket_path, timeout) as conn:
        with conn.makefile("rw", encoding="utf-8") as stream_fh:
            write_message(stream_fh, message)
            for line in stream_fh:
                try:
                    yield read_message(line)
                except ProtocolError:
                    return  # daemon died mid-stream; partial is partial


def request(socket_path: str, message: Dict[str, Any],
            timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, Any]:
    """Send one request, return its single response.

    Raises :class:`ServiceRejected` when the response carries a
    ``retry_after`` hint, :class:`ServiceError` for any other
    ``ok: false`` answer or a connection that closed without one.
    """
    for response in stream(socket_path, message, timeout=timeout):
        if response.get("ok", False):
            return response
        error = str(response.get("error", "request failed"))
        if response.get("retry_after"):
            raise ServiceRejected(error, response)
        raise ServiceError(error, response)
    raise ServiceError("service closed the connection without a "
                       "response")


def ping(socket_path: str,
         timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, Any]:
    """Check the daemon answers; the response carries its ``state``."""
    return request(socket_path, {"op": "ping"}, timeout=timeout)


def submit(socket_path: str, specs: Sequence[CampaignSpec],
           tenant: str = "default", priority: int = 0,
           timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, Any]:
    """Submit ``specs`` as one campaign of ``tenant``.

    Idempotent: resubmitting the same specs attaches to the existing
    campaign.  The response names the ``campaign`` id and its shard
    and target counts.  A draining daemon or a full queue raises
    :class:`ServiceRejected` (with a ``retry_after`` hint), a degraded
    tenant :class:`ServiceError`.
    """
    message = {"op": "submit", "tenant": tenant,
               "priority": int(priority),
               "specs": [spec_to_json(s) for s in specs]}
    return request(socket_path, message, timeout=timeout)


def status(socket_path: str, campaign: Optional[str] = None,
           timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, Any]:
    """The daemon's state, per-campaign progress (only ``campaign``'s
    when given), tenant fair-share standing and queue counters."""
    message: Dict[str, Any] = {"op": "status"}
    if campaign is not None:
        message["campaign"] = campaign
    return request(socket_path, message, timeout=timeout)


def drain(socket_path: str,
          timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, Any]:
    return request(socket_path, {"op": "drain"}, timeout=timeout)


def wait_results(socket_path: str, campaign: str, wait: bool = True,
                 timeout: float = DEFAULT_TIMEOUT_S
                 ) -> Dict[str, Any]:
    """Collect a campaign's streamed results.

    Returns ``{"campaign", "results": [...], "end": {...}}`` where
    ``results`` holds one record per target in submission order.
    """
    message = {"op": "results", "campaign": campaign, "wait": wait}
    header: Optional[Dict[str, Any]] = None
    results: List[Dict[str, Any]] = []
    end: Optional[Dict[str, Any]] = None
    for response in stream(socket_path, message, timeout=timeout):
        if header is None:
            if not response.get("ok", False):
                error = str(response.get("error", "results failed"))
                if response.get("retry_after"):
                    raise ServiceRejected(error, response)
                raise ServiceError(error, response)
            header = response
        elif response.get("kind") == "result":
            results.append(response)
        elif response.get("kind") == "end":
            end = response
            break
    if header is None:
        raise ServiceError("service closed the connection without a "
                           "response")
    if end is None:
        raise ServiceError("result stream ended without an end "
                           "record", header)
    return {"campaign": header["campaign"], "results": results,
            "end": end}


def wait_for_service(socket_path: str, timeout: float = 30.0,
                     poll_s: float = 0.05) -> None:
    """Block until the daemon answers a ping (startup barrier)."""
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            ping(socket_path, timeout=max(poll_s, 1.0))
            return
        except (OSError, ServiceError) as exc:
            last = exc
            time.sleep(poll_s)
    raise TimeoutError(
        f"service at {socket_path} not up after {timeout:.0f}s: "
        f"{last!r}")
