"""Wire protocol of the campaign service: JSON Lines over a socket.

One connection carries one request and its response(s).  Every message
is a single JSON object on its own line (the same framing as the trace
and checkpoint files, so the whole system speaks one format):

* request: ``{"op": "submit" | "status" | "results" | "ping" |
  "drain" | "shutdown", ...}``;
* response: ``{"ok": true, ...}`` or ``{"ok": false, "error": "...",
  "retry_after": <seconds, when the request should be retried>}``;
* the ``results`` op streams: one ``{"kind": "result", ...}`` line per
  target in submission order, then ``{"kind": "end", ...}``.

Campaign specs cross the wire as plain JSON objects mirroring
:class:`~repro.runtime.specs.CampaignSpec`'s result-affecting fields.
``config`` overrides, spec subclasses (e.g. ECC campaigns) and
device-noise plans are deliberately not wire-expressible (a service
tenant names seeds and geometry, not internal thresholds) and are
rejected rather than silently submitted as a different campaign; an
optional ``chaos`` object carries the process layer of a
:class:`~repro.runtime.chaos.FaultPlan` so the chaos suite can drive
fault injection through the full submission path.

Campaign identity is content-addressed: :func:`campaign_id` hashes the
tenant and the sorted checkpoint keys through the seed ladder, so
resubmitting the same work is idempotent - a client that crashed after
submitting can safely submit again and will be attached to the
existing campaign.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Sequence

from ..runtime.chaos import FaultPlan
from ..runtime.seeds import ladder_seed
from ..runtime.specs import CampaignSpec

__all__ = [
    "PROTOCOL_SCHEMA", "ProtocolError", "campaign_id",
    "error_response", "read_message", "record_crc", "spec_from_json",
    "spec_to_json", "write_message",
]

PROTOCOL_SCHEMA = 1

#: Wire-expressible ``CampaignSpec`` fields and their types.  ``index``
#: et al. mirror the dataclass defaults so sparse submissions work.
SPEC_FIELDS: Dict[str, type] = {
    "experiment": str, "vendor": str, "index": int, "build_seed": int,
    "run_seed": int, "n_rows": int, "sample_size": int,
    "run_sweep": bool, "rounds": int,
}

MAX_MESSAGE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or unserialisable protocol message."""


def spec_to_json(spec: CampaignSpec) -> Dict[str, Any]:
    """The wire form of a spec (process fault plans included)."""
    if spec.config is not None:
        raise ProtocolError(
            "config overrides are not wire-expressible; submit seeds "
            "and geometry only")
    if type(spec) is not CampaignSpec:
        raise ProtocolError(
            f"{type(spec).__name__} is not wire-expressible; submit "
            f"plain campaign specs only")
    faults = spec.faults
    if faults.noise is not None:
        raise ProtocolError("device-noise fault plans are not "
                            "wire-expressible")
    payload: Dict[str, Any] = {
        name: getattr(spec, name) for name in SPEC_FIELDS
    }
    if faults.chaos_dir:
        payload["chaos"] = {"plan": list(faults.process),
                            "dir": faults.chaos_dir,
                            "hang_s": faults.hang_s}
    return payload


def spec_from_json(payload: Dict[str, Any]) -> CampaignSpec:
    """Rebuild a spec from its wire form (strict: no unknown keys)."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"spec must be an object, got "
                            f"{type(payload).__name__}")
    chaos = payload.get("chaos")
    unknown = set(payload) - set(SPEC_FIELDS) - {"chaos"}
    if unknown:
        raise ProtocolError(f"unknown spec fields: {sorted(unknown)}")
    if "experiment" not in payload or "vendor" not in payload:
        raise ProtocolError("spec needs at least experiment and vendor")
    kwargs: Dict[str, Any] = {}
    for name, kind in SPEC_FIELDS.items():
        if name not in payload:
            continue
        value = payload[name]
        if kind is bool:
            if not isinstance(value, bool):
                raise ProtocolError(f"spec field {name} must be a bool")
        elif kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"spec field {name} must be an int")
        elif not isinstance(value, kind):
            raise ProtocolError(
                f"spec field {name} must be {kind.__name__}")
        kwargs[name] = value
    if chaos is not None:
        if not isinstance(chaos, dict) or "plan" not in chaos \
                or "dir" not in chaos:
            raise ProtocolError("chaos object needs plan and dir")
        try:
            kwargs["faults"] = FaultPlan(
                process=tuple(chaos["plan"]), chaos_dir=str(chaos["dir"]),
                hang_s=float(chaos.get("hang_s", 60.0)))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid chaos plan: {exc}") from None
    try:
        return CampaignSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid spec: {exc}") from None


def campaign_id(tenant: str, specs: Sequence[CampaignSpec]) -> str:
    """Content-addressed campaign identity.

    A pure function of (tenant, the set of checkpoint keys): the same
    submission always maps to the same campaign, which is what makes
    resubmission idempotent and crash-safe.  Submission *order* is
    deliberately excluded - the work is a set; the queue remembers the
    order separately for result delivery.
    """
    keys = sorted(spec.checkpoint_key() for spec in specs)
    digest = ladder_seed(0, "service-campaign", tenant, *keys)
    return f"c{digest:016x}"


# -- record checksums (durable queue) --------------------------------------


def record_crc(record: Dict[str, Any]) -> int:
    """CRC-32 of a record's canonical JSON form, sans the crc field.

    The durable queue stamps every record so a corrupted line (torn
    write, bit rot, hostile edit) is *detected* on replay instead of
    silently reconstructing wrong state - the queue-level analogue of
    the checkpoint journal's signature verification.
    """
    body = {k: v for k, v in record.items() if k != "crc"}
    canon = json.dumps(body, sort_keys=True).encode("utf-8")
    return zlib.crc32(canon) & 0xFFFFFFFF


# -- line framing ----------------------------------------------------------


def write_message(stream: Any, message: Dict[str, Any]) -> None:
    """Frame one message onto a writable text or asyncio stream."""
    line = json.dumps(message, sort_keys=True) + "\n"
    if hasattr(stream, "write") and hasattr(stream, "flush"):
        stream.write(line)
        stream.flush()
    else:  # asyncio.StreamWriter
        stream.write(line.encode("utf-8"))


def read_message(line: Any) -> Dict[str, Any]:
    """Decode one framed line (bytes or str) into a message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError("message exceeds size limit")
        line = line.decode("utf-8")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def error_response(error: str, retry_after: float = 0.0
                   ) -> Dict[str, Any]:
    """The uniform rejection shape (retry_after == 0 means 'do not')."""
    response: Dict[str, Any] = {"ok": False, "error": error}
    if retry_after > 0:
        response["retry_after"] = round(retry_after, 3)
    return response
