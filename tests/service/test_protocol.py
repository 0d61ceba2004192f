"""Wire-protocol contracts: spec round-trips, strict validation,
content-addressed campaign identity, and record CRCs."""

import json

import pytest

from repro.runtime import CampaignSpec, chip_seed, device_noise_schedule
from repro.service import campaign_id, spec_from_json, spec_to_json
from repro.service.protocol import (ProtocolError, error_response,
                                    read_message, record_crc,
                                    write_message)


def _spec(vendor="A", cls=CampaignSpec, **overrides):
    fields = dict(experiment="characterize", vendor=vendor, index=1,
                  build_seed=chip_seed(7, vendor, 0, "build"),
                  run_seed=chip_seed(7, vendor, 0, "run"),
                  n_rows=32, sample_size=200, run_sweep=False)
    fields.update(overrides)
    return cls(**fields)


class TestSpecRoundTrip:
    def test_roundtrip_preserves_identity(self):
        spec = _spec()
        rebuilt = spec_from_json(spec_to_json(spec))
        assert rebuilt == spec
        assert rebuilt.checkpoint_key() == spec.checkpoint_key()

    def test_roundtrip_survives_json_encoding(self):
        spec = _spec(run_sweep=True)
        wire = json.loads(json.dumps(spec_to_json(spec)))
        assert spec_from_json(wire) == spec

    def test_chaos_wrapper_crosses_the_wire(self, tmp_path):
        spec = _spec().with_faults(process=("transient",),
                                   chaos_dir=str(tmp_path), hang_s=9.0)
        rebuilt = spec_from_json(spec_to_json(spec))
        assert rebuilt == spec
        assert rebuilt.faults.process == ("transient",)
        assert rebuilt.faults.chaos_dir == str(tmp_path)
        assert rebuilt.faults.hang_s == 9.0
        # Fault plans never join the identity.
        assert rebuilt.checkpoint_key() == _spec().checkpoint_key()

    def test_config_overrides_are_rejected(self):
        from repro.core import ParborConfig
        spec = _spec(config=ParborConfig())
        with pytest.raises(ProtocolError, match="config"):
            spec_to_json(spec)

    def test_ecc_specs_are_rejected(self):
        # Sending one would silently submit the plain campaign.
        from repro.ecc import EccCampaignSpec
        spec = _spec(cls=EccCampaignSpec, ecc="recover")
        with pytest.raises(ProtocolError, match="EccCampaignSpec"):
            spec_to_json(spec)

    def test_device_noise_plans_are_rejected(self):
        from repro.dram.faults import NoiseSpec
        (noisy,) = device_noise_schedule(3, [_spec()],
                                         NoiseSpec(n_vrt_cells=2))
        with pytest.raises(ProtocolError, match="noise"):
            spec_to_json(noisy)

    @pytest.mark.parametrize("payload,match", [
        ([], "object"),
        ({"vendor": "A"}, "experiment"),
        ({"experiment": "characterize", "vendor": "A",
          "surprise": 1}, "unknown"),
        ({"experiment": "characterize", "vendor": "A",
          "n_rows": "32"}, "int"),
        ({"experiment": "characterize", "vendor": "A",
          "run_sweep": 1}, "bool"),
        ({"experiment": "nope", "vendor": "A"}, "invalid spec"),
        ({"experiment": "characterize", "vendor": "A",
          "chaos": {"plan": ["crash"]}}, "chaos"),
        # Refused at submit, not by a worker after acceptance.
        ({"experiment": "characterize", "vendor": "A", "rounds": 0},
         "invalid spec: rounds"),
        ({"experiment": "characterize", "vendor": "A", "rounds": -1},
         "invalid spec: rounds"),
        ({"experiment": "characterize", "vendor": "A", "n_rows": 0},
         "invalid spec: n_rows"),
        ({"experiment": "characterize", "vendor": "A",
          "sample_size": -1}, "invalid spec: sample_size"),
    ])
    def test_strict_validation(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            spec_from_json(payload)


class TestCampaignId:
    def test_content_addressed_and_order_independent(self):
        specs = [_spec("A"), _spec("B"), _spec("C")]
        assert (campaign_id("t", specs)
                == campaign_id("t", list(reversed(specs))))

    def test_tenant_and_work_sensitive(self):
        specs = [_spec("A"), _spec("B")]
        assert campaign_id("t1", specs) != campaign_id("t2", specs)
        assert (campaign_id("t1", specs)
                != campaign_id("t1", specs[:1]))

    def test_chaos_wrapping_does_not_change_identity(self, tmp_path):
        specs = [_spec("A"), _spec("B")]
        wrapped = [s.with_faults(process=("crash",),
                                 chaos_dir=str(tmp_path))
                   for s in specs]
        assert campaign_id("t", wrapped) == campaign_id("t", specs)


class TestRecordCrc:
    def test_detects_tampering(self):
        record = {"kind": "shard_done", "id": "c1", "shard": 0}
        record["crc"] = record_crc(record)
        assert record_crc(record) == record["crc"]
        record["shard"] = 1
        assert record_crc(record) != record["crc"]

    def test_key_order_independent(self):
        a = {"b": 2, "a": 1}
        b = {"a": 1, "b": 2}
        assert record_crc(a) == record_crc(b)


class TestFraming:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        with open(path, "w") as fh:
            write_message(fh, {"op": "ping"})
            write_message(fh, error_response("nope", retry_after=1.5))
        lines = path.read_text().splitlines()
        assert read_message(lines[0]) == {"op": "ping"}
        rejection = read_message(lines[1])
        assert rejection == {"ok": False, "error": "nope",
                             "retry_after": 1.5}

    @pytest.mark.parametrize("line", ["", "   ", "not json", "[1, 2]"])
    def test_bad_frames_raise(self, line):
        with pytest.raises(ProtocolError):
            read_message(line)

    def test_oversized_message_rejected(self):
        from repro.service.protocol import MAX_MESSAGE_BYTES
        with pytest.raises(ProtocolError, match="size"):
            read_message(b"x" * (MAX_MESSAGE_BYTES + 1))

    def test_error_response_without_hint_omits_retry_after(self):
        assert "retry_after" not in error_response("permanent")
