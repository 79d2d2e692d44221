"""The control-channel protocol: framing, validation, payload detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist.protocol import (
    FRAME_FIELDS,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    ProtocolError,
    array_payload_nbytes,
    decode_frame,
    encode_frame,
    make_frame,
    validate_frame,
)
from repro.utils.errors import DistributedExecutionError


class TestFraming:
    def test_round_trip(self):
        frame = make_frame("step", token="abc", step=3)
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame

    def test_every_kind_round_trips(self):
        samples = {
            "hello": dict(worker=0, pid=123),
            "load": dict(token="t", payload=b"pickled", check=False),
            "loaded": dict(token="t", plan_checks_run=2),
            "map": dict(token="t", segments={0: ("psm_x", 64)}, scratch=None),
            "step": dict(token="t", step=0),
            "complete": dict(step=0, counters={"template_slots_elided": 1}),
            "error": dict(message="boom", traceback="tb"),
            "crash": {},
            "shutdown": {},
        }
        assert set(samples) == set(FRAME_FIELDS)
        for kind, payload in samples.items():
            frame = make_frame(kind, **payload)
            assert decode_frame(encode_frame(frame))["kind"] == kind


class TestValidation:
    def test_bad_magic_rejected(self):
        frame = make_frame("crash")
        frame["magic"] = "not-repro"
        with pytest.raises(ProtocolError, match="magic"):
            validate_frame(frame)

    def test_version_mismatch_rejected(self):
        frame = make_frame("crash")
        frame["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            validate_frame(frame)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            make_frame("teleport")

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing fields"):
            make_frame("step", token="t")  # no step

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            validate_frame(["magic", PROTOCOL_MAGIC])

    def test_protocol_error_is_distributed_error(self):
        # Callers catch one exception type for every dist failure mode.
        assert issubclass(ProtocolError, DistributedExecutionError)

    def test_magic_and_version_stamped_by_make_frame(self):
        frame = make_frame("shutdown")
        assert frame["magic"] == PROTOCOL_MAGIC
        assert frame["version"] == PROTOCOL_VERSION


class TestPayloadDetection:
    def test_clean_frames_measure_zero(self):
        frame = make_frame("map", token="t", segments={0: ("psm_x", 64)}, scratch="psm_s")
        assert array_payload_nbytes(frame) == 0

    def test_array_anywhere_is_counted(self):
        payload = np.zeros(16, dtype=np.float64)
        assert array_payload_nbytes(payload) == 128
        assert array_payload_nbytes({"deep": [{"er": (payload,)}]}) == 128
        frame = make_frame("complete", step=0, counters={"oops": payload})
        assert array_payload_nbytes(frame) == 128

    def test_pickled_bytes_are_not_arrays(self):
        # The cold-path load payload is pickled *structure*; only live
        # ndarrays violate the zero-payload invariant.
        frame = make_frame("load", token="t", payload=b"\x00" * 1024, check=False)
        assert array_payload_nbytes(frame) == 0
