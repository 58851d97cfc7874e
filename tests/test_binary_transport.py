"""The persistent-connection binary serving path and client transport modes.

The binary transport is an accelerator, not a second API: every request
lands on the same backend handlers as the JSON endpoints, so fencing,
admission control, idempotent dedup, and degraded-mode fallbacks behave
identically.  These tests pin the wire format (so the protocol can't drift
silently), the server loop's error boundaries, and the client's
auto/binary/json transport semantics.
"""

import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.server.app import PredictionServer
from repro.server.binary import (
    MAX_FRAME_BYTES,
    OP_ERROR,
    OP_PING,
    OP_PREDICT_BATCH,
    RESPONSE_FLAG,
    BinaryConnection,
    BinaryServerError,
    ProtocolError,
    pack_error,
    pack_frame,
    pack_observe_request,
    pack_predict_request,
    pack_predict_response,
    read_frame,
    unpack_error,
    unpack_observe_request,
    unpack_predict_request,
    unpack_predict_response,
)
from repro.server.client import (
    PredictionClient,
    RetryableServiceError,
    TerminalServiceError,
)


def _warm(client, n=80, users=4, services=6):
    for k in range(n):
        client.report_observation(
            k % users, k % services, value=0.5 + (k % 9) * 0.4, timestamp=float(k)
        )


class TestWireFormat:
    def test_predict_request_roundtrip(self):
        frame = pack_predict_request(42, [3, 1, 4, 1_000_000_000_000])
        opcode, body = self._unframe(frame)
        assert opcode == OP_PREDICT_BATCH
        user_id, ids = unpack_predict_request(body)
        assert user_id == 42
        assert ids == [3, 1, 4, 1_000_000_000_000]

    def test_predict_response_roundtrip_with_nan(self):
        frame = pack_predict_response([1.5, float("nan"), 0.25], [0, 255, 3])
        __, body = self._unframe(frame)
        values, codes = unpack_predict_response(body)
        assert values[0] == 1.5
        assert math.isnan(values[1])
        assert values[2] == 0.25
        assert codes == [0, 255, 3]

    def test_observe_request_roundtrip(self):
        frame = pack_observe_request(12.5, 7, 9, 3.25, "k:1")
        __, body = self._unframe(frame)
        assert unpack_observe_request(body) == (12.5, 7, 9, 3.25, "k:1")
        frame = pack_observe_request(0.0, 0, 0, 0.5)
        __, body = self._unframe(frame)
        assert unpack_observe_request(body)[4] is None

    def test_error_roundtrip(self):
        frame = pack_error(409, {"error": "fenced", "code": "fenced_write"})
        opcode, body = self._unframe(frame)
        assert opcode == OP_ERROR
        status, payload = unpack_error(body)
        assert status == 409
        assert payload["code"] == "fenced_write"

    def test_bad_magic_rejected(self):
        frame = bytearray(pack_frame(OP_PING))
        frame[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            self._unframe(bytes(frame))

    def test_oversized_length_prefix_rejected(self):
        header = struct.pack("!2sBBI", b"QP", 1, OP_PING, MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="frame"):
            self._unframe(header)

    def test_truncated_bodies_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_predict_request(b"\x00")
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_observe_request(b"\x00")

    def test_declared_count_must_match_body(self):
        user_header = struct.pack("!qI", 1, 5)  # claims 5 ids, carries 1
        with pytest.raises(ProtocolError):
            unpack_predict_request(user_header + struct.pack("!q", 9))

    @staticmethod
    def _unframe(frame: bytes) -> tuple[int, bytes]:
        """Feed raw bytes through the real socket reader."""
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            left.shutdown(socket.SHUT_WR)
            result = read_frame(right)
            if result is None:
                raise ProtocolError("clean EOF")
            return result
        finally:
            left.close()
            right.close()


class TestBinaryServer:
    def test_ping_and_persistent_reuse(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            assert server.binary_address is not None
            with BinaryConnection(server.binary_address) as conn:
                sock_before = conn._sock
                assert conn.ping()
                for __ in range(5):
                    assert conn.ping()
                # One TCP connection served every request.
                assert conn._sock is sock_before

    def test_binary_matches_json_predictions(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, transport="json")
            _warm(client)
            ids = list(range(6)) + [999]
            json_result = client.predict_candidates_detailed(0, ids)
            assert json_result["transport"] == "json"
            with BinaryConnection(server.binary_address) as conn:
                values, sources = conn.predict_batch(0, ids)
            for sid, value in zip(ids, values):
                assert value == pytest.approx(
                    json_result["predictions"][sid], rel=1e-12
                )
            assert sources == [
                json_result["sources"][sid] for sid in ids
            ]
            client.close()

    def test_observe_applies_and_dedups(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            with BinaryConnection(server.binary_address) as conn:
                first = conn.observe(1.0, 0, 0, 2.5, key="obs:1")
                assert first["action"] == "admit"
                assert np.isfinite(first["sample_error"])
                replay = conn.observe(1.0, 0, 0, 2.5, key="obs:1")
                assert replay["action"] == "deduplicated"
                assert replay["sample_error"] is None or math.isnan(
                    replay["sample_error"]
                )
            assert server.model.updates_applied == 1

    def test_empty_and_negative_ids_are_400(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            with BinaryConnection(server.binary_address) as conn:
                with pytest.raises(BinaryServerError) as exc_info:
                    conn.predict_batch(0, [])
                assert exc_info.value.status == 400
                with pytest.raises(BinaryServerError) as exc_info:
                    conn.predict_batch(0, [-3])
                assert exc_info.value.status == 400
                # The connection survives server-side rejections.
                assert conn.ping()

    def test_unknown_opcode_gets_error_frame_and_close(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            sock = socket.create_connection(server.binary_address, timeout=5.0)
            try:
                sock.sendall(pack_frame(0x42))
                opcode, body = read_frame(sock)
                assert opcode == OP_ERROR
                status, __ = unpack_error(body)
                assert status == 400
                # Protocol violations drop the connection.
                assert read_frame(sock) is None
            finally:
                sock.close()

    def test_oversized_frame_gets_413_and_connection_survives(self):
        # An oversized length prefix with a valid header is a refusable
        # request, not stream corruption: the server must drain the body,
        # answer with a framed 413 (the HTTP request-too-large
        # equivalent), and keep serving on the same connection.
        with PredictionServer(rng=0, background_replay=False) as server:
            sock = socket.create_connection(server.binary_address, timeout=10.0)
            try:
                oversized = MAX_FRAME_BYTES + 1
                sock.sendall(
                    struct.pack("!2sBBI", b"QP", 1, OP_PREDICT_BATCH, oversized)
                )
                sent = 0
                chunk = b"\x00" * (1 << 20)
                while sent < oversized:
                    step = min(len(chunk), oversized - sent)
                    sock.sendall(chunk[:step])
                    sent += step
                opcode, body = read_frame(sock)
                assert opcode == OP_ERROR
                status, payload = unpack_error(body)
                assert status == 413
                assert payload["max_frame_bytes"] == MAX_FRAME_BYTES
                # Unlike corrupt framing, the connection stays usable.
                sock.sendall(pack_frame(OP_PING))
                opcode, __ = read_frame(sock)
                assert opcode == OP_PING | RESPONSE_FLAG
            finally:
                sock.close()

    def test_stop_after_served_connection_is_prompt(self):
        # Closing a listener does not wake a thread blocked in accept() on
        # Linux; stop() must not wait out the accept thread's join timeout.
        server = PredictionServer(rng=0, background_replay=False)
        server.start()
        try:
            with BinaryConnection(server.binary_address) as conn:
                assert conn.ping()
        finally:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert not [
            t for t in threading.enumerate() if t.name == "qos-binary-accept"
        ]

    def test_disabled_binary_port(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            assert server.binary_address is None
            client = PredictionClient(server.address)
            assert client.status()["transport"]["binary_address"] is None
            client.close()


class TestClientTransports:
    def test_auto_uses_binary(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client)
            result = client.predict_candidates_detailed(0, [0, 1, 2])
            assert result["transport"] == "binary"
            client.close()

    def test_auto_falls_back_when_binary_disabled(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            client = PredictionClient(server.address)
            _warm(client, n=20)
            result = client.predict_candidates_detailed(0, [0, 1])
            assert result["transport"] == "json"
            client.close()

    def test_strict_binary_raises_when_disabled(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            client = PredictionClient(server.address, transport="binary")
            with pytest.raises((RetryableServiceError, ConnectionError)):
                client.predict_candidates(0, [0])
            client.close()

    def test_json_transport_never_uses_binary(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, transport="json")
            _warm(client, n=20)
            result = client.predict_candidates_detailed(0, [0, 1])
            assert result["transport"] == "json"
            assert client._binary_conn is None
            client.close()

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            PredictionClient(("127.0.0.1", 1), transport="carrier-pigeon")

    def test_duplicate_ids_deduplicated(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client, n=40)
            result = client.predict_candidates_detailed(0, [2, 2, 1, 2, 1])
            assert sorted(result["predictions"]) == [1, 2]
            client.close()

    def test_server_errors_do_not_trigger_fallback(self):
        """A server *answer* (empty batch -> 400) must surface as the
        mapped error on every transport, never silently retry over JSON."""
        with PredictionServer(rng=0, background_replay=False) as server:
            for transport in ("auto", "binary", "json"):
                client = PredictionClient(server.address, transport=transport)
                with pytest.raises(TerminalServiceError, match="400"):
                    client.predict_candidates(0, [])
                client.close()

    def test_auto_falls_back_mid_session_when_binary_dies(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, breaker_cooldown=30.0)
            _warm(client, n=20)
            assert client.predict_candidates_detailed(0, [0])["transport"] == (
                "binary"
            )
            server._binary.stop()
            result = client.predict_candidates_detailed(0, [0])
            assert result["transport"] == "json"
            # Breaker holds: no binary re-probe storm while it is down.
            assert client.predict_candidates_detailed(0, [0])["transport"] == (
                "json"
            )
            client.close()


class TestTransportMetrics:
    def test_request_counters_and_mode_gauge(self):
        from repro.observability import get_registry, parse_prometheus_text

        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client, n=10)
            client.predict_candidates(0, [0, 1])
            families = parse_prometheus_text(get_registry().render())
            requests = families["qos_transport_requests_total"]["samples"]
            by_label = {labels: value for (__, labels), value in requests.items()}
            assert by_label[(("transport", "json"),)] > 0
            assert by_label[(("transport", "binary"),)] > 0
            mode = families["qos_transport_mode"]["samples"]
            mode_by_label = {labels: value for (__, labels), value in mode.items()}
            assert mode_by_label[(("transport", "json"),)] == 1.0
            assert mode_by_label[(("transport", "binary"),)] == 1.0
            client.close()
