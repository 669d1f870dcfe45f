"""The service's RPC surface: HTTP endpoints, binary frames, dispatch."""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.service import (
    EstimationService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    recv_frame,
    send_frame,
)
from repro.service.server import MAX_REQUEST_BYTES, _dispatch

from test_service_core import FakeClock, canonical, small_config


@pytest.fixture
def service() -> EstimationService:
    return EstimationService(small_config())


@pytest.fixture
def client(service):
    with ServiceServer(service) as server:
        yield ServiceClient(server.address)


class TestHTTP:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["size"] == 300
        assert health["families"] == ["sample_collide", "aggregation"]

    def test_estimate_round_trip(self, client):
        payload = client.estimate()
        assert payload["round"] == 0
        assert payload["estimates"]["sample_collide"]["value"] > 0

    def test_estimate_family_filter(self, client):
        payload = client.estimate(["sample_collide"])
        assert list(payload["estimates"]) == ["sample_collide"]

    def test_unknown_family_is_404(self, client):
        with pytest.raises(ServiceClient.Error) as exc:
            client.estimate(["hops_sampling"])
        assert exc.value.status == 404
        assert not isinstance(exc.value, ServiceClient.Throttled)

    def test_ingest_tick_estimate_flow(self, client):
        reply = client.ingest([{"joins": 40}])
        assert reply == {"accepted": 1, "dropped": 0}
        assert client.tick(2)["round"] == 2
        assert client.health()["size"] == 340

    def test_bad_ingest_body_is_400(self, client):
        with pytest.raises(ServiceClient.Error) as exc:
            client.ingest([{"frac_leaves": 2.0}])
        assert exc.value.status == 400

    def test_stats_counters_flow_through(self, client):
        client.estimate()
        stats = client.stats()
        assert stats["served"] == 1
        assert stats["ticks"] == 0

    def test_checkpoint_over_http(self, client, tmp_path):
        target = tmp_path / "svc.json"
        reply = client.checkpoint(str(target))
        assert reply["path"] == str(target)
        assert json.loads(target.read_text())["round"] == 0

    def test_throttled_read_raises_throttled(self):
        clock = FakeClock()
        service = EstimationService(small_config(max_qps=1.0), clock=clock)
        with ServiceServer(service) as server:
            client = ServiceClient(server.address)
            client.estimate()
            with pytest.raises(ServiceClient.Throttled) as exc:
                client.estimate()
            assert exc.value.status == 429

    def test_restart_resumes_identically_over_http(self, tmp_path):
        """The acceptance contract, end to end over the RPC surface."""
        target = tmp_path / "svc.json"
        config = small_config()
        witness = EstimationService(config)
        service = EstimationService(config, snapshot_path=str(target))
        with ServiceServer(service) as server:
            client = ServiceClient(server.address)
            client.ingest([{"joins": 10}])
            client.tick(6)
            client.checkpoint()
        witness.ingest([{"joins": 10}])
        witness.tick(6)

        restored = EstimationService.from_checkpoint(str(target))
        with ServiceServer(restored) as server:
            client = ServiceClient(server.address)
            client.ingest([{"frac_leaves": 0.2}])
            client.tick(5)
        witness.ingest([{"frac_leaves": 0.2}])
        witness.tick(5)
        assert canonical(restored) == canonical(witness)


def _raw_post(address, content_length, body=b""):
    """POST /tick with a hand-written Content-Length header (``None`` omits
    it) and ``body``; returns ``(status, payload)`` of the reply."""
    host, port = address.split(":")
    header = "" if content_length is None else f"Content-Length: {content_length}\r\n"
    request = f"POST /tick HTTP/1.1\r\nHost: {host}\r\n{header}\r\n"
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(request.encode("ascii") + body)
        reply = conn.makefile("rb")
        status = int(reply.readline().split()[1])
        headers = {}
        for line in iter(reply.readline, b"\r\n"):
            if not line:
                raise EOFError("server closed the connection mid-reply")
            name, _, value = line.decode("ascii").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = reply.read(int(headers["content-length"]))
    return status, json.loads(body.decode("utf-8"))


class TestHTTPRequestLimits:
    """The body length is checked before the body is read."""

    @pytest.fixture
    def address(self, service):
        with ServiceServer(service) as server:
            yield server.address

    def test_missing_length_is_400(self, address):
        status, payload = _raw_post(address, None)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_non_integer_length_is_400(self, address):
        status, payload = _raw_post(address, "abc")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_length_is_400(self, address):
        status, payload = _raw_post(address, "-1")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversize_length_is_413(self, address):
        status, payload = _raw_post(address, str(10**12))
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_deeply_nested_body_is_400(self, address):
        body = b"[" * 100_000
        status, payload = _raw_post(address, str(len(body)), body)
        assert status == 400
        assert "invalid JSON body" in payload["error"]

    def test_empty_body_is_accepted(self, address):
        status, payload = _raw_post(address, "0")
        assert status == 200
        assert payload == {"round": 1}


class TestBinary:
    def test_many_requests_per_connection(self, service):
        with ServiceServer(service, binary_port=0) as server:
            host, port = server.binary_address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                send_frame(conn, {"op": "health"})
                reply = recv_frame(conn)
                assert reply["status"] == 200
                assert reply["size"] == 300
                send_frame(conn, {"op": "ingest", "events": [{"joins": 5}]})
                assert recv_frame(conn)["accepted"] == 1
                send_frame(conn, {"op": "tick"})
                assert recv_frame(conn)["round"] == 1
                send_frame(conn, {"op": "estimate", "families": "sample_collide"})
                reply = recv_frame(conn)
                assert reply["status"] == 200
                assert list(reply["estimates"]) == ["sample_collide"]
                send_frame(conn, {"op": "nope"})
                assert recv_frame(conn)["status"] == 404

    def test_frames_are_json_not_pickle(self, service):
        with ServiceServer(service, binary_port=0) as server:
            host, port = server.binary_address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                send_frame(conn, {"op": "health"})
                recv_frame(conn)  # drain so the payload below is framed fresh
                send_frame(conn, {"op": "stats"})
                header = conn.recv(8, socket.MSG_WAITALL)
                length = int.from_bytes(header, "big")
                body = b""
                while len(body) < length:
                    body += conn.recv(length - len(body))
                json.loads(body.decode("utf-8"))  # must parse as plain JSON

    @pytest.mark.parametrize(
        "frame",
        [
            struct.pack(">Q", 2) + b"\xff\xfe",  # not UTF-8
            struct.pack(">Q", 6) + b"[1, 2]",  # not an object
            struct.pack(">Q", MAX_REQUEST_BYTES + 1),  # oversize, body never sent
        ],
        ids=["non-utf8", "non-object", "oversize"],
    )
    def test_malformed_frame_gets_400_then_hangup(self, service, frame):
        with ServiceServer(service, binary_port=0) as server:
            host, port = server.binary_address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(frame)
                reply = recv_frame(conn)
                assert reply["status"] == 400
                with pytest.raises(EOFError):
                    recv_frame(conn)


class TestDispatch:
    def test_status_codes(self, service):
        assert _dispatch(service, "health", {})[0] == 200
        assert _dispatch(service, "estimate", {"families": "bogus"})[0] == 404
        assert _dispatch(service, "ingest", {"events": "nope"})[0] == 400
        assert _dispatch(service, "tick", {"rounds": 0})[0] == 400
        assert _dispatch(service, "tick", {"rounds": "x"})[0] == 400
        assert _dispatch(service, "checkpoint", {})[0] == 400  # no path configured
        assert _dispatch(service, "missing", {})[0] == 404

    def test_throttled_is_429_on_both_transports(self):
        clock = FakeClock()
        service = EstimationService(small_config(max_qps=1.0), clock=clock)
        assert _dispatch(service, "estimate", {})[0] == 200
        status, payload = _dispatch(service, "estimate", {})
        assert status == 429
        assert payload["error"] == "throttled"
