"""Property tests for the one JSON frame codec, :mod:`repro.runtime.wire`.

The codec (``send`` / ``recv``) must round-trip any JSON message dict
through arbitrarily fragmented reads, surface truncation as
:class:`EOFError`, reject oversize length prefixes *before* allocating,
and answer any other bytes a confused or hostile peer sends with either a
dict or :class:`~repro.runtime.wire.FrameError` — never a hang, never a
non-dict, never another exception.  These are wire-level invariants the
chaos harness's frame faults rely on: a torn frame must look like a
transport error, never like data.  The cluster and the service
transports both speak this codec.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import wire
from repro.runtime.wire import HEADER, MAX_FRAME_BYTES, FrameError


class ScriptedSocket:
    """A fake socket replaying ``data`` in caller-chosen fragments.

    ``cuts`` are positions at which recv deliberately stops short, so a
    property can drive the codec through every split-read shape.  Once
    the data is exhausted recv returns ``b""`` — a clean peer close.
    """

    def __init__(self, data: bytes, cuts=()) -> None:
        self._data = data
        self._pos = 0
        self._stops = sorted({c for c in cuts if 0 < c < len(data)})
        self.sent = bytearray()
        self.recv_sizes = []

    def recv(self, size: int) -> bytes:
        self.recv_sizes.append(size)
        if self._pos >= len(self._data):
            return b""
        end = self._pos + size
        for stop in self._stops:
            if self._pos < stop < end:
                end = stop
                break
        part = self._data[self._pos : end]
        self._pos = end
        return part

    def sendall(self, data: bytes) -> None:
        self.sent.extend(data)


def framed(message) -> bytes:
    """The exact bytes ``wire.send`` puts on the wire for ``message``."""
    sock = ScriptedSocket(b"")
    wire.send(sock, message)
    return bytes(sock.sent)


messages = st.dictionaries(
    st.text(max_size=8),
    st.one_of(
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=16),
        st.booleans(),
        st.lists(st.integers(), max_size=8),
        st.none(),
    ),
    max_size=8,
)


class TestRoundTrip:
    @given(message=messages, data=st.data())
    def test_any_fragmentation_round_trips(self, message, data):
        frame = framed(message)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, len(frame) - 1)),
                max_size=8,
            )
        )
        sock = ScriptedSocket(frame, cuts=cuts)
        assert wire.recv(sock) == dict(message)

    @given(message=messages)
    def test_byte_at_a_time_reads_round_trip(self, message):
        frame = framed(message)
        sock = ScriptedSocket(frame, cuts=range(1, len(frame)))
        assert wire.recv(sock) == dict(message)

    def test_two_frames_back_to_back(self):
        first, second = {"type": "ping", "seq": 1}, {"type": "pong", "seq": 1}
        sock = ScriptedSocket(framed(first) + framed(second), cuts=(3, 11, 20))
        assert wire.recv(sock) == first
        assert wire.recv(sock) == second

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    )
    def test_floats_round_trip_bit_exactly(self, value):
        decoded = wire.recv(ScriptedSocket(framed({"v": value})))["v"]
        assert decoded == value
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)

    def test_nan_round_trips(self):
        assert math.isnan(wire.recv(ScriptedSocket(framed({"v": math.nan})))["v"])


class TestTruncation:
    @given(message=messages, data=st.data())
    def test_any_truncation_raises_eoferror(self, message, data):
        frame = framed(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        sock = ScriptedSocket(frame[:cut])
        with pytest.raises(EOFError):
            wire.recv(sock)

    def test_clean_close_before_any_byte_is_eof(self):
        with pytest.raises(EOFError, match="peer closed"):
            wire.recv(ScriptedSocket(b""))


class TestOversize:
    @given(
        length=st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2**64 - 1)
    )
    @settings(max_examples=30)
    def test_oversize_prefix_rejected_before_allocation(self, length):
        sock = ScriptedSocket(HEADER.pack(length) + b"x" * 64)
        with pytest.raises(FrameError, match="exceeds"):
            wire.recv(sock)
        # Only the 8-byte header may have been requested — the bogus
        # payload length must never reach a recv call (no allocation).
        assert all(size <= HEADER.size for size in sock.recv_sizes)

    def test_limit_itself_is_not_rejected_by_the_guard(self):
        # A frame of exactly MAX_FRAME_BYTES passes the size check and
        # then fails as a short read — EOFError, not the FrameError guard.
        sock = ScriptedSocket(HEADER.pack(MAX_FRAME_BYTES) + b"x" * 16)
        with pytest.raises(EOFError):
            wire.recv(sock)

    def test_caller_limit_applies(self):
        frame = framed({"pad": "x" * 100})
        with pytest.raises(FrameError, match="exceeds the 64-byte limit"):
            wire.recv(ScriptedSocket(frame), limit=64)


#: Bytes that are often JSON: the garbage property must also cover frames
#: that decode to lists, numbers, strings and deeply nested values.
json_ish = st.text(alphabet='{}[]":,0123456789.eE+- truefalsnNaIiy\\', max_size=64).map(
    lambda text: text.encode("utf-8")
)


class TestGarbage:
    @given(payload=st.one_of(st.binary(min_size=0, max_size=256), json_ish))
    def test_garbage_payload_never_hangs_or_yields_non_dicts(self, payload):
        # A syntactically valid header framing arbitrary bytes: the codec
        # must produce a dict or raise FrameError — never hang, never
        # hand back a non-dict, never leak a decoder exception of
        # another type.
        sock = ScriptedSocket(HEADER.pack(len(payload)) + payload)
        try:
            message = wire.recv(sock)
        except FrameError:
            return
        assert isinstance(message, dict)

    @pytest.mark.parametrize(
        "payload",
        [b"\xff\xfe{}", b"[1, 2]", b"3", b'"text"', b"null", b"{", b"[" * 100_000],
    )
    def test_non_object_or_undecodable_payload_is_a_frame_error(self, payload):
        sock = ScriptedSocket(HEADER.pack(len(payload)) + payload)
        with pytest.raises(FrameError):
            wire.recv(sock)

    @given(junk=st.binary(min_size=1, max_size=64))
    def test_garbage_prefix_shorter_than_a_header_is_eof(self, junk):
        sock = ScriptedSocket(junk[: HEADER.size - 1])
        with pytest.raises(EOFError):
            wire.recv(sock)
