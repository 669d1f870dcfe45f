"""The one frame codec every socket in the system speaks.

A frame is an 8-byte big-endian length prefix, then that many bytes of
UTF-8 JSON holding one object.  The cluster transport
(:mod:`repro.runtime.cluster`) and the service's binary transport
(:mod:`repro.service.server`) both go through this module, so every
consumer decodes the same way — the self-describing messages of the
Mercury RPC design cited in PAPERS.md.  Messages are pure data (spec
configs, result dicts, snapshots); non-finite floats use the
``NaN``/``Infinity`` literals of :mod:`json`, which round-trip exactly.

:func:`recv` raises :class:`EOFError` when the peer closes before or in
the middle of a frame, and :class:`FrameError` for every malformed frame
— a length above the limit (before allocating), bytes that are not UTF-8
JSON, or a value that is not an object.  Nothing received is executed.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Mapping

__all__ = ["HEADER", "MAX_FRAME_BYTES", "FrameError", "encode", "recv", "send"]

#: 8-byte big-endian unsigned length prefix framing every message.
HEADER = struct.Struct(">Q")

#: Default upper bound on one frame — far above any real chunk (specs plus
#: a 100k-node boundary snapshot is ~5 MB), low enough to reject a garbage
#: prefix before attempting a giant allocation.
MAX_FRAME_BYTES = 1 << 31


class FrameError(OSError):
    """A frame that cannot be decoded: oversize, not UTF-8 JSON, or not an object."""


def encode(message: Mapping[str, Any]) -> bytes:
    """The exact bytes :func:`send` puts on the wire for ``message``."""
    # Messages are trees built by this program, so the encoder's cycle
    # check is skipped: it costs ~20% on a 100k-node boundary snapshot.
    payload = json.dumps(
        dict(message), separators=(",", ":"), check_circular=False
    ).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


def send(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Frame and send one message."""
    sock.sendall(encode(message))


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining > 0:
        part = sock.recv(min(remaining, 1 << 20))
        if not part:
            raise EOFError("peer closed the connection mid-message")
        chunks.append(part)
        remaining -= len(part)
    return b"".join(chunks)


def recv(sock: socket.socket, limit: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Receive and decode one frame of at most ``limit`` payload bytes."""
    header = sock.recv(HEADER.size)
    if not header:
        raise EOFError("peer closed the connection")
    if len(header) < HEADER.size:
        header += _recv_exact(sock, HEADER.size - len(header))
    (length,) = HEADER.unpack(header)
    if length > limit:
        raise FrameError(f"framed message of {length} bytes exceeds the {limit}-byte limit")
    try:
        message = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FrameError(f"frame is not UTF-8 JSON: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(f"expected a message object, got {type(message).__name__}")
    return message
