"""The chunk scheduler: trial chunks fan out to worker hosts over sockets.

Every parallel batch runs here.  :class:`ClusterExecutor` drives remote
``repro-experiment worker serve`` hosts, and the local process pool of
:mod:`~repro.runtime.pool` is the same scheduler over
:func:`loopback_workers` — worker processes forked on ``127.0.0.1:0`` —
so planning, stealing, migration, exactly-once accounting and the
all-hosts-lost fallback exist once.  The contract is the serial one:
results are **bit-identical** to serial execution at any host count,
with unchanged content addresses, because every trial derives its
randomness from ``(hub_seed, index)`` alone and the merge is sorted by
``(index, stream)``.  Adding or removing hosts — even mid-batch, through
failures — can never change what a batch computes, only where.

Transport
---------
Every message is one JSON frame of :mod:`repro.runtime.wire`
(:func:`send_message` / :func:`recv_message`).  A worker answers a
handshake, then runs :func:`~repro.runtime.trials.run_chunk` on every
``chunk`` message and replies with the results.  Workers are stateless
between chunks: the specs (``as_config`` dicts) and the optional
boundary snapshot travel in the message, which makes migration trivial.

The handshake checks one :data:`PROTOCOL_VERSION`; a ``hello`` carrying
any other is answered with an ``error`` frame and the driver fails the
batch at once.  A ``hello`` with ``role="heartbeat"`` opens a session
that answers ``ping`` frames with ``pong`` instead of running chunks.

.. warning::
   The transport is unauthenticated and unencrypted: bind workers to
   loopback or a private cluster fabric.  Frames are pure data, so a
   hostile peer can waste a worker's time but cannot make it execute
   code.  See ``docs/DISTRIBUTED.md``.

Liveness
--------
Treating liveness as a request side-effect leaves a silent-failure
window: a worker that dies while *idle* is never declared lost until the
batch drains, and one blocked dispatch can pin a chunk to a dead host
indefinitely.  The driver therefore runs one heartbeat monitor thread per
host: every ``heartbeat_interval`` seconds it pings the worker over a
dedicated heartbeat session and counts consecutive misses (timeout,
refused connection, or transport error).  Each miss is reported as
``heartbeat_miss``; at ``heartbeat_misses`` consecutive misses the host
is declared lost through exactly the same path as a dispatch failure —
so loss is detected within roughly
``heartbeat_interval × heartbeat_misses`` seconds no matter what the
dispatch threads are doing.

Scheduling
----------
The batch is split into uniform chunks (:func:`plan_chunks`) dealt
round-robin into per-host queues.  The driver keeps the snapshot
backbone (:class:`~repro.runtime.snapshots.SnapshotBackbone`) local: the
calling thread walks it in chunk order and publishes each chunk's
predecessor-boundary snapshot as soon as it is ready, while the host
threads already run earlier chunks; a host that claims a chunk waits for
its payload.  Every payload is retained until the batch ends, so a chunk
can be re-shipped anywhere at any time.  One driver thread per host
drains its own queue and, when idle, **steals from the tail** of the
longest live queue (``steal`` event) — never from a host whose handshake
has not completed yet or whose welcome pinned it.  A connection failure
is retried with exponential backoff; once retries are exhausted — or the
heartbeat monitor gives up first — the host is declared lost
(``worker_lost``) and its queued + in-flight chunks **migrate** — each
with its retained boundary snapshot — to the surviving hosts
(``chunk_migrated``).  If every host dies, the remaining chunks re-run
serially in the driver (``partial_fallback``), keeping completed chunks.
All of these events go through the one ``progress.emit`` pipeline
(:mod:`repro.runtime.progress`), so journals,
``obs summary|trace|validate`` and the telemetry used in tests cover
distributed runs exactly like local ones.

Fault injection
---------------
:class:`WorkerServer` accepts a :class:`~repro.runtime.faults
.WorkerFaults` bundle (compiled from a seed-reproducible
:class:`~repro.runtime.faults.FaultPlan`) and reports every fault it
fires as a ``fault_injected`` event, so chaos tests can hold the
injected cause and the observed recovery on one validated journal
timeline.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import socket
import threading
import time
import traceback
from collections import deque
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from . import wire
from .faults import WorkerFaults
from .progress import NullProgress, ProgressReporter
from .snapshots import SNAPSHOT_KINDS, SnapshotBackbone
from .trials import TrialResult, TrialSpec, run_chunk

__all__ = [
    "CHUNKS_PER_WORKER",
    "ClusterExecutor",
    "PROTOCOL_VERSION",
    "WorkerServer",
    "chunk_specs",
    "loopback_workers",
    "parse_hosts",
    "plan_chunks",
    "recv_message",
    "send_message",
]

#: The only version either side speaks; a hello carrying any other is
#: refused.  v3 is the first with JSON frames (:mod:`repro.runtime.wire`).
PROTOCOL_VERSION = 3

#: Target chunks per host: enough slack for load balancing (chunks are
#: not equal cost) without drowning in warm-up overhead.
CHUNKS_PER_WORKER = 4


def chunk_specs(
    specs: Sequence[TrialSpec], chunk_size: int
) -> List[List[TrialSpec]]:
    """Split ``specs`` into consecutive chunks of at most ``chunk_size``.

    Order is preserved: churn-replay kinds rely on a chunk holding a
    contiguous index range so one replay serves all of its trials.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [list(specs[i : i + chunk_size]) for i in range(0, len(specs), chunk_size)]


def plan_chunks(
    specs: Sequence[TrialSpec], hosts: int, chunk_size: Optional[int] = None
) -> List[List[TrialSpec]]:
    """:func:`chunk_specs` at ``chunk_size``, by default into
    ``hosts * CHUNKS_PER_WORKER`` chunks of equal size."""
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(specs) / (hosts * CHUNKS_PER_WORKER)))
    return chunk_specs(specs, chunk_size)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

# The cluster's own entry points into the codec.  The service binds a
# separate pair with its request-size limit, so per-transport frame
# accounting (perfbench/tracing.py) can tell the two apart.


def send_message(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Frame and send one cluster message (:func:`repro.runtime.wire.send`)."""
    wire.send(sock, message)


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one cluster message (:func:`repro.runtime.wire.recv`)."""
    return wire.recv(sock)


def _results_from_payload(payload: Any) -> List[TrialResult]:
    """Results from a ``result`` frame (``as_dict`` plus ``profile`` each)."""
    try:
        return [TrialResult.from_dict(item) for item in payload]
    except (KeyError, TypeError, ValueError) as exc:
        raise wire.FrameError(f"malformed result frame: {exc!r}") from None


def parse_hosts(
    value: Union[None, str, Sequence[str]]
) -> Tuple[str, ...]:
    """Normalize a host list (CSV string or sequence) to ``host:port`` tuples.

    Accepts the CLI's ``--hosts host1:port,host2:port`` string, the
    ``$REPRO_HOSTS`` environment value, or an already-split sequence.
    ``None`` and the empty string mean "no cluster" and return ``()``.
    """
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    else:
        parts = [str(p).strip() for p in value]
    hosts = tuple(p for p in parts if p)
    for host in hosts:
        name, sep, port = host.rpartition(":")
        if not sep or not name:
            raise ValueError(
                f"invalid host {host!r}: expected 'host:port' (e.g. "
                "'127.0.0.1:7700')"
            )
        try:
            number = int(port)
        except ValueError:
            raise ValueError(f"invalid port in host {host!r}") from None
        if not 0 < number < 65536:
            raise ValueError(f"port out of range in host {host!r}")
    return hosts


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class WorkerServer:
    """A cluster worker: accepts driver connections, runs chunks, replies.

    Sessions are served on one thread per connection, so a heartbeat
    session keeps answering pings while a chunk session is busy
    executing — exactly the property the driver's liveness monitor
    depends on.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` binds a free ephemeral port; the bound
        address is available as :attr:`address` (the loopback test harness
        and CI both rely on this).
    max_sessions:
        Exit :meth:`serve_forever` after this many *driver* (chunk-role)
        sessions have come and gone (``None`` = serve until
        :meth:`close`).  Heartbeat sessions never count toward the cap —
        a capped worker would otherwise die under monitoring alone.
    faults:
        A :class:`~repro.runtime.faults.WorkerFaults` bundle of
        deterministic fault-injection knobs (usually compiled from a
        :class:`~repro.runtime.faults.FaultPlan`).  Every fault that
        fires is reported once per kind through ``progress`` as a
        ``fault_injected`` event.
    progress:
        Optional :class:`~repro.runtime.progress.ProgressReporter`
        receiving ``fault_injected`` events — in-process chaos
        tests pass the same collector the driver uses, putting cause and
        recovery on one timeline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: Optional[int] = None,
        faults: Optional[WorkerFaults] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.max_sessions = max_sessions
        self.faults = faults if faults is not None else WorkerFaults()
        self.progress = progress if progress is not None else NullProgress()
        self._mutex = threading.Lock()
        self._conns: set = set()
        self._threads: List[threading.Thread] = []
        self._served_chunks = 0
        self._sent_frames = 0
        self._pongs = 0
        self._accepted = 0
        self._driver_sessions = 0
        self._reported_faults: set = set()
        self._closed = False
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self.address = f"{host}:{self.port}"

    def close(self) -> None:
        """Simulate/perform worker death: drop the listener and every live
        connection — chunk and heartbeat sessions alike — so the driver
        observes the same thing a crashed process would produce
        (idempotent)."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
        self._close_listener()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer may be gone already
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _close_listener(self) -> None:
        # The shutdown matters: close() alone does not wake a thread
        # already blocked in accept(), and the kernel keeps the port
        # bound through that in-flight accept — so a "dead" worker
        # would keep accepting (and serving!) new sessions.  shutdown
        # forces the pending accept to return an error immediately.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - not listening / already gone
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _inject(self, kind: str, detail: str) -> None:
        """Report one injected fault (once per kind, to keep journals tidy)."""
        with self._mutex:
            if kind in self._reported_faults:
                return
            self._reported_faults.add(kind)
        self.progress.emit("fault_injected", host=self.address, kind=kind, detail=detail)

    def serve_forever(self) -> None:
        """Accept and serve sessions until closed (or the driver-session cap).

        Each accepted connection is served on its own daemon thread; the
        accept loop exits when the listener closes — via :meth:`close`,
        a ``kill_worker`` fault, or the ``max_sessions`` cap being
        reached by a finishing driver session.
        """
        while True:
            with self._mutex:
                if self._closed:
                    break
                if (
                    self.max_sessions is not None
                    and self._driver_sessions >= self.max_sessions
                ):
                    break
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed (close(), cap, or kill fault)
                break
            with self._mutex:
                died = self._closed
                accepted = self._accepted
                if not died:
                    self._accepted += 1
            if died:
                # close() raced the accept: the kernel completed this
                # handshake before the listener went down, but the worker
                # is dead — drop the connection unserved so the driver
                # sees the death instead of a zombie session.
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                break
            refuse = self.faults.refuse_after_sessions
            if refuse is not None and accepted >= refuse:
                # Simulated wedged accept queue: take the connection and
                # immediately drop it, so the driver's dial "succeeds"
                # but the handshake never completes.
                self._inject(
                    "refuse_connect", f"refused connection {accepted}"
                )
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                continue
            self._threads = [t for t in self._threads if t.is_alive()]
            thread = threading.Thread(
                target=self._run_session,
                args=(conn,),
                name=f"worker-session-{accepted}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        self.close()

    def _run_session(self, conn: socket.socket) -> None:
        """Session thread wrapper: track the connection, count driver roles."""
        with self._mutex:
            self._conns.add(conn)
        role = None
        try:
            role = self._serve_session(conn)
        finally:
            with self._mutex:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if role == "driver":
                with self._mutex:
                    self._driver_sessions += 1
                    capped = (
                        self.max_sessions is not None
                        and self._driver_sessions >= self.max_sessions
                    )
                if capped:
                    # Unblock the accept loop so serve_forever can exit.
                    self._close_listener()

    def _serve_session(self, conn: socket.socket) -> Optional[str]:
        """One session: handshake, then a chunk loop or a heartbeat loop."""
        try:
            hello = recv_message(conn)
        except (EOFError, OSError):
            return None
        if hello.get("type") != "hello" or hello.get("version") != PROTOCOL_VERSION:
            try:
                send_message(
                    conn,
                    {
                        "type": "error",
                        "error": (
                            f"protocol mismatch: worker speaks v{PROTOCOL_VERSION}, "
                            f"driver sent {hello!r}; run the same release on both"
                        ),
                    },
                )
            except OSError:  # pragma: no cover - peer already gone
                pass
            return None
        role = hello.get("role", "driver")
        try:
            send_message(
                conn,
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "pinned": self.faults.pins_work,
                },
            )
        except OSError:
            return None
        if role == "heartbeat":
            self._serve_heartbeat(conn)
            return "heartbeat"
        self._serve_chunks(conn)
        return "driver"

    def _serve_heartbeat(self, conn: socket.socket) -> None:
        """Answer ping frames with pong until the peer hangs up.

        A ``stall_heartbeat`` fault silences the worker *without* closing
        the connection — the driver must detect the stall by timeout, the
        same way it would detect a hung process.
        """
        while True:
            try:
                message = recv_message(conn)
            except (EOFError, OSError):
                return
            kind = message.get("type")
            if kind == "bye":
                return
            if kind != "ping":
                try:
                    send_message(
                        conn,
                        {"type": "error", "error": f"unexpected message {kind!r}"},
                    )
                except OSError:
                    return
                continue
            stall = self.faults.stall_heartbeat_after
            with self._mutex:
                pongs = self._pongs
            if stall is not None and pongs >= stall:
                self._inject(
                    "stall_heartbeat", f"stalled after {pongs} pongs"
                )
                while True:  # swallow pings silently; never answer again
                    try:
                        recv_message(conn)
                    except (EOFError, OSError):
                        return
            with self._mutex:
                self._pongs += 1
            try:
                send_message(conn, {"type": "pong", "seq": message.get("seq")})
            except OSError:
                return

    def _kill_due(self) -> bool:
        """Fire a due ``kill_worker`` fault; True when the worker just died.

        Checked when a chunk arrives (``after=0``) and again once a chunk
        is computed, *before* its result is sent: the host dies with that
        chunk in flight, so the kill needs no later chunk to reach it and
        the driver always has a chunk to migrate.
        """
        kill = self.faults.kill_after_chunks
        with self._mutex:
            served = self._served_chunks
        if kill is None or served < kill:
            return False
        # Simulated host death: drop every connection mid-request and
        # refuse future dials, so chunk retries and heartbeat probes fail
        # alike.
        self._inject("kill_worker", f"killed after {served} chunks")
        self.close()
        return True

    def _serve_chunks(self, conn: socket.socket) -> None:
        """One driver session: a chunk/result loop with fault injection."""
        while True:
            try:
                message = recv_message(conn)
            except (EOFError, OSError):
                return
            kind = message.get("type")
            if kind == "bye":
                return
            if kind != "chunk":
                send_message(
                    conn, {"type": "error", "error": f"unexpected message {kind!r}"}
                )
                continue
            if self._kill_due():
                return
            if self.faults.slow_seconds:
                self._inject(
                    "slow_host", f"{self.faults.slow_seconds:g}s per chunk"
                )
                time.sleep(self.faults.slow_seconds)
            try:
                specs = [TrialSpec.from_config(config) for config in message["specs"]]
                results = run_chunk(specs, message.get("snapshot"))
            except Exception:  # noqa: BLE001 - remote traceback travels back
                send_message(
                    conn,
                    {
                        "type": "error",
                        "chunk": message.get("chunk"),
                        "error": traceback.format_exc(),
                    },
                )
                continue
            with self._mutex:
                self._served_chunks += 1
                frame = self._sent_frames
                self._sent_frames += 1
            if self._kill_due():
                return
            reply = {
                "type": "result",
                "chunk": message.get("chunk"),
                "results": [{**r.as_dict(), "profile": r.profile} for r in results],
            }
            fault = self.faults.frame_fault_at(frame)
            if fault is not None and fault.mode == "drop":
                # Swallow the reply and drop the link: the driver sees a
                # transport error (never a hang) and re-dispatches.
                self._inject("drop_frame", f"dropped result frame {frame}")
                return
            if fault is not None and fault.mode == "truncate":
                self._inject(
                    "truncate_frame", f"truncated result frame {frame}"
                )
                data = wire.encode(reply)
                cut = wire.HEADER.size + (len(data) - wire.HEADER.size) // 2
                try:
                    conn.sendall(data[:cut])
                except OSError:
                    pass
                return
            if fault is not None and fault.mode == "delay":
                self._inject(
                    "delay_frame",
                    f"delayed result frame {frame} by {fault.seconds:g}s",
                )
                time.sleep(fault.seconds)
            try:
                send_message(conn, reply)
            except OSError:
                return


# ----------------------------------------------------------------------
# Loopback workers: the local process pool
# ----------------------------------------------------------------------


def _serve_loopback(server: WorkerServer, stop_read: int, stop_write: int) -> None:
    """Body of one :func:`loopback_workers` child process."""
    os.close(stop_write)

    def watch_parent() -> None:
        # EOF once the parent closes its end (batch over) or dies.
        try:
            os.read(stop_read, 1)
        finally:
            server.close()

    threading.Thread(target=watch_parent, name="loopback-stop", daemon=True).start()
    server.serve_forever()
    for thread in server._threads:
        thread.join(timeout=1.0)


@contextlib.contextmanager
def loopback_workers(count: int) -> Iterator[List[str]]:
    """Fork ``count`` worker processes serving on ``127.0.0.1:0``; yield
    their addresses.

    Each child serves a listener bound before the fork, which the parent
    then closes *without* ``shutdown`` (that would break the child's
    ``accept`` too).  Children stop when the parent closes a shared pipe
    — on leaving the context, or by dying — and are reaped here.
    """
    # Fork, not spawn: a child starts with the modules the parent already
    # imported.  The caller forks before its batch starts any thread.
    context = multiprocessing.get_context("fork")
    stop_read, stop_write = os.pipe()
    processes = []
    addresses = []
    try:
        for index in range(count):
            server = WorkerServer()
            process = context.Process(
                target=_serve_loopback,
                args=(server, stop_read, stop_write),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            try:
                process.start()
            finally:
                server._listener.close()
            processes.append(process)
            addresses.append(server.address)
        yield addresses
    finally:
        os.close(stop_read)
        os.close(stop_write)
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - a wedged child
                process.kill()
                process.join()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class _WorkerSession:
    """Driver-side handle on one connected worker (socket + handshake)."""

    def __init__(self, sock: socket.socket, pid: int, pinned: bool = False) -> None:
        self.sock = sock
        self.pid = pid
        self.pinned = pinned

    @classmethod
    def connect(cls, host: str, timeout: float, role: str = "driver") -> "_WorkerSession":
        """Dial ``host:port``, exchange hello/welcome, return a ready session.

        Transport failures raise :class:`OSError` / :class:`EOFError`.  A
        worker that refuses the hello (another protocol version) raises
        :class:`RuntimeError`: retrying cannot help, so the batch fails.
        """
        name, _, port = host.rpartition(":")
        sock = socket.create_connection((name, int(port)), timeout=timeout)
        try:
            send_message(sock, {"type": "hello", "version": PROTOCOL_VERSION, "role": role})
            welcome = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        if welcome.get("type") != "welcome" or welcome.get("version") != PROTOCOL_VERSION:
            sock.close()
            raise RuntimeError(
                f"worker {host} rejected the handshake: "
                f"{welcome.get('error', welcome)}"
            )
        sock.settimeout(None)
        pid = welcome.get("pid")
        return cls(sock, pid if type(pid) is int else -1, welcome.get("pinned") is True)

    def request(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one message and block for its reply."""
        send_message(self.sock, message)
        return recv_message(self.sock)

    def close(self, polite: bool = False) -> None:
        """Drop the connection (optionally after a ``bye``).

        The shutdown before close matters: it unblocks a peer thread —
        or this driver's own dispatch thread — currently parked in
        ``recv`` on the same socket, which is how the heartbeat monitor
        cancels an in-flight request to a host it just declared dead.
        """
        if polite:
            try:
                send_message(self.sock, {"type": "bye"})
            except OSError:  # pragma: no cover - peer already gone
                pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class _RunState:
    """Shared scheduler state for one batch (guarded by ``cond``)."""

    def __init__(self, chunks: Sequence[Sequence[TrialSpec]], hosts: Sequence[str]) -> None:
        self.cond = threading.Condition()
        self.chunks = chunks
        # Wire form of every chunk, built before any dispatch so a spec
        # that cannot be encoded (non-JSON params) fails the batch at once.
        self.configs = [[spec.as_config() for spec in chunk] for chunk in chunks]
        self.total_trials = sum(len(chunk) for chunk in chunks)
        self.queues: Dict[str, deque] = {host: deque() for host in hosts}
        for i in range(len(chunks)):
            self.queues[hosts[i % len(hosts)]].append(i)
        # Chunk i resumes from boundary ``boundaries[i]`` (``None``: no
        # hand-off); its encoded snapshot ``payloads[i]`` is set once
        # ``published > i`` and kept until the batch ends.
        pipelined = len(chunks) > 1 and chunks[0][0].kind in SNAPSHOT_KINDS
        self.boundaries: List[Optional[int]] = [
            min(spec.index for spec in chunk) - 1 if pipelined else None for chunk in chunks
        ]
        self.payloads: List[Optional[wire.RawJSON]] = [None] * len(chunks)
        self.published = 0 if pipelined else len(chunks)
        self.live = set(hosts)
        # Hosts whose dispatch handshake has completed.  Until then a
        # host's queue is not stealable: its welcome may still pin it.
        self.ready: set = set()
        # Hosts whose welcome asked not to have queued work stolen
        # (fault-injected workers; see repro.runtime.faults).
        self.pinned: set = set()
        self.in_flight: Dict[str, int] = {}
        self.completed: Dict[int, List[TrialResult]] = {}
        self.announced: set = set()
        self.done_trials = 0
        self.error: Optional[Tuple[int, str]] = None
        # Dispatch sessions by host, registered so the heartbeat monitor
        # can sever a blocked request when it declares the host dead.
        self.sessions: Dict[str, _WorkerSession] = {}
        self.monitor_sessions: Dict[str, _WorkerSession] = {}
        # Set once every dispatch thread has drained; monitors exit on it
        # and suppress any late events.
        self.finished = threading.Event()


class ClusterExecutor:
    """Runs a batch of :class:`TrialSpec` across worker hosts.

    Implements the same ``run(specs) -> [TrialResult]`` contract as
    :class:`~repro.runtime.pool.TrialExecutor`, which runs its parallel
    batches through this class over :func:`loopback_workers` — callers
    (and :func:`~repro.runtime.api.run_trials`) cannot tell the two apart
    except through progress events.  See the module docstring for the
    scheduling, liveness and failure semantics.

    Parameters
    ----------
    hosts:
        Worker addresses (``host:port`` strings, CSV string accepted).
    chunk_size:
        Trials per dispatched chunk (default: batch split into
        ``len(hosts) * CHUNKS_PER_WORKER`` chunks; see :func:`plan_chunks`).
    progress:
        Optional :class:`ProgressReporter`; cluster events are emitted as
        ``worker_connect`` / ``worker_lost`` / ``chunk_migrated`` /
        ``steal`` / ``heartbeat_miss``.
    snapshot_store:
        Store the boundary snapshots of churn-replay kinds are cached in.
    retries:
        Reconnection attempts per host before it is declared lost.
    backoff:
        Base of the exponential retry backoff (seconds): attempt *k*
        sleeps ``backoff * 2**(k-1)``.
    connect_timeout:
        Socket connect/handshake timeout per attempt (seconds).
    heartbeat_interval:
        Seconds between liveness pings per host (``0`` disables the
        monitor, restoring dispatch-only failure detection).
    heartbeat_misses:
        Consecutive missed pings before a host is declared lost; with
        the interval this bounds detection latency at roughly
        ``heartbeat_interval * heartbeat_misses`` seconds.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[str]],
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressReporter] = None,
        snapshot_store=None,
        retries: int = 3,
        backoff: float = 0.1,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
    ) -> None:
        self.hosts = parse_hosts(hosts)
        if not self.hosts:
            raise ValueError("ClusterExecutor needs at least one host")
        if len(set(self.hosts)) != len(self.hosts):
            raise ValueError(f"duplicate hosts in {self.hosts!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if heartbeat_interval < 0:
            raise ValueError(
                f"heartbeat_interval must be >= 0, got {heartbeat_interval}"
            )
        if heartbeat_misses < 1:
            raise ValueError(
                f"heartbeat_misses must be >= 1, got {heartbeat_misses}"
            )
        self.chunk_size = chunk_size
        self.progress = progress if progress is not None else NullProgress()
        self.snapshot_store = snapshot_store
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.connect_timeout = float(connect_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute the batch and return results in ``(index, stream)`` order."""
        specs = list(specs)
        if not specs:
            return []
        state = _RunState(plan_chunks(specs, len(self.hosts), self.chunk_size), self.hosts)
        started = time.perf_counter()
        self.progress.emit("batch_start", total=len(specs), workers=len(self.hosts))
        threads = [
            threading.Thread(
                target=self._serve_host,
                args=(state, host),
                name=f"cluster-{host}",
                daemon=True,
            )
            for host in self.hosts
        ]
        monitors = []
        if self.heartbeat_interval > 0:
            monitors = [
                threading.Thread(
                    target=self._monitor_host,
                    args=(state, host),
                    name=f"heartbeat-{host}",
                    daemon=True,
                )
                for host in self.hosts
            ]
        for thread in threads + monitors:
            thread.start()
        try:
            self._publish(state)
        except BaseException as exc:
            self._abort(state, None, -1, f"snapshot backbone failed: {exc!r}")
            raise
        finally:
            for thread in threads:
                thread.join()
            state.finished.set()
            with state.cond:
                leftover_sessions = list(state.monitor_sessions.values())
                state.monitor_sessions.clear()
            for session in leftover_sessions:
                session.close()
            for monitor in monitors:
                monitor.join(timeout=0.5)

        if state.error is not None:
            chunk_id, remote_error = state.error
            raise RuntimeError(
                f"chunk {chunk_id} failed on a cluster worker:\n{remote_error}"
            )

        leftover = [i for i in range(len(state.chunks)) if i not in state.completed]
        if leftover:
            # Every host died: finish in-driver, keeping completed chunks.
            remaining = sum(len(state.chunks[i]) for i in leftover)
            self.progress.emit(
                "partial_fallback",
                done=state.done_trials,
                total=len(specs),
                reason=f"all {len(self.hosts)} cluster worker(s) lost; "
                f"re-running {remaining} of {len(specs)} trials locally",
            )
            for chunk_id in leftover:
                if chunk_id not in state.announced:
                    self.progress.emit(
                        "chunk_start",
                        chunk=chunk_id,
                        trials=len(state.chunks[chunk_id]),
                        boundary=state.boundaries[chunk_id],
                    )
                payload = state.payloads[chunk_id]
                part = run_chunk(
                    state.chunks[chunk_id], None if payload is None else json.loads(payload)
                )
                self._record(state, None, chunk_id, part)

        results = [r for i in sorted(state.completed) for r in state.completed[i]]
        results.sort(key=lambda r: (r.index, r.stream))
        self.progress.emit(
            "batch_finish", done=len(results), elapsed=time.perf_counter() - started
        )
        return results

    # -- snapshot hand-off -------------------------------------------------

    def _publish(self, state: _RunState) -> None:
        """Walk the snapshot backbone in chunk order, publishing each payload
        — encoded once, here — while the host threads run earlier chunks.
        Stops early once the batch has failed."""
        if state.published == len(state.chunks):
            return
        backbone = SnapshotBackbone(state.chunks[0][0], self.snapshot_store, self.progress)
        for i, target in enumerate(state.boundaries):
            if state.error is not None:
                return
            snapshot = backbone.payload_at(target)
            payload = None if snapshot is None else wire.RawJSON.of(snapshot)
            with state.cond:
                state.payloads[i] = payload
                state.published = i + 1
                state.cond.notify_all()

    def _await_payload(self, state: _RunState, host: str, chunk_id: int) -> bool:
        """Block until ``chunk_id``'s payload is published; False when the
        batch failed or ``host`` was lost meanwhile (its chunk migrated)."""
        with state.cond:
            while state.published <= chunk_id:
                if state.error is not None or host not in state.live:
                    return False
                state.cond.wait()
            return True

    # -- heartbeat monitor -------------------------------------------------

    def _monitor_host(self, state: _RunState, host: str) -> None:
        """Liveness monitor thread: ping ``host`` until the batch drains.

        Counts consecutive misses (timeout, refused dial, transport
        error); every miss is emitted as ``heartbeat_miss`` and at
        :attr:`heartbeat_misses` the host goes through the same
        :meth:`_host_lost` path as a dispatch failure.  Each probe cycle
        costs ``max(interval, time spent probing)``, so detection is
        bounded by ``misses * max(interval, ping timeout)`` with the ping
        timeout fixed at the interval.
        """
        interval = self.heartbeat_interval
        threshold = self.heartbeat_misses
        ping_timeout = max(interval, 0.02)
        session: Optional[_WorkerSession] = None
        misses = 0
        seq = 0
        try:
            while not state.finished.is_set():
                began = time.monotonic()
                with state.cond:
                    if host not in state.live:
                        return
                try:
                    if session is None:
                        session = _WorkerSession.connect(
                            host, self.connect_timeout, role="heartbeat"
                        )
                        session.sock.settimeout(ping_timeout)
                        with state.cond:
                            state.monitor_sessions[host] = session
                    seq += 1
                    reply = session.request({"type": "ping", "seq": seq})
                    if reply.get("type") != "pong":
                        raise OSError(f"unexpected heartbeat reply {reply!r}")
                    misses = 0
                except RuntimeError:
                    return  # handshake refused: the dispatch thread fails the batch
                except (OSError, EOFError) as exc:
                    if session is not None:
                        with state.cond:
                            if state.monitor_sessions.get(host) is session:
                                state.monitor_sessions.pop(host, None)
                        session.close()
                        session = None
                    if state.finished.is_set():
                        return
                    misses += 1
                    with state.cond:
                        if host not in state.live:
                            return
                    self.progress.emit(
                        "heartbeat_miss", host=host, misses=misses, threshold=threshold
                    )
                    if misses >= threshold:
                        self._host_lost(
                            state,
                            host,
                            f"no heartbeat after {misses} probes "
                            f"({interval:g}s apart): {exc}",
                        )
                        return
                pause = max(0.0, interval - (time.monotonic() - began))
                if state.finished.wait(timeout=pause):
                    return
        finally:
            if session is not None:
                with state.cond:
                    if state.monitor_sessions.get(host) is session:
                        state.monitor_sessions.pop(host, None)
                session.close(polite=True)

    # -- per-host driver thread --------------------------------------------

    def _serve_host(self, state: _RunState, host: str) -> None:
        session: Optional[_WorkerSession] = None
        failures = 0
        try:
            while True:
                chunk_id = self._claim(state, host)
                if chunk_id is None:
                    return
                try:
                    if session is None:
                        session = _WorkerSession.connect(host, self.connect_timeout)
                        with state.cond:
                            state.sessions[host] = session
                            state.ready.add(host)
                            if session.pinned:
                                state.pinned.add(host)
                            self.progress.emit("worker_connect", host=host, pid=session.pid)
                            state.cond.notify_all()
                    if not self._await_payload(state, host, chunk_id):
                        return
                    reply = session.request(
                        {
                            "type": "chunk",
                            "chunk": chunk_id,
                            "specs": state.configs[chunk_id],
                            "snapshot": state.payloads[chunk_id],
                        }
                    )
                    results = (
                        _results_from_payload(reply.get("results"))
                        if reply.get("type") == "result"
                        else None
                    )
                except RuntimeError as exc:
                    self._abort(state, host, chunk_id, str(exc))
                    return
                except (OSError, EOFError) as exc:
                    if session is not None:
                        session.close()
                    failures += 1
                    with state.cond:
                        if state.sessions.get(host) is session:
                            state.sessions.pop(host, None)
                        session = None
                        if host not in state.live:
                            # The heartbeat monitor declared this host dead
                            # while we were blocked; it already migrated the
                            # in-flight chunk — do not re-queue or re-lose.
                            return
                        retrying = failures <= self.retries
                        if retrying:
                            state.in_flight.pop(host, None)
                            state.queues[host].appendleft(chunk_id)
                            state.cond.notify_all()
                    if retrying:
                        time.sleep(self.backoff * (2 ** (failures - 1)))
                        continue
                    self._host_lost(state, host, exc, chunk_id)
                    return
                failures = 0
                if results is not None:
                    self._record(state, host, chunk_id, results)
                else:
                    # A worker-side exception is deterministic — the chunk
                    # would fail anywhere — so it aborts the batch instead
                    # of migrating.
                    self._abort(state, host, chunk_id, str(reply.get("error", reply)))
                    return
        finally:
            with state.cond:
                if state.sessions.get(host) is session:
                    state.sessions.pop(host, None)
            if session is not None:
                session.close(polite=True)

    def _claim(self, state: _RunState, host: str) -> Optional[int]:
        """Pop this host's next chunk, stealing from a busy peer when idle.

        Blocks while other live hosts still have queued or in-flight work
        that could migrate here; returns ``None`` when the batch is done,
        aborted, or no future work can possibly reach this host.
        """
        with state.cond:
            while True:
                if state.error is not None or host not in state.live:
                    return None
                queue = state.queues[host]
                stolen_from = None
                if not queue:
                    victims = [
                        h
                        for h in state.live
                        if h != host
                        and state.queues[h]
                        and h in state.ready
                        and h not in state.pinned
                    ]
                    if victims:
                        victim = max(victims, key=lambda h: len(state.queues[h]))
                        queue.append(state.queues[victim].pop())
                        stolen_from = victim
                if queue:
                    chunk_id = queue.popleft()
                    state.in_flight[host] = chunk_id
                    if stolen_from is not None:
                        self.progress.emit(
                            "steal", chunk=chunk_id, from_host=stolen_from, to_host=host
                        )
                    if chunk_id not in state.announced:
                        state.announced.add(chunk_id)
                        self.progress.emit(
                            "chunk_start",
                            chunk=chunk_id,
                            trials=len(state.chunks[chunk_id]),
                            boundary=state.boundaries[chunk_id],
                        )
                    return chunk_id
                if len(state.completed) == len(state.chunks):
                    return None
                pending_elsewhere = any(
                    h != host and (h in state.in_flight or state.queues[h])
                    for h in state.live
                )
                if not pending_elsewhere:
                    return None
                state.cond.wait(timeout=0.05)

    def _abort(
        self, state: _RunState, host: Optional[str], chunk_id: int, error: str
    ) -> None:
        """Fail the batch with ``error`` (the first abort wins)."""
        with state.cond:
            if state.error is None:
                state.error = (chunk_id, error)
            state.in_flight.pop(host, None)
            state.cond.notify_all()

    def _host_lost(
        self,
        state: _RunState,
        host: str,
        reason: Union[str, Exception],
        chunk_id: Optional[int] = None,
    ) -> None:
        """Declare a host dead (once) and migrate its work to the survivors.

        Shared by the dispatch path (retries exhausted; passes the failed
        ``chunk_id``) and the heartbeat monitor (missed-ping threshold;
        no ``chunk_id`` — the in-flight entry covers any blocked
        dispatch).  The first caller wins; later calls are no-ops, which
        is what keeps ``worker_lost`` exactly-once when both paths race.
        """
        if state.finished.is_set():
            return
        sessions: List[_WorkerSession] = []
        with state.cond:
            if host not in state.live:
                return
            state.live.discard(host)
            orphans: List[int] = []
            in_flight = state.in_flight.pop(host, None)
            if chunk_id is not None and chunk_id != in_flight:
                orphans.append(chunk_id)
            if in_flight is not None:
                orphans.append(in_flight)
            orphans.extend(state.queues[host])
            state.queues[host].clear()
            orphans = [o for o in orphans if o not in state.completed]
            for registry in (state.sessions, state.monitor_sessions):
                session = registry.pop(host, None)
                if session is not None:
                    sessions.append(session)
            self.progress.emit("worker_lost", host=host, reason=str(reason))
            survivors = sorted(state.live)
            if survivors:
                for i, orphan in enumerate(orphans):
                    target = survivors[i % len(survivors)]
                    state.queues[target].append(orphan)
                    self.progress.emit(
                        "chunk_migrated", chunk=orphan, from_host=host, to_host=target
                    )
            state.cond.notify_all()
        # Closed outside the lock: severing the dispatch session unblocks
        # a thread parked in recv on it, which then observes the host is
        # no longer live and exits without re-queueing.
        for session in sessions:
            session.close()

    def _record(
        self,
        state: _RunState,
        host: Optional[str],
        chunk_id: int,
        results: List[TrialResult],
    ) -> None:
        """Record a completed chunk exactly once and wake waiting peers.

        ``host`` is ``None`` for chunks the driver ran itself.
        """
        with state.cond:
            state.in_flight.pop(host, None)
            if chunk_id not in state.completed:
                state.completed[chunk_id] = results
                state.done_trials += len(results)
                self.progress.emit(
                    "chunk_done", chunk=chunk_id, trials=len(results), results=results
                )
                self.progress.emit("progress", done=state.done_trials, total=state.total_trials)
            state.cond.notify_all()
