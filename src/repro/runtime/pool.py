"""Trial executor: a serial loop, or local worker processes as loopback hosts.

``workers <= 1`` runs the batch in this process as one chunk: the single
replay loop of a churn-replay kind *is* the direct serial hand-off —
state simply persists across indices.  ``workers > 1`` forks up to
``workers`` :class:`~repro.runtime.cluster.WorkerServer` processes on
``127.0.0.1:0`` (:func:`~repro.runtime.cluster.loopback_workers`) and
runs the batch through the one chunk scheduler of
:mod:`repro.runtime.cluster`: the same wire, work stealing, migration,
exactly-once accounting and all-hosts-lost fallback as a remote
cluster.  Only the heartbeat monitor stays off, because the driver sees
a local worker's death on its socket at once.  That includes the pipelined snapshot hand-off of the
churn-replay kinds (:data:`~repro.runtime.snapshots.SNAPSHOT_KINDS`):
the driver advances one :class:`~repro.runtime.snapshots.SnapshotBackbone`
and publishes each chunk's boundary state while earlier chunks run, so
a chunk resumes mid-scenario instead of replaying the churn prefix from
t=0 (``docs/SNAPSHOTS.md``).  Results are merged in ``(index, stream)``
order, bit-identical to the serial run whichever worker finished first.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from .cluster import ClusterExecutor, loopback_workers, plan_chunks
from .progress import NullProgress, ProgressReporter
from .snapshots import SnapshotBackbone
from .trials import TrialResult, TrialSpec, run_chunk

# SnapshotBackbone is re-exported: callers import it from this module.
__all__ = ["SnapshotBackbone", "TrialExecutor"]


class TrialExecutor:
    """Runs a batch of :class:`TrialSpec` serially or over worker processes.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` selects the in-process serial path.
    chunk_size:
        Trials per dispatched chunk (default: batch split into
        ``workers * CHUNKS_PER_WORKER`` chunks).
    progress:
        Optional :class:`ProgressReporter` for telemetry.
    snapshot_store:
        Optional :class:`~repro.runtime.store.ResultsStore` the boundary
        snapshots of churn-replay kinds are cached in.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressReporter] = None,
        snapshot_store=None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = max(1, int(workers))
        self.chunk_size = chunk_size
        self.progress = progress if progress is not None else NullProgress()
        self.snapshot_store = snapshot_store

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute the batch and return results in ``(index, stream)`` order."""
        specs = list(specs)
        if not specs:
            return []
        if self.workers > 1:
            chunks = plan_chunks(specs, self.workers, self.chunk_size)
            if len(chunks) > 1:
                # No heartbeats: the kernel closes a dead local worker's
                # sockets, so the dispatch path sees the death at once, and
                # each worker then serves its one driver session only.
                with loopback_workers(min(self.workers, len(chunks))) as hosts:
                    return ClusterExecutor(
                        hosts,
                        chunk_size=len(chunks[0]),
                        progress=self.progress,
                        snapshot_store=self.snapshot_store,
                        heartbeat_interval=0,
                    ).run(specs)

        started = time.perf_counter()
        self.progress.emit("batch_start", total=len(specs), workers=1)
        self.progress.emit("chunk_start", chunk=0, trials=len(specs), boundary=None)
        results = run_chunk(specs)
        self.progress.emit("chunk_done", chunk=0, trials=len(results), results=results)
        results.sort(key=lambda r: (r.index, r.stream))
        self.progress.emit(
            "batch_finish", done=len(results), elapsed=time.perf_counter() - started
        )
        return results
