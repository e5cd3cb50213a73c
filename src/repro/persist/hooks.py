"""The backend's WAL hook: handler commit points -> journal records.

:class:`PersistenceLog` is what :meth:`BackendServer.attach_persistence`
receives. Each ``log_*`` method materialises one record dataclass from
the handler's inputs at its commit point and appends it to the WAL;
``log_batch`` additionally drives the snapshot cadence (checkpoints are
counted in committed batches). The log is bound to the *current* server
instance so a checkpoint captures whoever is live; a fenced server
detaches itself on crash, and :class:`~repro.persist.host.BackendHost`
re-binds after recovery.
"""

from __future__ import annotations

import pickle
from typing import Tuple

from .records import (
    AdmitRecord,
    BatchRecord,
    EmptyBatchRecord,
    GrantRecord,
    LocateRecord,
    ReapRecord,
)

__all__ = ["PersistenceLog"]


class PersistenceLog:
    """Commit-point record builder over one WAL + snapshotter pair."""

    def __init__(self, wal, snapshotter):
        self._wal = wal
        self._snapshotter = snapshotter
        self._server = None

    def bind(self, server) -> None:
        """Point the snapshot cadence at the (new) live server."""
        self._server = server

    @property
    def wal(self):
        return self._wal

    def log_grant(self, request, t: float) -> None:
        position = request.position
        self._wal.append(
            GrantRecord(
                t=t,
                client_id=request.client_id,
                request_id=request.request_id,
                position_x=position.x if position is not None else None,
                position_y=position.y if position is not None else None,
            )
        )

    def log_admit(self, batch, seq: int, arrived_at: float) -> None:
        self._wal.append(
            AdmitRecord(
                t=arrived_at,
                batch_id=batch.batch_id,
                task_id=batch.task_id,
                seq=seq,
            )
        )

    def log_empty_batch(self, batch, t: float) -> None:
        self._wal.append(
            EmptyBatchRecord(
                t=t,
                client_id=batch.client_id,
                task_id=batch.task_id,
                batch_id=batch.batch_id,
            )
        )

    def log_batch(
        self, batch, arrived_at: float, done_t: float, lane: Tuple[int, float, float]
    ) -> None:
        seq, wait_s, service_s = lane
        self._wal.append(
            BatchRecord(
                arrived_t=arrived_at,
                done_t=done_t,
                client_id=batch.client_id,
                task_id=batch.task_id,
                batch_id=batch.batch_id,
                photos_blob=pickle.dumps(tuple(batch.photos), protocol=4),
                seq=seq,
                wait_s=wait_s,
                service_s=service_s,
            )
        )
        if self._server is not None:
            self._snapshotter.note_commit(self._server, done_t)

    def log_reap(self, task_id: int, t: float) -> None:
        self._wal.append(ReapRecord(t=t, task_id=task_id))

    def log_locate(self, query_count: int, t: float) -> None:
        self._wal.append(LocateRecord(t=t, query_count=query_count))
