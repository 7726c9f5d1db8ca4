"""Seeded request streams, built before any clock starts.

The program under test only ever sees the arrays built here: the
benchmark draws every OLTP transaction up front from the contention
zoo's ``BASE_MIX`` with ``random.Random(seed)`` and replays the block
cyclically for as long as a run lasts.  The SHA-256 digest covers the
generated arrays themselves (not the mix parameters), so two runs with
equal digests were fed identical inputs even if ``TransactionMix``
changes underneath them.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass

from repro.lockmgr.modes import LockMode
from repro.workloads.contention import BASE_MIX

#: Lock modes by the byte stored in :attr:`Stream.modes`.
MODES = tuple(LockMode)
_MODE_CODE = {mode: code for code, mode in enumerate(MODES)}

#: The rollout's private table: one past BASE_MIX's OLTP tables, so its
#: row locks and its escalated table lock never conflict with OLTP.
ROLLOUT_TABLE = BASE_MIX.num_tables


@dataclass(frozen=True)
class Stream:
    """A flat, compact OLTP request stream.

    Transaction ``i`` is accesses ``offsets[i]:offsets[i + 1]``; access
    ``k`` locks row ``rows[k]`` of table ``tables[k]`` in mode
    ``MODES[modes[k]]``.  Flat arrays keep the stream's footprint out of
    the ``rss_peak_mib`` it would otherwise inflate.
    """

    seed: int
    tables: array
    rows: array
    modes: bytes
    offsets: array
    rollout_rows: int
    digest: str

    @property
    def transactions(self) -> int:
        return len(self.offsets) - 1

    @property
    def accesses(self) -> int:
        return len(self.rows)


def build_stream(seed: int, txns: int, rollout_rows: int = 0) -> Stream:
    """Draw ``txns`` BASE_MIX transactions from ``random.Random(seed)``.

    A run replays the block cyclically: BASE_MIX commits release every
    lock, so a replayed transaction meets the same lock-manager state a
    fresh draw would.  ``rollout_rows`` sizes the batch rollout (rows
    ``0..rollout_rows-1`` of :data:`ROLLOUT_TABLE`, X mode); it enters
    the digest too.
    """
    rng = random.Random(seed)
    tables = array("H")
    rows = array("I")
    modes = bytearray()
    offsets = array("I", [0])
    for _ in range(txns):
        for access in BASE_MIX.draw_transaction(rng):
            tables.append(access.table_id)
            rows.append(access.row_id)
            modes.append(_MODE_CODE[access.mode])
        offsets.append(len(rows))
    digest = hashlib.sha256()
    for part in (tables, rows, offsets):
        digest.update(part.tobytes())
    digest.update(bytes(modes))
    digest.update(
        f"rollout:{ROLLOUT_TABLE}:{rollout_rows}:{LockMode.X.value}".encode()
    )
    return Stream(
        seed=seed,
        tables=tables,
        rows=rows,
        modes=bytes(modes),
        offsets=offsets,
        rollout_rows=rollout_rows,
        digest=digest.hexdigest(),
    )
