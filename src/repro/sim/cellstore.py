"""Struct-of-arrays cell storage for the vectorized engine.

The reference engine moves :class:`~repro.router.cells.Cell` objects;
the vectorized engine moves integer cell ids into this store instead.
Bus words live in one contiguous ``(capacity, words)`` uint64 matrix so
a whole slot's wire transfers can be flip-counted in a single batched
popcount, while the scalar per-cell metadata (destination, reassembly
coordinates, timestamps) lives in plain Python lists — scalar reads in
the fabric inner loops are cheaper there than through numpy.

Rows are recycled through a free list, so a long run's memory stays
proportional to the peak number of in-flight + queued cells.  A fabric
core may hold delivered cells' rows until it has charged their wire
energy; before growing, the store calls :attr:`CellStore.reclaim` so
the core can hand those rows back first.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.router.cells import CellFormat
from repro.router.traffic import ArrivalBatch


class CellStore:
    """Array-backed pool of cells, addressed by integer id."""

    def __init__(self, cell_format: CellFormat, capacity: int = 1024) -> None:
        self.cell_format = cell_format
        capacity = max(16, capacity)
        self.words = np.zeros((capacity, cell_format.words), dtype=np.uint64)
        self.dest: list[int] = [0] * capacity
        self.src: list[int] = [0] * capacity
        self.packet_id: list[int] = [0] * capacity
        self.cell_index: list[int] = [0] * capacity
        self.cell_count: list[int] = [1] * capacity
        self.payload_bits: list[int] = [0] * capacity
        self.created_slot: list[int] = [0] * capacity
        self.entered_slot: list[int] = [0] * capacity
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        #: called before the arrays grow, to free rows held elsewhere
        self.reclaim: Callable[[], None] | None = None

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.words.shape[0]

    @property
    def live_cells(self) -> int:
        return self.capacity - len(self._free)

    @property
    def free_rows(self) -> int:
        return len(self._free)

    def _grow(self) -> None:
        old = self.capacity
        new_words = np.zeros((old * 2, self.cell_format.words), dtype=np.uint64)
        new_words[:old] = self.words
        self.words = new_words
        for lst in (
            self.dest,
            self.src,
            self.packet_id,
            self.cell_index,
            self.cell_count,
            self.payload_bits,
            self.created_slot,
            self.entered_slot,
        ):
            lst.extend([0] * old)
        self._free.extend(range(old * 2 - 1, old - 1, -1))

    def _make_room(self, count: int) -> None:
        if self.reclaim is not None:
            self.reclaim()
        while len(self._free) < count:
            self._grow()

    def alloc(self) -> int:
        """One free row id (growing the arrays when exhausted)."""
        if not self._free:
            self._make_room(1)
        return self._free.pop()

    def alloc_many(self, count: int) -> list[int]:
        """``count`` free row ids."""
        if len(self._free) < count:
            self._make_room(count)
        if count == 0:
            return []
        ids = self._free[-count:]
        del self._free[-count:]
        return ids

    def free_many(self, ids: list[int]) -> None:
        """Return delivered cells' rows to the pool."""
        self._free.extend(ids)

    # ------------------------------------------------------------------
    # Segmentation (mirrors repro.router.cells.segment_packet)
    # ------------------------------------------------------------------

    def add_batch(self, batch: ArrivalBatch) -> tuple[list[int], list[int]]:
        """Segment every packet of a batch into cells.

        Returns ``(cell_ids, packet_slices)`` where ``packet_slices[i]``
        is the index into ``cell_ids`` at which packet ``i``'s cells
        begin (length ``len(batch) + 1``).  Cell contents and coordinates
        match :func:`repro.router.cells.segment_packet` exactly.
        """
        fmt = self.cell_format
        per_cell = fmt.payload_words
        n = len(batch)
        offsets = batch.word_offsets
        words_per = offsets[1:] - offsets[:-1]
        slices = [0] * (n + 1)
        # Fast path: every packet fits in one cell of identical width.
        if n and int(words_per.max()) <= per_cell and int(
            words_per.min()
        ) == int(words_per.max()):
            ids = self.alloc_many(n)
            pw = int(words_per[0])
            block = np.zeros((n, fmt.words), dtype=np.uint64)
            block[:, 0] = fmt.header_words_array(batch.dests, batch.packet_ids)
            if pw:
                block[:, 1 : 1 + pw] = batch.payload_words.reshape(n, pw)
            self.words[ids] = block
            srcs = batch.srcs.tolist()
            dests = batch.dests.tolist()
            pids = batch.packet_ids.tolist()
            sizes = batch.size_bits.tolist()
            if batch.created_slots is None:
                slots = [batch.created_slot] * n
            else:
                slots = batch.created_slots.tolist()
            for i, cid in enumerate(ids):
                self.dest[cid] = dests[i]
                self.src[cid] = srcs[i]
                self.packet_id[cid] = pids[i]
                self.cell_index[cid] = 0
                self.cell_count[cid] = 1
                self.payload_bits[cid] = sizes[i]
                self.created_slot[cid] = slots[i]
                slices[i + 1] = i + 1
            return ids, slices
        # General path: per-packet segmentation (multi-cell packets).
        ids: list[int] = []
        for i in range(n):
            ids.extend(self.add_packet(batch, i))
            slices[i + 1] = len(ids)
        return ids, slices

    def add_packet(self, batch: ArrivalBatch, i: int) -> list[int]:
        """Segment packet ``i`` of a batch; returns its new cell ids."""
        fmt = self.cell_format
        per_cell = fmt.payload_words
        o0 = int(batch.word_offsets[i])
        o1 = int(batch.word_offsets[i + 1])
        payload = batch.payload_words[o0:o1]
        n_cells = max(1, -(-(o1 - o0) // per_cell))
        dest = int(batch.dests[i])
        src = int(batch.srcs[i])
        pid = int(batch.packet_ids[i])
        remaining_bits = int(batch.size_bits[i])
        slot = batch.packet_created_slot(i)
        ids = []
        for index in range(n_cells):
            cid = self.alloc()
            row = self.words[cid]
            row[:] = 0
            row[0] = np.uint64(fmt.header_word(dest, index, pid))
            chunk = payload[index * per_cell : (index + 1) * per_cell]
            row[1 : 1 + chunk.size] = chunk
            cell_payload_bits = min(remaining_bits, per_cell * fmt.bus_width)
            remaining_bits -= cell_payload_bits
            self.dest[cid] = dest
            self.src[cid] = src
            self.packet_id[cid] = pid
            self.cell_index[cid] = index
            self.cell_count[cid] = n_cells
            self.payload_bits[cid] = cell_payload_bits
            self.created_slot[cid] = slot
            ids.append(cid)
        return ids
