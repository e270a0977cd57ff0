"""Vectorized fabric cores: array/id-based counterparts of the fabrics.

Each core re-implements one reference fabric's ``advance_slot`` against
a :class:`~repro.sim.cellstore.CellStore`: cells are integer row ids and
wire and switch energy is charged **once per chunk** of
``_CHUNK_SLOTS`` slots instead of once per event.  During a chunk a
core only logs what it needs (the slot's grants, or for the banyan the
link transfers its per-switch logic produced); :meth:`flush` then
charges the whole chunk as ``(slots x lines)`` energy blocks, one per
stage of links or switches.  The crossbar, fully connected and
Batcher-Banyan cores feed nothing back into arbitration, so their whole
datapath runs at flush time: the bitonic sorter and the banyan behind
it are compare/swap/gather ops over ``(slots x lines)`` arrays.

Bit-for-bit equivalence with the reference fabrics is a hard contract
(tested in ``tests/test_engine_equivalence.py``).  Chunking keeps it:

* a link's flips are ``popcount(first word ^ resting word)`` plus the
  cell's word-to-word flips; the resting word is carried forward along
  the slot axis, so every transfer sees the state the reference tracer
  saw;
* each component is charged at most once per slot (unique arbiter
  destinations, unique per-stage output lines), and a column's charges
  are summed down the slot axis with ``np.add.accumulate`` starting
  from the ledger's value: the same float-add sequence as the
  reference's per-event ``+=``;
* a component the ledger has not seen yet is inserted in the order of
  its first non-zero charge in the reference's event order (which fixes
  the category-total summation order), and counter keys are created in
  the order the per-slot code created them.

The engine flushes at the warmup boundary and before collecting
results, and hands delivered cells back through :meth:`release`: their
rows stay allocated until the chunk that references them is charged.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fabrics import topology
from repro.fabrics.banyan import BanyanFabric
from repro.fabrics.batcher_banyan import BatcherBanyanFabric
from repro.fabrics.crossbar import CrossbarFabric
from repro.fabrics.fully_connected import FullyConnectedFabric
from repro.sim import ledger as cat
from repro.sim.cellstore import CellStore

try:  # numpy >= 2.0
    _popcount = np.bitwise_count
except AttributeError:  # pragma: no cover - legacy numpy fallback
    from repro.sim.tracer import _bitwise_count as _popcount


#: Slots charged per flush.  Results do not depend on it.
_CHUNK_SLOTS = 64

_BUF = 0
_LATCH = 1


class _Charges:
    """One chunk's additions to one ledger category, applied together.

    Components arrive in blocks: an ``(slots x width)`` energy matrix
    for the ``width`` components from ``offset`` on.  Each column is
    summed down the slot axis starting from the ledger's value, so the
    float-add sequence is the reference's per-slot ``+=``; zero entries
    are no charge, as in :meth:`EnergyLedger.add`.  A component the
    ledger has not seen yet is inserted in the order of its first
    charge: by chunk row, then by ``position(rows, cols)``, the entry's
    place in the reference's within-slot charge order.  ``add`` calls
    ``position`` before it returns, and only for such first charges.
    """

    def __init__(self, target: dict, names: list[str]) -> None:
        self.target = target
        self.names = names
        self._values: list[tuple[int, float]] = []
        self._fresh: list[tuple[int, int, int]] = []

    def add(self, offset: int, energy: np.ndarray, position) -> None:
        charged = energy != 0
        touched = np.flatnonzero(charged.any(axis=0))
        if not touched.size:
            return
        target = self.target
        names = self.names
        cols = (touched + offset).tolist()
        new = [i for i, col in enumerate(cols) if names[col] not in target]
        if new:
            local = touched[new]
            rows = charged[:, local].argmax(axis=0)
            self._fresh.extend(
                zip(
                    rows.tolist(),
                    position(rows, local).tolist(),
                    (local + offset).tolist(),
                )
            )
        sums = np.empty((energy.shape[0] + 1, touched.size))
        sums[0] = [target.get(names[col], 0.0) for col in cols]
        sums[1:] = energy[:, touched]
        np.add.accumulate(sums, axis=0, out=sums)
        self._values.extend(zip(cols, sums[-1].tolist()))

    def apply(self) -> None:
        target = self.target
        names = self.names
        for _, _, col in sorted(self._fresh):
            target[names[col]] = 0.0
        for col, value in self._values:
            target[names[col]] = value


def _flatten(log: list[list[tuple[int, int]]]):
    """A chunk's grant log as ``(rows, ports, cell ids, row starts)``."""
    counts = [len(grants) for grants in log]
    total = sum(counts)
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(log)), np.intp, 2 * total
    )
    rows = np.repeat(np.arange(len(log)), counts)
    starts = np.cumsum(counts) - counts
    return rows, flat[0::2], flat[1::2], starts


class VectorFabricCore:
    """Shared state, the chunk clock and the batched energy flush.

    Subclasses implement :meth:`advance`, call :meth:`_end_slot` at its
    end, and charge their logged work in :meth:`_flush_chunk`.  A core
    that does neither keeps per-slot behaviour: :meth:`flush` is then a
    no-op and :meth:`release` frees rows at once.
    """

    def __init__(self, fabric, store: CellStore, wire_names: list[str]) -> None:
        if store.cell_format != fabric.cell_format:
            raise ConfigurationError("store/fabric cell format mismatch")
        self.fabric = fabric
        self.store = store
        self.ports = fabric.ports
        self._ledger = fabric.ledger
        self._switch_dict = self._ledger.component_dict(cat.SWITCH)
        self._wire_dict = self._ledger.component_dict(cat.WIRE)
        self._buffer_dict = self._ledger.component_dict(cat.BUFFER)
        self._refresh_dict = self._ledger.component_dict(cat.REFRESH)
        self._grid_energy = fabric.models.grid_energy_j
        #: wire component of each link (link id == column index)
        self._wire_names = wire_names
        self._resting = np.zeros(len(wire_names), dtype=np.uint64)
        self._slots_pending = 0
        self._held: list[int] = []

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        """Transport one slot of granted ``(port, cell_id)`` pairs."""
        raise NotImplementedError

    def can_admit(self, port: int) -> bool:
        return True

    def in_flight(self) -> int:
        return 0

    def release(self, ids: list[int]) -> None:
        """Return delivered cells' rows once no pending charge needs them."""
        if self._slots_pending:
            self._held.extend(ids)
        else:
            self.store.free_many(ids)

    def flush(self) -> None:
        """Charge the pending chunk to the ledger and free held rows."""
        if self._slots_pending:
            self._slots_pending = 0
            self._flush_chunk()
        if self._held:
            self.store.free_many(self._held)
            self._held = []

    # ------------------------------------------------------------------
    # Chunked accounting
    # ------------------------------------------------------------------

    def _end_slot(self) -> None:
        self._slots_pending += 1
        # A chunk also ends early when held rows would otherwise make
        # the store grow at the next slot's arrivals.
        if self._slots_pending >= _CHUNK_SLOTS or (
            self._held and self.store.free_rows < 2 * self.ports
        ):
            self.flush()

    def _flush_chunk(self) -> None:
        """Charge the work logged since the last flush."""

    def _cell_words(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        """First word, last word and word-to-word flips of each cell.

        Each array has one padding entry at the end, so a cell index of
        -1 ("no transfer") reads zeros.
        """
        words = self.store.words
        width = words.shape[1]
        first = np.zeros(cells.size + 1, dtype=np.uint64)
        first[:-1] = words[cells, 0]
        inner = np.zeros(cells.size + 1, dtype=np.int64)
        prev = first[:-1]
        for j in range(1, width):
            word = words[cells, j]
            inner[:-1] += _popcount(word ^ prev)
            prev = word
        last = np.zeros(cells.size + 1, dtype=np.uint64)
        last[:-1] = prev
        return first, last, inner

    def _wire_block(
        self,
        charges: _Charges,
        base: int,
        cell: np.ndarray,
        grids,
        words: tuple[np.ndarray, ...],
        position,
    ) -> int:
        """Charge one block of links; returns its flip count.

        ``cell[s, j]`` is the index (into ``words``) of the cell that
        crossed link ``base + j`` in chunk row ``s``, or -1.  A transfer
        flips ``popcount(first ^ resting)`` plus the cell's own
        word-to-word flips, then leaves the link resting on the cell's
        last word.  ``grids`` broadcasts against ``cell``.
        """
        first, last, inner = words
        occupied = cell >= 0
        slots, width = cell.shape
        resting = self._resting[base : base + width]
        # src[s, j]: 1 + the last row <= s that drove link j, else 0
        # (row 0 of ``history`` is the resting word at chunk start).
        src = np.where(occupied, np.arange(1, slots + 1)[:, None], 0)
        np.maximum.accumulate(src, axis=0, out=src)
        history = np.vstack((resting, last[cell]))
        columns = np.arange(width)
        prev = np.empty((slots, width), dtype=np.uint64)
        prev[0] = resting
        prev[1:] = history[src[:-1], columns]
        flips = np.where(
            occupied, _popcount(first[cell] ^ prev) + inner[cell], 0
        )
        self._resting[base : base + width] = history[src[-1], columns]
        charges.add(base, flips * grids * self._grid_energy, position)
        return int(flips.sum())


class _GrantLogCore(VectorFabricCore):
    """A core whose whole datapath is a function of each slot's grants.

    ``advance`` logs the grants and returns the delivered cells; the
    fabric is simulated for the whole chunk at flush time.
    """

    def __init__(self, fabric, store: CellStore, wire_names: list[str]) -> None:
        super().__init__(fabric, store, wire_names)
        self._log: list[list[tuple[int, int]]] = []

    def _flush_chunk(self) -> None:
        log = self._log
        if not log:
            return
        self._log = []
        rows, ports, cids, starts = _flatten(log)
        dest = self.store.dest
        dests = np.fromiter(
            map(dest.__getitem__, cids.tolist()), np.intp, cids.size
        )
        self._charge_log(len(log), rows, ports, cids, dests, starts)

    def _charge_log(self, slots, rows, ports, cids, dests, starts) -> None:
        raise NotImplementedError


class CrossbarCore(_GrantLogCore):
    """Vectorized :class:`~repro.fabrics.crossbar.CrossbarFabric`."""

    def __init__(self, fabric: CrossbarFabric, store: CellStore) -> None:
        n = fabric.ports
        self._row_comp = [f"xbar.row{p}" for p in range(n)]
        super().__init__(
            fabric, store, self._row_comp + [f"xbar.col{d}" for d in range(n)]
        )
        layout = fabric.layout
        fmt = fabric.cell_format
        self._link_grids = np.array(
            [layout.row_wire_grids(p) for p in range(n)]
            + [layout.column_wire_grids(d) for d in range(n)],
            dtype=np.float64,
        )
        base = fabric._crosspoint_lut.lookup((1,)) * fmt.bus_width * fmt.words
        self._row_energy = base * n

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if grants:
            grants = sorted(grants)
            self._log.append(grants)
            delivered = [cid for _, cid in grants]
        self._end_slot()
        return delivered

    def _charge_log(self, slots, rows, ports, cids, dests, starts) -> None:
        # Per grant, in port order: the row's N crosspoints, then the
        # row wire and the destination's column wire.
        n = self.ports
        sw = np.zeros((slots, n))
        sw[rows, ports] = self._row_energy
        switch = _Charges(self._switch_dict, self._row_comp)
        switch.add(0, sw, lambda r, c: c)
        switch.apply()
        index = np.arange(cids.size)
        row_cell = np.full((slots, n), -1, dtype=np.intp)
        row_cell[rows, ports] = index
        col_cell = np.full((slots, n), -1, dtype=np.intp)
        col_cell[rows, dests] = index
        words = self._cell_words(cids)
        wire = _Charges(self._wire_dict, self._wire_names)
        flips = self._wire_block(
            wire, 0, row_cell, self._link_grids[:n], words, lambda r, c: 2 * c
        )
        flips += self._wire_block(
            wire,
            n,
            col_cell,
            self._link_grids[n:],
            words,
            lambda r, c: 2 * ports[col_cell[r, c]] + 1,
        )
        wire.apply()
        self._ledger.count("switch_traversals", n * cids.size)
        self._ledger.count("cells_delivered", cids.size)
        self._ledger.count("wire_flips", flips)


class FullyConnectedCore(_GrantLogCore):
    """Vectorized :class:`~repro.fabrics.fully_connected.FullyConnectedFabric`."""

    def __init__(self, fabric: FullyConnectedFabric, store: CellStore) -> None:
        n = fabric.ports
        super().__init__(fabric, store, [f"fc.bus{p}" for p in range(n)])
        layout = fabric.layout
        fmt = fabric.cell_format
        lut = fabric._mux_lut
        self._mux_comp = [f"fc.mux{d}" for d in range(n)]
        mux_energy = []
        mux_traversals = []
        for p in range(n):
            vector = tuple(1 if i == p else 0 for i in range(lut.n_inputs))
            mux_energy.append(lut.lookup(vector) * fmt.bus_width * fmt.words)
            mux_traversals.append(sum(vector))
        self._mux_energy = np.array(mux_energy, dtype=np.float64)
        self._mux_traversals = np.array(mux_traversals, dtype=np.int64)
        self._conn_grids = np.array(
            [
                [
                    layout.connection_grids(p, d, mode=fabric.wire_mode)
                    for d in range(n)
                ]
                for p in range(n)
            ],
            dtype=np.float64,
        )

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if grants:
            grants = sorted(grants)
            self._log.append(grants)
            delivered = [cid for _, cid in grants]
        self._end_slot()
        return delivered

    def _charge_log(self, slots, rows, ports, cids, dests, starts) -> None:
        # Per grant, in port order: the destination's MUX, then the
        # input's bus.
        n = self.ports
        index = np.arange(cids.size)
        by_dest = np.full((slots, n), -1, dtype=np.intp)
        by_dest[rows, dests] = index
        sw = np.zeros((slots, n))
        sw[rows, dests] = self._mux_energy[ports]
        switch = _Charges(self._switch_dict, self._mux_comp)
        switch.add(0, sw, lambda r, c: ports[by_dest[r, c]])
        switch.apply()
        cell = np.full((slots, n), -1, dtype=np.intp)
        cell[rows, ports] = index
        grids = np.zeros((slots, n))
        grids[rows, ports] = self._conn_grids[ports, dests]
        wire = _Charges(self._wire_dict, self._wire_names)
        flips = self._wire_block(
            wire, 0, cell, grids, self._cell_words(cids), lambda r, c: c
        )
        wire.apply()
        self._ledger.count(
            "switch_traversals", int(self._mux_traversals[ports].sum())
        )
        self._ledger.count("cells_delivered", cids.size)
        self._ledger.count("wire_flips", flips)


class BanyanCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.banyan.BanyanFabric`.

    Latches are indexed by line number (``latch[stage][line]`` is a cell
    id or -1); node buffers are per-switch deques of ``(cell_id,
    input_index)``.  The per-switch candidate/contention/move/park logic
    follows the reference implementation statement by statement, because
    the latches feed back into :meth:`can_admit`; switch, buffer and
    refresh energy are charged as they happen.  Only the link transfers
    are logged, as ``(link, cell, grids)`` records, and charged per
    chunk.
    """

    def __init__(self, fabric: BanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        stages = fabric.stages
        super().__init__(
            fabric,
            store,
            [f"banyan.ingress{p}" for p in range(n)]
            + [
                f"banyan.stage{s}.out{line}"
                for s in range(stages)
                for line in range(n)
            ],
        )
        layout = fabric.layout
        fmt = fabric.cell_format
        wm = fabric.wire_mode
        self.stages = stages
        self._cap = fabric.buffer_cells_per_switch
        self._cell_bits = fmt.cell_bits
        self._edge_grids = layout.edge_link_grids()
        self._bits = [topology.stage_bit(n, s) for s in range(stages)]
        self._stage_masks = [1 << b for b in self._bits]
        self._lines = [
            [topology.switch_lines(n, s, k) for k in range(n // 2)]
            for s in range(stages)
        ]
        self._stage_grids = [
            [
                layout.link_grids(self._bits[s], False, mode=wm),
                layout.link_grids(self._bits[s], True, mode=wm),
            ]
            for s in range(stages)
        ]
        self._sw_comp = [
            [f"banyan.stage{s}.sw{k}" for k in range(n // 2)]
            for s in range(stages)
        ]
        lut = fabric._switch_lut
        self._sw_e = {
            v: lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((0, 1), (1, 0), (1, 1))
        }
        buffer = fabric.models.buffer
        self._write_e = buffer.write_energy_j(self._cell_bits)
        self._read_e = buffer.read_energy_j(self._cell_bits)
        self._refresh_enabled = (
            buffer.refresh_energy_j != 0 and fabric.slot_seconds is not None
        )
        if self._refresh_enabled:
            self._refresh_by_cells = [0.0] + [
                buffer.refresh_energy_for(
                    c * self._cell_bits, fabric.slot_seconds
                )
                for c in range(1, self._cap + 1)
            ]
        self._latch = [[-1] * n for _ in range(stages)]
        self._buf: list[list[deque]] = [
            [deque() for _ in range(n // 2)] for _ in range(stages)
        ]
        self._in_flight = 0
        #: link transfers of the chunk: link, cell id, grids, and the
        #: record count at the end of each slot that logged any
        self._rec_link: list[int] = []
        self._rec_cell: list[int] = []
        self._rec_grids: list[float] = []
        self._rec_ends: list[int] = []

    def can_admit(self, port: int) -> bool:
        return self._latch[0][port] < 0

    def in_flight(self) -> int:
        return self._in_flight

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        counts = [0, 0, 0, 0, 0, 0]  # contentions, blocked, stalls,
        # buffer writes, buffer reads, switch traversals
        logged = len(self._rec_link)
        for stage in range(self.stages - 1, -1, -1):
            self._advance_stage(stage, delivered, counts)
        self._admit(grants, slot)
        self._refresh_all()
        if len(self._rec_link) != logged:
            self._rec_ends.append(len(self._rec_link))
            # The flips are counted at flush; the key is created here,
            # first among the slot's counters, as per-slot charging did.
            self._ledger.count("wire_flips", 0)
        self._count_slot(counts, len(delivered))
        self._end_slot()
        return delivered

    def _flush_chunk(self) -> None:
        count = len(self._rec_link)
        if not count:
            return
        links = np.array(self._rec_link, dtype=np.int32)
        ids = np.array(self._rec_cell, dtype=np.intp)
        values = np.array(self._rec_grids, dtype=np.float64)
        ends = self._rec_ends
        self._rec_link = []
        self._rec_cell = []
        self._rec_grids = []
        self._rec_ends = []
        slots = len(ends)
        n = self.ports
        rows = np.repeat(
            np.arange(slots, dtype=np.int32), np.diff(ends, prepend=0)
        )
        block = links // n  # 0: ingress, 1 + s: stage s outputs
        wire = _Charges(self._wire_dict, self._wire_names)
        flips = 0
        for b in range(self.stages + 1):
            sel = np.flatnonzero(block == b)
            if not sel.size:
                continue
            # A cell crosses each block at most once per chunk.
            r = rows[sel]
            c = links[sel] - b * n
            cell = np.full((slots, n), -1, dtype=np.intp)
            cell[r, c] = np.arange(sel.size)
            grids = np.zeros((slots, n))
            grids[r, c] = values[sel]
            # Records were logged in the reference's charge order.
            logged = np.zeros((slots, n), dtype=np.intp)
            logged[r, c] = sel
            flips += self._wire_block(
                wire,
                b * n,
                cell,
                grids,
                self._cell_words(ids[sel]),
                lambda rr, cc: logged[rr, cc],
            )
        wire.apply()
        self._ledger.count("wire_flips", flips)

    def _count_slot(self, counts: list[int], delivered_count: int) -> None:
        ledger = self._ledger
        if counts[0]:
            ledger.count("contentions", counts[0])
        if counts[1]:
            ledger.count("blocked_advances", counts[1])
        if counts[2]:
            ledger.count("buffer_full_stalls", counts[2])
        if counts[3]:
            ledger.count("buffer_writes", counts[3])
            ledger.count("buffered_bits", counts[3] * self._cell_bits)
            ledger.count("cells_buffered", counts[3])
        if counts[4]:
            ledger.count("buffer_reads", counts[4])
        if counts[5]:
            ledger.count("switch_traversals", counts[5])
        if delivered_count:
            ledger.count("cells_delivered", delivered_count)

    def _advance_stage(
        self, stage: int, delivered: list[int], counts: list[int]
    ) -> None:
        latch = self._latch[stage]
        last = stage == self.stages - 1
        next_latch = None if last else self._latch[stage + 1]
        bufs = self._buf[stage]
        lines_tab = self._lines[stage]
        mask = self._stage_masks[stage]
        dest = self.store.dest
        entered = self.store.entered_slot
        grids_pair = self._stage_grids[stage]
        swcomp = self._sw_comp[stage]
        link_base = self.ports + stage * self.ports
        sw_e = self._sw_e
        sw_dict = self._switch_dict
        buf_dict = self._buffer_dict
        read_e = self._read_e
        write_e = self._write_e
        cap = self._cap
        rec_link = self._rec_link
        rec_cell = self._rec_cell
        rec_grids = self._rec_grids
        for k in range(self.ports // 2):
            buf = bufs[k]
            l0, l1 = lines_tab[k]
            c0 = latch[l0]
            c1 = latch[l1]
            if not buf and c0 < 0 and c1 < 0:
                continue
            # Candidates in reference priority order: buffer head first,
            # then latch cells by (fabric entry slot, input index).
            candidates = []
            if buf:
                head_cid, head_ii = buf[0]
                candidates.append((_BUF, head_ii, head_cid))
            if c0 >= 0:
                if c1 >= 0:
                    if entered[c0] <= entered[c1]:
                        candidates.append((_LATCH, 0, c0))
                        candidates.append((_LATCH, 1, c1))
                    else:
                        candidates.append((_LATCH, 1, c1))
                        candidates.append((_LATCH, 0, c0))
                else:
                    candidates.append((_LATCH, 0, c0))
            elif c1 >= 0:
                candidates.append((_LATCH, 1, c1))
            # One winner per output line; claim order = priority order.
            winners: dict[int, tuple[int, int, int]] = {}
            win_order: list[int] = []
            losers: list[tuple[int, int, int]] = []
            for cand in candidates:
                in_line = l0 if cand[1] == 0 else l1
                out_line = (in_line & ~mask) | (dest[cand[2]] & mask)
                if out_line in winners:
                    losers.append(cand)
                    counts[0] += 1
                else:
                    winners[out_line] = cand
                    win_order.append(out_line)
            v0 = v1 = 0
            for out_line in win_order:
                origin, input_index, cid = winners[out_line]
                if not last and next_latch[out_line] >= 0:
                    counts[1] += 1
                    losers.append((origin, input_index, cid))
                    continue
                if origin == _BUF:
                    buf.popleft()
                    if read_e:
                        buf_dict[swcomp[k]] += read_e
                    counts[4] += 1
                else:
                    latch[l0 if input_index == 0 else l1] = -1
                in_line = l0 if input_index == 0 else l1
                rec_link.append(link_base + out_line)
                rec_cell.append(cid)
                rec_grids.append(grids_pair[1 if in_line != out_line else 0])
                if last:
                    delivered.append(cid)
                    self._in_flight -= 1
                else:
                    next_latch[out_line] = cid
                if input_index == 0:
                    v0 = 1
                else:
                    v1 = 1
            if v0 or v1:
                energy = sw_e[(v0, v1)]
                if energy:
                    sw_dict[swcomp[k]] += energy
                counts[5] += v0 + v1
            for origin, input_index, cid in losers:
                if origin == _BUF:
                    continue  # stays at the buffer head; no new energy
                if len(buf) >= cap:
                    counts[2] += 1
                    continue  # stalls in the latch (backpressure)
                latch[l0 if input_index == 0 else l1] = -1
                buf.append((cid, input_index))
                if write_e:
                    buf_dict[swcomp[k]] += write_e
                counts[3] += 1

    def _admit(self, grants: list[tuple[int, int]], slot: int) -> None:
        entered = self.store.entered_slot
        latch0 = self._latch[0]
        for port, cid in sorted(grants):
            if latch0[port] >= 0:
                raise SimulationError(
                    f"admission to occupied latch at port {port}; the engine "
                    "must respect can_admit()"
                )
            entered[cid] = slot
            self._rec_link.append(port)
            self._rec_cell.append(cid)
            self._rec_grids.append(self._edge_grids)
            latch0[port] = cid
            self._in_flight += 1

    def _refresh_all(self) -> None:
        if not self._refresh_enabled:
            return
        refresh = self._refresh_dict
        by_cells = self._refresh_by_cells
        for stage in range(self.stages):
            bufs = self._buf[stage]
            swcomp = self._sw_comp[stage]
            for k in range(self.ports // 2):
                occupancy = len(bufs[k])
                if occupancy:
                    energy = by_cells[occupancy]
                    if energy:
                        refresh[swcomp[k]] += energy


class BatcherBanyanCore(_GrantLogCore):
    """Vectorized :class:`~repro.fabrics.batcher_banyan.BatcherBanyanFabric`.

    The fabric delivers every admitted cell in its slot, on the line of
    its destination, so :meth:`advance` only logs the grants.  At flush
    the bitonic sorter and the banyan run over ``(slots x lines)``
    arrays, with the same conflict and misdelivery checks as the
    reference.

    Columns: wire links are ingress ports, then each sorter substage's
    output lines, then each banyan stage's output lines; switch
    components are each substage's comparators, then each banyan
    stage's switches.  Within a slot the reference charges ingress links
    in grant order, sorter comparators (low output, then high) in
    schedule order, and each banyan stage's cells and switches in order
    of the cell's sorter output line.
    """

    def __init__(self, fabric: BatcherBanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        schedule = fabric._schedule
        n_sub = len(schedule)
        stages = fabric.stages
        half = n // 2
        self.stages = stages
        self._n_sub = n_sub
        super().__init__(
            fabric,
            store,
            [f"bb.ingress{p}" for p in range(n)]
            + [
                f"bb.sorter.p{sub.phase}s{sub.step}.out{line}"
                for sub in schedule
                for line in range(n)
            ]
            + [
                f"bb.banyan.stage{s}.out{line}"
                for s in range(stages)
                for line in range(n)
            ],
        )
        self._switch_names = [
            f"bb.sorter.p{sub.phase}s{sub.step}.c{c.low}"
            for sub in schedule
            for c in sub.comparators
        ] + [f"bb.banyan.stage{s}.sw{k}" for s in range(stages) for k in range(half)]
        layout = fabric.layout
        fmt = fabric.cell_format
        wm = fabric.wire_mode
        #: per substage: comparator low/high lines and direction sign
        self._cmp = []
        #: per sorter link: its wire charge's position within a slot
        sorter_rank = np.empty(n_sub * n, dtype=np.int64)
        for si, sub in enumerate(schedule):
            low = np.array([c.low for c in sub.comparators], dtype=np.intp)
            high = np.array([c.high for c in sub.comparators], dtype=np.intp)
            sign = np.array(
                [1 if c.ascending else -1 for c in sub.comparators], dtype=np.intp
            )
            grids = [
                float(layout.sorter_link_grids(sub.phase, sub.step, x, mode=wm))
                for x in (False, True)
            ]
            self._cmp.append((low, high, sign, grids))
            ranks = n + si * n + 2 * np.arange(low.size)
            sorter_rank[si * n + low] = ranks
            sorter_rank[si * n + high] = ranks + 1
        self._sorter_rank = sorter_rank
        sort_lut = fabric._sorting_lut
        binary_lut = fabric._binary_lut
        vectors = ((0, 1), (1, 0), (1, 1))
        # Indexed by 2 * (input 0 occupied) + (input 1 occupied).
        self._sort_e = np.array(
            [0.0] + [sort_lut.lookup(v) * fmt.bus_width * fmt.words for v in vectors]
        )
        self._binary_e = np.array(
            [0.0]
            + [binary_lut.lookup(v) * fmt.bus_width * fmt.words for v in vectors]
        )
        banyan_layout = layout.banyan_layout()
        self._bits = [topology.stage_bit(n, s) for s in range(stages)]
        self._banyan_grids = [
            [
                float(banyan_layout.link_grids(self._bits[s], x, mode=wm))
                for x in (False, True)
            ]
            for s in range(stages)
        ]
        self._switch_idx = [
            np.array(
                [topology.switch_index(n, s, line) for line in range(n)],
                dtype=np.intp,
            )
            for s in range(stages)
        ]

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if grants:
            self._log.append(list(grants))
            delivered = sorted(
                (cid for _, cid in grants), key=self.store.dest.__getitem__
            )
        self._end_slot()
        return delivered

    def _charge_log(self, slots, rows, ports, cids, dests, starts) -> None:
        n = self.ports
        half = n // 2
        n_sub = self._n_sub
        total = cids.size
        words = self._cell_words(cids)
        switch = _Charges(self._switch_dict, self._switch_names)
        wire = _Charges(self._wire_dict, self._wire_names)
        # Ingress: the cell index (into ``cids``) and key on each line;
        # absent lines sort as key n (> any destination).
        lines = np.full((slots, n), -1, dtype=np.intp)
        lines[rows, ports] = np.arange(total)
        keys = np.full((slots, n), n, dtype=np.intp)
        keys[rows, ports] = dests
        ingress = lines
        flips = self._wire_block(
            wire, 0, ingress, 4.0, words, lambda r, c: ingress[r, c] - starts[r]
        )
        # Bitonic sorter.
        for si, (low, high, sign, pair) in enumerate(self._cmp):
            a = lines[:, low]
            b = lines[:, high]
            ka = keys[:, low]
            kb = keys[:, high]
            swap = (ka - kb) * sign > 0
            switch.add(
                si * half,
                self._sort_e[2 * (a >= 0) + (b >= 0)],
                lambda r, c: si * half + c,
            )
            lines = np.empty_like(lines)
            lines[:, low] = np.where(swap, b, a)
            lines[:, high] = np.where(swap, a, b)
            keys = np.empty_like(keys)
            keys[:, low] = np.where(swap, kb, ka)
            keys[:, high] = np.where(swap, ka, kb)
            grids = np.empty((slots, n))
            grids[:, low] = grids[:, high] = np.where(swap, pair[1], pair[0])
            base = n + si * n
            rank = self._sorter_rank[si * n : base]
            flips += self._wire_block(
                wire, base, lines, grids, words, lambda r, c: rank[c]
            )
        # Banyan section: one entry per cell, in sorter output order,
        # which is also the reference's charge order within a stage.
        r, sorted_line = np.nonzero(lines >= 0)
        c = lines[r, sorted_line]
        d = dests[c]
        order_of = np.empty(total, dtype=np.intp)
        order_of[c] = sorted_line
        line = sorted_line
        for stage in range(self.stages):
            bit = self._bits[stage]
            mask = 1 << bit
            out = (line & ~mask) | (d & mask)
            if np.bincount(r * n + out, minlength=slots * n).max(initial=0) > 1:
                raise SimulationError(
                    "internal blocking inside Batcher-Banyan: the sorted "
                    "batch was not monotone — this is a library bug"
                )
            # Switch input vectors: input 0 adds 2, input 1 adds 1.
            key = r * half + self._switch_idx[stage][line]
            code = np.bincount(
                key, weights=2 - ((line >> bit) & 1), minlength=slots * half
            ).astype(np.intp)

            def first_cell(rr, cc):
                first = np.full(slots * half, n, dtype=np.intp)
                np.minimum.at(first, key, sorted_line)
                return (n_sub * half + stage * n) + first[rr * half + cc]

            switch.add(
                (n_sub + stage) * half,
                self._binary_e[code.reshape(slots, half)],
                first_cell,
            )
            cell = np.full((slots, n), -1, dtype=np.intp)
            cell[r, out] = c
            grids = np.zeros((slots, n))
            pair = self._banyan_grids[stage]
            grids[r, out] = np.where(line != out, pair[1], pair[0])
            base = n + (n_sub + stage) * n
            flips += self._wire_block(
                wire,
                base,
                cell,
                grids,
                words,
                lambda rr, cc: base + order_of[cell[rr, cc]],
            )
            line = out
        wrong = np.flatnonzero(line != d)
        if wrong.size:
            i = wrong[0]
            raise SimulationError(
                f"cell for port {d[i]} delivered on line {line[i]}"
            )
        switch.apply()
        wire.apply()
        self._ledger.count("switch_traversals", total * (n_sub + self.stages))
        self._ledger.count("cells_delivered", total)
        self._ledger.count("wire_flips", flips)


#: Exact fabric type -> vector core for the built-ins.  Kept as a
#: stable alias; the full dispatch table (including custom fabrics)
#: lives in :mod:`repro.fabrics.registry`.
CORE_TYPES = {
    CrossbarFabric: CrossbarCore,
    FullyConnectedFabric: FullyConnectedCore,
    BanyanFabric: BanyanCore,
    BatcherBanyanFabric: BatcherBanyanCore,
}


def make_vector_core(fabric, store: CellStore) -> VectorFabricCore:
    """The registered vector core matching a fabric instance.

    Dispatch is by exact fabric type through
    :func:`repro.fabrics.registry.vector_core_for`, so subclasses with
    overridden dynamics never silently match a parent's core — register
    their own entry instead.
    """
    from repro.fabrics.registry import vector_core_for, vector_core_summary

    core_cls = vector_core_for(fabric)
    if core_cls is None:
        raise ConfigurationError(
            f"no vectorized core registered for fabric type "
            f"{type(fabric).__name__}; registered architectures: "
            f"{vector_core_summary()}. Register one with "
            "repro.fabrics.registry.register_fabric(..., vector_core=...) "
            "or use engine='reference'"
        )
    return core_cls(fabric, store)
