"""Vectorized fabric cores: array/id-based counterparts of the fabrics.

Each core re-implements one reference fabric's ``advance_slot`` against
a :class:`~repro.sim.cellstore.CellStore`: cells are integer row ids,
latches and sorter lines are small Python int lists, and — the key hot
path change — every wire transfer of a slot is *recorded* (link id,
cell id, length, component) and flip-counted in **one** batched XOR +
popcount over the store's word matrix at slot end, instead of one tiny
numpy call per cell per link.

Bit-for-bit equivalence with the reference fabrics is a hard contract
(tested in ``tests/test_engine_equivalence.py``).  Three invariants make
it hold:

* the cores charge the *same component labels* in the *same order* into
  the same :class:`~repro.sim.ledger.EnergyLedger` dicts, so per-
  component float-add sequences and the dict insertion order (which
  fixes the category-total summation order) are identical;
* every energy value is computed by the same expression shape on the
  same operands (LUT/buffer/grid values are precomputed once, exactly
  as the reference computes them per event);
* each physical link carries at most one cell per slot in every fabric
  (unique arbiter destinations + unique per-stage output lines), so the
  end-of-slot batched flip count sees exactly the per-event resting
  states the reference tracer saw.

Counters are accumulated as plain ints and flushed once per slot, with
the same "only if the event happened" key-creation behaviour as the
reference ``ledger.count`` call sites.
"""

from __future__ import annotations

from collections import deque

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
    _np_bitwise_count = np.bitwise_count

    def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
        return _np_bitwise_count(matrix).sum(axis=1)

except AttributeError:  # pragma: no cover - legacy numpy fallback
    from repro.sim.tracer import _bitwise_count

    def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
        flat = _bitwise_count(matrix.ravel())
        return flat.reshape(matrix.shape).sum(axis=1)


_BUF = 0
_LATCH = 1


class VectorFabricCore:
    """Shared state and the batched wire-transfer machinery."""

    def __init__(self, fabric, store: CellStore, n_links: int) -> None:
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
        self._resting = np.zeros(n_links, dtype=np.uint64)
        self._pend_link: list[int] = []
        self._pend_cell: list[int] = []
        self._pend_grids: list[float] = []
        self._pend_comp: list[str] = []

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

    # ------------------------------------------------------------------
    # Batched wire accounting
    # ------------------------------------------------------------------

    def _record(self, link: int, cid: int, grids: float, comp: str) -> None:
        self._pend_link.append(link)
        self._pend_cell.append(cid)
        self._pend_grids.append(grids)
        self._pend_comp.append(comp)

    def _flush_wires(self) -> None:
        pend_link = self._pend_link
        count = len(pend_link)
        if not count:
            return
        links = np.fromiter(pend_link, dtype=np.intp, count=count)
        ids = np.fromiter(self._pend_cell, dtype=np.intp, count=count)
        rows = self.store.words[ids]
        prev = np.empty_like(rows)
        prev[:, 0] = self._resting[links]
        prev[:, 1:] = rows[:, :-1]
        flips = _popcount_rows(rows ^ prev).tolist()
        self._resting[links] = rows[:, -1]
        wire = self._wire_dict
        e_t = self._grid_energy
        grids = self._pend_grids
        comps = self._pend_comp
        total = 0
        for i in range(count):
            f = flips[i]
            total += f
            energy = f * grids[i] * e_t
            if energy:
                wire[comps[i]] += energy
        self._ledger.count("wire_flips", total)
        pend_link.clear()
        self._pend_cell.clear()
        self._pend_grids.clear()
        self._pend_comp.clear()


class CrossbarCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.crossbar.CrossbarFabric`."""

    def __init__(self, fabric: CrossbarFabric, store: CellStore) -> None:
        n = fabric.ports
        super().__init__(fabric, store, n_links=2 * n)
        layout = fabric.layout
        fmt = fabric.cell_format
        self._row_grids = [layout.row_wire_grids(p) for p in range(n)]
        self._col_grids = [layout.column_wire_grids(d) for d in range(n)]
        self._row_comp = [f"xbar.row{p}" for p in range(n)]
        self._col_comp = [f"xbar.col{d}" for d in range(n)]
        base = fabric._crosspoint_lut.lookup((1,)) * fmt.bus_width * fmt.words
        self._row_energy = base * n

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if not grants:
            return delivered
        sw = self._switch_dict
        dest = self.store.dest
        n = self.ports
        traversals = 0
        for port, cid in sorted(grants):
            energy = self._row_energy
            if energy:
                sw[self._row_comp[port]] += energy
            traversals += n
            d = dest[cid]
            self._record(port, cid, self._row_grids[port], self._row_comp[port])
            self._record(n + d, cid, self._col_grids[d], self._col_comp[d])
            delivered.append(cid)
        self._ledger.count("switch_traversals", traversals)
        self._ledger.count("cells_delivered", len(delivered))
        self._flush_wires()
        return delivered


class FullyConnectedCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.fully_connected.FullyConnectedFabric`."""

    def __init__(self, fabric: FullyConnectedFabric, store: CellStore) -> None:
        n = fabric.ports
        super().__init__(fabric, store, n_links=n)
        layout = fabric.layout
        fmt = fabric.cell_format
        lut = fabric._mux_lut
        self._mux_comp = [f"fc.mux{d}" for d in range(n)]
        self._bus_comp = [f"fc.bus{p}" for p in range(n)]
        self._mux_energy = []
        self._mux_traversals = []
        for p in range(n):
            vector = tuple(1 if i == p else 0 for i in range(lut.n_inputs))
            self._mux_energy.append(
                lut.lookup(vector) * fmt.bus_width * fmt.words
            )
            self._mux_traversals.append(sum(vector))
        self._conn_grids = [
            [
                layout.connection_grids(p, d, mode=fabric.wire_mode)
                for d in range(n)
            ]
            for p in range(n)
        ]

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if not grants:
            return delivered
        sw = self._switch_dict
        dest = self.store.dest
        traversals = 0
        for port, cid in sorted(grants):
            d = dest[cid]
            energy = self._mux_energy[port]
            if energy:
                sw[self._mux_comp[d]] += energy
            traversals += self._mux_traversals[port]
            self._record(
                port, cid, self._conn_grids[port][d], self._bus_comp[port]
            )
            delivered.append(cid)
        self._ledger.count("switch_traversals", traversals)
        self._ledger.count("cells_delivered", len(delivered))
        self._flush_wires()
        return delivered


class BanyanCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.banyan.BanyanFabric`.

    Latches are indexed by line number (``latch[stage][line]`` is a cell
    id or -1); node buffers are per-switch deques of ``(cell_id,
    input_index)``.  The per-switch candidate/contention/move/park logic
    follows the reference implementation statement by statement.
    """

    def __init__(self, fabric: BanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        stages = fabric.stages
        super().__init__(fabric, store, n_links=n + stages * n)
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
        self._wire_comp = [
            [f"banyan.stage{s}.out{line}" for line in range(n)]
            for s in range(stages)
        ]
        self._sw_comp = [
            [f"banyan.stage{s}.sw{k}" for k in range(n // 2)]
            for s in range(stages)
        ]
        self._ingress_comp = [f"banyan.ingress{p}" for p in range(n)]
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

    def can_admit(self, port: int) -> bool:
        return self._latch[0][port] < 0

    def in_flight(self) -> int:
        return self._in_flight

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        counts = [0, 0, 0, 0, 0, 0]  # contentions, blocked, stalls,
        # buffer writes, buffer reads, switch traversals
        for stage in range(self.stages - 1, -1, -1):
            self._advance_stage(stage, delivered, counts)
        self._admit(grants, slot)
        self._refresh_all()
        self._flush_wires()
        self._count_slot(counts, len(delivered))
        return delivered

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
        wcomp = self._wire_comp[stage]
        swcomp = self._sw_comp[stage]
        link_base = self.ports + stage * self.ports
        sw_e = self._sw_e
        sw_dict = self._switch_dict
        buf_dict = self._buffer_dict
        read_e = self._read_e
        write_e = self._write_e
        cap = self._cap
        pend_link = self._pend_link
        pend_cell = self._pend_cell
        pend_grids = self._pend_grids
        pend_comp = self._pend_comp
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
                pend_link.append(link_base + out_line)
                pend_cell.append(cid)
                pend_grids.append(grids_pair[1 if in_line != out_line else 0])
                pend_comp.append(wcomp[out_line])
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
            self._record(port, cid, self._edge_grids, self._ingress_comp[port])
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


class BatcherBanyanCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.batcher_banyan.BatcherBanyanFabric`.

    Line occupancy through the sorter and banyan sections is a Python
    int list plus an explicit insertion-order list that reproduces the
    reference implementation's dict iteration orders (they fix the
    within-slot charge order).
    """

    def __init__(self, fabric: BatcherBanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        schedule = fabric._schedule
        n_sub = len(schedule)
        self.stages = fabric.stages
        super().__init__(
            fabric, store, n_links=n + n_sub * n + self.stages * n
        )
        layout = fabric.layout
        fmt = fabric.cell_format
        wm = fabric.wire_mode
        self._ingress_comp = [f"bb.ingress{p}" for p in range(n)]
        self._comparators = [
            [(c.low, c.high, c.ascending) for c in sub.comparators]
            for sub in schedule
        ]
        self._sorter_grids = [
            [
                layout.sorter_link_grids(sub.phase, sub.step, False, mode=wm),
                layout.sorter_link_grids(sub.phase, sub.step, True, mode=wm),
            ]
            for sub in schedule
        ]
        self._sorter_sw_comp = [
            [
                f"bb.sorter.p{sub.phase}s{sub.step}.c{c.low}"
                for c in sub.comparators
            ]
            for sub in schedule
        ]
        self._sorter_wire_comp = [
            [
                f"bb.sorter.p{sub.phase}s{sub.step}.out{line}"
                for line in range(n)
            ]
            for sub in schedule
        ]
        self._sorter_link_base = [n + si * n for si in range(n_sub)]
        sort_lut = fabric._sorting_lut
        binary_lut = fabric._binary_lut
        self._sort_e = {
            v: sort_lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((0, 1), (1, 0), (1, 1))
        }
        self._binary_e = {
            v: binary_lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((0, 1), (1, 0), (1, 1))
        }
        banyan_layout = layout.banyan_layout()
        self._bits = [topology.stage_bit(n, s) for s in range(self.stages)]
        self._stage_masks = [1 << b for b in self._bits]
        self._banyan_grids = [
            [
                banyan_layout.link_grids(self._bits[s], False, mode=wm),
                banyan_layout.link_grids(self._bits[s], True, mode=wm),
            ]
            for s in range(self.stages)
        ]
        self._banyan_wire_comp = [
            [f"bb.banyan.stage{s}.out{line}" for line in range(n)]
            for s in range(self.stages)
        ]
        self._banyan_sw_comp = [
            [f"bb.banyan.stage{s}.sw{k}" for k in range(n // 2)]
            for s in range(self.stages)
        ]
        self._switch_idx = [
            [topology.switch_index(n, s, line) for line in range(n)]
            for s in range(self.stages)
        ]
        self._banyan_link_base = n + n_sub * n

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        if not grants:
            return []
        n = self.ports
        dest = self.store.dest
        # Ingress links, in grant (arbitration) order like the reference.
        lines = [-1] * n
        for port, cid in grants:
            self._record(port, cid, 4, self._ingress_comp[port])
            lines[port] = cid
        traversals = 0
        sw_dict = self._switch_dict
        inf = 1 << 30
        # Bitonic sorter.
        for si, comps in enumerate(self._comparators):
            new_lines = [-1] * n
            swc = self._sorter_sw_comp[si]
            wcomp = self._sorter_wire_comp[si]
            grids_pair = self._sorter_grids[si]
            base = self._sorter_link_base[si]
            for ci in range(len(comps)):
                low, high, ascending = comps[ci]
                a = lines[low]
                b = lines[high]
                if a < 0 and b < 0:
                    continue
                key_a = dest[a] if a >= 0 else inf
                key_b = dest[b] if b >= 0 else inf
                swap = (key_a > key_b) if ascending else (key_a < key_b)
                out_low, out_high = (b, a) if swap else (a, b)
                energy = self._sort_e[
                    (1 if a >= 0 else 0, 1 if b >= 0 else 0)
                ]
                if energy:
                    sw_dict[swc[ci]] += energy
                traversals += (1 if a >= 0 else 0) + (1 if b >= 0 else 0)
                if out_low >= 0:
                    came_from = high if swap else low
                    self._record(
                        base + low,
                        out_low,
                        grids_pair[1 if came_from != low else 0],
                        wcomp[low],
                    )
                    new_lines[low] = out_low
                if out_high >= 0:
                    came_from = low if swap else high
                    self._record(
                        base + high,
                        out_high,
                        grids_pair[1 if came_from != high else 0],
                        wcomp[high],
                    )
                    new_lines[high] = out_high
            lines = new_lines
        # Occupied-line order after the final substage (ascending pairs
        # processed low-output-first) = ascending line order — the same
        # insertion order the reference's next_lines dict ends up with.
        order = [line for line in range(n) if lines[line] >= 0]
        # Banyan section: conflict here is a broken invariant.
        for stage in range(self.stages):
            new_lines = [-1] * n
            new_order: list[int] = []
            mask = self._stage_masks[stage]
            grids_pair = self._banyan_grids[stage]
            wcomp = self._banyan_wire_comp[stage]
            swidx = self._switch_idx[stage]
            bit = self._bits[stage]
            base = self._banyan_link_base + stage * n
            vectors: dict[int, list[int]] = {}
            for line in order:
                cid = lines[line]
                k = swidx[line]
                vector = vectors.get(k)
                if vector is None:
                    vectors[k] = vector = [0, 0]
                vector[(line >> bit) & 1] = 1
                out_line = (line & ~mask) | (dest[cid] & mask)
                if new_lines[out_line] >= 0:
                    raise SimulationError(
                        "internal blocking inside Batcher-Banyan: the sorted "
                        "batch was not monotone — this is a library bug"
                    )
                self._record(
                    base + out_line,
                    cid,
                    grids_pair[1 if line != out_line else 0],
                    wcomp[out_line],
                )
                new_lines[out_line] = cid
                new_order.append(out_line)
            swcomp = self._banyan_sw_comp[stage]
            for k, vector in vectors.items():
                energy = self._binary_e[(vector[0], vector[1])]
                if energy:
                    sw_dict[swcomp[k]] += energy
                traversals += vector[0] + vector[1]
            lines = new_lines
            order = new_order
        delivered = []
        for line in sorted(order):
            cid = lines[line]
            if line != dest[cid]:
                raise SimulationError(
                    f"cell for port {dest[cid]} delivered on line {line}"
                )
            delivered.append(cid)
        if traversals:
            self._ledger.count("switch_traversals", traversals)
        self._ledger.count("cells_delivered", len(delivered))
        self._flush_wires()
        return delivered


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
