"""Synthetic traffic generators (paper Section 5.2 substitute).

The paper feeds its platform "a TCP/IP packet traffic flow ... the
destinations of the TCP/IP packets are random" with throughput adjusted
"by controlling the packet generation intervals".  The generators here
reproduce that (Bernoulli arrivals, uniform random destinations, random
payload bits) and add the controlled variants used by the ablation
benches: hotspot, permutation, bursty on/off, a trimodal TCP/IP packet
size mix, and replayable traces.

All generators are driven by a seeded :class:`numpy.random.Generator`
owned by the engine, so simulations are bit-for-bit reproducible.

Generation is *batched*: the RNG-consuming primitive is
:meth:`TrafficGenerator.arrivals_batch`, which returns one
:class:`ArrivalBatch` — parallel source/destination/size arrays plus a
single concatenated payload-word array — per slot.  The legacy
:meth:`TrafficGenerator.arrivals` (a list of :class:`Packet` objects)
is a thin wrapper that materialises the batch, so the object-based
reference engine and the array-based vectorized engine consume exactly
the same random stream and therefore see exactly the same workload.

RNG-consumption contract
------------------------
*How* a generator draws from the engine's seeded RNG is versioned,
because any change to the draw order silently changes every seeded
result:

* **Stream v1** (:data:`RNG_STREAM_V1`, the default) draws one slot at
  a time — the contract of the original engines, kept bit-stable
  forever as the oracle for old seeds.
* **Stream v2** (:data:`RNG_STREAM_V2`, opt-in via
  :meth:`TrafficGenerator.use_rng_stream` or
  ``Scenario(rng_stream=2)``) pregenerates
  :data:`RNG_STREAM_V2_CHUNK_SLOTS` slots of arrivals per chunk — the
  arrival mask, destinations, sizes and all payload words each come
  from one big draw — and serves per-slot slices from the chunk.  The
  chunk length is part of the contract (changing it changes the
  stream).  v2 produces a *different* (equally valid) workload than v1
  for the same seed; within a version, both engines still consume
  identically, so reference-vs-vectorized equivalence holds per stream.

``load`` may be a per-port vector (one arrival probability per ingress
port) anywhere a generator accepts a scalar.  :data:`BurstyTraffic`
calibrates its on/off dwell parameters *per port* for vector loads
(every port keeps the shared mean ON dwell ``burst_len`` while its
stationary ON probability matches its own load); the scalar path is
bit-identical to the historical scalar-only implementation.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.router.packet import Packet, bus_mask

#: Slot-at-a-time RNG consumption (the original engines' contract).
RNG_STREAM_V1 = 1
#: Chunked consumption: arrivals pregenerated C slots at a time.
RNG_STREAM_V2 = 2
#: All valid RNG stream versions.
RNG_STREAMS = (RNG_STREAM_V1, RNG_STREAM_V2)
#: Chunk length C of stream v2 — part of the versioned contract.
RNG_STREAM_V2_CHUNK_SLOTS = 64


def per_port_loads(load, ports: int) -> tuple[float, np.ndarray]:
    """Normalise a scalar or per-port load to ``(mean, vector)``.

    A scalar expands to a uniform vector; a sequence must have one
    entry per port, each in [0, 1].  The scalar mean is what
    result records report as the offered load.
    """
    array = np.asarray(load, dtype=float)
    if array.ndim == 0:
        value = float(array)
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"load must be in [0, 1], got {load}")
        return value, np.full(ports, value)
    if array.ndim != 1 or array.size != ports:
        raise ConfigurationError(
            f"per-port load vector needs exactly {ports} entries, "
            f"got shape {array.shape}"
        )
    if float(array.min()) < 0.0 or float(array.max()) > 1.0:
        raise ConfigurationError(
            f"per-port loads must be in [0, 1], got {list(array)}"
        )
    return float(array.mean()), array


def draw_payload_batch(
    rng: np.random.Generator, size_bits: np.ndarray, bus_width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random payloads for a batch of packets in one RNG draw.

    Returns ``(words, offsets)`` where ``words`` is the concatenation of
    every packet's payload words (uint64, low ``bus_width`` bits, tail
    words zero-padded exactly like
    :func:`repro.router.packet.make_payload_words`) and
    ``words[offsets[i]:offsets[i+1]]`` is packet ``i``'s payload.
    """
    mask = np.uint64(bus_mask(bus_width))
    sizes = np.asarray(size_bits, dtype=np.int64)
    if sizes.size and int(sizes.min()) < 0:
        raise ConfigurationError("size_bits must be >= 0")
    words_per = (sizes + bus_width - 1) // bus_width
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(words_per, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    words = rng.integers(0, 1 << bus_width, size=total, dtype=np.uint64)
    if not (sizes % bus_width).any():
        # Whole bus words only: the draw is already below the mask and
        # no tail needs padding.
        return words, offsets
    words &= mask
    # Zero-pad the high bits of each packet's final word.
    nonempty = np.flatnonzero(words_per > 0)
    tails = offsets[1:][nonempty] - 1
    tail_bits = (sizes[nonempty] - (words_per[nonempty] - 1) * bus_width).astype(
        np.uint64
    )
    full = tail_bits >= bus_width
    tail_mask = np.where(
        full,
        mask,
        (np.uint64(1) << (tail_bits % np.uint64(bus_width))) - np.uint64(1),
    )
    words[tails] &= tail_mask
    return words, offsets


@dataclass
class ArrivalBatch:
    """One slot's arrivals as parallel arrays (struct-of-arrays).

    Attributes
    ----------
    created_slot: the slot every packet of this batch arrived in.
    bus_width: bus lanes the payload words are shaped for.
    srcs / dests / size_bits / packet_ids: one entry per packet.
    payload_words: all payload words concatenated (uint64).
    word_offsets: ``payload_words[word_offsets[i]:word_offsets[i+1]]``
        is packet ``i``'s payload.
    created_slots: optional per-packet creation slots overriding
        ``created_slot``.  The built-in generators leave this None
        (their packets are created in the slot they arrive); the
        :meth:`from_packets` adapter fills it so legacy generators
        whose packets carry their own ``created_slot`` (``Packet``
        defaults it to 0) behave identically through both engines.
    """

    created_slot: int
    bus_width: int
    srcs: np.ndarray
    dests: np.ndarray
    size_bits: np.ndarray
    packet_ids: np.ndarray
    payload_words: np.ndarray
    word_offsets: np.ndarray
    created_slots: np.ndarray | None = None

    def packet_created_slot(self, i: int) -> int:
        """Creation slot of packet ``i``."""
        if self.created_slots is None:
            return self.created_slot
        return int(self.created_slots[i])

    def __len__(self) -> int:
        return int(self.srcs.size)

    @classmethod
    def empty(cls, slot: int, bus_width: int) -> "ArrivalBatch":
        zero = np.zeros(0, dtype=np.int64)
        return cls(
            created_slot=slot,
            bus_width=bus_width,
            srcs=zero,
            dests=zero,
            size_bits=zero,
            packet_ids=zero,
            payload_words=np.zeros(0, dtype=np.uint64),
            word_offsets=np.zeros(1, dtype=np.int64),
        )

    @classmethod
    def from_packets(
        cls, slot: int, bus_width: int, packets: list[Packet]
    ) -> "ArrivalBatch":
        """Adapter for generators that only produce :class:`Packet` lists."""
        if not packets:
            return cls.empty(slot, bus_width)
        offsets = np.zeros(len(packets) + 1, dtype=np.int64)
        np.cumsum([p.word_count for p in packets], out=offsets[1:])
        payload = (
            np.concatenate([p.payload_words for p in packets])
            if int(offsets[-1])
            else np.zeros(0, dtype=np.uint64)
        )
        return cls(
            created_slot=slot,
            bus_width=bus_width,
            srcs=np.array([p.src_port for p in packets], dtype=np.int64),
            dests=np.array([p.dest_port for p in packets], dtype=np.int64),
            size_bits=np.array([p.size_bits for p in packets], dtype=np.int64),
            packet_ids=np.array([p.packet_id for p in packets], dtype=np.int64),
            payload_words=np.asarray(payload, dtype=np.uint64),
            word_offsets=offsets,
            created_slots=np.array(
                [p.created_slot for p in packets], dtype=np.int64
            ),
        )

    def to_packets(self) -> list[Packet]:
        """Materialise the batch as :class:`Packet` objects."""
        packets = []
        offsets = self.word_offsets
        for i in range(len(self)):
            packets.append(
                Packet(
                    packet_id=int(self.packet_ids[i]),
                    src_port=int(self.srcs[i]),
                    dest_port=int(self.dests[i]),
                    payload_words=self.payload_words[offsets[i] : offsets[i + 1]],
                    size_bits=int(self.size_bits[i]),
                    created_slot=self.packet_created_slot(i),
                )
            )
        return packets


class TrafficGenerator(ABC):
    """Produces the packets arriving at each ingress port every slot.

    Subclasses implement :meth:`_slot_batch` (preferred — the per-slot
    RNG primitive of stream v1) or the legacy :meth:`arrivals`; each
    default-delegates to the other.  :meth:`arrivals_batch` is the
    engine-facing entry point: it dispatches on the generator's RNG
    stream version (per-slot draws for v1, chunked pregeneration for
    v2).  Generators that additionally implement :meth:`_plan_chunk`
    get truly chunked v2 draws; the rest fall back to per-slot draws
    inside the chunk (still a valid v2 stream — just not faster).

    A subclass that overrides :meth:`arrivals_batch` itself defines its
    own consumption contract and opts out of stream versioning.
    """

    def __init__(self, ports: int, bus_width: int) -> None:
        if ports < 2:
            raise ConfigurationError("traffic needs >= 2 ports")
        self.ports = ports
        self.bus_width = bus_width
        self._next_packet_id = 0
        self.rng_stream = RNG_STREAM_V1
        self._chunk_slots = RNG_STREAM_V2_CHUNK_SLOTS
        self._chunk: list[ArrivalBatch] | None = None
        self._chunk_start = 0

    def use_rng_stream(
        self, version: int, chunk_slots: int | None = None
    ) -> "TrafficGenerator":
        """Select the RNG-consumption contract; returns ``self``.

        ``chunk_slots`` overrides the v2 chunk length — doing so leaves
        the versioned contract (the stream then matches no recorded v2
        seed), so it is for experimentation only.
        """
        if version not in RNG_STREAMS:
            raise ConfigurationError(
                f"rng_stream must be one of {RNG_STREAMS}, got {version!r}"
            )
        if chunk_slots is not None and chunk_slots < 1:
            raise ConfigurationError("chunk_slots must be >= 1")
        self.rng_stream = version
        if chunk_slots is not None:
            self._chunk_slots = chunk_slots
        self._chunk = None
        return self

    def arrivals(self, slot: int, rng: np.random.Generator) -> list[Packet]:
        """Packets arriving during ``slot`` (any ports, any count)."""
        return self.arrivals_batch(slot, rng).to_packets()

    def arrivals_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        """Arrivals of one slot as an :class:`ArrivalBatch`.

        The single RNG-consuming entry point of both engines; draws
        according to the generator's stream version (see the module
        docstring).  Slots must be consumed in nondecreasing order
        under stream v2 (the engines always do).
        """
        if self.rng_stream == RNG_STREAM_V1:
            return self._slot_batch(slot, rng)
        chunk = self._chunk
        if chunk is None or not (
            self._chunk_start <= slot < self._chunk_start + len(chunk)
        ):
            self._chunk = chunk = self._pregenerate_chunk(
                slot, self._chunk_slots, rng
            )
            self._chunk_start = slot
        return chunk[slot - self._chunk_start]

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        """One slot's arrivals drawn slot-at-a-time (stream v1)."""
        if type(self).arrivals is TrafficGenerator.arrivals:
            raise ConfigurationError(
                f"{type(self).__name__} implements neither arrivals() nor "
                "_slot_batch()"
            )
        return ArrivalBatch.from_packets(
            slot, self.bus_width, self.arrivals(slot, rng)
        )

    # ------------------------------------------------------------------
    # Stream v2: chunked pregeneration
    # ------------------------------------------------------------------

    def _plan_chunk(
        self, start: int, count: int, rng: np.random.Generator
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
        """Chunked arrival plan: ``count`` per-slot ``(srcs, dests,
        size_bits)`` triples drawn in as few RNG calls as possible.

        Return ``None`` (the default) to fall back to per-slot draws.
        """
        return None

    def _pregenerate_chunk(
        self, start: int, count: int, rng: np.random.Generator
    ) -> list[ArrivalBatch]:
        """Materialise one stream-v2 chunk of per-slot batches.

        All payload words of the chunk come from **one**
        :func:`draw_payload_batch` call; per-slot batches are views
        into the shared arrays.
        """
        plan = self._plan_chunk(start, count, rng)
        bus_width = self.bus_width
        if plan is None:
            return [self._slot_batch(start + i, rng) for i in range(count)]
        sizes_all = np.concatenate([sizes for _, _, sizes in plan])
        payload, offsets = draw_payload_batch(rng, sizes_all, bus_width)
        batches: list[ArrivalBatch] = []
        k = 0
        for i, (srcs, dests, sizes) in enumerate(plan):
            n = int(srcs.size)
            if n == 0:
                batches.append(ArrivalBatch.empty(start + i, bus_width))
                continue
            word_offsets = (offsets[k : k + n + 1] - offsets[k]).astype(
                np.int64
            )
            batches.append(
                ArrivalBatch(
                    created_slot=start + i,
                    bus_width=bus_width,
                    srcs=np.asarray(srcs, dtype=np.int64),
                    dests=np.asarray(dests, dtype=np.int64),
                    size_bits=np.asarray(sizes, dtype=np.int64),
                    packet_ids=self._claim_packet_ids(n),
                    payload_words=payload[offsets[k] : offsets[k + n]],
                    word_offsets=word_offsets,
                )
            )
            k += n
        return batches

    # ------------------------------------------------------------------

    def _claim_packet_ids(self, count: int) -> np.ndarray:
        """Sequential globally-unique packet ids for a batch."""
        ids = np.arange(
            self._next_packet_id, self._next_packet_id + count, dtype=np.int64
        )
        self._next_packet_id += count
        return ids

    def _batch(
        self,
        slot: int,
        rng: np.random.Generator,
        srcs: np.ndarray,
        dests: np.ndarray,
        size_bits: np.ndarray,
    ) -> ArrivalBatch:
        """Assemble a batch: draw payloads, assign ids."""
        payload, offsets = draw_payload_batch(rng, size_bits, self.bus_width)
        return ArrivalBatch(
            created_slot=slot,
            bus_width=self.bus_width,
            srcs=np.asarray(srcs, dtype=np.int64),
            dests=np.asarray(dests, dtype=np.int64),
            size_bits=np.asarray(size_bits, dtype=np.int64),
            packet_ids=self._claim_packet_ids(int(np.asarray(srcs).size)),
            payload_words=payload,
            word_offsets=offsets,
        )

    def _new_packet(
        self,
        rng: np.random.Generator,
        src: int,
        dest: int,
        size_bits: int,
        slot: int,
    ) -> Packet:
        """Legacy helper for packet-at-a-time generator subclasses."""
        packet = Packet.random(
            rng,
            packet_id=self._next_packet_id,
            src_port=src,
            dest_port=dest,
            size_bits=size_bits,
            bus_width=self.bus_width,
            created_slot=slot,
        )
        self._next_packet_id += 1
        return packet


class BernoulliUniformTraffic(TrafficGenerator):
    """Independent Bernoulli arrivals with uniform random destinations.

    Each slot, each port receives a packet with probability ``load``
    (in cells: ``packet_bits`` defaults to one cell's payload so load is
    directly the offered cell rate).  This is the paper's headline
    workload.

    Parameters
    ----------
    load: arrival probability per port per slot, in [0, 1] — a scalar
        for the paper's uniform offered load, or one value per port
        (``self.load`` then reports the mean).
    packet_bits: payload size of each packet.
    allow_self: include a port's own index among destinations
        (default True — the paper does not exclude it).
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        packet_bits: int = 480,
        bus_width: int = 32,
        allow_self: bool = True,
    ) -> None:
        super().__init__(ports, bus_width)
        self.load, self._load_per_port = per_port_loads(load, ports)
        if packet_bits < 0:
            raise ConfigurationError("packet_bits must be >= 0")
        self.packet_bits = packet_bits
        self.allow_self = allow_self

    def _draw_dests(
        self, rng: np.random.Generator, srcs: np.ndarray
    ) -> np.ndarray:
        dests = rng.integers(0, self.ports, size=srcs.size)
        if not self.allow_self:
            while True:
                bad = np.flatnonzero(dests == srcs)
                if bad.size == 0:
                    break
                dests[bad] = rng.integers(0, self.ports, size=bad.size)
        return dests

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        draws = rng.random(self.ports)
        srcs = np.flatnonzero(draws < self._load_per_port)
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        dests = self._draw_dests(rng, srcs)
        sizes = np.full(srcs.size, self.packet_bits, dtype=np.int64)
        return self._batch(slot, rng, srcs, dests, sizes)

    def _plan_chunk(self, start, count, rng):
        # One draw for the whole chunk's arrival mask, then one
        # destination draw over every arrival of the chunk.
        mask = rng.random((count, self.ports)) < self._load_per_port[None, :]
        srcs_by_slot = [np.flatnonzero(mask[i]) for i in range(count)]
        total = int(mask.sum())
        if total:
            dests_all = self._draw_dests(rng, np.concatenate(srcs_by_slot))
        plan = []
        k = 0
        empty = np.zeros(0, dtype=np.int64)
        for srcs in srcs_by_slot:
            n = srcs.size
            if n == 0:
                plan.append((empty, empty, empty))
                continue
            plan.append(
                (
                    srcs,
                    dests_all[k : k + n],
                    np.full(n, self.packet_bits, dtype=np.int64),
                )
            )
            k += n
        return plan


class HotspotTraffic(BernoulliUniformTraffic):
    """Uniform traffic with a fraction of packets aimed at one port.

    With probability ``hotspot_fraction`` a packet targets
    ``hotspot_port``; otherwise the destination is uniform.  Models the
    server/gateway overload scenario classic in switch evaluations.
    """

    def __init__(
        self,
        ports: int,
        load: float,
        hotspot_port: int = 0,
        hotspot_fraction: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(ports, load, **kwargs)
        if not 0 <= hotspot_port < ports:
            raise ConfigurationError("hotspot_port out of range")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot_fraction must be in [0, 1]")
        self.hotspot_port = hotspot_port
        self.hotspot_fraction = hotspot_fraction

    def _draw_dests(
        self, rng: np.random.Generator, srcs: np.ndarray
    ) -> np.ndarray:
        hot = rng.random(srcs.size) < self.hotspot_fraction
        dests = np.full(srcs.size, self.hotspot_port, dtype=np.int64)
        cold = np.flatnonzero(~hot)
        if cold.size:
            dests[cold] = rng.integers(0, self.ports, size=cold.size)
        return dests


class PermutationTraffic(TrafficGenerator):
    """Each source always targets one fixed destination (a permutation).

    Contention free at admission by construction — useful to isolate
    interconnect contention (banyan internal blocking still occurs for
    non-identity permutations).
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        permutation: list[int] | None = None,
        packet_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, bus_width)
        self.load, self._load_per_port = per_port_loads(load, ports)
        if permutation is None:
            permutation = [(p + 1) % ports for p in range(ports)]
        if sorted(permutation) != list(range(ports)):
            raise ConfigurationError("permutation must be a bijection on ports")
        self.permutation = list(permutation)
        self._permutation_array = np.array(permutation, dtype=np.int64)
        self.packet_bits = packet_bits

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        draws = rng.random(self.ports)
        srcs = np.flatnonzero(draws < self._load_per_port)
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        dests = self._permutation_array[srcs]
        sizes = np.full(srcs.size, self.packet_bits, dtype=np.int64)
        return self._batch(slot, rng, srcs, dests, sizes)

    def _plan_chunk(self, start, count, rng):
        # Destinations are deterministic, so the arrival mask is the
        # chunk's only selection draw.
        mask = rng.random((count, self.ports)) < self._load_per_port[None, :]
        plan = []
        empty = np.zeros(0, dtype=np.int64)
        for i in range(count):
            srcs = np.flatnonzero(mask[i])
            if srcs.size == 0:
                plan.append((empty, empty, empty))
                continue
            plan.append(
                (
                    srcs,
                    self._permutation_array[srcs],
                    np.full(srcs.size, self.packet_bits, dtype=np.int64),
                )
            )
        return plan


class BurstyTraffic(TrafficGenerator):
    """Two-state on/off (Markov-modulated) arrivals per port.

    In the ON state a port emits a packet every slot; state dwell times
    are geometric with mean ``burst_len`` (ON) chosen so the long-run
    load equals ``load``.  Bursty arrivals stress queues far more than
    Bernoulli at equal load — the classic motivation for buffer
    ablations.

    ``load`` may be a per-port vector: every port keeps the shared mean
    ON dwell ``burst_len`` while its OFF dwell is calibrated so the
    port's stationary ON probability equals its own target load (a port
    at load 0 simply never turns on).  A scalar load takes the exact
    historical code path — same dwell parameters, same RNG draws —
    so scalar results stay bit-identical.
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        burst_len: float = 8.0,
        packet_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, bus_width)
        if burst_len < 1.0:
            raise ConfigurationError("burst_len must be >= 1")
        if np.ndim(load) == 0:
            if not 0.0 < float(load) < 1.0:
                raise ConfigurationError("bursty load must be in (0, 1)")
        self.load, load_per_port = per_port_loads(load, ports)
        if float(load_per_port.max()) >= 1.0:
            raise ConfigurationError(
                "per-port bursty loads must be < 1 (a port at load 1.0 "
                "never leaves the ON state)"
            )
        self.burst_len = burst_len
        self.packet_bits = packet_bits
        self._load_per_port = load_per_port
        # P(ON -> OFF) and per-port P(OFF -> ON) giving mean ON dwell
        # burst_len and stationary P(ON) = that port's load.  The
        # element-wise arithmetic mirrors the historical scalar formula
        # operation-for-operation, so a uniform vector (and the scalar
        # fast path) produces bit-identical dwell parameters.
        self._p_off = 1.0 / burst_len
        with np.errstate(divide="ignore"):
            off_dwell = burst_len * (1.0 - load_per_port) / load_per_port
            self._p_on = np.where(load_per_port > 0.0, 1.0 / off_dwell, 0.0)
        self._state: np.ndarray | None = None

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        if self._state is None:
            self._state = rng.random(self.ports) < self._load_per_port
        flips = rng.random(self.ports)
        self._state = np.where(
            self._state, flips >= self._p_off, flips < self._p_on
        )
        srcs = np.flatnonzero(self._state)
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        dests = rng.integers(0, self.ports, size=srcs.size)
        sizes = np.full(srcs.size, self.packet_bits, dtype=np.int64)
        return self._batch(slot, rng, srcs, dests, sizes)

    def _plan_chunk(self, start, count, rng):
        # The Markov chain stays sequential, but all its flip draws (and
        # every destination of the chunk) come from single RNG calls.
        if self._state is None:
            self._state = rng.random(self.ports) < self._load_per_port
        flips = rng.random((count, self.ports))
        state = self._state
        srcs_by_slot = []
        for i in range(count):
            state = np.where(state, flips[i] >= self._p_off, flips[i] < self._p_on)
            srcs_by_slot.append(np.flatnonzero(state))
        self._state = state
        total = sum(int(s.size) for s in srcs_by_slot)
        if total:
            dests_all = rng.integers(0, self.ports, size=total)
        plan = []
        k = 0
        empty = np.zeros(0, dtype=np.int64)
        for srcs in srcs_by_slot:
            n = srcs.size
            if n == 0:
                plan.append((empty, empty, empty))
                continue
            plan.append(
                (
                    srcs,
                    dests_all[k : k + n],
                    np.full(n, self.packet_bits, dtype=np.int64),
                )
            )
            k += n
        return plan


class TrimodalPacketTraffic(TrafficGenerator):
    """Internet-like trimodal packet size mix (40 / 576 / 1500 bytes).

    Models the paper's "TCP/IP packet traffic flow" more literally than
    single-cell packets: packets segment into several cells and the
    egress units reassemble them.  ``load`` is the offered load in
    *cells* per port per slot; packet arrivals are thinned accordingly.
    """

    #: (size_bytes, probability) — the classic Internet mix.
    DEFAULT_MIX = ((40, 0.55), (576, 0.25), (1500, 0.20))

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        mix: tuple[tuple[int, float], ...] = DEFAULT_MIX,
        cell_payload_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, bus_width)
        self.load, load_per_port = per_port_loads(load, ports)
        total_p = sum(p for _, p in mix)
        if abs(total_p - 1.0) > 1e-9:
            raise ConfigurationError("mix probabilities must sum to 1")
        if cell_payload_bits <= 0:
            raise ConfigurationError("cell_payload_bits must be positive")
        self.mix = tuple(mix)
        self.cell_payload_bits = cell_payload_bits
        self._sizes = np.array([s * 8 for s, _ in mix])
        self._probs = np.array([p for _, p in mix])
        cells_per_packet = np.ceil(self._sizes / cell_payload_bits)
        self._mean_cells = float((cells_per_packet * self._probs).sum())
        self._rate_per_port = np.minimum(1.0, load_per_port / self._mean_cells)

    @property
    def packet_rate(self) -> float:
        """Mean packet arrival probability per port per slot."""
        return min(1.0, self.load / self._mean_cells)

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        draws = rng.random(self.ports)
        srcs = np.flatnonzero(draws < self._rate_per_port)
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        sizes = rng.choice(self._sizes, size=srcs.size, p=self._probs).astype(
            np.int64
        )
        dests = rng.integers(0, self.ports, size=srcs.size)
        return self._batch(slot, rng, srcs, dests, sizes)

    def _plan_chunk(self, start, count, rng):
        mask = rng.random((count, self.ports)) < self._rate_per_port[None, :]
        srcs_by_slot = [np.flatnonzero(mask[i]) for i in range(count)]
        total = int(mask.sum())
        if total:
            sizes_all = rng.choice(
                self._sizes, size=total, p=self._probs
            ).astype(np.int64)
            dests_all = rng.integers(0, self.ports, size=total)
        plan = []
        k = 0
        empty = np.zeros(0, dtype=np.int64)
        for srcs in srcs_by_slot:
            n = srcs.size
            if n == 0:
                plan.append((empty, empty, empty))
                continue
            plan.append((srcs, dests_all[k : k + n], sizes_all[k : k + n]))
            k += n
        return plan


@dataclass(frozen=True)
class TraceEntry:
    """One scripted arrival: (slot, src, dest, size_bits)."""

    slot: int
    src: int
    dest: int
    size_bits: int


class TraceTraffic(TrafficGenerator):
    """Replays a fixed list of arrivals — the deterministic workhorse of
    the test suite (payload bits are still drawn from the engine rng
    unless the test supplies packets directly through the ingress)."""

    def __init__(
        self, ports: int, entries: list[TraceEntry], bus_width: int = 32
    ) -> None:
        super().__init__(ports, bus_width)
        self._by_slot: dict[int, list[TraceEntry]] = {}
        for entry in entries:
            if not 0 <= entry.src < ports or not 0 <= entry.dest < ports:
                raise ConfigurationError(f"trace entry out of range: {entry}")
            self._by_slot.setdefault(entry.slot, []).append(entry)

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        entries = self._by_slot.get(slot)
        if not entries:
            return ArrivalBatch.empty(slot, self.bus_width)
        srcs = np.array([e.src for e in entries], dtype=np.int64)
        dests = np.array([e.dest for e in entries], dtype=np.int64)
        sizes = np.array([e.size_bits for e in entries], dtype=np.int64)
        return self._batch(slot, rng, srcs, dests, sizes)

    def _plan_chunk(self, start, count, rng):
        # Arrivals are scripted; only the payload draw is chunked.
        plan = []
        empty = np.zeros(0, dtype=np.int64)
        for i in range(count):
            entries = self._by_slot.get(start + i)
            if not entries:
                plan.append((empty, empty, empty))
                continue
            plan.append(
                (
                    np.array([e.src for e in entries], dtype=np.int64),
                    np.array([e.dest for e in entries], dtype=np.int64),
                    np.array([e.size_bits for e in entries], dtype=np.int64),
                )
            )
        return plan
