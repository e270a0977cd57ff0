"""Property tests of the vectorized engine against the reference oracle.

Random router configurations — every fabric, port count, load, wire
mode, FIFO or VOQ/iSLIP ingress, bounded queues, and warmup/arrival
windows that do not line up with the vector cores' charge chunks — must
give bit-identical results and per-component energy ledgers on both
engines, and every ledger must be internally consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fabrics.vectorized as vectorized
from repro.sim import ledger as categories
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

from test_engine_equivalence import assert_identical

ARCHES = ("crossbar", "fully_connected", "banyan", "batcher_banyan")


def _ledger(router):
    """Every category's components in insertion order, plus counters."""
    ledger = router.fabric.ledger
    return (
        [list(ledger.components(c).items()) for c in categories.CATEGORIES],
        ledger.counters(),
    )


@settings(max_examples=60, deadline=None)
@given(
    arch=st.sampled_from(ARCHES),
    ports=st.sampled_from((4, 8, 16)),
    load=st.sampled_from((0.0, 0.15, 0.5, 0.95)),
    wire_mode=st.sampled_from(("worst_case", "per_link")),
    queue=st.sampled_from((("fifo", 1), ("voq", 1), ("voq", 2))),
    depth=st.sampled_from((None, 2, 8)),
    warmup=st.integers(0, 70).filter(lambda n: n % 64),
    arrivals=st.integers(1, 90).filter(lambda n: n % 64),
    drain=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_vectorized_matches_reference(
    arch, ports, load, wire_mode, queue, depth, warmup, arrivals, drain, seed
):
    """Results and per-component ledgers (values and insertion order)
    are identical on both engines."""
    runs = []
    for engine in (SimulationEngine, VectorizedEngine):
        router = build_router(
            arch,
            ports,
            load,
            wire_mode=wire_mode,
            queueing=queue[0],
            islip_iterations=queue[1],
            ingress_queue_cells=depth,
        )
        result = engine(router, seed=seed).run(
            arrivals, warmup_slots=warmup, drain=drain
        )
        runs.append((result, _ledger(router)))
    (ref, ref_ledger), (vec, vec_ledger) = runs
    assert_identical(ref, vec)
    assert ref_ledger == vec_ledger


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("load", [0.0, 0.6])
def test_ledger_invariants(arch, load):
    """Components sum to the reported category totals (nothing is
    charged after the result is collected), no component is a zero
    placeholder, and zero load dissipates no dynamic energy."""
    router = build_router(arch, 8, load)
    result = VectorizedEngine(router, seed=11).run(97, warmup_slots=33)
    ledger = router.fabric.ledger
    reported = {
        categories.SWITCH: result.energy.switch_j,
        categories.WIRE: result.energy.wire_j,
        categories.BUFFER: result.energy.buffer_j,
        categories.REFRESH: result.energy.refresh_j,
    }
    for category, total in reported.items():
        components = ledger.components(category)
        assert all(value > 0 for value in components.values())
        assert sum(components.values()) == total
    if load == 0.0:
        assert result.energy.switch_j == 0
        assert result.energy.wire_j == 0
        assert ledger.counters() == {}
    else:
        assert result.energy.switch_j > 0 and result.energy.wire_j > 0


@pytest.mark.parametrize("arch", ARCHES)
def test_chunk_length_does_not_change_results(arch, monkeypatch):
    """The chunk length is an implementation detail, not a knob."""
    records = []
    for chunk in (1, 7, 64):
        monkeypatch.setattr(vectorized, "_CHUNK_SLOTS", chunk)
        router = build_router(arch, 8, 0.7)
        result = VectorizedEngine(router, seed=5).run(150, warmup_slots=37)
        components, counters = _ledger(router)
        records.append((result, components, list(counters.items())))
    assert records[0] == records[1] == records[2]


def test_batcher_banyan_checks_survive_batching():
    """A sorter that no longer sorts must still trip the banyan's
    conflict check, now evaluated over a whole chunk of slots."""
    from repro.errors import SimulationError

    router = build_router("batcher_banyan", 8, 0.9)
    engine = VectorizedEngine(router, seed=3)
    core = engine._core
    core._cmp = []  # cells enter the banyan unsorted
    with pytest.raises(SimulationError, match="Batcher-Banyan"):
        engine.run(80)
