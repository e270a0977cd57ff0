"""The keyed JSONL store: malformed lines and one file for both kinds.

* A checksum-free line that parses as JSON but is not an object
  (``[1,2]``, ``"abc"``, ``null``, ``42``) is a counted skip for every
  loader, and a quarantined one for the stores — never a traceback.
* A run store and a derived store pointed at one path leave each
  other's lines alone: nothing is quarantined, ``compact()`` from either
  face keeps both kinds, and surrogate extraction sees only run lines.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import DerivedRecordStore, RunRecordStore, Scenario
from repro.api.jsonl import locked_append, quarantine_path
from repro.cli import main
from repro.network import get_network
from repro.resilience import CampaignJournal
from repro.surrogate.dataset import extract_dataset
from repro.surrogate.train import train_surrogate

NON_OBJECT_LINES = ["[1,2]", '"abc"', "null", "42"]

SCENARIO = Scenario("crossbar", 4, 0.3, backend="estimate")


def _valid_store(path, loader):
    """Write one valid entry through ``loader``'s own put path."""
    if loader is RunRecordStore:
        RunRecordStore(path).put(repro.default_session().run(SCENARIO))
    elif loader is DerivedRecordStore:
        DerivedRecordStore(path).put("k", "comparison", {"a": 1})
    else:
        journal = CampaignJournal(path, "camp")
        journal.record_done(repro.default_session().run(SCENARIO))


def _load(path, loader):
    if loader is CampaignJournal:
        return CampaignJournal(path, "camp")
    return loader(path)


def _entries(opened):
    stats = opened.stats()
    return stats["done"] if "done" in stats else stats["entries"]


@pytest.mark.parametrize("line", NON_OBJECT_LINES)
@pytest.mark.parametrize(
    "loader", [RunRecordStore, DerivedRecordStore, CampaignJournal]
)
def test_non_object_line_is_skipped(tmp_path, loader, line):
    path = tmp_path / "store.jsonl"
    _valid_store(path, loader)
    with path.open("a") as fh:
        fh.write(line + "\n")
    opened = _load(path, loader)
    stats = opened.stats()
    assert stats["skipped_lines"] == 1
    assert _entries(opened) == 1
    if loader is not CampaignJournal:
        assert stats["quarantined"] == 1
        quarantined = quarantine_path(path).read_text().splitlines()
        assert json.loads(quarantined[0])["line"] == line


def test_undecodable_run_line_is_a_quarantined_miss(tmp_path):
    path = tmp_path / "store.jsonl"
    _valid_store(path, RunRecordStore)
    locked_append(path, {"key": "k", "record": {"not": "a run record"}})
    store = RunRecordStore(path)
    assert len(store) == 1
    assert store.stats()["quarantined"] == 1
    assert quarantine_path(path).exists()


#: JSON values whose objects favour the field names the loaders read.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["key", "kind", "record", "campaign", "status"])
        | st.text(max_size=5),
        inner,
        max_size=4,
    ),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(
        st.text(max_size=40) | JSON_VALUES.map(json.dumps), max_size=4
    )
)
def test_arbitrary_lines_never_raise(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "store.jsonl"
    _valid_store(path, RunRecordStore)
    with path.open("a") as fh:
        for line in lines:
            fh.write(line.replace("\n", " ").replace("\r", " ") + "\n")
    store = RunRecordStore(path)
    assert len(store) == 1
    assert store.get(SCENARIO) is not None
    assert DerivedRecordStore(path).stats()["entries"] >= 0
    assert CampaignJournal(path, "camp").stats()["done"] == 0


def test_batch_cli_on_non_object_lines(tmp_path, capsys):
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps([SCENARIO.to_dict()]))
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(line + "\n" for line in NON_OBJECT_LINES))
    argv = ["batch", str(scenarios), "--cache", str(cache), "--format", "csv"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "4 skipped, 4 quarantined" in err


class TestSharedFile:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shared")
        shared, runs = root / "shared.jsonl", root / "runs.jsonl"
        for name in ("fat_tree_k4", "dumbbell_switchoff"):
            spec = get_network(name)
            repro.run_network(
                spec,
                store=RunRecordStore(shared),
                figures=DerivedRecordStore(shared),
            )
            repro.run_network(spec, store=RunRecordStore(runs))
        return shared, runs

    def test_neither_store_quarantines(self, files):
        shared, runs = files
        run_store = RunRecordStore(shared)
        derived = DerivedRecordStore(shared)
        assert run_store.stats()["quarantined"] == 0
        assert derived.stats()["quarantined"] == 0
        assert not quarantine_path(shared).exists()
        assert len(run_store) == len(RunRecordStore(runs))
        assert len(derived) == 2  # one network record per preset

    @pytest.mark.parametrize("face", [RunRecordStore, DerivedRecordStore])
    def test_compact_keeps_both_kinds(self, files, tmp_path, face):
        shared, _ = files
        path = tmp_path / "shared.jsonl"
        path.write_bytes(shared.read_bytes())
        before = (len(RunRecordStore(path)), len(DerivedRecordStore(path)))
        assert face(path).compact() == sum(before)
        after = (RunRecordStore(path), DerivedRecordStore(path))
        assert (len(after[0]), len(after[1])) == before
        assert all(s.stats()["skipped_lines"] == 0 for s in after)
        for name in ("fat_tree_k4", "dumbbell_switchoff"):
            key = get_network(name).content_hash()
            assert after[1].get(key, "network") is not None

    def test_surrogate_sees_only_run_lines(self, files):
        shared, runs = files
        mixed, plain = extract_dataset(shared), extract_dataset(runs)
        assert mixed.store_hash == plain.store_hash
        assert mixed.rows == plain.rows
        assert mixed.skipped == plain.skipped
        assert (
            train_surrogate(mixed).content_hash()
            == train_surrogate(plain).content_hash()
        )


class TestConcurrentWriters:
    """Two store objects on one file: compaction by one keeps the
    other's lines appended after the compacting object loaded."""

    def test_compact_keeps_lines_appended_after_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = DerivedRecordStore(path)
        first.put("a", "comparison", {"v": 1})
        second = DerivedRecordStore(path)
        second.put("b", "comparison", {"v": 2})
        second.put("a", "comparison", {"v": 3})  # supersedes first's "a"
        first.put("c", "network", {"v": 4})
        assert first.compact() == 3
        reloaded = DerivedRecordStore(path)
        assert reloaded.get("a", "comparison") == {"v": 3}
        assert reloaded.get("b", "comparison") == {"v": 2}
        assert reloaded.get("c", "network") == {"v": 4}
        assert reloaded.stats()["skipped_lines"] == 0
        # The compacting object now sees the merged state too.
        assert first.get("b", "comparison") == {"v": 2}
        assert len(path.read_text().splitlines()) == 3

    def test_run_faces_merge_records(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        session = repro.default_session()
        early = RunRecordStore(path)
        late = RunRecordStore(path)
        other = SCENARIO.replace(load=0.4)
        late.put(session.run(other))
        early.put(session.run(SCENARIO))
        assert early.compact() == 2
        assert early.get(other) is not None
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 2
        assert reloaded.get(SCENARIO) is not None
