"""Malformed network, control and campaign spec files.

A spec file is user input: whatever JSON it holds, loading it yields
the spec or a :class:`~repro.errors.ConfigurationError` (CLI exit code
2), never a ``TypeError`` traceback.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.campaign import Campaign
from repro.campaigns.presets import get_campaign
from repro.cli import main
from repro.control.presets import get_control
from repro.control.spec import ControlSpec
from repro.errors import ConfigurationError, ReproError
from repro.network import get_network
from repro.network.power import NetworkSpec

SPECS = {
    "network": (NetworkSpec, get_network("dumbbell_switchoff").to_dict()),
    "control": (ControlSpec, get_control("dumbbell_sleep_sweep").to_dict()),
    "campaign": (Campaign, get_campaign("fig10").to_dict()),
}

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=2)
)


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("text", ["{}", "[]", "null", "3", '"spec"'])
def test_cli_rejects_non_spec_files(tmp_path, capsys, kind, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main([kind, "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_missing_required_field_is_named(kind):
    cls, valid = SPECS[kind]
    data = {k: v for k, v in valid.items() if k != "name"}
    with pytest.raises(ConfigurationError, match="missing .*'name'"):
        cls.from_dict(data)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_valid_spec_round_trips(kind):
    cls, valid = SPECS[kind]
    assert cls.from_json(json.dumps(valid)).to_dict() == valid


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(SPECS)),
    data=st.data(),
)
def test_fuzzed_spec_files_never_escape_as_other_errors(kind, data):
    cls, valid = SPECS[kind]
    names = sorted(valid)
    drop = data.draw(st.lists(st.sampled_from(names), max_size=2))
    over = data.draw(st.dictionaries(st.sampled_from(names), JSON_VALUES, max_size=2))
    doc = {k: v for k, v in valid.items() if k not in drop}
    doc.update(over)
    top = data.draw(st.just(doc) | JSON_VALUES)
    try:
        spec = cls.from_json(json.dumps(top))
    except ReproError:
        return
    assert isinstance(spec, cls)
