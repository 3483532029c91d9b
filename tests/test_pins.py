"""The pin manifest's check, its writer and the id-counter helper."""

import importlib
import json

import pytest

from tests import pins
from tests.pins import ID_COUNTERS, Pins, dumps, pinned_ids

PIN = "a" * 64
OTHER = "b" * 64


def manifest_at(tmp_path, entries, recording=False):
    path = tmp_path / "pins.json"
    path.write_text(dumps(entries))
    return Pins(path, recording)


def test_a_drifted_pin_names_itself_and_both_values(tmp_path):
    rows = [["m0", 1], ["m1", 1]]
    manifest = manifest_at(tmp_path, {"area/run": PIN, "area/rows": {"rows": rows, "sha256": PIN}})
    with pytest.raises(pytest.fail.Exception) as drifted:
        manifest.check("area/run", OTHER)
    assert "'area/run' drifted" in str(drifted.value)
    assert f'pinned: "{PIN}"\n  now:    "{OTHER}"' in str(drifted.value)
    with pytest.raises(pytest.fail.Exception) as drifted:
        manifest.check("area/rows", {"rows": [["m0", 1], ["m1", 2]], "sha256": OTHER})
    assert 'rows: row #1 differs:\n  pinned: ["m1", 1]\n  now:    ["m1", 2]' in str(drifted.value)
    assert f'sha256:\n  pinned: "{PIN}"\n  now:    "{OTHER}"' in str(drifted.value)


def test_a_missing_pin_says_how_to_record_it(tmp_path):
    with pytest.raises(pytest.fail.Exception) as missing:
        manifest_at(tmp_path, {}).check("area/new", PIN)
    assert "'area/new' is not in pins.json; record it with" in str(missing.value)
    assert "python -m pytest --record-pins" in str(missing.value)


@pytest.mark.parametrize("recording", [False, True])
def test_one_name_checked_with_two_values_fails(tmp_path, recording):
    manifest = manifest_at(tmp_path, {"area/run": PIN}, recording)
    manifest.check("area/run", PIN)
    with pytest.raises(pytest.fail.Exception, match="'area/run' was checked twice"):
        manifest.check("area/run", OTHER)


def test_recording_stores_values_and_keeps_every_other_entry(tmp_path):
    manifest = manifest_at(tmp_path, {"area/kept": PIN, "area/run": PIN}, recording=True)
    manifest.check("area/run", OTHER)
    manifest.check("area/new", {"samples": 3, "sha256": PIN})
    manifest.save()
    assert json.loads(manifest.path.read_text()) == {
        "area/kept": PIN,
        "area/new": {"samples": 3, "sha256": PIN},
        "area/run": OTHER,
    }
    manifest_at(tmp_path, json.loads(manifest.path.read_text())).check("area/run", OTHER)


def test_the_checked_in_manifest_is_canonical():
    text = pins.MANIFEST.read_text()
    assert dumps(json.loads(text)) == text


def test_pinned_ids_restores_every_counter():
    modules = [importlib.import_module(module) for module, _, _ in ID_COUNTERS]
    before = [getattr(m, counter) for m, (_, counter, _) in zip(modules, ID_COUNTERS)]
    with pinned_ids():
        for m, (_, counter, start) in zip(modules, ID_COUNTERS):
            assert next(getattr(m, counter)) == start
    after = [getattr(m, counter) for m, (_, counter, _) in zip(modules, ID_COUNTERS)]
    assert all(a is b for a, b in zip(after, before))
