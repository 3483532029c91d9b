"""The test suite's pinned values, kept in one manifest.

Every digest, count and attempt sequence a test pins lives in
``tests/pins.json`` under a name ``<area>/<scenario>``.  A test computes
its run where it always has and hands the value to :func:`check`, which
compares the value's JSON form with the manifest entry.  A change meant
to move a pin re-records the manifest, in a commit that says why, with::

    PYTHONPATH=src python -m pytest --record-pins [paths]

``tests/conftest.py`` adds that option, writes the manifest only when
every selected test passed, and fails a passing run of the whole default
collection that left a manifest entry unchecked.
"""

import itertools
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

MANIFEST = Path(__file__).with_name("pins.json")
RECORD = "PYTHONPATH=src python -m pytest --record-pins"


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def dumps(entries) -> str:
    """The manifest's text: sorted keys, one field and one list row per line."""

    def dump(value, depth):
        if isinstance(value, dict) and value:
            items = [f"{json.dumps(k)}: {dump(value[k], depth + 1)}" for k in sorted(value)]
        elif isinstance(value, list) and value:
            items = [canonical(row) for row in value]
        else:
            return canonical(value)
        pad = " " * (depth + 1)
        inner = ",\n".join(pad + item for item in items)
        open_, close = "{}" if isinstance(value, dict) else "[]"
        return f"{open_}\n{inner}\n{' ' * depth}{close}"

    return dump(entries, 0) + "\n"


def first_divergence(pinned, now) -> str:
    """Describe the first row at which two different lists part ways."""
    for index, (want, got) in enumerate(zip(pinned, now)):
        if want != got:
            return (
                f"row #{index} differs:\n"
                f"  pinned: {canonical(want)}\n  now:    {canonical(got)}"
            )
    index = min(len(pinned), len(now))
    side, rows = ("pinned", pinned) if len(pinned) > len(now) else ("now", now)
    return f"row #{index} exists only {side}: {canonical(rows[index])}"


def drift(name, pinned, now) -> str:
    """Name pin *name* and show how *now* differs from its entry *pinned*."""
    if isinstance(pinned, dict) and isinstance(now, dict):
        fields = [(f"{key}:", pinned.get(key), now.get(key)) for key in sorted({*pinned, *now})]
    else:
        fields = [("", pinned, now)]
    lines = [f"pin {name!r} drifted from its manifest entry:"]
    for label, want, got in fields:
        if canonical(want) == canonical(got):
            continue
        if isinstance(want, list) and isinstance(got, list):
            lines.append(f"{label} {first_divergence(want, got)}".lstrip())
            continue
        if label:
            lines.append(label)
        lines += [f"  pinned: {canonical(want)}", f"  now:    {canonical(got)}"]
    lines.append(f"A change meant to move it re-records with `{RECORD}` and says why.")
    return "\n".join(lines)


class Pins:
    """A pin manifest and the values one session checked against it.

    Recording stores each checked value in :attr:`entries` instead of
    comparing it; :meth:`save` writes them back.  Either way a name
    checked twice with different values fails.
    """

    def __init__(self, path=MANIFEST, recording=False):
        self.path = Path(path)
        self.recording = recording
        #: name -> the JSON form of the value first checked under it.
        self.checked = {}
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            self._entries = json.loads(self.path.read_text())
        return self._entries

    def check(self, name, value):
        value = json.loads(json.dumps(value))
        first = self.checked.setdefault(name, value)
        if canonical(first) != canonical(value):
            pytest.fail(
                f"pin {name!r} was checked twice with different values:\n"
                f"  first: {canonical(first)}\n  then:  {canonical(value)}"
            )
        if self.recording:
            self.entries[name] = value
        elif name not in self.entries:
            pytest.fail(
                f"pin {name!r} is not in {self.path.name}; "
                f"record it with `{RECORD} <its test file>`"
            )
        elif canonical(self.entries[name]) != canonical(value):
            pytest.fail(drift(name, self.entries[name], value))

    def save(self):
        self.path.write_text(dumps(self.entries))


#: This session's manifest; ``--record-pins`` swaps in a recording one.
session = Pins()


def check(name, value):
    """Fail unless the JSON form of *value* is the manifest entry *name*;
    under ``--record-pins``, make it the entry."""
    session.check(name, value)


#: ``(module, counter, start)`` of each process-global id counter whose
#: ids reach a traced run's JSONL records.
ID_COUNTERS = (
    ("repro.mapreduce.jobspec", "_job_ids", 9000),
    ("repro.cluster.container", "_container_ids", 1_000_000),
    ("repro.yarn.records", "_request_ids", 1_000_000),
    ("repro.hdfs.block", "_block_ids", 1_000_000),
    ("repro.core.optimizers.base", "_sample_ids", 1_000_000),
)


@contextmanager
def pinned_ids():
    """Start every id counter of :data:`ID_COUNTERS` afresh, as a new
    process would at a fixed offset, and put the originals back on exit.

    A traced run inside then repeats its records whichever tests ran
    before it.
    """
    with pytest.MonkeyPatch.context() as patch:
        for module, counter, start in ID_COUNTERS:
            patch.setattr(f"{module}.{counter}", itertools.count(start))
        yield
