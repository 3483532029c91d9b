"""The local map functions: the tokenizer, and the order the maps emit in."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends.local import generate_corpus, knobs_from_config
from repro.backends.local.worker import _WORD_RE, MapTaskSpec, TaskReport, _words
from repro.core.configuration import Configuration
from repro.mapreduce.jobspec import TaskType
from tests.backends.test_worker_sweep import read_tree, work_of


@pytest.mark.parametrize(
    "text",
    [
        "Hello WORLD, MiXeD Case",
        "don't 'quoted' rock'n'roll ''' o'",
        "abc123def 42 x9y 0",
        "tab\tseparated\t\twords\n",
        # str.split() counts these four separators as whitespace.
        "a\x1cb\x1dc\x1ed\x1fe",
        "non\xa0breaking\xa0space",
        "\u0130stanbul",
        "Stra\xdfe",
        "",
        # The Kelvin sign is not ASCII, yet it lowercases to ASCII "k".
        "\u212aelvin \u212a",
    ],
)
def test_words_match_regex(text):
    assert _words(text) == _WORD_RE.findall(text.lower())


#: A few non-ASCII characters, some of which lowercase to ASCII or to
#: several characters.
_NON_ASCII = "\xa0\xdf\xe9\u0130\u03a3\u2028\u212a"


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127) | st.sampled_from(_NON_ASCII)))
def test_words_match_regex_on_mixed_text(text):
    assert _words(text) == _WORD_RE.findall(text.lower())


#: Runs the map task whose spec arrives as JSON and prints its report.
_RUN_MAP = """
import json, sys
from dataclasses import asdict
from repro.backends.local.worker import MapTaskSpec, TaskKnobs, run_map_task
args = json.loads(sys.argv[1])
args["knobs"] = TaskKnobs(**args["knobs"])
print(json.dumps(asdict(run_map_task(MapTaskSpec(**args)))))
"""


def _map_under_hash_seed(spec: MapTaskSpec, hash_seed: int):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAP, json.dumps(asdict(spec))],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return work_of(TaskReport(**json.loads(proc.stdout))), read_tree(spec.job_dir)


def test_inverted_index_spills_repeat_under_every_hash_seed(tmp_path):
    """An inverted-index map that spills many times cuts its loads at
    the same records whatever the process's hash seed."""
    (split,) = generate_corpus(str(tmp_path / "corpus"), num_splits=1, split_kb=8, seed=1)
    knobs = replace(knobs_from_config(Configuration(), TaskType.MAP), sort_buffer_bytes=200)
    runs = [
        _map_under_hash_seed(
            MapTaskSpec("hash", 0, 0, split, "inverted-index", 3,
                        str(tmp_path / f"job-{seed}"), knobs, 0.0),
            seed,
        )
        for seed in (1, 2, 3)
    ]
    report, files = runs[0]
    assert not report["failed"], report
    # Not vacuous: the split spills many times and merges in passes.
    assert report["spilled_records"] > report["output_records"] and report["merge_passes"] > 3
    assert len(files) == 3
    for other_report, other_files in runs[1:]:
        assert other_report == report
        assert other_files == files
