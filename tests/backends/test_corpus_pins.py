"""Pinned bytes of small generated corpora.

``generate_corpus`` feeds every local-backend run, and the local
outputs, counters and worker sweep all assume its draws. These pins
hash every split it writes (name and bytes, in order) for two seeds,
so a faster generator must draw exactly the same words.

Print the current values with::

    PYTHONPATH=src python -m tests.backends.test_corpus_pins --record
"""

import hashlib
import os
import sys
import tempfile

import pytest

from repro.backends.local import generate_corpus

NUM_SPLITS = 3
SPLIT_KB = 16

#: seed -> sha256 over every split's file name and bytes, in order.
PINS = {
    1: "3191a6d68e17718a6a8447e84863fef38a6b5e12cbfb2265700518864a2bee52",
    7: "5303c1a26c363e1c8a23a009dd127e174c6c199987ca102dcdca3ad146fa62cc",
}


def corpus_digest(directory: str, seed: int) -> str:
    paths = generate_corpus(directory, num_splits=NUM_SPLITS, split_kb=SPLIT_KB, seed=seed)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.basename(path).encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINS))
def test_generated_corpus_is_pinned(tmp_path, seed):
    assert corpus_digest(str(tmp_path), seed) == PINS[seed], f"seed {seed} corpus drifted"


if __name__ == "__main__" and "--record" in sys.argv:
    for seed in sorted(PINS):
        with tempfile.TemporaryDirectory() as directory:
            print(f'    {seed}: "{corpus_digest(directory, seed)}",')
