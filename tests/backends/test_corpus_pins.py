"""Pinned bytes of small generated corpora.

``generate_corpus`` feeds every local-backend run, and the local
outputs, counters and worker sweep all assume its draws. These pins
hash every split it writes (name and bytes, in order) for two seeds,
so a faster generator must draw exactly the same words.
"""

import hashlib
import os

import pytest

from repro.backends.local import generate_corpus
from tests.pins import check

NUM_SPLITS = 3
SPLIT_KB = 16
SEEDS = (1, 7)


def corpus_digest(directory: str, seed: int) -> str:
    paths = generate_corpus(directory, num_splits=NUM_SPLITS, split_kb=SPLIT_KB, seed=seed)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.basename(path).encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_corpus_is_pinned(tmp_path, seed):
    check(f"corpus/{seed}", corpus_digest(str(tmp_path), seed))
