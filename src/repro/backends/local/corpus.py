"""Deterministic synthetic text corpora for the local-process backend.

Real executions need real input files.  :func:`generate_corpus` writes
a seeded synthetic text corpus -- Zipf-flavored draws over a fixed
vocabulary -- as one file per map split, and
:func:`local_job_spec` packages a split directory into the same
:class:`~repro.mapreduce.jobspec.JobSpec` the simulator consumes, so
one spec shape flows through every backend.
"""

from __future__ import annotations

import os
import random
from itertools import accumulate
from typing import List, Optional

from repro.backends.local.worker import LOCAL_WORKLOADS
from repro.core.configuration import Configuration
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile

#: A fixed bigram-ish vocabulary: common English glue words plus
#: generated stems, some carrying the grep needle ("ing") so the
#: text-search workload always has matches.
_COMMON = (
    "the of and to in a is that it was for on are with as his they at be "
    "this have from or one had by word but not what all were when your can "
    "said there use an each which she how their time if will way about many "
    "then them write would like these her long make thing see him two has "
    "look more day could go come did number sound most people over know "
    "water than call first who may down side been now find running testing "
    "tuning mapping reducing sorting merging spilling shuffling working"
).split()

_STEM_PARTS = (
    "ban", "cor", "dal", "fen", "gor", "hul", "jar", "kel", "lom", "mer",
    "nop", "pag", "quin", "ros", "sil", "tam", "urn", "vex", "wol", "yar",
)


def _vocabulary(rng: random.Random, extra_words: int = 160) -> List[str]:
    vocab = list(_COMMON)
    for _ in range(extra_words):
        word = "".join(rng.choice(_STEM_PARTS) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.25:
            word += "ing"
        vocab.append(word)
    return vocab


def generate_corpus(
    directory: str,
    num_splits: int,
    split_kb: int = 32,
    seed: int = 1,
) -> List[str]:
    """Write ``num_splits`` text files of ~``split_kb`` KB each.

    Fully determined by *seed*: the same arguments always produce the
    same bytes, so local-backend tests can assert exact outputs.
    Returns the split paths in order.
    """
    if num_splits < 1:
        raise ValueError("num_splits must be >= 1")
    if split_kb < 1:
        raise ValueError("split_kb must be >= 1")
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    vocab = _vocabulary(rng)
    # Zipf-flavored weights: rank r gets weight 1/(r+1).  ``choices``
    # would rebuild this running sum on every call from ``weights=``;
    # passing it once draws the same words.
    cum_weights = list(accumulate(1.0 / (rank + 1) for rank in range(len(vocab))))
    paths = []
    target = split_kb * 1024
    for i in range(num_splits):
        path = os.path.join(directory, f"split_{i:05d}.txt")
        lines = []
        size = 0
        while size < target:
            words = rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(6, 14))
            line = " ".join(words)
            lines.append(line)
            size += len(line) + 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        paths.append(path)
    return paths


def corpus_splits(directory: str) -> List[str]:
    """The split files of a corpus directory, in deterministic order."""
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".txt")
    )


def local_workload_profile(workload: str) -> WorkloadProfile:
    """A :class:`WorkloadProfile` naming one of the local workloads.

    The dataflow-model ratios are irrelevant for real execution (the
    actual map/reduce functions define them); only the name travels, so
    the tuner's knowledge base keys match across backends.
    """
    if workload not in LOCAL_WORKLOADS:
        raise KeyError(
            f"unknown local workload {workload!r}, "
            f"want one of {sorted(LOCAL_WORKLOADS)}"
        )
    return WorkloadProfile(
        name=f"{workload}-local",
        map_output_ratio=1.0,
        map_output_record_size=22.0,
    )


def local_job_spec(
    workload: str,
    input_dir: str,
    num_reducers: int,
    base_config: Optional[Configuration] = None,
    name: Optional[str] = None,
) -> JobSpec:
    """Build a submittable spec for a corpus directory.

    ``input_path`` points at the split *directory*; the backend maps one
    task per split file.
    """
    return JobSpec(
        name=name or f"{workload}-local",
        workload=local_workload_profile(workload),
        input_path=input_dir,
        num_reducers=num_reducers,
        base_config=base_config or Configuration(),
    )
