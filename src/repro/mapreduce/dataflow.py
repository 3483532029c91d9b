"""Per-job dataflow: split sizes, map outputs, and reducer partitions.

Given a :class:`~repro.mapreduce.jobspec.JobSpec` and the input file's
blocks, this module answers, deterministically under a seed:

* how many bytes/records does map *i* read and emit, and
* how do map *i*'s output bytes partition across the reducers,

including per-map volume noise and reducer-partition skew (MapReduce
jobs "commonly exhibit data skew", S1).  Skewed partition weights are
drawn once per job, so every map shards the same way -- exactly how a
hash partitioner behaves on a skewed key distribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hdfs.filesystem import HdfsFile
from repro.mapreduce.jobspec import JobSpec


class JobDataflow:
    """Deterministic data volumes for every task of one job."""

    def __init__(
        self,
        spec: JobSpec,
        input_file: HdfsFile,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.spec = spec
        rng = rng if rng is not None else np.random.default_rng(0)
        profile = spec.workload

        self.num_maps = max(1, len(input_file.blocks))
        self.num_reducers = spec.num_reducers

        # --- per-map input/output volumes --------------------------------
        self.split_bytes = np.array([b.size_bytes for b in input_file.blocks], dtype=float)
        if len(self.split_bytes) == 0:
            self.split_bytes = np.array([0.0])
        noise = profile.map_output_noise
        if noise > 0:
            factors = rng.lognormal(mean=-0.5 * noise**2, sigma=noise, size=self.num_maps)
        else:
            factors = np.ones(self.num_maps)
        self.map_output_bytes = self.split_bytes * profile.map_output_ratio * factors
        rec_size = max(1.0, profile.map_output_record_size)
        self.map_output_records = np.maximum(
            0, np.round(self.map_output_bytes / rec_size)
        ).astype(np.int64)

        # --- reducer partition weights (job-wide, skewed) -----------------
        skew = profile.partition_skew
        if skew > 0:
            raw = rng.lognormal(mean=0.0, sigma=skew, size=self.num_reducers)
        else:
            raw = np.ones(self.num_reducers)
        self.partition_weights = raw / raw.sum()

    # ------------------------------------------------------------------
    # Map side
    # ------------------------------------------------------------------
    def map_input_bytes(self, map_index: int) -> float:
        return float(self.split_bytes[map_index])

    def map_output(self, map_index: int) -> tuple[float, int]:
        """(bytes, records) emitted by map *map_index* before the combiner."""
        return float(self.map_output_bytes[map_index]), int(self.map_output_records[map_index])

    def partitions_for_map(self, map_index: int, post_combine_bytes: float) -> np.ndarray:
        """Split one map's final output across reducers (bytes per reducer)."""
        return self.partition_weights * post_combine_bytes

    # ------------------------------------------------------------------
    # Reduce side
    # ------------------------------------------------------------------
    def reduce_input_bytes(self, reduce_index: int, total_shuffle_bytes: float) -> float:
        return float(self.partition_weights[reduce_index] * total_shuffle_bytes)

    def reduce_output_bytes(self, reduce_input: float) -> float:
        return reduce_input * self.spec.workload.reduce_output_ratio

    # ------------------------------------------------------------------
    # Job-level expectations (used by tests and the knowledge base)
    # ------------------------------------------------------------------
    @property
    def total_input_bytes(self) -> float:
        return float(self.split_bytes.sum())

    @property
    def expected_shuffle_bytes(self) -> float:
        """Post-combiner bytes crossing the shuffle, at full combiner efficiency."""
        profile = self.spec.workload
        ratio = profile.combiner_byte_ratio if profile.has_combiner else 1.0
        return float(self.map_output_bytes.sum() * ratio)

    @property
    def expected_output_bytes(self) -> float:
        return self.expected_shuffle_bytes * self.spec.workload.reduce_output_ratio
