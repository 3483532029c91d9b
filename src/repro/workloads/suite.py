"""The benchmark matrix: Table 3 of the paper.

Ten rows: {bigram, inverted index, word count, text search} x
{Wikipedia, Freebase}, plus Terasort (synthetic) and BBP.  Every row
carries the expected shuffle/output volumes so tests can assert the
calibration, and :func:`make_job_spec` turns a row into a submittable
job.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.configuration import Configuration
from repro.hdfs.filesystem import HdfsFileSystem
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.bbp import bbp_profile
from repro.workloads.bigram import bigram_profile
from repro.workloads.datasets import (
    DatasetSpec,
    bbp_dataset,
    freebase_dataset,
    teragen_dataset,
    wikipedia_dataset,
)
from repro.workloads.grep import text_search_profile
from repro.workloads.inverted_index import inverted_index_profile
from repro.workloads.terasort import terasort_profile
from repro.workloads.wordcount import wordcount_profile

# Table 3 reports volumes in decimal units (90.5 GB Wikipedia = 676
# 128-MiB blocks); the expected columns below use the same convention.
GB = 10**9
MB = 10**6


class JobType(enum.Enum):
    """Table 3's job classification."""

    MAP = "Map"
    SHUFFLE = "Shuffle"
    COMPUTE = "Compute"


@dataclass(frozen=True)
class BenchmarkCase:
    """One row of Table 3."""

    name: str
    dataset: DatasetSpec
    profile: WorkloadProfile
    num_reducers: int
    job_type: JobType
    #: Table 3's reported volumes (bytes), for calibration checks.
    expected_shuffle_bytes: float
    expected_output_bytes: float

    @property
    def num_maps(self) -> int:
        return self.dataset.num_blocks


def make_job_spec(
    case: BenchmarkCase,
    fs: HdfsFileSystem,
    base_config: Optional[Configuration] = None,
    slowstart: float = 0.05,
) -> JobSpec:
    """Load the case's dataset (if needed) and build a job spec."""
    f = case.dataset.load(fs)
    return JobSpec(
        name=case.name,
        workload=case.profile,
        input_path=f.path,
        num_reducers=case.num_reducers,
        slowstart=slowstart,
        base_config=base_config or Configuration(),
    )


def table3_cases() -> List[BenchmarkCase]:
    """All ten benchmark rows of Table 3, in the paper's order."""
    wiki = wikipedia_dataset()
    free = freebase_dataset()
    return [
        BenchmarkCase(
            "bigram-wikipedia", wiki, bigram_profile("wikipedia"), 200,
            JobType.SHUFFLE, 80.8 * GB, 27.6 * GB,
        ),
        BenchmarkCase(
            "inverted-index-wikipedia", wiki, inverted_index_profile("wikipedia"),
            200, JobType.MAP, 38.0 * GB, 10.3 * GB,
        ),
        BenchmarkCase(
            "wordcount-wikipedia", wiki, wordcount_profile("wikipedia"), 200,
            JobType.MAP, 30.3 * GB, 8.6 * GB,
        ),
        BenchmarkCase(
            "text-search-wikipedia", wiki, text_search_profile("wikipedia"), 200,
            JobType.COMPUTE, 2.3 * GB, 469 * MB,
        ),
        BenchmarkCase(
            "bigram-freebase", free, bigram_profile("freebase"), 200,
            JobType.SHUFFLE, 84.8 * GB, 77.8 * GB,
        ),
        BenchmarkCase(
            "inverted-index-freebase", free, inverted_index_profile("freebase"),
            200, JobType.COMPUTE, 21.0 * GB, 11.0 * GB,
        ),
        BenchmarkCase(
            "wordcount-freebase", free, wordcount_profile("freebase"), 200,
            JobType.MAP, 16.7 * GB, 9.4 * GB,
        ),
        BenchmarkCase(
            "text-search-freebase", free, text_search_profile("freebase"), 200,
            JobType.COMPUTE, 906 * MB, 229 * MB,
        ),
        _terasort_row(),
        BenchmarkCase(
            "bbp", bbp_dataset(100), bbp_profile(), 1,
            JobType.COMPUTE, 252 * 1024, 0.0,
        ),
    ]


def _terasort_row() -> BenchmarkCase:
    """Table 3's Terasort row: the identity job shuffles and outputs
    exactly its input ("100 GB" of Teragen data)."""
    dataset = teragen_dataset(100.0)
    total = float(dataset.size_bytes)
    return BenchmarkCase(
        "terasort", dataset, terasort_profile(), 200, JobType.SHUFFLE, total, total
    )


def shrink_case(
    case: BenchmarkCase,
    num_blocks: Optional[int] = None,
    num_reducers: Optional[int] = None,
) -> BenchmarkCase:
    """Shrink a case's dataset and/or reducer count.

    The dataset is renamed (``<name>-x<blocks>``) so a shrunk file can
    never alias its full-size sibling inside one cluster.  This is the
    single shrinking path shared by the declarative run requests and
    the tuning service's profile catalog.
    """
    if num_blocks is not None:
        dataset = dataclasses.replace(
            case.dataset,
            name=f"{case.dataset.name}-x{num_blocks}",
            num_blocks=num_blocks,
        )
        case = dataclasses.replace(case, dataset=dataset)
    if num_reducers is not None:
        case = dataclasses.replace(case, num_reducers=num_reducers)
    return case


#: The six application profiles at service scale: one shrunk instance
#: per distinct workload family of Table 3 -- shuffle-heavy (terasort,
#: bigram), map-heavy (wordcount, inverted-index), compute-heavy
#: (text-search, bbp) -- sized so a continuous stream of them keeps the
#: cluster busy without any single job dominating the wall clock.
SERVICE_PROFILES: Tuple[Tuple[str, int, int], ...] = (
    ("terasort", 12, 4),
    ("bigram-freebase", 8, 3),
    ("wordcount-wikipedia", 8, 3),
    ("inverted-index-wikipedia", 8, 3),
    ("text-search-freebase", 8, 3),
    ("bbp", 4, 1),
)


def service_case(profile: str) -> BenchmarkCase:
    """The service-scale instance of one of the six profiles."""
    for name, blocks, reducers in SERVICE_PROFILES:
        if name == profile:
            return shrink_case(case_by_name(name), blocks, reducers)
    known = [name for name, _b, _r in SERVICE_PROFILES]
    raise KeyError(f"unknown service profile {profile!r}, want one of {known}")


def case_by_name(name: str) -> BenchmarkCase:
    for case in table3_cases():
        if case.name == name:
            return case
    raise KeyError(f"unknown benchmark case {name!r}")


def terasort_case(size_gb: float, num_reducers: Optional[int] = None) -> BenchmarkCase:
    """A Terasort instance of arbitrary size (the Figure-13 sweep).

    Following Section 8.4, reducers default to ~1/4 of the map count.
    """
    dataset = teragen_dataset(size_gb)
    if num_reducers is None:
        num_reducers = max(1, dataset.num_blocks // 4)
    total = dataset.size_bytes
    return BenchmarkCase(
        f"terasort-{size_gb:g}gb", dataset, terasort_profile(), num_reducers,
        JobType.SHUFFLE, float(total), float(total),
    )
