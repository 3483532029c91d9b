"""Split a cProfile run's self time by layer and by local task phase.

A function defined under ``src/repro/<package>/`` is charged to that
package's layer (:func:`layer_of`).  Builtins and code outside the
package (stdlib, numpy) have no layer of their own.  Their self time
goes to the layers of their callers, in proportion to the time each
caller spent in them.  So ``max`` called from the flow solver counts as
flow-solver time.  Time that reaches no repro caller is ``other``, as
is every repro package that is not a measured layer (``experiments``,
``workloads``, the sim backend adapter).
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple

#: The measured layers, named after ``src/repro`` packages.  ``sim`` is
#: the engine and events; ``cluster`` covers cluster and hdfs.
LAYERS = (
    "sim",
    "sim.resources",
    "mapreduce",
    "yarn",
    "monitor",
    "core",
    "telemetry",
    "faults",
    "service",
    "cluster",
    "backends.local",
)
OTHER = "other"

#: The phases of a local map or reduce task.
PHASES = ("read", "map", "sort_spill", "combine", "merge", "fetch", "reduce", "commit")

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)
Classifier = Callable[[Func], Optional[str]]
EdgeClassifier = Callable[[Func, Func], Optional[str]]

_PACKAGE_LAYERS = {"mapreduce", "yarn", "monitor", "core", "telemetry", "faults", "service"}


def layer_of(package_root: str) -> Classifier:
    """Classifier naming the layer of functions under *package_root*."""
    prefix = os.path.join(os.path.realpath(package_root), "")

    def classify(func: Func) -> Optional[str]:
        path = func[0]
        if not path.startswith(prefix):
            return None
        parts = path[len(prefix):].split(os.sep)
        package = parts[0]
        if package == "sim":
            return "sim.resources" if parts[1] == "resources.py" else "sim"
        if package in ("cluster", "hdfs"):
            return "cluster"
        if package == "backends" and parts[1] == "local":
            return "backends.local"
        return package if package in _PACKAGE_LAYERS else OTHER

    return classify


def self_time(
    stats: Dict[Func, tuple],
    classify: Classifier,
    classify_edge: Optional[EdgeClassifier] = None,
) -> Dict[str, float]:
    """Self seconds per bucket; every profiled second lands in one bucket."""
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        bucket = classify(func)
        if bucket is not None:
            owners[func] = {bucket: 1.0}
            return owners[func]
        owners[func] = {OTHER: 1.0}  # provisional, breaks call cycles
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        share: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            edge_bucket = classify_edge(func, caller) if classify_edge else None
            parts = {edge_bucket: 1.0} if edge_bucket else owner(caller)
            for bucket, fraction in parts.items():
                share[bucket] += fraction * weight / total
        owners[func] = dict(share) if share else {OTHER: 1.0}
        return owners[func]

    out: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for bucket, fraction in owner(func).items():
            out[bucket] += tt * fraction
    return dict(out)


def call_count(stats: Dict[Func, tuple], path_suffix: str, name: str) -> int:
    """Calls of the function *name* defined in a file ending in *path_suffix*."""
    suffix = path_suffix.replace("/", os.sep)
    return sum(
        value[1]
        for (path, _line, func), value in stats.items()
        if func == name and path.endswith(suffix)
    )


def profile_stats(profile) -> Dict[Func, tuple]:
    return pstats.Stats(profile).stats


# ----------------------------------------------------------------------
# Local task phases
# ----------------------------------------------------------------------
#: Phase of each function of ``backends/local/worker.py``.  Helpers that
#: serve several phases (``_write_run``) are absent and take their
#: caller's phase.  The reduce task's own loop parses fetched segments
#: and groups keys; both count as ``reduce``.
_WORKER_PHASES = {
    "run_map_task": "map",
    "_wordcount_map": "map",
    "_grep_map": "map",
    "_inverted_index_map": "map",
    "spill": "sort_spill",
    "partition_of": "sort_spill",
    "_combine": "combine",
    "_sum_combine": "combine",
    "_merge_runs": "merge",
    "_read_run": "merge",
    "flush_to_disk": "merge",
    "fetch": "fetch",
    "run_reduce_task": "reduce",
    "emit_group": "reduce",
    "_sum_reduce": "reduce",
    "_postings_reduce": "reduce",
    "_commit": "commit",
}

#: Stdlib modules that serve exactly one phase.
_MODULE_PHASES = {
    "heapq.py": "merge",
    "shutil.py": "commit",
    "threading.py": "fetch",
    f"concurrent{os.sep}futures": "fetch",
}


def _is_worker(func: Func) -> bool:
    return func[0].endswith(os.path.join("backends", "local", "worker.py"))


def classify_phase(func: Func) -> Optional[str]:
    if _is_worker(func):
        return _WORKER_PHASES.get(func[2])
    for module, phase in _MODULE_PHASES.items():
        if module in func[0]:
            return phase
    return None


def classify_phase_edge(callee: Func, caller: Func) -> Optional[str]:
    """Phases that depend on the caller.

    The map task's own ``open``/``read`` calls read its split, and its
    own ``_write_run`` writes the merged segments; the reduce task's own
    sort orders the fetched records for the merge.
    """
    if not _is_worker(caller):
        return None
    if caller[2] == "run_map_task":
        if callee[0] == "~" and ("io.open" in callee[2] or "'read'" in callee[2]):
            return "read"
        if _is_worker(callee) and callee[2] == "_write_run":
            return "merge"
    if caller[2] == "run_reduce_task" and "'sort'" in callee[2]:
        return "merge"
    return None
