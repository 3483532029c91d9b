"""The shuffle: map-output catalog and reducer fetch bookkeeping.

Map tasks register their final output (total bytes and the per-reducer
partition vector) with the :class:`MapOutputCatalog`; reduce tasks
consume completed outputs in arrival order, fetching everything new in
aggregated rounds (Hadoop's fetchers also batch by event polls).

Per-fetch throughput is bounded by ``shuffle.parallelcopies`` times a
per-stream service rate: serving a map segment is a seek-bound read on
the source node, so a single copier stream cannot saturate a NIC --
which is exactly why the parameter is worth tuning (S6.3).

Under network faults the aggregated rounds are replaced by per-source
fetches with real failure semantics (timeout, exponential backoff,
capped retries, per-source penalty box), tuned by the ``FETCH_*``
constants below; exhausted retries are reported to the app master,
which may declare the map output lost (:meth:`mark_lost`) and
re-execute the map.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.events import Event

MB = 1024 * 1024

#: Service rate of one shuffle copier stream (seek-bound map-output
#: serving; the tuning rule "increase parallelcopies in increments of
#: 10" only makes sense if single streams are slow).
SHUFFLE_STREAM_BW = 12 * MB

# The gray-failure fetch path (Hadoop-flavored values).  A fetch that
# has not completed by FETCH_TIMEOUT (Hadoop's
# ``mapreduce.reduce.shuffle.read.timeout``) is abandoned and retried.
# Retries back off exponentially from FETCH_BACKOFF_BASE up to
# FETCH_BACKOFF_MAX; after FETCH_MAX_RETRIES failed attempts the source
# lands in the reducer's penalty box for FETCH_PENALTY_SECONDS and one
# fetch-failure report goes to the AM.
FETCH_TIMEOUT = 15.0
FETCH_MAX_RETRIES = 3
FETCH_BACKOFF_BASE = 1.0
FETCH_BACKOFF_MAX = 8.0
FETCH_PENALTY_SECONDS = 20.0
#: Simulated time a refused/failed connection burns before erroring
#: (a TCP-level failure is fast, not instant).
FETCH_FAILURE_LATENCY = 0.5


class MapOutputCatalog:
    """Tracks completed map outputs for one job's shuffle."""

    def __init__(self, sim: Simulator, num_maps: int, num_reducers: int) -> None:
        self.sim = sim
        self.num_maps = num_maps
        self.num_reducers = num_reducers
        #: map index -> (node_id, partition byte vector)
        self._outputs: Dict[int, tuple[int, np.ndarray]] = {}
        self._completed_order: List[int] = []
        self._waiters: List[Event] = []
        self._closed = False

    # -- producer side -----------------------------------------------------
    def register_map_output(
        self, map_index: int, node_id: int, partitions: np.ndarray
    ) -> bool:
        """Publish a finished map's output; returns False for a duplicate.

        With speculative execution two attempts of the same map can both
        finish; the first registration wins and the loser's output is
        ignored (reducers have already fetched, or will fetch, the
        winner's segments).  An output that was declared lost
        (:meth:`mark_lost`) may be registered again by the re-executed
        map; the fresh registration is appended to the completion order
        so polling reducers discover the new location.
        """
        if map_index in self._outputs:
            return False
        if len(partitions) != self.num_reducers:
            raise ValueError(
                f"partition vector has {len(partitions)} entries, "
                f"expected {self.num_reducers}"
            )
        self._outputs[map_index] = (node_id, np.asarray(partitions, dtype=float))
        self._completed_order.append(map_index)
        self._wake()
        return True

    def mark_lost(self, map_index: int) -> bool:
        """Retract a map output the AM declared lost; False if absent.

        The completion-order log keeps the stale entry (reducer cursors
        are positional and must never move backwards); consumers check
        :meth:`has_output` before fetching.
        """
        entry = self._outputs.pop(map_index, None)
        if entry is None:
            return False
        self._wake()
        return True

    def mark_all_maps_done(self) -> None:
        """Called by the app master when no further map outputs will appear."""
        self._closed = True
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    # -- consumer side -----------------------------------------------------
    @property
    def maps_done(self) -> bool:
        """True when every map output is live, or no more will appear."""
        return self._closed or len(self._outputs) >= self.num_maps

    @property
    def closed(self) -> bool:
        """True once the AM gave up on producing further outputs."""
        return self._closed

    @property
    def completed_maps(self) -> int:
        return len(self._outputs)

    def new_outputs_since(self, cursor: int) -> tuple[int, List[int]]:
        """Map indices completed since *cursor*; returns (new_cursor, indices)."""
        fresh = self._completed_order[cursor:]
        return len(self._completed_order), fresh

    def wait_for_news(self) -> Event:
        """An event that fires when another map output lands (or maps end)."""
        ev = self.sim.event()
        self._waiters.append(ev)
        return ev

    def has_output(self, map_index: int) -> bool:
        return map_index in self._outputs

    def node_of(self, map_index: int) -> int:
        return self._outputs[map_index][0]

    def partition_bytes(self, map_index: int, reduce_index: int) -> float:
        _node, parts = self._outputs[map_index]
        return float(parts[reduce_index])

    def batch_bytes_for_reducer(
        self, map_indices: Sequence[int], reduce_index: int
    ) -> float:
        return float(
            sum(self._outputs[m][1][reduce_index] for m in map_indices)
        )

    def total_bytes_for_reducer(self, reduce_index: int) -> float:
        return float(sum(parts[reduce_index] for _n, parts in self._outputs.values()))

    def source_nodes(self, map_indices: Sequence[int]) -> List[int]:
        return [self._outputs[m][0] for m in map_indices]
