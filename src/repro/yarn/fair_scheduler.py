"""Fair-share scheduling for multi-tenant experiments (Section 8.5).

Each allocation goes to the app with the smallest weighted memory
share, mirroring the fair scheduler the paper runs Terasort + BBP
under.  Within an app, requests follow priority-then-arrival order.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cluster.node import Node
from repro.yarn.records import ContainerRequest
from repro.yarn.scheduler import SchedulerBase


class FairScheduler(SchedulerBase):
    """Weighted fair sharing by allocated memory."""

    def _app_share(self, app_id: str) -> float:
        weight = self._app_weight.get(app_id, 1.0)
        return self.app_memory_usage.get(app_id, 0) / weight

    def assign_once(self) -> Optional[Tuple[ContainerRequest, Node]]:
        # Under elastic churn the whole live set can momentarily be
        # draining (e.g. a preemption notice on the last free node);
        # bail out before the per-app scan rather than probing every
        # pending request against an empty cluster.  Shares themselves
        # need no rebalancing on a capacity change: they are relative
        # (usage / weight), so the most-starved ordering is invariant
        # under the cluster growing or shrinking.
        if not self._pending or not self.schedulable_nodes():
            return None
        # Apps with pending requests, most-starved first.
        apps = sorted(
            {r.app_id for r in self._pending},
            key=lambda a: (self._app_share(a), a),
        )
        return self._first_fit(
            request
            for app_id in apps
            for request in sorted(
                (r for r in self._pending if r.app_id == app_id),
                key=lambda r: (r.priority, r.request_id),
            )
        )
