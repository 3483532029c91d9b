"""Pinned outcomes of runs whose results depend on category-3 hot swaps.

The conservative tuner pushes its rule updates through
``set_task_parameters`` with no task id: the job configuration changes
for future tasks, and the hot-swappable subset lands in place in every
running task's live configuration (Section 2.2).  The run digests
elsewhere do not depend on that in-place write.  These two shrunk
Wikipedia runs do: the guard below routes every update to the job
configuration only, and both digests move.  A refactor of the
configuration or the configurator must keep both pins.

``tests/pins.json`` holds each case's run digest with hot swaps applied
as ``hot-swap/<case>``, and the digest when no update reaches a running
task as ``hot-swap/<case>/job-level-only``.
"""

import pytest

from repro.core.configurator import DynamicConfigurator
from repro.experiments.parallel import RunRequest, execute_request
from tests.pins import check

CASES = ("bigram-wikipedia", "wordcount-wikipedia")


def conservative_digest(name: str) -> str:
    return execute_request(RunRequest.build(name, 1, tuning="conservative")).digest()


@pytest.mark.parametrize("name", CASES)
def test_hot_swap_pin(name):
    check(f"hot-swap/{name}", conservative_digest(name))


@pytest.mark.parametrize("name", CASES)
def test_pins_depend_on_hot_swaps(name, monkeypatch):
    def job_level_only(self, job_id, kv, task_id=None):
        return self.set_job_parameters(job_id, kv)

    monkeypatch.setattr(DynamicConfigurator, "set_task_parameters", job_level_only)
    check(f"hot-swap/{name}/job-level-only", conservative_digest(name))
