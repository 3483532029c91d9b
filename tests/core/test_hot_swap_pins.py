"""Pinned outcomes of runs whose results depend on category-3 hot swaps.

The conservative tuner pushes its rule updates through
``set_task_parameters`` with no task id: the job configuration changes
for future tasks, and the hot-swappable subset lands in place in every
running task's live configuration (Section 2.2).  The run digests
elsewhere do not depend on that in-place write.  These two shrunk
Wikipedia runs do: the guard below routes every update to the job
configuration only, and both digests move.  A refactor of the
configuration or the configurator must keep both pins.

Print the current values with::

    PYTHONPATH=src python -m tests.core.test_hot_swap_pins --record
"""

import sys

import pytest

from repro.core.configurator import DynamicConfigurator
from repro.experiments.parallel import RunRequest, execute_request

#: case -> run digest with hot swaps applied.
PINS = {
    "bigram-wikipedia": (
        "dd6bb66a09e734b8593420adc8c36fd35b9b2b3b07f9a6dec1daf08e466e47ee"
    ),
    "wordcount-wikipedia": (
        "6ccccb05bc19b80d75b9288d8571d0c6a397beaca140e6399022bde1da3e0872"
    ),
}

#: case -> run digest when no update reaches a running task.
WITHOUT_HOT_SWAP = {
    "bigram-wikipedia": (
        "7db1f78b6a881aeb99770fbf729b3080f8e9afe3a56d66349baec3ab039407f7"
    ),
    "wordcount-wikipedia": (
        "8327a583444cc2456243bbc7956de19082ad9777460d6d2215fe8de6aa03bd8e"
    ),
}


def conservative_digest(name: str) -> str:
    return execute_request(RunRequest.build(name, 1, tuning="conservative")).digest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_hot_swap_pin(name):
    assert conservative_digest(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(WITHOUT_HOT_SWAP))
def test_pins_depend_on_hot_swaps(name, monkeypatch):
    def job_level_only(self, job_id, kv, task_id=None):
        return self.set_job_parameters(job_id, kv)

    monkeypatch.setattr(DynamicConfigurator, "set_task_parameters", job_level_only)
    assert conservative_digest(name) == WITHOUT_HOT_SWAP[name]


if __name__ == "__main__" and "--record" in sys.argv:
    for name in sorted(PINS):
        print(f'    "{name}": (\n        "{conservative_digest(name)}"\n    ),')
