"""Tests for configurations and dependency clamps."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parameters as P
from repro.core.configuration import (
    HEAP_FRACTION,
    Configuration,
    enforce_dependencies,
    is_feasible,
)
from repro.core.parameters import PARAMETER_SPACE


class TestConfiguration:
    def test_defaults_filled(self):
        cfg = Configuration()
        assert cfg[P.IO_SORT_MB] == 100
        assert cfg[P.SHUFFLE_PARALLELCOPIES] == 5

    def test_overrides_applied(self):
        cfg = Configuration({P.IO_SORT_MB: 400})
        assert cfg[P.IO_SORT_MB] == 400

    def test_setting_clamps_to_spec_range(self):
        high = PARAMETER_SPACE.spec(P.IO_SORT_MB).high
        assert Configuration({P.IO_SORT_MB: 10**9})[P.IO_SORT_MB] == high
        assert Configuration().updated({P.IO_SORT_MB: 10**9})[P.IO_SORT_MB] == high

    def test_unknown_keys_pass_through(self):
        assert Configuration({"custom.app.param": 7})["custom.app.param"] == 7
        derived = Configuration().updated({"custom.app.param": "text"})
        assert derived["custom.app.param"] == "text"

    def test_derived_config_is_independent(self):
        a = Configuration()
        b = a.updated({P.IO_SORT_MB: 500})
        b.hot_swap({P.SORT_SPILL_PERCENT: 0.99})
        assert a[P.IO_SORT_MB] == 100
        assert a[P.SORT_SPILL_PERCENT] == 0.8

    def test_updated_returns_new_object(self):
        a = Configuration()
        b = a.updated({P.IO_SORT_MB: 300})
        assert a[P.IO_SORT_MB] == 100
        assert b[P.IO_SORT_MB] == 300

    def test_hot_swap_writes_only_category_3(self):
        cfg = Configuration()
        cfg.hot_swap({P.SORT_SPILL_PERCENT: 2.0, P.MAP_MEMORY_MB: 2048, "custom": 1})
        assert cfg[P.SORT_SPILL_PERCENT] == PARAMETER_SPACE.spec(P.SORT_SPILL_PERCENT).high
        assert cfg[P.MAP_MEMORY_MB] == 1024
        assert "custom" not in cfg

    def test_no_other_mutation_api(self):
        for name in ("__setitem__", "copy", "space"):
            assert not hasattr(Configuration(), name)

    def test_equality_by_values(self):
        assert Configuration() == Configuration()
        assert Configuration({P.IO_SORT_MB: 200}) != Configuration()

    def test_byte_accessors(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 2048})
        assert cfg.map_memory_bytes == 2048 * 1024 * 1024
        assert cfg.map_heap_bytes == int(2048 * 1024 * 1024 * HEAP_FRACTION)
        assert cfg.sort_buffer_bytes == 100 * 1024 * 1024

    def test_as_dict_roundtrip(self):
        cfg = Configuration({P.IO_SORT_MB: 250})
        again = Configuration(cfg.as_dict())
        assert again == cfg


#: Inputs every parameter must survive besides its own two bounds.
EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan)


def entering_value(spec):
    """Values as they enter a configuration (always through ``float``)."""
    return st.one_of(
        st.sampled_from(EDGE_VALUES + (float(spec.low), float(spec.high))), st.floats()
    )


def typed_items(cfg):
    return [(name, type(value), repr(value)) for name, value in cfg.as_dict().items()]


class TestClampIdempotence:
    """Clamping a stored value again changes nothing, so ``updated`` may skip it."""

    @pytest.mark.parametrize("spec", list(PARAMETER_SPACE), ids=lambda spec: spec.name)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_clamp_is_idempotent(self, spec, data):
        once = spec.clamp(data.draw(entering_value(spec)))
        again = spec.clamp(float(once))
        assert again == once
        assert type(again) is type(once)
        assert repr(again) == repr(once)

    @given(
        values=st.fixed_dictionaries(
            {"custom.app.param": st.integers()},
            optional={spec.name: entering_value(spec) for spec in PARAMETER_SPACE},
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_derived_config_keeps_every_value(self, values):
        cfg = Configuration(values)
        expected = typed_items(cfg)
        assert typed_items(cfg.updated({})) == expected
        # Clamping every stored value again, as rebuilding does, is a no-op.
        assert typed_items(Configuration(cfg.as_dict())) == expected


class TestDependencies:
    def test_sort_buffer_clamped_to_heap(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 512, P.IO_SORT_MB: 1600})
        fixed = enforce_dependencies(cfg)
        max_sort = 512 * HEAP_FRACTION * 0.75
        assert fixed[P.IO_SORT_MB] <= max_sort

    def test_merge_percent_clamped_to_input_buffer(self):
        cfg = Configuration(
            {P.SHUFFLE_INPUT_BUFFER_PERCENT: 0.4, P.SHUFFLE_MERGE_PERCENT: 0.9}
        )
        fixed = enforce_dependencies(cfg)
        assert fixed[P.SHUFFLE_MERGE_PERCENT] <= fixed[P.SHUFFLE_INPUT_BUFFER_PERCENT]

    def test_memory_limit_clamped_to_merge_percent(self):
        cfg = Configuration(
            {P.SHUFFLE_MERGE_PERCENT: 0.3, P.SHUFFLE_MEMORY_LIMIT_PERCENT: 0.7}
        )
        fixed = enforce_dependencies(cfg)
        assert fixed[P.SHUFFLE_MEMORY_LIMIT_PERCENT] <= fixed[P.SHUFFLE_MERGE_PERCENT]

    def test_feasible_config_unchanged(self):
        cfg = Configuration()
        assert is_feasible(cfg)
        assert enforce_dependencies(cfg) == cfg

    def test_enforce_does_not_mutate_input(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 512, P.IO_SORT_MB: 1600})
        enforce_dependencies(cfg)
        assert cfg[P.IO_SORT_MB] == 1600

    @given(
        map_mb=st.integers(512, 4096),
        sort_mb=st.integers(50, 1600),
        ibp=st.floats(0.2, 0.9),
        merge=st.floats(0.2, 0.9),
        limit=st.floats(0.1, 0.7),
    )
    @settings(max_examples=100, deadline=None)
    def test_enforce_is_idempotent_and_feasible(self, map_mb, sort_mb, ibp, merge, limit):
        cfg = Configuration(
            {
                P.MAP_MEMORY_MB: map_mb,
                P.IO_SORT_MB: sort_mb,
                P.SHUFFLE_INPUT_BUFFER_PERCENT: ibp,
                P.SHUFFLE_MERGE_PERCENT: merge,
                P.SHUFFLE_MEMORY_LIMIT_PERCENT: limit,
            }
        )
        once = enforce_dependencies(cfg)
        assert is_feasible(once)
        assert enforce_dependencies(once) == once
