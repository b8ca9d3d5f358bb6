"""Unit tests for the on-disk trace cache."""

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments import measurement
from repro.experiments.cache import TraceCache, cached_trace, trace_key


@pytest.fixture(autouse=True)
def no_global_cache():
    """Keep the process-wide cache state clean across tests."""
    cache_module.deactivate()
    yield
    cache_module.deactivate()


class TestTraceKey:
    def test_deterministic(self):
        assert trace_key("wan", 8, 100, 0.2, 7) == trace_key("wan", 8, 100, 0.2, 7)

    def test_sensitive_to_every_parameter(self):
        base = trace_key("wan", 8, 100, 0.2, 7)
        assert trace_key("lan", 8, 100, 0.2, 7) != base
        assert trace_key("wan", 9, 100, 0.2, 7) != base
        assert trace_key("wan", 8, 101, 0.2, 7) != base
        assert trace_key("wan", 8, 100, 0.21, 7) != base
        assert trace_key("wan", 8, 100, 0.2, 8) != base

    def test_round_length_uses_full_precision(self):
        # repr, not a formatted float: nearby timeouts must not collide.
        assert trace_key("wan", 8, 100, 0.1, 7) != trace_key(
            "wan", 8, 100, 0.1 + 1e-12, 7
        )

    def test_sampler_version_is_part_of_the_key(self, monkeypatch):
        # Bumping TRACE_SAMPLER_VERSION must orphan entries produced by
        # the older sampler (e.g. the pre-batch per-round draw order).
        base = trace_key("wan", 8, 100, 0.2, 7)
        monkeypatch.setattr(measurement, "TRACE_SAMPLER_VERSION", "future99")
        assert trace_key("wan", 8, 100, 0.2, 7) != base


class TestTraceCache:
    def test_store_load_roundtrip_is_bit_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = measurement.sample_wan_trace(5, 0.2, seed=3)
        cache.store("wan", "k", trace)
        loaded = cache.load("wan", "k")
        assert loaded.dtype == trace.dtype
        assert np.array_equal(loaded, trace)

    def test_load_missing_returns_none_and_counts_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load("wan", "absent") is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_zero_byte_file_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.path("wan", "empty")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert cache.load("wan", "empty") is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_entries_counts_stored_traces(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.entries() == 0
        cache.store("wan", "a", np.zeros((1, 2, 2)))
        cache.store("lan", "b", np.zeros((1, 2, 2)))
        assert cache.entries() == 2

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("wan", "a", np.zeros((1, 2, 2)))
        assert list(tmp_path.glob("**/*.tmp")) == []


class TestCachedTrace:
    def test_without_cache_delegates_to_sampler(self, monkeypatch):
        calls = []
        real = measurement.sample_wan_trace

        def spy(rounds, round_length, seed):
            calls.append(seed)
            return real(rounds, round_length, seed)

        monkeypatch.setattr(measurement, "sample_wan_trace", spy)
        cached_trace("wan", 8, 5, 0.2, seed=1)
        cached_trace("wan", 8, 5, 0.2, seed=1)
        assert calls == [1, 1]  # no cache: sampled every time

    def test_second_call_hits_cache_with_zero_resimulation(
        self, tmp_path, monkeypatch
    ):
        cache = TraceCache(tmp_path)
        calls = []
        real = measurement.sample_wan_trace

        def spy(rounds, round_length, seed):
            calls.append(seed)
            return real(rounds, round_length, seed)

        monkeypatch.setattr(measurement, "sample_wan_trace", spy)
        first = cached_trace("wan", 8, 5, 0.2, seed=1, cache=cache)
        second = cached_trace("wan", 8, 5, 0.2, seed=1, cache=cache)
        assert calls == [1]
        assert np.array_equal(first, second)

    def test_uses_process_wide_cache_when_activated(self, tmp_path):
        cache_module.activate(tmp_path)
        cached_trace("lan", 8, 4, 0.001, seed=2)
        active = cache_module.active_cache()
        assert active is not None
        assert active.entries() == 1

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            cached_trace("martian", 8, 5, 0.2, seed=1)

    def test_mismatched_n_rejected(self, tmp_path):
        """Regression: ``n`` is hashed into the key but the profile
        samplers draw their own fixed node count, so ``n=9`` used to
        mint a distinct cache entry silently holding an 8-node trace."""
        cache = TraceCache(tmp_path)
        with pytest.raises(ValueError, match="n=9"):
            cached_trace("wan", 9, 5, 0.2, seed=1, cache=cache)
        assert cache.entries() == 0  # nothing mislabeled was stored
        # No cache in the loop: still rejected.
        with pytest.raises(ValueError, match="n=9"):
            cached_trace("lan", 9, 5, 0.001, seed=1)
        # The profile's true size passes, both cold and warm.
        cold = cached_trace("wan", 8, 5, 0.2, seed=1, cache=cache)
        warm = cached_trace("wan", 8, 5, 0.2, seed=1, cache=cache)
        assert np.array_equal(cold, warm)


class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        from repro.experiments.cache import content_key

        assert content_key("job", "v1", a=1, b=2.5) == content_key(
            "job", "v1", b=2.5, a=1
        )

    def test_sensitive_to_kind_version_and_every_param(self):
        from repro.experiments.cache import content_key

        base = content_key("job", "v1", a=1, b=2.5)
        assert content_key("other", "v1", a=1, b=2.5) != base
        assert content_key("job", "v2", a=1, b=2.5) != base
        assert content_key("job", "v1", a=2, b=2.5) != base
        assert content_key("job", "v1", a=1, b=2.5 + 1e-12) != base
