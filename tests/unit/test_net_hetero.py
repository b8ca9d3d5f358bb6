"""Unit tests for the heterogeneous network model."""

import numpy as np
import pytest

from repro.net import base
from repro.net.hetero import HeterogeneousNetwork, SlowWindows


def tiny_network(**overrides):
    n = 4
    base = np.full((n, n), 0.05)
    np.fill_diagonal(base, 0.0)
    defaults = dict(
        base=base,
        sigma=np.zeros((n, n)),
        tail_prob=np.zeros((n, n)),
        loss_prob=None,
        slow_nodes=None,
        seed=3,
    )
    defaults.update(overrides)
    return HeterogeneousNetwork(**defaults)


class TestHeterogeneousNetwork:
    def test_zero_jitter_returns_base(self):
        net = tiny_network()
        assert net.sample_latency(0, 1, 0.0) == pytest.approx(0.05)

    def test_matrix_orientation_dst_src(self):
        base = np.full((4, 4), 0.05)
        np.fill_diagonal(base, 0.0)
        base[2, 1] = 0.5  # the 1 -> 2 link is slow
        net = tiny_network(base=base)
        assert net.sample_latency(1, 2, 0.0) == pytest.approx(0.5)
        assert net.sample_latency(2, 1, 0.0) == pytest.approx(0.05)
        lat = net.sample_round_latencies(0.0)
        assert lat[2, 1] == pytest.approx(0.5)
        assert lat[1, 2] == pytest.approx(0.05)

    def test_round_matrix_diagonal_zero(self):
        lat = tiny_network().sample_round_latencies(0.0)
        assert (np.diagonal(lat) == 0.0).all()

    def test_loss_becomes_inf_in_matrix(self):
        net = tiny_network(loss_prob=np.full((4, 4), 1.0))
        lat = net.sample_round_latencies(0.0)
        off = ~np.eye(4, dtype=bool)
        assert np.isinf(lat[off]).all()

    def test_loss_becomes_none_single_message(self):
        net = tiny_network(loss_prob=np.full((4, 4), 1.0))
        assert net.sample_latency(0, 1, 0.0) is None

    def test_slow_windows_inflate_incoming_rows(self):
        slow = {2: SlowWindows(factor=10.0, period=10.0, duty=0.5)}
        net = tiny_network(slow_nodes=slow)
        in_window = net.sample_round_latencies(1.0)
        out_window = net.sample_round_latencies(7.0)
        assert in_window[2, 0] == pytest.approx(0.5)  # inflated incoming
        assert in_window[0, 2] == pytest.approx(0.05)  # outgoing untouched
        assert out_window[2, 0] == pytest.approx(0.05)

    def test_tail_probability_matrix_respected(self):
        tails = np.zeros((4, 4))
        tails[1, 0] = 1.0  # only the 0 -> 1 link has excursions
        net = tiny_network(tail_prob=tails)
        lat = net.sample_round_latencies(0.0)
        assert lat[1, 0] > 0.05
        assert lat[0, 1] == pytest.approx(0.05)

    def test_statistical_reproducibility_by_seed(self):
        sigma = np.full((4, 4), 0.2)
        a = tiny_network(sigma=sigma, seed=42).sample_round_latencies(0.0)
        b = tiny_network(sigma=sigma, seed=42).sample_round_latencies(0.0)
        assert np.allclose(a, b)

    def test_mean_rtt_symmetric_for_symmetric_base(self):
        net = tiny_network()
        rtt = net.mean_rtt()
        assert np.allclose(rtt, rtt.T)

    def test_nonpositive_base_rejected(self):
        base = np.zeros((3, 3))
        with pytest.raises(ValueError):
            HeterogeneousNetwork(
                base=base, sigma=0.1, tail_prob=0.0
            )

    def test_reseed_changes_stream(self):
        sigma = np.full((4, 4), 0.2)
        net = tiny_network(sigma=sigma, seed=1)
        first = net.sample_round_latencies(0.0)
        net.reseed(2)
        second = net.sample_round_latencies(0.0)
        assert not np.allclose(first, second)


class TestLinkStateCache:
    """The process-wide cache of link substream states stays bounded:
    a sweep derives a fresh seed for every run and never hits it, so an
    unbounded cache grows by n * (n - 1) states per run for the life of
    the process."""

    def test_distinct_seeds_cannot_grow_it_past_its_bound(self):
        base._link_state.cache_clear()
        links = 4 * 3
        for seed in range(base.LINK_STATE_CACHE_SIZE // links + 2):
            net = tiny_network(seed=seed)
            for src in range(4):
                for dst in range(4):
                    if src != dst:
                        net.link_stream(src, dst)
        info = base._link_state.cache_info()
        assert info.misses > base.LINK_STATE_CACHE_SIZE
        assert info.currsize <= base.LINK_STATE_CACHE_SIZE

    def test_repeated_models_of_one_seed_reuse_it(self):
        base._link_state.cache_clear()
        first = tiny_network(seed=11).link_stream(0, 1).random(4)
        second = tiny_network(seed=11).link_stream(0, 1).random(4)
        assert np.array_equal(first, second)
        assert base._link_state.cache_info().hits == 1
