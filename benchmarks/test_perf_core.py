"""Performance microbenchmarks of the core machinery.

Unlike the figure/table benchmarks (which run once and assert shapes),
these time the hot paths with pytest-benchmark's full repetition
machinery: lockstep consensus rounds, model predicates, matrix sampling,
the closed forms, and the scalar round-sync event loop.  They guard against performance regressions that
would make the paper-scale sweeps impractical.
"""

import numpy as np

from repro.analysis.equations import expected_decision_rounds
from repro.core import WlmConsensus
from repro.experiments.robustness import event_stack_builder
from repro.faults.plan import Crash, FaultPlan, LossBurst, SlowNode
from repro.giraf import FixedLeaderOracle, IIDSchedule, LockstepRunner, StableAfterSchedule
from repro.models import get_model
from repro.net.planetlab import PlanetLabProfile


def test_perf_wlm_consensus_run(benchmark):
    """One full Algorithm 2 execution (n=8, chaos then stability)."""
    n = 8

    def run():
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.4, seed=7), gsr=5, model="WLM", leader=0
        )
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, pid),
            FixedLeaderOracle(0),
            schedule,
        )
        return runner.run(max_rounds=30)

    result = benchmark(run)
    assert result.all_correct_decided


def test_perf_model_predicates(benchmark):
    """All four predicates over a batch of 100 random matrices."""
    rng = np.random.default_rng(3)
    matrices = rng.random((100, 8, 8)) < 0.9
    for m in matrices:
        np.fill_diagonal(m, True)
    models = [get_model(name) for name in ("ES", "LM", "WLM", "AFM")]

    def evaluate():
        count = 0
        for matrix in matrices:
            for model in models:
                leader = 0 if model.needs_leader else None
                if model.satisfied(matrix, leader=leader):
                    count += 1
        return count

    count = benchmark(evaluate)
    assert 0 < count < 400


def test_perf_wan_round_sampling(benchmark):
    """Vectorized sampling of 100 WAN rounds (the sweeps' inner loop)."""
    profile = PlanetLabProfile(seed=5)

    def sample():
        return [profile.sample_round_latencies(k * 0.2) for k in range(100)]

    rounds = benchmark(sample)
    assert len(rounds) == 100


def test_perf_closed_forms(benchmark):
    """E(D_M) for all models over a 200-point p grid."""
    grid = np.linspace(0.9, 0.999, 200)

    def evaluate():
        return {
            model: expected_decision_rounds(grid, 8, model)
            for model in ("ES", "LM", "WLM", "WLM_SIM", "AFM")
        }

    curves = benchmark(evaluate)
    assert all(len(v) == 200 for v in curves.values())


def test_perf_scalar_round_sync(benchmark):
    """One forced-scalar round-sync run (n=8, 120 rounds, static WAN) with
    HeartbeatOmega, live metrics and a fault plan: the event heap, the
    transport's link streams and per-message fault lookups, the O(1)
    stop check and the per-round detector updates — the loop the
    robustness cross-check spends its time in."""
    n = 8
    plan = FaultPlan(
        n=n,
        crashes=(Crash(pid=2, at_round=20, recover_round=40),),
        loss_bursts=(LossBurst(start_round=50, end_round=60, drop_prob=0.6),),
        slow_nodes=(
            SlowNode(pid=n - 1, start_round=70, end_round=90, factor=3.0),
        ),
        seed=11,
    )
    build = event_stack_builder(n, rounds=120, timeout=0.21, seed=7)

    def run():
        sync_run, _ = build(plan)
        return sync_run.run(mode="scalar")

    result = benchmark(run)
    assert len(result.matrices) == 120
    assert result.jumps[2] >= 1  # the recovered node rejoined by jumping
