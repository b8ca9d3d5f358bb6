"""The robustness phase: decision latency and P_M under injected faults.

For each canonical fault class — crash-and-recover, a message-loss
burst, a network partition, a slow node, leader churn — the phase takes
the WAN sweep's already-sampled delivery matrices (so it reuses the
trace cache and the parallel engine's work: no new simulation), applies
the class's :class:`~repro.faults.plan.FaultPlan` with
:meth:`FaultPlan.apply_to_matrices`, and re-measures what the paper's
figures measure: per-model ``P_M`` and rounds to global decision.

The output table shows clean versus faulted values side by side — the
degradation each fault class inflicts on each timing model, which is the
experimental form of the paper's question "which model should you
assume?": a model whose ``P_M`` collapses under a realistic fault class
is a bad bet no matter how it scores on a clean network.

Run it through ``python -m repro.experiments --faults`` or directly via
:func:`robustness_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.config import SweepConfig
from repro.experiments.decision import decision_stats_from_vector
from repro.experiments.figures import MEASURED_MODELS, WanSweep, run_wan_sweep
from repro.models.registry import get_model
from repro.faults import (
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.net.ping import measure_latency_table
from repro.net.planetlab import LEADER_NODE, planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.sim.rng import derive_seed
from repro.sim.transport import Transport
from repro.sync.batch import result_divergences
from repro.sync.heartbeat import HeartbeatAlgorithm
from repro.sync.round_sync import SyncRun

#: The timeout the robustness tables are measured at (the sweep grid's
#: canonical mid-range point; the paper's WAN discussion centers there).
CANONICAL_TIMEOUT = 0.21


def canonical_plans(n: int, rounds: int, seed: int) -> dict[str, FaultPlan]:
    """One representative plan per fault class, scaled to ``rounds``.

    Every window sits inside the first two thirds of the trace so the
    post-fault tail is long enough for decision windows to complete.
    """
    third = max(4, rounds // 3)
    return {
        "crash+recover": FaultPlan(
            n=n,
            crashes=(
                Crash(pid=2, at_round=third // 2, recover_round=third),
                Crash(pid=5, at_round=third + third // 2),
            ),
            seed=derive_seed(seed, "faults:crash+recover"),
        ),
        "loss burst": FaultPlan(
            n=n,
            loss_bursts=(
                LossBurst(third // 2, third // 2 + 3, drop_prob=0.95),
                LossBurst(third, third + 1, drop_prob=1.0),
            ),
            seed=derive_seed(seed, "faults:loss-burst"),
        ),
        "partition": FaultPlan(
            n=n,
            partitions=(
                Partition(
                    groups=(
                        tuple(range(n // 2)),
                        tuple(range(n // 2, n)),
                    ),
                    start_round=third // 2,
                    heal_round=third,
                ),
            ),
            seed=derive_seed(seed, "faults:partition"),
        ),
        "slow node": FaultPlan(
            n=n,
            slow_nodes=(
                SlowNode(
                    pid=n - 1,
                    start_round=1,
                    end_round=2 * third,
                    drop_prob=0.7,
                ),
            ),
            seed=derive_seed(seed, "faults:slow-node"),
        ),
        "leader churn": FaultPlan(
            n=n,
            leader_churn=(LeaderChurn(1, 2 * third),),
            seed=derive_seed(seed, "faults:leader-churn"),
        ),
    }


@dataclass(frozen=True)
class RobustnessCell:
    """Clean-versus-faulted measurements for one (fault, model) pair."""

    fault: str
    model: str
    pm_clean: float
    pm_faulted: float
    rounds_clean: float
    rounds_faulted: float

    @property
    def latency_degradation(self) -> float:
        """Faulted over clean decision rounds (nan if either is censored)."""
        if not np.isfinite(self.rounds_clean) or self.rounds_clean <= 0:
            return float("nan")
        return self.rounds_faulted / self.rounds_clean


def _satisfaction(
    matrices: np.ndarray,
    model: str,
    leader: Optional[int],
    plan: Optional[FaultPlan],
) -> np.ndarray:
    """Per-round model satisfaction, against the round's *acting* leader.

    Leader churn never touches the wire, so its whole measured effect is
    that churn rounds are judged against whichever leader the plan's
    oracle elected that round instead of the designated one.  Permanent
    crashes shrink the correct set the model predicates quantify over
    (the paper's models count links *from correct processes*).
    """
    resolved = get_model(model)
    correct = None
    if plan is not None and len(plan.correct()) < plan.n:
        correct = sorted(plan.correct())
    if (
        plan is None
        or not resolved.needs_leader
        or not plan.leader_churn
    ):
        return resolved.satisfied_batch(
            np.asarray(matrices), leader=leader, correct=correct
        )
    # Judge each round against its acting leader: one batch pass per
    # distinct leader instead of one scalar predicate call per round.
    matrices = np.asarray(matrices)
    acting = plan.compiled.acting_leaders(len(matrices), leader)
    satisfied = np.empty(len(matrices), dtype=bool)
    for value in np.unique(acting):
        rounds = acting == value
        satisfied[rounds] = resolved.satisfied_batch(
            matrices[rounds], leader=int(value), correct=correct
        )
    return satisfied


def _mean_decision_rounds(
    vectors_by_run: Sequence[np.ndarray],
    model: str,
    timeout: float,
    start_points: int,
    seed: int,
) -> float:
    """Mean measured rounds to global decision across runs (nan if every
    start point of every run was censored)."""
    window = get_model(model).decision_rounds
    means = []
    for index, satisfied in enumerate(vectors_by_run):
        stats = decision_stats_from_vector(
            satisfied,
            window,
            round_length=timeout,
            start_points=start_points,
            rng=np.random.default_rng(
                derive_seed(seed, f"faults:decision:{model}:{index}")
            ),
        )
        if np.isfinite(stats.mean_rounds):
            means.append(stats.mean_rounds)
    return float(np.mean(means)) if means else float("nan")


def measure_robustness(
    sweep: WanSweep,
    seed: int = 0,
    timeout: Optional[float] = None,
    plans: Optional[dict[str, FaultPlan]] = None,
) -> list[RobustnessCell]:
    """Clean-versus-faulted P_M and decision latency per (fault, model)."""
    config = sweep.config
    if timeout is None:
        timeout = min(
            config.timeouts, key=lambda t: abs(t - CANONICAL_TIMEOUT)
        )
    runs = sweep.runs[timeout]
    clean = [run.matrices for run in runs]
    if plans is None:
        plans = canonical_plans(config.n, config.rounds_per_run, seed)

    def leader_for(model: str) -> Optional[int]:
        return sweep.leader if model in ("LM", "WLM") else None

    def vectors(
        matrices_by_run: Sequence[np.ndarray],
        model: str,
        plan: Optional[FaultPlan],
    ) -> list[np.ndarray]:
        return [
            _satisfaction(m, model, leader_for(model), plan)
            for m in matrices_by_run
        ]

    def summarize(vecs: Sequence[np.ndarray], model: str) -> tuple[float, float]:
        pm = float(np.mean([vec.mean() for vec in vecs]))
        rounds = _mean_decision_rounds(
            vecs, model, timeout, config.start_points, seed
        )
        return pm, rounds

    clean_summary = {
        model: summarize(vectors(clean, model, None), model)
        for model in MEASURED_MODELS
    }

    cells: list[RobustnessCell] = []
    for fault_name, plan in plans.items():
        faulted = [plan.apply_to_matrices(matrices) for matrices in clean]
        for model in MEASURED_MODELS:
            pm_clean, rounds_clean = clean_summary[model]
            pm_faulted, rounds_faulted = summarize(
                vectors(faulted, model, plan), model
            )
            cells.append(
                RobustnessCell(
                    fault=fault_name,
                    model=model,
                    pm_clean=pm_clean,
                    pm_faulted=pm_faulted,
                    rounds_clean=rounds_clean,
                    rounds_faulted=rounds_faulted,
                )
            )
    return cells


def render_robustness(
    cells: Sequence[RobustnessCell], timeout: float
) -> str:
    """The robustness table, in the benchmarks' plain-text style."""
    title = (
        f"Fault robustness at timeout {timeout * 1000:.0f} ms "
        f"(P_M and rounds to decision, clean -> faulted)"
    )
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'fault class':<16}{'model':<7}{'P_M clean':>10}{'P_M fault':>10}"
        f"{'D clean':>10}{'D fault':>10}{'D ratio':>9}"
    )
    for cell in cells:
        ratio = cell.latency_degradation
        lines.append(
            f"{cell.fault:<16}{cell.model:<7}"
            f"{cell.pm_clean:>10.3f}{cell.pm_faulted:>10.3f}"
            f"{cell.rounds_clean:>10.2f}{cell.rounds_faulted:>10.2f}"
            + (f"{ratio:>9.2f}" if np.isfinite(ratio) else f"{'-':>9}")
        )
    lines.append(
        "notes: faulted matrices are the sweep's cached traces with each "
        "fault class's FaultPlan mask applied; '-' = censored (no decision "
        "window inside the trace)."
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class EventStackRow:
    """One fault class pushed through the event stack both ways."""

    fault: str
    executed_mode: str
    fallback_reason: Optional[str]
    identical: bool


def _comparable_counters(metrics: MetricsRegistry) -> dict:
    return {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if not key.startswith("sync.executed_mode")
        and not key.startswith("sync.batch_fallback")
    }


def event_stack_crosscheck(
    n: int,
    rounds: int,
    timeout: float,
    seed: int = 0,
    plans: Optional[dict[str, FaultPlan]] = None,
) -> list[EventStackRow]:
    """Run each canonical fault class through :class:`SyncRun` twice —
    auto mode (batched where eligible) and forced scalar — on a static
    WAN profile with live metrics and the HeartbeatOmega detector, and
    record the executed mode plus whether the artifacts are identical.

    This is the robustness phase's half of the widened fast path's
    contract: fault classes the batch path claims (loss bursts,
    partitions, slow nodes, permanent crashes, leader churn) must ride
    it bit-identically; the residual classes (crash *recovery*) must
    fall back with an attributed reason.
    """
    if plans is None:
        plans = canonical_plans(n, rounds, seed)
    profile_seed = derive_seed(seed, "faults:event-stack:profile")
    table = measure_latency_table(
        planetlab_profile(
            seed=derive_seed(seed, "faults:event-stack:ping"),
            slow_run_prob=0.0,
        ),
        pings=15,
    )

    def build(plan: FaultPlan) -> tuple[SyncRun, MetricsRegistry]:
        metrics = MetricsRegistry()
        run = SyncRun(
            n,
            lambda pid: HeartbeatAlgorithm(pid, n),
            HeartbeatOmega(n, metrics=metrics),
            lambda sim: Transport(
                sim,
                planetlab_profile(seed=profile_seed, slow_run_prob=0.0),
                metrics=metrics,
            ),
            timeout=timeout,
            latency_table=table,
            max_rounds=rounds,
            fault_plan=plan,
            metrics=metrics,
        )
        return run, metrics

    rows = []
    for fault_name, plan in plans.items():
        auto_run, auto_metrics = build(plan)
        auto_result = auto_run.run()
        scalar_run, scalar_metrics = build(plan)
        scalar_result = scalar_run.run(mode="scalar")
        identical = (
            result_divergences(scalar_result, auto_result) == []
            and all(
                a.round_starts == b.round_starts
                and a.round_ends == b.round_ends
                and a.timely_receipts == b.timely_receipts
                and a.crashed_permanently == b.crashed_permanently
                for a, b in zip(scalar_run.nodes, auto_run.nodes)
            )
            and _comparable_counters(scalar_metrics)
            == _comparable_counters(auto_metrics)
        )
        rows.append(
            EventStackRow(
                fault=fault_name,
                executed_mode=auto_run.executed_mode,
                fallback_reason=auto_run.fallback_reason,
                identical=identical,
            )
        )
    return rows


def render_event_stack(
    rows: Sequence[EventStackRow], rounds: int, timeout: float
) -> str:
    """The executed-mode distribution table for the report's tail."""
    title = (
        f"Event-stack cross-check ({rounds} rounds at "
        f"{timeout * 1000:.0f} ms, live metrics + HeartbeatOmega): "
        "auto vs forced-scalar SyncRun"
    )
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'fault class':<16}{'executed mode':<15}{'identical':<11}"
        "fallback reason"
    )
    for row in rows:
        lines.append(
            f"{row.fault:<16}{row.executed_mode:<15}"
            f"{'yes' if row.identical else 'NO':<11}"
            f"{row.fallback_reason or '-'}"
        )
    modes = [row.executed_mode for row in rows]
    lines.append(
        f"executed modes: {modes.count('batch')} batch / "
        f"{modes.count('scalar')} scalar; artifacts identical on "
        f"{sum(row.identical for row in rows)}/{len(rows)} fault classes"
    )
    return "\n".join(lines)


def robustness_report(
    sweep: Optional[WanSweep] = None,
    config: Optional[SweepConfig] = None,
    seed: int = 0,
) -> str:
    """Measure and render the robustness phase (building the sweep only
    if the caller has none to share)."""
    if sweep is None:
        sweep = run_wan_sweep(config) if config is not None else run_wan_sweep()
    timeout = min(
        sweep.config.timeouts, key=lambda t: abs(t - CANONICAL_TIMEOUT)
    )
    cells = measure_robustness(sweep, seed=seed, timeout=timeout)
    stack_rows = event_stack_crosscheck(
        sweep.config.n, sweep.config.rounds_per_run, timeout, seed=seed
    )
    return (
        render_robustness(cells, timeout)
        + "\n\n"
        + render_event_stack(
            stack_rows, sweep.config.rounds_per_run, timeout
        )
    )
