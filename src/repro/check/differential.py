"""Differential validation: one scenario, two stacks, diffed observables.

The repo computes every headline quantity twice — once on the idealized
synchronized-window path (sampled latency trace, ``timely_matrices``,
batch model predicates) and once through the event-driven protocol stack
(:class:`~repro.sync.round_sync.SyncRun` over the simulated transport).
The figures lean on the idealization; Section 5.1's protocol is what
justifies it.  This module makes that justification executable: drive
one ``(network profile, FaultPlan, seed)`` scenario through both stacks
and diff what comes out —

- the measured timely fraction ``p``,
- ``P_M`` for each timing model (ES, AFM, ◊LM, ◊WLM),
- the measured decision rounds ``D_WLM``,
- the round-synchronization error (event path against the idealization's
  implicit zero),

each within a stated tolerance, while :mod:`repro.check.invariants`
checkers ride along on consensus runs through both stacks.  A separate
cross-check pits the Monte-Carlo estimators against the Section 4
closed forms on a grid of ``p`` values.

Tolerances are deliberately loose statistical bounds, not equality: the
two stacks share a latency trace seed but cut rounds differently (local
timers, jumps, shortened joins), so their matrices agree in distribution,
not bit-for-bit.  The bands follow the precedents of
``tests/integration/test_sync_vs_matrix.py``, widened where fault plans
add variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis import equations
from repro.analysis.montecarlo import estimate_p_model
from repro.check.invariants import RunView, Violation, default_suite
from repro.check.mutation import agreement_violation_run
from repro.core.wlm import WlmConsensus
from repro.experiments.decision import decision_stats_from_vector
from repro.experiments.measurement import (
    model_satisfaction,
    sample_latency_trace,
    satisfaction_vector,
    timely_matrices,
)
from repro.faults.adversary import StabilityWindowAdversary
from repro.faults.lockstep import inject_lockstep
from repro.faults.plan import Crash, FaultPlan, LossBurst, Partition, SlowNode
from repro.giraf.oracle import FixedLeaderOracle, NullOracle, Oracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import MatrixSchedule
from repro.models.registry import get_model
from repro.net.base import LatencyModel
from repro.net.granular import GranularProfile
from repro.net.hetero import HeterogeneousNetwork
from repro.net.lan import lan_profile
from repro.net.ping import measure_latency_table, select_leader
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.sim.rng import derive_seed
from repro.sim.transport import Transport
from repro.sync.batch import RESULT_FIELDS, result_divergences
from repro.sync.heartbeat import HeartbeatAlgorithm
from repro.sync.round_sync import SyncRun

#: The models whose ``P_M`` both stacks must agree on.  GS is the
#: post-paper Granular Synchrony model (canonical hub-based assumption
#: matrix); its closed form is exact, like ES's.
DIFF_MODELS = ("ES", "AFM", "LM", "WLM", "GS")

#: Warm-up rounds excluded from the statistics on both paths (start
#: effects: staggered first rounds, empty inboxes), matching the ``[5:]``
#: slice of the sync-vs-matrix integration tests.
WARMUP_ROUNDS = 5

#: Tolerance on the measured timely fraction ``p`` (the integration test
#: uses 0.06 for the clean WAN case; fault plans add alignment noise).
P_TOLERANCE = 0.10

#: Tolerance on a per-model ``P_M`` (integration precedent: 0.22).
PM_TOLERANCE = 0.25

#: Tolerance on the event path's mean round-sync error, as a fraction of
#: the timeout.  Jump-shortened rounds legitimately start early by up to
#: ``timeout - L_i[src]``, so a fraction of the timeout is the natural
#: unit; 0 would only hold for perfectly synchronized starts.
SYNC_TOLERANCE = 0.6


@dataclass(frozen=True)
class DiffRow:
    """One diffed observable: a value from each stack plus the tolerance.

    ``kind`` is ``"abs"`` (agree within ``tolerance``) or
    ``"lower-bound"`` (``event >= lockstep - tolerance`` — used where the
    reference value is a provable lower bound, e.g. equation (9) for
    AFM).  Two NaNs agree (both sides censored); a single NaN is a
    disagreement.
    """

    quantity: str
    lockstep: float
    event: float
    tolerance: float
    kind: str = "abs"

    @property
    def delta(self) -> float:
        return self.event - self.lockstep

    @property
    def ok(self) -> bool:
        lock_nan = math.isnan(self.lockstep)
        event_nan = math.isnan(self.event)
        if lock_nan or event_nan:
            return lock_nan and event_nan
        if self.kind == "lower-bound":
            return self.event >= self.lockstep - self.tolerance
        return abs(self.event - self.lockstep) <= self.tolerance


@dataclass
class DifferentialResult:
    """Everything one differential scenario produced."""

    profile: str
    fault: str
    timeout: float
    rounds: int
    seed: int
    leader: int
    rows: list[DiffRow] = field(default_factory=list)
    #: ``(stack, violation)`` pairs from the consensus safety runs, where
    #: ``stack`` is ``"lockstep"`` or ``"event"``.
    violations: list[tuple[str, Violation]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows) and not self.violations


def canonical_diff_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard transient-fault scenario of the conformance runs.

    Recoverable crash, loss burst, degraded node — spread over the middle
    of the run, all transient, so ``correct()`` stays everyone and both
    stacks keep their round counts aligned (a permanent crash would make
    the event path's observation window a per-scenario quantity).
    """
    if rounds < 40:
        raise ValueError("the canonical plan needs at least 40 rounds")
    third = max(8, rounds // 3)
    return FaultPlan(
        n=n,
        crashes=(Crash(pid=min(2, n - 1), at_round=third, recover_round=third + 4),),
        loss_bursts=(LossBurst(start_round=third + 8, end_round=third + 10, drop_prob=0.9),),
        slow_nodes=(
            SlowNode(
                pid=n - 1,
                start_round=third + 14,
                end_round=third + 18,
                factor=3.0,
                drop_prob=0.5,
            ),
        ),
        seed=derive_seed(seed, "check:canonical-plan"),
    )


def canonical_adversary_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard eventually-stabilizing-adversary scenario.

    GSR sits at a third of the run: the first third grants only short
    vertex-stable root-component windows (full suppression in between),
    the remaining two thirds are clean — long enough for the decision
    statistics of both stacks to stabilize.  Batch-eligible by
    construction (loss bursts and partitions only).
    """
    if rounds < 60:
        raise ValueError("the canonical adversary plan needs at least 60 rounds")
    return StabilityWindowAdversary(
        n=n,
        gsr_round=max(17, rounds // 3),
        window_length=3,
        window_period=8,
        seed=derive_seed(seed, "check:adversary"),
    ).to_plan()


def _consensus_safety(
    n: int,
    leader: int,
    ideal_matrices: np.ndarray,
    profile_factory: Callable[..., LatencyModel],
    table: np.ndarray,
    timeout: float,
    rounds: int,
    seed: int,
    name: str,
    plan: Optional[FaultPlan],
    metrics: Optional[MetricsRegistry],
) -> list[tuple[str, Violation]]:
    """Run Algorithm 2 through both stacks with the safety checkers on.

    The lockstep side replays the scenario's *unfaulted* idealized
    matrices through :func:`inject_lockstep` (so the plan perturbs it the
    canonical way); the event side runs the full protocol with the plan
    installed on the wire.  Neither run is required to decide — safety
    invariants are unconditional — but on these profiles they normally
    do, which is what makes the check non-vacuous.
    """

    def factory(pid: int) -> WlmConsensus:
        return WlmConsensus(pid, n, f"value-{pid}")

    violations: list[tuple[str, Violation]] = []

    lock_suite = default_suite(metrics=metrics)
    base = MatrixSchedule([np.array(m) for m in ideal_matrices])
    oracle: Oracle = FixedLeaderOracle(leader)
    if plan is not None:
        schedule, oracle, crash_plan = inject_lockstep(plan, base, oracle)
    else:
        schedule, crash_plan = base, None
    runner = LockstepRunner(
        n, factory, oracle, schedule, crash_plan=crash_plan,
        observers=[lock_suite],
    )
    lock_run = runner.run(
        max_rounds=rounds,
        stop_on_global_decision=True,
        extra_rounds_after_decision=2,
    )
    lock_suite.finish(RunView.from_lockstep(lock_run))
    violations.extend(("lockstep", v) for v in lock_suite.violations)

    event_suite = default_suite(metrics=metrics)
    profile = profile_factory(seed=derive_seed(seed, f"check:{name}:consensus"))
    sync = SyncRun(
        n,
        factory,
        FixedLeaderOracle(leader),
        lambda sim: Transport(sim, profile),
        timeout=timeout,
        latency_table=table,
        max_rounds=rounds,
        fault_plan=plan,
        metrics=metrics,
        observers=[event_suite],
    )
    event_suite.finish(RunView.from_sync(sync.run()))
    violations.extend(("event", v) for v in event_suite.violations)
    return violations


def differential_run(
    profile_name: str,
    profile_factory: Callable[..., LatencyModel],
    timeout: float,
    rounds: int = 120,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    start_points: int = 12,
    metrics: Optional[MetricsRegistry] = None,
    fault_name: Optional[str] = None,
) -> DifferentialResult:
    """Drive one scenario through both stacks and diff the observables.

    ``profile_factory`` must accept a ``seed`` keyword and return a
    :class:`~repro.net.base.LatencyModel`; both stacks consume the *same*
    trace seed (the event transport draws per-link substreams from it,
    the lockstep path samples the batch trace), so differences reflect
    the round-cutting protocol, not different networks.
    """
    ping_model = profile_factory(seed=derive_seed(seed, f"check:{profile_name}:ping"))
    n = ping_model.n
    table = measure_latency_table(ping_model, pings=15)
    leader = select_leader(table)
    trace_seed = derive_seed(seed, f"check:{profile_name}:trace")

    # Event path: the heartbeat probe stream through the real protocol.
    sync = SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        NullOracle(),
        lambda sim: Transport(sim, profile_factory(seed=trace_seed)),
        timeout=timeout,
        latency_table=table,
        max_rounds=rounds,
        fault_plan=plan,
        metrics=metrics,
    )
    event_result = sync.run()

    # Lockstep path: same trace seed, synchronized windows, plan masks.
    trace = sample_latency_trace(profile_factory(seed=trace_seed), rounds, timeout)
    ideal = timely_matrices(trace, timeout)
    faulted = plan.apply_to_matrices(ideal) if plan is not None else ideal

    depth = min(len(event_result.matrices), len(faulted))
    if depth <= WARMUP_ROUNDS + 20:
        raise ValueError(
            f"scenario too short to compare: only {depth} common rounds"
        )
    lock_m = np.asarray(faulted[WARMUP_ROUNDS:depth])
    event_m = np.asarray(event_result.matrices[WARMUP_ROUNDS:depth])

    rows: list[DiffRow] = []
    off_diag = ~np.eye(n, dtype=bool)
    rows.append(
        DiffRow(
            "measured p",
            float(lock_m[:, off_diag].mean()),
            float(event_m[:, off_diag].mean()),
            P_TOLERANCE,
        )
    )
    for model_name in DIFF_MODELS:
        model = get_model(model_name)
        model_leader = leader if model.needs_leader else None
        rows.append(
            DiffRow(
                f"P_{model_name}",
                model_satisfaction(lock_m, model, leader=model_leader),
                model_satisfaction(event_m, model, leader=model_leader),
                PM_TOLERANCE,
            )
        )

    # Measured decision rounds for the headline model (◊WLM, window 4).
    # The comparison is paired: both stacks measure from the same start
    # rounds, drawn from one generator keyed by the scenario.  Unpaired
    # starts could put one stack's samples in the adversary's pre-GSR
    # rounds and the other's after them, so the row would measure
    # sampling, not protocol.
    if fault_name is None:
        fault_name = "canonical" if plan is not None else "none"
    decision_seed = derive_seed(
        seed, f"check:{profile_name}:{fault_name}:decision"
    )
    window = equations.DECISION_ROUNDS["WLM"]
    lock_stats, event_stats = (
        decision_stats_from_vector(
            satisfaction_vector(matrices, "WLM", leader=leader),
            window=window,
            round_length=timeout,
            start_points=start_points,
            rng=np.random.default_rng(decision_seed),
        )
        for matrices in (lock_m, event_m)
    )
    lock_mean = lock_stats.mean_rounds
    d_tolerance = 6.0 if math.isnan(lock_mean) else max(6.0, 0.8 * lock_mean)
    rows.append(
        DiffRow("D_WLM rounds", lock_mean, event_stats.mean_rounds, d_tolerance)
    )

    # Round synchronization: the idealization assumes perfectly aligned
    # windows; the protocol must stay within a fraction of the timeout.
    errors = np.asarray(event_result.sync_error[WARMUP_ROUNDS:depth], dtype=float)
    finite = errors[~np.isnan(errors)]
    sync_ratio = float(finite.mean() / timeout) if finite.size else float("nan")
    rows.append(DiffRow("sync error / timeout", 0.0, sync_ratio, SYNC_TOLERANCE))

    violations = _consensus_safety(
        n=n,
        leader=leader,
        ideal_matrices=ideal,
        profile_factory=profile_factory,
        table=table,
        timeout=timeout,
        rounds=rounds,
        seed=seed,
        name=profile_name,
        plan=plan,
        metrics=metrics,
    )

    return DifferentialResult(
        profile=profile_name,
        fault=fault_name,
        timeout=timeout,
        rounds=rounds,
        seed=seed,
        leader=leader,
        rows=rows,
        violations=violations,
    )


# ----------------------------------------------------------------------
# The scalar-vs-batched axis of the event stack.
# ----------------------------------------------------------------------


def canonical_batch_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard *batch-eligible* fault scenario: permanent crash,
    loss burst, partition, and slow node at round granularity — exactly
    the fault classes the widened fast path covers (no recoveries, no
    clock steps)."""
    if rounds < 40:
        raise ValueError("the canonical batch plan needs at least 40 rounds")
    third = max(8, rounds // 3)
    half = n // 2
    return FaultPlan(
        n=n,
        crashes=(Crash(pid=min(2, (n + 1) // 2 - 1), at_round=third),),
        loss_bursts=(
            LossBurst(
                start_round=third + 8, end_round=third + 10, drop_prob=0.9
            ),
        ),
        partitions=(
            Partition(
                groups=(tuple(range(half)), tuple(range(half, n))),
                start_round=third + 14,
                heal_round=third + 18,
            ),
        ),
        slow_nodes=(
            SlowNode(
                pid=n - 1,
                start_round=third + 22,
                end_round=third + 26,
                factor=3.0,
                drop_prob=0.5,
            ),
        ),
        seed=derive_seed(seed, "check:canonical-batch-plan"),
    )


def _comparable_counters(metrics: MetricsRegistry) -> dict:
    """Counter totals minus the executed-mode bookkeeping, which differs
    between a forced-scalar and a batched run by construction."""
    return {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if not key.startswith("sync.executed_mode")
        and not key.startswith("sync.batch_fallback")
    }


def batched_differential_run(
    profile_name: str,
    static_factory: Callable[..., LatencyModel],
    timeout: float,
    rounds: int = 120,
    seed: int = 0,
    dynamic_factory: Optional[Callable[..., LatencyModel]] = None,
    faulted: bool = False,
    adversary: bool = False,
) -> DifferentialResult:
    """Cross-check the two execution paths *within* the event stack.

    Unlike :func:`differential_run` — which compares two different
    idealizations within tolerances — the batched structure-of-arrays
    path (:mod:`repro.sync.batch`) claims **bit identity** with the
    scalar event loop, so every row here carries tolerance ``0.0``: a
    field either matches exactly (``1.0``) or the axis fails (``0.0``).

    ``static_factory`` must build a time-invariant variant of the
    profile (the batch path's eligibility condition);
    ``dynamic_factory``, when given, builds the time-*varying* variant
    and probes the other half of the contract — that such a run falls
    back to the scalar loop and reports why.

    With ``faulted=True`` the twin runs carry the widened fast path's
    full load: the :func:`canonical_batch_plan`, a live metrics registry
    on the run and the transport, and the :class:`HeartbeatOmega`
    detector — and two extra rows assert that the ``repro.obs`` counter
    totals and latency histograms match exactly too.

    With ``adversary=True`` the plan is the
    :func:`canonical_adversary_plan` instead: an eventually stabilizing
    message adversary's loss bursts and stability-window partitions are
    batch-eligible round-granular faults, so its epoch-segmented batched
    execution must also be bit-identical (same metrics/Omega load as the
    canonical faulted run).
    """
    if faulted and adversary:
        raise ValueError("pick one fault scenario per batch-axis run")
    ping_model = static_factory(
        seed=derive_seed(seed, f"check:{profile_name}:ping")
    )
    n = ping_model.n
    table = measure_latency_table(ping_model, pings=15)
    leader = select_leader(table)
    trace_seed = derive_seed(seed, f"check:{profile_name}:batch-axis")
    if adversary:
        plan: Optional[FaultPlan] = canonical_adversary_plan(n, rounds, seed=seed)
    elif faulted:
        plan = canonical_batch_plan(n, rounds, seed=seed)
    else:
        plan = None
    instrumented = plan is not None

    def build(
        factory: Callable[..., LatencyModel],
    ) -> tuple[SyncRun, Optional[MetricsRegistry]]:
        metrics = MetricsRegistry() if instrumented else None
        oracle = (
            HeartbeatOmega(n, metrics=metrics) if instrumented else NullOracle()
        )
        run = SyncRun(
            n,
            lambda pid: HeartbeatAlgorithm(pid, n),
            oracle,
            lambda sim: Transport(
                sim, factory(seed=trace_seed), metrics=metrics
            ),
            timeout=timeout,
            latency_table=table,
            max_rounds=rounds,
            fault_plan=plan,
            metrics=metrics,
        )
        return run, metrics

    scalar_run, scalar_metrics = build(static_factory)
    scalar = scalar_run.run(mode="scalar")
    batched_run, batched_metrics = build(static_factory)
    batched = batched_run.run()

    rows = [
        DiffRow(
            "batch path engaged",
            1.0,
            1.0 if batched_run.executed_mode == "batch" else 0.0,
            0.0,
        )
    ]
    diverged = set(result_divergences(scalar, batched))
    for field_name in RESULT_FIELDS:
        rows.append(
            DiffRow(
                f"identical: {field_name}",
                1.0,
                0.0 if field_name in diverged else 1.0,
                0.0,
            )
        )
    node_state_ok = all(
        a.round_starts == b.round_starts
        and a.round_ends == b.round_ends
        and a.timely_receipts == b.timely_receipts
        and a.crashed_permanently == b.crashed_permanently
        for a, b in zip(scalar_run.nodes, batched_run.nodes)
    )
    rows.append(
        DiffRow("identical: node state", 1.0, 1.0 if node_state_ok else 0.0, 0.0)
    )
    counters_ok = (
        scalar_run.transport.messages_sent == batched_run.transport.messages_sent
        and scalar_run.transport.messages_lost
        == batched_run.transport.messages_lost
    )
    rows.append(
        DiffRow(
            "identical: transport counters",
            1.0,
            1.0 if counters_ok else 0.0,
            0.0,
        )
    )
    if instrumented:
        metrics_ok = _comparable_counters(scalar_metrics) == (
            _comparable_counters(batched_metrics)
        )
        rows.append(
            DiffRow(
                "identical: metric totals",
                1.0,
                1.0 if metrics_ok else 0.0,
                0.0,
            )
        )
        hists_ok = (
            scalar_metrics.snapshot()["histograms"]
            == batched_metrics.snapshot()["histograms"]
        )
        rows.append(
            DiffRow(
                "identical: histograms",
                1.0,
                1.0 if hists_ok else 0.0,
                0.0,
            )
        )
    if dynamic_factory is not None:
        probe, _ = build(dynamic_factory)
        probe.run()
        fell_back = (
            probe.executed_mode == "scalar"
            and probe.fallback_reason is not None
        )
        rows.append(
            DiffRow(
                "dynamic variant falls back",
                1.0,
                1.0 if fell_back else 0.0,
                0.0,
            )
        )

    if adversary:
        fault_label = "adversary-batch"
    elif faulted:
        fault_label = "canonical-batch"
    else:
        fault_label = "none"
    return DifferentialResult(
        profile=f"{profile_name} [scalar-vs-batched]",
        fault=fault_label,
        timeout=timeout,
        rounds=rounds,
        seed=seed,
        leader=leader,
        rows=rows,
    )


def _batched_scenarios(
    n: int = 8,
) -> tuple[
    tuple[
        str,
        Callable[..., LatencyModel],
        Optional[Callable[..., LatencyModel]],
        float,
    ],
    ...,
]:
    """Per conformance profile: the static (batch-eligible) variant and,
    where the profile has one, the dynamic variant that must fall back."""
    return (
        (
            "planetlab-wan",
            lambda seed: planetlab_profile(seed=seed, slow_run_prob=0.0),
            lambda seed: planetlab_profile(seed=seed, slow_run_prob=1.0),
            WAN_TIMEOUT,
        ),
        (
            "lan",
            lambda seed: lan_profile(n=n, seed=seed, slow_node=None),
            lambda seed: lan_profile(n=n, seed=seed),
            LAN_TIMEOUT,
        ),
        (
            "uniform-wan",
            lambda seed: uniform_wan_profile(n=n, seed=seed),
            None,
            UNIFORM_TIMEOUT,
        ),
        (
            "granular-wan",
            lambda seed: granular_wan_profile(n=n, seed=seed),
            # A pending psync stabilization makes the contract
            # time-varying: the batch path must fall back and say why.
            lambda seed: granular_wan_profile(
                n=n, seed=seed, stabilization_time=4.0
            ),
            GRANULAR_TIMEOUT,
        ),
    )


# ----------------------------------------------------------------------
# Monte Carlo versus the closed forms.
# ----------------------------------------------------------------------

_CLOSED_FORMS = {
    "ES": equations.p_es,
    "LM": equations.p_lm,
    "WLM": equations.p_wlm,
    "AFM": equations.p_afm,
    "GS": equations.p_gs,
}


def montecarlo_vs_equations(
    p_grid: Sequence[float] = (0.9, 0.95, 0.99),
    n: int = 5,
    samples: int = 3000,
    seed: int = 0,
    leader: int = 0,
) -> list[DiffRow]:
    """Cross-check :func:`estimate_p_model` against equations (1)-(10).

    ES/◊LM/◊WLM closed forms are exact, so the Monte-Carlo estimate must
    land within a CLT band (4 sigma plus a small floor); equation (9)
    for AFM deliberately drops the row/column dependence and is only a
    lower bound, so its row uses ``kind="lower-bound"``.
    """
    rows: list[DiffRow] = []
    for p in p_grid:
        for model_name in DIFF_MODELS:
            closed = float(np.asarray(_CLOSED_FORMS[model_name](p, n)))
            estimate = estimate_p_model(
                model_name,
                p,
                n,
                samples=samples,
                leader=leader,
                seed=derive_seed(seed, f"check:mc:{model_name}:{p!r}"),
            )
            sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / samples)
            tolerance = 4.0 * sigma + 0.01
            rows.append(
                DiffRow(
                    f"P_{model_name}(p={p}, n={n})",
                    closed,
                    estimate,
                    tolerance,
                    kind="lower-bound" if model_name == "AFM" else "abs",
                )
            )
    return rows


# ----------------------------------------------------------------------
# The full conformance sweep.
# ----------------------------------------------------------------------

#: Timeout for the WAN scenario (the paper's PlanetLab knee region).
WAN_TIMEOUT = 0.21
#: Timeout for the LAN scenario (0.9 ms: comfortably above the ~0.1 ms
#: medians, inside the Figure 1(c) grid).
LAN_TIMEOUT = 0.0009
#: Timeout for the uniform mid-latency WAN scenario.
UNIFORM_TIMEOUT = 0.1
#: Timeout for the Granular Synchrony scenario (same regime as the
#: uniform WAN it wraps; the per-link bounds sit well below it).
GRANULAR_TIMEOUT = 0.1
#: The per-link contracts of the conformance granular profile.
GRANULAR_SYNC_BOUND = 0.03
GRANULAR_PSYNC_BOUND = 0.06


def uniform_wan_profile(n: int = 8, seed: int = 0) -> HeterogeneousNetwork:
    """A symmetric mid-latency WAN: ~20-40 ms links, lognormal spread,
    occasional heavy-tail excursions and light loss.

    The third conformance profile deliberately sits — like the two real
    ones — in the regime the Section 5.1 protocol assumes: typical
    latency well below the timeout.  A profile whose latencies fill the
    whole timeout window (e.g. :class:`~repro.net.iid.BernoulliLinkModel`
    at its own timeout) breaks round synchronization *by design* once a
    fault desynchronizes the starts — the jump correction is only as good
    as the latency estimate — so it cannot be used to validate the
    idealization, only to (correctly) watch it degrade.
    """
    spread = 0.020 + 0.010 * (np.add.outer(np.arange(n), np.arange(n)) % 5) / 4.0
    base = (spread + spread.T) / 2.0
    np.fill_diagonal(base, 0.0)
    return HeterogeneousNetwork(
        base=base,
        sigma=np.full((n, n), 0.25),
        tail_prob=np.full((n, n), 0.04),
        tail_shape=1.2,
        loss_prob=np.full((n, n), 0.002),
        seed=seed,
    )


def granular_wan_profile(
    n: int = 8, seed: int = 0, stabilization_time: float = 0.0
) -> GranularProfile:
    """The uniform WAN under the canonical Granular Synchrony contract.

    Sync links (the hub's column) always deliver within
    ``GRANULAR_SYNC_BOUND``; psync links (the ring majority) within
    ``GRANULAR_PSYNC_BOUND`` once ``stabilization_time`` has passed.
    With ``stabilization_time = 0`` the profile is time-invariant and
    batch-eligible; a positive value builds the time-varying variant
    that must fall back to the scalar event loop.
    """
    return GranularProfile(
        uniform_wan_profile(n=n, seed=seed),
        sync_bound=GRANULAR_SYNC_BOUND,
        psync_bound=GRANULAR_PSYNC_BOUND,
        stabilization_time=stabilization_time,
    )


def _scenarios(n: int = 8) -> tuple[tuple[str, Callable[..., LatencyModel], float], ...]:
    """The four network profiles every conformance run covers."""
    return (
        ("planetlab-wan", lambda seed: planetlab_profile(seed=seed), WAN_TIMEOUT),
        ("lan", lambda seed: lan_profile(n=n, seed=seed), LAN_TIMEOUT),
        (
            "uniform-wan",
            lambda seed: uniform_wan_profile(n=n, seed=seed),
            UNIFORM_TIMEOUT,
        ),
        (
            "granular-wan",
            lambda seed: granular_wan_profile(n=n, seed=seed),
            GRANULAR_TIMEOUT,
        ),
    )


@dataclass
class ConformanceReport:
    """Everything :func:`run_conformance` observed."""

    results: list[DifferentialResult] = field(default_factory=list)
    mc_rows: list[DiffRow] = field(default_factory=list)
    #: The scalar-vs-batched axis: bit-identity of the event stack's two
    #: execution paths on each profile's static variant, plus the
    #: fallback probes (see :func:`batched_differential_run`).
    batch_axis: list[DifferentialResult] = field(default_factory=list)
    #: Did the checkers flag the deliberately broken Algorithm 2 variant?
    mutation_detected: bool = False
    #: Did the intact Algorithm 2 survive the same adversarial schedule?
    mutation_clean: bool = False

    @property
    def ok(self) -> bool:
        return (
            all(result.ok for result in self.results)
            and all(result.ok for result in self.batch_axis)
            and all(row.ok for row in self.mc_rows)
            and self.mutation_detected
            and self.mutation_clean
        )


def _mutation_smoke() -> tuple[bool, bool]:
    """The self-test: checkers must fire on the mutant, not on the real
    Algorithm 2, over the same adversarial schedule.

    Deliberately un-metered: the mutant's violation is expected, and
    counting it in ``check.violations`` would make a healthy conformance
    run indistinguishable from a broken one in the telemetry.
    """
    broken_suite = default_suite()
    broken_run = agreement_violation_run(observers=[broken_suite])
    broken_suite.finish(RunView.from_lockstep(broken_run))
    detected = any(
        violation.invariant == "agreement"
        for violation in broken_suite.violations
    )

    clean_suite = default_suite()
    clean_run = agreement_violation_run(
        observers=[clean_suite], algorithm=WlmConsensus
    )
    clean_suite.finish(RunView.from_lockstep(clean_run))
    return detected, clean_suite.ok


def run_conformance(
    seed: int = 0,
    rounds: int = 120,
    mc_samples: int = 3000,
    n: int = 8,
    metrics: Optional[MetricsRegistry] = None,
) -> ConformanceReport:
    """The full conformance sweep: every profile, with and without faults,
    plus the Monte-Carlo cross-check and the mutation self-test."""
    report = ConformanceReport()
    plans = (
        (None, None),
        (canonical_diff_plan(n, rounds, seed=seed), None),
        (canonical_adversary_plan(n, rounds, seed=seed), "adversary"),
    )
    for profile_name, factory, timeout in _scenarios(n):
        for plan, fault_name in plans:
            report.results.append(
                differential_run(
                    profile_name,
                    factory,
                    timeout=timeout,
                    rounds=rounds,
                    seed=seed,
                    plan=plan,
                    metrics=metrics,
                    fault_name=fault_name,
                )
            )
    for profile_name, static, dynamic, timeout in _batched_scenarios(n):
        report.batch_axis.append(
            batched_differential_run(
                profile_name,
                static,
                timeout=timeout,
                rounds=rounds,
                seed=seed,
                dynamic_factory=dynamic,
            )
        )
        # The widened fast path: same profile under the canonical fault
        # plan with live metrics and the Omega detector.  The dynamic
        # fallback probe already ran on the clean axis above.
        report.batch_axis.append(
            batched_differential_run(
                profile_name,
                static,
                timeout=timeout,
                rounds=rounds,
                seed=seed,
                faulted=True,
            )
        )
    # One adversary run on the granular profile proves the stability-window
    # plan's epoch segmentation stays on the bit-identical fast path.
    adversary_name, adversary_static, _, adversary_timeout = _batched_scenarios(
        n
    )[-1]
    report.batch_axis.append(
        batched_differential_run(
            adversary_name,
            adversary_static,
            timeout=adversary_timeout,
            rounds=rounds,
            seed=seed,
            adversary=True,
        )
    )
    report.mc_rows = montecarlo_vs_equations(samples=mc_samples, seed=seed)
    report.mutation_detected, report.mutation_clean = _mutation_smoke()
    return report


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.4f}"


def _render_result(result: DifferentialResult, lines: list[str]) -> None:
    lines.append(
        f"scenario: {result.profile}  faults={result.fault}  "
        f"timeout={result.timeout:g}s  rounds={result.rounds}  "
        f"leader={result.leader}  seed={result.seed}"
    )
    header = (
        f"  {'quantity':<28}{'lockstep':>10}{'event':>10}"
        f"{'delta':>10}{'tol':>8}  status"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in result.rows:
        delta = "-" if math.isnan(row.delta) else f"{row.delta:+.4f}"
        lines.append(
            f"  {row.quantity:<28}{_fmt(row.lockstep):>10}"
            f"{_fmt(row.event):>10}{delta:>10}{row.tolerance:>8.3f}  "
            f"{'ok' if row.ok else 'FAIL'}"
        )
    if result.violations:
        lines.append("  invariant violations:")
        for stack, violation in result.violations:
            lines.append(f"    {stack}: {violation}")
    else:
        lines.append("  invariant violations: none")
    lines.append("")


def conformance_report(report: ConformanceReport) -> str:
    """Human-readable conformance summary (written to
    ``benchmarks/results/conformance.txt`` by the tier-2 benchmark)."""
    lines = [
        "Conformance: differential validation of the two execution stacks",
        "=" * 68,
        "",
    ]
    for result in report.results:
        _render_result(result, lines)

    if report.batch_axis:
        lines.append(
            "Scalar vs batched execution of the event stack "
            "(exact equality, tolerance 0)"
        )
        lines.append("-" * 68)
        for result in report.batch_axis:
            _render_result(result, lines)

    lines.append("Monte Carlo vs closed forms (equations (1)-(10))")
    lines.append("-" * 48)
    for row in report.mc_rows:
        relation = ">=" if row.kind == "lower-bound" else "~="
        lines.append(
            f"  {row.quantity:<24} closed={_fmt(row.lockstep):>8}  "
            f"mc={_fmt(row.event):>8}  ({relation} within {row.tolerance:.4f})  "
            f"{'ok' if row.ok else 'FAIL'}"
        )
    lines.append("")
    lines.append(
        "mutation self-test: broken Algorithm 2 detected="
        f"{'yes' if report.mutation_detected else 'NO'}, "
        f"intact Algorithm 2 clean={'yes' if report.mutation_clean else 'NO'}"
    )
    lines.append("")
    lines.append(f"overall: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
