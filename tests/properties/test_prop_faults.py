"""Property-based tests for fault injection (fast profile).

Hypothesis generates bounded :class:`FaultPlan` timelines — crashes under
the resilience bound, loss bursts, partitions, slow nodes, leader churn —
and asserts that (a) every consensus algorithm preserves uniform
agreement and validity when the plan is injected into the lockstep
runner, (b) plan derivations are deterministic pure functions of the
seed, (c) the event-driven run's per-round observations stay
mutually consistent under arbitrary loss and staggered starts, and (d)
the plan's compiled epoch view answers every round exactly as the
scalar predicates do.

Example counts are deliberately small (the injected runs are whole
consensus executions) to keep tier-1 quick; crank ``max_examples`` up
locally when hunting.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
    inject_lockstep,
)
from repro.giraf import (
    IIDSchedule,
    LockstepRunner,
    NullOracle,
    StableAfterSchedule,
)
from repro.giraf.oracle import EventuallyStableLeaderOracle
from repro.sim import Transport
from repro.sync import HeartbeatAlgorithm, SyncRun
from tests.conftest import ALGORITHMS, LIVENESS, assert_safety

algorithm_names = st.sampled_from(sorted(ALGORITHMS))

#: All plan windows live inside the first MAX_FAULT_ROUND rounds, so a
#: test can always place GSR after ``plan.quiet_after()``.
MAX_FAULT_ROUND = 10

rounds = st.integers(min_value=1, max_value=MAX_FAULT_ROUND)


@st.composite
def fault_plans(draw, n):
    """A bounded random plan for ``n`` processes.

    Process 0 never crashes permanently (it doubles as the leader in the
    consensus property, and a dead leader only stalls the run without
    testing anything beyond what the crash already does).
    """
    crashes = []
    max_crashers = (n + 1) // 2 - 1  # strict minority of distinct pids
    crash_pids = draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            unique=True,
            max_size=max_crashers,
        )
    )
    for pid in crash_pids:
        at_round = draw(rounds)
        if draw(st.booleans()):
            recover_round = draw(
                st.integers(min_value=at_round + 1, max_value=MAX_FAULT_ROUND + 1)
            )
        else:
            recover_round = None
        crashes.append(Crash(pid, at_round, recover_round=recover_round))

    def window():
        start = draw(rounds)
        end = draw(st.integers(min_value=start, max_value=MAX_FAULT_ROUND))
        return start, end

    bursts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = window()
        bursts.append(
            LossBurst(start, end, draw(st.floats(min_value=0.0, max_value=1.0)))
        )

    partitions = []
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        start, end = window()
        partitions.append(
            Partition(
                groups=(tuple(range(cut)), tuple(range(cut, n))),
                start_round=start,
                heal_round=end + 1,
            )
        )

    slow_nodes = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = window()
        slow_nodes.append(
            SlowNode(
                pid=draw(st.integers(min_value=0, max_value=n - 1)),
                start_round=start,
                end_round=end,
                factor=draw(st.floats(min_value=1.0, max_value=5.0)),
                drop_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )

    churn = []
    if draw(st.booleans()):
        start, end = window()
        churn.append(LeaderChurn(start, end))

    return FaultPlan(
        n=n,
        crashes=tuple(crashes),
        loss_bursts=tuple(bursts),
        partitions=tuple(partitions),
        slow_nodes=tuple(slow_nodes),
        leader_churn=tuple(churn),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@st.composite
def plan_worlds(draw):
    n = draw(st.integers(min_value=4, max_value=6))
    plan = draw(fault_plans(n))
    proposals = draw(
        st.lists(
            st.integers(min_value=-100, max_value=100), min_size=n, max_size=n
        )
    )
    p_chaos = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, plan, proposals, p_chaos, seed


@given(name=algorithm_names, world=plan_worlds())
@settings(max_examples=15, deadline=None)
def test_consensus_safety_under_generated_plans(name, world):
    """Agreement + validity for every algorithm under an arbitrary
    injected plan; when no process dies for good, the run also decides
    once the plan goes quiet and the schedule stabilizes."""
    n, plan, proposals, p_chaos, seed = world
    model, _ = LIVENESS[name]
    crash_plan = plan.to_crash_plan()
    gsr = plan.quiet_after() + 2
    correct = (
        sorted(crash_plan.correct(n)) if crash_plan.crash_rounds else None
    )
    schedule = StableAfterSchedule(
        IIDSchedule(n, p=p_chaos, seed=seed),
        gsr=gsr,
        model=model,
        leader=0,
        seed=seed + 1,
        correct=correct,
    )
    if name in ("ES", "AFM"):
        oracle = NullOracle()
    else:
        oracle = EventuallyStableLeaderOracle(
            leader=0, stable_from=gsr, n=n, seed=seed + 2
        )
    fault_schedule, wrapped_oracle, extracted = inject_lockstep(
        plan, schedule, oracle
    )
    runner = LockstepRunner(
        n,
        lambda pid: ALGORITHMS[name](pid, n, proposals[pid]),
        wrapped_oracle,
        fault_schedule,
        crash_plan=extracted,
    )
    result = runner.run(max_rounds=gsr + 90)
    assert_safety(result)
    if not crash_plan.crash_rounds:
        assert result.all_correct_decided, (
            f"{name} did not decide by round {result.rounds_executed} "
            f"(gsr={gsr}, plan={plan})"
        )


@given(world=plan_worlds(), k=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_plan_derivations_are_pure(world, k):
    """Masks, churn leaders and down-sets are functions of (plan, round):
    rebuilt plans give bit-identical answers, in any query order."""
    n, plan, _proposals, _p_chaos, _seed = world
    twin = FaultPlan(
        n=plan.n,
        crashes=plan.crashes,
        loss_bursts=plan.loss_bursts,
        partitions=plan.partitions,
        slow_nodes=plan.slow_nodes,
        leader_churn=plan.leader_churn,
        seed=plan.seed,
    )
    # Query the twin backwards to rule out hidden sequential state.
    twin_masks = {j: twin.mask(j) for j in range(k, 0, -1)}
    for j in range(1, k + 1):
        assert (plan.mask(j) == twin_masks[j]).all()
        assert not plan.mask(j).diagonal().any()
        assert plan.churn_leader(j) == twin.churn_leader(j)
        for pid in range(n):
            assert plan.down_at(pid, j) == twin.down_at(pid, j)


@given(world=plan_worlds())
@settings(max_examples=25, deadline=None)
def test_mask_quiesces_and_respects_correct_set(world):
    n, plan, _proposals, _p_chaos, _seed = world
    # quiet_after() excludes permanent crashes (they never heal), so
    # probe past their onsets as well.
    quiet = max(
        [plan.quiet_after()]
        + [c.at_round for c in plan.crashes if c.recover_round is None]
    )
    mask = plan.mask(quiet + 1)
    # After the quiet round only the permanently dead stay masked.
    dead = sorted(set(range(n)) - set(plan.correct()))
    live = [pid for pid in range(n) if pid not in dead]
    assert not mask[np.ix_(live, live)].any()
    for pid in dead:
        others = [q for q in range(n) if q != pid]
        assert mask[pid, others].all() and mask[others, pid].all()


@st.composite
def overlapping_plans(draw):
    """Plans whose windows pile up: recovering crashes, and up to three
    bursts, partitions and slow nodes each, free to overlap."""
    n = draw(st.integers(min_value=3, max_value=6))
    max_round = 12

    def window():
        start = draw(st.integers(min_value=1, max_value=max_round))
        return start, draw(st.integers(min_value=start, max_value=max_round))

    crashes = []
    for pid in draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            unique=True,
            max_size=(n + 1) // 2 - 1,
        )
    ):
        start, end = window()
        recover = end + 1 if draw(st.booleans()) else None
        crashes.append(Crash(pid, start, recover_round=recover))
    bursts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start, end = window()
        drop_prob = draw(st.floats(min_value=0.0, max_value=1.0))
        bursts.append(LossBurst(start, end, drop_prob))
    partitions = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        members = draw(st.permutations(range(n)))
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        start, end = window()
        partitions.append(
            Partition(
                groups=(tuple(members[:cut]), tuple(members[cut:])),
                start_round=start,
                heal_round=end + 1,
            )
        )
    slow_nodes = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start, end = window()
        slow_nodes.append(
            SlowNode(
                pid=draw(st.integers(min_value=0, max_value=n - 1)),
                start_round=start,
                end_round=end,
                factor=draw(st.floats(min_value=1.0, max_value=5.0)),
                drop_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )
    churn = [LeaderChurn(*window()) for _ in range(draw(st.integers(0, 2)))]
    return FaultPlan(
        n=n,
        crashes=tuple(crashes),
        loss_bursts=tuple(bursts),
        partitions=tuple(partitions),
        slow_nodes=tuple(slow_nodes),
        leader_churn=tuple(churn),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


def reference_mask(plan, k):
    """The per-round mask recomputed from scratch, with no memo: bursts
    then slow nodes drawn from ``rng("mask", k)`` in plan order, then
    partitions and down processes."""
    n = plan.n
    masked = np.zeros((n, n), dtype=bool)
    rng = plan.rng("mask", k)
    for burst in plan.loss_bursts:
        if burst.active_at(k):
            masked |= rng.random((n, n)) < burst.drop_prob
    for slow in plan.slow_nodes:
        if slow.active_at(k):
            rows = rng.random((2, n)) < slow.drop_prob
            masked[slow.pid, :] |= rows[0]
            masked[:, slow.pid] |= rows[1]
    for partition in plan.partitions:
        if partition.active_at(k):
            for group in partition.groups:
                outside = [pid for pid in range(n) if pid not in group]
                masked[np.ix_(list(group), outside)] = True
    for pid in range(n):
        if plan.down_at(pid, k):
            masked[pid, :] = True
            masked[:, pid] = True
    np.fill_diagonal(masked, False)
    return masked


def twin_of(plan):
    return pickle.loads(pickle.dumps(plan))


def last_change(plan):
    """The plan's quiet round, or a later permanent crash's onset."""
    return max([plan.quiet_after()] + [c.at_round for c in plan.crashes])


@given(plan=overlapping_plans())
@settings(max_examples=60, deadline=None)
def test_compiled_view_matches_scalar_predicates(plan):
    """Every round up to two past the plan's last change (its quiet
    round, or a later permanent crash): the compiled epoch state equals
    the scalar predicates, memoized masks and churn leaders equal a
    fresh plan's, and returned masks are read-only."""
    n = plan.n
    payload = pickle.dumps(plan)
    fresh = twin_of(plan)
    horizon = last_change(plan) + 2
    view = plan.compiled
    round_numbers = list(range(1, horizon + 1))
    assert view.epochs_of(np.array(round_numbers)).tolist() == [
        view.epoch_of(k) for k in round_numbers
    ]
    for k in round_numbers:
        epoch = view.epoch_of(k)
        down = [plan.down_at(pid, k) for pid in range(n)]
        cut = [
            [src != dst and plan.partitioned(src, dst, k) for src in range(n)]
            for dst in range(n)
        ]
        slow = [plan.slow_factor(pid, k) for pid in range(n)]
        bursts = tuple(
            i for i, burst in enumerate(plan.loss_bursts) if burst.active_at(k)
        )
        assert view.down[epoch].tolist() == down
        assert view.cut[epoch].tolist() == cut
        assert view.slow[epoch].tolist() == slow
        assert view.bursts[epoch] == bursts
        assert view.burst_any[epoch] == bool(bursts)
        assert view.down_sets[epoch] == {p for p in range(n) if down[p]}
        assert view.cut_lists[epoch] == cut
        assert view.slow_lists[epoch] == slow
        down_row = np.array(down)
        blocked = np.array(cut) | down_row[:, None] | down_row[None, :]
        assert (view.blocked[epoch] == blocked).all()

        mask = plan.mask(k)
        assert (mask == reference_mask(fresh, k)).all()
        assert np.shares_memory(plan.mask(k), mask)  # memoized, not rebuilt
        with pytest.raises(ValueError):
            mask[0, 1] = not mask[0, 1]
        assert plan.churn_leader(k) == fresh.churn_leader(k)
        assert plan.churn_leader(k) == int(
            plan.rng("churn", k).integers(n)
        )
    acting = view.acting_leaders(horizon, -1).tolist()
    assert acting == [
        plan.churn_leader(k) if plan.churning_at(k) else -1
        for k in round_numbers
    ]
    # Masks queried in reverse on a fresh plan, and the stacked form.
    for k in reversed(round_numbers):
        assert (twin_of(plan).mask(k) == plan.mask(k)).all()
    stack = view.mask_stack(horizon)
    assert stack.shape == (horizon, n, n)
    assert all((stack[k - 1] == plan.mask(k)).all() for k in round_numbers)
    with pytest.raises(ValueError):
        stack[0, 0, 1] = True
    # The memo is not part of the plan: equality and pickles unchanged.
    assert plan == fresh and repr(plan) == repr(fresh)
    assert pickle.dumps(plan) == payload
    assert "compiled" not in pickle.loads(payload).__dict__


@given(
    plan=overlapping_plans(), seed=st.integers(min_value=0, max_value=2**31)
)
@settings(max_examples=30, deadline=None)
def test_apply_to_matrices_matches_per_round_masking(plan, seed):
    n = plan.n
    rounds = last_change(plan) + 3
    matrices = np.random.default_rng(seed).random((rounds, n, n)) < 0.7
    expected = matrices.copy()
    for k in range(1, rounds + 1):
        expected[k - 1] &= ~reference_mask(plan, k)
    diag = np.arange(n)
    expected[:, diag, diag] = matrices[:, diag, diag]
    assert (plan.apply_to_matrices(matrices) == expected).all()


class DroppyLatency:
    """A link model that loses messages i.i.d. — chaos for the event path."""

    def __init__(self, latency, drop_prob, seed):
        self.latency = latency
        self.drop_prob = drop_prob
        self.rng = np.random.default_rng(seed)

    def sample_latency(self, src, dst, now):
        if self.rng.random() < self.drop_prob:
            return None
        return self.latency


@given(
    drop_prob=st.floats(min_value=0.0, max_value=0.9),
    late_start=st.floats(min_value=0.0, max_value=1.2),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_sync_observations_stay_mutually_consistent(
    drop_prob, late_start, seed
):
    """For any loss pattern and boot stagger: one sync_error entry per
    matrix, nan exactly on the rounds some node never started, and rows
    populated exactly for the rounds each node executed."""
    n, timeout = 3, 0.2
    table = np.full((n, n), 0.05)
    np.fill_diagonal(table, 0.0)
    run = SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        NullOracle(),
        lambda sim: Transport(sim, DroppyLatency(0.05, drop_prob, seed)),
        timeout=timeout,
        latency_table=table,
        start_times=[0.0, 0.0, late_start],
        max_rounds=10,
    )
    result = run.run()
    assert len(result.sync_error) == len(result.matrices)
    for k in range(1, len(result.matrices) + 1):
        matrix = result.matrices[k - 1]
        all_started = all(k in node.round_starts for node in run.nodes)
        assert np.isnan(result.sync_error[k - 1]) == (not all_started)
        for pid, node in enumerate(run.nodes):
            executed = k in node.round_ends
            assert matrix[pid, pid] == executed
            if not executed:
                assert not matrix[pid].any()
