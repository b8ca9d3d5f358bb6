"""The declarative fault-scenario language: :class:`FaultPlan`.

DESIGN.md promises failure injection — crashes below the resilience
bound, message-loss bursts, partitions, slow nodes, clock trouble and
leader churn — but the knobs for those lived scattered across
``giraf.schedule`` (:class:`~repro.giraf.schedule.CrashPlan`), the
adversarial schedules, and ad-hoc network-profile parameters, and none
of them reached the event-driven :class:`~repro.sync.round_sync.SyncRun`
path.  A :class:`FaultPlan` is the single declarative timeline that both
execution paths consume:

- the lockstep GIRAF runner, through
  :class:`~repro.faults.lockstep.FaultSchedule` (which masks delivery
  matrices) plus :meth:`FaultPlan.to_crash_plan`;
- the event-driven stack, through
  :class:`~repro.faults.event.PlanLinkFaults` (installed on the
  transport's link model) plus the crash/recover/clock-step hooks of
  :class:`~repro.sync.round_sync.SyncRun`.

Rounds are 1-based, matching the schedules.  Every random choice a plan
implies (which burst messages drop, which leader a churn round elects)
is derived from the plan's ``seed`` with the same SHA-256 rule as
:meth:`repro.sim.rng.RandomStreams.spawn`, so the two injectors — and
repeated runs of either — see bit-identical fault realizations.

Crash semantics: a crash with ``recover_round=None`` is permanent and
(on the lockstep path) becomes a :class:`CrashPlan` entry.  A crash
*with* a recovery round models crash-recovery with stable storage: the
process freezes — sends nothing, hears nothing — and resumes with its
state intact.  On the lockstep path the freeze is expressed through the
delivery mask (the process sleeps through the rounds); on the event path
the node's timers are actually paused.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.giraf.schedule import CrashPlan
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class Crash:
    """Process ``pid`` dies at the start of ``at_round``.

    With ``recover_round`` it wakes at the start of that round (state
    intact); without, it is gone for good.  ``final_sends`` optionally
    restricts the dying round's broadcast to a subset of destinations
    (the crash-mid-broadcast adversary; permanent crashes only).
    """

    pid: int
    at_round: int
    recover_round: Optional[int] = None
    final_sends: Optional[frozenset[int]] = None

    def down_at(self, round_number: int) -> bool:
        if round_number < self.at_round:
            return False
        return self.recover_round is None or round_number < self.recover_round


@dataclass(frozen=True)
class LossBurst:
    """Every off-diagonal message in rounds ``[start_round, end_round]``
    independently goes missing with probability ``drop_prob``."""

    start_round: int
    end_round: int
    drop_prob: float = 1.0

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


@dataclass(frozen=True)
class Partition:
    """The network splits into ``groups`` for rounds
    ``[start_round, heal_round)``; cross-group messages are lost."""

    groups: tuple[tuple[int, ...], ...]
    start_round: int
    heal_round: int

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number < self.heal_round


@dataclass(frozen=True)
class SlowNode:
    """Node ``pid`` runs degraded during ``[start_round, end_round]``.

    On the event path its links' latencies are multiplied by ``factor``;
    on the lockstep path (which has no latencies, only timeliness) each
    of its off-diagonal messages — in either direction — independently
    misses the round with probability ``drop_prob``.
    """

    pid: int
    start_round: int
    end_round: int
    factor: float = 3.0
    drop_prob: float = 0.8

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


@dataclass(frozen=True)
class ClockStep:
    """Node ``pid``'s local clock jumps by ``offset`` seconds at the start
    of ``at_round``.  Event path only (the lockstep runner has no clocks):
    a forward step shortens the round in progress, a backward step
    stretches it."""

    pid: int
    at_round: int
    offset: float


@dataclass(frozen=True)
class LeaderChurn:
    """During rounds ``[start_round, end_round]`` the Ω oracle's output
    churns: every round elects a fresh pseudo-random leader."""

    start_round: int
    end_round: int

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


@dataclass(frozen=True)
class FaultPlan:
    """A full fault scenario for an ``n``-process system.

    The plan is pure data plus deterministic derivations: every question
    an injector asks ("is this link down in round k?", "who leads round
    k?") is answered from ``(seed, question)`` by SHA-256, never from
    shared mutable random state — which is what makes one plan drive the
    lockstep and event-driven runners bit-reproducibly.
    """

    n: int
    crashes: tuple[Crash, ...] = ()
    loss_bursts: tuple[LossBurst, ...] = ()
    partitions: tuple[Partition, ...] = ()
    slow_nodes: tuple[SlowNode, ...] = ()
    clock_steps: tuple[ClockStep, ...] = ()
    leader_churn: tuple[LeaderChurn, ...] = ()
    seed: int = 0

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        crash_pids = {c.pid for c in self.crashes}
        if len(crash_pids) >= (self.n + 1) // 2:
            raise ValueError(
                f"{len(crash_pids)} crashing processes violate the <n/2 "
                f"bound for n={self.n}"
            )
        for crash in self.crashes:
            if not 0 <= crash.pid < self.n:
                raise ValueError(f"crash pid {crash.pid} out of range")
            if crash.at_round < 1:
                raise ValueError("crash rounds are 1-based")
            if crash.recover_round is not None:
                if crash.recover_round <= crash.at_round:
                    raise ValueError("recovery must follow the crash")
                if crash.final_sends is not None:
                    raise ValueError(
                        "final_sends models dying mid-broadcast; a "
                        "recovering process does not die"
                    )
        for burst in self.loss_bursts:
            if burst.start_round < 1 or burst.end_round < burst.start_round:
                raise ValueError(f"bad burst window {burst}")
            if not 0.0 <= burst.drop_prob <= 1.0:
                raise ValueError("drop_prob must be a probability")
        for partition in self.partitions:
            seen: set[int] = set()
            for group in partition.groups:
                for pid in group:
                    if pid in seen:
                        raise ValueError(f"process {pid} in two groups")
                    if not 0 <= pid < self.n:
                        raise ValueError(f"process {pid} out of range")
                    seen.add(pid)
            if seen != set(range(self.n)):
                raise ValueError("partition groups must cover all processes")
            if partition.start_round < 1 or partition.heal_round <= partition.start_round:
                raise ValueError(f"bad partition window {partition}")
        for slow in self.slow_nodes:
            if not 0 <= slow.pid < self.n:
                raise ValueError(f"slow pid {slow.pid} out of range")
            if slow.start_round < 1 or slow.end_round < slow.start_round:
                raise ValueError(f"bad slow-node window {slow}")
            if slow.factor < 1.0:
                raise ValueError("a slow node's factor must be >= 1")
            if not 0.0 <= slow.drop_prob <= 1.0:
                raise ValueError("drop_prob must be a probability")
        for step in self.clock_steps:
            if not 0 <= step.pid < self.n:
                raise ValueError(f"clock-step pid {step.pid} out of range")
            if step.at_round < 1:
                raise ValueError("clock-step rounds are 1-based")
        for churn in self.leader_churn:
            if churn.start_round < 1 or churn.end_round < churn.start_round:
                raise ValueError(f"bad churn window {churn}")

    # ------------------------------------------------------------------
    # Deterministic derivations.
    # ------------------------------------------------------------------
    def rng(self, *parts: object) -> np.random.Generator:
        """A generator keyed by ``(seed, question)`` via SHA-256 — the one
        derivation rule of the codebase (:func:`repro.sim.rng.derive_seed`)."""
        name = "faults:" + ":".join(str(part) for part in parts)
        return np.random.default_rng(derive_seed(self.seed, name))

    def down_at(self, pid: int, round_number: int) -> bool:
        """Is ``pid`` dead or frozen at (the start of) this round?"""
        return any(
            c.pid == pid and c.down_at(round_number) for c in self.crashes
        )

    def slow_factor(self, pid: int, round_number: int) -> float:
        """Latency multiplier of ``pid``'s links in this round (event path)."""
        factor = 1.0
        for slow in self.slow_nodes:
            if slow.pid == pid and slow.active_at(round_number):
                factor *= slow.factor
        return factor

    def partitioned(self, src: int, dst: int, round_number: int) -> bool:
        """Does an active partition separate ``src`` from ``dst``?"""
        for partition in self.partitions:
            if not partition.active_at(round_number):
                continue
            for group in partition.groups:
                if src in group:
                    return dst not in group
        return False

    def churning_at(self, round_number: int) -> bool:
        return any(c.active_at(round_number) for c in self.leader_churn)

    def churn_leader(self, round_number: int) -> int:
        """The pseudo-random leader a churn round elects (same for all
        processes — churn changes *who* leads, not agreement on it)."""
        return self.compiled.churn_leader(round_number)

    def mask(self, round_number: int) -> np.ndarray:
        """Boolean ``[dst, src]`` matrix of messages this round's faults
        force to miss (lockstep view; the diagonal is never masked).

        Deterministic per round: the randomness for bursts and slow nodes
        is drawn from ``rng("mask", round)`` in a fixed order (see
        :meth:`_drawn_mask`).  Memoized by :attr:`compiled`; the returned
        array is read-only.
        """
        return self.compiled.mask(round_number)

    def apply_to_matrices(self, matrices: np.ndarray) -> np.ndarray:
        """Faulted copy of a ``[round, dst, src]`` delivery-matrix stack
        (round ``k`` is ``matrices[k-1]``) — the batch form the
        measurement figures use."""
        matrices = np.asarray(matrices)
        faulted = matrices & ~self.compiled.mask_stack(matrices.shape[0])
        diag = np.arange(self.n)
        faulted[:, diag, diag] = matrices[:, diag, diag]
        return faulted

    # ------------------------------------------------------------------
    # The scalar definitions the compiled view is built from.
    # ------------------------------------------------------------------
    def _drawn_churn_leader(self, round_number: int) -> int:
        return int(self.rng("churn", round_number).integers(self.n))

    def _drawn_mask(
        self,
        round_number: int,
        bursts: tuple[LossBurst, ...],
        slow_nodes: tuple[SlowNode, ...],
    ) -> np.ndarray:
        """The random part of a round's mask: the round's active
        ``bursts`` and ``slow_nodes``, drawn from ``rng("mask", round)``
        in plan order (diagonal not yet cleared)."""
        masked = np.zeros((self.n, self.n), dtype=bool)
        rng = self.rng("mask", round_number)
        for burst in bursts:
            masked |= rng.random((self.n, self.n)) < burst.drop_prob
        for slow in slow_nodes:
            rows = rng.random((2, self.n)) < slow.drop_prob
            masked[slow.pid, :] |= rows[0]
            masked[:, slow.pid] |= rows[1]
        return masked

    def _fixed_mask(self, round_number: int) -> np.ndarray:
        """The deterministic part of a round's mask: partitions and
        dead or frozen processes, diagonal cleared."""
        masked = np.zeros((self.n, self.n), dtype=bool)
        for partition in self.partitions:
            if partition.active_at(round_number):
                for group in partition.groups:
                    members = np.zeros(self.n, dtype=bool)
                    members[list(group)] = True
                    masked[np.ix_(members, ~members)] = True
        for crash in self.crashes:
            # Dead and frozen processes alike send and hear nothing.  (On
            # the lockstep path the permanent crashes are additionally
            # real process deaths, via :meth:`to_crash_plan`.)
            if crash.down_at(round_number):
                masked[crash.pid, :] = True
                masked[:, crash.pid] = True
        np.fill_diagonal(masked, False)
        return masked

    # ------------------------------------------------------------------
    # The compiled view.
    # ------------------------------------------------------------------
    @cached_property
    def compiled(self) -> CompiledPlan:
        """This plan's epoch-indexed view, built on first use and kept
        for the plan's lifetime (see :class:`CompiledPlan`)."""
        return CompiledPlan(self)

    def __getstate__(self) -> dict:
        # The compiled view is a memo, not part of the plan: pickles (and
        # so ``--jobs`` workers) carry the fields only, exactly as before.
        state = dict(self.__dict__)
        state.pop("compiled", None)
        return state

    def to_crash_plan(self) -> CrashPlan:
        """The permanent crashes, as the lockstep runner's :class:`CrashPlan`
        (recoverable crashes are expressed through :meth:`mask` instead)."""
        crash_rounds = {
            c.pid: c.at_round for c in self.crashes if c.recover_round is None
        }
        final_sends = {
            c.pid: c.final_sends
            for c in self.crashes
            if c.recover_round is None and c.final_sends is not None
        }
        return CrashPlan(crash_rounds=crash_rounds, final_sends=final_sends)

    def correct(self) -> frozenset[int]:
        """Processes that never crash permanently."""
        permanently_dead = {
            c.pid for c in self.crashes if c.recover_round is None
        }
        return frozenset(pid for pid in range(self.n) if pid not in permanently_dead)

    def quiet_after(self) -> int:
        """The last round any fault is active: from the next round on the
        plan no longer perturbs the run (permanent crashes excepted)."""
        last = 0
        for crash in self.crashes:
            if crash.recover_round is not None:
                last = max(last, crash.recover_round - 1)
        for burst in self.loss_bursts:
            last = max(last, burst.end_round)
        for partition in self.partitions:
            last = max(last, partition.heal_round - 1)
        for slow in self.slow_nodes:
            last = max(last, slow.end_round)
        for step in self.clock_steps:
            last = max(last, step.at_round)
        for churn in self.leader_churn:
            last = max(last, churn.end_round)
        return last


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CompiledPlan:
    """A :class:`FaultPlan` cut into epochs: the one fault interpreter
    every stack indexes into.

    Each per-round predicate of a plan — ``down_at``, ``partitioned``,
    ``slow_factor``, which bursts and slow-node windows are active — is a
    step function of the round that changes only at window edges: a
    crash, a recovery, a partition's start or heal, the first round of a
    burst or slow-node window and the round after its last.  Cutting the
    round axis at those edges and evaluating the plan's own scalar
    methods once per epoch answers every query exactly, with a handful
    of calls instead of one per message, link or round.

    Epoch ``e`` covers rounds ``[starts[e], starts[e + 1])``.  Epoch 0
    holds the rounds before 1, where nothing is active; the last epoch
    never ends.  Per epoch the view holds

    - ``down[e]``: ``[n]`` bool, the dead or frozen processes;
    - ``cut[e]``: ``[dst, src]`` bool, ``partitioned(src, dst)``;
    - ``blocked[e]``: ``[dst, src]`` bool, links cut or touching a down
      process;
    - ``slow[e]``: ``[n]`` latency factors;
    - ``bursts[e]``: indices of the active loss bursts;

    plus plain Python copies (``down_sets``, ``cut_lists``,
    ``slow_lists``) for per-message lookups, where numpy scalar indexing
    would cost more than the lookup itself.

    Masks and churn leaders are memoized.  A round in an epoch without
    an active burst or slow-node window shares the epoch's fixed mask;
    only rounds with a random part draw ``rng("mask", round)``, once
    each, and are kept.  Those rounds all lie inside burst and slow-node
    windows, hence before the last edge (``quiet_after() + 1``, or a
    later permanent crash), and churn leaders are kept only inside churn
    windows, so the memo is bounded by the plan, never by the length of
    the runs that consume it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        edges = {1}
        for crash in plan.crashes:
            edges.add(crash.at_round)
            if crash.recover_round is not None:
                edges.add(crash.recover_round)
        for partition in plan.partitions:
            edges.update((partition.start_round, partition.heal_round))
        for burst in plan.loss_bursts:
            edges.update((burst.start_round, burst.end_round + 1))
        for slow in plan.slow_nodes:
            edges.update((slow.start_round, slow.end_round + 1))
        self.starts: list[int] = [0] + sorted(edges)
        self._starts = np.asarray(self.starts, dtype=np.int64)

        pids = range(plan.n)
        starts = self.starts
        self.down = _read_only(
            np.array(
                [[plan.down_at(pid, q) for pid in pids] for q in starts],
                dtype=bool,
            )
        )
        self.cut = _read_only(
            np.array(
                [
                    [
                        [
                            src != dst and plan.partitioned(src, dst, q)
                            for src in pids
                        ]
                        for dst in pids
                    ]
                    for q in starts
                ],
                dtype=bool,
            )
        )
        self.blocked = _read_only(
            self.cut | self.down[:, :, None] | self.down[:, None, :]
        )
        self.slow = _read_only(
            np.array(
                [[plan.slow_factor(pid, q) for pid in pids] for q in starts],
                dtype=float,
            )
        )
        self.bursts: list[tuple[int, ...]] = [
            tuple(
                index
                for index, burst in enumerate(plan.loss_bursts)
                if burst.active_at(q)
            )
            for q in starts
        ]
        self.burst_any = _read_only(np.array([bool(b) for b in self.bursts]))
        self._slowing = [
            tuple(slow for slow in plan.slow_nodes if slow.active_at(q))
            for q in starts
        ]
        self._fixed = _read_only(
            np.array([plan._fixed_mask(q) for q in starts], dtype=bool)
        )

        self.down_sets = [
            frozenset(np.flatnonzero(row).tolist()) for row in self.down
        ]
        self.cut_lists: list[list[list[bool]]] = self.cut.tolist()
        self.slow_lists: list[list[float]] = self.slow.tolist()

        self._masks: dict[int, np.ndarray] = {}
        self._leaders: dict[int, int] = {}
        self._churn_horizon = max(
            (churn.end_round for churn in plan.leader_churn), default=0
        )

    # ------------------------------------------------------------------
    # Epoch lookup.
    # ------------------------------------------------------------------
    def epoch_of(self, round_number: int) -> int:
        return max(bisect_right(self.starts, round_number) - 1, 0)

    def epochs_of(self, rounds: np.ndarray) -> np.ndarray:
        """:meth:`epoch_of` over an array of rounds."""
        return np.maximum(
            np.searchsorted(self._starts, rounds, side="right") - 1, 0
        )

    # ------------------------------------------------------------------
    # Masks.
    # ------------------------------------------------------------------
    def mask(self, round_number: int) -> np.ndarray:
        """:meth:`FaultPlan.mask`, memoized and read-only."""
        epoch = self.epoch_of(round_number)
        bursts = self.bursts[epoch]
        slowing = self._slowing[epoch]
        if not bursts and not slowing:
            return self._fixed[epoch]
        masked = self._masks.get(round_number)
        if masked is None:
            loss_bursts = self.plan.loss_bursts
            masked = self.plan._drawn_mask(
                round_number, tuple(loss_bursts[i] for i in bursts), slowing
            )
            masked |= self._fixed[epoch]
            np.fill_diagonal(masked, False)
            self._masks[round_number] = _read_only(masked)
        return masked

    def mask_stack(self, rounds: int) -> np.ndarray:
        """Read-only ``[round, dst, src]`` stack of the masks of rounds
        ``1..rounds``: each epoch's fixed mask, overwritten by the
        memoized masks of the rounds that have a random part."""
        stack = self._fixed[self.epochs_of(np.arange(1, rounds + 1))]
        edges = zip(self.starts, self.starts[1:])
        for epoch, (start, end) in enumerate(edges):
            if self.bursts[epoch] or self._slowing[epoch]:
                for k in range(start, min(end, rounds + 1)):
                    stack[k - 1] = self.mask(k)
        return _read_only(stack)

    # ------------------------------------------------------------------
    # Leader churn.
    # ------------------------------------------------------------------
    def churn_leader(self, round_number: int) -> int:
        """:meth:`FaultPlan.churn_leader`, memoized inside churn windows."""
        leader = self._leaders.get(round_number)
        if leader is None:
            leader = self.plan._drawn_churn_leader(round_number)
            if round_number <= self._churn_horizon:
                self._leaders[round_number] = leader
        return leader

    def acting_leaders(self, rounds: int, leader: int) -> np.ndarray:
        """The acting leader of rounds ``1..rounds``: the churn leader in
        churn rounds, ``leader`` otherwise."""
        acting = np.full(rounds, leader, dtype=np.int64)
        for k in range(1, min(rounds, self._churn_horizon) + 1):
            if self.plan.churning_at(k):
                acting[k - 1] = self.churn_leader(k)
        return acting
