"""Event-driven implementation of the round-synchronization protocol.

One :class:`SyncedNode` per process runs GIRAF over the simulated
transport.  The paper's two threads map onto event handlers:

- the *receive* path records every arriving message and, on a
  future-round message, notifies the round driver;
- the *round driver* starts each round by transmitting, waits out the
  (local-clock) timeout, then fires the end-of-round; on a future-round
  notification it ends the round early, jumps, and shortens the joined
  round by the expected latency ``L_i[src]``.

:class:`SyncRun` wires ``n`` nodes, staggered starts and skewed clocks
included, runs the simulator, and condenses the observations into
per-round delivery matrices comparable with the lockstep ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.faults.event import install_plan
from repro.faults.lockstep import ChurningOracle
from repro.faults.plan import FaultPlan
from repro.giraf.kernel import GirafAlgorithm
from repro.giraf.oracle import Oracle
from repro.giraf.process import GirafProcess
from repro.obs.recorder import RunRecorder, recorder_or_null
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.clock import Clock
from repro.sim.events import Event, Simulator
from repro.sim.transport import Transport


def _int_array(values: Iterable[int]) -> np.ndarray:
    return np.fromiter(values, dtype=np.intp)


@dataclass(frozen=True)
class _Wire:
    """What actually travels on the wire: the round number plus payload."""

    round_number: int
    payload: Any


#: Fraction of the timeout used as the floor of a shortened (joined) round,
#: so a latency estimate larger than the timeout cannot produce a
#: zero-length or negative round.
MIN_ROUND_FRACTION = 0.05


class SyncedNode:
    """One process running GIRAF under the Section 5.1 protocol."""

    def __init__(
        self,
        process: GirafProcess,
        oracle: Oracle,
        transport: Transport,
        simulator: Simulator,
        clock: Clock,
        timeout: float,
        latency_estimates: Sequence[float],
        start_time: float = 0.0,
        max_rounds: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Optional[RunRecorder] = None,
        observers: Sequence[Any] = (),
        on_stop: Optional[Callable[[], None]] = None,
    ) -> None:
        self.process = process
        self.oracle = oracle
        self.transport = transport
        self.simulator = simulator
        self.clock = clock
        self.timeout = timeout
        self.latency_estimates = list(latency_estimates)
        self.start_time = start_time
        self.max_rounds = max_rounds
        self._metrics = registry_or_null(metrics)
        self._recorder = recorder_or_null(recorder)
        self._rounds_started = self._metrics.counter("sync.rounds_started")
        self._rounds_jumped = self._metrics.counter("sync.rounds_jumped")
        self._rounds_shortened = self._metrics.counter("sync.rounds_shortened")
        self._timeout_fires = self._metrics.counter("sync.timeout_fires")
        self._late_counter = self._metrics.counter("sync.late_messages")
        self._timer: Optional[Event] = None
        self._observers = list(observers)
        self._on_stop = on_stop
        self.running = False
        self.crashed = False
        self.crashed_permanently = False
        # Observations.
        self.timely_receipts: dict[int, set[int]] = {}
        self.round_starts: dict[int, float] = {}
        self.round_ends: dict[int, float] = {}
        self.late_messages = 0
        self.jumps = 0
        self.decision_round: Optional[int] = None

        transport.register(process.pid, self._on_receive)
        simulator.schedule(start_time, self._boot, tag=f"boot:{process.pid}")

    def _stopped(self) -> None:
        """The node has stopped for good after starting (its run is over)."""
        self.running = False
        if self._on_stop is not None:
            self._on_stop()

    def _notify(self, hook: str, *args: Any) -> None:
        for observer in self._observers:
            method = getattr(observer, hook, None)
            if method is not None:
                method(*args)

    def _report_decision(self, round_number: int) -> None:
        decision = self.process.decision()
        if decision is None:
            return
        if self.decision_round is None:
            self.decision_round = round_number
        self._notify(
            "on_decision", self.process.pid, round_number, decision
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _boot(self) -> None:
        self.running = True
        output = self.oracle.query(self.process.pid, 0)
        self._notify("on_oracle", self.process.pid, 0, output)
        self.process.end_of_round(output)
        self._report_decision(0)
        self._begin_round(self.timeout)

    def _begin_round(self, local_duration: float) -> None:
        k = self.process.round
        if self.max_rounds is not None and k > self.max_rounds:
            self._stopped()
            return
        self.round_starts[k] = self.simulator.now
        self._rounds_started.inc()
        if local_duration < self.timeout:
            self._rounds_shortened.inc()
        self.timely_receipts.setdefault(k, set()).add(self.process.pid)
        payload = self.process.outgoing_payload
        if payload is not None:
            wire = _Wire(k, payload)
            for dst in sorted(self.process.send_targets()):
                self.transport.send(self.process.pid, dst, wire)
        duration = max(local_duration, MIN_ROUND_FRACTION * self.timeout)
        self._timer = self.simulator.schedule_in(
            self.clock.global_duration(duration), self._on_timer
        )

    def _end_round(self, next_round: Optional[int] = None) -> None:
        k = self.process.round
        self.round_ends[k] = self.simulator.now
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        # Heartbeat-style detectors (HeartbeatOmega) take each node's
        # round observation live, the moment the round ends — the event
        # stack's answer to the lockstep runner's per-round ``observe``
        # matrix.  The row is this node's local view only; detectors
        # exposing the seam are row-local by contract.
        observe_row = getattr(self.oracle, "observe_row", None)
        if observe_row is not None:
            row = [False] * len(self.latency_estimates)
            for src in self.timely_receipts.get(k, ()):
                row[src] = True
            observe_row(self.process.pid, k, row)
        output = self.oracle.query(self.process.pid, k)
        self._notify("on_oracle", self.process.pid, k, output)
        self.process.end_of_round(output, next_round=next_round)
        self._report_decision(k)

    def _on_timer(self) -> None:
        if not self.running or self.crashed:
            return
        self._timer = None
        self._timeout_fires.inc()
        self._end_round()
        self._begin_round(self.timeout)

    # ------------------------------------------------------------------
    # Fault hooks (driven by :class:`SyncRun` from a ``FaultPlan``).
    # ------------------------------------------------------------------
    def crash(self, permanent: bool = False) -> None:
        """Freeze the node: no sends, receives, timers, or computation.

        A permanent crash also ends the node's run; a transient one keeps
        its state for :meth:`recover` (crash-recovery with stable storage).
        """
        if not self.running:
            return
        self.crashed = True
        if permanent:
            self.crashed_permanently = True
            self._stopped()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def recover(self) -> None:
        """Wake a transiently crashed node; it restarts its current round
        (resending that round's messages) and resynchronizes by jumping on
        the first future-round message it hears."""
        if not self.crashed or not self.running:
            return
        self.crashed = False
        self._begin_round(self.timeout)

    def apply_clock_step(self, delta_local: float) -> None:
        """The local clock jumps by ``delta_local`` seconds.

        Deadlines are local, so a pending round timer fires earlier after
        a forward jump and later after a backward one; the round-length
        floor still applies.
        """
        if self._timer is None or not self.running or self.crashed:
            return
        remaining = self._timer.time - self.simulator.now
        remaining -= self.clock.global_duration(delta_local)
        self._timer.cancel()
        self._timer = self.simulator.schedule_in(
            max(0.0, remaining), self._on_timer
        )

    # ------------------------------------------------------------------
    # Receive path.
    # ------------------------------------------------------------------
    def _on_receive(self, src: int, wire: _Wire) -> None:
        if not self.running or self.crashed:
            return
        self.process.receive(wire.round_number, src, wire.payload)
        current = self.process.round
        if wire.round_number == current:
            self.timely_receipts.setdefault(current, set()).add(src)
        elif wire.round_number > current:
            # Future-round message: end this round now, join round k_j,
            # and shorten it by the expected latency of the trigger.
            self.jumps += 1
            self._rounds_jumped.inc()
            self._recorder.record(
                "sync.jump",
                t=self.simulator.now,
                pid=self.process.pid,
                from_round=current,
                to_round=wire.round_number,
                src=src,
            )
            self._end_round(next_round=wire.round_number)
            remaining = self.timeout - self.latency_estimates[src]
            self.timely_receipts.setdefault(wire.round_number, set()).add(src)
            self._begin_round(remaining)
        else:
            self.late_messages += 1
            self._late_counter.inc()


@dataclass
class SyncRunResult:
    """Observations of one synchronized run.

    Attributes:
        n: number of nodes.
        matrices: per-round timely-delivery matrices ``A[dst, src]`` for
            rounds ``1..last_common_round``.  A process that skipped a
            round (jumped over it, or was crashed) contributes an
            all-``False`` row — including its diagonal entry, since it was
            not timely even to itself in a round it never executed.
        round_durations: per node, mean executed round duration (seconds).
        jumps: per node, number of fast-forward joins.
        late_messages: per node, messages that arrived after their round.
        decisions: ``pid -> value`` for deciding algorithms.
        decision_rounds: ``pid -> round`` at which each decision was
            first observed (the round whose end-of-round computed it).
        proposals: ``pid -> proposed value`` for algorithms that expose
            a ``proposal`` attribute (for validity checking).
        correct: pids that never crash permanently (everyone when the
            run has no fault plan).
        sync_error: per round, the spread (max - min) of the nodes'
            round-start times, in seconds — the synchronization quality.
            Aligned with ``matrices`` (index ``k - 1`` is round ``k``);
            rounds that not every node executed hold ``nan``, so a jump
            can never shift later rounds' readings onto the wrong round.
    """

    n: int
    matrices: list[np.ndarray] = field(default_factory=list)
    round_durations: list[float] = field(default_factory=list)
    jumps: list[int] = field(default_factory=list)
    late_messages: list[int] = field(default_factory=list)
    decisions: dict[int, Any] = field(default_factory=dict)
    decision_rounds: dict[int, int] = field(default_factory=dict)
    proposals: dict[int, Any] = field(default_factory=dict)
    correct: frozenset[int] = frozenset()
    sync_error: list[float] = field(default_factory=list)


class SyncRun:
    """Builds and executes a full synchronized GIRAF deployment."""

    def __init__(
        self,
        n: int,
        algorithm_factory: Callable[[int], GirafAlgorithm],
        oracle: Oracle,
        transport_factory: Callable[[Simulator], Transport],
        timeout: float,
        latency_table: np.ndarray,
        clocks: Optional[Sequence[Clock]] = None,
        start_times: Optional[Sequence[float]] = None,
        max_rounds: int = 100,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Optional[RunRecorder] = None,
        observers: Sequence[Any] = (),
    ) -> None:
        self.n = n
        self.max_rounds = max_rounds
        self.fault_plan = fault_plan
        self.observers = list(observers)
        self.metrics = registry_or_null(metrics)
        self.recorder = recorder_or_null(recorder)
        self.simulator = Simulator()
        self.transport = transport_factory(self.simulator)
        if fault_plan is not None:
            if fault_plan.n != n:
                raise ValueError(
                    f"fault plan is for n={fault_plan.n}, run for n={n}"
                )
            # Link-level faults (bursts, partitions, slow links, frozen
            # peers) ride on the wire; round k of the plan maps to the
            # time window [(k-1)*timeout, k*timeout).
            install_plan(self.transport, fault_plan, timeout, metrics=metrics)
            if fault_plan.leader_churn:
                oracle = ChurningOracle(oracle, fault_plan)
        if clocks is None:
            clocks = [Clock() for _ in range(n)]
        if start_times is None:
            start_times = [0.0] * n
        # Nodes that started and then stopped for good (passed
        # max_rounds, or crashed permanently): the run is over when all
        # n have, which makes the simulator's per-event stop check O(1).
        self._stopped_nodes = 0
        self.nodes = [
            SyncedNode(
                process=GirafProcess(pid, algorithm_factory(pid)),
                oracle=oracle,
                transport=self.transport,
                simulator=self.simulator,
                clock=clocks[pid],
                timeout=timeout,
                latency_estimates=latency_table[pid],
                start_time=start_times[pid],
                max_rounds=max_rounds,
                metrics=metrics,
                recorder=recorder,
                observers=self.observers,
                on_stop=self._count_stopped_node,
            )
            for pid in range(n)
        ]
        for node in self.nodes:
            proposal = getattr(node.process.algorithm, "proposal", None)
            if proposal is not None:
                for observer in self.observers:
                    method = getattr(observer, "on_proposal", None)
                    if method is not None:
                        method(node.process.pid, proposal)
        # The plan's round->time grid is anchored to the construction-time
        # timeout; the actual booking happens at run() so per-node state
        # mutated between construction and run (heterogeneous timeouts in
        # particular) is respected.
        self._plan_timeout = timeout
        self._faults_scheduled = False
        #: Which execution path the last :meth:`run` took ("scalar" or
        #: "batch"), and why the batched path was skipped, if it was.
        self.executed_mode: Optional[str] = None
        self.fallback_reason: Optional[str] = None

    def _count_stopped_node(self) -> None:
        self._stopped_nodes += 1

    def _schedule_node_faults(self, plan: FaultPlan, timeout: float) -> None:
        """Book the plan's node-level faults on the simulator clock."""

        def at(round_number: int) -> float:
            return (round_number - 1) * timeout

        activations = self.metrics
        recorder = self.recorder

        def do_crash(node: SyncedNode, permanent: bool) -> None:
            activations.counter("faults.activations", kind="crash").inc()
            recorder.record(
                "fault.crash",
                t=self.simulator.now,
                pid=node.process.pid,
                permanent=permanent,
            )
            node.crash(permanent)

        def do_recover(node: SyncedNode) -> None:
            activations.counter("faults.activations", kind="recover").inc()
            recorder.record(
                "fault.recover", t=self.simulator.now, pid=node.process.pid
            )
            node.recover()

        def do_clock_step(node: SyncedNode, offset: float) -> None:
            activations.counter("faults.activations", kind="clock-step").inc()
            recorder.record(
                "fault.clock_step",
                t=self.simulator.now,
                pid=node.process.pid,
                offset=offset,
            )
            node.apply_clock_step(offset)

        for crash in plan.crashes:
            node = self.nodes[crash.pid]
            permanent = crash.recover_round is None
            self.simulator.schedule(
                at(crash.at_round),
                lambda node=node, permanent=permanent: do_crash(node, permanent),
                tag=f"fault:crash:{crash.pid}",
            )
            if crash.recover_round is not None:
                self.simulator.schedule(
                    at(crash.recover_round),
                    lambda node=node: do_recover(node),
                    tag=f"fault:recover:{crash.pid}",
                )
        for step in plan.clock_steps:
            # A hair into the round, not on the boundary: at the exact
            # round start the previous round's timer is expiring at the
            # same timestamp, and a step applied to a timer with zero
            # remaining time is a silent no-op.  The hair is a fraction
            # of the *stepped node's own* timeout — with heterogeneous
            # timeouts, a fraction of another node's (shorter) round can
            # still land exactly on this node's boundary.
            node = self.nodes[step.pid]
            self.simulator.schedule(
                at(step.at_round) + 0.01 * node.timeout,
                lambda node=node, offset=step.offset: do_clock_step(
                    node, offset
                ),
                tag=f"fault:clock-step:{step.pid}",
            )

    def run(
        self, time_limit: Optional[float] = None, mode: str = "auto"
    ) -> SyncRunResult:
        """Run until every node passes ``max_rounds`` (or the time limit).

        ``mode`` selects the execution path:

        - ``"auto"`` (default): use the batched structure-of-arrays path
          (:mod:`repro.sync.batch`) when the run is eligible — probe
          stream, batch-capable time-invariant link model, no faults, no
          instrumentation, lockstep-uniform nodes — and fall back to the
          scalar event loop otherwise (``fallback_reason`` says why);
        - ``"scalar"``: always run the event loop (the reference path);
        - ``"batch"``: require the batched path; raise if ineligible.

        Both paths produce bit-identical :class:`SyncRunResult`s; the
        property suite and the conformance axis assert it.
        """
        if mode not in ("auto", "scalar", "batch"):
            raise ValueError(f"unknown mode {mode!r}")
        if time_limit is None:
            # Generous default: every round at full length plus slack —
            # at the *largest* timeout across nodes, or heterogeneous
            # runs silently truncate (the max-timeout node never
            # finishes its rounds and drags last_common_round down).
            slowest = max(node.timeout for node in self.nodes)
            time_limit = (self.max_rounds + 10) * slowest * 3
        if mode != "scalar":
            from repro.sync.batch import batch_ineligible_reason, run_batched

            reason = batch_ineligible_reason(self, time_limit)
            if reason is None:
                self.executed_mode = "batch"
                self.fallback_reason = None
                self.metrics.counter(
                    "sync.executed_mode", mode="batch"
                ).inc()
                return run_batched(self, time_limit)
            if mode == "batch":
                raise ValueError(
                    f"batch mode requested but the run is ineligible: {reason}"
                )
            self.fallback_reason = reason
            # The fallback taxonomy, as telemetry: one increment per run
            # that wanted the fast path and couldn't take it.
            self.metrics.counter("sync.batch_fallback", reason=reason).inc()
        self.executed_mode = "scalar"
        self.metrics.counter("sync.executed_mode", mode="scalar").inc()
        if self.fault_plan is not None and not self._faults_scheduled:
            self._faults_scheduled = True
            self._schedule_node_faults(self.fault_plan, self._plan_timeout)
        # "Done" counts only nodes that started: before the boot events
        # fire no node is running, and a bare ``not running`` predicate
        # would satisfy the simulator's entry check and stop the run at
        # time 0.
        n = self.n
        self.simulator.run(
            until=time_limit, stop_when=lambda: self._stopped_nodes == n
        )
        return self._collect()

    def _collect(self) -> SyncRunResult:
        result = SyncRunResult(
            n=self.n,
            correct=(
                self.fault_plan.correct()
                if self.fault_plan is not None
                else frozenset(range(self.n))
            ),
        )
        # Permanently crashed nodes stop recording rounds at their crash;
        # they must not truncate the surviving nodes' observations.
        participants = [
            node for node in self.nodes if not node.crashed_permanently
        ] or list(self.nodes)
        last_round = min(
            max(node.round_ends, default=0) for node in participants
        )
        n = self.n
        # All rounds' matrices are filled in one (rounds, n, n) block;
        # ``matrices`` holds its per-round views.  No pre-seeded
        # diagonal: a node that jumped over round k was not timely even
        # to itself there, and crediting it would inflate P_M.  Nodes
        # that did execute the round credited themselves in
        # ``timely_receipts`` when the round began.
        block = np.zeros((last_round, n, n), dtype=bool)
        starts = np.full((n, last_round), np.nan)
        for dst, node in enumerate(self.nodes):
            # Executed (not skipped) rounds are the ended ones.
            executed = [k for k in node.round_ends if k <= last_round]
            receipts = [node.timely_receipts.get(k, ()) for k in executed]
            rows = np.repeat(
                _int_array(executed) - 1, _int_array(map(len, receipts))
            )
            block[rows, dst, _int_array(chain.from_iterable(receipts))] = True
            begun = [k for k in node.round_starts if k <= last_round]
            starts[dst, _int_array(begun) - 1] = list(
                map(node.round_starts.__getitem__, begun)
            )
        result.matrices = list(block)
        # The event path assembles matrices post-hoc, so observers'
        # ``on_round_matrix`` hooks fire here as a replay after the
        # simulation ends — same stream as the lockstep runner's live
        # notifications, delivered late.
        hooks = [
            method
            for method in (
                getattr(observer, "on_round_matrix", None)
                for observer in self.observers
            )
            if method is not None
        ]
        if hooks:
            for k, matrix in enumerate(result.matrices, 1):
                for method in hooks:
                    method(k, matrix)
        # One entry per round, aligned with ``matrices``: rounds some
        # node never started are nan rather than silently dropped
        # (dropping them shifted every later reading onto the wrong
        # round for any run with jumps).
        complete = ~np.isnan(starts).any(axis=0)
        present = starts[:, complete]
        spread = np.full(last_round, np.nan)
        spread[complete] = present.max(axis=0) - present.min(axis=0)
        result.sync_error = spread.tolist()
        if complete.any():
            self.metrics.histogram("sync.round_sync_error").observe_many(
                spread[complete]
            )
        for node in self.nodes:
            timed = [k for k in node.round_ends if k in node.round_starts]
            durations = np.fromiter(
                map(node.round_ends.__getitem__, timed), float, len(timed)
            ) - np.fromiter(
                map(node.round_starts.__getitem__, timed), float, len(timed)
            )
            result.round_durations.append(
                float(np.mean(durations)) if timed else 0.0
            )
            result.jumps.append(node.jumps)
            result.late_messages.append(node.late_messages)
            proposal = getattr(node.process.algorithm, "proposal", None)
            if proposal is not None:
                result.proposals[node.process.pid] = proposal
            decision = node.process.decision()
            if decision is not None:
                result.decisions[node.process.pid] = decision
                if node.decision_round is not None:
                    result.decision_rounds[node.process.pid] = (
                        node.decision_round
                    )
        return result
