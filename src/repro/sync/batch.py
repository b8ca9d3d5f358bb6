"""Batched structure-of-arrays execution of heartbeat round-sync runs.

The measurement experiments run the Section 5.1 protocol with the
all-to-all probe stream (:class:`~repro.sync.heartbeat.HeartbeatAlgorithm`)
over a time-invariant network.  In that configuration the protocol
degenerates into perfect lockstep: every node starts round ``k`` at the
same instant, no future-round message ever arrives (a message can never
outrun its own round's start), so no node ever jumps, and every round
lasts exactly ``timeout / (1 + drift)`` of global time.  The event loop
still pays one Python callback per message — ``rounds * n * (n - 1)``
heap operations that all compute a foregone conclusion.

This module computes the same run in a handful of NumPy passes:

1. the common round grid ``t[0..R]`` is accumulated with the exact float
   additions the scalar timers perform (``t[k] = t[k-1] + D``);
2. every link's latency column is pre-sampled from its own RNG substream
   in the same :data:`~repro.sim.transport.STREAM_CHUNK`-sized draws the
   transport's stream path makes, so the two paths consume bit-identical
   random values;
3. a :class:`~repro.faults.plan.FaultPlan`'s link-level faults are applied
   as whole-array passes per *epoch* of its compiled view
   (:class:`~repro.faults.plan.CompiledPlan`) — the maximal round
   segments over which the plan's per-round state (who is down, which
   links are partitioned, which nodes are slowed, whether any burst is
   live) is constant — consuming the identical decisions the scalar
   :class:`~repro.faults.event.PlanLinkFaults` policy makes;
4. timeliness, late arrivals, and loss counts are evaluated as whole
   ``(rounds, n, n)`` arrays, applying the event queue's tie rules
   (a delivery and a round timer at the same timestamp fire in
   scheduling-sequence order) in closed form;
5. transport and round-sync telemetry (``repro.obs`` counters and the
   latency histogram) is bulk-accumulated from the same arrays,
   equivalent to the scalar path's per-event increments, and
   oracle-bearing runs replay each round's delivery rows into
   :class:`~repro.oracles.omega.HeartbeatOmega` through its row-local
   bulk seam;
6. the per-node observation state (``round_starts``, ``round_ends``,
   ``timely_receipts``, counters) is written back onto the
   :class:`~repro.sync.round_sync.SyncedNode` objects and the ordinary
   :meth:`SyncRun._collect` assembles the result — result construction
   (including the ``on_round_matrix`` observer replay) runs through the
   identical code as the scalar path.

Bit-identity (same matrices, ``sync_error``, ``jumps``,
``late_messages``, decision rounds — and, for instrumented runs, the
same metric totals) is asserted by
``tests/properties/test_prop_sync_batch.py`` and by the scalar-vs-batched
axis of :mod:`repro.check.differential`.

Why the tie rules are what they are
-----------------------------------

Events fire in ``(time, priority, seq)`` order and everything here uses
priority 0, so simultaneity resolves by scheduling sequence.  Round-``k``
begin blocks run at ``t[k-1]`` in pid order (round-1 blocks run inside
the boot events, which are scheduled in pid order at construction; each
later timer is scheduled inside its node's begin block, preserving the
order inductively).  Node ``src``'s deliveries of round ``k`` are
scheduled just before its own round-``k`` timer, so at ``t[k]``:

- a round-``k`` message arriving exactly at ``t[k]`` fires before
  ``dst``'s round-``k`` timer iff ``src < dst`` — timely iff
  ``arrival < t[k]`` or (``arrival == t[k]`` and ``src < dst``);
- any message from an earlier round arriving at ``t[k]`` was scheduled
  before every round-``k`` timer and therefore fires first, while
  ``dst`` is still running — it counts as late;
- at the final instant ``t[R]`` the same rules decide whether ``dst``
  is still running when a delivery fires: late messages are countable
  iff ``arrival < t[R]``, or ``arrival == t[R]`` and the message was
  sent before round ``R``.

A future-round message is impossible: a round-``k`` message arrives at
``arrival >= t[k-1]`` (latencies are non-negative), and whenever it is
delivered the receiver has already begun round ``k`` (a zero-latency
delivery is scheduled *after* the receiver's begin block of the same
instant, by the sequence argument above).  Hence no jumps, ever.

Crashes at round granularity keep the lockstep shape
----------------------------------------------------

A permanent crash of ``pid`` is an event at ``c = (at_round - 1) * tau``
scheduled *before* the simulation starts, so at any shared timestamp it
fires before deliveries and round timers (smaller sequence number) but
after the boot events.  Consequences, all closed-form:

- ``pid`` begins round ``k >= 2`` iff ``t[k-1] < c`` strictly (at a tie
  the crash cancels the pending round-``(k-1)`` timer first), and always
  begins round 1 (boots precede the crash even at ``t = 0``);
- ``pid`` never ends its last begun round ``b`` — in every tie case the
  crash wins against the timer — so it ends exactly rounds ``1..b-1``;
- a delivery to ``pid`` is received iff ``arrival < c`` strictly (at a
  tie the crash fires first), whether timely or late;
- a crash whose time falls before the (uniform) boot instant is a no-op
  on the node — the crash hook finds it not yet running — though the
  scheduled event still fires and counts as an activation.

The surviving majority (guaranteed by ``FaultPlan`` validation) keeps
the common grid: every non-crashed node runs all ``R`` rounds on the
same boundaries, which is what keeps the whole run vectorizable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults.event import PlanLinkFaults
from repro.faults.lockstep import ChurningOracle
from repro.giraf.oracle import NullOracle
from repro.oracles.omega import HeartbeatOmega
from repro.sim.transport import STREAM_CHUNK, Transport
from repro.sync.heartbeat import HeartbeatAlgorithm
from repro.sync.round_sync import MIN_ROUND_FRACTION, SyncRun, SyncRunResult


#: Fields of :class:`SyncRunResult` whose exact equality the batched path
#: guarantees, in reporting order.
RESULT_FIELDS = (
    "matrices",
    "sync_error",
    "round_durations",
    "jumps",
    "late_messages",
    "decisions",
    "decision_rounds",
    "proposals",
    "correct",
)


def result_divergences(a: SyncRunResult, b: SyncRunResult) -> list[str]:
    """Names of the :data:`RESULT_FIELDS` on which ``a`` and ``b`` differ.

    The comparison is *exact* (bit-level for floats; ``nan`` equals
    ``nan``, since a censored round must stay censored on both paths) —
    this is the equality the scalar-vs-batched conformance axis and the
    property suite assert.  An empty list means the results agree.
    """
    diffs: list[str] = []
    if a.n != b.n:
        diffs.append("n")
    if len(a.matrices) != len(b.matrices) or any(
        not np.array_equal(ma, mb) for ma, mb in zip(a.matrices, b.matrices)
    ):
        diffs.append("matrices")
    if not np.array_equal(
        np.asarray(a.sync_error), np.asarray(b.sync_error), equal_nan=True
    ):
        diffs.append("sync_error")
    for name in ("round_durations", "jumps", "late_messages",
                 "decisions", "decision_rounds", "proposals", "correct"):
        if getattr(a, name) != getattr(b, name):
            diffs.append(name)
    return diffs


def batch_ineligible_reason(
    run: SyncRun, time_limit: float
) -> Optional[str]:
    """Why ``run`` cannot take the batched path, or ``None`` if it can.

    The batched path reproduces the scalar event loop bit-for-bit for
    lockstep-uniform heartbeat runs — now including runs with a
    round-granular :class:`~repro.faults.plan.FaultPlan` (permanent
    crashes, loss bursts, partitions, slow nodes, leader churn), live
    telemetry, observers, and a :class:`HeartbeatOmega` oracle.  What
    still forces the scalar path is anything that can move a node off
    the common round grid (crash *recovery*, clock steps), randomness
    that cannot be pre-sampled (dynamic link models, non-plan fault
    policies), or per-event instrumentation with event-level semantics
    (the JSONL recorder, delivery tracing).  The returned string is the
    fallback taxonomy, surfaced as :attr:`SyncRun.fallback_reason` and
    counted per run in the ``sync.batch_fallback`` counter family.
    """
    for node in run.nodes:
        if node.process.round != 0 or node.running or node.crashed:
            return "a node already started"
    if run.recorder.enabled:
        return "run recorder enabled"
    transport = run.transport
    if type(transport) is not Transport:
        return f"transport subclass {type(transport).__name__}"
    if transport.trace_enabled:
        return "delivery tracing enabled"
    if transport.recorder_enabled:
        return "transport recorder enabled"
    if not transport.stream_sampling_active:
        return "link model is not batch-capable and time-invariant"
    if transport.streams_started or transport.messages_sent:
        return "transport already carried traffic"
    plan = run.fault_plan
    policy = transport.stream_fault_policy
    if plan is not None:
        if plan.clock_steps:
            return "fault plan schedules clock steps"
        if any(c.recover_round is not None for c in plan.crashes):
            return "fault plan schedules crash recovery"
        if policy is None:
            return "fault plan without its link fault policy"
        if type(policy) is not PlanLinkFaults or policy.plan is not plan:
            return "fault policy does not match the run's plan"
        if policy.timeout != run._plan_timeout:
            return "fault policy timeout differs from the plan's round grid"
        if policy._burst_counters or policy._seen_activations:
            return "fault policy already consumed"
    elif policy is not None:
        return "link fault policy without a matching plan"
    oracles = {id(node.oracle) for node in run.nodes}
    if len(oracles) != 1:
        return "nodes use distinct oracle instances"
    oracle = run.nodes[0].oracle
    inner = oracle._base if isinstance(oracle, ChurningOracle) else oracle
    if type(inner) is HeartbeatOmega:
        if inner.n != run.n:
            return "oracle dimension mismatch"
    elif type(inner) is not NullOracle:
        return f"oracle {type(inner).__name__} is not batch-supported"
    for node in run.nodes:
        if type(node.process.algorithm) is not HeartbeatAlgorithm:
            return "algorithm is not the heartbeat probe stream"
        if node.max_rounds != run.max_rounds:
            return "per-node max_rounds override"
    if len({node.timeout for node in run.nodes}) != 1:
        return "heterogeneous timeouts"
    if len({node.clock.drift for node in run.nodes}) != 1:
        return "heterogeneous clock drift"
    if len({node.start_time for node in run.nodes}) != 1:
        return "staggered start times"
    if run.simulator.events_processed or run.simulator.pending_events != run.n:
        return "simulator already used or extra events scheduled"
    return _time_limit_reason(run, time_limit)


def _time_limit_reason(run: SyncRun, time_limit: float) -> Optional[str]:
    """O(1) in the common case: decide the time-limit check from a
    closed-form bound on the accumulated grid end, materializing the
    exact O(R) grid only when the limit falls inside the bound's
    uncertainty band.

    The exact grid end ``t[R]`` is ``R`` sequential IEEE additions of
    ``step`` onto ``start``; each addition perturbs by at most one ulp
    of its (monotone, for positive steps bounded by the larger of the
    endpoints') running value, so ``|t[R] - (start + R*step)|`` is below
    ``(R + 4) * 2^-52 * max(|start|, |start + R*step|, |step|)`` with a
    2x safety factor folded in.  Limits clear of that band need no grid.
    """
    node = run.nodes[0]
    duration = max(node.timeout, MIN_ROUND_FRACTION * node.timeout)
    step = node.clock.global_duration(duration)
    start = node.start_time
    naive = start + run.max_rounds * step
    scale = max(abs(start), abs(naive), abs(step))
    margin = (run.max_rounds + 4) * 2.0 ** -52 * scale
    if naive + margin <= time_limit:
        return None
    if naive - margin > time_limit:
        return "time limit truncates the run"
    if _round_grid(run)[-1] > time_limit:
        return "time limit truncates the run"
    return None


def _round_grid(run: SyncRun) -> list[float]:
    """The common round boundaries ``t[0..R]`` as exact scalar floats.

    ``t[0]`` is the (uniform) start time; each round lasts
    ``max(timeout, MIN_ROUND_FRACTION * timeout)`` on the local clock —
    the exact expression :meth:`SyncedNode._begin_round` evaluates —
    mapped to global time through the (uniform) drift.  The grid is
    accumulated sequentially so every boundary is the same IEEE double
    the scalar timers produce.
    """
    node = run.nodes[0]
    duration = max(node.timeout, MIN_ROUND_FRACTION * node.timeout)
    step = node.clock.global_duration(duration)
    times = [node.start_time]
    for _ in range(run.max_rounds):
        times.append(times[-1] + step)
    return times


def _presample_links(run: SyncRun, per_src_rounds: np.ndarray) -> np.ndarray:
    """Latency block ``[k, dst, src]`` for each link's sent rounds.

    ``per_src_rounds[src]`` is how many rounds ``src`` actually begins
    (and therefore broadcasts in): the scalar path consumes exactly one
    base draw per sent message per link, so each directed link
    ``src -> dst`` must draw exactly that many values — a crashed
    source's links stop mid-stream, and drawing further would desync the
    link generators from the scalar path.  Each link draws from its own
    substream in :data:`STREAM_CHUNK`-sized chunks — the same calls, on
    the same generator, in the same order as
    :meth:`Transport._next_stream_latency` — so the values are
    bit-identical to what the scalar path would consume.  The consumed
    stream state is installed back into the transport, leaving it
    exactly as a scalar run would.  Lost messages are ``+inf``; the
    diagonal and never-sent rounds are ``+inf`` too and masked out by
    callers.
    """
    transport = run.transport
    model = transport._stream_base
    n = run.n
    rounds = run.max_rounds
    block = np.full((rounds, n, n), np.inf)
    placeholder = np.zeros(STREAM_CHUNK)
    for src in range(n):
        draws = int(per_src_rounds[src])
        if draws <= 0:
            continue
        chunks_needed = -(-draws // STREAM_CHUNK)  # ceil
        for dst in range(n):
            if src == dst:
                continue
            rng = model.link_stream(src, dst)
            chunks = [
                model.sample_link_batch(src, dst, placeholder, rng)
                for _ in range(chunks_needed)
            ]
            column = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            block[:draws, dst, src] = column[:draws]
            cursor = (draws - 1) % STREAM_CHUNK + 1
            transport._streams[(src, dst)] = [rng, chunks[-1], cursor]
    return block


def _bulk_drop(transport: Transport, cause: str, count: int) -> None:
    """Mirror ``count`` scalar ``_count_drop`` calls, creating the
    per-cause counter lazily exactly as the scalar path does (a
    zero-valued counter the scalar path never created would break
    snapshot equality)."""
    if not count:
        return
    counter = transport._drop_counters.get(cause)
    if counter is None:
        counter = transport._metrics.counter("transport.dropped", cause=cause)
        transport._drop_counters[cause] = counter
    counter.inc(count)


def run_batched(run: SyncRun, time_limit: float) -> SyncRunResult:
    """Execute an eligible ``run`` on the batched path.

    Writes the same observation state onto the nodes, the transport, the
    metrics registries, the oracle, and the simulator clock that the
    scalar event loop would have left behind —
    ``round_starts``/``round_ends``/``timely_receipts`` dicts,
    late-message counters, stream cursors and fault-policy state,
    ``messages_sent``/``lost``, counter and histogram totals — then
    delegates to :meth:`SyncRun._collect`, so the result (and the
    ``on_round_matrix`` observer replay) is assembled by the very same
    code as the scalar path.

    Not mirrored (documented divergence): per-process inboxes, the
    pending outgoing :class:`~repro.giraf.kernel.RoundOutput`, the
    simulator's ``events_processed``/pending-event bookkeeping, and the
    fault policy's transient ``last_drop_cause``; none of them feed
    :class:`~repro.sync.round_sync.SyncRunResult` or the metric totals.
    """
    n = run.n
    rounds = run.max_rounds
    times = _round_grid(run)
    assert times[-1] <= time_limit, "eligibility must pre-check the grid"

    starts = np.asarray(times[:-1])
    ends = np.asarray(times[1:])
    stop = times[-1]
    transport = run.transport
    plan = run.fault_plan
    policy = transport.stream_fault_policy

    # ------------------------------------------------------------------
    # Node-level crash schedule (permanent crashes only; eligibility
    # rejects recoveries and clock steps).
    # ------------------------------------------------------------------
    crash_time = np.full(n, np.inf)
    crash_events_fired = 0
    if plan is not None:
        run._faults_scheduled = True
        tau = run._plan_timeout
        for crash in plan.crashes:
            c = (crash.at_round - 1) * tau  # the exact scalar expression
            if c <= stop:
                crash_events_fired += 1
            if c < crash_time[crash.pid]:
                crash_time[crash.pid] = c
    # A crash event is *effective* only if the node is already running
    # when it fires; one scheduled before the (uniform) boot instant
    # finds the node not yet booted and does nothing.
    effective = (crash_time <= stop) & (crash_time >= starts[0])
    begun = np.full(n, rounds, dtype=np.int64)
    for pid in np.flatnonzero(effective):
        begun[pid] = min(
            rounds,
            1 + int(np.count_nonzero(starts[1:] < crash_time[pid])),
        )
    ended = np.where(effective, begun - 1, rounds)
    # Receives of a crashed node stop strictly before its crash instant.
    cut = np.where(effective, crash_time, np.inf)

    # ------------------------------------------------------------------
    # Pre-sample every link's latency stream (one draw per sent message,
    # dropped or not — the stream path's contract) and overlay the
    # plan's epoch-constant link faults.
    # ------------------------------------------------------------------
    latencies = _presample_links(run, begun)
    k_index = np.arange(1, rounds + 1)
    off_diag = ~np.eye(n, dtype=bool)
    sent = (k_index[:, None, None] <= begun[None, None, :]) & off_diag

    if plan is not None:
        # The plan's round grid is anchored to wall time through the
        # construction timeout; grid round k maps to the plan round
        # covering its start instant — the same expression
        # PlanLinkFaults.round_of evaluates per message.
        pr = np.maximum(
            1, (starts // run._plan_timeout).astype(np.int64) + 1
        )
        # Fault state per grid round, read off the plan's epochs.
        view = plan.compiled
        epoch = view.epochs_of(pr)
        down = view.down[epoch]
        cross = view.cut[epoch]
        slow = view.slow[epoch]
        burst_any = view.burst_any[epoch]
        crash_drop = sent & (down[:, :, None] | down[:, None, :])
        part_drop = sent & ~crash_drop & cross
        burst_drop = np.zeros_like(sent)
        if burst_any.any():
            # Burst decisions ride the policy's own per-link counters and
            # SHA draws: calling the installed policy for exactly the
            # messages whose scalar drop() call would reach the burst
            # loop — per link, in round order — reproduces counters,
            # draws, activations and metrics verbatim.
            candidate = sent & ~crash_drop & ~cross & burst_any[:, None, None]
            for src in range(n):
                for dst in range(n):
                    if src == dst:
                        continue
                    for k in np.flatnonzero(candidate[:, dst, src]):
                        if policy.drop(src, dst, float(starts[k])):
                            burst_drop[k, dst, src] = True
        fault_drop = crash_drop | part_drop | burst_drop
        factor = slow[:, :, None] * slow[:, None, :]
        values = np.where(factor != 1.0, latencies * factor, latencies)
        # Fault-episode activation telemetry the skipped scalar drop()
        # calls would have produced, deduplicated the same way.
        if crash_events_fired:
            run.metrics.counter("faults.activations", kind="crash").inc(
                crash_events_fired
            )
        last_pr = int(pr[-1])
        for index, crash in enumerate(plan.crashes):
            # Messages touch every process in every round (the healthy
            # majority keeps broadcasting), so a crash-link episode fires
            # iff the run reaches its first down round.
            if last_pr >= crash.at_round:
                policy._activate("crash-link", index)
        if part_drop.any():
            part_rounds = part_drop.any(axis=(1, 2))
            for q in np.unique(pr[part_rounds]):
                for index, partition in enumerate(plan.partitions):
                    if partition.active_at(int(q)):
                        policy._activate("partition", index)
    else:
        fault_drop = np.zeros_like(sent)
        values = latencies

    deliverable = sent & ~fault_drop & np.isfinite(values)
    natural_lost = sent & ~fault_drop & np.isinf(values)
    arrival = starts[:, None, None] + values

    # ------------------------------------------------------------------
    # The event queue's tie rules, in closed form.
    # ------------------------------------------------------------------
    # [dst, src] orientation: rows are receivers, columns senders.
    src_before_dst = np.arange(n)[None, :] < np.arange(n)[:, None]
    end_col = ends[:, None, None]
    received = deliverable & (arrival < cut[None, :, None])
    timely = received & (
        (arrival < end_col) | ((arrival == end_col) & src_before_dst)
    )
    countable = (arrival < stop) | (
        (arrival == stop) & (k_index[:, None, None] < rounds)
    )
    late = received & ~timely & countable
    late_counts = late.sum(axis=(0, 2))

    # The scalar loop stops at the last surviving node's final timer;
    # deliveries landing exactly then were scheduled after it (and never
    # fire) iff they are round-R sends of a higher-pid (crashed) node.
    last_alive = int(np.flatnonzero(~effective).max())
    fired = deliverable & (
        (arrival < stop)
        | (
            (arrival == stop)
            & (
                (k_index[:, None, None] < rounds)
                | (np.arange(n)[None, None, :] <= last_alive)
            )
        )
    )

    # ------------------------------------------------------------------
    # Per-node observation state (what _collect and the tests read).
    # ------------------------------------------------------------------
    for node in run.nodes:
        pid = node.process.pid
        b = int(begun[pid])
        e = int(ended[pid])
        receipts: dict[int, set[int]] = {}
        timely_to = timely[:, pid, :]
        for k in range(1, b + 1):
            srcs = set(np.flatnonzero(timely_to[k - 1]).tolist())
            srcs.add(pid)
            receipts[k] = srcs
        node.timely_receipts = receipts
        node.round_starts = {k: times[k - 1] for k in range(1, b + 1)}
        node.round_ends = {k: times[k] for k in range(1, e + 1)}
        node.late_messages = int(late_counts[pid])
        node.jumps = 0
        node.running = False
        node.decision_round = None
        if effective[pid]:
            node.crashed = True
            node.crashed_permanently = True
            node.process.round = b
            node.process.algorithm.rounds_computed = e
        else:
            node.process.round = rounds + 1
            node.process.algorithm.rounds_computed = rounds
        node._rounds_started.inc(b)
        node._timeout_fires.inc(e)
        if late_counts[pid]:
            node._late_counter.inc(int(late_counts[pid]))

    # ------------------------------------------------------------------
    # Transport state and telemetry, bulk-equivalent to per-send work.
    # ------------------------------------------------------------------
    sent_total = int(begun.sum()) * (n - 1)
    transport.messages_sent += sent_total
    transport._sent_counter.inc(sent_total)
    lost_total = int(fault_drop.sum()) + int(natural_lost.sum())
    transport.messages_lost += lost_total
    if plan is not None:
        _bulk_drop(transport, "crash", int(crash_drop.sum()))
        _bulk_drop(transport, "partition", int(part_drop.sum()))
        _bulk_drop(transport, "loss-burst", int(burst_drop.sum()))
    _bulk_drop(transport, "link", int(natural_lost.sum()))
    delivered_total = int(fired.sum())
    if delivered_total:
        transport._delivered_counter.inc(delivered_total)
    # Histogram observations happen at send time, in send order:
    # round-major, then sender pid, then ascending destination.
    values_by_send = np.transpose(values, (0, 2, 1))
    mask_by_send = np.transpose(deliverable, (0, 2, 1))
    transport._latency_hist.observe_many(values_by_send[mask_by_send])

    # ------------------------------------------------------------------
    # Oracle and observer replay: the boot queries, then each round's
    # per-ender row observations and queries, in scalar order.  The
    # heartbeat detector is row-local, so bulk row observation followed
    # by in-order queries is bit-equivalent to the interleaved scalar
    # sequence.  Skipped entirely when nothing listens.
    # ------------------------------------------------------------------
    oracle = run.nodes[0].oracle
    inner = oracle._base if isinstance(oracle, ChurningOracle) else oracle
    wants_oracle = type(inner) is not NullOracle
    wants_notify = any(
        getattr(observer, "on_oracle", None) is not None
        for observer in run.observers
    )
    if wants_oracle or wants_notify:
        for node in run.nodes:
            output = oracle.query(node.process.pid, 0)
            node._notify("on_oracle", node.process.pid, 0, output)
        observe_rows = getattr(oracle, "observe_rows", None)
        ends_per_round = [
            [pid for pid in range(n) if k <= ended[pid]]
            for k in range(1, rounds + 1)
        ]
        for k in range(1, rounds + 1):
            enders = ends_per_round[k - 1]
            if not enders:
                continue
            if observe_rows is not None:
                observe_rows(k, timely[k - 1], rows=enders)
            for pid in enders:
                output = oracle.query(pid, k)
                run.nodes[pid]._notify("on_oracle", pid, k, output)

    # Leave the simulator where the scalar loop stops: at the last
    # surviving round-end timer, with the never-fired events discarded.
    run.simulator.drain()
    run.simulator.fast_forward(stop)
    return run._collect()
