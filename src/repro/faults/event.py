"""Fault injection for the event-driven stack.

The event-driven runs have no global round counter — nodes cut rounds
with local timers — so the plan's round timeline is mapped onto
simulation time through the run's timeout: round ``k`` covers the window
``[(k-1) * timeout, k * timeout)``, the same back-to-back idealization
the measurement figures use.

:class:`PlanLinkFaults` answers the :class:`~repro.sim.faultlink.LinkFaults`
protocol from a :class:`~repro.faults.plan.FaultPlan`: partitions,
frozen processes and loss bursts drop messages, slow-node episodes
stretch latencies.  Burst drops are deterministic: the decision for the
``i``-th message a link carries during burst windows comes from
``SHA-256(seed, link, i)``, never from shared random state, so a rerun —
or a differently-ordered event interleaving that sends the same messages
per link — sees the same realization.

Node-level faults (crash, recovery, clock steps) and leader churn cannot
be expressed on the wire; :class:`~repro.sync.round_sync.SyncRun` takes
the plan directly and drives its nodes' crash/recover/clock-step hooks
(see ``fault_plan`` there).  :func:`faulty_transport_factory` builds the
matching transport.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.faults.plan import FaultPlan
from repro.obs.recorder import RunRecorder
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.events import Simulator
from repro.sim.faultlink import FaultyLinkModel
from repro.sim.rng import derive_seed
from repro.sim.transport import LinkModel, Transport

#: One uniform draw from SHA-256 output: 53 bits into [0, 1).
_DENOMINATOR = float(1 << 53)


def _uniform(seed: int, name: str) -> float:
    """A deterministic uniform in [0, 1) for ``(seed, name)``."""
    return (derive_seed(seed, name) >> 11) / _DENOMINATOR


class PlanLinkFaults:
    """A :class:`FaultPlan`, viewed per message by the transport.

    ``last_drop_cause`` names why the most recent :meth:`drop` returned
    ``True`` (``"crash"``, ``"partition"`` or ``"loss-burst"``), and is
    ``None`` after a pass verdict.  The classification must happen inside
    the one :meth:`drop` call per message because the burst counters
    advance per query — asking twice would change the realization.

    When ``metrics`` is given, the first message affected by each
    distinct fault episode increments ``faults.activations`` labelled by
    kind, so a run's telemetry shows which parts of the plan actually
    fired.
    """

    def __init__(
        self,
        plan: FaultPlan,
        timeout: float,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.plan = plan
        self.timeout = timeout
        self._burst_counters: dict[tuple[int, int], int] = {}
        self.last_drop_cause: Optional[str] = None
        self._metrics = registry_or_null(metrics)
        self._seen_activations: set[tuple[str, int]] = set()

    def _activate(self, kind: str, index: int) -> None:
        if (kind, index) in self._seen_activations:
            return
        self._seen_activations.add((kind, index))
        self._metrics.counter("faults.activations", kind=kind).inc()

    def round_of(self, now: float) -> int:
        """The 1-based plan round covering simulation time ``now``."""
        return max(1, int(now // self.timeout) + 1)

    def drop(self, src: int, dst: int, now: float) -> bool:
        round_number = self.round_of(now)
        plan = self.plan
        view = plan.compiled
        epoch = bisect_right(view.starts, round_number) - 1
        self.last_drop_cause = None
        down = view.down_sets[epoch]
        if src in down or dst in down:
            self.last_drop_cause = "crash"
            for index, crash in enumerate(plan.crashes):
                if crash.pid in (src, dst) and crash.down_at(round_number):
                    self._activate("crash-link", index)
            return True
        if view.cut_lists[epoch][dst][src]:
            self.last_drop_cause = "partition"
            for index, partition in enumerate(plan.partitions):
                if partition.active_at(round_number):
                    self._activate("partition", index)
            return True
        for index in view.bursts[epoch]:
            burst = plan.loss_bursts[index]
            count = self._burst_counters.get((src, dst), 0)
            self._burst_counters[(src, dst)] = count + 1
            draw = _uniform(
                plan.seed, f"faults:burst:{index}:{src}:{dst}:{count}"
            )
            if draw < burst.drop_prob:
                self.last_drop_cause = "loss-burst"
                self._activate("loss-burst", index)
                return True
        return False

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        view = self.plan.compiled
        epoch = bisect_right(view.starts, self.round_of(now)) - 1
        slow = view.slow_lists[epoch]
        return slow[src] * slow[dst]


def install_plan(
    transport: Transport,
    plan: FaultPlan,
    timeout: float,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Wrap ``transport``'s link model with the plan's link-level faults."""
    transport.link_model = FaultyLinkModel(
        transport.link_model, PlanLinkFaults(plan, timeout, metrics=metrics)
    )


def faulty_transport_factory(
    plan: FaultPlan,
    link_model: LinkModel,
    timeout: float,
    trace: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    recorder: Optional[RunRecorder] = None,
) -> Callable[[Simulator], Transport]:
    """A ``transport_factory`` (as :class:`SyncRun` expects) whose
    transports carry the plan's link-level faults."""

    def factory(simulator: Simulator) -> Transport:
        transport = Transport(
            simulator, link_model, trace=trace, metrics=metrics, recorder=recorder
        )
        install_plan(transport, plan, timeout, metrics=metrics)
        return transport

    return factory
