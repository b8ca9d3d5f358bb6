"""Golden digests of the fault classes only the scalar event loop runs.

Crash *recovery* and clock steps move nodes off the common round grid,
so the batched round-sync path refuses them and nothing else in the
suite compares their runs against a second implementation.  Clock steps
also reach into the event queue directly (they read a pending timer's
``Event.time`` and ``cancel()`` it).  These digests pin every output of
such runs — the :class:`~repro.sync.round_sync.SyncRunResult`, each
node's round start/end times and timely receipts, and the metric
snapshot — so a rewrite of the event loop, the transport or the Ω
detector that moves a single bit fails here.

The runs use the robustness phase's own event-stack build
(:func:`~repro.experiments.robustness.event_stack_builder`) at paper
scale and seed 2007.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.robustness import canonical_plans, event_stack_builder
from repro.faults.plan import ClockStep, FaultPlan
from repro.sim.rng import derive_seed
from repro.sync.batch import RESULT_FIELDS

N = 8
ROUNDS = 300
TIMEOUT = 0.21
SEED = 2007

GOLDEN = {
    "clock step": (
        "6ccdb06139d6f5e527dba925ffd06bc9f26a441a8480318c7a0ded2a95997f7e"
    ),
    "crash+recover": (
        "5e54088be386dc417e81e8a051e67f02820df9924b8068654e2a6ea30ae07ad4"
    ),
}


def clock_step_plan() -> FaultPlan:
    """A forward and a backward step on two nodes, mid-run."""
    return FaultPlan(
        n=N,
        clock_steps=(
            ClockStep(pid=3, at_round=40, offset=0.05),
            ClockStep(pid=6, at_round=90, offset=-0.08),
        ),
        seed=derive_seed(SEED, "faults:clock-step"),
    )


def plan_for(name: str) -> FaultPlan:
    if name == "clock step":
        return clock_step_plan()
    return canonical_plans(N, ROUNDS, SEED)[name]


def run_digest(run, metrics, result) -> str:
    """SHA-256 over every output of a finished run, floats by ``repr``."""
    parts = [repr(result.n)]
    for name in RESULT_FIELDS:
        value = getattr(result, name)
        if name == "matrices":
            value = hashlib.sha256(
                b"".join(np.asarray(m, dtype=bool).tobytes() for m in value)
            ).hexdigest() + f":{len(value)}"
        elif name == "correct":
            value = sorted(value)
        elif name == "sync_error":
            value = [float(x) for x in value]
        parts.append(f"{name}={value!r}")
    for node in run.nodes:
        parts.append(repr(sorted(node.round_starts.items())))
        parts.append(repr(sorted(node.round_ends.items())))
        parts.append(
            repr(sorted((k, sorted(v)) for k, v in node.timely_receipts.items()))
        )
    parts.append(json.dumps(metrics.snapshot(), sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scalar_only_fault_class_matches_golden(name):
    build = event_stack_builder(N, ROUNDS, TIMEOUT, seed=SEED)
    run, metrics = build(plan_for(name))
    result = run.run()
    assert run.executed_mode == "scalar", "the class must stay scalar-only"
    assert run_digest(run, metrics, result) == GOLDEN[name]
