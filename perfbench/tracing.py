"""Outside-in layer tracing for the traced run.

The tracer wraps public functions and methods of ``repro`` at run time,
from the benchmark's side; ``src/`` carries no instrumentation.  A timed
wrapper records a span (name, start, end, parent) in flat in-memory
arrays; a count-only wrapper just bumps a counter.  Count-only wrappers
sit on the entry points called more than ~100k times per run
(``FaultPlan.partitioned``, ``PlanLinkFaults.drop``, ``Transport.send``)
and on the per-process, per-round consensus ``compute`` and Ω ``observe``
calls, so the wrapping cost stays small against the layer times.  Their
time counts to the caller: ``giraf``, or ``sim``/``sync``.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.  Work a layer does in code that is not
wrapped counts to the innermost wrapped caller: the event loop's
callbacks count to ``sim``, a predicate called from ``analysis`` to
``models`` only when it enters through a wrapped entry point.

Wrappers that share a count key guard each other against delegation.  A
timed wrapper called directly from an open span with its own key (its
count, or its name when it counts nothing) passes straight through: a
profile wrapper delegating to its inner profile, ``decision_stats``
calling ``decision_stats_from_vector``.  A count-only wrapper passes
through while any wrapper with its count is open: a WLM simulation
algorithm calling its inner algorithm's ``compute``.  So every count is
the number of entries from outside the entry points that share it.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import importlib
import inspect
import pkgutil
import sys
import time
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

@dataclass(frozen=True)
class Hook:
    """One wrapping rule.

    ``modules`` is a module name, or a package name ending in ``.*`` for
    every module below it.  ``target`` is a module-level function name,
    ``*`` for every public function defined in the module, or
    ``Class.method`` where ``Class`` may be ``*`` for every class of the
    module that defines ``method`` itself.
    """

    layer: str
    modules: str
    target: str
    count: Optional[str] = None
    timed: bool = True
    probe: Optional[Callable[["Tracer", tuple, Any], None]] = None


def _events_probe():
    seen: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()

    def probe(tracer: "Tracer", args: tuple, result: Any) -> None:
        simulator = args[0]
        processed = simulator.events_processed
        tracer.counts["sim.events_processed"] += processed - seen.get(simulator, 0)
        seen[simulator] = processed

    return probe


def _batch_probe(tracer: "Tracer", args: tuple, result: Any) -> None:
    if args[0].executed_mode == "batch":
        tracer.counts["sync.batch_runs"] += 1


def _switches_probe(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["adaptive.switches"] += result.adaptive.switches


def hooks() -> tuple[Hook, ...]:
    return (
        Hook("net", "repro.net.*", "*.sample_trace_batch", "net.trace_batch_calls"),
        Hook("net", "repro.net.*", "*.sample_latency", "net.sample_latency_calls"),
        Hook("net", "repro.net.*", "*.sample_link_batch"),
        Hook("net", "repro.net.*", "*.sample_round_latencies"),
        Hook("net", "repro.net.ping", "*"),
        Hook("net", "repro.net.planetlab", "planetlab_profile"),
        Hook("models", "repro.models.registry", "TimingModel.satisfied",
             "models.scalar_calls"),
        Hook("models", "repro.models.registry", "TimingModel.satisfied_batch",
             "models.batch_calls"),
        Hook("models", "repro.models.gsr", "*"),
        Hook("experiments", "repro.experiments.figures", "*"),
        Hook("experiments", "repro.experiments.measurement", "*"),
        Hook("experiments", "repro.experiments.robustness", "*"),
        Hook("experiments", "repro.experiments.run_all", "headline_numbers"),
        Hook("experiments", "repro.experiments.decision", "decision_stats",
             "experiments.decision_stats_calls"),
        Hook("experiments", "repro.experiments.decision",
             "decision_stats_from_vector", "experiments.decision_stats_calls"),
        Hook("analysis", "repro.analysis.*", "*"),
        Hook("sim", "repro.sim.events", "Simulator.run", probe=_events_probe()),
        Hook("sim", "repro.sim.transport", "Transport.send", "sim.sends",
             timed=False),
        Hook("sync", "repro.sync.round_sync", "SyncRun.run", "sync.runs",
             probe=_batch_probe),
        Hook("faults", "repro.faults.plan", "FaultPlan.mask", "faults.mask_calls"),
        Hook("faults", "repro.faults.plan", "FaultPlan.rng", "faults.rng_calls"),
        Hook("faults", "repro.faults.plan", "FaultPlan.apply_to_matrices"),
        Hook("faults", "repro.faults.plan", "FaultPlan.partitioned",
             "faults.partitioned_calls", timed=False),
        Hook("faults", "repro.faults.event", "PlanLinkFaults.drop",
             "faults.drop_calls", timed=False),
        Hook("faults", "repro.faults.adversary", "StabilityWindowAdversary.to_plan"),
        Hook("giraf", "repro.giraf.runner", "LockstepRunner.run", "giraf.runs"),
        # Count-only: called per process per round, so their time stays
        # with the caller (``giraf``, or ``sim``/``sync`` on the event stack).
        Hook("consensus", "repro.consensus.*", "*.compute",
             "consensus.compute_calls", timed=False),
        Hook("consensus", "repro.core.*", "*.compute", "consensus.compute_calls",
             timed=False),
        Hook("oracles", "repro.oracles.*", "*.observe", "oracles.observe_calls",
             timed=False),
        Hook("oracles", "repro.oracles.*", "*.observe_row", "oracles.observe_calls",
             timed=False),
        Hook("oracles", "repro.oracles.*", "*.observe_rows",
             "oracles.observe_calls", timed=False),
        Hook("smr", "repro.smr.replica", "ReplicaGroup.run_slot", "smr.slots"),
        Hook("adaptive", "repro.adaptive.scenario", "run_adaptive_scenario",
             probe=_switches_probe),
        Hook("adaptive", "repro.adaptive.scenario", "faulted_latencies",
             "adaptive.faulted_latencies_calls"),
        Hook("adaptive", "repro.adaptive.scenario", "adaptive_report"),
        Hook("adaptive", "repro.adaptive.live", "run_live_extraction"),
        Hook("adaptive", "repro.adaptive.live", "render_live_extraction"),
        Hook("adaptive", "repro.adaptive.extractor", "TimelinessExtractor.observe"),
        Hook("adaptive", "repro.adaptive.extractor",
             "TimelinessExtractor.estimates"),
        Hook("adaptive", "repro.adaptive.policy", "AdaptivePolicy.begin_slot"),
    )


class Tracer:
    """Spans in flat arrays (index = span id) plus exact counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        #: Seconds to take out of a span's self time, by span id: time the
        #: calibration sampler spent inside it.
        self.excluded: Counter[int] = Counter()
        # The stack holds (span id, guard key) of the open spans; -1 is the
        # virtual root.
        self._stack: list[tuple[int, str]] = [(-1, "")]
        #: Count keys of the count-only wrappers currently open.
        self._open_counts: set[str] = set()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` out of the innermost open span's self time.

        Called from a signal handler, so it only reads the stack; it never
        appends to the span arrays, which the interrupted code may be
        in the middle of updating.
        """
        self.excluded[self._stack[-1][0]] += seconds

    def span(self, name: str, layer: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside a span (the benchmark's phase spans)."""
        return self.timed(name, layer, None, None, fn)()

    def timed(self, name, layer, count, probe, fn):
        name_id = self._name_id(name, layer)
        key = count or name
        stack = self._stack
        counts = self.counts
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][1] == key:
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0])
            span_start.append(clock())
            span_end.append(0.0)
            stack.append((index, key))
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def counted(self, count, fn):
        counts = self.counts
        open_counts = self._open_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count in open_counts:
                return fn(*args, **kwargs)
            counts[count] += 1
            open_counts.add(count)
            try:
                return fn(*args, **kwargs)
            finally:
                open_counts.discard(count)

        return wrapper

    # ------------------------------------------------------------------
    def install(self, rules: tuple[Hook, ...]) -> None:
        """Apply every rule."""
        for rule in rules:
            for module in _modules(rule.modules):
                for owner, attr, fn in _targets(module, rule.target):
                    if owner is module:
                        name = f"{module.__name__}.{attr}"
                    else:
                        name = f"{module.__name__}.{owner.__qualname__}.{attr}"
                    if rule.timed:
                        replacement = self.timed(
                            name, rule.layer, rule.count, rule.probe, fn
                        )
                    else:
                        replacement = self.counted(rule.count, fn)
                    if owner is module:
                        _rebind_everywhere(fn, replacement)
                    else:
                        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per layer (and per phase span), in raw seconds."""
        if not self.span_start:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        own = duration - children
        for index, seconds in self.excluded.items():
            if index >= 0:
                own[index] -= seconds
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        totals: Counter[str] = Counter()
        for name_id, seconds in enumerate(per_name):
            totals[self.layers[name_id]] += float(seconds)
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV: one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tlayer\tstart_s\tend_s\tparent\n")
            for index in range(len(self.span_start)):
                name_id = self.span_name[index]
                out.write(
                    f"{index}\t{self.names[name_id]}\t{self.layers[name_id]}\t"
                    f"{self.span_start[index]:.9f}\t{self.span_end[index]:.9f}\t"
                    f"{self.span_parent[index]}\n"
                )


def _modules(spec: str):
    if not spec.endswith(".*"):
        return [importlib.import_module(spec)]
    package = importlib.import_module(spec[:-2])
    found = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        found.append(importlib.import_module(info.name))
    return found


def _targets(module, target: str):
    """(owner, attribute, function) triples a rule selects in ``module``."""
    defined_here = lambda obj: getattr(obj, "__module__", None) == module.__name__
    if "." not in target:
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and defined_here(obj)
                and fnmatch.fnmatchcase(attr, target)
                and not attr.startswith("_")
            ):
                yield module, attr, obj
        return
    class_pattern, method = target.split(".", 1)
    for attr, cls in vars(module).items():
        if (
            inspect.isclass(cls)
            and defined_here(cls)
            and fnmatch.fnmatchcase(attr, class_pattern)
            and inspect.isfunction(cls.__dict__.get(method))
        ):
            yield cls, method, cls.__dict__[method]


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` (its own
    definition and any ``from ... import`` copy) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
