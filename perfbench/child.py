"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` from the root of a checkout::

    python perfbench/child.py <workload> <seed> 0
    python perfbench/child.py <workload> <seed> 1 <span file>

Prints one JSON object on its last stdout line: the set-up window and
one window per phase (wall time net of calibration, and the calibration
samples taken inside it), the full kernels run at the phase boundaries,
peak RSS, the correctness checks and, when traced, the layer self times
and counts.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import calib
import workloads


def main(argv: list[str]) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    workload = workloads.WORKLOADS[name]
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))

    with calib.Sampler() as sampler:
        boundaries = [sampler.boundary()]
        window = sampler.window()
        import repro.experiments.run_all  # noqa: F401  (every public entry point)

        state = workload.setup(seed)
        setup = window.close()
        boundaries.append(sampler.boundary())

        if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"repro imported from {repro.__file__}, not {src}")
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(tracing.hooks())
            sampler.on_busy = tracer.exclude

        phases = {}
        for phase, run_phase in workload.phases:
            window = sampler.window()
            if tracer is None:
                run_phase(state)
            else:
                tracer.span(f"phase.{phase}", "phase", lambda: run_phase(state))
            phases[phase] = window.close()
            boundaries.append(sampler.boundary())

    record = {
        "setup": setup,
        "phases": phases,
        "boundary_ms": boundaries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": workload.checks(state),
    }
    if tracer is not None:
        record["self_s"] = tracer.self_times()
        record["counts"] = dict(tracer.counts)
        tracer.write(Path(argv[3]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
