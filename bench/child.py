"""One fresh process of the benchmark: set up, and optionally run one step.

    python3 bench/child.py setup
    python3 bench/child.py step WORKLOAD SEED TRACE

`setup` times importing cilab, `build_geometry`, `make_spatial_profiles`
and `make_temporal`. `step` does the same set-up, generates the seeded
inputs, runs one step of the workload and checks its outputs; with TRACE 1
it wraps the step in spans and tracemalloc, writes the spans to
bench/out/, then runs the kernel microbenchmarks and reports the
per-layer metrics. The last line of stdout is one JSON object. Exceptions
other than a typed check rejection propagate and exit non-zero.
"""

import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up():
    """Import cilab from this checkout and build what every step shares."""
    sys.path.insert(0, SRC)
    start = perf_counter()
    import cilab
    # every module a step uses, so set-up time covers importing them all
    from cilab import (amplitudes, blocks, geometry, mollify,  # noqa: F401
                       perturbations, profiles)
    imported = perf_counter()
    if not os.path.abspath(cilab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cilab was imported from {cilab.__file__}, not {SRC}")
    geom = geometry.build_geometry()
    built = perf_counter()
    base = profiles.make_spatial_profiles()
    spatial = perf_counter()
    temporal = profiles.make_temporal(profiles.BumpTrain(m0=2), tau=1,
                                      sigma=1, n_t=16)
    end = perf_counter()
    times = {"setup_s": end - start, "import_s": imported - start,
             "geometry.build_geometry.s": built - imported,
             "profiles.make_temporal.s": end - spatial}
    return (geom, base, temporal), times


def step(name: str, seed: int, trace: bool) -> dict:
    shared, times = set_up()
    import numpy as np
    import scipy

    import workloads
    from cilab.grid import fft_workers

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[name]
    arrays = workloads.make_inputs(work, seed)
    inputs_rss_mb = _peak_rss_mb()

    tracer = None
    if trace:
        import tracemalloc

        import tracing
        tracer = tracing.Tracer()
        tracer.install_fft()
        tracer.install_spans()
        tracemalloc.start()
    try:
        result = workloads.run_step(work, workloads.Setup(*shared), arrays)
    finally:
        if tracer is not None:
            tracemalloc.stop()
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    out = {
        "workload": name, "seed": seed, "trace": int(trace),
        "step_s": result.step_s, "step_cpu_s": result.step_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "inputs_rss_mb": inputs_rss_mb,
        "checks_attempted": list(result.attempted),
        "checks_failed": result.failed,
        "problems": workloads.verify_outputs(work, result),
        "fft_workers": fft_workers(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        **times,
    }
    if tracer is not None:
        out["spans_file"] = _write_spans(tracer.spans, name, seed)
        out["per_layer"] = _per_layer(tracer, work, seed, result, times)
    return out


def _per_layer(tracer, work, seed, result, times):
    import workloads

    metrics = tracer.metrics(work.verified)
    for key in ("geometry.build_geometry.s", "profiles.make_temporal.s"):
        metrics[key] = times[key]
    for check in workloads.CHECK_NAMES:
        metrics[f"check.{check}.failed"] = int(check in result.failed)
    metrics.update(_kernels(work, seed, result))
    metrics["trace.overhead_s"] = tracer.overhead_s
    return metrics


def _write_spans(spans, name, seed):
    """Write the step's spans, [name, start, end, parent index], once."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans_{name}_{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    return os.path.relpath(path, ROOT)


def _kernels(work, seed, result):
    """Kernel microbenchmarks after the step, tracing off but FFT counters on;
    the step's parts are released first."""
    import inputs
    import kernels
    import tracing

    result.parts.clear()
    draws = inputs.Draws(seed)
    arrays = {"u": inputs.random_divfree(draws, 16, work.n_x),
              "r": inputs.random_tensor(draws, 16, work.n_x)}
    counter = tracing.Tracer()
    counter.install_fft()
    try:
        return kernels.run(work, arrays, result.amps, result.blocks, counter)
    finally:
        counter.uninstall()


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 1:
        out = set_up()[1]
    elif argv[:1] == ["step"] and len(argv) == 4:
        out = step(argv[1], int(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(__doc__)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
