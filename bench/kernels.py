"""Kernel microbenchmarks on a workload's grid.

Each kernel is called three times on fresh Field objects (so no cached
spectrum is reused) and reports the median seconds per call; the slice
kernels are timed over a sweep of every time slice. The first call also
counts, through the tracer's FFT wrappers, the points it transforms and
the bytes its FFTs read and write; those bytes are computed from array
sizes, not measured traffic, hence the `computed_` label.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from cilab import field, mollify, spectral_ops
from cilab.field import Field

import workloads

REPEATS = 3


def _time(call, per_call=1, tracer=None):
    """Median seconds per call; with a tracer, also the FFT points and
    computed bytes of the first call."""
    samples = []
    counts = (0, 0)
    for i in range(REPEATS):
        before = [tracer.fft_counts(rank) for rank in (3, 4)] if tracer else None
        start = perf_counter()
        call()
        samples.append((perf_counter() - start) / per_call)
        if tracer and i == 0:
            after = [tracer.fft_counts(rank) for rank in (3, 4)]
            counts = tuple(sum(a[k] - b[k] for a, b in zip(after, before))
                           for k in (1, 2))
    return statistics.median(samples), counts


def run(work, arrays, amps, block_sets, tracer) -> dict:
    """Seconds per call, FFT points and computed bytes per kernel.

    arrays holds a vector sample "u" and a tensor sample "r" on the
    workload's grid; amps and block_sets come from the step just run."""
    grid = work.grid
    u, r = arrays["u"], arrays["r"]
    fft_calls = {
        "to_spectral": lambda: field.to_spectral(u, grid),
        "grad": lambda: field.grad(Field(u, grid, _take=True)),
        "div_tensor": lambda: field.div_tensor(Field(r, grid, _take=True)),
        "leray": lambda: spectral_ops.leray(Field(u, grid, _take=True)),
        "mollify": lambda: mollify.mollify(Field(u, grid, _take=True),
                                           workloads.MOLLIFY_ELL),
    }
    out = {}
    for name, call in fft_calls.items():
        seconds, (points, nbytes) = _time(call, tracer=tracer)
        out[f"kernel.{name}.s"] = seconds
        out[f"kernel.{name}.fft_points"] = points
        out[f"kernel.{name}.computed_bytes"] = nbytes

    bs = block_sets[amps.geom.lambda_u[0].name]
    n_t = grid.n_t
    out["kernel.flow_slice.s"] = _time(
        lambda: [bs.flow_slice("velocity", j) for j in range(n_t)], n_t)[0]
    out["kernel.squared_slice.s"] = _time(
        lambda: [amps.squared_slice("velocity", j) for j in range(n_t)], n_t)[0]
    return out
