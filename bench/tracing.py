"""Spans around cilab's public functions, and FFT counters, for the traced run.

A `Tracer` patches wrappers onto module attributes and class methods of the
imported cilab modules (no file of the program changes) and onto the
`scipy.fft` entry points, split by transform rank. Each call opens a span
(name, start, end, parent) kept in memory; `totals()` aggregates them by
name once the run ends. Self time is a span's duration minus
the time its direct child spans cover. Stage-level spans also record their
peak `tracemalloc` memory above the level at entry. The time the wrappers
spend outside the wrapped calls is summed in `overhead_s`; tracemalloc's
own cost inside each allocation falls inside the wrapped calls and is not
part of it.
"""

from __future__ import annotations

import functools
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import scipy.fft

from cilab import amplitudes, blocks, field, mollify, perturbations, spectral_ops

MB = 1024.0 ** 2


@dataclass(frozen=True)
class Span:
    name: str
    sites: tuple  # (owner, attribute) pairs the wrapper is patched onto
    stage: bool  # also records peak tracemalloc memory
    fields: tuple  # per-layer metrics reported, "<name>.<field>"
    verified_only: bool = False  # runs only in a step that mollifies and verifies


def _stage(module, attr, fields, verified_only=False):
    return Span(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}",
                ((module, attr),), True, fields, verified_only)


# Every traced span and the metrics it reports. perturbations binds leray,
# p_neq0 and ddt at import, so their wrappers also go on those bindings.
SPANS = (
    _stage(mollify, "mollify", ("self_s", "calls", "peak_mb"), True),
    _stage(mollify, "commutator_stresses", ("self_s", "peak_mb"), True),
    _stage(amplitudes, "build_amplitudes", ("self_s", "peak_mb")),
    Span("amplitudes.squared_slice",
         ((amplitudes.AmplitudeSet, "squared_slice"),), False,
         ("self_s", "calls")),
    Span("amplitudes.squared_component_slice",
         ((amplitudes.AmplitudeSet, "squared_component_slice"),), False,
         ("self_s", "calls"), True),
    _stage(amplitudes, "verify_cancellation", ("self_s", "peak_mb"), True),
    _stage(blocks, "sample_blocks", ("self_s",)),
    Span("blocks.flow_slice", ((blocks.BlockSet, "flow_slice"),), False,
         ("self_s", "calls")),
    Span("blocks.profile_slice", ((blocks.BlockSet, "profile_slice"),), False,
         ("self_s", "calls")),
    *(_stage(perturbations, name, ("self_s", "peak_mb")) for name in (
        "principal_parts", "incompressibility_correctors",
        "temporal_correctors_t", "temporal_correctors_o")),
    *(_stage(perturbations, name, ("self_s", "peak_mb"), True) for name in (
        "verify_divfree_representation", "verify_temporal_balance",
        "verify_low_frequency_balance")),
    _stage(perturbations, "assemble_iterate", ("self_s",)),
    Span("spectral_ops.leray",
         ((perturbations, "leray"), (spectral_ops, "leray")), False,
         ("self_s", "calls")),
    Span("spectral_ops.p_neq0",
         ((perturbations, "p_neq0"), (spectral_ops, "p_neq0")), False,
         ("self_s", "calls")),
    Span("field.ddt", ((perturbations, "ddt"), (field, "ddt")), False,
         ("self_s", "calls"), True),
)

FFT_RANKS = (3, 4)

_FFT_ENTRIES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                "irfftn")

def _fft_rank(entry, x, args, kwargs):
    """Number of axes one scipy.fft call transforms."""
    if not entry.endswith("n"):
        return 1
    axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
    if axes is not None:
        return len(axes) if not isinstance(axes, int) else 1
    s = kwargs.get("s", args[0] if args else None)
    return len(s) if s is not None else x.ndim


class Tracer:
    """Records spans while installed; `uninstall` restores every patch."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.fft = {}  # rank -> [calls, points, computed bytes]
        self._stack = []
        self._peaks = []  # per open stage span: [entry level, running peak]
        self._peak_of = {}  # span index -> peak MB above entry
        self._patches = []
        self.overhead_s = 0.0  # wrapper time outside the wrapped calls

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _open_stage(self, name):
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1],
                                     tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._peaks.append([tracemalloc.get_traced_memory()[0], 0])
        return self._open(name)

    def _close_stage(self, idx):
        self._close(idx)
        entry, peak = self._peaks.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        self._peak_of[idx] = (peak - entry) / MB
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, stage):
        open_, close = ((self._open_stage, self._close_stage) if stage
                        else (self._open, self._close))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
                self._charge(idx, entered)
        return wrapper

    def _charge(self, idx, entered):
        """Add the wrapper time before a span's start and after its end."""
        _, start, end, _ = self.spans[idx]
        self.overhead_s += start - entered + perf_counter() - end

    def _wrap_fft(self, entry, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            entered = perf_counter()
            rank = _fft_rank(entry, x, args, kwargs)
            idx = tracer._open(f"fft.{rank}d")
            try:
                out = fn(x, *args, **kwargs)
            finally:
                tracer._close(idx)
            real = x if entry.startswith("r") else out
            acc = tracer.fft.setdefault(rank, [0, 0, 0])
            acc[0] += 1
            acc[1] += real.size
            acc[2] += x.nbytes + out.nbytes
            tracer._charge(idx, entered)
            return out
        return wrapper

    def install_fft(self):
        for entry in _FFT_ENTRIES:
            self._patch(scipy.fft, entry,
                        self._wrap_fft(entry, getattr(scipy.fft, entry)))

    def install_spans(self):
        for span in SPANS:
            for owner, attr in span.sites:
                self._patch(owner, attr, self._wrap(getattr(owner, attr),
                                                    span.name, span.stage))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ----------------------------------------------------------------

    def totals(self):
        """name -> {calls, s (total), self_s, peak_mb (above entry)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "peak_mb": 0.0})
            acc["calls"] += 1
            acc["s"] += end - start
            acc["self_s"] += end - start - child_time[i]
            acc["peak_mb"] = max(acc["peak_mb"], self._peak_of.get(i, 0.0))
        return out

    def fft_counts(self, rank):
        return tuple(self.fft.get(rank, (0, 0, 0)))

    def metrics(self, verified: bool) -> dict:
        """Per-layer metrics: calls, points and seconds of the FFTs of each
        rank in FFT_RANKS, then the fields of every span in SPANS. A span
        that never ran reads 0 only when it is verified_only and the step
        did not verify; otherwise its absence is an error."""
        totals = self.totals()
        out = {}
        for rank in FFT_RANKS:
            calls, points, _ = self.fft_counts(rank)
            if not calls:
                raise RuntimeError(f"no {rank}D transform was traced")
            out[f"fft.{rank}d.calls"] = calls
            out[f"fft.{rank}d.points"] = points
            out[f"fft.{rank}d.s"] = totals[f"fft.{rank}d"]["s"]
        for span in SPANS:
            row = totals.get(span.name)
            if row is None:
                if verified or not span.verified_only:
                    raise RuntimeError(f"span {span.name} never ran")
                row = dict.fromkeys(span.fields, 0)
            for name in span.fields:
                out[f"{span.name}.{name}"] = row[name]
        return out
