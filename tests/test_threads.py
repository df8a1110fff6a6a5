"""The slice pool: serial path, ordering, errors, nesting, BLAS pinning."""

import sys
import threading

import numpy as np
import pytest

from cilab import threads
from cilab.blocks import BlockParams, sample_blocks
from cilab.geometry import build_geometry
from cilab.grid import Grid4
from cilab.profiles import make_spatial_profiles
from cilab.threads import fft_workers, map_slices, thread_count

from oracles import corrector_sets, corrector_slice


def _in_thread(fn, timeout=60.0):
    """fn() on a fresh thread, joined with a timeout; its result."""
    out = {}
    worker = threading.Thread(target=lambda: out.setdefault("value", fn()))
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "the map did not finish"
    return out["value"]


class TestWidth:
    def test_default_is_the_usable_cpus_up_to_the_cap(self, monkeypatch):
        monkeypatch.delenv("CILAB_THREADS", raising=False)
        assert thread_count() == min(threads._cpus(),
                                     threads.DEFAULT_WIDTH_CAP) >= 1
        assert fft_workers() == thread_count()

    @pytest.mark.parametrize("raw,width", [("3", 3), ("0", 1), ("-2", 1),
                                           ("many", 1)])
    def test_variable_sets_the_width(self, monkeypatch, raw, width):
        monkeypatch.setenv("CILAB_THREADS", raw)
        assert thread_count() == width


class TestMap:
    def test_serial_path_runs_inline(self, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "1")
        before = threading.active_count()
        names = map_slices(lambda j: threading.current_thread().name, range(4))
        assert names == [threading.current_thread().name] * 4
        assert threading.active_count() == before

    def test_results_come_back_in_slice_order(self, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "3")
        got = map_slices(lambda j: (j, fft_workers()), [5, 1, 4, 2, 3])
        assert got == [(j, 1) for j in (5, 1, 4, 2, 3)]

    def test_first_failing_slice_raises(self, monkeypatch):
        def fail_late_slices(j):
            if j >= 3:
                raise ValueError(f"slice {j}")
            return j

        monkeypatch.setenv("CILAB_THREADS", "4")
        with pytest.raises(ValueError, match="^slice 3$"):
            map_slices(fail_late_slices, range(8))

    def test_nested_map_runs_inline(self, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "2")

        def inner(j):
            name = threading.current_thread().name
            return name, map_slices(
                lambda k: threading.current_thread().name, range(3))

        def outer():
            return threading.current_thread().name, map_slices(inner, range(4))

        caller, got = _in_thread(outer)
        for name, names in got:
            # the calling thread drains slices beside the pool threads
            assert name.startswith("cilab-slice") or name == caller
            assert names == [name] * 3

    def test_blas_thread_count_is_restored(self, monkeypatch):
        blas = threads._handles()[0]
        if blas is None:
            pytest.skip("no OpenBLAS thread-count handle in this process")
        get, put = blas
        saved = get()
        monkeypatch.setenv("CILAB_THREADS", "2")
        try:
            put(2)
            inside = map_slices(lambda j: get(), range(4))
            assert inside == [1] * 4
            assert get() == 2
        finally:
            put(saved)

    def test_serial_map_pins_blas_to_one_thread(self, monkeypatch):
        # a threaded OpenBLAS takes milliseconds for the small products of
        # one slice that one thread does in a fraction of one
        blas = threads._handles()[0]
        if blas is None:
            pytest.skip("no OpenBLAS thread-count handle in this process")
        get, put = blas
        saved = get()
        monkeypatch.setenv("CILAB_THREADS", "1")
        try:
            put(2)
            assert map_slices(lambda j: get(), range(3)) == [1] * 3
            assert get() == 2
        finally:
            put(saved)

    def test_lazy_block_caches_fill_consistently(self, monkeypatch):
        # more threads than cores and a short switch interval: every slice
        # of a fresh block set, whose tables fill lazily from several
        # threads at once, must equal the serially sampled one
        grid = Grid4(16, 38)
        frame = build_geometry().lambda_u[0]
        params = BlockParams(lam=1, mu=0.2, n_conc_harmonics=1)
        base = make_spatial_profiles()

        def samples(blocks, correctors, j):
            # the correctors' block sets fill their own tables lazily too
            return [blocks.flow_slice("velocity", j),
                    corrector_slice(correctors, "velocity", j),
                    corrector_slice(correctors, "magnetic", j)]

        monkeypatch.setenv("CILAB_THREADS", "1")
        serial = sample_blocks(frame, params, grid, base)
        want = [samples(serial, corrector_sets(serial), j)
                for j in range(grid.n_t)]
        monkeypatch.setenv("CILAB_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                fresh = sample_blocks(frame, params, grid, base)
                correctors = corrector_sets(fresh)
                got = _in_thread(lambda: map_slices(
                    lambda j: samples(fresh, correctors, j),
                    range(grid.n_t)))
                for j in range(grid.n_t):
                    for a, b in zip(got[j], want[j]):
                        assert np.array_equal(a, b), j
        finally:
            sys.setswitchinterval(interval)

