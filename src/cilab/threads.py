"""Thread counts, and the one slice pool the per-time-slice loops run on.

Every spatial operator of a step acts on each time slice alone, so the
slice loops of the builders, the verifiers, the amplitudes, the slice-wise
projections, the mollifier and the commutators go through `map_slices`.
A map is `thread_count()` threads wide: `CILAB_THREADS`, by default the
number of CPUs this process may run on, but at most `DEFAULT_WIDTH_CAP`.
The calling thread takes slices beside `thread_count() - 1` pool threads.
Each thread keeps one slice of temporaries in flight, so peak memory grows
with the width; a wider pool is asked for explicitly.

While a map runs, each scipy.fft transform in it gets one worker and a
nested map runs inline; outside, transforms get `thread_count()` workers.
numpy's OpenBLAS is pinned to one thread at every width (the slices fill
the cores, and a threaded OpenBLAS is slow on one slice's small products)
and its previous count is restored afterwards. After the map, glibc's
`malloc_trim(0)` returns the free pages inside every malloc arena, but
not the top chunk of a pool thread's arena: glibc shrinks that only once
it exceeds twice its adaptive mmap threshold. So the largest per-slice
working set a pool thread reached stays resident after the map, and the
slice kernels keep theirs to a few slices; the calling thread allocates
from the main arena, whose top the trim returns. A library that is not
found is skipped and the map still runs.

Callers keep results serial: each slice writes only its own output slice,
running maxima are reduced afterwards in slice order, and the error raised
is the first failing slice's, as in the serial loop.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_local = threading.local()
# held while a map runs; a map that finds it taken runs inline
_busy = threading.Lock()
_pool = None  # (helpers, executor), built at the first map that needs it
_native = None  # (get, set) of the OpenBLAS thread count, and malloc_trim

# the widest default whose time and peak memory have been measured (2 CPUs)
DEFAULT_WIDTH_CAP = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count() -> int:
    """Width of the slice pool: CILAB_THREADS, by default the CPUs this
    process may use up to DEFAULT_WIDTH_CAP; a value that is not an
    integer means 1."""
    raw = os.environ.get("CILAB_THREADS")
    if raw is None:
        return min(_cpus(), DEFAULT_WIDTH_CAP)
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def fft_workers() -> int:
    """Worker count for scipy.fft: one inside a map, the pool width
    elsewhere."""
    return 1 if getattr(_local, "inside", False) else thread_count()


def _executor(width: int) -> ThreadPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != width:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (width, ThreadPoolExecutor(width, "cilab-slice"))
    return _pool[1]


def _symbol(lib, names, restype, argtypes):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


def _openblas():
    """(get, set) of the thread count of the OpenBLAS loaded in this
    process, found among its mapped libraries, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = _symbol(lib, ("openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads"), ctypes.c_int, [])
        put = _symbol(lib, ("openblas_set_num_threads64_",
                            "scipy_openblas_set_num_threads64_",
                            "openblas_set_num_threads"), None, [ctypes.c_int])
        if get is not None and put is not None:
            return get, put
    return None


def _handles():
    """The native handles, looked up once at the first map on the pool."""
    global _native
    if _native is None:
        trim = _symbol(ctypes.CDLL(None), ("malloc_trim",), ctypes.c_int,
                       [ctypes.c_size_t])
        _native = (_openblas(), trim)
    return _native


def map_slices(fn, slices) -> list:
    """[fn(j) for j in slices], with the calls spread over the calling
    thread and the slice pool.

    Results come back in slice order; if calls fail, the first failing
    slice's exception is raised once every call has finished."""
    slices = list(slices)
    if (not slices or getattr(_local, "inside", False)
            or not _busy.acquire(blocking=False)):
        return [fn(j) for j in slices]
    todo, results = iter(range(len(slices))), [None] * len(slices)
    take = threading.Lock()

    def drain():
        _local.inside = True
        while True:
            with take:
                k = next(todo, None)
            if k is None:
                return
            try:
                results[k] = (True, fn(slices[k]))
            except BaseException as exc:  # raised below, in slice order
                results[k] = (False, exc)

    try:
        blas, trim = _handles()
        saved = None
        if blas is not None:
            saved = blas[0]()
            blas[1](1)
        try:
            width = thread_count()
            futures = [_executor(width - 1).submit(drain)
                       for _ in range(min(width, len(slices)) - 1)]
            drain()
            _local.inside = False
            wait(futures)
        finally:
            if saved is not None:
                blas[1](saved)
            if trim is not None:
                trim(0)
    finally:
        _busy.release()
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]

