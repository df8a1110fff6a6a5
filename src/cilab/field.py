"""Space-time fields on the periodic box, with spectral calculus and norms.

A Field is a read-only array of real samples on a Grid4 and nothing else:
it caches no spectrum and has no file format. Every algebraic operation
returns a new Field. `ddt` applies the matrix D along time
(`spectral.derivative_matrix`). Spatial operators are slice kernels of
cilab.spectral that their callers map over the time slices;
`_slicewise` maps one for the whole-field names the
benchmark reaches. Three of those live here: the benchmark's kernel
microbenchmarks time `grad` and `div_tensor`, which the step never calls,
and the 4D transform `to_spectral`, which the step reaches only through
the divergence gate `spectral_ops._div_rel_defect`.

Component layout is trailing: scalars are (n_t, n_x, n_x, n_x), vectors
append one length-3 axis, rank-2 tensors append two. The divergence of a
tensor contracts the second index, (div A)_i = d_j A_ij.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from . import spectral
from .grid import Grid4
from .threads import fft_workers, map_slices

_RANK_SHAPES = {0: (), 1: (3,), 2: (3, 3)}


class Field:
    __slots__ = ("data", "grid")

    def __init__(self, data, grid: Grid4, _take=False):
        data = np.asarray(data, dtype=np.float64)
        comp = data.shape[4:]
        if data.shape[:4] != grid.shape or comp not in _RANK_SHAPES.values():
            raise ValueError(
                f"field shape {data.shape} does not match grid {grid.shape} "
                "with scalar, vector, or 3x3 tensor components")
        if _take:
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        else:
            data = data.copy(order="C")
        data.setflags(write=False)
        self.data = data
        self.grid = grid

    # -- basic properties --------------------------------------------------

    @property
    def rank(self) -> int:
        return self.data.ndim - 4

    def spatial_means(self) -> np.ndarray:
        """Mean over the spatial torus, one value per time sample."""
        return self.data.mean(axis=(1, 2, 3))

    # -- arithmetic ---------------------------------------------------------

    def _wrap(self, data) -> "Field":
        return Field(data, self.grid, _take=True)

    def __add__(self, other: "Field") -> "Field":
        return self._wrap(self.data + other.data)

    def __sub__(self, other: "Field") -> "Field":
        return self._wrap(self.data - other.data)

    def __neg__(self) -> "Field":
        return self._wrap(-self.data)

    def __mul__(self, other):
        if isinstance(other, Field):
            a, b = self.data, other.data
            # scalar times vector/tensor broadcasts over trailing axes
            while a.ndim < b.ndim:
                a = a[..., None]
            while b.ndim < a.ndim:
                b = b[..., None]
            return self._wrap(a * b)
        return self._wrap(self.data * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Field":
        return self._wrap(self.data / float(other))

    def max_abs(self) -> float:
        return peak_abs(self.data)


def peak_abs(data) -> float:
    """max |data| without a full-size temporary; abs maps a -0.0 maximum
    to 0.0 and leaves NaN alone."""
    return abs(float(np.maximum(data.max(), -data.min())))


# -- spectral transforms -----------------------------------------------------

def to_spectral(data, grid: Grid4) -> np.ndarray:
    """Forward transform, normalized so coefficient (0,0,0,0) is the mean;
    the transform applies the 1/n_modes factor itself."""
    return sfft.rfftn(data, axes=(0, 1, 2, 3), norm="forward",
                      workers=fft_workers())


def ddt_slice(data, j: int) -> np.ndarray:
    """Slice j of the time derivative of a sample array whose first axis is
    time: D[j] @ data, one row of `spectral.derivative_matrix`, so no
    whole-field derivative is built."""
    n_t = data.shape[0]
    row = spectral.derivative_matrix(n_t)[j]
    return (row @ data.reshape(n_t, -1)).reshape(data.shape[1:])


def ddt(f: Field) -> Field:
    """d_t f: D applied along the time axis, with no spatial transform."""
    n_t = f.grid.n_t
    out = spectral.derivative_matrix(n_t) @ f.data.reshape(n_t, -1)
    return Field(out.reshape(f.data.shape), f.grid, _take=True)


def _slicewise(f: Field, kernel, comp=None) -> Field:
    """The Field whose time slice j is kernel(f.data[j]), with component
    shape comp (by default f's). Slices run on the slice pool into a zeroed
    output, and an all-zero slice is skipped: it stays exactly zero, so
    every kernel passed here must map zero to zero."""
    # np.zeros, not zeros_like: the pages of slices never written stay
    # unmapped (zeros_like writes every page)
    out = np.zeros(f.data.shape if comp is None else f.grid.shape + comp)

    def fill(j):
        if f.data[j].any():
            out[j] = kernel(f.data[j])

    map_slices(fill, range(f.grid.n_t))
    return Field(out, f.grid, _take=True)


def grad(f: Field) -> Field:
    """Gradient of a scalar (vector) or of a vector (tensor, (grad u)_ij = d_j u_i),
    from D along each axis of each component of every nonzero slice."""
    if f.rank > 1:
        raise ValueError("grad is defined for scalar and vector fields")

    def kernel(s):
        d = spectral.directional(s if f.rank else s[..., None],
                                 np.eye(3)[:, None])
        return d.reshape(s.shape + (3,))

    return _slicewise(f, kernel, f.data.shape[4:] + (3,))


def div_tensor(f: Field) -> Field:
    """(div A)_i = d_j A_ij, contracting the column index."""
    if f.rank != 2:
        raise ValueError("div_tensor needs a rank-2 field")
    return _slicewise(f, spectral.div, (3,))


# -- compact tensors ---------------------------------------------------------

# (rows, columns) of the independent components of a symmetric and of a
# skew 3x3 tensor; a compact array holds them on its last axis
SYM_PAIRS = ((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2))
SKEW_PAIRS = ((0, 0, 1), (1, 2, 2))


def frobenius_weights(pairs) -> np.ndarray:
    """How often each compact component occurs in the full tensor: 1 on
    the diagonal, 2 off it. The Frobenius pairing of two tensors of one
    class is the weighted sum of their compact products."""
    return np.where(np.equal(*pairs), 1.0, 2.0)


def expand(compact, pairs, sign, out=None):
    """The 3x3 tensors whose independent components, at (rows, columns)
    `pairs`, are the last axis of compact; the mirrored entries are sign
    (1 symmetric, -1 skew) times them. Written pair by pair into out, or
    into a new zeroed array; entries off the pairs and their mirrors keep
    what out holds."""
    if out is None:
        out = np.zeros(compact.shape[:-1] + (3, 3))
    for p, (r, c) in enumerate(zip(*pairs)):
        out[..., r, c] = compact[..., p]
        if r != c:
            np.multiply(compact[..., p], sign, out=out[..., c, r])
    return out


def dot(u: Field, v: Field) -> Field:
    if u.rank != 1 or v.rank != 1:
        raise ValueError("dot needs two vector fields")
    return Field((u.data * v.data).sum(axis=-1), u.grid, _take=True)


# -- norms -------------------------------------------------------------------

def lebesgue_norm(f: Field, gamma: float, p: float) -> float:
    """L^gamma in time of L^p in space, Lebesgue volume measure, of the
    pointwise magnitude of f: its absolute or Frobenius value."""
    mag = np.sqrt((f.data ** 2).sum(axis=tuple(range(4, f.data.ndim))))
    vol_x = (2.0 * np.pi) ** 3
    if np.isinf(p):
        slices = mag.max(axis=(1, 2, 3))
    else:
        slices = (np.mean(mag ** p, axis=(1, 2, 3)) * vol_x) ** (1.0 / p)
    if np.isinf(gamma):
        return float(slices.max())
    return float((np.mean(slices ** gamma) * 2.0 * np.pi) ** (1.0 / gamma))
