"""Space-time fields on the periodic box, with spectral calculus and norms.

A Field is a read-only array of real samples on a Grid4 and nothing else:
it caches no spectrum and has no file format. Every algebraic operation
returns a new Field. The Fourier side is made on demand by `to_spectral`
and `to_physical`, the whole-field space-time transform pair, whose
wavenumber tables come from cilab.spectral.

Component layout is trailing: scalars are (n_t, n_x, n_x, n_x), vectors
append one length-3 axis, rank-2 tensors append two. Tensor contractions
follow the right-product convention (A v)_i = A_ij v_j, and the divergence
of a tensor contracts the second index, (div A)_i = d_j A_ij.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import spectral
from .grid import Grid4
from .threads import fft_workers

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

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid4, rank: int = 0) -> "Field":
        return cls(np.zeros(grid.shape + _RANK_SHAPES[rank]), grid, _take=True)

    # -- basic properties --------------------------------------------------

    @property
    def rank(self) -> int:
        return self.data.ndim - 4

    def spatial_means(self) -> np.ndarray:
        """Mean over the spatial torus, one value per time sample."""
        return self.data.mean(axis=(1, 2, 3))

    def is_mean_free(self, tol: float = 1e-12) -> bool:
        scale = max(np.abs(self.data).max(), 1e-300)
        return bool(np.abs(self.spatial_means()).max() <= tol * scale)

    def require_mean_free(self, tol: float = 1e-12):
        if not self.is_mean_free(tol):
            worst = np.abs(self.spatial_means()).max()
            raise ValueError(f"field is not mean-free: worst slice mean {worst:g}")

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

    def component(self, *idx) -> "Field":
        return self._wrap(np.ascontiguousarray(self.data[(Ellipsis,) + idx]))

    def magnitude(self) -> np.ndarray:
        """Pointwise absolute value (scalar) or Frobenius norm (tensor)."""
        if self.rank == 0:
            return np.abs(self.data)
        axes = tuple(range(4, self.data.ndim))
        return np.sqrt((self.data ** 2).sum(axis=axes))

    def max_abs(self) -> float:
        """max |data| without a full-size temporary; abs maps a -0.0
        maximum to 0.0 and leaves NaN alone."""
        return abs(float(np.maximum(self.data.max(), -self.data.min())))


# -- spectral transforms -----------------------------------------------------

def to_spectral(data, grid: Grid4) -> np.ndarray:
    """Forward transform, normalized so coefficient (0,0,0,0) is the mean;
    the transform applies the 1/n_modes factor itself."""
    arr = data.data if isinstance(data, Field) else np.asarray(data)
    return sfft.rfftn(arr, axes=(0, 1, 2, 3), norm="forward",
                      workers=fft_workers())


def to_physical(coeffs, grid: Grid4) -> np.ndarray:
    """Inverse of to_spectral, returning the real sample array."""
    sizes = (grid.n_t, grid.n_x, grid.n_x, grid.n_x)
    return sfft.irfftn(coeffs, s=sizes, axes=(0, 1, 2, 3), norm="forward",
                       workers=fft_workers())


def spectral_derivative(f: Field, m: int = 0, zeta=(0, 0, 0)) -> Field:
    """d_t^m d_x^zeta f computed by Fourier multipliers. For odd m the
    time-Nyquist multiplier (k_t = -n_t/2 in storage order) is zero, as in
    `ddt`: cos(n_t t / 2) is its own alias and has no resolved slope."""
    kt = spectral.time_wavenumbers(f.grid.n_t, f.rank)
    k1, k2, k3, _ = spectral.wavenumbers(f.grid.n_x, 1, f.rank)
    if m % 2:
        kt = np.where(kt == -(f.grid.n_t // 2), 0.0, kt)
    factors = ((kt, m), (k1, zeta[0]), (k2, zeta[1]), (k3, zeta[2]))
    mult = np.complex128(1.0)
    for k, power in factors:
        if power:
            mult = mult * (1j * k) ** power
    spec = to_spectral(f.data, f.grid) * mult
    return Field(to_physical(spec, f.grid), f.grid, _take=True)


@functools.lru_cache(maxsize=None)
def time_derivative_matrix(n_t: int) -> np.ndarray:
    """The n_t x n_t spectral differentiation matrix D on the time samples
    (Trefethen, Spectral Methods in MATLAB, ch. 3): (D f)_j is the slope at
    t_j of the trigonometric interpolant of f with its Nyquist mode
    k_t = +-n_t/2 set to zero. D is circulant and skew,
    D_jl = (-1)^(j-l) cot((j-l) dt / 2) / 2 off the diagonal; the entry at
    offset n_t/2, cot(pi/2) / 2, is set to exactly 0. Read-only."""
    dt = 2.0 * np.pi / n_t
    row = np.zeros(n_t)
    m = np.arange(1, n_t // 2)
    row[m] = 0.5 * (-1.0) ** m / np.tan(0.5 * m * dt)
    row[n_t - m] = -row[m]
    idx = np.arange(n_t)
    d = row[(idx[:, None] - idx[None, :]) % n_t]
    d.setflags(write=False)
    return d


def ddt_slice(data, j: int) -> np.ndarray:
    """Slice j of the time derivative of a sample array whose first axis is
    time: D[j] @ data, one row of `time_derivative_matrix`, so no
    whole-field derivative is built."""
    n_t = data.shape[0]
    row = time_derivative_matrix(n_t)[j]
    return (row @ data.reshape(n_t, -1)).reshape(data.shape[1:])


def ddt(f: Field) -> Field:
    """d_t f: D applied along the time axis, with no spatial transform."""
    n_t = f.grid.n_t
    out = time_derivative_matrix(n_t) @ f.data.reshape(n_t, -1)
    return Field(out.reshape(f.data.shape), f.grid, _take=True)


def grad(f: Field) -> Field:
    """Gradient of a scalar (vector) or of a vector (tensor, (grad u)_ij = d_j u_i),
    from one forward and one inverse spatial transform."""
    if f.rank > 1:
        raise ValueError("grad is defined for scalar and vector fields")
    data = f.data if f.rank else f.data[..., None]
    out = spectral.directional(data, np.eye(3)[:, None], lead=1)
    return Field(out.reshape(f.data.shape + (3,)), f.grid, _take=True)


def div_vec(f: Field) -> Field:
    if f.rank != 1:
        raise ValueError("div_vec needs a vector field")
    return Field(spectral.div(f.data, lead=1), f.grid, _take=True)


def div_tensor(f: Field) -> Field:
    """(div A)_i = d_j A_ij, contracting the column index."""
    if f.rank != 2:
        raise ValueError("div_tensor needs a rank-2 field")
    return Field(spectral.div(f.data, lead=1), f.grid, _take=True)


# -- pointwise tensor algebra -------------------------------------------------

# The array kernels act on the trailing axes of any array, so a time slice
# and a whole field give the same values point by point.

def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _sym(t):
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def _skew(t):
    return 0.5 * (t - np.swapaxes(t, -1, -2))


def _traceless(t):
    tr = np.trace(t, axis1=-2, axis2=-1) / 3.0
    out = t.copy()
    for i in range(3):
        out[..., i, i] -= tr
    return out


# (rows, columns) of the independent components of a symmetric and of a
# skew 3x3 tensor; a compact array holds them on its last axis
SYM_PAIRS = ((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2))
SKEW_PAIRS = ((0, 0, 1), (1, 2, 2))


def frobenius_weights(pairs) -> np.ndarray:
    """How often each compact component occurs in the full tensor: 1 on
    the diagonal, 2 off it. The Frobenius pairing of two tensors of one
    class is the weighted sum of their compact products."""
    return np.where(np.equal(*pairs), 1.0, 2.0)


def expand(compact, pairs, sign):
    """The 3x3 tensors whose independent components, at (rows, columns)
    `pairs`, are the last axis of compact; the mirrored entries are sign
    (1 symmetric, -1 skew) times them, and the rest are zero."""
    rows, cols = pairs
    full = np.zeros(compact.shape[:-1] + (3, 3))
    full[..., rows, cols] = compact
    full[..., cols, rows] = sign * compact
    return full


def outer(u: Field, v: Field) -> Field:
    """u (x) v with components u_i v_j."""
    if u.rank != 1 or v.rank != 1:
        raise ValueError("outer needs two vector fields")
    return Field(_outer(u.data, v.data), u.grid, _take=True)


def sym(t: Field) -> Field:
    return Field(_sym(t.data), t.grid, _take=True)


def skew(t: Field) -> Field:
    return Field(_skew(t.data), t.grid, _take=True)


def trace(t: Field) -> Field:
    return Field(np.trace(t.data, axis1=-2, axis2=-1), t.grid, _take=True)


def traceless(t: Field) -> Field:
    return Field(_traceless(t.data), t.grid, _take=True)


def tensor_apply(t: Field, v: Field) -> Field:
    """Right product (A v)_i = A_ij v_j."""
    if t.rank != 2 or v.rank != 1:
        raise ValueError("tensor_apply needs a tensor and a vector")
    return Field(np.einsum("...ij,...j->...i", t.data, v.data), t.grid, _take=True)


def dot(u: Field, v: Field) -> Field:
    if u.rank != 1 or v.rank != 1:
        raise ValueError("dot needs two vector fields")
    return Field((u.data * v.data).sum(axis=-1), u.grid, _take=True)


# -- norms -------------------------------------------------------------------

@dataclass(frozen=True)
class MixedNormSpec:
    """Selects exactly one norm family.

    lebesgue: L^gamma in time of L^p in space, Lebesgue volume measure.
    sobolev:  sum of space-time L^p norms of derivatives up to the order.
    cn:       sum of grid maxima of derivatives up to the order.
    hbeta:    space-time Sobolev norm with weight (1 + |k|^2 + k0^2)^beta.
    """

    kind: str
    gamma: float = 2.0
    p: float = 2.0
    order: int = 0
    beta: float = 0.0

    @classmethod
    def lebesgue(cls, gamma: float, p: float) -> "MixedNormSpec":
        return cls(kind="lebesgue", gamma=float(gamma), p=float(p))

    @classmethod
    def sobolev(cls, order: int, p: float) -> "MixedNormSpec":
        return cls(kind="sobolev", order=int(order), p=float(p))

    @classmethod
    def cn(cls, order: int) -> "MixedNormSpec":
        return cls(kind="cn", order=int(order))

    @classmethod
    def hbeta(cls, beta: float) -> "MixedNormSpec":
        return cls(kind="hbeta", beta=float(beta))

    @property
    def label(self) -> str:
        def num(x):
            if x == np.inf:
                return "inf"
            return f"{x:g}"
        if self.kind == "lebesgue":
            return f"L{num(self.gamma)}t_L{num(self.p)}x"
        if self.kind == "sobolev":
            return f"W{self.order}_{num(self.p)}"
        if self.kind == "cn":
            return f"C{self.order}"
        return f"H{num(self.beta)}"


def _derivative_indices(order: int):
    for total in range(order + 1):
        for m in range(total + 1):
            s = total - m
            for z1 in range(s + 1):
                for z2 in range(s - z1 + 1):
                    yield m, (z1, z2, s - z1 - z2)


def _lebesgue_norm(f: Field, gamma: float, p: float) -> float:
    mag = f.magnitude()
    vol_x = (2.0 * np.pi) ** 3
    if np.isinf(p):
        slices = mag.max(axis=(1, 2, 3))
    else:
        slices = (np.mean(mag ** p, axis=(1, 2, 3)) * vol_x) ** (1.0 / p)
    if np.isinf(gamma):
        return float(slices.max())
    return float((np.mean(slices ** gamma) * 2.0 * np.pi) ** (1.0 / gamma))


def norm(f: Field, spec: MixedNormSpec) -> float:
    if spec.kind == "lebesgue":
        return _lebesgue_norm(f, spec.gamma, spec.p)
    if spec.kind == "cn":
        total = 0.0
        for m, zeta in _derivative_indices(spec.order):
            g = f if (m == 0 and zeta == (0, 0, 0)) else spectral_derivative(f, m, zeta)
            total += float(g.magnitude().max())
        return total
    if spec.kind == "sobolev":
        total = 0.0
        for m, zeta in _derivative_indices(spec.order):
            g = f if (m == 0 and zeta == (0, 0, 0)) else spectral_derivative(f, m, zeta)
            total += _lebesgue_norm(g, spec.p, spec.p)
        return total
    if spec.kind == "hbeta":
        kt = spectral.time_wavenumbers(f.grid.n_t, f.rank)
        _, _, k3, ksq = spectral.wavenumbers(f.grid.n_x, 1, f.rank)
        weight = (1.0 + kt ** 2 + ksq) ** spec.beta
        # modes with 0 < k3 < n/2 stand for a conjugate pair of the rfft
        weight = weight * np.where((k3 > 0) & (k3 < f.grid.n_x // 2), 2.0, 1.0)
        spec_arr = to_spectral(f.data, f.grid)
        total = float((weight * (spec_arr.real ** 2 + spec_arr.imag ** 2)).sum())
        return float(np.sqrt(total * (2.0 * np.pi) ** 4))
    raise ValueError(f"unknown norm kind {spec.kind!r}")
