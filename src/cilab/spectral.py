"""Fourier multipliers on plain arrays and every wavenumber table: the
package's one spectral layer.

Every operator here acts on one time slice: an array whose first three
axes are the spatial axes (n, n, n), with component axes trailing. Each
call makes one forward and one inverse real 3D transform, however many
component axes the slice carries; `directional` transforms one component
at a time, with one inverse transform per direction table, and
`mean_free` makes none. A caller maps a kernel over the time slices of a
whole (n_t, n, n, n, ...) field; `field._slicewise` does so for the
whole-field names the benchmark still reaches (`field.grad`,
`field.div_tensor`, `spectral_ops.leray` and `p_neq0`). The kernels accept
every input: the right inverses (`inv_div_sym`, `inv_div_skew`, the
Biot-Savart law `curl(..., inverse_laplacian=True)`) state what they
return on a slice that has a mean or a gradient part, and a caller that
needs a mean-free or divergence-free input checks it. Two helpers act on
half spectra instead, so a caller can chain multipliers between one
forward and one inverse transform: `leray_spectrum` and `div_spectrum`,
which forms the spectrum of a tensor divergence from the spectra of its
weights.
Wavenumber tables are float, built once per (n, trailing) and shared
read-only; no other module builds one. The even symbols read the raw
integers (`wavenumbers`); every operator made of derivatives reads
`derivatives`, zero at k_a = +-n/2, where cos(n x_a / 2) has zero slope on
the grid (S. G. Johnson, Notes on FFT-based differentiation, MIT 2011).
Time multipliers are real circulant matrices (`circulant`).

The field transforms are looked up on scipy.fft at call time, so wrappers
installed there see every call.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.fft as sfft

from .threads import fft_workers


def _read_only(k1, k2, k3):
    tables = (k1, k2, k3, k1 * k1 + k2 * k2 + k3 * k3)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=None)
def wavenumbers(n: int, trailing: int = 0):
    """Integer wavenumbers (k1, k2, k3) as floats, and |k|^2, shaped to
    broadcast over the spectrum of a slice with `trailing` component axes.
    k3 runs over the half axis of the rfft."""
    kf = np.rint(np.fft.fftfreq(n, 1.0 / n))
    kh = np.arange(n // 2 + 1, dtype=np.float64)
    pad = (1,) * trailing
    return _read_only(kf.reshape((n, 1, 1) + pad), kf.reshape((1, n, 1) + pad),
                      kh.reshape((1, 1, -1) + pad))


@functools.lru_cache(maxsize=None)
def derivatives(n: int, trailing: int = 0):
    """d/dx_a = i k'_a, and |k'|^2: `wavenumbers` zeroed at k_a = +-n/2."""
    return _read_only(*(np.where(np.abs(k) == n / 2, 0.0, k)
                        for k in wavenumbers(n, trailing)[:3]))


def circulant(col) -> np.ndarray:
    """The read-only circulant matrix C_jl = col[(j - l) mod n]."""
    idx = np.arange(len(col))
    mat = col[(idx[:, None] - idx[None, :]) % len(col)]
    mat.setflags(write=False)
    return mat


def time_multiplier_matrix(symbol, n_t: int) -> np.ndarray:
    """The circulant matrix of the Hermitian time multiplier symbol(k_t) on
    n_t samples, whose Nyquist mode n_t/2 takes the real part of its symbol
    as in D; cached by the symbol's values."""
    half = symbol(np.arange(n_t // 2 + 1, dtype=np.float64))
    return _time_multiplier(tuple(half), n_t)


@functools.lru_cache(maxsize=None)
def _time_multiplier(half, n_t: int) -> np.ndarray:
    # numpy's irfft builds a table; it reads the real part at Nyquist
    return circulant(np.fft.irfft(np.array(half), n_t))


def _tables(arr, contracted=0):
    """Derivative tables for arr, whose last `contracted` axes are consumed."""
    return derivatives(arr.shape[0], arr.ndim - 3 - contracted)


def safe_inv(ksq):
    """1/|k|^2 with the zero mode mapped to 0."""
    inv = np.where(ksq > 0, ksq, 1.0)
    inv = 1.0 / inv
    return np.where(ksq > 0, inv, 0.0)


def rfft(arr):
    return sfft.rfftn(arr, axes=(0, 1, 2), workers=fft_workers())


def irfft(spec, n: int):
    return sfft.irfftn(spec, s=(n, n, n), axes=(0, 1, 2),
                       workers=fft_workers())


def directional(arr, dirs):
    """Derivatives of each component i of arr (..., k) along row i (or the
    only row) of each table in dirs, stacked last; np.eye(3)[:, None]
    gives the gradient, (grad u)_ij = d_j u_i. One component at a time:
    its forward transform, then one inverse transform per table, written
    into the output, so one component's spectrum is live at a time."""
    n = arr.shape[0]
    k1, k2, k3, _ = derivatives(n)
    out = np.empty(arr.shape + (len(dirs),))
    for c in np.ndindex(arr.shape[3:]):
        spec = rfft(arr[(...,) + c])
        for d, rows in enumerate(dirs):
            r = rows[c[-1] if len(rows) > 1 else 0]
            out[(...,) + c + (d,)] = irfft(
                spec * (1j * (k1 * r[0] + k2 * r[1] + k3 * r[2])), n)
    return out


def div_terms(arr):
    """The three terms d_a arr[..., a] of the divergence that contracts the
    last axis, stacked on that axis."""
    spec = rfft(arr)
    for a, k in enumerate(_tables(arr, 1)[:3]):
        spec[..., a] *= 1j * k
    return irfft(spec, arr.shape[0])


def div(arr):
    """Divergence contracting the last axis, d_a arr[..., a]."""
    k1, k2, k3, _ = _tables(arr, 1)
    spec = rfft(arr)
    return irfft(1j * (k1 * spec[..., 0] + k2 * spec[..., 1]
                       + k3 * spec[..., 2]), arr.shape[0])


def curl(vec, inverse_laplacian: bool = False):
    """Curl over the last axis; with inverse_laplacian, curl (-Laplace)^-1,
    the Biot-Savart law: it annihilates the zero mode and any gradient
    part, and its curl is the Leray projection of vec less its mean."""
    k1, k2, k3, ksq = _tables(vec, 1)
    spec = rfft(vec)
    out = np.empty_like(spec)
    out[..., 0] = k2 * spec[..., 2] - k3 * spec[..., 1]
    out[..., 1] = k3 * spec[..., 0] - k1 * spec[..., 2]
    out[..., 2] = k1 * spec[..., 1] - k2 * spec[..., 0]
    if inverse_laplacian:
        out *= safe_inv(ksq)[..., None]
    out *= 1j
    return irfft(out, vec.shape[0])


def curl_curl(vec):
    """Spectral double curl, |k'|^2 v - k' (k'.v), over the last axis."""
    k1, k2, k3, ksq = _tables(vec, 1)
    spec = rfft(vec)
    kdotv = k1 * spec[..., 0] + k2 * spec[..., 1] + k3 * spec[..., 2]
    # in place: each component reads only itself and k'.v
    for axis, k in enumerate((k1, k2, k3)):
        spec[..., axis] = ksq * spec[..., axis] - k * kdotv
    del kdotv
    return irfft(spec, vec.shape[0])


def mean_free(slab):
    """One slice minus its spatial mean: the multiplier that zeroes the
    spatial zero mode, without a transform. The sum runs over x1, then x2,
    then x3, each an elementwise sum of n arrays in an order numpy fixes:
    unlike a BLAS product it does not follow the BLAS thread count, and it
    beats numpy's strided mean."""
    total = slab
    for _ in range(3):
        total = total.reshape(slab.shape[0], -1).sum(axis=0)
    return slab - (total / slab.shape[0] ** 3).reshape(slab.shape[3:])


def leray_spectrum(spec):
    """The Helmholtz projection P_H on the half spectrum of a vector array
    (component axis last), in place; the identity on spatial means."""
    *ks, ksq = _tables(spec, 1)
    inv = safe_inv(ksq)
    kdotu = sum(ks[a] * spec[..., a] for a in range(3))
    for a in range(3):
        spec[..., a] -= (ks[a] * inv) * kdotu
    return spec


def leray(vec):
    """Helmholtz projection of a vector slice onto divergence-free fields,
    the identity on spatial means."""
    return irfft(leray_spectrum(rfft(vec)), vec.shape[0])


def frac_laplacian(arr, alpha: float):
    """(-Laplace)^alpha of every component, for alpha >= 0; for alpha > 0
    the zero mode is annihilated, and alpha = 0 is the identity."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    ksq = wavenumbers(arr.shape[0], arr.ndim - 3)[3]
    return irfft(rfft(arr) * ksq ** alpha, arr.shape[0])


def inv_div_sym(vec):
    """The symmetric traceless right inverse of the tensor divergence,
    mode by mode: R = R^T and tr R = 0, and div R is vec less its spatial
    mean, so div R = vec on a mean-free slice."""
    *ks, ksq = _tables(vec, 1)
    spec = rfft(vec)
    inv = safe_inv(ksq)
    kdotw = sum(ks[a] * spec[..., a] for a in range(3))
    out = np.empty(spec.shape[:-1] + (3, 3), dtype=np.complex128)
    half = 0.5j * inv * kdotw
    for a in range(3):
        for b in range(a, 3):
            term = -1j * inv * (ks[a] * spec[..., b] + ks[b] * spec[..., a])
            term = term + half * (ks[a] * ks[b] * inv)
            if a == b:
                term = term + half
            out[..., a, b] = term
            if a != b:
                out[..., b, a] = term
    return irfft(out, vec.shape[0])


def inv_div_skew(vec):
    """The skew right inverse of the tensor divergence, R_ij = eps_ijk c_k
    with c = curl (-Laplace)^-1 vec: div R is the Leray projection of vec
    less its spatial mean, so div R = vec on a mean-free divergence-free
    slice. The entries are written here: field.expand would be a circular
    import."""
    c = curl(vec, inverse_laplacian=True)
    out = np.zeros(c.shape[:-1] + (3, 3))
    # (R_01, R_02, R_12) = (c_2, -c_1, c_0), mirrored with the other sign
    for (r, col), comp in zip(((0, 1), (0, 2), (1, 2)),
                              (c[..., 2], -c[..., 1], c[..., 0])):
        out[..., r, col] = comp
        np.negative(comp, out=out[..., col, r])
    return out


def div_spectrum(weights, table, out=None):
    """Half spectrum of the divergence d_b T[..., c, b] of the tensor slice
    T = weights @ table, for weights (n, n, n, k) and a table (k, c, 3)
    whose last axis the divergence contracts; added onto out, (n, n,
    n//2 + 1, c), when given. T is never formed: one forward transform per
    weight component, then per direction b one (modes, k) @ (k, c) product
    of the weights' spectrum with i table[..., b], times k_b, taken a
    quarter of the x1 planes at a time (each mode's product is the same
    dot product over k, so the split leaves every value as it was)."""
    n, k = weights.shape[0], weights.shape[-1]
    coef = rfft(weights)
    # a caller that passes a temporary frees it here, before the products
    del weights
    shape = coef.shape[:3] + (table.shape[1],)
    if out is None:
        out = np.zeros(shape, dtype=coef.dtype)
    step = max(1, n // 4)
    for b, kb in enumerate(derivatives(n, 1)[:3]):
        tb = 1j * table[..., b]
        kb = np.broadcast_to(kb, shape[:3] + (1,))
        for lo in range(0, n, step):
            part = coef[lo:lo + step]
            term = (part.reshape(-1, k) @ tb).reshape(part.shape[:3] + (-1,))
            term *= kb[lo:lo + step]
            out[lo:lo + step] += term
    return out
