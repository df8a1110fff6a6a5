"""Fourier multipliers on plain arrays and every wavenumber table: the
package's one spectral layer.

Every operator here acts on an array whose three spatial axes (n, n, n)
follow `lead` leading axes: lead=0 for one time slice, lead=1 for a whole
(n_t, n, n, n) field. Component axes trail. Each call makes one forward and
one inverse real 3D transform over the spatial axes, however many leading
or component axes the array carries, so a whole field equals its slices
transformed one by one. Three helpers act on half spectra instead, so a
caller can chain multipliers between one forward and one inverse
transform: `leray_spectrum`, `real_planes` and `div_spectrum`, which
forms the spectrum of a tensor divergence from the spectra of its weights.
Wavenumber tables are float, built once per (n, lead, trailing) and
shared read-only; `time_wavenumbers` gives the time axis of a whole-field
(n_t, n, n, n) space-time spectrum. No other module builds a wavenumber
table.

The transforms are looked up on scipy.fft at call time, so wrappers
installed there see every call.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft as sfft

from .threads import fft_workers


@functools.lru_cache(maxsize=None)
def wavenumbers(n: int, lead: int = 0, trailing: int = 0):
    """Integer wavenumbers (k1, k2, k3) as floats, and |k|^2, shaped to
    broadcast over the spectrum of an array with `lead` leading and
    `trailing` component axes. k3 runs over the half axis of the rfft."""
    kf = np.rint(np.fft.fftfreq(n, 1.0 / n))
    kh = np.arange(n // 2 + 1, dtype=np.float64)
    pre, pad = (1,) * lead, (1,) * trailing
    tables = (kf.reshape(pre + (n, 1, 1) + pad),
              kf.reshape(pre + (1, n, 1) + pad),
              kh.reshape(pre + (1, 1, -1) + pad))
    k1, k2, k3 = tables
    tables += (k1 * k1 + k2 * k2 + k3 * k3,)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=None)
def time_wavenumbers(n_t: int, trailing: int = 0):
    """Integer time wavenumbers k_t as floats in storage order, shaped
    (n_t, 1, 1, 1) to broadcast over the spectrum of a whole field with
    `trailing` component axes. Read-only."""
    kt = np.rint(np.fft.fftfreq(n_t, 1.0 / n_t))
    kt = kt.reshape((n_t, 1, 1, 1) + (1,) * trailing)
    kt.setflags(write=False)
    return kt


def _tables(arr, lead, contracted=0):
    """Tables for arr, whose last `contracted` axes the operator consumes."""
    return wavenumbers(arr.shape[lead], lead, arr.ndim - lead - 3 - contracted)


def safe_inv(ksq):
    """1/|k|^2 with the zero mode mapped to 0."""
    inv = np.where(ksq > 0, ksq, 1.0)
    inv = 1.0 / inv
    return np.where(ksq > 0, inv, 0.0)


def rfft(arr, lead: int = 0):
    return sfft.rfftn(arr, axes=(lead, lead + 1, lead + 2),
                      workers=fft_workers())


def irfft(spec, n: int, lead: int = 0):
    return sfft.irfftn(spec, s=(n, n, n), axes=(lead, lead + 1, lead + 2),
                       workers=fft_workers())


def directional(arr, dirs, lead: int = 0):
    """Derivatives of each component i of arr (..., k) along row i (or the
    only row) of each table in dirs, stacked last; np.eye(3)[:, None]
    gives the gradient, (grad u)_ij = d_j u_i."""
    k1, k2, k3, _ = _tables(arr, lead)
    spec = rfft(arr, lead)
    out = np.empty(spec.shape + (len(dirs),), dtype=spec.dtype)
    for d, rows in enumerate(dirs):
        np.multiply(spec, 1j * (k1 * rows[:, 0] + k2 * rows[:, 1]
                                + k3 * rows[:, 2]), out=out[..., d])
    return irfft(out, arr.shape[lead], lead)


def div_terms(arr, lead: int = 0):
    """The three terms d_a arr[..., a] of the divergence that contracts the
    last axis, stacked on that axis."""
    spec = rfft(arr, lead)
    out = np.empty_like(spec)
    for a, k in enumerate(_tables(arr, lead, 1)[:3]):
        np.multiply(spec[..., a], 1j * k, out=out[..., a])
    return irfft(out, arr.shape[lead], lead)


def div(arr, lead: int = 0):
    """Divergence contracting the last axis, d_a arr[..., a]."""
    k1, k2, k3, _ = _tables(arr, lead, 1)
    spec = rfft(arr, lead)
    return irfft(1j * (k1 * spec[..., 0] + k2 * spec[..., 1]
                       + k3 * spec[..., 2]), arr.shape[lead], lead)


def curl(vec, lead: int = 0, inverse_laplacian: bool = False):
    """Curl over the last axis; with inverse_laplacian, curl (-Laplace)^-1,
    which annihilates the zero mode."""
    k1, k2, k3, ksq = _tables(vec, lead, 1)
    spec = rfft(vec, lead)
    out = np.empty_like(spec)
    out[..., 0] = k2 * spec[..., 2] - k3 * spec[..., 1]
    out[..., 1] = k3 * spec[..., 0] - k1 * spec[..., 2]
    out[..., 2] = k1 * spec[..., 1] - k2 * spec[..., 0]
    if inverse_laplacian:
        out *= safe_inv(ksq)[..., None]
    out *= 1j
    return irfft(out, vec.shape[lead], lead)


def curl_curl(vec, lead: int = 0):
    """Spectral double curl, |k|^2 v - k (k.v), over the last axis."""
    k1, k2, k3, ksq = _tables(vec, lead, 1)
    spec = rfft(vec, lead)
    kdotv = k1 * spec[..., 0] + k2 * spec[..., 1] + k3 * spec[..., 2]
    out = np.empty_like(spec)
    for axis, k in enumerate((k1, k2, k3)):
        out[..., axis] = ksq * spec[..., axis] - k * kdotv
    return irfft(out, vec.shape[lead], lead)


def leray_spectrum(spec, lead: int = 0):
    """The Helmholtz projection P_H on the half spectrum of a vector array
    (component axis last), in place; the identity on spatial means."""
    *ks, ksq = _tables(spec, lead, 1)
    inv = safe_inv(ksq)
    kdotu = sum(ks[a] * spec[..., a] for a in range(3))
    for a in range(3):
        spec[..., a] -= (ks[a] * inv) * kdotu
    return spec


def leray(vec, lead: int = 0):
    """Helmholtz projection of a vector array onto divergence-free fields,
    the identity on spatial means."""
    return irfft(leray_spectrum(rfft(vec, lead), lead), vec.shape[lead], lead)


def real_planes(spec):
    """Project the k3 = 0 and k3 = n/2 planes of the half spectrum of one
    slice (n even) onto the spectra of real arrays, in place. On those
    planes the spectrum of a real array is Hermitian in (k1, k2),
    X(-k1, -k2) = conj X(k1, k2), and irfft reads only that part,
    (X + conj X(-k1, -k2)) / 2; so rfft(irfft(X)) is X with these planes
    projected."""
    for k3 in (0, spec.shape[0] // 2):
        plane = spec[:, :, k3]
        plane += np.roll(np.flip(plane, (0, 1)), 1, (0, 1)).conj()
        plane *= 0.5
    return spec


def div_spectrum(weights, table, out=None):
    """Half spectrum of the divergence d_b T[..., c, b] of the tensor slice
    T = weights @ table, for weights (n, n, n, k) and a table (k, c, 3)
    whose last axis the divergence contracts; added onto out, (n, n,
    n//2 + 1, c), when given. T is never formed: one forward transform per
    weight component, then per direction b one (modes, k) @ (k, c) product
    of the weights' spectrum with i table[..., b], times k_b."""
    n, k = weights.shape[0], weights.shape[-1]
    coef = rfft(weights)
    shape = coef.shape[:3] + (table.shape[1],)
    if out is None:
        out = np.zeros(shape, dtype=coef.dtype)
    coef = coef.reshape(-1, k)
    for b, kb in enumerate(wavenumbers(n, 0, 1)[:3]):
        term = (coef @ (1j * table[..., b])).reshape(shape)
        term *= kb
        out += term
    return out


def tail(scalar):
    """High-mode mass fraction of one scalar slice: an aliasing indicator,
    not a norm. Modes above half the Nyquist band in any direction count."""
    n = scalar.shape[0]
    k1, k2, k3, _ = wavenumbers(n)
    spec = rfft(scalar)
    cut = n // 4
    high = (np.abs(k1) > cut) | (np.abs(k2) > cut) | (k3 > cut)
    total = float((np.abs(spec) ** 2).sum())
    if total <= 0.0:
        return 0.0
    return math.sqrt(float((np.abs(spec[high]) ** 2).sum()) / total)
