"""Fourier multipliers on the spatial modes of Fields, built on cilab.spectral.

Every operator here is an exact multiplier in the discrete Fourier algebra,
so compositions satisfy their operator identities (idempotence, right
inverses, semigroup laws) to rounding error by construction. Spatial zero
modes are handled explicitly: the Leray projector is the identity on means,
the Biot-Savart law and the inverse divergences annihilate them, and
callers that need mean-free inputs are validated rather than silently
projected.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .checks import gate
from .field import Field, to_spectral
from .threads import map_slices


def _div_rel_defect(f: Field) -> float:
    """Relative size of div f measured against the gradient scale of f.
    Each component's 4D spectrum is scaled in place and summed into one
    accumulator, so two spectra are live at most."""
    if f.rank != 1:
        raise ValueError("expected a vector field")
    *ks, ksq = spectral.wavenumbers(f.grid.n_x, lead=1)
    kmag = np.sqrt(ksq)
    div = None
    den = 0.0
    for a in range(3):
        spec = to_spectral(f.data[..., a], f.grid)
        mag = np.abs(spec)
        # np.maximum, not max: a NaN component keeps the defect NaN
        den = float(np.maximum(den, np.multiply(kmag, mag, out=mag).max()))
        del mag
        spec *= 1j * ks[a]
        if div is None:
            div = spec
        else:
            div += spec
        del spec
    num = float(np.abs(div).max())
    if den == 0.0:
        return 0.0
    return num / den


# -- slice kernels ---------------------------------------------------------------
#
# The projections act on each time slice alone. Their whole-field forms
# below run one kernel per slice into a zeroed output and skip zero slices,
# so no whole-field spectrum is built and idle slices are never touched;
# verifiers that need a projection of one slice call the kernel directly.

def _mean_free3(slab: np.ndarray) -> np.ndarray:
    """One slice minus its spatial mean. The sum runs over x1, then x2,
    then x3, each an elementwise sum of n arrays in an order numpy fixes:
    unlike a BLAS product it does not follow the BLAS thread count, and it
    beats numpy's strided mean."""
    total = slab
    for _ in range(3):
        total = total.reshape(slab.shape[0], -1).sum(axis=0)
    return slab - (total / slab.shape[0] ** 3).reshape(slab.shape[3:])


def _slicewise(f: Field, kernel) -> Field:
    # np.zeros, not zeros_like: the pages of slices never written stay
    # unmapped (zeros_like writes every page)
    out = np.zeros(f.data.shape)

    def fill(j):
        if f.data[j].any():
            out[j] = kernel(f.data[j])

    map_slices(fill, range(f.grid.n_t))
    return Field(out, f.grid, _take=True)


def p_neq0(f: Field) -> Field:
    """Remove the spatial mean of every time slice: the multiplier zeroing
    the spatial zero modes, applied without a transform."""
    return _slicewise(f, _mean_free3)


def leray(f: Field) -> Field:
    """Helmholtz projection onto divergence-free fields, identity on means,
    by one 3D transform pair per nonzero slice."""
    if f.rank != 1:
        raise ValueError("expected a vector field")
    return _slicewise(f, spectral.leray)


# -- whole-field multipliers -----------------------------------------------------
#
# One 3D transform pair over the spatial axes of the whole field.

def _multiply(f: Field, mult) -> Field:
    """The multiplier mult(|k|^2), applied to every component of f."""
    n = f.grid.n_x
    ksq = spectral.wavenumbers(n, 1, f.rank)[3]
    spec = spectral.rfft(f.data, 1) * mult(ksq)
    return Field(spectral.irfft(spec, n, 1), f.grid, _take=True)


def frac_laplacian(f: Field, alpha: float) -> Field:
    """(-Laplace)^alpha for alpha >= 0; the zero mode is annihilated."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return f
    return _multiply(f, lambda ksq: ksq ** alpha)


def _vec_data(f: Field):
    if f.rank != 1:
        raise ValueError("expected a vector field")
    return f.data


def inv_div_sym(f: Field, tol: float = 1e-10) -> Field:
    """Symmetric traceless right inverse of the tensor divergence.

    Requires a mean-free vector input; raises otherwise. The output R
    satisfies div R = f and R = R^T with tr R = 0 mode by mode.
    """
    if not f.is_mean_free(tol):
        raise ValueError("inv_div_sym needs a mean-free input field")
    n = f.grid.n_x
    spec = spectral.rfft(_vec_data(f), 1)
    *ks, ksq = spectral.wavenumbers(n, 1)
    inv = spectral.safe_inv(ksq)
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
    return Field(spectral.irfft(out, n, 1), f.grid, _take=True)


def inv_div_skew(f: Field, tol: float = 1e-8) -> Field:
    """Skew-symmetric right inverse of the tensor divergence.

    Defined by R_ij = eps_ijk (-Laplace)^{-1} (curl f)_k, valid on
    divergence-free mean-free inputs; both conditions are checked.
    """
    if not f.is_mean_free(tol):
        raise ValueError("inv_div_skew needs a mean-free input field")
    gate({"divergence": _div_rel_defect(f)},
         [("divergence", "inv_div_skew needs a divergence-free input: "
           "relative defect", tol)], ValueError)
    c = spectral.curl(f.data, 1, inverse_laplacian=True)
    out = np.zeros(c.shape + (3,))
    # R_ij = eps_ijk c_k
    out[..., 0, 1] = c[..., 2]
    out[..., 1, 0] = -c[..., 2]
    out[..., 1, 2] = c[..., 0]
    out[..., 2, 1] = -c[..., 0]
    out[..., 2, 0] = c[..., 1]
    out[..., 0, 2] = -c[..., 1]
    return Field(out, f.grid, _take=True)


def biot_savart(b: Field, tol: float = 1e-10) -> Field:
    """Vector potential A = curl (-Laplace)^{-1} B of a mean-free field.

    Any gradient part of the input is annihilated by the curl, so A depends
    only on the divergence-free part and satisfies curl A = B when B is
    divergence-free.
    """
    if not b.is_mean_free(tol):
        raise ValueError("biot_savart needs a mean-free input field")
    return Field(spectral.curl(_vec_data(b), 1, inverse_laplacian=True),
                 b.grid, _take=True)
