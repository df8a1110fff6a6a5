"""Whole-field forms of the spatial Fourier multipliers of cilab.spectral.

Each operator here validates its input and maps a slice kernel of
cilab.spectral over the time slices; the one multiplier built here is the
4D divergence of the divergence-free gate, `_div_rel_defect`, on the same
derivative tables. Every kernel is an exact multiplier in the discrete
Fourier algebra, so compositions satisfy their operator identities
(idempotence, right inverses, semigroup laws, div leray = 0 on every
plane) to rounding error by construction. Spatial zero modes are handled
explicitly: the Leray projector is the identity on means, the Biot-Savart
law and the inverse divergences annihilate them, and callers that need
mean-free inputs are validated rather than silently projected.
"""

from __future__ import annotations

import functools

import numpy as np

from . import spectral
from .checks import gate
from .field import SKEW_PAIRS, Field, _slicewise, expand, to_spectral


def _require_vector(f: Field):
    if f.rank != 1:
        raise ValueError("expected a vector field")


def _div_rel_defect(f: Field) -> float:
    """Relative size of div f (multipliers k') against the gradient scale
    of f (raw |k|). Each component's 4D spectrum is scaled in place and
    summed into one accumulator, so two spectra are live at most."""
    _require_vector(f)
    ks = spectral.derivatives(f.grid.n_x)[:3]
    kmag = np.sqrt(spectral.wavenumbers(f.grid.n_x)[3])
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


# -- whole-field forms -----------------------------------------------------------
#
# field._slicewise builds no whole-field spectrum and never touches an idle
# slice; verifiers that need one slice's projection call the kernel directly.

def _mean_free3(slab: np.ndarray) -> np.ndarray:
    """One slice minus its spatial mean. The sum runs over x1, then x2,
    then x3, each an elementwise sum of n arrays in an order numpy fixes:
    unlike a BLAS product it does not follow the BLAS thread count, and it
    beats numpy's strided mean."""
    total = slab
    for _ in range(3):
        total = total.reshape(slab.shape[0], -1).sum(axis=0)
    return slab - (total / slab.shape[0] ** 3).reshape(slab.shape[3:])


def p_neq0(f: Field) -> Field:
    """Remove the spatial mean of every time slice: the multiplier zeroing
    the spatial zero modes, applied without a transform."""
    return _slicewise(f, _mean_free3)


def leray(f: Field) -> Field:
    """Helmholtz projection onto divergence-free fields, identity on means,
    by one 3D transform pair per nonzero slice."""
    _require_vector(f)
    return _slicewise(f, spectral.leray)


def frac_laplacian(f: Field, alpha: float) -> Field:
    """(-Laplace)^alpha for alpha >= 0; the zero mode is annihilated."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return f
    return _slicewise(f, lambda s: spectral.frac_laplacian(s, alpha))


def inv_div_sym(f: Field, tol: float = 1e-10) -> Field:
    """Symmetric traceless right inverse of the tensor divergence.

    Requires a mean-free vector input; raises otherwise. The output R
    satisfies div R = f and R = R^T with tr R = 0 mode by mode.
    """
    if not f.is_mean_free(tol):
        raise ValueError("inv_div_sym needs a mean-free input field")
    _require_vector(f)
    return _slicewise(f, spectral.inv_div_sym, (3, 3))


def _skew_potential(s):
    """R_ij = eps_ijk c_k for c = curl (-Laplace)^-1 of one vector slice:
    the compact (R_01, R_02, R_12) is (c_2, -c_1, c_0)."""
    c = spectral.curl(s, inverse_laplacian=True)
    return expand(np.stack([c[..., 2], -c[..., 1], c[..., 0]], axis=-1),
                  SKEW_PAIRS, -1)


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
    return _slicewise(f, _skew_potential, (3, 3))


def biot_savart(b: Field, tol: float = 1e-10) -> Field:
    """Vector potential A = curl (-Laplace)^{-1} B of a mean-free field.

    Any gradient part of the input is annihilated by the curl, so A depends
    only on the divergence-free part and satisfies curl A = B when B is
    divergence-free.
    """
    if not b.is_mean_free(tol):
        raise ValueError("biot_savart needs a mean-free input field")
    _require_vector(b)
    return _slicewise(b, functools.partial(spectral.curl,
                                           inverse_laplacian=True))
