"""Space-time mollification and the commutator bookkeeping it induces.

Kernels are compactly supported C-infinity bumps applied as exact
multipliers: the multiplier at an integer mode is the continuous Fourier
transform of the kernel there, so mollifying a grid field convolves its
band-limited interpolant exactly. Masses and transforms are integrals of
the bump by the one Gauss-Legendre rule of cilab.profiles (bump_integral);
the zero-mode multiplier is the rule's mass over itself, exactly one, so
means, constants and divergence-freeness are preserved. No space-time
spectrum is formed: the spatial symbols act slice by slice, the temporal
one as a real circulant matrix, with the Nyquist rule of the derivative D.

The temporal kernel is one-sided (support strictly inside (0, ell)), so a
mollified iterate depends only on the recent past of the input. A support
shift is a translation and translations commute with products, so this
choice leaves every commutator size unchanged; commutators of smooth
fields shrink like the kernel variance ell^2, and the first-order ell law
only emerges against fields whose second derivative saturates a scale
below the sweep, which is how the regression test drives it.

Mollifying the quadratic terms of the relaxed system and regrouping
leaves the traceless commutator stress plus a pressure correction that
carries the trace parts with weight 1/3; that closure-exact pressure is
what mollified_pressure returns, making the mollified system an identity
up to rounding for band-limited inputs.
"""

import numpy as np

from . import spectral
from .checks import gate
from .field import SKEW_PAIRS, SYM_PAIRS, Field, dot, expand, peak_abs
from .grid import Grid4, GridResolutionError
from .profiles import _bump, bump_integral
from .threads import map_slices

# half-width and center of the one-sided temporal kernel, in units of ell;
# equal values put the support at (0, 2 * 0.45 * ell), inside (-ell, ell)
_T_SHAPE = 0.45


def _unit_mass():
    return bump_integral(lambda s: _bump(s, 1))


def _unit_bump_symbol(omega):
    """Fourier transform of the mass-one bump at the given frequencies."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return bump_integral(lambda s: np.cos(np.multiply.outer(omega, s))
                         * _bump(s, 1)) / _unit_mass()


class Mollifier:
    """One mollification scale: spatial kernel of support radius ell
    (tensor product over the three axes) and a one-sided temporal kernel
    supported inside (0, 0.9 ell). Both have exact unit mass."""

    __slots__ = ("ell",)

    def __init__(self, ell: float):
        ell = float(ell)
        if not 0.0 < ell < np.pi:
            raise ValueError(f"mollification scale must lie in (0, pi), got {ell}")
        self.ell = ell

    def spatial_symbol(self, k):
        return _unit_bump_symbol(np.asarray(k, dtype=float) * self.ell)

    def temporal_symbol(self, k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        h = _T_SHAPE * self.ell
        return np.exp(-1j * k * h) * _unit_bump_symbol(k * h)

    def validate(self, grid: Grid4):
        """Kernel supports must span at least four grid cells per axis."""
        dx, dt = grid.dx, grid.dt
        if 2.0 * self.ell < 4.0 * dx or 2.0 * _T_SHAPE * self.ell < 4.0 * dt:
            raise GridResolutionError(
                f"mollification scale {self.ell:g} is unresolvable: kernel "
                f"supports {2 * self.ell:g} (space) / {2 * _T_SHAPE * self.ell:g} "
                f"(time) need four cells at dx={dx:g}, dt={dt:g}")

    def apply(self, f: Field) -> Field:
        return Field(self._smooth(lambda j: f.data[j], f.grid,
                                  f.data.shape[4:]), f.grid, _take=True)

    def _smooth(self, source, g: Grid4, comp):
        """The mollified array (n_t, n, n, n) + comp with slices source(j):
        per slice, a 3D transform pair per component, multiplied in place,
        so a pool thread holds one component's spectrum; then the time
        matrix per x1 plane."""
        self.validate(g)
        k1, k2, k3, _ = spectral.wavenumbers(g.n_x)
        # symbols of flat tables: a broadcast table may sum in another order
        mx = self.spatial_symbol(k1.ravel())
        mult = (mx.reshape(k1.shape) * mx.reshape(k2.shape)
                * self.spatial_symbol(k3.ravel()).reshape(k3.shape))
        out = np.empty(g.shape + comp)

        def space(j):
            src, dst = source(j), out[j]
            for c in np.ndindex(comp):
                spec = spectral.rfft(src[(...,) + c])
                spec *= mult
                dst[(...,) + c] = spectral.irfft(spec, g.n_x)

        map_slices(space, range(g.n_t))
        mat = spectral.time_multiplier_matrix(self.temporal_symbol, g.n_t)

        def time(i):
            out[:, i] = np.tensordot(mat, out[:, i], 1)

        map_slices(time, range(g.n_x))
        return out


def mollify(f: Field, ell: float) -> Field:
    """Convolve with the scale-ell space and time kernels."""
    return Mollifier(ell).apply(f)


def _check_mollified(name: str, given: Field, source: Field, mol: Mollifier):
    want = mol._smooth(lambda j: source.data[j], source.grid,
                       source.data.shape[4:])
    scale = max(peak_abs(want), 1e-300)
    defect = peak_abs(np.subtract(given.data, want, out=want))
    gate({name: defect / scale},
         [(name, f"{name} does not equal the scale-{mol.ell:g} mollification "
           "of its source: relative defect", 1e-8)], ValueError)


# positions of the diagonal entries among the SYM_PAIRS components
_SYM_DIAG = tuple(p for p, (r, c) in enumerate(zip(*SYM_PAIRS)) if r == c)


def _third_trace(t):
    """A third of the trace of the compact symmetric t, summed in diagonal
    order."""
    return (t[..., _SYM_DIAG[0]] + t[..., _SYM_DIAG[1]]
            + t[..., _SYM_DIAG[2]]) / 3.0


def _pair_products(x, y, z, w, pairs):
    """x_r y_c - z_r w_c at each (r, c) of pairs, written column by column
    into one compact array."""
    out = np.empty(x.shape[:-1] + (len(pairs[0]),))
    for p, (r, c) in enumerate(zip(*pairs)):
        np.multiply(x[..., r], y[..., c], out=out[..., p])
        out[..., p] -= z[..., r] * w[..., c]
    return out


def _sym_flux(u, b):
    """The traceless part of u (x) u - b (x) b on its SYM_PAIRS components."""
    out = _pair_products(u, u, b, b, SYM_PAIRS)
    tr = _third_trace(out)
    for p in _SYM_DIAG:
        out[..., p] -= tr
    return out


def _skew_flux(u, b):
    """b (x) u - u (x) b on its SKEW_PAIRS components."""
    return _pair_products(b, u, u, b, SKEW_PAIRS)


def _commutator(mol, flux, pairs, sign, label, state_q, state_l, scale,
                tol=1e-12):
    """The class projection of flux(state_l) - mollified flux(state_q),
    slice by slice.

    The full quadratic flux is exactly symmetric (sign 1) or exactly skew
    (sign -1): IEEE products commute and negation is exact. So flux gives
    only its independent components, at (rows, columns) `pairs`, and the
    lift, the mollification, the subtraction and the class projection all
    act on those; the symmetric part of a symmetric tensor is itself, so
    the projection only takes a third of the trace off the diagonal (sym)
    or is the identity (skew). It runs in place, column by column. This
    gives the values the full 3x3 algebra would, and each output slice is
    written once per pair by field.expand. The projection's defect, the
    largest change it makes, is checked against tol times the quadratic
    input size scale: a commutator that is pure rounding noise must still
    pass."""
    grid = state_q[0].grid
    base = mol._smooth(lambda j: flux(*(f.data[j] for f in state_q)), grid,
                       (len(pairs[0]),))
    out = np.zeros(grid.shape + (3, 3))
    diag = _SYM_DIAG if sign == 1.0 else ()

    def subtract(j):
        given = flux(*(f.data[j] for f in state_l))
        given -= base[j]
        tr = _third_trace(given) if diag else None
        defect = np.zeros(())
        for p in range(given.shape[-1]):
            col = given[..., p]
            projected = col - tr if p in diag else col
            # np.maximum: a NaN column keeps the defect NaN
            defect = np.maximum(defect, np.abs(col - projected).max())
            if projected is not col:
                col[...] = projected
        expand(given, pairs, sign, out=out[j])
        return float(defect)

    defect = float(np.max(map_slices(subtract, range(grid.n_t))))
    gate({"defect": defect / scale},
         [("defect", f"commutator stress is not {label}: relative defect",
           tol)], ValueError)
    return Field(out, grid, _take=True)


def commutator_stresses(u_q: Field, B_q: Field, u_l: Field, B_l: Field,
                        ell: float):
    """Quadratic mollification commutators of the relaxed system.

    Returns the symmetric traceless velocity commutator and the skew
    magnetic commutator; output symmetry classes are exact, with the
    projection defect checked against 1e-12.
    """
    mol = Mollifier(ell)
    _check_mollified("u_l", u_l, u_q, mol)
    _check_mollified("B_l", B_l, B_q, mol)
    qscale = max(u_q.max_abs(), B_q.max_abs(), 1e-150) ** 2
    r_u = _commutator(mol, _sym_flux, SYM_PAIRS, 1.0, "symmetric traceless",
                      (u_q, B_q), (u_l, B_l), qscale)
    r_b = _commutator(mol, _skew_flux, SKEW_PAIRS, -1.0, "skew", (u_q, B_q),
                      (u_l, B_l), qscale)
    return r_u, r_b


def mollified_pressure(P_q: Field, u_q: Field, B_q: Field, u_l: Field,
                       B_l: Field, ell: float) -> Field:
    """Pressure of the mollified system.

    The trace parts of the quadratic commutator carry weight 1/3 (the
    traceless projection removes a third of the squared magnitude per
    direction), and exactly that weight makes the mollified momentum
    equation close; the popular convention with full squared magnitudes
    differs by a harmless gradient but does not close identically.
    """
    mol = Mollifier(ell)
    quad_q = dot(u_q, u_q) - dot(B_q, B_q)
    quad_l = dot(u_l, u_l) - dot(B_l, B_l)
    p = mol.apply(P_q) - (1.0 / 3.0) * quad_l + (1.0 / 3.0) * mol.apply(quad_q)
    return Field(p.data - p.spatial_means()[:, None, None, None], p.grid,
                 _take=True)
