"""Space-time mollification and the commutator bookkeeping it induces.

Kernels are compactly supported C-infinity bumps applied as exact spectral
multipliers: the multiplier at an integer mode is the continuous Fourier
transform of the kernel at that mode, computed by dense quadrature, so
mollification of a grid field is the exact convolution of its band-limited
interpolant. The zero-mode multiplier is one by construction, so means,
constants, and divergence-freeness are preserved exactly.

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

from .field import (
    Field, _outer, _skew, _sym, _traceless, dot, to_physical, to_spectral,
)
from .grid import Grid4, GridResolutionError, TWO_PI
from .profiles import _bump
from .threads import map_slices

_QUAD_N = 1 << 12
# half-width and center of the one-sided temporal kernel, in units of ell;
# equal values put the support at (0, 2 * 0.45 * ell), inside (-ell, ell)
_T_SHAPE = 0.45

_NODE_CACHE = None


def _bump_quadrature():
    """Midpoint nodes of the unit bump and its mass under the same rule;
    normalizing by this mass makes the zero-frequency symbol exactly one."""
    global _NODE_CACHE
    if _NODE_CACHE is None:
        s = -1.0 + (np.arange(_QUAD_N) + 0.5) * (2.0 / _QUAD_N)
        vals = _bump(s, 1)
        _NODE_CACHE = (s, vals, float(vals.sum()) * (2.0 / _QUAD_N))
    return _NODE_CACHE


def _unit_bump_symbol(omega):
    """Fourier transform of the mass-one bump at the given frequencies."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    s, vals, mass = _bump_quadrature()
    out = np.cos(np.multiply.outer(omega, s)) @ vals
    return out * (2.0 / _QUAD_N) / mass


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

    def spatial_kernel(self, x):
        """One tensor factor of the spatial kernel; the kernel on the
        spatial torus is the product of this over the three coordinates."""
        x = np.asarray(x, dtype=float)
        s = np.mod(x + np.pi, TWO_PI) - np.pi
        mass = _bump_quadrature()[2]
        return _bump(s / self.ell, 1) / (self.ell * mass)

    def temporal_kernel(self, t):
        t = np.asarray(t, dtype=float)
        h = _T_SHAPE * self.ell
        s = np.mod(t + np.pi, TWO_PI) - np.pi
        mass = _bump_quadrature()[2]
        return _bump((s - h) / h, 1) / (h * mass)

    def spatial_symbol(self, k):
        return _unit_bump_symbol(np.asarray(k, dtype=float) * self.ell)

    def temporal_symbol(self, k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        h = _T_SHAPE * self.ell
        return np.exp(-1j * k * h) * _unit_bump_symbol(k * h)

    def validate(self, grid: Grid4):
        """Kernel supports must span at least four grid cells per axis."""
        dx = TWO_PI / grid.n_x
        dt = TWO_PI / grid.n_t
        if 2.0 * self.ell < 4.0 * dx or 2.0 * _T_SHAPE * self.ell < 4.0 * dt:
            raise GridResolutionError(
                f"mollification scale {self.ell:g} is unresolvable: kernel "
                f"supports {2 * self.ell:g} (space) / {2 * _T_SHAPE * self.ell:g} "
                f"(time) need four cells at dx={dx:g}, dt={dt:g}")

    def apply(self, f: Field) -> Field:
        return Field(self._smooth(f.data, f.grid), f.grid, _take=True)

    def _smooth(self, data, g: Grid4):
        """The mollified samples of a (n_t, n, n, n, ...) array."""
        self.validate(g)
        pad = (1,) * (data.ndim - 4)
        # fresh coefficients, multiplied in place: applying to a temporary
        # field never caches a spectral copy on it
        coef = to_spectral(data, g)
        coef *= self.temporal_symbol(g.k_t()).reshape((g.n_t, 1, 1, 1) + pad)
        mx = self.spatial_symbol(g.k_full())
        coef *= mx.reshape((1, g.n_x, 1, 1) + pad)
        coef *= mx.reshape((1, 1, g.n_x, 1) + pad)
        mh = self.spatial_symbol(g.k_half())
        coef *= mh.reshape((1, 1, 1, len(mh)) + pad)
        return to_physical(coef, g)


def mollify(f: Field, ell: float) -> Field:
    """Convolve with the scale-ell space and time kernels."""
    return Mollifier(ell).apply(f)


def _check_mollified(name: str, given: Field, source: Field, mol: Mollifier):
    want = mol.apply(source)
    scale = max(want.max_abs(), 1e-300)
    defect = (given - want).max_abs()
    if defect > 1e-8 * scale:
        raise ValueError(
            f"{name} does not equal the scale-{mol.ell:g} mollification of "
            f"its source (relative defect {defect / scale:.2e})")


# (rows, columns) of the independent components of a symmetric and of a
# skew 3x3 tensor
_SYM_PAIRS = ((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2))
_SKEW_PAIRS = ((0, 0, 1), (1, 2, 2))


def _sym_quad(u, b):
    return _traceless(_outer(u, u) - _outer(b, b))


def _skew_quad(u, b):
    return _outer(b, u) - _outer(u, b)


def _commutator(mol, quad, pairs, sign, project, label, state_q, state_l,
                scale, tol=1e-12):
    """project(quad(state_l) - mollified quad(state_q)), slice by slice.

    quad(state_q) is exactly symmetric (sign 1) or exactly skew (sign -1):
    IEEE products commute and negation is exact. So only its independent
    components, at (rows, columns) `pairs`, are mollified and the rest are
    mirrored, which gives the values mollifying all nine would. The class
    projection's defect is checked against tol times the quadratic input
    size scale: a commutator that is pure rounding noise must still pass."""
    grid = state_q[0].grid
    rows, cols = pairs
    lifted = np.empty(grid.shape + (len(rows),))

    def lift(j):
        lifted[j] = quad(*(f.data[j] for f in state_q))[..., rows, cols]

    map_slices(lift, range(grid.n_t))
    base = mol._smooth(lifted, grid)
    del lifted
    out = np.empty(grid.shape + (3, 3))

    def subtract(j):
        full = np.zeros(base.shape[1:-1] + (3, 3))
        full[..., rows, cols] = base[j]
        full[..., cols, rows] = sign * base[j]
        flux = quad(*(f.data[j] for f in state_l)) - full
        out[j] = project(flux)
        return float(np.abs(flux - out[j]).max())

    defect = float(np.max(map_slices(subtract, range(grid.n_t))))
    if defect > tol * scale:
        raise ValueError(f"commutator stress is not {label}: defect {defect / scale:.2e}")
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
    r_u = _commutator(mol, _sym_quad, _SYM_PAIRS, 1.0,
                      lambda t: _traceless(_sym(t)), "symmetric traceless",
                      (u_q, B_q), (u_l, B_l), qscale)
    r_b = _commutator(mol, _skew_quad, _SKEW_PAIRS, -1.0, _skew, "skew",
                      (u_q, B_q), (u_l, B_l), qscale)
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
