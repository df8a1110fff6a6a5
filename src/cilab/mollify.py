"""Space-time mollification and the commutator bookkeeping it induces.

Kernels are compactly supported C-infinity bumps applied as exact
multipliers: the multiplier at an integer mode is the continuous Fourier
transform of the kernel there, so mollifying a grid field convolves its
band-limited interpolant exactly. Masses and transforms are integrals of
the bump by the one Gauss-Legendre rule of cilab.profiles (bump_integral);
the zero-mode multiplier is the rule's mass over itself, exactly one, so
means, constants and divergence-freeness are preserved. No spectrum is
formed: each 1D factor of the symbol is a real circulant matrix along its
axis, with the Nyquist rule of the derivative D (spectral.multiplier_matrix).

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
# x2 rows of one x1 plane per product of the time matrix: at 16x48^3 a
# tensor's time pass took 26 ms, against 40 ms by rows and 46 ms by planes
_TIME_ROWS = 8


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
        """The mollified field. A 3x3 tensor that is exactly symmetric or
        skew keeps its class bitwise: its first x1 plane picks the class,
        and its slices are checked as its independent entries alone are
        mollified; a slice off the class sends it to the full path."""
        args = (lambda j, dst: f.data[j], f.grid, f.data.shape[4:])
        cls = [c for c in _CLASSES if f.rank == 2
               and _mirrored(f.data[0, 0], c[1])]
        out = self._smooth(*args, *cls[0]) if cls else None
        return Field(self._smooth(*args) if out is None else out, f.grid,
                     _take=True)

    def _smooth(self, source, g: Grid4, comp, pairs=None, sign=1.0):
        """The mollified array (n_t, n, n, n) + comp; source(j, dst) gives
        input slice j, maybe written into dst, the output slice. The
        spatial matrix runs along each axis of one component of a slice,
        then the time matrix on a few x2 rows at a time. With pairs, only
        those entries of a 3x3 tensor of class sign are mollified, then
        mirrored; None if a slice is not of that class."""
        self.validate(g)
        space = spectral.multiplier_matrix(self.spatial_symbol, g.n_x)
        places = list(np.ndindex(comp) if pairs is None else zip(*pairs))
        out = np.zeros(g.shape + comp)

        def smooth_space(j):
            src = source(j, out[j])
            if pairs is not None and not _mirrored(src, sign):
                return False
            for c in places:
                x = src[(...,) + c]
                for axis in range(3):
                    x = spectral.along(space, x, axis)
                out[(j, ...) + c] = x
            return True

        if not all(map_slices(smooth_space, range(g.n_t))):
            return None
        mat = spectral.multiplier_matrix(self.temporal_symbol, g.n_t)

        def smooth_time(i):
            for k in range(0, g.n_x, _TIME_ROWS):
                x = out[:, i, k:k + _TIME_ROWS]
                x[...] = (mat @ x.reshape(g.n_t, -1)).reshape(x.shape)
            for r, c in zip(*SKEW_PAIRS) if pairs else ():  # off-diagonal
                np.multiply(out[:, i, ..., r, c], sign, out=out[:, i, ..., c, r])

        map_slices(smooth_time, range(g.n_x))
        return out


# the classes of 3x3 tensors held by their independent entries
_CLASSES = ((SYM_PAIRS, 1.0), (SKEW_PAIRS, -1.0))


def _mirrored(s, sign) -> bool:
    """Whether each entry of the 3x3 samples s is exactly sign times its
    mirror, so that a skew diagonal is zero."""
    return all(np.array_equal(s[..., c, r], sign * s[..., r, c])
               for r, c in zip(*SYM_PAIRS))


def mollify(f: Field, ell: float) -> Field:
    """Convolve with the scale-ell space and time kernels."""
    return Mollifier(ell).apply(f)


def _check_mollified(name: str, given: Field, source: Field, mol: Mollifier):
    want = mol._smooth(lambda j, dst: source.data[j], source.grid,
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


def _flux(u, b, sign, out, minus=False):
    """Into the compact out, column by column, the traceless u (x) u -
    b (x) b on SYM_PAIRS (sign 1) or b (x) u - u (x) b on SKEW_PAIRS (sign
    -1), less what out holds with minus; a few columns are held besides."""
    pairs = SYM_PAIRS if sign > 0 else SKEW_PAIRS
    x, y, z, w = (u, u, b, b) if sign > 0 else (b, u, u, b)

    def column(r, c):
        col = x[..., r] * y[..., c]
        col -= z[..., r] * w[..., c]
        return col

    if sign > 0:
        tr = (column(0, 0) + column(1, 1) + column(2, 2)) / 3.0
    for p, (r, c) in enumerate(zip(*pairs)):
        col = column(r, c)
        if r == c:
            col -= tr
        if minus:
            np.subtract(col, out[..., p], out=out[..., p])
        else:
            out[..., p] = col
    return out


def _commutator(mol, sign, label, state_q, state_l, scale, tol=1e-12):
    """The class projection of the flux of state_l less the mollified flux
    of state_q, slice by slice.

    The full quadratic flux is exactly symmetric (sign 1) or exactly skew
    (sign -1): IEEE products commute and negation is exact. So _flux gives
    only its independent components, at (rows, columns) `pairs`, and the
    lift, the mollification, the subtraction and the class projection all
    act on those; the symmetric part of a symmetric tensor is itself, so
    the projection only takes a third of the trace off the diagonal (sym)
    or is the identity (skew). Each flux is written into its slice of the
    mollified array, and the projection runs there in place, column by
    column. This gives the values the full 3x3 algebra would, and each
    output slice is written once per pair by field.expand. The projection's
    defect, the largest change it makes, is checked against tol times the
    quadratic input size scale: a commutator of rounding noise must pass."""
    grid = state_q[0].grid
    pairs = SYM_PAIRS if sign > 0 else SKEW_PAIRS
    base = mol._smooth(
        lambda j, dst: _flux(*(f.data[j] for f in state_q), sign, dst),
        grid, (len(pairs[0]),))
    out = np.zeros(grid.shape + (3, 3))
    diag = _SYM_DIAG if sign == 1.0 else ()

    def subtract(j):
        given = _flux(*(f.data[j] for f in state_l), sign, base[j],
                      minus=True)
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
    r_u = _commutator(mol, 1.0, "symmetric traceless", (u_q, B_q),
                      (u_l, B_l), qscale)
    r_b = _commutator(mol, -1.0, "skew", (u_q, B_q), (u_l, B_l), qscale)
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
