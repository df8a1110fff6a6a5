"""Stress-dependent amplitude coefficients and the cancellation identities.

The amplitude of each block is sqrt(rho) f(t) gamma_(k), where rho rescales
the mollified stress into the geometric ball, f is a temporal cutoff tied
to the measured stress support, and gamma_(k) are the square roots of the
affine decomposition coefficients. Because the squared amplitudes are
affine in the stress and the block second moments equal the frame
generators exactly, summing a_(k)^2 times the block mean tensors
reproduces minus the stress pointwise; that is the content of the two
cancellation identities this module verifies.

The auxiliary matrix G_B collects the mean velocity-magnetic imbalance of
the magnetic blocks: their squares times the velocity products P_v =
k1 (x) k1 - k2 (x) k2 of blocks.flow_products. The frame family is built
from antipodal swap pairs whose imbalance tensors cancel at the base
point, so G_B is exactly affine in the magnetic stress with no dependence
on rho_B; the velocity family then absorbs R_u + G_B in one decomposition.

The set keeps its data at its true size, 11 scalar fields in one zeroed,
component-major array of shape (11, n_t, n, n, n): rho_B, the 3 independent
components of the skew R_l^B (field.SKEW_PAIRS), rho_u and the 6 of the
symmetric traceless R_l^u (field.SYM_PAIRS). The stress blocks of a slice
that carries no stress stay unwritten, their pages unmapped. The squares
are affine in these rows, so each family's squares on a slice are one BLAS
product: the slice's rows as an (n^3, 4, 7 or 11) transposed view times a
(rows, 6) table, c stacked on minus the transposed geometry table L,
which acts on these same compact components. G_B is never stored: on each
slice it is the magnetic squares times the imbalance table, one product
over the magnetic rows that `build_amplitudes` (for rho_u and f_u) and
`verify_cancellation` use. The velocity squares take its share through
the magnetic rows too, without forming the magnetic squares. The
cancellation check compares compact components as well, so no full 3x3
slice of G_B or of a stress is ever expanded.

Per-frame amplitude fields are not materialized at construction: a
desk-scale grid makes twelve scalar fields more expensive than the
stresses themselves, and every consumer walks time slices anyway. The
slice accessors recompute the squares on demand, each call one product.
"""

import math

import numpy as np

from .blocks import envelope_stack, family, flow_products
from .checks import fold_maxima, gate
from .field import (SKEW_PAIRS, SYM_PAIRS, Field, frobenius_weights,
                    peak_abs)
from .geometry import ConstructionError, GeometrySet
from .grid import Grid4
from .profiles import _bump
from .threads import map_slices


class CancellationError(RuntimeError):
    """A term group of a cancellation identity exceeded its tolerance."""


# -- the scalar cutoff chi ----------------------------------------------------

def _smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    lo = np.exp(-1.0 / np.maximum(s, 1e-300), where=s > 0.0,
                out=np.zeros_like(s))
    hi = np.exp(-1.0 / np.maximum(1.0 - s, 1e-300), where=s < 1.0,
                out=np.zeros_like(s))
    return lo / (lo + hi)


def chi(z):
    """Smooth rescaling cutoff: 1 below one, the identity above two, and a
    C-infinity blend chi(z) = 1 + w(z-1)(z-1) in between, which sits inside
    the required wedge z/2 <= chi(z) <= 2z there."""
    z = np.asarray(z, dtype=float)
    w = _smooth_step(z - 1.0)
    return 1.0 + w * (z - 1.0)


# -- temporal cutoffs ---------------------------------------------------------

def slice_support(slice_norms):
    """Boolean mask of time slices carrying the field: norm above 1e-12 of
    the peak."""
    norms = np.asarray(slice_norms, dtype=float)
    peak = norms.max() if norms.size else 0.0
    if peak <= 0.0:
        return np.zeros(norms.shape, dtype=bool)
    return norms > 1e-12 * peak


def dilate_support(mask, reach):
    """A periodic time mask grown by reach slices to either side."""
    grown = mask.copy()
    for shift in range(1, min(reach, len(mask)) + 1):
        grown |= np.roll(mask, shift) | np.roll(mask, -shift)
    return grown


def temporal_cutoff(support_mask, grid: Grid4, ell: float) -> np.ndarray:
    """Mollified indicator of the ell/2-neighborhood of a time support.

    Equals one on the ell/4-neighborhood of the support (hence on the
    support), vanishes outside the 3 ell/4-neighborhood, and takes values
    in [0, 1]; all three stated cutoff properties follow. On grids too
    coarse to carry the mollification the kernel degenerates to a single
    tap and the cutoff is the sharp dilated indicator.
    """
    mask = np.asarray(support_mask, dtype=bool)
    if mask.shape != (grid.n_t,):
        raise ValueError("support mask must have one entry per time slice")
    if not mask.any():
        return np.zeros(grid.n_t)
    if mask.all():
        return np.ones(grid.n_t)
    reach = int(math.floor(0.5 * ell / grid.dt))
    grown = dilate_support(mask, reach)
    taps = int(math.floor(0.25 * ell / grid.dt))
    if taps == 0:
        return grown.astype(float)
    offsets = np.arange(-taps, taps + 1)
    weights = _bump(offsets * grid.dt / (0.25 * ell), 1)
    weights /= weights.sum()
    out = np.zeros(grid.n_t)
    for off, w in zip(offsets, weights):
        out += w * np.roll(grown, off)
    # the weights sum to one only up to rounding: a slice whose whole
    # window lies in the grown mask is one exactly
    out[dilate_support(mask, reach - taps)] = 1.0
    return np.clip(out, 0.0, 1.0)


# -- amplitude construction ---------------------------------------------------

def _frobenius(compact, pairs):
    """Pointwise Frobenius norm of the tensors with these compact
    components."""
    sq = compact * compact
    sq *= frobenius_weights(pairs)
    return np.sqrt(sq.sum(axis=-1))


def _frobenius_full(t):
    """Pointwise Frobenius norm of the 3x3 tensors t, squared one x1 plane
    at a time."""
    out = np.empty(t.shape[:-2])
    for i, plane in enumerate(t):
        out[i] = (plane ** 2).sum(axis=(-2, -1))
    return np.sqrt(out, out=out)


def _class_defect(t, op):
    """max |op(t_ab, t_ba)| over the 3x3 entries of t, one pair of
    entries at a time: np.subtract measures symmetry, np.add skewness. A
    NaN stays."""
    return float(np.max([peak_abs(op(t[..., a, b], t[..., b, a]))
                         for a in range(3) for b in range(a, 3)]))


_STRESSES = {"velocity": SYM_PAIRS, "magnetic": SKEW_PAIRS}

# rows of AmplitudeSet.data: rho_B, the skew components, rho_u, the
# symmetric components; each family's squares are affine in its rows
_ROWS = {"magnetic": slice(0, 4), "velocity": slice(4, 11)}
_BLOCKS = {"rho_b": 0, "stress_b": slice(1, 4), "rho_u": 4,
           "stress_u": slice(5, 11)}


def _block(data, name):
    """The named block of a storage array as the set exposes it: a scalar
    field, or the stress components along the last axis."""
    rows = _BLOCKS[name]
    return data[rows] if isinstance(rows, int) else np.moveaxis(
        data[rows], 0, -1)


class AmplitudeSet:
    """Amplitude data for one iteration step, at its true size.

    `data` holds the 11 scalar fields (module docstring); `rho_b` and
    `rho_u` are Fields over its rescaling blocks, and `stress_u` ((n_t, n,
    n, n, 6) at field.SYM_PAIRS) and `stress_b` ((n_t, n, n, n, 3) at
    field.SKEW_PAIRS) are read-only views of its stress blocks. Besides
    `data` the set holds the temporal cutoffs f_b and f_u and the per-slice
    peak Frobenius norms of the two stresses (`peak_u`, `peak_b`).
    The squared amplitudes come from the slice accessors. Construct with
    keywords.
    """

    __slots__ = ("geom", "grid", "delta_next", "ell", "data", "f_b", "f_u",
                 "peak_u", "peak_b", "rho_b", "rho_u", "_tables",
                 "_g_b_table", "_g_b_share")

    def __init__(self, *, geom, grid, delta_next, ell, data, f_b, f_u,
                 peak_u, peak_b):
        self.geom = geom
        self.grid = grid
        self.delta_next = float(delta_next)
        self.ell = float(ell)
        self.data = data
        self.f_b = f_b
        self.f_u = f_u
        self.peak_u = peak_u
        self.peak_b = peak_b
        self.rho_b = Field(data[_BLOCKS["rho_b"]], grid, _take=True)
        self.rho_u = Field(data[_BLOCKS["rho_u"]], grid, _take=True)
        # unscaled squares = rows @ table: rho c - compact(stress) @ L^T
        self._tables = {"magnetic": np.vstack([geom.c_b, -geom.L_b.T]),
                        "velocity": np.vstack([geom.c_u, -geom.L_u.T])}
        # G_B / f_b^2 on the magnetic rows: the squares times each magnetic
        # frame's mean velocity-magnetic imbalance, the velocity product P_v
        # of its flows, on the independent symmetric components
        imbalance = flow_products(np.array(
            [np.concatenate([fr.k1, fr.k2]) for fr in geom.lambda_b]))[
                :, :3][:, SYM_PAIRS[0], SYM_PAIRS[1]]
        self._g_b_table = self._tables["magnetic"] @ imbalance
        # and its share of the velocity squares, which take R_u + G_B
        self._g_b_share = -self._g_b_table @ geom.L_u.T

    @property
    def stress_u(self) -> np.ndarray:
        return _block(self.data, "stress_u")

    @property
    def stress_b(self) -> np.ndarray:
        return _block(self.data, "stress_b")

    def frames(self, family: str):
        if family == "magnetic":
            return self.geom.lambda_b
        if family == "velocity":
            return self.geom.lambda_u
        raise ValueError(f"unknown amplitude family {family!r}")

    def cutoff(self, family: str) -> np.ndarray:
        """The temporal cutoff of one family's amplitudes: f_b for the
        magnetic frames, f_u for the velocity frames."""
        if family == "magnetic":
            return self.f_b
        if family == "velocity":
            return self.f_u
        raise ValueError(f"unknown amplitude family {family!r}")

    def _rows(self, rows, j: int, table) -> np.ndarray:
        """Rows of data on slice j, as an (n^3, len) transposed view, times
        table."""
        block = self.data[rows, j]
        return block.reshape(len(block), -1).T @ table

    def _squares(self, family: str, j: int, frame=None) -> np.ndarray:
        """rho (c + L : arg) with arg = -stress / rho on slice j, times the
        squared cutoff: all frames as (n^3, 6), or one frame as (n^3,). One
        product over the family's rows; the velocity stress is R_u + G_B,
        and where f_b is nonzero G_B's share enters through the magnetic
        rows. rho > 0 keeps the sign, so a value that is not positive, NaN
        included, is an error."""
        if family not in _ROWS:
            raise ValueError(f"unknown amplitude family {family!r}")
        rows, table = _ROWS[family], self._tables[family]
        if family == "velocity" and self.f_b[j] != 0.0:
            rows = slice(0, rows.stop)
            table = np.vstack([self.f_b[j] ** 2 * self._g_b_share, table])
        vals = self._rows(rows, j, table[:, slice(None) if frame is None
                                         else frame])
        if not vals.min() > 0.0:
            raise ConstructionError(f"{family} amplitude square on slice {j} "
                                    "is not finite or not positive")
        cutoff = self.cutoff(family)[j]
        if cutoff != 1.0:
            vals *= cutoff ** 2
        return vals

    def _g_b(self, j: int) -> np.ndarray:
        """G_B on slice j, on its independent components: the magnetic
        squares times the imbalance table, as one product."""
        n = self.grid.n_x
        return self._rows(_ROWS["magnetic"], j,
                          self.f_b[j] ** 2 * self._g_b_table).reshape(
                              n, n, n, -1)

    def squared_slice(self, family: str, j: int) -> np.ndarray:
        """All squared amplitudes of one family on time slice j, shape
        (n_x, n_x, n_x, 6). Affine in the stress slice by construction."""
        n = self.grid.n_x
        return self._squares(family, j).reshape(n, n, n, -1)

    def squared_component_slice(self, family: str, i: int, j: int) -> np.ndarray:
        """Squared amplitude of the i-th frame of one family on slice j,
        without the other five, so a sweep of one frame over every slice
        holds one scalar time series."""
        n = self.grid.n_x
        return self._squares(family, j, i).reshape(n, n, n)

    def stress_support(self) -> np.ndarray:
        """Time slices where either stress is nonzero, by relative norm."""
        return slice_support(self.peak_u) | slice_support(self.peak_b)

def build_amplitudes(R_l_u: Field, R_l_B: Field, delta_next: float,
                     geom: GeometrySet, grid: Grid4,
                     ell: float = 0.5) -> AmplitudeSet:
    """Construct the amplitude set from the mollified stresses.

    rho_B rescales the magnetic stress into the skew geometry ball, G_B
    sums the squared magnetic amplitudes against the per-frame mean
    imbalance tensors, and rho_u then rescales R_u + G_B into the
    symmetric ball. Ball membership is asserted pointwise; a violation
    means the cutoff chi lost its wedge property, not a bad input. Two
    slice passes on the pool: the first checks the stress classes, keeps
    the independent components and forms rho_B; the second forms G_B and
    rho_u. A slice where both stresses vanish costs no work and no memory:
    its stress components are left unwritten zeros, rho_B there is
    2 delta_next / eps_B, G_B is zero whatever f_b, and rho_u is
    2 delta_next / eps_u. The stress classes are gated after the first
    pass, as preconditions, and both balls together after the second; a
    NaN passes no gate. The set holds no reference to the inputs.
    """
    if R_l_u.grid != grid:
        raise ValueError("velocity stress lives on a different grid")
    if R_l_B.grid != grid:
        raise ValueError("magnetic stress lives on a different grid")
    if R_l_u.rank != 2 or R_l_B.rank != 2:
        raise ValueError("stress inputs must be rank-2 tensor fields")
    if not delta_next > 0.0:
        raise ValueError("amplitude scale delta_next must be positive")
    if not ell > 0.0:
        raise ValueError("support scale ell must be positive")
    # zeroed, not empty: the stress blocks of slices without stress are
    # never written, and glibc leaves the pages of such large arrays
    # unmapped until they are
    data = np.zeros((11,) + grid.shape)
    rho_b, stress_b, rho_u, stress_u = (_block(data, name) for name in _BLOCKS)
    peak_u = np.zeros(grid.n_t)
    peak_b = np.zeros(grid.n_t)
    # per-slice max |entry| of each stress, for the class-check scales
    abs_u = np.zeros(grid.n_t)
    abs_b = np.zeros(grid.n_t)
    idle = np.zeros(grid.n_t, dtype=bool)
    base_b = 2.0 / geom.eps_b * delta_next

    def split(j):
        # a slice that is all zero passes every class check and sits at the
        # plateau chi(0) = 1; .any() counts a NaN slice as nonzero
        r_u, r_b = R_l_u.data[j], R_l_B.data[j]
        carries_u, carries_b = r_u.any(), r_b.any()
        idle[j] = not (carries_u or carries_b)
        defects = []
        if carries_u:
            abs_u[j] = peak_abs(r_u)
            for p, (r, c) in enumerate(zip(*SYM_PAIRS)):
                stress_u[j, ..., p] = r_u[..., r, c]
            peak_u[j] = _frobenius_full(r_u).max()
            trace = r_u[..., 0, 0] + r_u[..., 1, 1] + r_u[..., 2, 2]
            defects += [("symmetric", _class_defect(r_u, np.subtract)),
                        ("trace", peak_abs(trace))]
        if not carries_b:
            rho_b[j] = base_b
            return defects
        abs_b[j] = peak_abs(r_b)
        for p, (r, c) in enumerate(zip(*SKEW_PAIRS)):
            stress_b[j, ..., p] = r_b[..., r, c]
        frob_b = _frobenius_full(r_b)
        rho_b[j] = base_b * chi(frob_b / delta_next)
        peak_b[j] = frob_b.max()
        return defects + [("skew", _class_defect(r_b, np.add)),
                          ("magnetic_ball", float((frob_b / rho_b[j]).max()))]

    defects = fold_maxima(
        dict.fromkeys(("symmetric", "trace", "skew", "magnetic_ball",
                       "velocity_ball"), 0.0),
        map_slices(split, range(grid.n_t)))
    # the whole-field max |entry|: np.max keeps a NaN as a whole-field
    # pass does, where Python's max would drop it by its position
    scale_u = 1e-10 * max(1.0, float(abs_u.max()))
    gate(defects, [
        ("symmetric", "velocity stress must be symmetric (defect)", scale_u),
        ("trace", "velocity stress must be traceless (defect)", scale_u),
        ("skew", "magnetic stress must be skew-symmetric (defect)",
         1e-10 * max(1.0, float(abs_b.max())))], ValueError)
    f_b = temporal_cutoff(slice_support(peak_b), grid, ell)
    # rho_u and f_u are filled in below; G_B reads only the magnetic rows
    amps = AmplitudeSet(geom=geom, grid=grid, delta_next=delta_next, ell=ell,
                        data=data, f_b=f_b, f_u=None, peak_u=peak_u,
                        peak_b=peak_b)
    peak_gb = np.zeros(grid.n_t)
    base_u = 2.0 / geom.eps_u * delta_next

    def fill(j):
        if idle[j]:
            # G_B is linear in the stress rows, since the rho_B rows of its
            # tables are zero, so R_u + G_B is zero here
            rho_u[j] = base_u
            return []
        g_b = amps._g_b(j)
        frob_u = _frobenius(stress_u[j] + g_b, SYM_PAIRS)
        rho_u[j] = base_u * chi(frob_u / delta_next)
        peak_gb[j] = _frobenius(g_b, SYM_PAIRS).max()
        return [("velocity_ball", float((frob_u / rho_u[j]).max()))]

    gate(fold_maxima(defects, map_slices(fill, range(grid.n_t))), [
        ("magnetic_ball", "magnetic stress left the geometry ball: ratio",
         geom.eps_b * (1.0 + 1e-12)),
        ("velocity_ball", "velocity stress left the geometry ball: ratio",
         geom.eps_u * (1.0 + 1e-12))], ConstructionError)
    for arr in (data, peak_u, peak_b):
        arr.setflags(write=False)
    amps.f_u = temporal_cutoff(slice_support(peak_u) | slice_support(peak_gb),
                               grid, ell)
    return amps


# -- cancellation identities --------------------------------------------------

def verify_cancellation(amps: AmplitudeSet, blocks: dict,
                        temporal=None) -> dict:
    """Evaluate both cancellation identities literally on the grid.

    blocks maps frame names to BlockSet instances on the amplitude grid,
    covering both families. temporal supplies the oscillation profile g
    (g identically one when absent). Both sides of each identity are
    assembled term by term per time slice; the report carries the worst
    relative residual per identity ("magnetic", "velocity") and the worst
    deviation of the grid block moments from the frame generators
    ("moment_defect"), each gated at 1e-7 through cilab.checks, in
    diagnostic order: block moments, then magnetic cancellation, then
    velocity cancellation. A family's products P in its own equation (P_m
    magnetic, P_v velocity, blocks.flow_products) are exactly its
    decomposition's generators, so the moment defect compares the envelope
    means times P with P. Both sides of an identity are exactly skew or
    exactly symmetric, so they are compared on their compact components
    (field.SKEW_PAIRS, SYM_PAIRS), where the worst entry is the worst of
    all nine: a family's six flow products (squared envelopes times P) sum
    as one (n^3, 6) @ (6, 3 or 6) product.
    """
    grid = amps.grid
    g_sq = np.ones(grid.n_t)
    if temporal is not None:
        g_sq = temporal.g(grid.t()) ** 2

    # each family with its products in its own equation, on the compact
    # components of its stress
    families = []
    for name, side in (("magnetic", slice(3, 6)), ("velocity", slice(0, 3))):
        fam = family(name, amps.frames(name), blocks, grid)
        rows, cols = _STRESSES[name]
        families.append((fam, flow_products(fam.flows)[:, side][:, rows, cols]))
    identity = np.equal(*SYM_PAIRS).astype(float)  # compact(Id)

    def target(name, j):
        """The identity's right side on slice j, (n, n, n, 3 or 6)."""
        if name == "magnetic":
            return -amps.stress_b[j]
        out = (amps.rho_u.data[j][..., None] * amps.f_u[j] ** 2) * identity
        out -= amps.stress_u[j]
        out -= amps._g_b(j)
        return out

    def residuals(j):
        """Both sides of each identity, formed in the buffers of the
        squared envelopes and the products."""
        updates = []
        g2 = g_sq[j]
        for fam, prods in families:
            a2 = amps.squared_slice(fam.name, j).reshape(-1, len(fam.sets))
            env2 = envelope_stack(fam.sets, j)
            np.square(env2, out=env2)
            mean = env2.mean(axis=0)
            updates.append(("moment_defect", float(np.abs(
                mean[:, None] * prods - prods).max())))
            weight = g2 * env2
            weight *= a2
            lhs = weight @ prods
            del weight
            # a2 (g2 (env2 - mean) + (g2 - 1) mean), in env2's buffer
            env2 -= mean
            env2 *= g2
            env2 += (g2 - 1.0) * mean
            env2 *= a2
            del a2
            rhs = env2 @ prods
            del env2
            rhs += target(fam.name, j).reshape(len(lhs), -1)
            scale = max(peak_abs(lhs), peak_abs(rhs), amps.delta_next)
            updates.append((fam.name, peak_abs(np.subtract(lhs, rhs, out=rhs))
                            / scale))
            del lhs, rhs  # before the next family's squares
        return updates

    report = fold_maxima(
        dict.fromkeys(("moment_defect", "magnetic", "velocity"), 0.0),
        map_slices(residuals, range(grid.n_t)))
    return gate(report, [
        ("moment_defect",
         "block second moments deviate from the frame generators by", 1e-7),
        ("magnetic", "magnetic cancellation residual", 1e-7),
        ("velocity", "velocity cancellation residual", 1e-7)],
        CancellationError)
