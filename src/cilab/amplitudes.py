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
the magnetic blocks. The frame family is built from antipodal swap pairs
whose imbalance tensors cancel at the base point, so G_B is exactly affine
in the magnetic stress with no dependence on rho_B; the velocity family
then absorbs R_u + G_B in one decomposition.

The set keeps its data at its true size: the two rescaling fields and the
independent components of the two stresses, 6 of the symmetric traceless
R_l^u and 3 of the skew R_l^B (field.SYM_PAIRS, field.SKEW_PAIRS), 11
scalar fields in all, with the affine tables L_u and L_b folded onto those
components. G_B is never stored: on each slice it is the magnetic squares
times the imbalance table, the definition that `build_amplitudes` (for
rho_u and f_u) and `verify_cancellation` use. The velocity squares need only
G_B through the velocity table, so that product is folded once into a
vector w and a (3, 6) table W: their G_B share is f_b^2 (rho_B w - stress_b
W), formed without the magnetic squares.
Full 3x3 slices of G_B and of the stresses are expanded only where a
caller asks for one (`g_b_slice`, `stress_slice`).

Per-frame amplitude fields are not materialized at construction: a
desk-scale grid makes twelve scalar fields more expensive than the
stresses themselves, and every consumer walks time slices anyway. The
slice accessors recompute the affine coefficients on demand, all six
frames of a family in one (n^3, 6) @ (6, 6) or (n^3, 3) @ (3, 6) product.
"""

import math

import numpy as np

from .blocks import envelope_stack, family_sets, flow_terms
from .checks import fold_maxima, gate
from .field import SKEW_PAIRS, SYM_PAIRS, Field, expand
from .geometry import (
    ConstructionError, GeometrySet, skew_generator, sym_generator,
)
from .grid import Grid4, TWO_PI
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

_SUPPORT_RTOL = 1e-12


def slice_support(slice_norms, rtol=_SUPPORT_RTOL):
    """Boolean mask of time slices carrying the field, by relative norm."""
    norms = np.asarray(slice_norms, dtype=float)
    peak = norms.max() if norms.size else 0.0
    if peak <= 0.0:
        return np.zeros(norms.shape, dtype=bool)
    return norms > rtol * peak

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
    dilate = int(math.floor(0.5 * ell / grid.dt))
    grown = mask.copy()
    for shift in range(1, dilate + 1):
        grown |= np.roll(mask, shift) | np.roll(mask, -shift)
    taps = int(math.floor(0.25 * ell / grid.dt))
    if taps == 0:
        return grown.astype(float)
    offsets = np.arange(-taps, taps + 1)
    weights = _bump(offsets * grid.dt / (0.25 * ell), 1)
    weights /= weights.sum()
    out = np.zeros(grid.n_t)
    for off, w in zip(offsets, weights):
        out += w * np.roll(grown, off)
    return np.clip(out, 0.0, 1.0)


# -- amplitude construction ---------------------------------------------------

def _fold(table, pairs, sign):
    """(k, 3, 3) coefficient tables as (k, len(pairs)) tables on compact
    components: table : S = compact(S) @ folded.T for every S of the class
    (sign 1 symmetric, -1 skew)."""
    rows, cols = pairs
    off = np.not_equal(rows, cols)
    return table[:, rows, cols] + (sign * off) * table[:, cols, rows]


def _frobenius(compact, pairs):
    """Pointwise Frobenius norm of the tensors with these compact
    components: a mirrored component counts twice."""
    weights = np.where(np.equal(*pairs), 1.0, 2.0)
    return np.sqrt((compact * compact * weights).sum(axis=-1))


_STRESSES = {"velocity": (SYM_PAIRS, 1.0), "magnetic": (SKEW_PAIRS, -1.0)}


class AmplitudeSet:
    """Amplitude data for one iteration step, at its true size.

    Holds the two rescaling fields rho_b and rho_u, the temporal cutoffs
    f_b and f_u, the independent components of the mollified stresses the
    amplitudes are affine in (`stress_u`, (n_t, n, n, n, 6) at
    field.SYM_PAIRS, and `stress_b`, (n_t, n, n, n, 3) at field.SKEW_PAIRS)
    and the per-slice peak Frobenius norms of the two stresses (`peak_u`,
    `peak_b`). Per-frame amplitudes, G_B and full 3x3 stress slices come
    from the accessors. Construct with keywords; `replace` swaps entries.
    """

    _FIELDS = ("geom", "grid", "delta_next", "ell", "rho_b", "rho_u", "f_b",
               "f_u", "stress_u", "stress_b", "peak_u", "peak_b")
    __slots__ = _FIELDS + ("eps_u", "eps_b", "_index", "_tables",
                           "_imbalance", "_via_g_b")

    def __init__(self, *, geom, grid, delta_next, ell, rho_b, rho_u, f_b,
                 f_u, stress_u, stress_b, peak_u, peak_b):
        self.geom = geom
        self.grid = grid
        self.delta_next = float(delta_next)
        self.ell = float(ell)
        self.rho_b = rho_b
        self.rho_u = rho_u
        self.f_b = f_b
        self.f_u = f_u
        self.stress_u = stress_u
        self.stress_b = stress_b
        self.peak_u = peak_u
        self.peak_b = peak_b
        self.eps_u = geom.eps_u
        self.eps_b = geom.eps_b
        self._index = {}
        for i, fr in enumerate(geom.lambda_b):
            self._index[fr.name] = ("magnetic", i)
        for i, fr in enumerate(geom.lambda_u):
            self._index[fr.name] = ("velocity", i)
        self._tables = {
            "magnetic": (geom.c_b, _fold(geom.L_b, *_STRESSES["magnetic"])),
            "velocity": (geom.c_u, _fold(geom.L_u, *_STRESSES["velocity"])),
        }
        # mean velocity-magnetic imbalance k1 (x) k1 - k2 (x) k2 of each
        # magnetic frame, on the independent symmetric components
        rows, cols = SYM_PAIRS
        self._imbalance = np.stack([
            (np.outer(fr.k1, fr.k1) - np.outer(fr.k2, fr.k2))[rows, cols]
            for fr in geom.lambda_b])
        # G_B carried through the velocity table: its share of the velocity
        # squares is f_b^2 (rho_B w - stress_b W)
        c_b, l_b = self._tables["magnetic"]
        via_u = self._imbalance @ self._tables["velocity"][1].T
        self._via_g_b = (c_b @ via_u, l_b.T @ via_u)

    def replace(self, **changes) -> "AmplitudeSet":
        """A new set with the named entries replaced; the rest are shared."""
        entries = {name: getattr(self, name) for name in self._FIELDS}
        entries.update(changes)
        return AmplitudeSet(**entries)

    def frames(self, family: str):
        if family == "magnetic":
            return self.geom.lambda_b
        if family == "velocity":
            return self.geom.lambda_u
        raise ValueError(f"unknown amplitude family {family!r}")

    def _squares(self, family: str, j: int, frame=None) -> np.ndarray:
        """rho (c + L : arg) with arg = -stress / rho on slice j, times the
        squared cutoff: all frames as (n^3, 6), or one frame as (n^3, 1).
        The velocity stress is R_u + G_B; G_B enters through the folded
        tables w and W as f_b^2 (rho_B w - stress_b W), without forming the
        magnetic squares, and vanishes on slices where f_b does. rho > 0
        keeps the sign, so a nonpositive value is an error."""
        if family == "magnetic":
            rho, stress, cutoff = self.rho_b.data[j], self.stress_b[j], self.f_b
        elif family == "velocity":
            rho, stress, cutoff = self.rho_u.data[j], self.stress_u[j], self.f_u
        else:
            raise ValueError(f"unknown amplitude family {family!r}")
        cols = slice(None) if frame is None else [frame]
        c, table = self._tables[family]
        stress = stress.reshape(-1, table.shape[1])
        vals = stress @ table[cols].T
        if family == "velocity" and self.f_b[j] != 0.0:
            w, big_w = self._via_g_b
            g_b = self.rho_b.data[j].reshape(-1, 1) * w[cols]
            g_b -= self.stress_b[j].reshape(-1, big_w.shape[0]) @ big_w[:, cols]
            g_b *= self.f_b[j] ** 2
            vals += g_b
        np.subtract(rho.reshape(-1, 1) * c[cols], vals, out=vals)
        if vals.min() <= 0.0:
            raise ConstructionError(
                f"{family} amplitude square lost positivity on slice {j}")
        vals *= cutoff[j] ** 2
        return vals

    def _g_b(self, j: int) -> np.ndarray:
        """G_B on slice j, on its independent components: the magnetic
        squares times the imbalance table."""
        n = self.grid.n_x
        return (self._squares("magnetic", j) @ self._imbalance).reshape(
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

    def g_b_slice(self, j: int) -> np.ndarray:
        """The auxiliary matrix G_B on slice j, (n_x, n_x, n_x, 3, 3)."""
        return expand(self._g_b(j), SYM_PAIRS, 1.0)

    def stress_slice(self, family: str, j: int) -> np.ndarray:
        """The family's mollified stress on slice j, (n_x, n_x, n_x, 3, 3):
        R_l^u for velocity, R_l^B for magnetic."""
        stress = self.stress_u if family == "velocity" else self.stress_b
        return expand(stress[j], *_STRESSES[family])

    def stress_support(self) -> np.ndarray:
        """Time slices where either stress is nonzero, by relative norm."""
        return slice_support(self.peak_u) | slice_support(self.peak_b)

    def amplitude_slice(self, name: str, j: int) -> np.ndarray:
        family, i = self._index[name]
        return np.sqrt(self.squared_slice(family, j)[..., i])

    def amplitude(self, name: str) -> Field:
        """Full amplitude field of one frame; intended for small grids."""
        family, i = self._index[name]
        data = np.empty(self.grid.shape)
        for j in range(self.grid.n_t):
            data[j] = np.sqrt(self.squared_slice(family, j)[..., i])
        return Field(data, self.grid, _take=True)

    def l2_report(self) -> dict:
        """Measured ||a_(k)||_{L^2_{t,x}} / delta_next^{1/2} per frame;
        monitored constants, not certified bounds."""
        vol = TWO_PI ** 4
        out = {}
        for family in ("magnetic", "velocity"):
            acc = np.zeros(len(self.frames(family)))
            for j in range(self.grid.n_t):
                acc += self.squared_slice(family, j).mean(axis=(0, 1, 2))
            acc /= self.grid.n_t
            for fr, m in zip(self.frames(family), acc):
                out[fr.name] = float(np.sqrt(m * vol / self.delta_next))
        return out


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
    its stress components are left unwritten zeros and rho_B there is
    2 delta_next / eps_B, and where f_b vanishes too, G_B is zero and
    rho_u is 2 delta_next / eps_u. Every gate raises unless its defect is
    within tolerance, so a NaN never passes. The set holds no reference to
    the inputs.
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
    # zeroed, not empty: slices without stress are never written, and glibc
    # leaves the pages of such large arrays unmapped until they are
    stress_u = np.zeros(grid.shape + (len(SYM_PAIRS[0]),))
    stress_b = np.zeros(grid.shape + (len(SKEW_PAIRS[0]),))
    rho_b = np.empty(grid.shape)
    peak_u = np.zeros(grid.n_t)
    peak_b = np.zeros(grid.n_t)
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
            stress_u[j] = r_u[..., SYM_PAIRS[0], SYM_PAIRS[1]]
            peak_u[j] = np.sqrt((r_u ** 2).sum(axis=(-2, -1))).max()
            trace = r_u[..., 0, 0] + r_u[..., 1, 1] + r_u[..., 2, 2]
            defects += [
                ("symmetric",
                 float(np.abs(r_u - np.swapaxes(r_u, -1, -2)).max())),
                ("trace", float(np.abs(trace).max()))]
        if not carries_b:
            rho_b[j] = base_b
            return defects
        stress_b[j] = r_b[..., SKEW_PAIRS[0], SKEW_PAIRS[1]]
        frob_b = np.sqrt((r_b ** 2).sum(axis=(-2, -1)))
        rho_b[j] = base_b * chi(frob_b / delta_next)
        peak_b[j] = frob_b.max()
        return defects + [
            ("skew", float(np.abs(r_b + np.swapaxes(r_b, -1, -2)).max())),
            ("ball", float((frob_b / rho_b[j]).max()))]

    defects = fold_maxima(dict.fromkeys(("symmetric", "trace", "skew", "ball"),
                                        0.0),
                          map_slices(split, range(grid.n_t)))
    scale_u = 1e-10 * max(1.0, R_l_u.max_abs())
    gate(defects, [
        ("symmetric", "velocity stress must be symmetric (defect)", scale_u),
        ("trace", "velocity stress must be traceless (defect)", scale_u),
        ("skew", "magnetic stress must be skew-symmetric (defect)",
         1e-10 * max(1.0, R_l_B.max_abs()))], ValueError)
    gate(defects, [("ball", "magnetic stress left the geometry ball: ratio",
                    geom.eps_b * (1.0 + 1e-12))], ConstructionError)
    f_b = temporal_cutoff(slice_support(peak_b), grid, ell)
    magnetic = AmplitudeSet(
        geom=geom, grid=grid, delta_next=delta_next, ell=ell,
        rho_b=Field(rho_b, grid, _take=True), rho_u=None, f_b=f_b, f_u=None,
        stress_u=stress_u, stress_b=stress_b, peak_u=peak_u, peak_b=peak_b)
    rho_u = np.empty(grid.shape)
    peak_gb = np.zeros(grid.n_t)
    base_u = 2.0 / geom.eps_u * delta_next

    def fill(j):
        if idle[j] and f_b[j] == 0.0:
            # G_B carries the factor f_b^2, so R_u + G_B is zero here
            rho_u[j] = base_u
            return []
        g_b = magnetic._g_b(j)
        frob_u = _frobenius(stress_u[j] + g_b, SYM_PAIRS)
        rho_u[j] = base_u * chi(frob_u / delta_next)
        peak_gb[j] = _frobenius(g_b, SYM_PAIRS).max()
        return [("ball", float((frob_u / rho_u[j]).max()))]

    gate(fold_maxima({"ball": 0.0}, map_slices(fill, range(grid.n_t))),
         [("ball", "velocity stress left the geometry ball: ratio",
           geom.eps_u * (1.0 + 1e-12))], ConstructionError)
    for arr in (stress_u, stress_b, peak_u, peak_b):
        arr.setflags(write=False)
    f_u = temporal_cutoff(slice_support(peak_u) | slice_support(peak_gb),
                          grid, ell)
    return magnetic.replace(rho_u=Field(rho_u, grid, _take=True), f_u=f_u)


# -- cancellation identities --------------------------------------------------

def verify_cancellation(amps: AmplitudeSet, blocks: dict, temporal=None,
                        time_indices=None, tol: float = 1e-7) -> dict:
    """Evaluate both cancellation identities literally on the grid.

    blocks maps frame names to BlockSet instances on the amplitude grid,
    covering both families. temporal supplies the oscillation profile g
    (g identically one when absent). Both sides of each identity are
    assembled term by term per time slice; the report carries the worst
    relative residual per identity ("magnetic", "velocity") and the worst
    deviation of the grid block moments from the frame generators
    ("moment_defect"), each gated at tol through cilab.checks, in
    diagnostic order: block moments, then magnetic cancellation, then
    velocity cancellation. A family's six flow products (squared envelopes
    times direction tensors) sum as one (n^3, 6) @ (6, 9) product.
    """
    grid = amps.grid
    if time_indices is None:
        time_indices = range(grid.n_t)
    g_sq = np.ones(grid.n_t)
    if temporal is not None:
        g_sq = temporal.g(grid.t()) ** 2

    families = {}
    for family, gen in (("magnetic", skew_generator),
                        ("velocity", sym_generator)):
        frames = amps.frames(family)
        sets = family_sets(frames, blocks, grid)
        [(pair, vel)] = flow_terms(sets, "velocity")
        if family == "magnetic":
            [(_, mag)] = flow_terms(sets, "magnetic")
            prods = (np.einsum("fa,fb->fab", mag, vel)
                     - np.einsum("fa,fb->fab", vel, mag))
        else:
            prods = np.einsum("fa,fb->fab", vel, vel)
        gens = np.stack([gen(fr) for fr in frames])
        families[family] = (sets, pair, prods.reshape(len(frames), 9), gens)

    def residuals(j):
        updates = []
        targets = {
            "magnetic": -amps.stress_slice("magnetic", j),
            "velocity": (amps.rho_u.data[j][..., None, None]
                         * amps.f_u[j] ** 2) * np.eye(3)
                        - amps.stress_slice("velocity", j) - amps.g_b_slice(j),
        }
        g2 = g_sq[j]
        for family, (sets, pair, prods, gens) in families.items():
            a2 = amps.squared_slice(family, j).reshape(-1, len(sets))
            env2 = envelope_stack(sets, pair, j) ** 2
            mean = env2.mean(axis=0)
            updates.append(("moment_defect", float(np.abs(
                mean[:, None, None] * prods.reshape(gens.shape) - gens).max())))
            lhs = (a2 * (g2 * env2)) @ prods
            rhs = (targets[family].reshape(-1, 9)
                   + (a2 * (g2 * (env2 - mean) + (g2 - 1.0) * mean)) @ prods)
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(),
                        amps.delta_next)
            updates.append((family, float(np.abs(lhs - rhs).max()) / scale))
        return updates

    report = fold_maxima(
        dict.fromkeys(("moment_defect", "magnetic", "velocity"), 0.0),
        map_slices(residuals, time_indices))
    return gate(report, [
        ("moment_defect",
         "block second moments deviate from the frame generators by", tol),
        ("magnetic", "magnetic cancellation residual", tol),
        ("velocity", "velocity cancellation residual", tol)], CancellationError)
