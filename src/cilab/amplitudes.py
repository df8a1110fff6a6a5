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

Per-frame amplitude fields are not materialized at construction: a
desk-scale grid makes twelve scalar fields more expensive than the
stresses themselves, and every consumer walks time slices anyway. The
slice accessors recompute the affine coefficients on demand, all six
frames of a family in one (n^3, 9) @ (9, 6) product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import envelope_stack, flow_terms
from .field import Field
from .geometry import (
    ConstructionError, GeometrySet, skew_generator, sym_generator,
)
from .grid import Grid4, TWO_PI
from .profiles import _bump


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

def _frobenius_slices(data):
    """Pointwise Frobenius norm per time slice, streamed to limit peaks."""
    out = np.empty(data.shape[:4])
    for j in range(data.shape[0]):
        out[j] = np.sqrt((data[j] ** 2).sum(axis=(-2, -1)))
    return out


def _require_skew(f: Field, what: str):
    defect = np.abs(f.data + np.swapaxes(f.data, 4, 5)).max()
    if defect > 1e-10 * max(1.0, f.max_abs()):
        raise ValueError(f"{what} must be skew-symmetric (defect {defect:g})")


def _require_sym_traceless(f: Field, what: str):
    scale = max(1.0, f.max_abs())
    defect = np.abs(f.data - np.swapaxes(f.data, 4, 5)).max()
    if defect > 1e-10 * scale:
        raise ValueError(f"{what} must be symmetric (defect {defect:g})")
    tr = f.data[..., 0, 0] + f.data[..., 1, 1] + f.data[..., 2, 2]
    if np.abs(tr).max() > 1e-10 * scale:
        raise ValueError(f"{what} must be traceless")


class AmplitudeSet:
    """Amplitude data for one iteration step.

    Holds the two rescaling fields, the auxiliary matrix G_B, the temporal
    cutoffs, and references to the mollified stresses the amplitudes are
    affine in. Per-frame amplitudes come from the accessors: full fields
    for small grids, slice arrays for streaming consumers.
    """

    __slots__ = ("geom", "grid", "delta_next", "ell", "rho_b", "rho_u",
                 "g_b", "f_b", "f_u", "r_l_u", "r_l_b", "eps_u", "eps_b",
                 "_index")

    def __init__(self, geom, grid, delta_next, ell, rho_b, rho_u, g_b,
                 f_b, f_u, r_l_u, r_l_b):
        self.geom = geom
        self.grid = grid
        self.delta_next = float(delta_next)
        self.ell = float(ell)
        self.rho_b = rho_b
        self.rho_u = rho_u
        self.g_b = g_b
        self.f_b = f_b
        self.f_u = f_u
        self.r_l_u = r_l_u
        self.r_l_b = r_l_b
        self.eps_u = geom.eps_u
        self.eps_b = geom.eps_b
        self._index = {}
        for i, fr in enumerate(geom.lambda_b):
            self._index[fr.name] = ("magnetic", i)
        for i, fr in enumerate(geom.lambda_u):
            self._index[fr.name] = ("velocity", i)

    def frames(self, family: str):
        if family == "magnetic":
            return self.geom.lambda_b
        if family == "velocity":
            return self.geom.lambda_u
        raise ValueError(f"unknown amplitude family {family!r}")

    def _slice_state(self, family: str, j: int):
        """Slice density, the stress slices whose sum the family's
        amplitudes are affine in, cutoff weight, and affine tables."""
        if family == "magnetic":
            return (self.rho_b.data[j], (self.r_l_b.data[j],),
                    self.f_b[j] ** 2, self.geom.c_b, self.geom.L_b)
        if family == "velocity":
            return (self.rho_u.data[j], (self.r_l_u.data[j], self.g_b.data[j]),
                    self.f_u[j] ** 2, self.geom.c_u, self.geom.L_u)
        raise ValueError(f"unknown amplitude family {family!r}")

    def squared_slice(self, family: str, j: int) -> np.ndarray:
        """All squared amplitudes of one family on time slice j, shape
        (n_x, n_x, n_x, 6). Affine in the stress slice by construction."""
        rho, stresses, weight, c, L = self._slice_state(family, j)
        # rho (c + L : arg) with arg = -stress / rho; rho > 0 keeps the sign
        vals = rho.reshape(-1, 1) * c - sum(
            s.reshape(-1, 9) @ L.reshape(len(c), 9).T for s in stresses)
        if vals.min() <= 0.0:
            raise ConstructionError(
                f"{family} amplitude square lost positivity on slice {j}")
        return (weight * vals).reshape(rho.shape + (len(c),))

    def squared_component_slice(self, family: str, i: int, j: int) -> np.ndarray:
        """Squared amplitude of the i-th frame of one family on slice j,
        without the other five, so a sweep of one frame over every slice
        holds one scalar time series."""
        rho, stresses, weight, c, L = self._slice_state(family, j)
        vals = rho * c[i] - sum(s.reshape(-1, 9) @ L[i].reshape(9)
                                for s in stresses).reshape(rho.shape)
        if vals.min() <= 0.0:
            raise ConstructionError(
                f"{family} amplitude square lost positivity on slice {j}")
        return weight * vals

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
    means the cutoff chi lost its wedge property, not a bad input.
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
    _require_sym_traceless(R_l_u, "velocity stress")
    _require_skew(R_l_B, "magnetic stress")

    frob_b = _frobenius_slices(R_l_B.data)
    rho_b_data = 2.0 / geom.eps_b * delta_next * chi(frob_b / delta_next)
    worst = (frob_b / rho_b_data).max()
    if worst > geom.eps_b * (1.0 + 1e-12):
        raise ConstructionError(
            f"magnetic stress left the geometry ball: {worst:g}")
    rho_b = Field(rho_b_data, grid, _take=True)
    f_b = temporal_cutoff(
        slice_support(frob_b.max(axis=(1, 2, 3))), grid, ell)

    imbalance = np.stack([np.outer(fr.k1, fr.k1) - np.outer(fr.k2, fr.k2)
                          for fr in geom.lambda_b])
    g_b_data = np.empty(grid.shape + (3, 3))
    frob_u = np.empty(grid.shape)
    norm_ru = np.empty(grid.n_t)
    norm_gb = np.empty(grid.n_t)
    for j in range(grid.n_t):
        arg = -R_l_B.data[j] / rho_b_data[j][..., None, None]
        vals = geom.c_b + np.einsum("fab,...ab->...f", geom.L_b, arg)
        if vals.min() <= 0.0:
            raise ConstructionError(
                f"magnetic amplitude square lost positivity on slice {j}")
        a2 = (f_b[j] ** 2) * rho_b_data[j][..., None] * vals
        g_b_data[j] = np.einsum("...f,fab->...ab", a2, imbalance)
        frob_u[j] = np.sqrt(
            ((R_l_u.data[j] + g_b_data[j]) ** 2).sum(axis=(-2, -1)))
        norm_ru[j] = np.sqrt(
            (R_l_u.data[j] ** 2).sum(axis=(-2, -1))).max()
        norm_gb[j] = np.sqrt((g_b_data[j] ** 2).sum(axis=(-2, -1))).max()
    g_b = Field(g_b_data, grid, _take=True)

    rho_u_data = 2.0 / geom.eps_u * delta_next * chi(frob_u / delta_next)
    worst = (frob_u / rho_u_data).max()
    if worst > geom.eps_u * (1.0 + 1e-12):
        raise ConstructionError(
            f"velocity stress left the geometry ball: {worst:g}")
    rho_u = Field(rho_u_data, grid, _take=True)
    f_u = temporal_cutoff(slice_support(norm_ru) | slice_support(norm_gb),
                          grid, ell)

    return AmplitudeSet(geom, grid, delta_next, ell, rho_b, rho_u, g_b,
                        f_b, f_u, R_l_u, R_l_B)


# -- cancellation identities --------------------------------------------------

@dataclass(frozen=True)
class CancellationReport:
    magnetic: float
    velocity: float
    moment_defect: float
    time_indices: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.magnetic, self.velocity) <= self.tol


def verify_cancellation(amps: AmplitudeSet, blocks: dict, temporal=None,
                        time_indices=None, tol: float = 1e-7) -> CancellationReport:
    """Evaluate both cancellation identities literally on the grid.

    blocks maps frame names to BlockSet instances on the amplitude grid,
    covering both families. temporal supplies the oscillation profile g
    (g identically one when absent). Both sides of each identity are
    assembled term by term per time slice; the report carries the worst
    relative residual per identity and the worst deviation of the grid
    block moments from the frame generators. Failure raises with the
    first violated term group named, in diagnostic order: block moments,
    then magnetic cancellation, then velocity cancellation. A family's
    six flow products (squared envelopes times direction tensors) sum as
    one (n^3, 6) @ (6, 9) product.
    """
    grid = amps.grid
    for fr in amps.geom.lambda_b + amps.geom.lambda_u:
        if fr.name not in blocks:
            raise ValueError(f"missing block set for frame {fr.name}")
        if blocks[fr.name].grid != grid:
            raise ValueError(f"block set {fr.name} lives on a different grid")
    if time_indices is None:
        time_indices = range(grid.n_t)
    time_indices = tuple(int(j) for j in time_indices)
    g_sq = np.ones(grid.n_t)
    if temporal is not None:
        g_sq = temporal.g(grid.t()) ** 2

    families = {}
    for family, gen in (("magnetic", skew_generator),
                        ("velocity", sym_generator)):
        frames = amps.frames(family)
        sets = [blocks[fr.name] for fr in frames]
        [(pair, vel)] = flow_terms(sets, "velocity")
        if family == "magnetic":
            [(_, mag)] = flow_terms(sets, "magnetic")
            prods = (np.einsum("fa,fb->fab", mag, vel)
                     - np.einsum("fa,fb->fab", vel, mag))
        else:
            prods = np.einsum("fa,fb->fab", vel, vel)
        gens = np.stack([gen(fr) for fr in frames])
        families[family] = (sets, pair, prods.reshape(len(frames), 9), gens)
    moment_defect = 0.0
    resid = {"magnetic": 0.0, "velocity": 0.0}
    for j in time_indices:
        targets = {
            "magnetic": -amps.r_l_b.data[j],
            "velocity": (amps.rho_u.data[j][..., None, None]
                         * amps.f_u[j] ** 2) * np.eye(3)
                        - amps.r_l_u.data[j] - amps.g_b.data[j],
        }
        g2 = g_sq[j]
        for family, (sets, pair, prods, gens) in families.items():
            a2 = amps.squared_slice(family, j).reshape(-1, len(sets))
            env2 = envelope_stack(sets, pair, j) ** 2
            mean = env2.mean(axis=0)
            moment_defect = max(moment_defect, float(np.abs(
                mean[:, None, None] * prods.reshape(gens.shape) - gens).max()))
            lhs = (a2 * (g2 * env2)) @ prods
            rhs = (targets[family].reshape(-1, 9)
                   + (a2 * (g2 * (env2 - mean) + (g2 - 1.0) * mean)) @ prods)
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(),
                        amps.delta_next)
            resid[family] = max(resid[family],
                                float(np.abs(lhs - rhs).max()) / scale)

    report = CancellationReport(magnetic=resid["magnetic"],
                                velocity=resid["velocity"],
                                moment_defect=moment_defect,
                                time_indices=time_indices, tol=tol)
    if moment_defect > tol:
        raise CancellationError(
            f"block second moments deviate from the frame generators by "
            f"{moment_defect:g} (tolerance {tol:g})")
    for family in ("magnetic", "velocity"):
        if resid[family] > tol:
            raise CancellationError(
                f"{family} cancellation residual {resid[family]:g} exceeds "
                f"{tol:g} (block moment defect {moment_defect:g})")
    return report
