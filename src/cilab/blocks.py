"""Intermittent flow blocks locked to the rational frames.

Every block field is a separable product of two 1D profiles riding linear
phases: a shear profile psi on xi_s = lam r_perp N (k1.x + mu t) and a
concentration profile phi (with antiderivative potential Phi) on
xi_c = lam r_perp N k.x, times a constant frame vector. The double-curl
potential identities reduce to one coefficient relation,
phi = -r_perp^2 Phi'', which is imposed exactly in Fourier coefficient
space, so the identities hold for the materialized fields up to rounding.

Grid samples are produced through integer phase tables: with lam r_perp
and the phase rate lam r_perp N mu integral, both phases live on finite
lattices (n_x points in space, n_x * n_t in space-time), every grid value
is a table lookup, and the sampled fields are exactly the band-limited
trig polynomials they claim to be. A BlockSet builds its tables and
lattice indices when it is sampled; only its moments are cached. The resolution validator enforces the
alias-free bound for quadratic products of the bands, which is the
condition under which spectral derivatives of block products are exact.

Band truncation deliberately changes the profile shapes, so the sampled
fields keep the algebraic structure but not the concentration scaling
laws. Those laws are measured on the true compactly supported profiles
instead, by circle quadrature through the phase pullback: distinct
integer phase directions are jointly equidistributed, so mixed norms
factor into 1D (or, for gradient tensors, 2D) profile integrals.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .grid import Grid4, GridResolutionError
from .profiles import (BandProfile, SpatialProfiles, band_project, fit_loglog,
                       make_spatial_profiles, rescaled)

@dataclass(frozen=True)
class BlockParams:
    """Concentration and oscillation parameters of one block family.

    lam is the integer frequency scale; r_perp and r_par concentrate the
    profiles across and along the flow (r_perp <= r_par <= 1); mu moves
    the shear phase in time. The band widths select how many harmonics of
    each profile the materialized fields carry.
    """

    lam: int
    r_perp: float = 1.0
    r_par: float = 1.0
    mu: float = 0.0
    n_shear_harmonics: int = 1
    n_conc_harmonics: int = 2

    def __post_init__(self):
        if self.lam != int(self.lam) or self.lam < 1:
            raise ValueError(f"frequency scale must be a positive integer, got {self.lam}")
        if not 0.0 < self.r_perp <= self.r_par <= 1.0:
            raise ValueError(
                f"need 0 < r_perp <= r_par <= 1, got {self.r_perp}, {self.r_par}")
        if self.mu < 0:
            raise ValueError(f"temporal oscillation rate must be >= 0, got {self.mu}")
        lr = self.lam * self.r_perp
        if abs(lr - round(lr)) > 1e-9 * max(1.0, lr):
            raise ValueError(
                f"lam * r_perp = {lr} is not an integer; the concentration "
                "profile would not be periodic on the torus")
        if self.n_shear_harmonics < 1 or self.n_conc_harmonics < 1:
            raise ValueError("band widths must be at least 1")

    @property
    def lam_r_perp(self) -> int:
        return int(round(self.lam * self.r_perp))


def _phase_rate(frame, params: BlockParams) -> int:
    """Integer time rate of the shear phase, lam r_perp N mu."""
    rate = params.lam_r_perp * frame.denom * params.mu
    if abs(rate - round(rate)) > 1e-9 * max(1.0, rate):
        raise ValueError(
            f"shear phase rate lam*r_perp*N*mu = {rate} is not an integer; "
            "the blocks would not be periodic in time")
    return int(round(rate))


def _validate_resolution(frame, params: BlockParams, grid: Grid4):
    """Quadratic products of the bands must stay below the spatial Nyquist
    mode on every axis; identity checks and stress assembly square the
    profiles, so the bound is taken at twice the linear bandwidth."""
    lr = params.lam_r_perp
    a_max = lr * max(abs(c) for c in frame.k1_num)
    m_max = lr * max(abs(c) for c in frame.k_num)
    need = 2 * (params.n_shear_harmonics * a_max + params.n_conc_harmonics * m_max)
    cap = grid.n_x // 2 - 1
    if need > cap:
        raise GridResolutionError(
            f"quadratic block products reach spatial mode {need} but a "
            f"{grid.n_x}^3 grid resolves only {cap}; raise n_x or reduce "
            "lam, r_perp, or the band widths")


def sample_blocks(frame, params: BlockParams, grid: Grid4,
                  base: SpatialProfiles = None) -> "BlockSet":
    """Materialize one frame's blocks on a grid.

    Band profiles are projected from the true rescaled profiles, then the
    concentration pair is renormalized jointly so the circle mean of phi^2
    is exactly one while phi = -r_perp^2 Phi'' stays an exact coefficient
    relation. The shear profile is made exactly mean-free and unit-power.
    """
    if base is None:
        base = make_spatial_profiles()
    _validate_resolution(frame, params, grid)

    potential_raw = band_project(rescaled(base.Phi, params.r_perp),
                                 params.n_conc_harmonics)
    conc_raw = potential_raw.derivative(2).scaled(-params.r_perp ** 2)
    ms = conc_raw.mean_sq()
    if ms <= 0:
        raise ValueError("concentration band is empty; widen the band")
    factor = 1.0 / math.sqrt(ms)
    shear = band_project(rescaled(base.psi, params.r_par),
                         params.n_shear_harmonics).zero_mean().renormalized()
    return BlockSet(frame, params, grid,
                    shear_band=shear,
                    conc_band=conc_raw.scaled(factor),
                    potential_band=potential_raw.scaled(factor))


def _lattice_index(vec, n: int) -> np.ndarray:
    """Read-only (vec . i) mod n at the n^3 spatial lattice points i: a
    phase's position on its n-point lattice."""
    i = np.arange(n, dtype=np.int64)
    idx = (i[:, None, None] * (vec[0] % n) + i[None, :, None] * (vec[1] % n)
           + i[None, None, :] * (vec[2] % n)) % n
    idx.setflags(write=False)
    return idx


class BlockSet:
    """Grid evaluators for one frame's flows, potentials, and profiles.

    Every phase table and lattice index is built here, read-only, so the
    profile and flow slices add nothing to the set; only the moments are
    measured on demand and kept. Scalar profile kinds are the shear profile
    and its phase rate, the concentration and the potential; flow kinds
    are the separable vector fields and their double-curl potentials, each
    the shear profile times a second profile times a constant row.
    """

    __slots__ = ("frame", "params", "grid", "shear_band", "conc_band",
                 "potential_band", "a_int", "m_int", "rate", "tables",
                 "shear_index", "conc_index", "flows", "_moments")

    def __init__(self, frame, params: BlockParams, grid: Grid4,
                 shear_band: BandProfile, conc_band: BandProfile,
                 potential_band: BandProfile):
        self.frame = frame
        self.params = params
        self.grid = grid
        self.shear_band = shear_band
        self.conc_band = conc_band
        self.potential_band = potential_band
        lr = params.lam_r_perp
        self.a_int = tuple(lr * c for c in frame.k1_num)
        self.m_int = tuple(lr * c for c in frame.k_num)
        self.rate = _phase_rate(frame, params)
        n_x, n_t = grid.n_x, grid.n_t
        # the shear phase on its n_x n_t space-time lattice, the
        # concentration phase on its n_x spatial one
        L = n_x * n_t
        xi_s = (-np.pi * (sum(self.a_int) + self.rate)
                + 2.0 * np.pi * np.arange(L) / L)
        xi_c = -np.pi * sum(self.m_int) + 2.0 * np.pi * np.arange(n_x) / n_x
        # shear tables are doubled so index + offset never needs a modulo
        tables = {"shear": np.tile(shear_band(xi_s), 2),
                  "shear_rate": np.tile(shear_band.derivative(1)(xi_s), 2),
                  "concentration": conc_band(xi_c),
                  "potential": potential_band(xi_c)}
        for tab in tables.values():
            tab.setflags(write=False)
        self.tables = MappingProxyType(tables)
        # premultiplied by n_t so a time offset below L can be added directly
        self.shear_index = _lattice_index(self.a_int, n_x) * n_t
        self.shear_index.setflags(write=False)
        self.conc_index = _lattice_index(self.m_int, n_x)
        # flow kind -> (second profile, constant row)
        inv_pot = 1.0 / (params.lam * frame.denom) ** 2
        flows = {"velocity": ("concentration", frame.k1),
                 "magnetic": ("concentration", frame.k2),
                 "velocity_potential": ("potential", inv_pot * frame.k1),
                 "magnetic_potential": ("potential", inv_pot * frame.k2)}
        for _, row in flows.values():
            row.setflags(write=False)
        self.flows = MappingProxyType(flows)
        self._moments = {}

    def profile_slice(self, kind: str, j: int) -> np.ndarray:
        """One time sample of a scalar profile, shape (n_x, n_x, n_x)."""
        if kind not in self.tables:
            raise ValueError(f"unknown profile kind {kind!r}")
        tab = self.tables[kind]
        if kind.startswith("shear"):
            n_x, n_t = self.grid.n_x, self.grid.n_t
            off = ((self.rate * int(j)) % n_t) * n_x
            return tab[off:].take(self.shear_index)  # no index temporary
        return tab[self.conc_index]

    def flow_slice(self, kind: str, j: int) -> np.ndarray:
        """One time sample of a flow, shape (n_x, n_x, n_x, 3)."""
        if kind not in self.flows:
            raise ValueError(f"unknown flow kind {kind!r}")
        c_kind, row = self.flows[kind]
        scal = self.profile_slice("shear", j) * self.profile_slice(c_kind, j)
        return scal[..., None] * row

    def moments(self, sides) -> np.ndarray:
        """moment_products of the grid means of the flows named by sides,
        [M_vel; M_mag] as (6, 3), cached per sides. The flows of sides
        stack into one (n^3, 6) array, magnetic columns zero when sides
        holds the velocity flow only, whose Gram matrix holds every mean
        product. The blocks advance by a lattice shift, so slice zero
        decides."""
        if sides not in self._moments:
            flows = np.zeros((self.grid.n_x ** 3, 2, 3))
            for s, side in enumerate(sides):
                flows[:, s] = self.flow_slice(side, 0).reshape(-1, 3)
            flows = flows.reshape(-1, 6)
            table = moment_products(flows.T @ flows / len(flows))
            table.setflags(write=False)
            self._moments[sides] = table
        return self._moments[sides]

    def transport_slice(self, j: int, direction) -> np.ndarray:
        """The time-cancelled transport source mu^-1 d_t(psi^2 phi^2 dir)
        = 2 lam r_perp N psi psi' phi^2 dir, exact for every mu including
        the frozen case mu = 0."""
        lr_n = self.params.lam_r_perp * self.frame.denom
        scal = (2.0 * lr_n * self.profile_slice("shear", j)
                * self.profile_slice("shear_rate", j)
                * self.profile_slice("concentration", j) ** 2)
        return scal[..., None] * np.asarray(direction)


# -- frame families ----------------------------------------------------------------

def envelope_stack(sets, j: int, profile: str = "concentration") -> np.ndarray:
    """(n_x**3, len(sets)) envelopes on slice j: column i is sets[i]'s
    profile_slice("shear", j) * profile_slice(profile, j), flattened.
    Every flow rides the concentration, every potential the potential."""
    n3 = sets[0].grid.n_x ** 3
    out = np.empty((n3, len(sets)))
    for i, bs in enumerate(sets):
        np.multiply(bs.profile_slice("shear", j).reshape(n3),
                    bs.profile_slice(profile, j).reshape(n3), out=out[:, i])
    return out


@dataclass(frozen=True, eq=False)
class Family:
    """One frame family as rank-one terms: flow_slice(side, j) of sets[i]
    is column i of envelope_stack(sets, j) times the side's columns of row
    i of flows, [velocity | magnetic]; flow_slice(side + "_potential", j)
    likewise with envelope_stack(sets, j, "potential") and potentials.
    sides names the flows the frames carry: magnetic frames both, velocity
    frames the velocity flow, so their magnetic columns are zero. Build
    with `family`."""

    name: str
    sets: tuple
    flows: np.ndarray  # (k, 6)
    potentials: np.ndarray  # (k, 6)
    sides: tuple


def family(name: str, frames, blocks, grid) -> Family:
    """The Family of frames, in frame order, validated: each block set is
    in blocks, lives on grid and was sampled for the frame it is keyed by."""
    if name not in ("magnetic", "velocity"):
        raise ValueError(f"unknown frame family {name!r}")
    sets = []
    for fr in frames:
        try:
            bs = blocks[fr.name]
        except KeyError:
            raise ValueError(f"missing block set for frame {fr.name}") from None
        if bs.grid != grid:
            raise ValueError(f"block set {fr.name} lives on a different grid")
        if bs.frame.name != fr.name:
            raise ValueError(f"block set keyed {fr.name} was sampled for "
                             f"frame {bs.frame.name}")
        sets.append(bs)
    sides = ("velocity", "magnetic") if name == "magnetic" else ("velocity",)
    flows, potentials = np.zeros((len(sets), 6)), np.zeros((len(sets), 6))
    for s, side in enumerate(sides):
        for i, bs in enumerate(sets):
            for rows, kind in ((flows, side),
                               (potentials, f"{side}_potential")):
                rows[i, 3 * s:3 * s + 3] = bs.flows[kind][1]
    flows.setflags(write=False)
    potentials.setflags(write=False)
    return Family(name, tuple(sets), flows, potentials, sides)


def moment_products(moments) -> np.ndarray:
    """[P_v | P_m] of (..., 6, 6) second moments of [velocity v | magnetic
    m] flows, as (..., 6, 3): P_v = v (x) v - m (x) m feeds the velocity
    equation and P_m = m (x) v - v (x) m the magnetic one."""
    v, m = slice(0, 3), slice(3, 6)
    return np.concatenate([moments[..., v, v] - moments[..., m, m],
                           moments[..., m, v] - moments[..., v, m]], axis=-2)


def flow_products(flows) -> np.ndarray:
    """moment_products of each (k, 6) [velocity | magnetic] row with
    itself: the (k, 6, 3) products per unit squared envelope."""
    return moment_products(flows[:, :, None] * flows[:, None])


# -- scaling laws on the true profiles ------------------------------------------

_NORM_QUAD_N = 1 << 12


def _support_nodes(r: float, n: int):
    """Midpoint nodes across the support [-r, r] and the weight that turns
    a sum of integrand values into a circle mean. Accuracy is then set by
    nodes-per-support-width, independent of how small r is."""
    nodes = -r + (np.arange(n) + 0.5) * (2.0 * r / n)
    return nodes, r / (np.pi * n)


def _support_pmean(fn, r: float, p: float, n: int) -> float:
    xi, w = _support_nodes(r, n)
    vals = np.abs(fn(xi))
    if np.isinf(p):
        return float(vals.max())
    return float((vals ** p).sum() * w)


def _shear_deriv(base: SpatialProfiles, r: float, order: int):
    fn = rescaled(lambda s, d=order: base.psi(s, deriv=d), r)
    return lambda xi: fn(xi) / r ** order


def _conc_deriv(base: SpatialProfiles, r: float, order: int):
    # phi = -Phi'' at unit scale, so order n of phi is -Phi^(n+2) rescaled
    fn = rescaled(lambda s, d=order + 2: -base.Phi(s, deriv=d), r)
    return lambda xi: fn(xi) / r ** order


def block_norm(base: SpatialProfiles, params: BlockParams, p: float = 2.0,
               grad_order: int = 0, time_order: int = 0, n_lambda: int = 5,
               n_quad: int = _NORM_QUAD_N) -> float:
    """Exact sup-in-time L^p (circle-mean) norm of the grad^N d_t^M
    velocity flow with the true profiles.

    The phase directions are orthogonal, so the pointwise Frobenius norm
    of the N-th gradient tensor collapses to a binomial sum of squared
    profile derivatives, and the spatial mean factors through the joint
    phase distribution: 1D quadrature suffices at N = 0 and a 2D grid over
    the two phases covers N >= 1. Frame choice drops out entirely.
    """
    rp, rl = params.r_perp, params.r_par
    speed = params.lam_r_perp * n_lambda  # |grad xi| of both phases
    rate = speed * params.mu
    if grad_order == 0:
        s = _support_pmean(_shear_deriv(base, rl, time_order), rl, p, 4 * n_quad)
        c = _support_pmean(_conc_deriv(base, rp, 0), rp, p, 4 * n_quad)
        if np.isinf(p):
            return rate ** time_order * s * c
        return rate ** time_order * (s * c) ** (1.0 / p)

    xi_s, w_s = _support_nodes(rl, n_quad)
    xi_c, w_c = _support_nodes(rp, n_quad)
    shear_sq = [_shear_deriv(base, rl, j + time_order)(xi_s) ** 2
                for j in range(grad_order + 1)]
    conc_sq = [_conc_deriv(base, rp, grad_order - j)(xi_c) ** 2
               for j in range(grad_order + 1)]
    acc = 0.0
    peak = 0.0
    chunk = max(1, (1 << 22) // n_quad)
    for lo in range(0, n_quad, chunk):
        hi = min(lo + chunk, n_quad)
        tot = np.zeros((hi - lo, n_quad))
        for j in range(grad_order + 1):
            w = math.comb(grad_order, j) * speed ** (2 * grad_order)
            tot += w * shear_sq[j][lo:hi, None] * conc_sq[j][None, :]
        mag = np.sqrt(tot)
        if np.isinf(p):
            peak = max(peak, float(mag.max()))
        else:
            acc += float((mag ** p).sum())
    if np.isinf(p):
        return rate ** time_order * peak
    return rate ** time_order * (acc * w_s * w_c) ** (1.0 / p)


def predicted_block_norm(params: BlockParams, p: float, grad_order: int = 0,
                         time_order: int = 0) -> float:
    """The concentration law the norms are fitted against."""
    rp, rl, lam, mu = params.r_perp, params.r_par, params.lam, params.mu
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    return (rp ** (inv_p - 0.5) * rl ** (inv_p - 0.5) * lam ** grad_order
            * (rp * lam * mu / rl) ** time_order)


def _safe_slope(predicted, measured) -> float:
    """Log-log slope, or nan when the predicted law is constant over the
    sweep (the flat case is judged by deviation, not slope)."""
    lp = np.log(np.asarray(predicted, dtype=float))
    if np.ptp(lp) < 1e-12:
        return float("nan")
    return fit_loglog(predicted, measured)


@dataclass(frozen=True)
class IntermittencyFit:
    """A sweep of measured norms against the predicted law."""

    measured: tuple
    predicted: tuple
    slope: float

    @property
    def max_flat_deviation(self) -> float:
        mid = float(np.median(self.measured))
        return max(abs(m / mid - 1.0) for m in self.measured)


def measure_intermittency(base: SpatialProfiles, sweep, p: float = 1.0,
                          grad_order: int = 0, time_order: int = 0) -> IntermittencyFit:
    """Fit measured block norms against the predicted law over a sweep of
    at least three parameter points; a slope near one confirms the law."""
    sweep = tuple(sweep)
    if len(sweep) < 3:
        raise ValueError(f"need a sweep of at least 3 points, got {len(sweep)}")
    measured = tuple(block_norm(base, q, p, grad_order, time_order) for q in sweep)
    predicted = tuple(predicted_block_norm(q, p, grad_order, time_order)
                      for q in sweep)
    return IntermittencyFit(measured, predicted, _safe_slope(predicted, measured))


def product_norm(base: SpatialProfiles, params: BlockParams, frame, other,
                 p: float = 1.0, n_quad: int = 4 * _NORM_QUAD_N) -> float:
    """Sup-in-time L^p norm of the product of two frames' scalar parts,
    for an antipodal pair.

    Antipodal frames share the concentration phase up to sign, and the
    concentration profile is even, so the product collapses to
    |psi(xi_1) psi(xi_3)| phi^2(xi_2) over three independent phases and
    the norm is an exact product of 1D integrals. Such pairs realize the
    worst-case support intersection, so they saturate the product law.
    """
    if tuple(other.k_num) != tuple(-c for c in frame.k_num) or other.denom != frame.denom:
        raise ValueError("product norm is implemented for antipodal frame pairs")
    cross = np.cross(np.array(frame.k1_num, float), np.array(other.k1_num, float))
    if not cross.any():
        raise ValueError("antipodal pair must not share the shear direction")
    rp, rl = params.r_perp, params.r_par
    s = _support_pmean(_shear_deriv(base, rl, 0), rl, p, n_quad)
    conc = _conc_deriv(base, rp, 0)
    c2 = _support_pmean(lambda xi: conc(xi) ** 2, rp, p, n_quad)
    if np.isinf(p):
        return s * s * c2
    return (s * s * c2) ** (1.0 / p)


def predicted_product_norm(params: BlockParams, p: float) -> float:
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    return params.r_perp ** (inv_p - 1.0) * params.r_par ** (2.0 * inv_p - 1.0)


def measure_product_intermittency(base: SpatialProfiles, sweep, frame, other,
                                  p: float = 1.0) -> IntermittencyFit:
    sweep = tuple(sweep)
    if len(sweep) < 3:
        raise ValueError(f"need a sweep of at least 3 points, got {len(sweep)}")
    measured = tuple(product_norm(base, q, frame, other, p) for q in sweep)
    predicted = tuple(predicted_product_norm(q, p) for q in sweep)
    return IntermittencyFit(measured, predicted, _safe_slope(predicted, measured))
