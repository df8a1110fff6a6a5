"""Reference implementations that the tests check cilab's live code against.

Nothing here runs in a step. Each oracle states what the step relies on in
its most literal form (a 4D multiplier, a sampled kernel, a per-point
decomposition, a lattice count), reading cilab's private helpers where
both sides must share a convention.
"""

import math
from itertools import product

import numpy as np
import scipy.fft as sfft

from cilab import spectral
from cilab.amplitudes import _BLOCKS, AmplitudeSet, _block, dilate_support
from cilab.blocks import BlockSet, _phase_rate
from cilab.checks import fold_maxima, gate
from cilab.field import (SKEW_PAIRS, SYM_PAIRS, Field, expand, lebesgue_norm,
                         to_spectral)
from cilab.geometry import ConstructionError
from cilab.grid import TWO_PI, Grid4, GridResolutionError
from cilab.mollify import _T_SHAPE, Mollifier, _unit_mass, mollify
from cilab.perturbations import CorrectorIdentityError
from cilab.profiles import _bump, _circle_nodes, rescaled
from cilab.spectral_ops import _div_rel_defect
from cilab.threads import fft_workers


# -- field --------------------------------------------------------------------

def axes(grid: Grid4):
    """Broadcastable (t, x1, x2, x3) coordinate arrays of a grid, each
    spatial axis sampled like time at -pi + dx i."""
    t = grid.t()[:, None, None, None]
    x = -np.pi + grid.dx * np.arange(grid.n_x)
    return (t, x[None, :, None, None], x[None, None, :, None],
            x[None, None, None, :])


def to_physical(coeffs, grid: Grid4) -> np.ndarray:
    """Inverse of field.to_spectral, the whole-field space-time transform;
    returns the real sample array."""
    sizes = (grid.n_t, grid.n_x, grid.n_x, grid.n_x)
    return sfft.irfftn(coeffs, s=sizes, axes=(0, 1, 2, 3), norm="forward",
                       workers=fft_workers())


def time_wavenumbers(n_t: int, trailing: int = 0):
    """Integer time wavenumbers k_t as floats in storage order, shaped
    (n_t, 1, 1, 1) to broadcast over the spectrum of a whole field with
    `trailing` component axes."""
    kt = np.rint(np.fft.fftfreq(n_t, 1.0 / n_t))
    return kt.reshape((n_t, 1, 1, 1) + (1,) * trailing)


def spectral_derivative(f: Field, m: int = 0, zeta=(0, 0, 0)) -> Field:
    """d_t^m d_x^zeta f computed by Fourier multipliers. For odd m the
    time-Nyquist multiplier (k_t = -n_t/2 in storage order) is zero, as in
    `ddt`: cos(n_t t / 2) is its own alias and has no resolved slope."""
    kt = time_wavenumbers(f.grid.n_t, f.rank)
    k1, k2, k3, _ = spectral.wavenumbers(f.grid.n_x, f.rank)
    if m % 2:
        kt = np.where(kt == -(f.grid.n_t // 2), 0.0, kt)
    factors = ((kt, m), (k1, zeta[0]), (k2, zeta[1]), (k3, zeta[2]))
    mult = np.complex128(1.0)
    for k, power in factors:
        if power:
            mult = mult * (1j * k) ** power
    spec = to_spectral(f.data, f.grid) * mult
    return Field(to_physical(spec, f.grid), f.grid, _take=True)


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _sym(t):
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def _skew(t):
    return 0.5 * (t - np.swapaxes(t, -1, -2))


def _traceless(t):
    tr = np.trace(t, axis1=-2, axis2=-1) / 3.0
    out = t.copy()
    for i in range(3):
        out[..., i, i] -= tr
    return out


def per_slice(kernel, data, *args, **kwargs):
    """A slice kernel of cilab.spectral run on each time slice of a
    whole-field array and stacked."""
    return np.stack([kernel(s, *args, **kwargs) for s in data])


# FFT forms of the kernels that cilab.spectral applies as circulant matrices
# along each axis: each multiplies one 3D spectrum by the symbol

def fft_directional(arr, dirs):
    """spectral.directional by one forward transform per component and one
    inverse transform per table."""
    n = arr.shape[0]
    k1, k2, k3, _ = spectral.derivatives(n)
    out = np.empty(arr.shape + (len(dirs),))
    for c in np.ndindex(arr.shape[3:]):
        spec = spectral.rfft(arr[(...,) + c])
        for d, rows in enumerate(dirs):
            r = rows[c[-1] if len(rows) > 1 else 0]
            out[(...,) + c + (d,)] = spectral.irfft(
                spec * (1j * (k1 * r[0] + k2 * r[1] + k3 * r[2])), n)
    return out


def fft_div_terms(arr):
    """spectral.div_terms on the spectrum of arr."""
    spec = spectral.rfft(arr)
    tables = spectral.derivatives(arr.shape[0], arr.ndim - 4)
    for a, k in enumerate(tables[:3]):
        spec[..., a] *= 1j * k
    return spectral.irfft(spec, arr.shape[0])


def fft_div(arr):
    """spectral.div on the spectrum of arr."""
    k1, k2, k3, _ = spectral.derivatives(arr.shape[0], arr.ndim - 4)
    spec = spectral.rfft(arr)
    return spectral.irfft(1j * (k1 * spec[..., 0] + k2 * spec[..., 1]
                                + k3 * spec[..., 2]), arr.shape[0])


# -- blocks -------------------------------------------------------------------

IDENTITY_NAMES = ("velocity_potential_curl", "velocity_solenoidal",
                  "magnetic_potential_curl", "velocity_transport",
                  "magnetic_transport_null", "cross_transport",
                  "cross_transport_null")


class BlockIdentityError(RuntimeError):
    """One or more block identities exceeded tolerance on the grid; the
    failing (identity, residual) pairs are in .failures."""


def _rel(diff_max: float, scale: float) -> float:
    return diff_max / max(scale, 1e-300)


def verify_identities(blocks, time_indices=None, tol: float = 1e-7):
    """Check the seven block identities on grid slices with spectral
    spatial derivatives; the time derivative side enters in its exact
    cancelled form. Returns {identity: relative residual} with the
    tolerances, or raises BlockIdentityError naming every identity over
    tolerance (see cilab.checks)."""
    grid = blocks.grid
    if time_indices is None:
        step = max(1, grid.n_t // 4)
        time_indices = range(0, grid.n_t, step)

    correctors = corrector_sets(blocks)

    def residuals(j):
        W = blocks.flow_slice("velocity", j)
        Wct = corrector_slice(correctors, "velocity", j)
        D = blocks.flow_slice("magnetic", j)
        Dct = corrector_slice(correctors, "magnetic", j)
        updates = []

        lhs = W + Wct
        rhs = spectral.curl_curl(blocks.flow_slice("velocity_potential", j))
        scale = max(np.abs(lhs).max(), np.abs(rhs).max())
        updates.append(("velocity_potential_curl",
                        _rel(np.abs(lhs - rhs).max(), scale)))

        # the largest single term scales identities whose truth value is 0
        terms = spectral.div_terms(lhs)
        div, scale = terms.sum(axis=-1), float(np.abs(terms).max())
        updates.append(("velocity_solenoidal", _rel(np.abs(div).max(), scale)))

        lhs = D + Dct
        rhs = spectral.curl_curl(blocks.flow_slice("magnetic_potential", j))
        scale = max(np.abs(lhs).max(), np.abs(rhs).max())
        updates.append(("magnetic_potential_curl",
                        _rel(np.abs(lhs - rhs).max(), scale)))

        for name, left, right, source_dir in (
                ("velocity_transport", W, W, blocks.frame.k1),
                ("magnetic_transport_null", D, D, None),
                ("cross_transport", D, W, blocks.frame.k2),
                ("cross_transport_null", W, D, None)):
            # div contracts the second factor: d_j (left_i right_j)
            terms = spectral.div_terms(left[..., :, None] * right[..., None, :])
            div, scale = terms.sum(axis=-1), float(np.abs(terms).max())
            if source_dir is not None:
                rhs = blocks.transport_slice(j, source_dir)
                scale = max(scale, float(np.abs(rhs).max()))
                div = div - rhs
            updates.append((name, _rel(np.abs(div).max(), scale)))
        return updates

    report = fold_maxima(dict.fromkeys(IDENTITY_NAMES, 0.0),
                         map(residuals, time_indices))
    return gate(report, [(name, name, tol) for name in IDENTITY_NAMES],
                BlockIdentityError)


def ref_envelope_stack(sets, j: int, profile: str) -> np.ndarray:
    """(n_x**3, len(sets)) envelopes on slice j, two gathers and a product
    per set: the shear phase's lattice position times n_t, offset by the
    slice's time shift, into the doubled shear table, times the profile's
    table at the concentration phase's lattice position."""
    n, n_t = sets[0].grid.n_x, sets[0].grid.n_t
    i = np.arange(n)
    out = np.empty((n ** 3, len(sets)))
    for col, bs in enumerate(sets):
        shear_index, conc_index = (
            (i[:, None, None] * (v[0] % n) + i[None, :, None] * (v[1] % n)
             + i[None, None, :] * (v[2] % n)) % n
            for v in (bs.a_int, bs.m_int))
        off = ((bs.rate * j) % n_t) * n
        np.multiply(bs.tables["shear"][off:].take(shear_index * n_t).ravel(),
                    bs.tables[profile][conc_index].ravel(), out=out[:, col])
    return out


def corrector_sets(blocks):
    """Block sets on the lattice of blocks whose "shear" and "potential"
    profiles are the two profiles of a side's double-curl corrector: psi'
    and Phi' on the velocity side, psi'' and Phi on the magnetic side.
    Each samples its tables lazily, so build them once per block set."""
    def sampled(shear, potential):
        return BlockSet(blocks.frame, blocks.params, blocks.grid,
                        shear_band=shear, conc_band=blocks.conc_band,
                        potential_band=potential)

    return {"velocity": sampled(blocks.shear_band.derivative(1),
                                blocks.potential_band.derivative(1)),
            "magnetic": sampled(blocks.shear_band.derivative(2),
                                blocks.potential_band)}


def corrector_slice(sets, side: str, j: int) -> np.ndarray:
    """One time sample of a side's corrector, the flow's complement in the
    double curl of its potential: r_perp^2 psi' Phi' k on the velocity
    side, -r_perp^2 psi'' Phi k2 on the magnetic side; sets from
    corrector_sets."""
    bs = sets[side]
    rp2 = bs.params.r_perp ** 2
    k = np.array(bs.frame.k_num) / bs.frame.denom
    row = rp2 * k if side == "velocity" else -rp2 * bs.frame.k2
    scal = bs.profile_slice("shear", j) * bs.profile_slice("potential", j)
    return scal[..., None] * row


def flow_field(blocks, kind: str) -> Field:
    """A block set's flow on every time slice, from flow_slice, or a
    side's corrector ("velocity_corrector", "magnetic_corrector") from
    corrector_slice."""
    side, corrector = kind.split("_")[0], kind.endswith("_corrector")
    sets = corrector_sets(blocks) if corrector else None
    out = np.empty(blocks.grid.shape + (3,))
    for j in range(blocks.grid.n_t):
        out[j] = (corrector_slice(sets, side, j) if corrector
                  else blocks.flow_slice(kind, j))
    return Field(out, blocks.grid, _take=True)


def profile_field(blocks, kind: str) -> Field:
    """A block set's scalar profile on every time slice, from
    profile_slice."""
    out = np.empty(blocks.grid.shape)
    for j in range(blocks.grid.n_t):
        out[j] = blocks.profile_slice(kind, j)
    return Field(out, blocks.grid, _take=True)


def phi(base, x):
    """The concentration profile phi = -Phi'' of a SpatialProfiles."""
    return -base.Phi(x, deriv=2)


def _subgroup_step(values, modulus: int) -> int:
    g = modulus
    for v in values:
        g = math.gcd(g, v % modulus)
    return g if g else modulus


def support_fraction(base, params, frame, grid, which: str = "shear") -> float:
    """Exact fraction of grid points where the true (compactly supported)
    profile is nonzero. The phase index is uniform on a subgroup of the
    phase lattice, so counting the subgroup suffices."""
    if which == "concentration":
        m = tuple(params.lam_r_perp * c for c in frame.k_num)
        n = grid.n_x
        d = _subgroup_step(m, n)
        theta = -np.pi * sum(m) + 2.0 * np.pi * np.arange(0, n, d) / n
        vals = rescaled(lambda x: phi(base, x), params.r_perp)(theta)
        return float(np.count_nonzero(vals)) / len(theta)
    if which != "shear":
        raise ValueError(f"unknown support kind {which!r}")
    a = tuple(params.lam_r_perp * c for c in frame.k1_num)
    rate = _phase_rate(frame, params)
    n_x, n_t = grid.n_x, grid.n_t
    L = n_x * n_t
    step = math.gcd(_subgroup_step(a, n_x) * n_t, math.gcd(rate, n_t) * n_x)
    theta = (-np.pi * (sum(a) + rate)
             + 2.0 * np.pi * np.arange(0, L, step) / L)
    vals = rescaled(base.psi, params.r_par)(theta)
    return float(np.count_nonzero(vals)) / len(theta)


def pair_support_fraction(base, params, frame_a, frame_b, grid) -> float:
    """Largest over time samples of the grid fraction where both frames'
    scalar parts are simultaneously nonzero, with the true profiles."""
    n_x, n_t = grid.n_x, grid.n_t
    L = n_x * n_t
    worst = 0.0
    masks = []
    for frame in (frame_a, frame_b):
        a = tuple(params.lam_r_perp * c for c in frame.k1_num)
        m = tuple(params.lam_r_perp * c for c in frame.k_num)
        rate = _phase_rate(frame, params)
        th_s = -np.pi * (sum(a) + rate) + 2.0 * np.pi * np.arange(L) / L
        shear_ok = rescaled(base.psi, params.r_par)(th_s) != 0.0
        shear_ok = np.concatenate([shear_ok, shear_ok])
        th_c = -np.pi * sum(m) + 2.0 * np.pi * np.arange(n_x) / n_x
        conc_ok = rescaled(lambda x: phi(base, x), params.r_perp)(th_c) != 0.0
        i = np.arange(n_x, dtype=np.int64)
        ix_s, ix_c = ((i[:, None, None] * (v[0] % n_x)
                       + i[None, :, None] * (v[1] % n_x)
                       + i[None, None, :] * (v[2] % n_x)) % n_x for v in (a, m))
        masks.append((shear_ok, ix_s * n_t, conc_ok[ix_c], rate))
    for j in range(n_t):
        joint = None
        for shear_ok, ix_s, conc_mask, rate in masks:
            off = ((rate * j) % n_t) * n_x
            m = shear_ok[ix_s + off] & conc_mask
            joint = m if joint is None else joint & m
        worst = max(worst, float(joint.mean()))
    return worst


# -- geometry -----------------------------------------------------------------

class OutOfBallError(ValueError):
    """Raised when a matrix lies outside a decomposition's validity ball."""


def skew_generator(frame) -> np.ndarray:
    """k2 (x) k1 - k1 (x) k2, equal to the cross-product matrix of k."""
    k1, k2 = frame.k1, frame.k2
    return np.outer(k2, k1) - np.outer(k1, k2)


def sym_generator(frame) -> np.ndarray:
    return np.outer(frame.k1, frame.k1)


def _check_ball(dev: np.ndarray, eps: float, what: str):
    nrm = np.sqrt((dev ** 2).sum(axis=(-2, -1)))
    worst = float(nrm.max())
    if worst > eps * (1 + 1e-12):
        raise OutOfBallError(
            f"{what}: norm {worst:.6g} exceeds ball radius {eps:.6g}")


def gamma_skew(geom, a) -> np.ndarray:
    """Squared coefficients gamma^2 for the skew decomposition of a.

    Accepts a single 3x3 matrix or an array of matrices in the trailing two
    axes; returns coefficients with one leading axis per frame appended last.
    """
    a = np.asarray(a, dtype=float)
    skew_defect = np.abs(a + np.swapaxes(a, -1, -2)).max()
    if skew_defect > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("gamma_skew needs a skew-symmetric input")
    _check_ball(a, geom.eps_b, "gamma_skew")
    vals = geom.c_b + a[..., SKEW_PAIRS[0], SKEW_PAIRS[1]] @ geom.L_b.T
    if vals.min() <= 0:
        raise ConstructionError("gamma_skew produced a nonpositive coefficient")
    return vals


def gamma_sym(geom, s) -> np.ndarray:
    """Squared coefficients gamma^2 for the symmetric decomposition of s,
    affine around the identity."""
    s = np.asarray(s, dtype=float)
    sym_defect = np.abs(s - np.swapaxes(s, -1, -2)).max()
    if sym_defect > 1e-10 * max(1.0, np.abs(s).max()):
        raise ValueError("gamma_sym needs a symmetric input")
    dev = s - np.eye(3)
    _check_ball(dev, geom.eps_u, "gamma_sym")
    vals = geom.c_u + dev[..., SYM_PAIRS[0], SYM_PAIRS[1]] @ geom.L_u.T
    if vals.min() <= 0:
        raise ConstructionError("gamma_sym produced a nonpositive coefficient")
    return vals


def reconstruct_skew(geom, coeffs) -> np.ndarray:
    gens = np.stack([skew_generator(f) for f in geom.lambda_b])
    return np.einsum("...f,fij->...ij", np.asarray(coeffs), gens)


def reconstruct_sym(geom, coeffs) -> np.ndarray:
    gens = np.stack([sym_generator(f) for f in geom.lambda_u])
    return np.einsum("...f,fij->...ij", np.asarray(coeffs), gens)


def random_skew(rng, radius):
    """A skew matrix of Frobenius norm uniform in [0, radius)."""
    w = rng.normal(size=3)
    w *= rng.uniform(0, radius) / (np.sqrt(2.0) * np.linalg.norm(w))
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def random_sym(rng, radius):
    """A symmetric matrix of Frobenius norm uniform in [0, radius)."""
    m = rng.normal(size=(3, 3))
    s = 0.5 * (m + m.T)
    return s * rng.uniform(0, radius) / np.sqrt((s * s).sum())


def measure_m_star(geom, samples: int = 200, seed: int = 1) -> float:
    """Sampled Lipschitz constant of gamma = sqrt(gamma^2) over both balls."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        for gamma, draw, eps, center in (
                (gamma_skew, random_skew, geom.eps_b, 0.0),
                (gamma_sym, random_sym, geom.eps_u, np.eye(3))):
            a1, a2 = draw(rng, eps), draw(rng, eps)
            d = np.sqrt(((a1 - a2) ** 2).sum())
            if d > 1e-12:
                g1 = np.sqrt(gamma(geom, center + a1))
                g2 = np.sqrt(gamma(geom, center + a2))
                worst = max(worst, float(np.abs(g1 - g2).max()) / d)
    return worst


def pair_resonances(f1, f2, n_max: int = 8):
    """Integer resonances among the four phase forms of two frames.

    The phase lattice of a frame's wave pair is spanned by (k1_num, N mu)
    for the shear factor and (k_num, 0) for the concentration factor, in
    units of the common integer phase scale. A resonance is a nontrivial
    integer combination summing to zero in space and time; returned tuples
    are (n1, n2, n3, n4) with n1, n3 the shear slots of the two frames.
    Combinations where some slot vanishes are harmless (every profile is
    mean-zero) and are not reported.
    """
    out = []
    n1n3 = []
    for n1 in range(-n_max, n_max + 1):
        for n3 in range(-n_max, n_max + 1):
            if n1 * f1.denom + n3 * f2.denom == 0:
                n1n3.append((n1, n3))
    for (n1, n3), n2, n4 in product(
            n1n3, range(-n_max, n_max + 1), range(-n_max, n_max + 1)):
        if 0 in (n1, n2, n3, n4):
            continue
        vec = [n1 * f1.k1_num[a] + n2 * f1.k_num[a]
               + n3 * f2.k1_num[a] + n4 * f2.k_num[a] for a in range(3)]
        if vec == [0, 0, 0]:
            out.append((n1, n2, n3, n4))
    return out


# -- amplitudes ---------------------------------------------------------------

def replaced(amps, **changes):
    """A new AmplitudeSet with the named entries replaced and the rest
    shared; the blocks rho_b, rho_u, stress_u and stress_b are written into
    a read-only copy of data, so amps is unchanged."""
    entries = {name: getattr(amps, name) for name in (
        "geom", "grid", "delta_next", "ell", "data", "f_b", "f_u", "peak_u",
        "peak_b")}
    blocks = {name: changes.pop(name) for name in _BLOCKS if name in changes}
    entries.update(changes)
    if blocks:
        data = amps.data.copy()
        for name, value in blocks.items():
            _block(data, name)[...] = (value.data if isinstance(value, Field)
                                       else value)
        data.setflags(write=False)
        entries["data"] = data
    return AmplitudeSet(**entries)


def g_b_slice(amps, j: int) -> np.ndarray:
    """The auxiliary matrix G_B on slice j, (n_x, n_x, n_x, 3, 3)."""
    return expand(amps._g_b(j), SYM_PAIRS, 1.0)


def stress_slice(amps, family: str, j: int) -> np.ndarray:
    """The family's mollified stress on slice j, (n_x, n_x, n_x, 3, 3):
    R_l^u for velocity, R_l^B for magnetic."""
    if family == "velocity":
        return expand(amps.stress_u[j], SYM_PAIRS, 1.0)
    return expand(amps.stress_b[j], SKEW_PAIRS, -1.0)


def amplitude(amps, name: str) -> Field:
    """Full amplitude field of the frame called name; for small grids.
    Raises KeyError for a name that is not a frame of the set."""
    index = {fr.name: (family, i) for family in ("magnetic", "velocity")
             for i, fr in enumerate(amps.frames(family))}
    family, i = index[name]
    data = np.empty(amps.grid.shape)
    for j in range(amps.grid.n_t):
        data[j] = np.sqrt(amps.squared_slice(family, j)[..., i])
    return Field(data, amps.grid, _take=True)


def l2_report(amps) -> dict:
    """Measured ||a_(k)||_{L^2_{t,x}} / delta_next^{1/2} per frame;
    monitored constants, not certified bounds."""
    vol = TWO_PI ** 4
    out = {}
    for family in ("magnetic", "velocity"):
        acc = np.zeros(len(amps.frames(family)))
        for j in range(amps.grid.n_t):
            acc += amps.squared_slice(family, j).mean(axis=(0, 1, 2))
        acc /= amps.grid.n_t
        for fr, m in zip(amps.frames(family), acc):
            out[fr.name] = float(np.sqrt(m * vol / amps.delta_next))
    return out


# -- mollify ------------------------------------------------------------------

def spatial_kernel(mol, x):
    """One tensor factor of a Mollifier's spatial kernel; the kernel on the
    spatial torus is the product of this over the three coordinates."""
    x = np.asarray(x, dtype=float)
    s = np.mod(x + np.pi, TWO_PI) - np.pi
    return _bump(s / mol.ell, 1) / (mol.ell * _unit_mass())


def temporal_kernel(mol, t):
    """A Mollifier's one-sided temporal kernel."""
    t = np.asarray(t, dtype=float)
    h = _T_SHAPE * mol.ell
    s = np.mod(t + np.pi, TWO_PI) - np.pi
    return _bump((s - h) / h, 1) / (h * _unit_mass())


def mollify_4d(data, grid, ell):
    """The Mollifier's four symbols multiplied onto the whole space-time
    spectrum of data, the time symbol complex at every mode, the
    time-Nyquist mode k_t = -n_t/2 included."""
    mol = Mollifier(ell)
    trailing = data.ndim - 4
    kt = time_wavenumbers(grid.n_t, trailing)
    k1, k2, k3, _ = spectral.wavenumbers(grid.n_x, trailing)
    coef = to_spectral(data, grid)
    coef *= mol.temporal_symbol(kt.ravel()).reshape(kt.shape)
    mx = mol.spatial_symbol(k1.ravel())
    coef *= mx.reshape(k1.shape)
    coef *= mx.reshape(k2.shape)
    coef *= mol.spatial_symbol(k3.ravel()).reshape(k3.shape)
    return to_physical(coef, grid)


def mollify_fft(data, grid, ell):
    """The Mollifier with its spatial symbol multiplied onto each slice's
    3D spectrum, then its time matrix along the time axis."""
    mol = Mollifier(ell)
    k1, k2, k3, _ = spectral.wavenumbers(grid.n_x, data.ndim - 4)
    mx = mol.spatial_symbol(k1.ravel())
    mult = (mx.reshape(k1.shape) * mx.reshape(k2.shape)
            * mol.spatial_symbol(k3.ravel()).reshape(k3.shape))
    space = np.stack([spectral.irfft(spectral.rfft(s) * mult, grid.n_x)
                      for s in data])
    mat = spectral.multiplier_matrix(mol.temporal_symbol, grid.n_t)
    return np.tensordot(mat, space, 1)


def _sym_quad(u, b):
    return _traceless(_outer(u, u) - _outer(b, b))


def _skew_quad(u, b):
    return _outer(b, u) - _outer(u, b)


def commutator_reference(u_q, B_q, u_l, B_l, ell):
    """commutator_stresses in the full 3x3 algebra, on whole fields: all
    nine components of each quadratic flux are mollified, and the class
    projection acts on the full tensor. Returns the symmetric traceless
    and the skew commutator arrays and the max |flux - projection| of each,
    the defect the live code gates."""
    out = []
    for quad, project in ((_sym_quad, lambda t: _traceless(_sym(t))),
                          (_skew_quad, _skew)):
        flux = (quad(u_l.data, B_l.data)
                - mollify(Field(quad(u_q.data, B_q.data), u_q.grid,
                                _take=True), ell).data)
        projected = project(flux)
        out += [projected, float(np.abs(flux - projected).max())]
    return tuple(out)


# -- perturbations ------------------------------------------------------------

def assemble_iterate_whole_field(u_l, B_l, pert, amps, tol: float = 1e-8):
    """perturbations.assemble_iterate on whole fields: each total
    ((p + c) + t) + o is one array, read by `spatial_means`, `max_abs`, the
    slice maxima of its absolute value and `lebesgue_norm`; both totals are
    measured before the one gate."""
    grid = amps.grid
    report, gates, leaks, totals = {}, [], [], []
    mask = amps.stress_support()
    allowed = (dilate_support(mask, int(math.ceil(3.0 * amps.ell / grid.dt)))
               if mask.any() else np.ones_like(mask))
    for name, parts in (("velocity", (pert.w_p, pert.w_c, pert.w_t, pert.w_o)),
                        ("magnetic", (pert.d_p, pert.d_c, pert.d_t, pert.d_o))):
        data = parts[0].data + parts[1].data
        for part in parts[2:]:
            data += part.data
        inc = Field(data, grid, _take=True)
        totals.append(inc)
        peak = inc.max_abs()
        report[f"{name}_divergence_defect"] = _div_rel_defect(inc)
        report[f"{name}_mean_defect"] = (
            float(np.abs(inc.spatial_means()).max()) / max(peak, 1e-300))
        norms = np.abs(inc.data).max(axis=(1, 2, 3, 4))
        # a NaN peak gives a NaN leak
        report[f"{name}_support_leak"] = (
            float(norms[~allowed].max(initial=0.0)) / norms.max()
            if norms.max() != 0.0 else 0.0)
        report[f"{name}_increment"] = lebesgue_norm(inc, np.inf, 2.0)
        gates += [(f"{name}_divergence_defect",
                   f"{name} perturbation is not solenoidal: relative defect",
                   tol),
                  (f"{name}_mean_defect", f"{name} perturbation is not "
                   "spatially mean-free: relative defect", tol)]
        leaks.append((f"{name}_support_leak", f"{name} perturbation leaks "
                      "outside the dilated stress support: relative slice "
                      "norm", 1e-10))
    report["increment_over_sqrt_delta"] = (
        report["velocity_increment"] / math.sqrt(amps.delta_next))
    gate(report, gates + leaks, CorrectorIdentityError)
    w, d = totals
    return u_l + w, B_l + d, report


# -- profiles -----------------------------------------------------------------

def lattice_values(profile, n_points: int) -> np.ndarray:
    """A BandProfile's values on the uniform lattice -pi + 2 pi j /
    n_points. Requires n_points > 2 K so the polynomial is alias-free on
    the lattice."""
    if n_points <= 2 * profile.n_harmonics:
        raise GridResolutionError(
            f"lattice of {n_points} points cannot carry "
            f"{profile.n_harmonics} harmonics")
    return profile(_circle_nodes(n_points))
