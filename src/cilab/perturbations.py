"""Perturbation assembly: four-part velocity and magnetic increments.

The principal parts ride the intermittent blocks with amplitude and
temporal-oscillation coefficients. Three corrector families repair what
the principal parts spoil: incompressibility correctors complete the
principal parts to the double curl of the amplitude-weighted potentials,
which is how they are built (curl curl (g sum_k a_k potential_k) minus the
principal slice), temporal correctors absorb the transport time derivative
that the quadratic products shed, and low-frequency correctors absorb the
mean drift of the squared oscillation profile through its antiderivative.

Every block field is rank one, a scalar envelope times a constant frame
vector, so nothing here loops over frames: per time slice and family the
six envelopes stack into one (n^3, 6) array that meets constant tables
(blocks.family_terms rows, their flow_products) in one product, and every
gradient, divergence or double curl is one transform pair per slice. The
velocity family drives no magnetic part, so its magnetic tables are zero.

Every balance these parts rely on can be evaluated literally on the
grid, one term group at a time. The verifiers here do exactly that and
compare against tolerances that grow with the measured spectral tail of
the amplitudes; each report holds the residuals, the tail and each
residual's tail-scaled tolerance (cilab.checks), so concentrated inputs
near the grid limit degrade the tolerance instead of silently failing.
Only the sums that a time derivative needs are held as whole fields;
every other term group and the residual are formed one slice at a time
with running maxima, in the same order of operations as the whole-field
expressions, and each time derivative a residual slice reads is one row
of the time differentiation matrix, D[j] @ X (field.ddt_slice). Every
slice loop runs on the slice pool of cilab.threads: a slice writes only
its own output slice, and maxima are folded in slice order afterwards.
Block second moments enter the low-frequency correctors as measured grid
means of the flow products (blocks.moment_products), not as continuum
values, so the balances close at grid level. Those mean matrices M_(k) are constant, so the low-frequency terms need only
V = sum_k M_(k) grad a_(k)^2: the corrector drives h V, the balance's
residue is (g^2 - 1) V and its wander term is h d_t V.

V, like the oscillation transport of the temporal balance, is the
divergence of squares times a constant table, so its spectrum is formed
straight from the squares' spectra (spectral.div_spectrum): one forward
transform per square and a small product per family, never a transform
of the (n^3, 18) tensor. The low-frequency corrector then stays in the
spectrum for the whole slice: it projects the k3 = 0 and k3 = n/2 planes
onto spectra of real fields, applies P_H and -h / sigma, and makes one
inverse transform. The plane projection is there because the odd
derivative multipliers i k_a are not zeroed at k_a = -n/2, so on those
planes V's spectrum is not that of a real field; the inverse and forward
transforms between V and leray that this pass replaces dropped exactly
that part, and without it w_o moves by 7% of its peak. It becomes a no-op
once those multipliers are zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .amplitudes import AmplitudeSet
from .blocks import (carried_kinds, envelope_stack, family_sets,
                     family_terms, flow_products, moment_products)
from .checks import fold_maxima, gate
from .field import Field, MixedNormSpec, ddt, ddt_slice, norm
from .spectral_ops import _div_rel_defect, _mean_free3, leray, p_neq0
from .threads import map_slices

_TAIL_FACTOR = 10.0

# summation order of the frame families on every slice
_FAMILIES = ("magnetic", "velocity")


class CorrectorIdentityError(RuntimeError):
    """A perturbation balance missed its tail-scaled tolerance."""


# -- shared plumbing -----------------------------------------------------------

def _as_samples(profile, grid, what):
    vals = profile(grid.t()) if callable(profile) else profile
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (grid.n_t,):
        raise ValueError(f"{what} must provide one sample per time slice")
    return vals


def _cutoff(amps, family):
    return amps.f_b if family == "magnetic" else amps.f_u


def _active(amps, families, j):
    """Entries of families (name first) whose cutoff is nonzero on slice j,
    with their squared amplitudes appended; the rest add exactly zero."""
    for entry in families:
        if _cutoff(amps, entry[0])[j] != 0.0:
            yield entry + (amps.squared_slice(entry[0], j),)


def _families(amps, blocks):
    """(family, sets, flows, potentials) per family in summation order, as
    blocks.family_terms gives them."""
    return [(family, *family_terms(family, amps.frames(family), blocks,
                                   amps.grid))
            for family in _FAMILIES]


def _sides(arr, n):
    """[velocity | magnetic] columns as (2, n, n, n, 3)."""
    return np.moveaxis(arr.reshape(n, n, n, 2, 3), 3, 0)


def _side_fields(grid):
    """Zeroed velocity and magnetic accumulators, kept as separate arrays so
    each can be released on its own."""
    return [np.zeros(grid.shape + (3,)) for _ in range(2)]


def _add_sides(acc, j, terms):
    """Add (2, n, n, n, 3) terms onto slice j of the two accumulators."""
    for side, term in zip(acc, terms):
        side[j] += term


def _solenoidal(acc, grid):
    """leray(p_neq0(.)) of each accumulator, releasing it once read."""
    return [leray(p_neq0(Field(acc.pop(0), grid, _take=True)))
            for _ in range(len(acc))]


def _abs_maxima(*arrays):
    """max |a| of each array, as one array for running maxima."""
    return np.array([np.abs(a).max() for a in arrays])


def _gate(report, names, tol):
    """Gate each (key, label) of names at max(tol, _TAIL_FACTOR times the
    report's amplitude tail); with np.maximum a NaN tail keeps that
    tolerance NaN, which nothing is within."""
    tail = report["amplitude_tail"]
    effective = float(np.maximum(tol, _TAIL_FACTOR * tail))
    return gate(report, [(key, label, effective) for key, label in names],
                CorrectorIdentityError)


# -- measured block moments -----------------------------------------------------

def _moment_tables(amps, blocks):
    """Per family, the measured mean matrices of the velocity and magnetic
    equations as one (k, 6, 3) table, row k holding M_vel(k), M_mag(k): the
    grid means of the flow products of each frame's sampled flows, which
    the correctors must consume, not the continuum moments, for the
    balances to close. The blocks advance by a lattice shift, so slice zero
    decides. Per frame the carried flows stack into one (n^3, 6) array,
    magnetic columns zero on velocity frames, whose Gram matrix holds every
    mean product; the frames are spread over the slice pool."""
    frames = [(family, bs) for family in ("velocity", "magnetic")
              for bs in family_sets(amps.frames(family), blocks, amps.grid)]

    def means(i):
        family, bs = frames[i]
        kinds = carried_kinds(family, ("velocity", "magnetic"))
        flows = np.zeros((amps.grid.n_x ** 3, 2, 3))
        for side, kind in enumerate(kinds):
            flows[:, side] = bs.flow_slice(kind, 0).reshape(-1, 3)
        flows = flows.reshape(-1, 6)
        return moment_products(flows.T @ flows / len(flows))

    tables = map_slices(means, range(len(frames)))
    n_u = len(amps.frames("velocity"))
    return [("velocity", np.array(tables[:n_u])),
            ("magnetic", np.array(tables[n_u:]))]


def _drift_spectrum(amps, tables, j, tails=None):
    """Half spectrum of V = sum_k M_(k) grad a_(k)^2 = div sum_k M_(k)
    a_(k)^2 on slice j for both equations, (n, n, n//2 + 1, 2, 3) or None,
    straight from the spectra of the squares; the squares' tails are
    appended to tails when given."""
    spec = None
    for _, table, a2 in _active(amps, tables, j):
        if tails is not None:
            tails.append(("amplitude_tail", spectral.tail(a2.sum(axis=-1))))
        spec = spectral.div_spectrum(a2, table, spec)
    if spec is None:
        return None
    return spec.reshape(spec.shape[:3] + (2, 3))


# -- the perturbation container --------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """Velocity and magnetic perturbations split by role.

    w_p/d_p principal, w_c/d_c incompressibility, w_t/d_t temporal,
    w_o/d_o low-frequency. The totals are reassembled on demand in a
    fixed association order, so repeated reads are bitwise identical;
    stress assembly consumes the parts individually.
    """

    w_p: Field
    w_c: Field
    w_t: Field
    w_o: Field
    d_p: Field
    d_c: Field
    d_t: Field
    d_o: Field

    def __post_init__(self):
        grid = self.w_p.grid
        for part in (self.w_p, self.w_c, self.w_t, self.w_o,
                     self.d_p, self.d_c, self.d_t, self.d_o):
            if part.grid != grid:
                raise ValueError("perturbation parts live on different grids")
            if part.rank != 1:
                raise ValueError("perturbation parts must be vector fields")

    @property
    def grid(self):
        return self.w_p.grid

    @property
    def w(self) -> Field:
        return _total(self.w_p, self.w_c, self.w_t, self.w_o)

    @property
    def d(self) -> Field:
        return _total(self.d_p, self.d_c, self.d_t, self.d_o)


def _total(first, second, *rest):
    """((first + second) + ...) summed in place into one new array."""
    out = first.data + second.data
    for part in rest:
        out += part.data
    return Field(out, first.grid, _take=True)


# -- builders --------------------------------------------------------------------

def _weighted_sum(coef, sets, pair, table, j):
    """One family's sum_k coef_k envelope_k table_k on slice j, (n^3, 6)
    [velocity | magnetic], for coef of shape (n^3, k)."""
    return (coef * envelope_stack(sets, pair, j)) @ table


def principal_parts(amps: AmplitudeSet, blocks: dict, g):
    """Sum amplitude times oscillation times velocity flow over both frame
    families, and the magnetic flows over the skew family. Slices where g
    or the family cutoff vanishes are skipped exactly."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    families = _families(amps, blocks)
    out = np.zeros((2,) + grid.shape + (3,))

    def fill(j):
        if g[j] == 0.0:
            return
        for _, sets, (pair, table), _, a2 in _active(amps, families, j):
            amp = np.sqrt(a2).reshape(-1, len(sets))
            out[:, j] += _sides(_weighted_sum(g[j] * amp, sets, pair, table,
                                              j), n)

    map_slices(fill, range(grid.n_t))
    return Field(out[0], grid, _take=True), Field(out[1], grid, _take=True)


def incompressibility_correctors(amps: AmplitudeSet, blocks: dict, g,
                                 check: bool = True):
    """The incompressibility parts as defined: per slice, the double curl
    of the summed potentials, curl curl (g sum_k a_k potential_k), minus
    the principal slice, formed as principal_parts forms it. Principal plus
    incompressibility parts are then that double curl to rounding, and
    divergence-free up to the Nyquist planes of the transform. One double
    curl per slice serves both sides and both families; slices where g or
    both cutoffs vanish stay exactly zero.

    With check=True the double-curl representation and the divergence of
    the completed parts are verified (this rebuilds the principal parts;
    orchestrators that already hold them should verify directly).
    """
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    families = _families(amps, blocks)
    out = np.zeros((2,) + grid.shape + (3,))

    def fill(j):
        active = list(_active(amps, families, j)) if g[j] != 0.0 else []
        if not active:
            return
        pot = 0.0
        for _, sets, (pair, table), (pot_pair, pot_table), a2 in active:
            amp = np.sqrt(a2).reshape(-1, len(sets))
            out[:, j] += _sides(_weighted_sum(g[j] * amp, sets, pair, table,
                                              j), n)
            pot = pot + _weighted_sum(amp, sets, pot_pair, pot_table, j)
        np.subtract(_sides(spectral.curl_curl(
            g[j] * pot.reshape(n, n, n, 2, 3)), n), out[:, j], out=out[:, j])

    map_slices(fill, range(grid.n_t))
    w_c, d_c = (Field(out[0], grid, _take=True),
                Field(out[1], grid, _take=True))
    if check:
        w_p, d_p = principal_parts(amps, blocks, g)
        verify_divfree_representation(amps, blocks, g, w_p, w_c, d_p, d_c)
    return w_c, d_c


def temporal_correctors_t(amps: AmplitudeSet, blocks: dict, g, mu: float,
                          check: bool = True):
    """Minus the solenoidal low-pass of the transport charges: squared
    amplitude times squared oscillation times the squared flow envelope,
    directed along each quadratic product's driving direction. The time
    derivative of these parts cancels the transport term the products
    shed; mu is the common block transport rate."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    if not mu > 0.0:
        raise ValueError("temporal correctors need a positive transport rate")
    families = _families(amps, blocks)
    for _, sets, _, _ in families:
        for bs in sets:
            if bs.params.mu != mu:
                raise ValueError(
                    f"block set {bs.frame.name} was sampled at transport rate "
                    f"{bs.params.mu:g}, not {mu:g}")
    acc = _side_fields(grid)

    def fill(j):
        if g[j] == 0.0:
            return
        g2 = g[j] ** 2
        active = False
        for _, sets, (pair, dirs), _, a2 in _active(amps, families, j):
            a2 = a2.reshape(-1, len(sets))
            _add_sides(acc, j, _sides(
                (g2 * a2 * envelope_stack(sets, pair, j) ** 2) @ dirs, n))
            active = True
        if active:  # an idle slice stays unwritten
            for side in acc:
                side[j] *= -1.0 / mu

    map_slices(fill, range(grid.n_t))
    w_t, d_t = _solenoidal(acc, grid)
    if check:
        verify_temporal_balance(amps, blocks, g, mu, w_t, d_t)
    return w_t, d_t


def temporal_correctors_o(amps: AmplitudeSet, blocks: dict, h, sigma: float,
                          g=None, check: bool = True):
    """Minus sigma^{-1} times the solenoidal low-pass of h V, with V the
    mean-matrix-weighted amplitude gradients sum_k M_(k) grad a_(k)^2.
    These absorb the low-frequency residue of the squared oscillation
    profile, traded for a time derivative through h with h' = sigma
    (g^2 - 1); the mean matrices are the measured grid moments. Checking
    the balance needs the oscillation profile g itself.

    Each active slice is one spectral pass (module docstring): V's
    spectrum, its k3 = 0 and n/2 planes projected onto spectra of real
    fields, P_H and -h / sigma, then one inverse transform. V has no zero
    mode, so this is leray(p_neq0(.)) of -h V / sigma."""
    if check and g is None:
        raise ValueError("checking the low-frequency balance needs the "
                         "oscillation profile g")
    grid = amps.grid
    n = grid.n_x
    h = _as_samples(h, grid, "antiderivative profile h")
    if not sigma > 0.0:
        raise ValueError("low-frequency correctors need a positive "
                         "oscillation rate sigma")
    tables = _moment_tables(amps, blocks)
    out = np.zeros((2,) + grid.shape + (3,))

    def fill(j):
        if h[j] == 0.0:
            return
        spec = _drift_spectrum(amps, tables, j)
        if spec is not None:
            spectral.leray_spectrum(spectral.real_planes(spec))
            spec *= h[j] * (-1.0 / sigma)
            out[:, j] = np.moveaxis(spectral.irfft(spec, n), 3, 0)

    map_slices(fill, range(grid.n_t))
    w_o, d_o = (Field(out[0], grid, _take=True),
                Field(out[1], grid, _take=True))
    if check:
        verify_low_frequency_balance(amps, blocks, h, sigma, g, w_o, d_o)
    return w_o, d_o


# -- balance verifiers -----------------------------------------------------------

def _require_vector_on(grid, what, *fields):
    for f in fields:
        if f.grid != grid:
            raise ValueError(f"{what} lives on a different grid")
        if f.rank != 1:
            raise ValueError(f"{what} must be a vector field")


def verify_divfree_representation(amps, blocks, g, w_p, w_c, d_p, d_c,
                                  tol: float = 1e-7, div_tol: float = 1e-8):
    """Check, slice by slice, that principal plus incompressibility parts
    equal the double curl of the summed potentials, and that their
    divergence vanishes against the gradient scale. Returns the residual
    report; raises naming the violated balance.

    The builder forms w_c and d_c as that double curl minus its own
    principal sum, so on parts it built the representation residual is
    rounding; it measures whether the stored principal parts are the ones
    the builder subtracted. The divergence residual is what the Nyquist
    planes of the transform leave, where i k is not a derivative."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    _require_vector_on(grid, "perturbation part", w_p, w_c, d_p, d_c)
    families = _families(amps, blocks)
    keys = (("velocity_representation", "velocity_divergence"),
            ("magnetic_representation", "magnetic_divergence"))

    def residuals(j):
        updates = []
        lhs = np.stack([w_p.data[j] + w_c.data[j], d_p.data[j] + d_c.data[j]],
                       axis=-2)
        terms = spectral.div_terms(lhs)
        for s, (_, key) in enumerate(keys):
            side = terms[..., s, :]
            scale = float(np.abs(side).max())
            if scale != 0.0:  # a NaN slice counts
                updates.append((key, float(
                    np.abs(side.sum(axis=-1)).max()) / scale))
        if g[j] == 0.0:
            return updates
        pot = np.zeros((n ** 3, 6))
        for _, sets, _, (pair, table), a2 in _active(amps, families, j):
            updates.append(("amplitude_tail", spectral.tail(a2.sum(axis=-1))))
            amp = np.sqrt(a2).reshape(-1, len(sets))
            pot += _weighted_sum(amp, sets, pair, table, j)
        rhs = spectral.curl_curl(g[j] * pot.reshape(n, n, n, 2, 3))
        for s, (key, _) in enumerate(keys):
            left, right = lhs[..., s, :], rhs[..., s, :]
            scale = max(float(np.abs(left).max()), float(np.abs(right).max()),
                        amps.delta_next)
            updates.append((key, float(np.abs(left - right).max()) / scale))
        return updates

    report = fold_maxima(
        dict.fromkeys(sum(keys, ()) + ("amplitude_tail",), 0.0),
        map_slices(residuals, range(grid.n_t)))
    _gate(report, (("velocity_representation",
                    "velocity double-curl representation residual"),
                   ("magnetic_representation",
                    "magnetic double-curl representation residual")), tol)
    return _gate(report, (("velocity_divergence",
                           "velocity incompressibility residual"),
                          ("magnetic_divergence",
                           "magnetic incompressibility residual")), div_tol)


def verify_temporal_balance(amps, blocks, g, mu: float, w_t, d_t,
                            tol: float = 1e-6):
    """Evaluate both transport balances literally, in four term groups:
    corrector evolution plus oscillation transport against the pressure
    gradient plus the gradient-transfer and profile-drift remainders.
    Every group is assembled from samples; the time derivative forces a
    full sweep, so there is no slice subsetting here. The flow products
    are squared envelopes times blocks.flow_products of the frame
    directions, P_v = k1 (x) k1 - k2 (x) k2 and P_m = k2 (x) k1 - k1 (x)
    k2, so the gradient transfer P grad a^2 needs only the derivatives of
    a^2 along k1 and k2."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    if not mu > 0.0:
        raise ValueError("the temporal balance needs a positive transport rate")
    _require_vector_on(grid, "temporal corrector", w_t, d_t)
    families = []
    for family, sets, (pair, dirs), _ in _families(amps, blocks):
        k1, k2 = dirs[:, :3], dirs[:, 3:]
        # rows: per frame, derivative along k1 then k2 (none for velocity)
        ks = carried_kinds(family, (k1, k2))
        transfer = np.stack([dirs, -np.hstack([k2, k1])], axis=1)[
            :, :len(ks)].reshape(-1, 6)
        families.append((family, sets, pair, dirs, flow_products(dirs), ks,
                         transfer))
    acc, osc, drift = _side_fields(grid), _side_fields(grid), _side_fields(grid)

    def sweep(j):
        if g[j] == 0.0:
            return []
        tails = []
        g2 = g[j] ** 2
        spec = None
        for (_, sets, pair, dirs, products, ks, transfer,
             a2) in _active(amps, families, j):
            tails.append(("amplitude_tail", spectral.tail(a2.sum(axis=-1))))
            env2 = envelope_stack(sets, pair, j) ** 2
            derivs = spectral.directional(a2, ks).reshape(len(env2), len(sets), -1)
            weight = a2.reshape(-1, len(sets)) * env2
            _add_sides(acc, j, _sides(g2 * (weight @ dirs), n))
            _add_sides(drift, j, _sides(g2 * ((env2[:, :, None] * derivs)
                                              .reshape(len(env2), -1)
                                              @ transfer), n))
            spec = spectral.div_spectrum(weight.reshape(n, n, n, -1),
                                         products, spec)
        if spec is not None:
            for side, term in zip(osc, np.moveaxis(spectral.irfft(
                    spec.reshape(spec.shape[:3] + (2, 3)), n), 3, 0)):
                side[j] = g2 * term
        return tails

    report = fold_maxima({"amplitude_tail": 0.0},
                          map_slices(sweep, range(grid.n_t)))
    # profile drift, time-derivative half: - mu^{-1} envelope^2 k d_t(a^2 g^2)
    g2_all = g ** 2
    for family, sets, pair, dirs, _, ks, _ in families:
        for i, bs in enumerate(sets):
            q = np.empty(grid.shape)

            def fill(j):
                q[j] = g2_all[j] * amps.squared_component_slice(family, i, j)

            map_slices(fill, range(grid.n_t))
            dq = ddt(Field(q, grid, _take=True)).data

            def pull(j):
                pulled = (envelope_stack([bs], pair, j) ** 2
                          * dq[j].reshape(-1, 1) / mu)
                for s, k in enumerate(ks):
                    drift[s][j] -= (pulled * k[i]).reshape(n, n, n, 3)

            map_slices(pull, range(grid.n_t))
    for s, (side, part) in enumerate((("velocity", w_t), ("magnetic", d_t))):
        def residual(j):
            evolution = ddt_slice(part.data, j)
            charge = _mean_free3(ddt_slice(acc[s], j))
            pressure = (charge - spectral.leray(charge)) * (1.0 / mu)
            transport = _mean_free3(osc[s][j])
            transfer = _mean_free3(drift[s][j])
            return _abs_maxima(evolution + transport - pressure - transfer,
                               evolution, transport, pressure, transfer)

        peaks = np.max(map_slices(residual, range(grid.n_t)), axis=0,
                       initial=0.0)
        acc[s] = osc[s] = drift[s] = None
        report[f"{side}_temporal_balance"] = float(
            peaks[0] / max(*peaks[1:], amps.delta_next))
    return _gate(report,
                 (("velocity_temporal_balance",
                   "velocity temporal corrector balance residual"),
                  ("magnetic_temporal_balance",
                   "magnetic temporal corrector balance residual")), tol)


def verify_low_frequency_balance(amps, blocks, h, sigma: float, g, w_o, d_o,
                                 tol: float = 1e-6):
    """Evaluate both low-frequency balances literally: corrector evolution
    plus the squared-profile residue (g^2 - 1) V against the pressure
    gradient plus the antiderivative-weighted gradient drift h d_t V, with
    V = sum_k M_(k) grad a_(k)^2 formed once per slice. Relies on
    h' = sigma (g^2 - 1) holding exactly for the supplied profile pair."""
    grid = amps.grid
    h = _as_samples(h, grid, "antiderivative profile h")
    g = _as_samples(g, grid, "oscillation profile g")
    if not sigma > 0.0:
        raise ValueError("the low-frequency balance needs a positive "
                         "oscillation rate sigma")
    _require_vector_on(grid, "low-frequency corrector", w_o, d_o)
    tables = _moment_tables(amps, blocks)
    drift = _side_fields(grid)

    def sweep(j):
        tails = []
        spec = _drift_spectrum(amps, tables, j, tails)
        if spec is not None:
            for side, term in zip(drift, np.moveaxis(spectral.irfft(
                    spec, grid.n_x), 3, 0)):
                side[j] = term
        return tails

    report = fold_maxima({"amplitude_tail": 0.0},
                          map_slices(sweep, range(grid.n_t)))
    g2m1 = g ** 2 - 1.0
    for s, (side, part) in enumerate((("velocity", w_o), ("magnetic", d_o))):
        def residual(j):
            evolution = ddt_slice(part.data, j)
            res = _mean_free3(g2m1[j] * drift[s][j])
            pressure = res - spectral.leray(res)
            transfer = spectral.leray(_mean_free3(
                h[j] * ddt_slice(drift[s], j))) * (-1.0 / sigma)
            return _abs_maxima(evolution + res - pressure - transfer,
                               evolution, res, pressure, transfer)

        peaks = np.max(map_slices(residual, range(grid.n_t)), axis=0,
                       initial=0.0)
        drift[s] = None
        report[f"{side}_low_frequency_balance"] = float(
            peaks[0] / max(*peaks[1:], amps.delta_next))
    return _gate(report,
                 (("velocity_low_frequency_balance",
                   "velocity low-frequency corrector balance residual"),
                  ("magnetic_low_frequency_balance",
                   "magnetic low-frequency corrector balance residual")),
                 tol)


# -- assembly ---------------------------------------------------------------------

def assemble_iterate(u_l: Field, B_l: Field, pert: Perturbation,
                     amps: AmplitudeSet, tol: float = 1e-8):
    """Add the perturbation totals onto the mollified state and gate the
    result: the totals must be solenoidal and spatially mean-free to
    tolerance, and must vanish outside the three-ell time neighborhood of
    the stress support. Returns the next state pair and the increment
    report. Means are validated, never subtracted: forcing them to zero
    would feed an unaccounted time-dependent constant into the stress."""
    grid = amps.grid
    _require_vector_on(grid, "state field", u_l, B_l)
    if pert.grid != grid:
        raise ValueError("perturbation lives on a different grid")
    report = {}
    totals = []  # the magnetic total is summed only once the velocity passes
    for name, attr in (("velocity", "w"), ("magnetic", "d")):
        inc = getattr(pert, attr)
        totals.append(inc)
        div_defect = _div_rel_defect(inc)
        peak = inc.max_abs()
        mean_defect = (float(np.abs(inc.spatial_means()).max())
                       / max(peak, 1e-300))
        report[f"{name}_divergence_defect"] = div_defect
        report[f"{name}_mean_defect"] = mean_defect
        gate(report, [
            (f"{name}_divergence_defect",
             f"{name} perturbation is not solenoidal: relative defect", tol),
            (f"{name}_mean_defect", f"{name} perturbation is not spatially "
             "mean-free: relative defect", tol)], CorrectorIdentityError)
    w, d = totals
    mask = amps.stress_support()
    for name, inc in (("velocity", w), ("magnetic", d)):
        leak = 0.0
        if mask.any() and not mask.all():
            reach = int(math.ceil(3.0 * amps.ell / grid.dt))
            allowed = mask.copy()
            for shift in range(1, min(reach, grid.n_t) + 1):
                allowed |= np.roll(mask, shift) | np.roll(mask, -shift)
            if not allowed.all():
                norms = np.abs(inc.data).max(axis=(1, 2, 3, 4))
                peak = norms.max()
                if peak > 0.0:
                    leak = float(norms[~allowed].max()) / peak
        report[f"{name}_support_leak"] = leak
        gate(report, [(f"{name}_support_leak", f"{name} perturbation leaks "
                       "outside the dilated stress support: relative slice "
                       "norm", 1e-10)], CorrectorIdentityError)
    sup_l2 = MixedNormSpec.lebesgue(np.inf, 2.0)
    report["velocity_increment"] = norm(w, sup_l2)
    report["magnetic_increment"] = norm(d, sup_l2)
    report["increment_over_sqrt_delta"] = (
        report["velocity_increment"] / math.sqrt(amps.delta_next))
    return u_l + w, B_l + d, report
