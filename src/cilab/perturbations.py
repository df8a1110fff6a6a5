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
(the rows of a blocks.Family, their flow_products) in one product. A
gradient or divergence applies the derivative matrix D along each axis
of one component at a time, a double curl transforms one side (velocity
or magnetic), and each product is formed in the buffer of the squares it
starts from, so a pool thread holds a few slices of temporaries. The velocity family drives no magnetic part, so
its magnetic tables are zero.

Every balance these parts rely on can be evaluated literally on the
grid, one term group at a time. The verifiers here do exactly that and
gate each residual at the check's own fixed tolerance (cilab.checks);
each report holds the residuals, any monitored values and each
residual's tolerance, and a failing check's error carries it as
`report`. No tolerance grows with the inputs, so amplitudes the grid
does not resolve fail these gates. Only the sums that a time derivative
needs are held as whole fields; every other term group and the residual
are formed one slice at a time with running maxima, in the same order
of operations as the whole-field expressions, and each time derivative
a residual slice reads is one row of D, D[j] @ X (field.ddt_slice).
Every slice loop runs on the slice pool of cilab.threads: a slice writes
only its own output slice, and maxima are folded in slice order afterwards.
Block second moments enter the low-frequency correctors as measured grid
means of the flow products (BlockSet.moments), not as continuum
values, so the balances close at grid level. Those mean matrices M_(k)
are constant, so the low-frequency terms need only
V = sum_k M_(k) grad a_(k)^2: the corrector drives h V, the balance's
residue is (g^2 - 1) V and its wander term is h d_t V.

V, like the oscillation transport of the temporal balance, is the
divergence of squares times a constant table, so its spectrum is formed
straight from the squares' spectra (spectral.div_spectrum): one forward
transform per square and a small product per family, never a transform
of the (n^3, 18) tensor. The low-frequency corrector then stays in the
spectrum for the whole slice: it applies P_H and -h / sigma to V's
spectrum and makes one inverse transform. V's derivatives vanish at
k_a = +-n/2 (spectral.derivatives), so that is a real field's spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .amplitudes import AmplitudeSet, dilate_support
from .blocks import envelope_stack, family, flow_products
from .checks import fold_maxima, gate
from .field import Field, _require_vector_on, ddt, ddt_slice, peak_abs
from .spectral_ops import _div_rel_defect, leray, p_neq0
from .threads import map_slices

# summation order of the frame families on every slice
_FAMILIES = ("magnetic", "velocity")


class CorrectorIdentityError(RuntimeError):
    """A perturbation balance or increment missed its tolerance."""


# -- shared plumbing -----------------------------------------------------------

def _as_samples(profile, grid, what):
    vals = profile(grid.t()) if callable(profile) else profile
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (grid.n_t,):
        raise ValueError(f"{what} must provide one sample per time slice")
    return vals


def _active(amps, families, j):
    """The blocks.Family of each frame family whose cutoff is nonzero on
    slice j; the rest add exactly zero."""
    return [fam for fam in families if amps.cutoff(fam.name)[j] != 0.0]


def _families(amps, blocks, names=_FAMILIES):
    """The blocks.Family of each frame family in names, in that order."""
    return [family(name, amps.frames(name), blocks, amps.grid)
            for name in names]


def _families_at(amps, blocks, mu):
    """_families, once every block set is known to be sampled at the
    positive transport rate mu."""
    if not mu > 0.0:
        raise ValueError("the temporal parts need a positive transport rate")
    families = _families(amps, blocks)
    for fam in families:
        for bs in fam.sets:
            if bs.params.mu != mu:
                raise ValueError(
                    f"block set {bs.frame.name} was sampled at transport rate "
                    f"{bs.params.mu:g}, not {mu:g}")
    return families


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


def _balance(evolution, source, pressure, transfer):
    """The balance residual ((evolution + source) - pressure) - transfer
    of one slice, in one buffer."""
    out = evolution + source
    out -= pressure
    out -= transfer
    return out


def _abs_maxima(*arrays):
    """max |a| of each array, as one array for running maxima."""
    return np.array([peak_abs(a) for a in arrays])


# Each slice's products are formed in the buffer of the squares that
# AmplitudeSet.squared_slice returns, in the order of operations of the
# whole-field expressions; a buffer passed on as a temporary is released
# by the callee once read.

def _amplitudes(amps, fam, j):
    """The amplitudes a_k of fam on slice j as (n^3, k)."""
    a2 = amps.squared_slice(fam.name, j)
    return np.sqrt(a2, out=a2).reshape(-1, len(fam.sets))


def _flow_weights(fam, amp, j, g):
    """g a_k times the flow envelopes of fam on slice j, formed as (g a)
    envelope in the buffer of the amplitudes amp."""
    amp *= g
    amp *= envelope_stack(fam.sets, j)
    return amp


def _square_weights(amps, fam, j, g2=1.0):
    """g^2 a_k^2 times the squared flow envelopes of fam on slice j, (n, n,
    n, k), formed as (g^2 a^2) envelope^2; a factor g^2 = 1 is exact and
    skipped."""
    a2 = amps.squared_slice(fam.name, j)
    weights = a2.reshape(-1, len(fam.sets))
    if g2 != 1.0:
        weights *= g2
    env = envelope_stack(fam.sets, j)
    weights *= np.square(env, out=env)
    return a2


def _add_potential(pot, fam, amp, j):
    """pot += (a_k potential envelope_k) @ the potential table of fam, on
    slice j, reading the amplitudes amp."""
    env = envelope_stack(fam.sets, j, "potential")
    env *= amp
    del amp
    pot += env @ fam.potentials


# -- measured block moments -----------------------------------------------------

def _moment_tables(amps, blocks):
    """Per family, velocity first, the measured mean matrices of the
    velocity and magnetic equations as one (k, 6, 3) table, row k holding
    M_vel(k), M_mag(k): the grid means of the flow products of each frame's
    sampled flows (BlockSet.moments, measured once per block set), which
    the correctors must consume, not the continuum moments, for the
    balances to close. The frames are spread over the slice pool."""
    families = _families(amps, blocks, ("velocity", "magnetic"))
    frames = [(bs, fam.sides) for fam in families for bs in fam.sets]
    tables = map_slices(lambda i: frames[i][0].moments(frames[i][1]),
                        range(len(frames)))
    n_u = len(families[0].sets)
    return [(fam.name, np.array(rows)) for fam, rows
            in zip(families, (tables[:n_u], tables[n_u:]))]


def _drift_spectrum(amps, tables, j):
    """Half spectrum of V = sum_k M_(k) grad a_(k)^2 = div sum_k M_(k)
    a_(k)^2 on slice j for both equations, (n, n, n//2 + 1, 2, 3) or None,
    straight from the spectra of the squares."""
    spec = None
    for name, table in tables:
        if amps.cutoff(name)[j] != 0.0:
            spec = spectral.div_spectrum(amps.squared_slice(name, j), table,
                                         spec)
    if spec is None:
        return None
    return spec.reshape(spec.shape[:3] + (2, 3))


# -- the perturbation container --------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """Velocity and magnetic perturbations split by role.

    w_p/d_p principal, w_c/d_c incompressibility, w_t/d_t temporal,
    w_o/d_o low-frequency. Stress assembly consumes the parts individually.
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
        _require_vector_on(self.w_p.grid, "perturbation part", self.w_p,
                           self.w_c, self.w_t, self.w_o, self.d_p, self.d_c,
                           self.d_t, self.d_o)

    @property
    def grid(self):
        return self.w_p.grid


# -- builders --------------------------------------------------------------------

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
        for fam in _active(amps, families, j):
            out[:, j] += _sides(_flow_weights(fam, _amplitudes(amps, fam, j),
                                              j, g[j]) @ fam.flows, n)

    map_slices(fill, range(grid.n_t))
    return Field(out[0], grid, _take=True), Field(out[1], grid, _take=True)


def incompressibility_correctors(amps: AmplitudeSet, blocks: dict, g,
                                 check: bool = True):
    """The incompressibility parts as defined: per slice, the double curl
    of the summed potentials, curl curl (g sum_k a_k potential_k), minus
    the principal slice, formed as principal_parts forms it. Principal plus
    incompressibility parts are then that double curl to rounding, and
    divergence-free to rounding (spectral.derivatives). The potentials
    of both families sum first, then one double curl per side; slices
    where g or both cutoffs vanish stay exactly zero.

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
        if g[j] == 0.0:
            return
        active = _active(amps, families, j)
        if not active:
            return
        pot = np.zeros((n ** 3, 6))
        for fam in active:
            amp = _amplitudes(amps, fam, j)
            _add_potential(pot, fam, amp, j)
            out[:, j] += _sides(_flow_weights(fam, amp, j, g[j]) @ fam.flows,
                                n)
            del amp  # before the next family's
        pot *= g[j]
        for s, side in enumerate(_sides(pot, n)):
            np.subtract(spectral.curl_curl(side), out[s, j], out=out[s, j])

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
    families = _families_at(amps, blocks, mu)
    acc = _side_fields(grid)

    def fill(j):
        if g[j] == 0.0:
            return
        g2 = g[j] ** 2
        active = _active(amps, families, j)
        for fam in active:
            _add_sides(acc, j, _sides(_square_weights(
                amps, fam, j, g2).reshape(-1, len(fam.sets)) @ fam.flows, n))
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
    spectrum, P_H and -h / sigma, then one inverse transform. V has no
    zero mode, so this is leray(p_neq0(.)) of -h V / sigma."""
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
            spectral.leray_spectrum(spec)
            spec *= h[j] * (-1.0 / sigma)
            for s in range(2):
                out[s, j] = spectral.irfft(spec[..., s, :], n)

    map_slices(fill, range(grid.n_t))
    w_o, d_o = (Field(out[0], grid, _take=True),
                Field(out[1], grid, _take=True))
    if check:
        verify_low_frequency_balance(amps, blocks, h, sigma, g, w_o, d_o)
    return w_o, d_o


# -- balance verifiers -----------------------------------------------------------

def _transport_tables(fam, s):
    """Side s's tables of one family for the temporal balance: ks, the
    (k, 3) directions its frames' squares are differentiated along (k1,
    then k2 on magnetic frames), and on the side's columns, contiguous, the
    flow directions, their flow_products and the gradient transfer, one
    row per frame and direction."""
    dirs = fam.flows
    k1, k2 = dirs[:, :3], dirs[:, 3:]
    ks = (k1, k2)[:len(fam.sides)]
    transfer = np.stack([dirs, -np.hstack([k2, k1])], axis=1)[
        :, :len(ks)].reshape(-1, 6)
    cols = slice(3 * s, 3 * s + 3)
    return (ks, *(np.ascontiguousarray(table[:, cols])
                  for table in (dirs, flow_products(dirs), transfer)))


def verify_divfree_representation(amps, blocks, g, w_p, w_c, d_p, d_c):
    """Check, slice by slice, that principal plus incompressibility parts
    equal the double curl of the summed potentials (to 1e-7), and that
    their divergence vanishes against the gradient scale (to 1e-8).
    Returns the residual report; raises naming the violated balance.

    The builder forms w_c and d_c as that double curl minus its own
    principal sum, so on parts it built the representation residual is
    rounding; it measures whether the stored principal parts are the ones
    the builder subtracted; the divergence is rounding too. What no
    derivative reads is monitored, not gated: `*_nyquist_share` is the
    largest peak of the alternating mean (1/n) sum_i (-1)^i along any axis
    a, the content on the planes k_a = +-n/2, over the slice peak."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    _require_vector_on(grid, "perturbation part", w_p, w_c, d_p, d_c)
    families = _families(amps, blocks)
    keys = [(f"{s}_representation", f"{s}_divergence", f"{s}_nyquist_share")
            for s in ("velocity", "magnetic")]
    sides = ((w_p, w_c), (d_p, d_c))

    def lhs(j, s):
        """Side s of principal plus incompressibility parts on slice j."""
        return np.add(*(part.data[j] for part in sides[s]))

    def residuals(j):
        """One side at a time: its divergence terms and Nyquist content,
        then the double curl of its potential sum."""
        updates = []
        for s, (_, div_key, share_key) in enumerate(keys):
            left = lhs(j, s)
            nyquist = 0.0
            for a in range(3):
                x = np.moveaxis(left, a, 0)
                alt = np.abs(x[0::2].sum(axis=0) - x[1::2].sum(axis=0)) / n
                nyquist = np.maximum(nyquist, alt.max())
            terms = spectral.div_terms(left)
            scale = peak_abs(terms)
            if scale != 0.0:  # a NaN slice counts
                updates.append((div_key, peak_abs(terms.sum(axis=-1)) / scale))
            del terms
            peak = peak_abs(left)
            if peak != 0.0:
                updates.append((share_key, float(nyquist) / peak))
            del left
        if g[j] == 0.0:
            return updates
        pot = np.zeros((n ** 3, 6))
        for fam in _active(amps, families, j):
            _add_potential(pot, fam, _amplitudes(amps, fam, j), j)
        pot *= g[j]
        for s, ((key, _, _), gpot) in enumerate(zip(keys, _sides(pot, n))):
            right = spectral.curl_curl(gpot)
            left = lhs(j, s)
            scale = max(peak_abs(left), peak_abs(right), amps.delta_next)
            updates.append((key, peak_abs(np.subtract(left, right, out=right))
                            / scale))
            del left, right
        return updates

    report = fold_maxima(dict.fromkeys(sum(keys, ()), 0.0),
                         map_slices(residuals, range(grid.n_t)))
    return gate(report, [
        ("velocity_representation",
         "velocity double-curl representation residual", 1e-7),
        ("magnetic_representation",
         "magnetic double-curl representation residual", 1e-7),
        ("velocity_divergence", "velocity incompressibility residual", 1e-8),
        ("magnetic_divergence", "magnetic incompressibility residual", 1e-8)],
        CorrectorIdentityError)


def verify_temporal_balance(amps, blocks, g, mu: float, w_t, d_t):
    """Evaluate both transport balances literally, in four term groups:
    corrector evolution plus oscillation transport against the pressure
    gradient plus the gradient-transfer and profile-drift remainders.
    Every group is assembled from samples; the time derivative forces a
    full sweep, so there is no slice subsetting here. The flow products
    are squared envelopes times blocks.flow_products of the frame
    directions, P_v = k1 (x) k1 - k2 (x) k2 and P_m = k2 (x) k1 - k1 (x)
    k2, so the gradient transfer P grad a^2 needs only the derivatives of
    a^2 along k1 and k2.

    The sides are checked one after the other, velocity first: sweep, pull
    and residual pass of one side, then of the next. A side holds two whole
    vector fields, the ones a time derivative reads: acc, the transport
    charge, and drift, the gradient transfer with the profile drift. The
    oscillation transport g^2 div sum_k a_k^2 P_k goes through no time
    derivative, so the residual pass forms it slice by slice and never
    stores it. The magnetic side skips the velocity family, whose magnetic
    tables are zero, and differentiates the magnetic family's squares
    again."""
    grid = amps.grid
    n = grid.n_x
    g = _as_samples(g, grid, "oscillation profile g")
    _require_vector_on(grid, "temporal corrector", w_t, d_t)
    families = _families_at(amps, blocks, mu)
    g2_all = g ** 2
    report = {}
    for s, (side, part) in enumerate((("velocity", w_t), ("magnetic", d_t))):
        carried = [fam for fam in families if side in fam.sides]
        tables = {fam.name: _transport_tables(fam, s) for fam in carried}
        acc, drift = np.zeros(grid.shape + (3,)), np.zeros(grid.shape + (3,))

        def add_terms(j, g2, fam, a2):
            """Add one family's transport charge onto acc and its gradient
            transfer onto drift on slice j. The products are taken in
            place, in the buffers of the derivatives and of the squares
            a2, and nothing outlives the call."""
            ks, dirs, _, transfer = tables[fam.name]
            derivs = spectral.directional(a2, ks).reshape(
                n ** 3, len(fam.sets), -1)
            env2 = envelope_stack(fam.sets, j)
            np.square(env2, out=env2)
            derivs *= env2[:, :, None]
            weights = a2.reshape(-1, len(fam.sets))
            weights *= env2
            del env2, a2
            charge = weights @ dirs
            del weights
            charge *= g2
            acc[j] += charge.reshape(n, n, n, 3)
            del charge
            gradient = derivs.reshape(n ** 3, -1) @ transfer
            del derivs
            gradient *= g2
            drift[j] += gradient.reshape(n, n, n, 3)

        def sweep(j):
            if g[j] == 0.0:
                return
            for fam in _active(amps, carried, j):
                add_terms(j, g[j] ** 2, fam, amps.squared_slice(fam.name, j))

        map_slices(sweep, range(grid.n_t))
        # profile drift, time-derivative half:
        # - mu^{-1} envelope^2 k d_t(a^2 g^2)
        for fam in carried:
            dirs = tables[fam.name][1]
            for i, bs in enumerate(fam.sets):
                q = np.empty(grid.shape)

                def fill(j):
                    q[j] = g2_all[j] * amps.squared_component_slice(fam.name,
                                                                    i, j)

                map_slices(fill, range(grid.n_t))
                dq = ddt(Field(q, grid, _take=True)).data
                q = None

                def pull(j):
                    # envelope^2 dq / mu in one buffer, then per component
                    pulled = envelope_stack([bs], j).reshape(n, n, n)
                    np.square(pulled, out=pulled)
                    pulled *= dq[j]
                    pulled /= mu
                    for c in range(3):
                        drift[j][..., c] -= pulled * dirs[i, c]

                map_slices(pull, range(grid.n_t))
                dq = None

        def oscillation(j):
            """The side's oscillation transport on slice j, (n, n, n, 3),
            or None where g or every cutoff vanishes."""
            spec = None
            for fam in _active(amps, carried, j) if g[j] != 0.0 else ():
                spec = spectral.div_spectrum(_square_weights(amps, fam, j),
                                             tables[fam.name][2], spec)
            if spec is None:
                return None
            out = spectral.irfft(spec, n)
            out *= g[j] ** 2
            return out

        def residual(j):
            osc = oscillation(j)
            evolution = ddt_slice(part.data, j)
            charge = spectral.mean_free(ddt_slice(acc, j))
            pressure = spectral.leray(charge)
            np.subtract(charge, pressure, out=pressure)
            del charge
            pressure *= 1.0 / mu
            transport = (np.zeros(evolution.shape) if osc is None
                         else spectral.mean_free(osc))
            del osc
            transfer = spectral.mean_free(drift[j])
            return _abs_maxima(_balance(evolution, transport, pressure,
                                        transfer),
                               evolution, transport, pressure, transfer)

        peaks = np.max(map_slices(residual, range(grid.n_t)), axis=0,
                       initial=0.0)
        acc = drift = None
        report[f"{side}_temporal_balance"] = float(
            peaks[0] / max(*peaks[1:], amps.delta_next))
    return gate(report, [
        ("velocity_temporal_balance",
         "velocity temporal corrector balance residual", 1e-6),
        ("magnetic_temporal_balance",
         "magnetic temporal corrector balance residual", 1e-6)],
        CorrectorIdentityError)


def verify_low_frequency_balance(amps, blocks, h, sigma: float, g,
                                 w_o, d_o):
    """Evaluate both low-frequency balances literally: corrector evolution
    plus the squared-profile residue (g^2 - 1) V against the pressure
    gradient plus the antiderivative-weighted gradient drift h d_t V, with
    V = sum_k M_(k) grad a_(k)^2 formed once per slice. That trade relies
    on h' = sigma (g^2 - 1) for the supplied profile pair, so D h is gated
    against it first ("profile_pair_defect", relative, at 1e-12)."""
    grid = amps.grid
    h = _as_samples(h, grid, "antiderivative profile h")
    g = _as_samples(g, grid, "oscillation profile g")
    if not sigma > 0.0:
        raise ValueError("the low-frequency balance needs a positive "
                         "oscillation rate sigma")
    _require_vector_on(grid, "low-frequency corrector", w_o, d_o)
    g2m1 = g ** 2 - 1.0
    slope = sigma * g2m1
    defect = peak_abs(spectral.derivative_matrix(grid.n_t) @ h - slope)
    report = {"profile_pair_defect": defect / max(peak_abs(slope), 1e-300)}
    gate(report, [("profile_pair_defect", "profile pair (g, h) breaks h' = "
                   "sigma (g^2 - 1): relative defect", 1e-12)],
         CorrectorIdentityError)
    tables = _moment_tables(amps, blocks)
    drift = _side_fields(grid)

    def sweep(j):
        spec = _drift_spectrum(amps, tables, j)
        if spec is not None:
            for s, side in enumerate(drift):
                side[j] = spectral.irfft(spec[..., s, :], grid.n_x)

    map_slices(sweep, range(grid.n_t))
    for s, (side, part) in enumerate((("velocity", w_o), ("magnetic", d_o))):
        def residual(j):
            evolution = ddt_slice(part.data, j)
            res = spectral.mean_free(g2m1[j] * drift[s][j])
            pressure = spectral.leray(res)
            np.subtract(res, pressure, out=pressure)
            transfer = spectral.leray(spectral.mean_free(
                h[j] * ddt_slice(drift[s], j)))
            transfer *= -1.0 / sigma
            return _abs_maxima(_balance(evolution, res, pressure, transfer),
                               evolution, res, pressure, transfer)

        peaks = np.max(map_slices(residual, range(grid.n_t)), axis=0,
                       initial=0.0)
        drift[s] = None
        report[f"{side}_low_frequency_balance"] = float(
            peaks[0] / max(*peaks[1:], amps.delta_next))
    return gate(report, [
        ("velocity_low_frequency_balance",
         "velocity low-frequency corrector balance residual", 1e-6),
        ("magnetic_low_frequency_balance",
         "magnetic low-frequency corrector balance residual", 1e-6)],
        CorrectorIdentityError)


# -- assembly ---------------------------------------------------------------------

def assemble_iterate(u_l: Field, B_l: Field, pert: Perturbation,
                     amps: AmplitudeSet):
    """Add the perturbation totals onto the mollified state and gate the
    result: the totals must be solenoidal and spatially mean-free to 1e-8,
    and must vanish (to 1e-10) outside the three-ell time neighborhood of
    the stress support. Returns the next state pair and the increment
    report. Means are validated, never subtracted: forcing them to zero
    would feed an unaccounted time-dependent constant into the stress.

    One slice pass forms each total ((p + c) + t) + o and its slice means,
    peak and squared norm, skipping a side's slice where all its parts are
    zero. Every defect, leak and increment of both sides is measured before
    the one gate; once it passes, each total becomes the next state in
    place: w + u_l is u_l + w bit for bit, and no third and fourth field is
    held while the divergence defects transform the totals."""
    grid = amps.grid
    _require_vector_on(grid, "state field", u_l, B_l)
    if pert.grid != grid:
        raise ValueError("perturbation lives on a different grid")
    sides = (("velocity", u_l, (pert.w_p, pert.w_c, pert.w_t, pert.w_o)),
             ("magnetic", B_l, (pert.d_p, pert.d_c, pert.d_t, pert.d_o)))
    # np.zeros: the pages of idle slices stay unmapped
    totals = [np.zeros(grid.shape + (3,)) for _ in sides]

    def fill(j):
        stats = np.zeros((len(sides), 5))
        for s, (_, _, parts) in enumerate(sides):
            if any(part.data[j].any() for part in parts):
                total = np.add(parts[0].data[j], parts[1].data[j],
                               out=totals[s][j])
                for part in parts[2:]:
                    total += part.data[j]
                stats[s] = (*total.mean(axis=(0, 1, 2)), peak_abs(total),
                            np.square(total).sum())
        return stats

    stats = np.array(map_slices(fill, range(grid.n_t)))
    # floored; np.maximum keeps a NaN peak, so its side's ratios are NaN
    peaks = np.maximum(stats[..., 3].max(axis=0), 1e-300)
    mask = amps.stress_support()
    outside = mask.any() & ~dilate_support(
        mask, int(math.ceil(3.0 * amps.ell / grid.dt)))
    report, gates, leaks = {}, [], []
    for s, (name, _, _) in enumerate(sides):
        # a view, so the Field freezes it and not the total
        report[f"{name}_divergence_defect"] = _div_rel_defect(
            Field(totals[s][...], grid, _take=True))
        report[f"{name}_mean_defect"] = float(
            np.abs(stats[:, s, :3]).max() / peaks[s])
        report[f"{name}_support_leak"] = float(
            stats[outside, s, 3].max(initial=0.0) / peaks[s])
        # L^infinity in time of L^2 in space
        report[f"{name}_increment"] = float(np.sqrt(
            stats[:, s, 4].max() * (2.0 * np.pi / grid.n_x) ** 3))
        gates += [(f"{name}_divergence_defect", f"{name} perturbation is not "
                   "solenoidal: relative defect", 1e-8),
                  (f"{name}_mean_defect", f"{name} perturbation is not "
                   "spatially mean-free: relative defect", 1e-8)]
        leaks.append((f"{name}_support_leak", f"{name} perturbation leaks "
                      "outside the dilated stress support: relative slice "
                      "norm", 1e-10))
    report["increment_over_sqrt_delta"] = (
        report["velocity_increment"] / math.sqrt(amps.delta_next))
    gate(report, gates + leaks, CorrectorIdentityError)
    for total, (_, state, _) in zip(totals, sides):
        total += state.data
    return (*(Field(total, grid, _take=True) for total in totals), report)
