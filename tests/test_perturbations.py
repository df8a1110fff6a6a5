"""Perturbation builders and balance verifiers against a per-frame reference.

The reference below is the literal frame-by-frame formulation: every
block field is sampled with flow_slice, every product is an explicit
outer product, every gradient, curl and divergence is a spectral
transform of one component, and the spatial-mean projection zeroes
spectral modes. The module's stacked-envelope products must reproduce
it term group by term group.
"""

import numpy as np
import pytest
import scipy.fft as sfft

from cilab import perturbations as pt
from cilab import spectral
from cilab.amplitudes import (
    CancellationError, build_amplitudes, dilate_support, verify_cancellation,
)
from cilab.blocks import BlockParams, BlockSet, moment_products, sample_blocks
from cilab.field import Field, ddt, div_tensor, grad, to_spectral
from cilab.geometry import ConstructionError, build_geometry
from cilab.grid import Grid4
from cilab.profiles import BumpTrain, make_spatial_profiles, make_temporal
from cilab.spectral_ops import leray, p_neq0
from cilab.threads import map_slices

from conftest import random_divfree, random_field
from oracles import (
    assemble_iterate_whole_field, per_slice, replaced, spectral_derivative,
    to_physical,
)
from test_amplitudes import stress_pair
from test_spectral_ops import traced_peak

MU = 0.2


# -- per-frame reference ---------------------------------------------------------

def ref_wavenumbers3(n):
    """Derivative multipliers: the integer wavenumbers with k_a = +-n/2
    zeroed, since cos(n x_a / 2) has zero slope at the grid points."""
    kf = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    kh = np.arange(n // 2 + 1, dtype=np.int64)
    if n % 2 == 0:
        kf[n // 2] = kh[n // 2] = 0
    return kf[:, None, None], kf[None, :, None], kh[None, None, :]


def ref_rfft3(arr):
    return sfft.rfftn(arr, axes=(0, 1, 2))


def ref_irfft3(spec, n):
    return sfft.irfftn(spec, s=(n, n, n), axes=(0, 1, 2))


def ref_grad3(arr):
    n = arr.shape[0]
    spec = ref_rfft3(arr)
    out = np.empty(arr.shape + (3,))
    for a, k in enumerate(ref_wavenumbers3(n)):
        mult = k.reshape(k.shape + (1,) * (arr.ndim - 3))
        out[..., a] = ref_irfft3(1j * mult * spec, n)
    return out


def ref_div3(vec):
    n = vec.shape[0]
    total = None
    scale = 0.0
    for axis, k in enumerate(ref_wavenumbers3(n)):
        term = ref_irfft3(1j * k * ref_rfft3(vec[..., axis]), n)
        scale = max(scale, float(np.abs(term).max()))
        total = term if total is None else total + term
    return total, scale


def ref_div3_tensor(tens):
    return np.stack([ref_div3(tens[..., i, :])[0] for i in range(3)], axis=-1)


def ref_curl3(vec):
    n = vec.shape[0]
    k1, k2, k3 = ref_wavenumbers3(n)
    spec = ref_rfft3(vec)
    out = np.empty_like(spec)
    out[..., 0] = 1j * (k2 * spec[..., 2] - k3 * spec[..., 1])
    out[..., 1] = 1j * (k3 * spec[..., 0] - k1 * spec[..., 2])
    out[..., 2] = 1j * (k1 * spec[..., 1] - k2 * spec[..., 0])
    return ref_irfft3(out, n)


def ref_curl_curl3(vec):
    n = vec.shape[0]
    k1, k2, k3 = ref_wavenumbers3(n)
    spec = ref_rfft3(vec)
    kdotv = k1 * spec[..., 0] + k2 * spec[..., 1] + k3 * spec[..., 2]
    ksq = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
    out = np.empty_like(spec)
    for axis, k in enumerate((k1, k2, k3)):
        out[..., axis] = ksq * spec[..., axis] - k * kdotv
    return ref_irfft3(out, n)


def ref_p_neq0(f):
    spec = to_spectral(f.data, f.grid)
    spec[:, 0, 0, 0, ...] = 0.0
    return Field(to_physical(spec, f.grid), f.grid, _take=True)


def ref_profile_square(bs, j):
    return (bs.profile_slice("shear", j)
            * bs.profile_slice("concentration", j)) ** 2


def ref_families(amps, blocks):
    return {family: [(i, fr, blocks[fr.name])
                     for i, fr in enumerate(amps.frames(family))]
            for family in ("magnetic", "velocity")}


def ref_mean_matrices(amps, blocks):
    """The module's measured moment tables by frame name: the balances
    close only with the matrices the correctors consume (TestMoments checks
    the tables against explicit means)."""
    m_vel, m_mag = {}, {}
    for family, table in pt._moment_tables(amps, blocks):
        for fr, rows in zip(amps.frames(family), table):
            m_vel[fr.name], m_mag[fr.name] = rows[:3], rows[3:]
    return m_vel, m_mag


def ref_gate(report, tol, keys=None):
    """For each key (by default every residual), its raw tolerance."""
    if keys is None:
        keys = [k for k in report if not k.endswith("_tolerance")]
    for key in keys:
        report[f"{key}_tolerance"] = tol
    return report


def ref_principal(amps, blocks, g):
    grid = amps.grid
    w = np.zeros(grid.shape + (3,))
    d = np.zeros(grid.shape + (3,))
    for j in range(grid.n_t):
        if g[j] == 0.0:
            continue
        for family, triples in ref_families(amps, blocks).items():
            if amps.cutoff(family)[j] == 0.0:
                continue
            amp = np.sqrt(amps.squared_slice(family, j))
            for i, fr, bs in triples:
                coef = (g[j] * amp[..., i])[..., None]
                w[j] += coef * bs.flow_slice("velocity", j)
                if family == "magnetic":
                    d[j] += coef * bs.flow_slice("magnetic", j)
    return w, d


def ref_incompressibility(amps, blocks, g):
    grid = amps.grid
    w_p, d_p = ref_principal(amps, blocks, g)
    w_c, d_c = np.zeros_like(w_p), np.zeros_like(d_p)
    for j in range(grid.n_t):
        pot_w = np.zeros(grid.shape[1:] + (3,))
        pot_d = np.zeros(grid.shape[1:] + (3,))
        for family, triples in ref_families(amps, blocks).items():
            if amps.cutoff(family)[j] == 0.0:
                continue
            amp = np.sqrt(amps.squared_slice(family, j))
            for i, fr, bs in triples:
                coef = (g[j] * amp[..., i])[..., None]
                pot_w += coef * bs.flow_slice("velocity_potential", j)
                if family == "magnetic":
                    pot_d += coef * bs.flow_slice("magnetic_potential", j)
        w_c[j] = ref_curl_curl3(pot_w) - w_p[j]
        d_c[j] = ref_curl_curl3(pot_d) - d_p[j]
    return w_c, d_c


def ref_temporal_t(amps, blocks, g, mu):
    grid = amps.grid
    acc_w = np.zeros(grid.shape + (3,))
    acc_d = np.zeros(grid.shape + (3,))
    for j in range(grid.n_t):
        if g[j] == 0.0:
            continue
        for family, triples in ref_families(amps, blocks).items():
            if amps.cutoff(family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            for i, fr, bs in triples:
                charge = (g[j] ** 2 * a2[..., i]
                          * ref_profile_square(bs, j))[..., None]
                acc_w[j] += charge * fr.k1
                if family == "magnetic":
                    acc_d[j] += charge * fr.k2
    return tuple(((-1.0 / mu) * leray(ref_p_neq0(Field(acc, grid)))).data
                 for acc in (acc_w, acc_d))


def ref_temporal_o(amps, blocks, h, sigma):
    grid = amps.grid
    m_vel, m_mag = ref_mean_matrices(amps, blocks)
    acc_w = np.zeros(grid.shape + (3,))
    acc_d = np.zeros(grid.shape + (3,))
    for j in range(grid.n_t):
        if h[j] == 0.0:
            continue
        for family in ("velocity", "magnetic"):
            if amps.cutoff(family)[j] == 0.0:
                continue
            grads = ref_grad3(amps.squared_slice(family, j))
            for i, fr in enumerate(amps.frames(family)):
                ga2 = grads[..., i, :]
                acc_w[j] += h[j] * np.einsum("ab,...b->...a",
                                             m_vel[fr.name], ga2)
                if family == "magnetic":
                    acc_d[j] += h[j] * np.einsum("ab,...b->...a",
                                                 m_mag[fr.name], ga2)
    return tuple(((-1.0 / sigma) * leray(ref_p_neq0(Field(acc, grid)))).data
                 for acc in (acc_w, acc_d))


def ref_nyquist_share(vec):
    """The largest k_a = n/2 coefficient of an FFT along any axis a, over
    n and the peak of vec."""
    n = vec.shape[0]
    content = max(float(np.abs(np.take(np.fft.fft(vec, axis=a), n // 2,
                                       axis=a)).max()) for a in range(3))
    return content / n / float(np.abs(vec).max())


def ref_divfree(amps, blocks, g, w_p, w_c, d_p, d_c, tol=1e-7, div_tol=1e-8):
    grid = amps.grid
    report = {"velocity_representation": 0.0, "magnetic_representation": 0.0,
              "velocity_divergence": 0.0, "magnetic_divergence": 0.0,
              "velocity_nyquist_share": 0.0, "magnetic_nyquist_share": 0.0}
    for j in range(grid.n_t):
        wsum = w_p[j] + w_c[j]
        dsum = d_p[j] + d_c[j]
        for side, vec in (("velocity", wsum), ("magnetic", dsum)):
            div, scale = ref_div3(vec)
            key = f"{side}_divergence"
            if scale > 0.0:
                report[key] = max(report[key],
                                  float(np.abs(div).max()) / scale)
            key = f"{side}_nyquist_share"
            if np.abs(vec).max() > 0.0:
                report[key] = max(report[key], ref_nyquist_share(vec))
        if g[j] == 0.0:
            continue
        pot_w = np.zeros(grid.shape[1:] + (3,))
        pot_d = np.zeros(grid.shape[1:] + (3,))
        for family, triples in ref_families(amps, blocks).items():
            if amps.cutoff(family)[j] == 0.0:
                continue
            amp = np.sqrt(amps.squared_slice(family, j))
            for i, fr, bs in triples:
                coef = (g[j] * amp[..., i])[..., None]
                pot_w += coef * bs.flow_slice("velocity_potential", j)
                if family == "magnetic":
                    pot_d += coef * bs.flow_slice("magnetic_potential", j)
        for key, lhs, pot in (("velocity_representation", wsum, pot_w),
                              ("magnetic_representation", dsum, pot_d)):
            rhs = ref_curl_curl3(pot)
            scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()),
                        amps.delta_next)
            report[key] = max(report[key],
                              float(np.abs(lhs - rhs).max()) / scale)
    ref_gate(report, tol, ("velocity_representation",
                           "magnetic_representation"))
    return ref_gate(report, div_tol, ("velocity_divergence",
                                      "magnetic_divergence"))


def ref_temporal_balance(amps, blocks, g, mu, w_t, d_t, tol=1e-6):
    grid = amps.grid
    families = ref_families(amps, blocks)
    shape_v = grid.shape + (3,)
    acc = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    osc = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    drift = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    for j in range(grid.n_t):
        if g[j] == 0.0:
            continue
        g2 = g[j] ** 2
        tens_v = np.zeros(grid.shape[1:] + (3, 3))
        tens_m = np.zeros(grid.shape[1:] + (3, 3))
        for family, triples in families.items():
            if amps.cutoff(family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            grads = ref_grad3(a2)
            for i, fr, bs in triples:
                flow_w = bs.flow_slice("velocity", j)
                charge = (g2 * a2[..., i] * ref_profile_square(bs, j))[..., None]
                acc["velocity"][j] += charge * fr.k1
                prod_v = np.einsum("...a,...b->...ab", flow_w, flow_w)
                if family == "magnetic":
                    flow_d = bs.flow_slice("magnetic", j)
                    acc["magnetic"][j] += charge * fr.k2
                    prod_v = prod_v - np.einsum("...a,...b->...ab",
                                                flow_d, flow_d)
                    prod_m = np.einsum("...a,...b->...ab", flow_d, flow_w)
                    prod_m = prod_m - np.swapaxes(prod_m, -1, -2)
                    tens_m += a2[..., i, None, None] * prod_m
                    drift["magnetic"][j] += g2 * np.einsum(
                        "...ab,...b->...a", prod_m, grads[..., i, :])
                tens_v += a2[..., i, None, None] * prod_v
                drift["velocity"][j] += g2 * np.einsum(
                    "...ab,...b->...a", prod_v, grads[..., i, :])
        osc["velocity"][j] = g2 * ref_div3_tensor(tens_v)
        osc["magnetic"][j] = g2 * ref_div3_tensor(tens_m)
    for family, triples in families.items():
        for i, fr, bs in triples:
            q = np.empty(grid.shape)
            for j in range(grid.n_t):
                q[j] = g[j] ** 2 * amps.squared_component_slice(family, i, j)
            dq = ddt(Field(q, grid)).data
            for j in range(grid.n_t):
                pulled = (ref_profile_square(bs, j) * dq[j])[..., None] / mu
                drift["velocity"][j] -= pulled * fr.k1
                if family == "magnetic":
                    drift["magnetic"][j] -= pulled * fr.k2
    report = {}
    for side, part in (("velocity", w_t), ("magnetic", d_t)):
        charge = ref_p_neq0(ddt(Field(acc[side], grid)))
        pressure = (1.0 / mu) * (charge - leray(charge))
        evolution = ddt(Field(part, grid))
        transport = ref_p_neq0(Field(osc[side], grid))
        transfer = ref_p_neq0(Field(drift[side], grid))
        resid = (evolution.data + transport.data
                 - pressure.data - transfer.data)
        scale = max(evolution.max_abs(), transport.max_abs(),
                    pressure.max_abs(), transfer.max_abs(), amps.delta_next)
        report[f"{side}_temporal_balance"] = float(np.abs(resid).max()) / scale
    return ref_gate(report, tol)


def ref_low_frequency_balance(amps, blocks, h, sigma, g, w_o, d_o, tol=1e-6):
    grid = amps.grid
    m_vel, m_mag = ref_mean_matrices(amps, blocks)
    shape_v = grid.shape + (3,)
    residue = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    wander = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    g2m1 = g ** 2 - 1.0
    for j in range(grid.n_t):
        for family in ("velocity", "magnetic"):
            if amps.cutoff(family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            grads = ref_grad3(a2)
            for i, fr in enumerate(amps.frames(family)):
                ga2 = grads[..., i, :]
                residue["velocity"][j] += g2m1[j] * np.einsum(
                    "ab,...b->...a", m_vel[fr.name], ga2)
                if family == "magnetic":
                    residue["magnetic"][j] += g2m1[j] * np.einsum(
                        "ab,...b->...a", m_mag[fr.name], ga2)
    for family in ("velocity", "magnetic"):
        for i, fr in enumerate(amps.frames(family)):
            q = np.empty(grid.shape)
            for j in range(grid.n_t):
                q[j] = amps.squared_component_slice(family, i, j)
            dq = ddt(Field(q, grid)).data
            for j in range(grid.n_t):
                if h[j] == 0.0:
                    continue
                gdq = ref_grad3(dq[j])
                wander["velocity"][j] += h[j] * np.einsum(
                    "ab,...b->...a", m_vel[fr.name], gdq)
                if family == "magnetic":
                    wander["magnetic"][j] += h[j] * np.einsum(
                        "ab,...b->...a", m_mag[fr.name], gdq)
    report = {}
    for side, part in (("velocity", w_o), ("magnetic", d_o)):
        evolution = ddt(Field(part, grid))
        res = ref_p_neq0(Field(residue[side], grid))
        pressure = res - leray(res)
        transfer = (-1.0 / sigma) * leray(ref_p_neq0(Field(wander[side], grid)))
        resid = evolution.data + res.data - pressure.data - transfer.data
        scale = max(evolution.max_abs(), res.max_abs(), pressure.max_abs(),
                    transfer.max_abs(), amps.delta_next)
        report[f"{side}_low_frequency_balance"] = \
            float(np.abs(resid).max()) / scale
    return ref_gate(report, tol)


# -- fixtures ----------------------------------------------------------------------

PART_NAMES = ("w_p", "d_p", "w_c", "d_c", "w_t", "d_t", "w_o", "d_o")


# a smooth window over slices 5-8, so the other slices carry no stress
WINDOW = np.zeros(16)
WINDOW[5:9] = np.sin(np.pi * np.arange(1, 5) / 5) ** 2


@pytest.fixture(scope="module")
def geom():
    return build_geometry()


@pytest.fixture(scope="module")
def temporal():
    return make_temporal(BumpTrain(m0=2), tau=1, sigma=1, n_t=16)


def _build(geom, temporal, window=None, ell=0.7):
    """The smallest grid the blocks accept at n_conc_harmonics=1, random
    admissible stresses, optionally confined to a window of time slices,
    and amplitudes whose cutoffs smooth the support at scale ell."""
    grid = Grid4(16, 38)
    rng = np.random.default_rng(11)
    r_u, r_b = stress_pair(grid, rng)
    if window is not None:
        r_u = Field(r_u.data * window[:, None, None, None, None, None], grid)
        r_b = Field(r_b.data * window[:, None, None, None, None, None], grid)
    amps = build_amplitudes(r_u, r_b, 0.25, geom, grid, ell=ell)
    params = BlockParams(lam=1, mu=MU, n_conc_harmonics=1)
    base = make_spatial_profiles()
    blocks = {fr.name: sample_blocks(fr, params, grid, base)
              for fr in geom.lambda_b + geom.lambda_u}
    t = grid.t()
    g, h = temporal.g(t), temporal.h(t)
    sigma = float(temporal.sigma)
    parts = dict(zip(("w_p", "d_p"), pt.principal_parts(amps, blocks, g)))
    parts.update(zip(("w_c", "d_c"), pt.incompressibility_correctors(
        amps, blocks, g, check=False)))
    parts.update(zip(("w_t", "d_t"), pt.temporal_correctors_t(
        amps, blocks, g, MU, check=False)))
    parts.update(zip(("w_o", "d_o"), pt.temporal_correctors_o(
        amps, blocks, h, sigma, check=False)))
    return amps, blocks, g, h, sigma, parts


@pytest.fixture(scope="module")
def built(geom, temporal):
    return _build(geom, temporal)


@pytest.fixture(scope="module")
def windowed(geom, temporal):
    return _build(geom, temporal, WINDOW)


# at ell 0.7 the cutoffs of 16 slices take no smoothing tap, so they are
# exactly 0 or 1; at 1.8 one tap each side ramps them through 0.038 and
# 0.962, the values 32 slices take at ell 0.9
RAMP_ELL = 1.8


@pytest.fixture(scope="module")
def ramped(geom, temporal):
    return _build(geom, temporal, WINDOW, ell=RAMP_ELL)


def _reference_parts(amps, blocks, g, h, sigma):
    out = dict(zip(("w_p", "d_p"), ref_principal(amps, blocks, g)))
    out.update(zip(("w_c", "d_c"), ref_incompressibility(amps, blocks, g)))
    out.update(zip(("w_t", "d_t"), ref_temporal_t(amps, blocks, g, MU)))
    out.update(zip(("w_o", "d_o"), ref_temporal_o(amps, blocks, h, sigma)))
    return out


@pytest.fixture(scope="module")
def reference_parts(built):
    return _reference_parts(*built[:5])


def rel_max(a, b):
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-300)


def assert_reports_match(got, want):
    assert set(got) == set(want)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-10, abs=1e-14), key


# -- builders ----------------------------------------------------------------------

class TestBuilders:
    @pytest.mark.parametrize("name", PART_NAMES)
    def test_part_matches_per_frame_reference(self, built, reference_parts,
                                              name):
        got = built[-1][name].data
        want = reference_parts[name]
        assert np.abs(want).max() > 0.0
        assert rel_max(got, want) <= 1e-12

    def test_parts_vanish_where_both_cutoffs_vanish(self, windowed):
        amps, _, _, _, _, parts = windowed
        idle = (amps.f_u == 0.0) & (amps.f_b == 0.0)
        assert idle.sum() >= 4
        for name, part in parts.items():
            assert np.abs(part.data[~idle]).max() > 0.0, name
            assert np.all(part.data[idle] == 0.0), name

    def test_block_sets_validated(self, built):
        amps, blocks, g, _, _, _ = built
        partial = dict(blocks)
        del partial["u2"]
        with pytest.raises(ValueError, match="u2"):
            pt.principal_parts(amps, partial, g)
        swapped = dict(blocks)
        swapped["u2"] = blocks["u3"]
        with pytest.raises(ValueError, match="sampled for frame"):
            pt.incompressibility_correctors(amps, swapped, g, check=False)

    def test_missing_profile_raises_before_any_work(self, built,
                                                    monkeypatch):
        # checking needs g; the builder says so before it measures moments
        amps, blocks, _, h, sigma, _ = built

        def fail(*args):
            raise AssertionError("moment tables built before the check")

        monkeypatch.setattr(pt, "_moment_tables", fail)
        with pytest.raises(ValueError, match="needs the oscillation profile g"):
            pt.temporal_correctors_o(amps, blocks, h, sigma)

    @pytest.mark.parametrize("name", ["temporal_correctors_t",
                                      "verify_temporal_balance"])
    def test_wrong_transport_rate_raises_before_any_work(self, built, name,
                                                         monkeypatch):
        # the blocks were sampled at MU; a corrector or balance at another
        # rate is refused by name, not left to show up as a residual
        amps, blocks, g, _, _, parts = built

        def fail(*args):
            raise AssertionError("slice work started before the rate check")

        monkeypatch.setattr(pt, "map_slices", fail)
        args = {"temporal_correctors_t": (),
                "verify_temporal_balance": (parts["w_t"], parts["d_t"])}[name]
        with pytest.raises(ValueError, match="sampled at transport rate"):
            getattr(pt, name)(amps, blocks, g, 2 * MU, *args)

    def test_broken_magnetic_positivity_raises_from_the_builders(self,
                                                                 built):
        # the velocity squares carry G_B without forming the magnetic
        # squares; the magnetic family's own squares still raise
        amps, blocks, g, h, sigma, _ = built
        bad = next(j for j in range(amps.grid.n_t)
                   if g[j] != 0.0 and h[j] != 0.0 and amps.f_b[j] != 0.0)
        rho = amps.rho_b.data.copy()
        rho[bad] = -1e3
        broken = replaced(amps, rho_b=Field(rho, amps.grid))
        builders = (
            lambda: pt.principal_parts(broken, blocks, g),
            lambda: pt.incompressibility_correctors(broken, blocks, g,
                                                    check=False),
            lambda: pt.temporal_correctors_t(broken, blocks, g, MU,
                                             check=False),
            lambda: pt.temporal_correctors_o(broken, blocks, h, sigma,
                                             check=False))
        for build in builders:
            with pytest.raises(ConstructionError,
                               match=f"^magnetic amplitude square on "
                                     f"slice {bad} is not finite or not "
                                     "positive$"):
                build()


# -- verifiers ---------------------------------------------------------------------

class TestFractionalCutoffs:
    """Builders and the cancellation check where a cutoff lies strictly
    between 0 and 1: there every square is scaled by the cutoff squared."""

    @staticmethod
    def _ramp(amps, family):
        cutoff = amps.cutoff(family)
        ramp = np.flatnonzero((cutoff > 0.0) & (cutoff < 1.0))
        assert len(ramp) == 4 and cutoff[ramp].min() < 0.05, cutoff
        return ramp

    @pytest.mark.parametrize("family,name", [("magnetic", "f_b"),
                                             ("velocity", "f_u")])
    def test_squares_scale_by_the_squared_cutoff(self, ramped, family, name):
        amps = ramped[0]
        whole = replaced(amps, **{name: np.ones(amps.grid.n_t)})
        for j in self._ramp(amps, family):
            f = amps.cutoff(family)[j]
            assert np.array_equal(amps.squared_slice(family, j),
                                  whole.squared_slice(family, j) * f ** 2)

    def test_cancellation_holds(self, ramped):
        amps, blocks = ramped[:2]
        report = verify_cancellation(amps, blocks)
        for key in ("moment_defect", "magnetic", "velocity"):
            assert report[key] <= 1e-10, key

    @pytest.fixture(scope="class")
    def ramped_reference(self, ramped):
        return _reference_parts(*ramped[:5])

    @pytest.mark.parametrize("name", PART_NAMES)
    def test_part_matches_per_frame_reference(self, ramped, ramped_reference,
                                              name):
        amps, parts = ramped[0], ramped[-1]
        got, want = parts[name].data, ramped_reference[name]
        ramp = self._ramp(amps, "velocity")
        assert np.abs(want[ramp]).max() > 0.0
        assert rel_max(got, want) <= 1e-12


class TestMoments:
    def test_tables_are_the_mean_flow_products(self, built):
        """Each frame's row of the moment tables is the grid mean of its
        sampled flow products at slice 0, W (x) W - D (x) D and
        D (x) W - W (x) D, with D = 0 on velocity frames."""
        amps, blocks = built[:2]
        tables = dict(pt._moment_tables(amps, blocks))
        assert list(tables) == ["velocity", "magnetic"]
        for family, table in tables.items():
            assert table.shape == (6, 6, 3)
            for fr, rows in zip(amps.frames(family), table):
                w = blocks[fr.name].flow_slice("velocity", 0)
                d = (blocks[fr.name].flow_slice("magnetic", 0)
                     if family == "magnetic" else np.zeros_like(w))

                def mean(a, b):
                    return np.einsum("xyza,xyzb->ab", a, b) / w[..., 0].size

                want = np.concatenate([mean(w, w) - mean(d, d),
                                       mean(d, w) - mean(w, d)])
                assert rel_max(rows, want) < 1e-12, fr.name

    def test_tables_are_measured_once_per_block_set(self, built,
                                                    monkeypatch):
        """Each block set measures its table once: a second call samples
        no flow, and both calls give, bit for bit, the Gram matrix of the
        set's carried flows stacked as one (n^3, 6) array on the slice
        pool, magnetic columns zero on velocity frames."""
        amps, blocks = built[:2]
        base = make_spatial_profiles()
        fresh = {name: sample_blocks(bs.frame, bs.params, bs.grid, base)
                 for name, bs in blocks.items()}
        kinds = []
        flow_slice = BlockSet.flow_slice

        def counted(self, kind, j):
            kinds.append(kind)
            return flow_slice(self, kind, j)

        monkeypatch.setattr(BlockSet, "flow_slice", counted)
        first = pt._moment_tables(amps, fresh)
        assert sorted(kinds) == ["magnetic"] * 6 + ["velocity"] * 12
        kinds.clear()
        second = pt._moment_tables(amps, fresh)
        assert kinds == []
        frames = [(family, fresh[fr.name]) for family in ("velocity",
                                                          "magnetic")
                  for fr in amps.frames(family)]

        def means(i):
            family, bs = frames[i]
            flows = np.zeros((amps.grid.n_x ** 3, 2, 3))
            flows[:, 0] = flow_slice(bs, "velocity", 0).reshape(-1, 3)
            if family == "magnetic":
                flows[:, 1] = flow_slice(bs, "magnetic", 0).reshape(-1, 3)
            flows = flows.reshape(-1, 6)
            return moment_products(flows.T @ flows / len(flows))

        want = map_slices(means, range(len(frames)))
        for tables in (first, second):
            assert [family for family, _ in tables] == ["velocity",
                                                        "magnetic"]
            got = [rows for _, table in tables for rows in table]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def passing_tol(report, keys):
    return 2.0 * max(report[k] for k in keys)


class TestVerifiers:
    def test_divfree_representation_report(self, built, reference_parts):
        amps, blocks, g, _, _, parts = built
        names = ("w_p", "w_c", "d_p", "d_c")
        want = ref_divfree(amps, blocks, g, *(reference_parts[k]
                                              for k in names))
        tol = passing_tol(want, ("velocity_representation",
                                 "magnetic_representation"))
        div_tol = passing_tol(want, ("velocity_divergence",
                                     "magnetic_divergence"))
        ref_gate(want, tol,
                 ("velocity_representation", "magnetic_representation"))
        ref_gate(want, div_tol, ("velocity_divergence", "magnetic_divergence"))
        got = pt.verify_divfree_representation(
            amps, blocks, g, *(parts[k] for k in names), tol=tol,
            div_tol=div_tol)
        assert_reports_match(got, want)
        # a w_c slice off by half of itself must be caught and reported
        # as the reference reports it
        inf = float("inf")
        j = next(j for j in range(amps.grid.n_t)
                 if g[j] != 0.0 and amps.f_u[j] != 0.0)
        ref_w_c = reference_parts["w_c"].copy()
        ref_w_c[j] *= 1.5
        w_c = parts["w_c"].data.copy()
        w_c[j] *= 1.5
        w_c = Field(w_c, amps.grid, _take=True)
        want = ref_divfree(amps, blocks, g, reference_parts["w_p"], ref_w_c,
                           reference_parts["d_p"], reference_parts["d_c"],
                           tol=inf, div_tol=inf)
        got = pt.verify_divfree_representation(
            amps, blocks, g, parts["w_p"], w_c, parts["d_p"], parts["d_c"],
            tol=inf, div_tol=inf)
        assert_reports_match(got, want)
        worst = want["velocity_representation"]
        with pytest.raises(pt.CorrectorIdentityError,
                           match="velocity double-curl representation"):
            pt.verify_divfree_representation(
                amps, blocks, g, parts["w_p"], w_c, parts["d_p"],
                parts["d_c"], tol=worst / 2, div_tol=inf)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_representation_is_exact_on_generic_inputs(self, built, threads,
                                                       monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", threads)
        amps, blocks, g, _, _, _ = built
        w_p, d_p = pt.principal_parts(amps, blocks, g)
        w_c, d_c = pt.incompressibility_correctors(amps, blocks, g,
                                                   check=False)
        inf = float("inf")
        report = pt.verify_divfree_representation(
            amps, blocks, g, w_p, w_c, d_p, d_c, tol=inf, div_tol=inf)
        assert report["velocity_representation"] <= 1e-13
        assert report["magnetic_representation"] <= 1e-13

    def test_divergence_vanishes_on_every_plane(self, built):
        # curl curl is divergence-free mode by mode, the planes |k_a| = n/2
        # included: the derivative multipliers vanish there, as the slope
        # of cos(n x_a / 2) does at the grid points. The sums do carry
        # content on those planes, so the zero is not for want of it
        amps, _, g, _, _, parts = built
        div_max = share = 0.0
        for j in range(amps.grid.n_t):
            if g[j] == 0.0:
                continue
            for p, c in (("w_p", "w_c"), ("d_p", "d_c")):
                total = parts[p].data[j] + parts[c].data[j]
                div, scale = ref_div3(total)
                div_max = max(div_max, float(np.abs(div).max()) / scale)
                share = max(share, ref_nyquist_share(total))
        assert share > 1e-3
        assert div_max <= 1e-13

    def test_temporal_balance_report(self, built, reference_parts):
        amps, blocks, g, _, _, parts = built
        want = ref_temporal_balance(amps, blocks, g, MU,
                                    reference_parts["w_t"],
                                    reference_parts["d_t"])
        tol = passing_tol(want, ("velocity_temporal_balance",
                                 "magnetic_temporal_balance"))
        got = pt.verify_temporal_balance(amps, blocks, g, MU, parts["w_t"],
                                         parts["d_t"], tol=tol)
        assert_reports_match(got, ref_gate(want, tol))

    def test_low_frequency_balance_report(self, built, reference_parts):
        amps, blocks, g, h, sigma, parts = built
        want = ref_low_frequency_balance(
            amps, blocks, h, sigma, g, reference_parts["w_o"],
            reference_parts["d_o"])
        tol = passing_tol(want, ("velocity_low_frequency_balance",
                                 "magnetic_low_frequency_balance"))
        got = pt.verify_low_frequency_balance(
            amps, blocks, h, sigma, g, parts["w_o"], parts["d_o"], tol=tol)
        assert_reports_match(got, ref_gate(want, tol))


    @pytest.mark.parametrize("name", ["divfree_representation",
                                      "temporal_balance",
                                      "low_frequency_balance"])
    def test_gates_at_the_raw_tolerance(self, built, name):
        # every gated residual's tolerance is the one the caller passed,
        # far below the residuals' scale here, and no tail is measured
        amps, blocks, g, h, sigma, parts = built
        verify = {
            "divfree_representation":
                lambda tol: pt.verify_divfree_representation(
                    amps, blocks, g, parts["w_p"], parts["w_c"],
                    parts["d_p"], parts["d_c"], tol=tol, div_tol=tol),
            "temporal_balance": lambda tol: pt.verify_temporal_balance(
                amps, blocks, g, MU, parts["w_t"], parts["d_t"], tol=tol),
            "low_frequency_balance":
                lambda tol: pt.verify_low_frequency_balance(
                    amps, blocks, h, sigma, g, parts["w_o"], parts["d_o"],
                    tol=tol),
        }[name]
        report = verify(float("inf"))
        gated = [key for key in report if key.startswith(("velocity_",
                                                          "magnetic_"))
                 and not key.endswith(("_tolerance", "_share"))]
        assert len(gated) == (4 if name == "divfree_representation" else 2)
        tol = 2.0 * max(report[key] for key in gated)
        report = verify(tol)
        assert "amplitude_tail" not in report
        assert {key: report[f"{key}_tolerance"] for key in gated} == \
            dict.fromkeys(gated, tol)


class TestWindowedVerifiers:
    """The balance verifiers on stresses confined to WINDOW: on the slices
    outside it g is nonzero but no family is active, so the oscillation
    transport and every other term group of the slice are zero. Each report
    matches the per-frame reference and is the same, bit for bit, on one
    pool thread and on two."""

    def _reports(self, verify, monkeypatch):
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            reports.append(verify())
        serial, pooled = reports
        assert pooled == serial
        return serial

    def test_temporal_balance_report(self, windowed, monkeypatch):
        amps, blocks, g, _, _, parts = windowed
        idle = (amps.f_u == 0.0) & (amps.f_b == 0.0)
        assert idle.sum() >= 4 and np.all(g[idle] != 0.0)
        w_t, d_t = ref_temporal_t(amps, blocks, g, MU)
        want = ref_temporal_balance(amps, blocks, g, MU, w_t, d_t)
        tol = passing_tol(want, ("velocity_temporal_balance",
                                 "magnetic_temporal_balance"))
        got = self._reports(lambda: pt.verify_temporal_balance(
            amps, blocks, g, MU, parts["w_t"], parts["d_t"], tol=tol),
            monkeypatch)
        assert_reports_match(got, ref_gate(want, tol))

    def test_low_frequency_balance_report(self, windowed, monkeypatch):
        amps, blocks, g, h, sigma, parts = windowed
        w_o, d_o = ref_temporal_o(amps, blocks, h, sigma)
        want = ref_low_frequency_balance(amps, blocks, h, sigma, g, w_o, d_o)
        tol = passing_tol(want, ("velocity_low_frequency_balance",
                                 "magnetic_low_frequency_balance"))
        got = self._reports(lambda: pt.verify_low_frequency_balance(
            amps, blocks, h, sigma, g, parts["w_o"], parts["d_o"], tol=tol),
            monkeypatch)
        assert_reports_match(got, ref_gate(want, tol))


def _with_nan(part, j):
    """A copy of part with one NaN entry on slice j."""
    data = part.data.copy()
    data[j, 1, 2, 3, 0] = np.nan
    return Field(data, part.grid, _take=True)


class TestNonFiniteParts:
    """A NaN residual never passes a gate: every comparison with NaN is
    false, so each gate raises unless its value is within tolerance."""

    SIDES = [("velocity", 0), ("magnetic", 1)]

    def _slice(self, built):
        g = built[2]
        return next(j for j in range(len(g)) if g[j] != 0.0)

    @pytest.mark.parametrize("side,s", SIDES)
    def test_nan_in_incompressibility_part(self, built, side, s):
        amps, blocks, g, _, _, parts = built
        names = ["w_p", "w_c", "d_p", "d_c"]
        args = [parts[k] for k in names]
        args[2 * s + 1] = _with_nan(args[2 * s + 1], self._slice(built))
        with pytest.raises(pt.CorrectorIdentityError,
                           match=f"^{side} double-curl .* residual nan"):
            pt.verify_divfree_representation(amps, blocks, g, *args, tol=1.0,
                                             div_tol=1.0)

    @pytest.mark.parametrize("side,s", SIDES)
    def test_nan_in_temporal_part(self, built, side, s):
        amps, blocks, g, _, _, parts = built
        args = [parts["w_t"], parts["d_t"]]
        args[s] = _with_nan(args[s], self._slice(built))
        with pytest.raises(pt.CorrectorIdentityError,
                           match=f"^{side} temporal .* residual nan"):
            pt.verify_temporal_balance(amps, blocks, g, MU, *args, tol=1.0)

    @pytest.mark.parametrize("side,s", SIDES)
    def test_nan_in_low_frequency_part(self, built, side, s):
        amps, blocks, g, h, sigma, parts = built
        args = [parts["w_o"], parts["d_o"]]
        args[s] = _with_nan(args[s], self._slice(built))
        with pytest.raises(pt.CorrectorIdentityError,
                           match=f"^{side} low-frequency .* residual nan"):
            pt.verify_low_frequency_balance(amps, blocks, h, sigma, g, *args,
                                            tol=1.0)

    @pytest.mark.parametrize("side,s", SIDES)
    def test_nan_in_a_total(self, built, side, s):
        amps, _, _, _, _, parts = built
        name = ("w_p", "d_o")[s]
        broken = dict(parts, **{name: _with_nan(parts[name],
                                                self._slice(built))})
        state = Field(np.zeros(amps.grid.shape + (3,)), amps.grid)
        with pytest.raises(pt.CorrectorIdentityError,
                           match=f"^{side} perturbation .* defect nan"):
            pt.assemble_iterate(state, state, pt.Perturbation(**broken), amps,
                                tol=1.0)


# -- assembly ----------------------------------------------------------------------

class TestPerturbation:
    def test_parts_are_vector_fields_on_one_grid(self, built):
        parts = built[-1]
        grid = parts["w_p"].grid
        coarse = Grid4(16, 16)
        with pytest.raises(ValueError, match="^perturbation part lives on a "
                                             "different grid$"):
            pt.Perturbation(**dict(parts, d_o=Field(
                np.zeros(coarse.shape + (3,)), coarse)))
        with pytest.raises(ValueError, match="^perturbation part must be a "
                                             "vector field$"):
            pt.Perturbation(**dict(parts, w_t=Field(np.zeros(grid.shape),
                                                    grid)))


def _state(grid, seed):
    """A band-limited mollified state pair (u_l, B_l)."""
    rng = np.random.default_rng(seed)
    return random_field(grid, rng, rank=1), random_field(grid, rng, rank=1)


class TestAssembleIterate:
    """The one slice pass of assemble_iterate against its whole-field form
    (oracles.assemble_iterate_whole_field), on every slice active (built)
    and on a window of them (windowed)."""

    @pytest.mark.parametrize("fixture", ["built", "windowed"])
    def test_matches_the_whole_field_form(self, fixture, request):
        amps, _, _, _, _, parts = request.getfixturevalue(fixture)
        u_l, b_l = _state(amps.grid, 3)
        pert = pt.Perturbation(**parts)
        got_u, got_b, got = pt.assemble_iterate(u_l, b_l, pert, amps)
        want_u, want_b, want = assemble_iterate_whole_field(u_l, b_l, pert,
                                                            amps)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-14, abs=1e-300), key
        assert got["velocity_divergence_defect"] <= 1e-14
        assert got["magnetic_divergence_defect"] <= 1e-14
        # the iterate is u_l + ((w_p + w_c) + w_t) + w_o, bit for bit
        assert got_u.data.tobytes() == want_u.data.tobytes()
        assert got_b.data.tobytes() == want_b.data.tobytes()

    def test_rejects_a_total_with_a_spatial_mean(self, built):
        amps, _, g, _, _, parts = built
        j = next(j for j in range(amps.grid.n_t) if g[j] != 0.0)
        w_t = parts["w_t"].data.copy()
        w_t[j] += 1e-3 * parts["w_p"].max_abs()  # no divergence, a mean
        pert = pt.Perturbation(**dict(parts, w_t=Field(w_t, amps.grid)))
        state = Field(np.zeros(amps.grid.shape + (3,)), amps.grid)
        messages = []
        for assemble in (pt.assemble_iterate, assemble_iterate_whole_field):
            with pytest.raises(pt.CorrectorIdentityError,
                               match="^velocity perturbation is not spatially "
                                     "mean-free: relative defect") as err:
                assemble(state, state, pert, amps)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_rejects_a_part_outside_the_dilated_support(self, windowed):
        # at ell = 0.1 the support grows by one slice to either side
        amps, _, _, _, _, parts = windowed
        narrow = replaced(amps, ell=0.1)
        outside = ~dilate_support(narrow.stress_support(), 1)
        state = Field(np.zeros(amps.grid.shape + (3,)), amps.grid)
        pt.assemble_iterate(state, state, pt.Perturbation(**parts), narrow)
        j = int(np.flatnonzero(outside)[0])
        d_o = parts["d_o"].data.copy()
        # sin(x2) e1 is divergence-free and mean-free
        d_o[j, ..., 0] += 1e-6 * np.sin(amps.grid.axes()[2][0])
        pert = pt.Perturbation(**dict(parts, d_o=Field(d_o, amps.grid)))
        with pytest.raises(pt.CorrectorIdentityError,
                           match="^magnetic perturbation leaks outside the "
                                 "dilated stress support"):
            pt.assemble_iterate(state, state, pert, narrow)

    @pytest.mark.parametrize("fixture", ["built", "windowed"])
    def test_pool_width_leaves_the_result_bitwise_unchanged(
            self, fixture, request, monkeypatch):
        amps, _, _, _, _, parts = request.getfixturevalue(fixture)
        u_l, b_l = _state(amps.grid, 4)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            runs.append(pt.assemble_iterate(u_l, b_l, pt.Perturbation(**parts),
                                            amps))
        (u_1, b_1, serial), (u_2, b_2, pooled) = runs
        assert list(pooled.items()) == list(serial.items())
        assert u_2.data.tobytes() == u_1.data.tobytes()
        assert b_2.data.tobytes() == b_1.data.tobytes()


def _verifier_peak(built, name):
    """Traced peak of one ungated balance verifier, in vector-field copies."""
    amps, blocks, g, h, sigma, parts = built
    inf = float("inf")
    if name == "temporal":
        call = (pt.verify_temporal_balance, amps, blocks, g, MU,
                parts["w_t"], parts["d_t"])
    else:
        call = (pt.verify_low_frequency_balance, amps, blocks, h, sigma,
                g, parts["w_o"], parts["d_o"])
    peak, _ = traced_peak(*call, tol=inf)
    return peak / parts["w_t"].data.nbytes


def _working_set(built, name):
    """Traced peak of one builder above its two output fields, or of the
    ungated divergence-free verifier, in vector time slices: what its
    slice kernels hold in flight. The block sets' index caches are warm,
    since `built` ran every builder."""
    amps, blocks, g, h, sigma, parts = built
    inf = float("inf")
    calls = {
        "principal_parts": (pt.principal_parts, amps, blocks, g),
        "incompressibility_correctors": (
            pt.incompressibility_correctors, amps, blocks, g, False),
        "temporal_correctors_t": (pt.temporal_correctors_t, amps, blocks, g,
                                  MU, False),
        "temporal_correctors_o": (pt.temporal_correctors_o, amps, blocks, h,
                                  sigma, None, False),
    }
    field = parts["w_t"].data.nbytes
    if name in calls:
        peak, _ = traced_peak(*calls[name])
        peak -= 2 * field
    else:
        peak, _ = traced_peak(pt.verify_divfree_representation, amps, blocks,
                              g, parts["w_p"], parts["w_c"], parts["d_p"],
                              parts["d_c"], tol=inf, div_tol=inf)
    return peak / (field // amps.grid.n_t)


@pytest.fixture(scope="module")
def verifier_peak(built):
    """_verifier_peak at a pool width, traced once per verifier and width."""
    peaks = {}

    def peak(name, threads):
        if (name, threads) not in peaks:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("CILAB_THREADS", threads)
                peaks[name, threads] = _verifier_peak(built, name)
        return peaks[name, threads]
    return peak


class TestVerifierMemory:
    """The balance verifiers stream their term groups slice by slice."""

    # peaks in vector-field copies, 20% over the measured 2.68 and 2.39:
    # the time derivatives are rows of D taken inside the slice residual,
    # the temporal balance forms its oscillation transport there too and
    # checks one side at a time, and every slice product is formed in the
    # buffers of the squares and of one component's spectrum. Whole-slice
    # spectra and products took 2.74 and 2.65 (budgets 3.3 and 3.2), both
    # sides at once 5.46, a stored transport 7.24, whole-field derivatives
    # 9.0 and 5.4, whole-field term groups 18.1 and 14.9. The budgets of
    # the whole-slice kernels, of both sides at once, 6.6, and of the
    # stored transport, 9.1 and 4.4, stay listed as the ceilings they met.
    @pytest.mark.parametrize("name,budget", [("temporal", 3.2),
                                             ("low_frequency", 2.9),
                                             ("temporal", 3.3),
                                             ("low_frequency", 3.2),
                                             ("temporal", 6.6),
                                             ("temporal", 9.1),
                                             ("low_frequency", 4.4)])
    def test_balance_verifier_peak(self, verifier_peak, name, budget):
        assert verifier_peak(name, "1") <= budget

    # two pool threads keep a second slice of temporaries in flight: 20%
    # over the 3.09 and 2.78 copies measured on two threads (whole-slice
    # kernels took 3.45 and 3.31, under budgets of 4.2 and 4.0; both sides
    # at once took 6.22 and a stored transport 8.30 for the temporal
    # balance, under their budgets of 7.5 and 12.1, and 6.9 for the
    # low-frequency one; all stay listed as ceilings)
    @pytest.mark.parametrize("name,budget", [("temporal", 3.7),
                                             ("low_frequency", 3.4),
                                             ("temporal", 4.2),
                                             ("low_frequency", 4.0),
                                             ("temporal", 7.5),
                                             ("temporal", 12.1),
                                             ("low_frequency", 6.9)])
    def test_balance_verifier_peak_on_two_threads(self, verifier_peak, name,
                                                  budget):
        assert verifier_peak(name, "2") <= budget

    # the second thread adds at most one slice of temporaries: 0.71 and
    # 0.65 copies measured, the bound 20% over the 0.77 the temporal
    # balance took with both sides at once
    @pytest.mark.parametrize("name", ["temporal", "low_frequency"])
    def test_second_thread_adds_one_slice_of_temporaries(self, verifier_peak,
                                                         name):
        assert verifier_peak(name, "2") - verifier_peak(name, "1") <= 0.92


class TestSliceWorkingSet:
    """Each builder's slice kernel and the divergence-free verifier form
    their products in the buffers of the squares, one spectrum side or
    component at a time, so a pool thread holds a few slices of
    temporaries and a second thread adds as many again."""

    # in vector time slices above the outputs (none for the verifier), 20%
    # over the measured values on one and two threads: 4.7 and 9.4
    # (principal parts), 8.0 and 16.0 (incompressibility), 18.2 and 20.5
    # (temporal, where the whole-field leray(p_neq0(.)) pass peaks), 6.2
    # and 12.4 (low-frequency), 7.7 and 15.4 (divergence-free verifier).
    # Whole-slice products and spectra took 8.7 and 17.4, 16.9 and 33.9,
    # 18.2 and 20.5, 10.4 and 20.9, 19.0 and 38.0.
    @pytest.mark.parametrize("name,threads,budget", [
        ("principal_parts", "1", 5.6), ("principal_parts", "2", 11.3),
        ("incompressibility_correctors", "1", 9.6),
        ("incompressibility_correctors", "2", 19.2),
        ("temporal_correctors_t", "1", 21.8),
        ("temporal_correctors_t", "2", 24.6),
        ("temporal_correctors_o", "1", 7.5),
        ("temporal_correctors_o", "2", 14.9),
        ("verify_divfree_representation", "1", 9.3),
        ("verify_divfree_representation", "2", 18.5),
    ])
    def test_working_set(self, built, monkeypatch, name, threads, budget):
        monkeypatch.setenv("CILAB_THREADS", threads)
        assert _working_set(built, name) <= budget


# -- the slice pool ------------------------------------------------------------------

def _checked(fn, *args, **kwargs):
    """A check's report, or the type and message of its rejection."""
    try:
        return fn(*args, **kwargs)
    except (pt.CorrectorIdentityError, CancellationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _whole_step(geom, temporal):
    """Parts, reports with every gate open, and the outcome of every check
    at its default tolerance, for the fixture's inputs."""
    amps, blocks, g, h, sigma, parts = _build(geom, temporal)
    state = Field(np.zeros(amps.grid.shape + (3,)), amps.grid)
    checks = {
        "cancellation": (verify_cancellation, amps, blocks, temporal),
        "divfree": (pt.verify_divfree_representation, amps, blocks, g,
                    parts["w_p"], parts["w_c"], parts["d_p"], parts["d_c"]),
        "temporal": (pt.verify_temporal_balance, amps, blocks, g, MU,
                     parts["w_t"], parts["d_t"]),
        "low_frequency": (pt.verify_low_frequency_balance, amps, blocks, h,
                          sigma, g, parts["w_o"], parts["d_o"]),
        "assemble": (lambda *a, **k: pt.assemble_iterate(*a, **k)[2], state,
                     state, pt.Perturbation(**parts), amps),
    }
    reports, outcomes = {}, {}
    for name, (fn, *args) in checks.items():
        gates = ("tol", "div_tol") if name == "divfree" else ("tol",)
        reports[name] = fn(*args, **dict.fromkeys(gates, float("inf")))
        outcome = _checked(fn, *args)
        outcomes[name] = outcome if isinstance(outcome, str) else "passed"
    return parts, reports, outcomes


class TestSlicePool:
    """CILAB_THREADS=1 is the serial loop; wider pools give its results."""

    def test_pool_width_leaves_results_unchanged(self, geom, temporal,
                                                 monkeypatch):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            runs.append(_whole_step(geom, temporal))
        (serial, serial_reports, serial_outcomes), (pooled, reports,
                                                    outcomes) = runs
        for name in PART_NAMES:
            assert rel_max(pooled[name].data, serial[name].data) <= 1e-14, name
        assert reports.keys() == serial_reports.keys()
        for name, want in serial_reports.items():
            assert list(reports[name]) == list(want), name
            for key, value in want.items():
                assert reports[name][key] == pytest.approx(
                    value, rel=1e-14, abs=1e-300), (name, key)
        assert outcomes == serial_outcomes

    def test_first_failing_slice_raises_at_any_width(self, built,
                                                     monkeypatch):
        amps, blocks, g, _, _, _ = built
        bad = [j for j in range(amps.grid.n_t) if g[j] != 0.0][2:6:3]
        rho = amps.rho_u.data.copy()
        rho[bad] = -1e3
        broken = replaced(amps, rho_u=Field(rho, amps.grid))
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            with pytest.raises(ConstructionError) as err:
                pt.principal_parts(broken, blocks, g)
            assert str(err.value) == (
                f"velocity amplitude square on slice {bad[0]} is not finite "
                "or not positive")


# -- operators ---------------------------------------------------------------------

class TestOperators:
    def test_slice_kernels_match_per_component(self):
        # each slice kernel of cilab.spectral on one slice against the
        # per-component references
        rng = np.random.default_rng(5)
        n = 16

        def check(kernel, arr, want, *args):
            assert rel_max(kernel(arr, *args), want) <= 1e-13

        def per_pair(ref, arr):
            return np.stack([ref(arr[..., s, :]) for s in range(2)], axis=-2)

        amp = rng.normal(size=(n, n, n, 6))
        grads = ref_grad3(amp)
        check(spectral.directional, amp, grads, np.eye(3)[:, None])
        frames = rng.normal(size=(2, 6, 3))
        want = np.stack([(grads * rows).sum(axis=-1) for rows in frames],
                        axis=-1)
        check(spectral.directional, amp, want, frames)
        tens = rng.normal(size=(n, n, n, 2, 3, 3))
        want = np.stack([np.stack([ref_div3(tens[..., s, i, :])[0]
                                   for i in range(3)], axis=-1)
                         for s in range(2)], axis=-2)
        check(spectral.div, tens, want)
        check(lambda a: spectral.div_terms(a).sum(axis=-1), tens, want)
        vec = tens[..., 0]
        check(spectral.curl, vec, per_pair(ref_curl3, vec))
        check(spectral.curl_curl, vec, per_pair(ref_curl_curl3, vec))

    def test_whole_field_forms_stack_their_slice_kernels(self, small_grid):
        # each whole-field form is its slice kernel run on every time slice
        # and stacked, bitwise; the skew inverse divergence writes
        # eps_ijk c_k of the Biot-Savart potential c, bitwise
        rng = np.random.default_rng(5)
        scalar = random_field(small_grid, rng)
        vec = random_field(small_grid, rng, rank=1)
        tens = random_field(small_grid, rng, rank=2)
        divfree = random_divfree(small_grid, rng)
        eye = np.eye(3)[:, None]
        potential = per_slice(spectral.curl, divfree.data,
                              inverse_laplacian=True)
        levi_civita = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            levi_civita[i, j, k], levi_civita[j, i, k] = 1.0, -1.0
        pairs = (
            (grad(scalar).data, per_slice(
                spectral.directional, scalar.data[..., None], eye)[..., 0, :]),
            (grad(vec).data, per_slice(spectral.directional, vec.data, eye)),
            (div_tensor(tens).data, per_slice(spectral.div, tens.data)),
            (leray(vec).data, per_slice(spectral.leray, vec.data)),
            (p_neq0(vec).data, per_slice(spectral.mean_free, vec.data)),
            (per_slice(spectral.inv_div_skew, divfree.data),
             np.einsum("ijk,...k->...ij", levi_civita, potential)),
        )
        for whole, stacked in pairs:
            assert np.array_equal(whole, stacked)

    def test_field_calculus_matches_per_component(self, small_grid):
        rng = np.random.default_rng(9)
        u = random_field(small_grid, rng, rank=1)
        r = random_field(small_grid, rng, rank=2)

        def d(data, a):
            f = Field(data, small_grid)
            return spectral_derivative(f, zeta=tuple(int(b == a)
                                                     for b in range(3))).data

        want = np.stack([d(u.data, a) for a in range(3)], axis=-1)
        assert rel_max(grad(u).data, want) <= 1e-13
        want = sum(d(u.data[..., a], a) for a in range(3))
        assert rel_max(per_slice(spectral.div, u.data), want) <= 1e-13
        want = np.stack([sum(d(r.data[..., i, a], a) for a in range(3))
                         for i in range(3)], axis=-1)
        assert rel_max(div_tensor(r).data, want) <= 1e-13
