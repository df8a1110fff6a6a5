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
    CancellationError, build_amplitudes, verify_cancellation,
)
from cilab.blocks import BlockParams, sample_blocks
from cilab.field import (
    Field, ddt, div_tensor, div_vec, grad, to_physical, to_spectral,
)
from cilab.geometry import ConstructionError, build_geometry
from cilab.grid import Grid4
from cilab.profiles import BumpTrain, make_spatial_profiles, make_temporal
from cilab.spectral_ops import leray

from conftest import random_field
from test_amplitudes import stress_pair
from test_spectral_ops import traced_peak

MU = 0.2


# -- per-frame reference ---------------------------------------------------------

def ref_wavenumbers3(n):
    kf = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    kh = np.arange(n // 2 + 1, dtype=np.int64)
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


def ref_gate(report, tol, tail, keys=None):
    """The tail and, for each key (by default every residual), its
    tail-scaled tolerance."""
    if keys is None:
        keys = [k for k in report if k != "amplitude_tail"
                and not k.endswith("_tolerance")]
    report["amplitude_tail"] = tail
    for key in keys:
        report[f"{key}_tolerance"] = max(tol, pt._TAIL_FACTOR * tail)
    return report


def ref_principal(amps, blocks, g):
    grid = amps.grid
    w = np.zeros(grid.shape + (3,))
    d = np.zeros(grid.shape + (3,))
    for j in range(grid.n_t):
        if g[j] == 0.0:
            continue
        for family, triples in ref_families(amps, blocks).items():
            if pt._cutoff(amps, family)[j] == 0.0:
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
            if pt._cutoff(amps, family)[j] == 0.0:
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
            if pt._cutoff(amps, family)[j] == 0.0:
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
            if pt._cutoff(amps, family)[j] == 0.0:
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


def ref_divfree(amps, blocks, g, w_p, w_c, d_p, d_c, tol=1e-7, div_tol=1e-8):
    grid = amps.grid
    report = {"velocity_representation": 0.0, "magnetic_representation": 0.0,
              "velocity_divergence": 0.0, "magnetic_divergence": 0.0}
    tail = 0.0
    for j in range(grid.n_t):
        wsum = w_p[j] + w_c[j]
        dsum = d_p[j] + d_c[j]
        for key, vec in (("velocity_divergence", wsum),
                         ("magnetic_divergence", dsum)):
            div, scale = ref_div3(vec)
            if scale > 0.0:
                report[key] = max(report[key],
                                  float(np.abs(div).max()) / scale)
        if g[j] == 0.0:
            continue
        pot_w = np.zeros(grid.shape[1:] + (3,))
        pot_d = np.zeros(grid.shape[1:] + (3,))
        for family, triples in ref_families(amps, blocks).items():
            if pt._cutoff(amps, family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            tail = max(tail, spectral.tail(a2.sum(axis=-1)))
            amp = np.sqrt(a2)
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
    ref_gate(report, tol, tail, ("velocity_representation",
                                 "magnetic_representation"))
    return ref_gate(report, div_tol, tail, ("velocity_divergence",
                                            "magnetic_divergence"))


def ref_temporal_balance(amps, blocks, g, mu, w_t, d_t, tol=1e-6):
    grid = amps.grid
    families = ref_families(amps, blocks)
    shape_v = grid.shape + (3,)
    acc = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    osc = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    drift = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    tail = 0.0
    for j in range(grid.n_t):
        if g[j] == 0.0:
            continue
        g2 = g[j] ** 2
        tens_v = np.zeros(grid.shape[1:] + (3, 3))
        tens_m = np.zeros(grid.shape[1:] + (3, 3))
        for family, triples in families.items():
            if pt._cutoff(amps, family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            tail = max(tail, spectral.tail(a2.sum(axis=-1)))
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
    return ref_gate(report, tol, tail)


def ref_low_frequency_balance(amps, blocks, h, sigma, g, w_o, d_o, tol=1e-6):
    grid = amps.grid
    m_vel, m_mag = ref_mean_matrices(amps, blocks)
    shape_v = grid.shape + (3,)
    residue = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    wander = {"velocity": np.zeros(shape_v), "magnetic": np.zeros(shape_v)}
    tail = 0.0
    g2m1 = g ** 2 - 1.0
    for j in range(grid.n_t):
        for family in ("velocity", "magnetic"):
            if pt._cutoff(amps, family)[j] == 0.0:
                continue
            a2 = amps.squared_slice(family, j)
            tail = max(tail, spectral.tail(a2.sum(axis=-1)))
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
    return ref_gate(report, tol, tail)


# -- fixtures ----------------------------------------------------------------------

PART_NAMES = ("w_p", "d_p", "w_c", "d_c", "w_t", "d_t", "w_o", "d_o")


@pytest.fixture(scope="module")
def geom():
    return build_geometry()


@pytest.fixture(scope="module")
def temporal():
    return make_temporal(BumpTrain(m0=2), tau=1, sigma=1, n_t=16)


def _build(geom, temporal, window=None):
    """The smallest grid the blocks accept at n_conc_harmonics=1, random
    admissible stresses, optionally confined to a window of time slices."""
    grid = Grid4(16, 38)
    rng = np.random.default_rng(11)
    r_u, r_b = stress_pair(grid, rng)
    if window is not None:
        r_u = Field(r_u.data * window[:, None, None, None, None, None], grid)
        r_b = Field(r_b.data * window[:, None, None, None, None, None], grid)
    amps = build_amplitudes(r_u, r_b, 0.25, geom, grid, ell=0.7)
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
def reference_parts(built):
    amps, blocks, g, h, sigma, _ = built
    out = dict(zip(("w_p", "d_p"), ref_principal(amps, blocks, g)))
    out.update(zip(("w_c", "d_c"), ref_incompressibility(amps, blocks, g)))
    out.update(zip(("w_t", "d_t"), ref_temporal_t(amps, blocks, g, MU)))
    out.update(zip(("w_o", "d_o"), ref_temporal_o(amps, blocks, h, sigma)))
    return out


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

    def test_parts_vanish_where_both_cutoffs_vanish(self, geom, temporal):
        window = np.zeros(16)
        window[5:9] = np.sin(np.pi * np.arange(1, 5) / 5) ** 2
        amps, _, _, _, _, parts = _build(geom, temporal, window)
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

    def test_broken_magnetic_positivity_raises_from_the_builders(self,
                                                                 built):
        # the velocity squares carry G_B without forming the magnetic
        # squares; the magnetic family's own squares still raise
        amps, blocks, g, h, sigma, _ = built
        bad = next(j for j in range(amps.grid.n_t)
                   if g[j] != 0.0 and h[j] != 0.0 and amps.f_b[j] != 0.0)
        rho = amps.rho_b.data.copy()
        rho[bad] = -1e3
        broken = amps.replace(rho_b=Field(rho, amps.grid))
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
        ref_gate(want, tol, want["amplitude_tail"],
                 ("velocity_representation", "magnetic_representation"))
        ref_gate(want, div_tol, want["amplitude_tail"],
                 ("velocity_divergence", "magnetic_divergence"))
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
        assert worst > pt._TAIL_FACTOR * want["amplitude_tail"]
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

    def test_divergence_lives_on_the_nyquist_planes(self, built):
        # curl curl is divergence-free mode by mode except on the planes
        # |k_a| = n/2, where i k_a is not the derivative of a real field
        amps, _, g, _, _, parts = built
        n = amps.grid.n_x
        raw = projected = 0.0
        for j in range(amps.grid.n_t):
            if g[j] == 0.0:
                continue
            for p, c in (("w_p", "w_c"), ("d_p", "d_c")):
                total = parts[p].data[j] + parts[c].data[j]
                div, scale = ref_div3(total)
                raw = max(raw, float(np.abs(div).max()) / scale)
                spec = ref_rfft3(total)
                spec[n // 2] = spec[:, n // 2] = spec[:, :, n // 2] = 0.0
                div, scale = ref_div3(ref_irfft3(spec, n))
                projected = max(projected, float(np.abs(div).max()) / scale)
        assert raw > 1e-6
        assert projected <= 1e-13

    def test_temporal_balance_report(self, built, reference_parts):
        amps, blocks, g, _, _, parts = built
        want = ref_temporal_balance(amps, blocks, g, MU,
                                    reference_parts["w_t"],
                                    reference_parts["d_t"])
        tol = passing_tol(want, ("velocity_temporal_balance",
                                 "magnetic_temporal_balance"))
        got = pt.verify_temporal_balance(amps, blocks, g, MU, parts["w_t"],
                                         parts["d_t"], tol=tol)
        assert_reports_match(got, ref_gate(want, tol, want["amplitude_tail"]))

    def test_low_frequency_balance_report(self, built, reference_parts):
        amps, blocks, g, h, sigma, parts = built
        want = ref_low_frequency_balance(
            amps, blocks, h, sigma, g, reference_parts["w_o"],
            reference_parts["d_o"])
        tol = passing_tol(want, ("velocity_low_frequency_balance",
                                 "magnetic_low_frequency_balance"))
        got = pt.verify_low_frequency_balance(
            amps, blocks, h, sigma, g, parts["w_o"], parts["d_o"], tol=tol)
        assert_reports_match(got, ref_gate(want, tol, want["amplitude_tail"]))


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
        state = Field.zeros(amps.grid, rank=1)
        with pytest.raises(pt.CorrectorIdentityError,
                           match=f"^{side} perturbation .* defect nan"):
            pt.assemble_iterate(state, state, pt.Perturbation(**broken), amps,
                                tol=1.0)


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


class TestVerifierMemory:
    """The balance verifiers stream their term groups slice by slice."""

    # peaks in vector-field copies, 20% over the measured 7.55 and 3.66:
    # the time derivatives are rows of D taken inside the slice residual;
    # whole-field derivatives took 9.0 and 5.4, whole-field term groups
    # 18.1 and 14.9
    @pytest.mark.parametrize("name,budget", [("temporal", 9.1),
                                             ("low_frequency", 4.4)])
    def test_balance_verifier_peak(self, built, name, budget, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "1")
        assert _verifier_peak(built, name) <= budget

    # two pool threads keep a second slice of temporaries in flight, which
    # stays under the budgets of whole-field derivatives (9.1 and 5.3
    # copies measured on two threads)
    @pytest.mark.parametrize("name,budget", [("temporal", 12.1),
                                             ("low_frequency", 6.9)])
    def test_balance_verifier_peak_on_two_threads(self, built, name, budget,
                                                  monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "2")
        assert _verifier_peak(built, name) <= budget

    # the second thread adds one slice of temporaries: 1.53 and 1.67
    # copies measured, the bound 20% over the larger
    @pytest.mark.parametrize("name", ["temporal", "low_frequency"])
    def test_second_thread_adds_one_slice_of_temporaries(self, built, name,
                                                         monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", "1")
        serial = _verifier_peak(built, name)
        monkeypatch.setenv("CILAB_THREADS", "2")
        assert _verifier_peak(built, name) - serial <= 2.0


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
    state = Field.zeros(amps.grid, rank=1)
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
        broken = amps.replace(rho_u=Field(rho, amps.grid))
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            with pytest.raises(ConstructionError) as err:
                pt.principal_parts(broken, blocks, g)
            assert str(err.value) == (
                f"velocity amplitude square on slice {bad[0]} is not finite "
                "or not positive")


# -- operators ---------------------------------------------------------------------

class TestOperators:
    @pytest.mark.parametrize("lead", [0, 1])
    def test_batched_slice_helpers_match_per_component(self, lead):
        # a whole-field array (lead=1, three slices here) must equal the
        # slice kernel stacked over its slices
        rng = np.random.default_rng(5)
        n = 16
        slices = 3 if lead else 1

        def check(kernel, arr, want, *args, **kw):
            got = kernel(arr, *args, lead=lead, **kw)
            if lead:
                stacked = np.stack([kernel(a, *args, **kw) for a in arr])
                assert rel_max(got, stacked) <= 1e-14
                got = stacked
            if want is not None:
                assert rel_max(got, want) <= 1e-13

        def per_slice(ref, arr):
            if not lead:
                return ref(arr)
            return np.stack([ref(a) for a in arr])

        shape = (slices,) * lead + (n, n, n)
        amp = rng.normal(size=shape + (6,))
        grads = per_slice(ref_grad3, amp)
        check(spectral.directional, amp, grads, np.eye(3)[:, None])
        frames = rng.normal(size=(2, 6, 3))
        want = np.stack([(grads * rows).sum(axis=-1) for rows in frames],
                        axis=-1)
        check(spectral.directional, amp, want, frames)
        tens = rng.normal(size=shape + (2, 3, 3))
        want = per_slice(lambda t: np.stack(
            [np.stack([ref_div3(t[..., s, i, :])[0] for i in range(3)],
                      axis=-1) for s in range(2)], axis=-2), tens)
        check(spectral.div, tens, want)
        check(lambda a, lead=0: spectral.div_terms(a, lead).sum(axis=-1),
              tens, want)
        vec = tens[..., 0]
        want = per_slice(lambda v: np.stack(
            [ref_curl3(v[..., s, :]) for s in range(2)], axis=-2), vec)
        check(spectral.curl, vec, want)
        check(spectral.curl, vec, None, inverse_laplacian=True)
        check(spectral.curl_curl, vec, per_slice(lambda v: np.stack(
            [ref_curl_curl3(v[..., s, :]) for s in range(2)], axis=-2), vec))
        check(spectral.leray, vec[..., 0, :], None)

    def test_field_calculus_matches_per_component(self, small_grid):
        rng = np.random.default_rng(9)
        u = random_field(small_grid, rng, rank=1)
        r = random_field(small_grid, rng, rank=2)
        from cilab.field import spectral_derivative

        def d(f, a):
            return spectral_derivative(f, zeta=tuple(int(b == a)
                                                     for b in range(3))).data

        want = np.stack([d(u, a) for a in range(3)], axis=-1)
        assert rel_max(grad(u).data, want) <= 1e-13
        want = sum(d(u.component(a), a) for a in range(3))
        assert rel_max(div_vec(u).data, want) <= 1e-13
        want = np.stack([sum(d(r.component(i, a), a) for a in range(3))
                         for i in range(3)], axis=-1)
        assert rel_max(div_tensor(r).data, want) <= 1e-13
