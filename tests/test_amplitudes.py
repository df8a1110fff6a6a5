"""Amplitude coefficients: cutoff regimes, rescaling bounds, temporal
supports, affine structure, idle-slice storage, and the two cancellation
identities."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cilab
from cilab.amplitudes import (
    AmplitudeSet, CancellationError, _frobenius, build_amplitudes, chi,
    dilate_support, slice_support, temporal_cutoff, verify_cancellation,
)
from cilab.blocks import BlockParams, sample_blocks
from cilab.field import SKEW_PAIRS, SYM_PAIRS, Field, frobenius_weights
from cilab.geometry import ConstructionError, build_geometry
from cilab.grid import TWO_PI, Grid4
from cilab.profiles import BumpTrain, make_spatial_profiles, make_temporal

from conftest import random_field
from oracles import (
    _skew, _sym, _traceless, amplitude, axes, g_b_slice, l2_report, replaced,
    skew_generator, stress_slice, sym_generator,
)
from test_spectral_ops import traced_peak


@pytest.fixture(scope="module")
def geom():
    return build_geometry()


def g_b_field(amps):
    """G_B on every slice, stacked into one (n_t, n, n, n, 3, 3) array."""
    return np.stack([g_b_slice(amps, j) for j in range(amps.grid.n_t)])


def stress_pair(grid, rng, scale=0.4, k_max=3):
    """Random admissible stress pair: symmetric traceless and skew."""
    r_u = Field(_traceless(_sym(random_field(grid, rng, rank=2,
                                             k_max=k_max).data)), grid)
    r_b = Field(_skew(random_field(grid, rng, rank=2, k_max=k_max).data), grid)
    return scale * r_u, scale * r_b


class TestChiCutoff:
    def test_plateau_is_exactly_one(self):
        z = np.linspace(0.0, 1.0, 401)
        assert np.all(chi(z) == 1.0)

    def test_tail_is_exactly_linear(self):
        z = np.linspace(2.0, 50.0, 401)
        assert np.all(chi(z) == z)

    def test_reference_values(self):
        assert chi(0.5) == 1.0
        assert chi(3.0) == 3.0
        assert 0.75 <= chi(1.5) <= 3.0
        # midpoint of the blend: the partition weights are equal there
        assert chi(1.5) == 1.25

    def test_blend_stays_in_wedge(self):
        z = np.linspace(1.0, 2.0, 2001)[1:-1]
        c = chi(z)
        assert np.all(c >= 0.5 * z)
        assert np.all(c <= 2.0 * z)
        # the implemented blend is pinched harder than required
        assert np.all(c >= 1.0)
        assert np.all(c <= z)

    def test_flat_matching_at_regime_edges(self):
        assert abs(chi(1.05) - 1.0) < 1e-7
        assert abs(chi(1.95) - 1.95) < 1e-7

    def test_global_lower_bound_for_rescaling(self):
        z = np.linspace(0.0, 10.0, 4001)
        assert np.all(chi(z) >= 1.0)
        assert np.all(chi(z) >= 0.5 * z)

    def test_callable_class_and_shapes(self):
        arr = chi(np.full((2, 3), 3.0))
        assert arr.shape == (2, 3)
        assert np.all(arr == 3.0)

    def test_negative_input_lands_on_plateau(self):
        assert chi(-2.0) == 1.0

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_wedge_properties_hold_everywhere(self, z):
        c = float(chi(z))
        assert c >= 1.0
        assert c >= 0.5 * z
        assert c <= max(1.0, z)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert chi(lo) <= chi(hi) + 1e-15


class TestTemporalCutoff:
    def test_support_mask_relative_threshold(self):
        norms = np.array([0.0, 1.0, 1e-15, 0.5])
        mask = slice_support(norms)
        assert mask.tolist() == [False, True, False, True]

    def test_support_mask_all_zero(self):
        assert not slice_support(np.zeros(8)).any()

    @pytest.mark.parametrize("reach", [0, 1, 3, 15, 16, 40])
    def test_dilation_is_the_rolled_union(self, reach):
        # the uncapped loop both call sites wrote; shifts past the period
        # repeat earlier rolls, so capping them leaves the mask bitwise equal
        mask = np.zeros(16, bool)
        mask[[0, 6, 7]] = True
        want = mask.copy()
        for shift in range(1, reach + 1):
            want |= np.roll(mask, shift) | np.roll(mask, -shift)
        got = dilate_support(mask, reach)
        assert got.dtype == bool and np.array_equal(got, want)
        assert not mask[1:6].any()  # the input is left as it was

    def test_empty_support_gives_zero_cutoff(self):
        g = Grid4(32, 8)
        assert np.all(temporal_cutoff(np.zeros(32, bool), g, 0.5) == 0.0)

    def test_full_support_gives_exactly_one(self):
        g = Grid4(32, 8)
        f = temporal_cutoff(np.ones(32, bool), g, 0.5)
        assert np.all(f == 1.0)

    def test_one_on_support_zero_far_away(self):
        g = Grid4(256, 8)
        ell = 0.6
        mask = np.zeros(256, bool)
        mask[100:130] = True
        f = temporal_cutoff(mask, g, ell)
        assert np.all(np.abs(f[100:130] - 1.0) < 1e-12)
        assert np.all(f >= 0.0)
        assert np.all(f <= 1.0 + 1e-12)
        t = g.t()
        lo, hi = t[100], t[129]
        dist = np.maximum(lo - t, t - hi)
        assert np.all(f[dist > ell] == 0.0)

    def test_neighborhood_wraps_the_circle(self):
        g = Grid4(128, 8)
        mask = np.zeros(128, bool)
        mask[:4] = True
        mask[-4:] = True
        f = temporal_cutoff(mask, g, 0.8)
        assert f[0] == pytest.approx(1.0, abs=1e-12)
        assert f[127] == pytest.approx(1.0, abs=1e-12)
        assert f[64] == 0.0

    @pytest.mark.parametrize("n_t", [16, 32, 64, 128])
    def test_exactly_one_on_the_quarter_neighborhood(self, n_t):
        # the kernel weights sum to one only up to rounding, so a plain
        # mollification reads 1 - 1.1e-16 on some support slices; one run
        # of width 1-5, alone or beside a second run after a gap of 1-7
        g = Grid4(n_t, 8)
        idx = np.arange(n_t)
        for ell in np.linspace(0.3, 2.5, 45):
            taps = int(math.floor(0.25 * ell / g.dt))
            for width in range(1, 6):
                for gap in (None,) + tuple(range(1, 8)):
                    mask = (idx >= 3) & (idx < 3 + width)
                    if gap is not None:
                        lo = 3 + width + gap
                        mask |= (idx >= lo) & (idx < lo + width)
                    f = temporal_cutoff(mask, g, ell)
                    dist = np.min([np.minimum((idx - s) % n_t,
                                              (s - idx) % n_t)
                                   for s in idx[mask]], axis=0)
                    assert np.all(f[dist <= taps] == 1.0), (ell, width, gap)
                    assert np.all((f >= 0.0) & (f <= 1.0))

    def test_coarse_grid_degenerates_to_indicator(self):
        g = Grid4(8, 8)
        mask = np.zeros(8, bool)
        mask[2] = True
        f = temporal_cutoff(mask, g, 0.1)
        assert f.tolist() == mask.astype(float).tolist()

    def test_mask_length_validated(self):
        g = Grid4(16, 8)
        with pytest.raises(ValueError, match="one entry per time slice"):
            temporal_cutoff(np.ones(8, bool), g, 0.5)

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 2.5))
    @settings(max_examples=25, deadline=None)
    def test_cutoff_properties_random_masks(self, seed, ell):
        g = Grid4(64, 8)
        rng = np.random.default_rng(seed)
        mask = rng.random(64) < 0.2
        f = temporal_cutoff(mask, g, ell)
        assert np.all((f >= 0.0) & (f <= 1.0 + 1e-12))
        if mask.any():
            assert np.all(f[mask] > 1.0 - 1e-12)
            reach = int(0.5 * ell / g.dt) + int(0.25 * ell / g.dt)
            idx = np.arange(64)
            near = np.zeros(64, bool)
            for i in idx[mask]:
                near |= np.minimum((idx - i) % 64, (i - idx) % 64) <= reach
            assert np.all(f[~near] == 0.0)
        else:
            assert np.all(f == 0.0)


@pytest.fixture(scope="module")
def grid():
    return Grid4(8, 16)


@pytest.fixture(scope="module")
def built(geom, grid):
    rng = np.random.default_rng(11)
    r_u, r_b = stress_pair(grid, rng)
    return r_u, r_b, build_amplitudes(r_u, r_b, 0.3, geom, grid, ell=0.7)


class TestBuildAmplitudes:
    def test_symmetry_classes_validated(self, geom, grid):
        rng = np.random.default_rng(0)
        r_u, r_b = stress_pair(grid, rng)
        bad = random_field(grid, rng, rank=2)
        with pytest.raises(ValueError, match="skew"):
            build_amplitudes(r_u, bad, 0.3, geom, grid)
        with pytest.raises(ValueError, match="symmetric|traceless"):
            build_amplitudes(bad, r_b, 0.3, geom, grid)
        with pytest.raises(ValueError, match="rank-2"):
            build_amplitudes(random_field(grid, rng, rank=1), r_b,
                             0.3, geom, grid)

    # chi(nan) warns on the way to the gate
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family,match", [
        ("velocity", "velocity stress must be symmetric .*nan"),
        ("magnetic", "magnetic stress must be skew-symmetric .*nan")])
    def test_nan_stress_entry_rejected(self, geom, grid, family, match):
        # every comparison with NaN is false: the class gates raise unless
        # the defect is within tolerance
        r_u, r_b = stress_pair(grid, np.random.default_rng(0))
        stresses = {"velocity": r_u.data.copy(), "magnetic": r_b.data.copy()}
        stresses[family][3, 1, 2, 3, 0, 1] = np.nan
        with pytest.raises(ValueError, match=match):
            build_amplitudes(Field(stresses["velocity"], grid, _take=True),
                             Field(stresses["magnetic"], grid, _take=True),
                             0.3, geom, grid)

    def test_set_holds_at_most_eleven_scalar_fields(self, built):
        # one array of rho_b, rho_u and the 6 + 3 independent stress
        # components, which the rescaling Fields and the stress views share;
        # G_B and the mirrored stress entries are formed per slice
        _, _, amps = built
        grid = amps.grid
        owners = {}
        for name in AmplitudeSet.__slots__ + ("stress_u", "stress_b"):
            value = getattr(amps, name)
            value = value.data if isinstance(value, Field) else value
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                owners[id(value)] = value
        sizes = [arr.size for arr in owners.values()]
        whole = sum(size for size in sizes if size >= np.prod(grid.shape))
        small = sum(size for size in sizes if size < np.prod(grid.shape))
        assert whole <= 11 * np.prod(grid.shape)
        assert small <= grid.n_x ** 3

    def test_stress_slices_expand_the_inputs(self, built):
        r_u, r_b, amps = built
        for j in (0, 5):
            assert np.array_equal(stress_slice(amps, "velocity", j),
                                  r_u.data[j])
            assert np.array_equal(stress_slice(amps, "magnetic", j),
                                  r_b.data[j])

    # traced peak in scalar fields, 20% over the measured 12.25 (one
    # thread) and 13.46 (two): the class checks read one entry pair at a
    # time and the Frobenius norms square one x1 plane at a time. Checks
    # of whole slices took 12.5 and 14.1 (budgets 15.0 and 16.9, kept as
    # ceilings); whole-field class checks and a stored G_B took 18.0
    @pytest.mark.parametrize("threads,budget", [("1", 14.7), ("2", 16.2),
                                                ("1", 15.0), ("2", 16.9)])
    def test_build_peak(self, geom, threads, budget, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", threads)
        grid = Grid4(16, 24)
        r_u, r_b = stress_pair(grid, np.random.default_rng(12))
        peak, _ = traced_peak(build_amplitudes, r_u, r_b, 0.25, geom, grid,
                              ell=0.7)
        assert peak / r_u.data[..., 0, 0].nbytes <= budget

    def test_scale_parameters_validated(self, geom, grid):
        rng = np.random.default_rng(1)
        r_u, r_b = stress_pair(grid, rng)
        with pytest.raises(ValueError, match="delta_next"):
            build_amplitudes(r_u, r_b, 0.0, geom, grid)
        with pytest.raises(ValueError, match="ell"):
            build_amplitudes(r_u, r_b, 0.3, geom, grid, ell=-1.0)
        other = Grid4(8, 32)
        ru2, rb2 = stress_pair(other, rng)
        with pytest.raises(ValueError, match="different grid"):
            build_amplitudes(ru2, r_b, 0.3, geom, grid)

    def test_rescaling_lower_bounds(self, geom, built):
        _, _, amps = built
        delta = amps.delta_next
        assert amps.rho_b.data.min() >= delta / geom.eps_b * (1 - 1e-13)
        assert amps.rho_u.data.min() >= delta / geom.eps_u * (1 - 1e-13)

    def test_rescaled_stress_stays_in_geometry_balls(self, geom, built):
        r_u, r_b, amps = built
        frob_b = np.sqrt((r_b.data ** 2).sum(axis=(-2, -1)))
        assert (frob_b / amps.rho_b.data).max() <= geom.eps_b * (1 + 1e-12)
        comb = r_u.data + g_b_field(amps)
        frob_u = np.sqrt((comb ** 2).sum(axis=(-2, -1)))
        assert (frob_u / amps.rho_u.data).max() <= geom.eps_u * (1 + 1e-12)

    def test_small_stress_regime_is_constant(self, geom, grid):
        rng = np.random.default_rng(2)
        r_u, r_b = stress_pair(grid, rng)
        delta = 10.0 * max(r_u.max_abs(), r_b.max_abs())
        amps = build_amplitudes(r_u, r_b, delta, geom, grid)
        assert np.all(amps.rho_b.data == 2.0 / geom.eps_b * delta)

    def test_large_stress_regime_is_linear(self, geom, grid):
        rng = np.random.default_rng(3)
        seed = Field(_skew(random_field(grid, rng, rank=2).data), grid)
        unit = Field(seed.data / np.sqrt(
            (seed.data ** 2).sum(axis=(-2, -1), keepdims=True)), grid)
        delta = 0.2
        bulk = (3.1 + np.cos(axes(grid)[1])) * delta
        r_b = Field(bulk[..., None, None] * unit.data, grid, _take=True)
        r_u = 0.0 * Field(_traceless(_sym(
            random_field(grid, rng, rank=2).data)), grid)
        amps = build_amplitudes(r_u, r_b, delta, geom, grid)
        frob = np.sqrt((r_b.data ** 2).sum(axis=(-2, -1)))
        assert frob.min() >= 2.0 * delta
        np.testing.assert_allclose(
            amps.rho_b.data, 2.0 / geom.eps_b * frob, rtol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_rescaling_lebesgue_bound(self, geom, built, p):
        r_u, r_b, amps = built
        vol = TWO_PI ** 4
        for rho, r, eps in ((amps.rho_b, r_b, geom.eps_b),):
            lhs = (np.mean(rho.data ** p) * vol) ** (1.0 / p)
            frob = np.sqrt((r.data ** 2).sum(axis=(-2, -1)))
            r_lp = (np.mean(frob ** p) * vol) ** (1.0 / p)
            bound = 8.0 / eps * ((16 * np.pi ** 4) ** (1.0 / p)
                                 * amps.delta_next + r_lp)
            assert lhs <= bound

    def test_zero_magnetic_stress(self, geom, grid):
        rng = np.random.default_rng(4)
        r_u, _ = stress_pair(grid, rng)
        r_b = Field(np.zeros(grid.shape + (3, 3)), grid, _take=True)
        delta = 0.3
        amps = build_amplitudes(r_u, r_b, delta, geom, grid)
        assert np.all(amps.rho_b.data == 2.0 / geom.eps_b * delta)
        assert np.all(amps.f_b == 0.0)
        assert np.all(g_b_field(amps) == 0.0)
        assert np.all(amplitude(amps, "B1").data == 0.0)
        # the velocity family still carries the velocity stress
        assert np.all(amps.f_u == 1.0)
        assert amplitude(amps, "u1").max_abs() > 0.0

    def test_zero_stresses_give_zero_amplitudes(self, geom, grid):
        zero = Field(np.zeros(grid.shape + (3, 3)), grid, _take=True)
        amps = build_amplitudes(zero, zero, 0.5, geom, grid)
        rep = l2_report(amps)
        assert all(v == 0.0 for v in rep.values())

    def test_auxiliary_matrix_is_affine_in_magnetic_stress(self, geom, built):
        _, r_b, amps = built
        imb = np.stack([np.outer(fr.k1, fr.k1) - np.outer(fr.k2, fr.k2)
                        for fr in geom.lambda_b])
        compact = r_b.data[..., SKEW_PAIRS[0], SKEW_PAIRS[1]]
        pred = -np.einsum("fs,txyzs,fcd->txyzcd", geom.L_b, compact, imb)
        pred *= (amps.f_b ** 2)[:, None, None, None, None, None]
        g_b = g_b_field(amps)
        scale = max(np.abs(g_b).max(), 1e-30)
        assert np.abs(g_b - pred).max() <= 1e-12 * scale

    def test_auxiliary_matrix_ignores_rescaling(self, geom, grid):
        rng = np.random.default_rng(5)
        r_u, r_b = stress_pair(grid, rng)
        a1 = build_amplitudes(r_u, r_b, 0.3, geom, grid)
        a2 = build_amplitudes(r_u, r_b, 0.6, geom, grid)
        g1, g2 = g_b_field(a1), g_b_field(a2)
        scale = np.abs(g1).max()
        assert np.abs(g1 - g2).max() <= 1e-12 * scale

    def test_auxiliary_matrix_symmetric_traceless(self, built):
        _, _, amps = built
        d = g_b_field(amps)
        assert np.abs(d - np.swapaxes(d, 4, 5)).max() == 0.0
        tr = d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2]
        assert np.abs(tr).max() <= 1e-12 * np.abs(d).max()

    def test_squared_amplitudes_affine_formula(self, geom, built):
        r_u, r_b, amps = built
        j = 3
        a2 = amps.squared_slice("magnetic", j)
        rho = amps.rho_b.data[j][..., None]
        compact = r_b.data[j][..., SKEW_PAIRS[0], SKEW_PAIRS[1]]
        direct = amps.f_b[j] ** 2 * (rho * geom.c_b - compact @ geom.L_b.T)
        np.testing.assert_allclose(a2, direct, rtol=0, atol=1e-13 * rho.max())

    def test_nan_square_rejected_where_it_arises(self, built):
        _, _, amps = built
        rho = amps.rho_b.data.copy()
        rho[1, 2, 3, 4] = np.nan
        bad = replaced(amps, rho_b=rho)
        assert bad.f_b[1] != 0.0
        for family in ("magnetic", "velocity"):
            with pytest.raises(ConstructionError,
                               match=f"^{family} amplitude square on slice 1 "
                                     "is not finite or not positive$"):
                bad.squared_slice(family, 1)
            bad.squared_slice(family, 2)

    def test_amplitude_field_matches_slices(self, built):
        _, _, amps = built
        f = amplitude(amps, "B3")
        i = [fr.name for fr in amps.frames("magnetic")].index("B3")
        for j in (0, 5):
            np.testing.assert_array_equal(
                f.data[j], np.sqrt(amps.squared_slice("magnetic", j)[..., i]))
        with pytest.raises(KeyError):
            amplitude(amps, "nope")

    def test_pointwise_cancellation_reconstruction(self, geom, built):
        r_u, r_b, amps = built
        gens_b = np.stack([skew_generator(fr) for fr in geom.lambda_b])
        gens_u = np.stack([sym_generator(fr) for fr in geom.lambda_u])
        worst_b = worst_u = 0.0
        eye = np.eye(3)
        for j in range(amps.grid.n_t):
            lhs = np.einsum("...f,fab->...ab",
                            amps.squared_slice("magnetic", j), gens_b)
            worst_b = max(worst_b, np.abs(lhs + r_b.data[j]).max())
            lhs = np.einsum("...f,fab->...ab",
                            amps.squared_slice("velocity", j), gens_u)
            tgt = (amps.rho_u.data[j][..., None, None] * eye
                   - r_u.data[j] - g_b_slice(amps, j))
            worst_u = max(worst_u, np.abs(lhs - tgt).max())
        scale = max(r_b.max_abs(), amps.rho_u.data.max())
        assert worst_b <= 1e-12 * scale
        assert worst_u <= 1e-12 * scale

    def test_squared_amplitude_integral_bound(self, geom, built):
        _, _, amps = built
        mean_rho = {"magnetic": amps.rho_b.data.mean(),
                    "velocity": amps.rho_u.data.mean()}
        # c plus the radius times each row's norm as a functional on
        # Frobenius-normed tensors
        caps = {"magnetic": geom.c_b + geom.eps_b * np.sqrt(
                    (geom.L_b ** 2 / frobenius_weights(SKEW_PAIRS)).sum(1)),
                "velocity": geom.c_u + geom.eps_u * np.sqrt(
                    (geom.L_u ** 2 / frobenius_weights(SYM_PAIRS)).sum(1))}
        for family in ("magnetic", "velocity"):
            acc = np.zeros(len(amps.frames(family)))
            for j in range(amps.grid.n_t):
                acc += amps.squared_slice(family, j).mean(axis=(0, 1, 2))
            acc /= amps.grid.n_t
            assert np.all(acc <= caps[family] * mean_rho[family]
                          * (1 + 1e-12))

    def test_l2_report_monitored_constants(self, built):
        _, _, amps = built
        rep = l2_report(amps)
        assert set(rep) == {fr.name for fr in
                            amps.geom.lambda_b + amps.geom.lambda_u}
        vals = np.array(list(rep.values()))
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0.0)
        # scale-free in the stress: doubling delta moves each constant
        # by at most the cutoff wedge factor
        assert vals.max() / vals.min() < 10.0

    def test_temporal_support_inclusion(self, geom):
        grid = Grid4(64, 8)
        rng = np.random.default_rng(6)
        r_u, r_b = stress_pair(grid, rng, k_max=2)
        t = grid.t()
        window = (np.abs(t) <= np.pi / 4).astype(float)
        r_u = Field(r_u.data * window[:, None, None, None, None, None],
                    grid, _take=True)
        r_b = Field(r_b.data * window[:, None, None, None, None, None],
                    grid, _take=True)
        ell = 0.5
        amps = build_amplitudes(r_u, r_b, 0.3, geom, grid, ell=ell)
        on = window > 0.0
        assert np.all(np.abs(amps.f_b[on] - 1.0) < 1e-12)
        assert np.all(np.abs(amps.f_u[on] - 1.0) < 1e-12)
        dist = np.maximum(np.abs(t) - np.pi / 4, 0.0)
        far_b = dist > ell
        far_u = dist > 2.0 * ell
        assert np.all(amps.f_b[far_b] == 0.0)
        for j in np.nonzero(far_b)[0][:3]:
            assert np.all(amps.squared_slice("magnetic", int(j)) == 0.0)
        for j in np.nonzero(far_u)[0][:3]:
            assert np.all(amps.squared_slice("velocity", int(j)) == 0.0)


class TestStorage:
    """The 11 scalar fields live in one component-major array, and each
    square is one product over a family's rows of it."""

    @pytest.fixture(scope="class")
    def partial(self, geom, grid):
        # magnetic stress on slices 2 and 3 only, so f_b vanishes elsewhere
        # while the velocity family carries every slice
        r_u, r_b = stress_pair(grid, np.random.default_rng(13))
        window = np.zeros(grid.n_t)
        window[2:4] = 1.0
        r_b = Field(r_b.data * window[:, None, None, None, None, None], grid)
        return build_amplitudes(r_u, r_b, 0.3, geom, grid, ell=0.5)

    def test_layout(self, built):
        r_u, r_b, amps = built
        grid = amps.grid
        assert amps.data.shape == (11,) + grid.shape
        assert amps.data.flags.c_contiguous
        assert not amps.data.flags.writeable
        rows, cols = SKEW_PAIRS
        for c in range(3):
            assert np.array_equal(amps.data[1 + c], r_b.data[..., rows[c],
                                                             cols[c]])
        rows, cols = SYM_PAIRS
        for c in range(6):
            assert np.array_equal(amps.data[5 + c], r_u.data[..., rows[c],
                                                             cols[c]])
        for block, row in ((amps.rho_b.data, 0), (amps.rho_u.data, 4)):
            assert block.flags.c_contiguous
            assert np.shares_memory(block, amps.data[row])

    @pytest.mark.parametrize("family", ["magnetic", "velocity"])
    def test_component_matches_full_slice(self, partial, family):
        amps = partial
        slices = {"idle": 6, "carrying": 2}
        assert amps.f_b[slices["idle"]] == 0.0
        assert amps.f_b[slices["carrying"]] != 0.0
        assert amps.f_u[slices["idle"]] != 0.0
        for where, j in slices.items():
            full = amps.squared_slice(family, j)
            scale = np.abs(full).max()
            if family == "velocity" or where == "carrying":
                assert scale > 0.0
            for i in range(full.shape[-1]):
                got = amps.squared_component_slice(family, i, j)
                assert np.abs(got - full[..., i]).max() <= 1e-14 * scale, \
                    (where, i)


def dense_reference(r_u, r_b, amps, geom):
    """Every array of the set by its per-slice formula, applied to every
    slice, all-zero ones included; the 11 scalar fields stacked in the
    set's row order."""
    grid, delta = amps.grid, amps.delta_next
    stress_u = r_u.data[..., SYM_PAIRS[0], SYM_PAIRS[1]]
    stress_b = r_b.data[..., SKEW_PAIRS[0], SKEW_PAIRS[1]]
    frob_b = np.sqrt((r_b.data ** 2).sum(axis=(-2, -1)))
    ref = {"peak_u": np.sqrt((r_u.data ** 2).sum(axis=(-2, -1))).max(
        axis=(1, 2, 3))}
    ref["peak_b"] = frob_b.max(axis=(1, 2, 3))
    ref["f_b"] = temporal_cutoff(slice_support(ref["peak_b"]), grid, amps.ell)
    g_b = g_b_field(amps)[..., SYM_PAIRS[0], SYM_PAIRS[1]]
    frob_u = _frobenius(stress_u + g_b, SYM_PAIRS)
    peak_gb = _frobenius(g_b, SYM_PAIRS).max(axis=(1, 2, 3))
    ref["f_u"] = temporal_cutoff(
        slice_support(ref["peak_u"]) | slice_support(peak_gb), grid, amps.ell)
    ref["data"] = np.concatenate([
        (2.0 / geom.eps_b * delta * chi(frob_b / delta))[None],
        np.moveaxis(stress_b, -1, 0),
        (2.0 / geom.eps_u * delta * chi(frob_u / delta))[None],
        np.moveaxis(stress_u, -1, 0)])
    return ref


# Run in a fresh process: builds a set on stresses carrying 4 of 16 slices
# at 16 x 48^3 and a one-slice vector field, then reports, per row of each
# output array (the set's 11 scalar fields, one row for each vector
# field), the share of its carrying slices' pages that are resident and the
# number of its resident pages elsewhere. The rescaling rows carry every
# slice. Allowed elsewhere: the 2 MiB around each edge of any carrying
# stretch of the array (numpy advises huge pages) and the buffer's first
# 2 MiB, where glibc writes the chunk header of the mapping.
_RESIDENCY_SCRIPT = textwrap.dedent("""
    import ctypes, json, mmap
    import numpy as np
    from cilab.amplitudes import build_amplitudes
    from cilab.field import Field
    from cilab.geometry import build_geometry
    from cilab.grid import Grid4
    from cilab.spectral_ops import leray, p_neq0

    PAGE, HUGE = mmap.PAGESIZE, 2 << 20
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mincore.argtypes = [ctypes.c_void_p, ctypes.c_size_t,
                             ctypes.POINTER(ctypes.c_ubyte)]

    def residency(arr, carrying):
        # arr is (rows, n_t, ...); carrying holds one slice range per row
        addr = arr.ctypes.data
        start = addr - addr % PAGE
        pages = -(-(addr + arr.nbytes - start) // PAGE)
        vec = (ctypes.c_ubyte * pages)()
        if libc.mincore(start, addr + arr.nbytes - start, vec) != 0:
            raise OSError(ctypes.get_errno(), "mincore")
        resident = (np.frombuffer(vec, np.uint8) & 1).astype(bool)
        lo = start + PAGE * np.arange(pages) - addr  # page offsets
        hi = lo + PAGE
        row, size = arr[0].nbytes, arr[0, 0].nbytes
        stretches = [(r * row + s.start * size, r * row + s.stop * size)
                     for r, s in enumerate(carrying)]
        allowed = lo < HUGE
        for first, last in stretches:
            allowed |= (hi > first - HUGE) & (lo < last + HUGE)
        out = []
        for r, (first, last) in enumerate(stretches):
            inside = (lo >= first) & (hi <= last)
            mine = (lo >= r * row) & (hi <= (r + 1) * row)
            out.append([float(resident[inside].mean()),
                        int(resident[mine & ~allowed].sum())])
        return out

    grid = Grid4(16, 48)
    window = slice(9, 13)
    rng = np.random.default_rng(3)
    a = 0.1 * rng.standard_normal((4, 48, 48, 48, 3, 3))
    sym = a + np.swapaxes(a, -1, -2)
    sym -= np.trace(sym, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) / 3
    r_u, r_b = np.zeros(grid.shape + (3, 3)), np.zeros(grid.shape + (3, 3))
    r_u[window], r_b[window] = sym, a - np.swapaxes(a, -1, -2)
    del a, sym
    amps = build_amplitudes(Field(r_u, grid, _take=True),
                            Field(r_b, grid, _take=True), 0.25,
                            build_geometry(), grid)
    vec = np.zeros(grid.shape + (3,))
    vec[3] = rng.standard_normal((48, 48, 48, 3))
    one = Field(vec, grid, _take=True)
    every = slice(0, grid.n_t)
    names = (["rho_b"] + [f"stress_b{c}" for c in range(3)] + ["rho_u"]
             + [f"stress_u{c}" for c in range(6)])
    rows = [every] + 3 * [window] + [every] + 6 * [window]
    out = dict(zip(names, residency(amps.data, rows)))
    out["leray"], = residency(leray(one).data[None], [slice(3, 4)])
    out["p_neq0"], = residency(p_neq0(one).data[None], [slice(3, 4)])
    print(json.dumps(out))
""")


class TestIdleSlices:
    """Slices without stress are neither computed nor written."""

    @pytest.fixture(scope="class")
    def windowed(self, geom):
        grid = Grid4(16, 16)
        window = np.zeros(16)
        window[5:9] = np.sin(np.pi * np.arange(1, 5) / 5) ** 2
        w = window[:, None, None, None, None, None]
        r_u, r_b = stress_pair(grid, np.random.default_rng(11))
        r_u, r_b = Field(r_u.data * w, grid), Field(r_b.data * w, grid)
        amps = build_amplitudes(r_u, r_b, 0.25, geom, grid, ell=0.7)
        return r_u, r_b, amps, window == 0.0

    def test_set_matches_dense_reference(self, geom, windowed):
        r_u, r_b, amps, idle = windowed
        assert idle.sum() == 12
        # the cutoffs vanish on idle slices, so every shortcut is taken
        assert np.all(amps.f_b[idle] == 0.0) and np.all(amps.f_u[idle] == 0.0)
        for name, want in dense_reference(r_u, r_b, amps, geom).items():
            # values, so the -0.0 of a zero-weighted input equals +0.0
            assert np.array_equal(getattr(amps, name), want), name

    def test_idle_slices_sit_at_the_plateau(self, geom, windowed):
        _, _, amps, idle = windowed
        delta = amps.delta_next
        assert np.all(amps.rho_b.data[idle] == 2.0 * delta / geom.eps_b)
        assert np.all(amps.rho_u.data[idle] == 2.0 * delta / geom.eps_u)
        assert np.all(amps.stress_u[idle] == 0.0)
        assert np.all(amps.stress_b[idle] == 0.0)
        assert np.all(amps.peak_u[idle] == 0.0)
        assert np.all(amps.peak_b[idle] == 0.0)

    def test_g_b_does_not_read_rho_b(self, windowed):
        # G_B is the magnetic rows times these tables, so on an idle slice,
        # whose stress rows are zero, it is zero whatever f_b, and
        # build_amplitudes skips the slice
        amps = windowed[2]
        assert not amps._g_b_table[0].any()
        assert not amps._g_b_share[0].any()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="lazily mapped zero pages are glibc's")
    def test_idle_pages_stay_unmapped(self):
        src = os.path.dirname(os.path.dirname(cilab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _RESIDENCY_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        for name, (carried, stray) in json.loads(proc.stdout).items():
            assert carried == 1.0, name
            assert stray == 0, name


@pytest.fixture(scope="module")
def cancel_setup(geom):
    grid = Grid4(8, 64)
    rng = np.random.default_rng(7)
    r_u, r_b = stress_pair(grid, rng)
    amps = build_amplitudes(r_u, r_b, 0.25, geom, grid, ell=0.7)
    base = make_spatial_profiles()
    params = BlockParams(lam=1)
    blocks = {fr.name: sample_blocks(fr, params, grid, base)
              for fr in geom.lambda_b + geom.lambda_u}
    return grid, amps, blocks


class TestVerifyCancellation:
    def test_identities_hold(self, cancel_setup):
        _, amps, blocks = cancel_setup
        rep = verify_cancellation(amps, blocks)
        assert rep["magnetic"] <= 1e-10
        assert rep["velocity"] <= 1e-10
        assert rep["moment_defect"] <= 1e-10
        for key in ("moment_defect", "magnetic", "velocity"):
            assert rep[f"{key}_tolerance"] == 1e-7

    def test_identities_hold_with_oscillation_profile(self, cancel_setup):
        grid, amps, blocks = cancel_setup
        temporal = make_temporal(BumpTrain(m0=2), tau=1.0, sigma=1.0, band=2)
        rep = verify_cancellation(amps, blocks, temporal=temporal)
        assert rep["magnetic"] <= 1e-9
        assert rep["velocity"] <= 1e-9

    def test_missing_frame_rejected(self, cancel_setup):
        _, amps, blocks = cancel_setup
        partial = dict(blocks)
        del partial["u2"]
        with pytest.raises(ValueError, match="u2"):
            verify_cancellation(amps, partial)

    def test_swapped_block_set_rejected(self, cancel_setup):
        # a set sampled for another frame is a bad input, not a failed
        # identity
        _, amps, blocks = cancel_setup
        swapped = dict(blocks, u2=blocks["u3"])
        with pytest.raises(ValueError, match="keyed u2 was sampled for "
                                             "frame u3"):
            verify_cancellation(amps, swapped)

    def test_broken_magnetic_cutoff_names_magnetic_group(self, cancel_setup):
        _, amps, blocks = cancel_setup
        # G_B follows the magnetic cutoff, and rho_u keeps R_u + G_B in the
        # ball only for a mild break: at 0.7 the velocity squares lose
        # positivity before any residual is formed
        bad = replaced(amps, f_b=0.9 * np.ones_like(amps.f_b))
        with pytest.raises(CancellationError, match="magnetic cancellation"):
            verify_cancellation(bad, blocks)

    def test_broken_velocity_cutoff_names_velocity_group(self, cancel_setup):
        _, amps, blocks = cancel_setup
        bad = replaced(amps, f_u=0.7 * np.ones_like(amps.f_u))
        with pytest.raises(CancellationError, match="velocity cancellation"):
            verify_cancellation(bad, blocks)

    @pytest.fixture(scope="class")
    def peak_setup(self, geom):
        grid = Grid4(8, 40)
        r_u, r_b = stress_pair(grid, np.random.default_rng(7))
        amps = build_amplitudes(r_u, r_b, 0.25, geom, grid, ell=0.7)
        params = BlockParams(lam=1, n_conc_harmonics=1)
        base = make_spatial_profiles()
        blocks = {fr.name: sample_blocks(fr, params, grid, base)
                  for fr in geom.lambda_b + geom.lambda_u}
        return amps, blocks

    # traced peak of a warm call (the block sets cache their index arrays
    # on the first) in scalar slices, 20% over the measured 24 (one thread)
    # and 43 (two): each side is formed in the buffers of the squared
    # envelopes and the products, and each family's target when it is
    # added. Whole-slice temporaries took 45 and 81-90 (budgets 54 and
    # 108, kept as ceilings); comparing all nine components of expanded
    # 3x3 slices took 66 and 129
    @pytest.mark.parametrize("threads,budget", [("1", 29.0), ("2", 52.0),
                                                ("1", 54.0), ("2", 108.0)])
    def test_peak(self, peak_setup, threads, budget, monkeypatch):
        monkeypatch.setenv("CILAB_THREADS", threads)
        amps, blocks = peak_setup
        verify_cancellation(amps, blocks)
        peak, _ = traced_peak(verify_cancellation, amps, blocks)
        assert peak / amps.rho_b.data[0].nbytes <= budget

    @pytest.mark.parametrize("family,attr", [("magnetic", "stress_b"),
                                             ("velocity", "stress_u")])
    def test_nan_stress_names_its_group(self, cancel_setup, family, attr):
        # the family's squares reject the NaN before any residual is formed
        _, amps, blocks = cancel_setup
        stress = getattr(amps, attr).copy()
        stress[2, 1, 2, 3, 0] = np.nan
        bad = replaced(amps, **{attr: stress})
        with pytest.raises(ConstructionError,
                           match=f"^{family} amplitude square on slice 2 is "
                                 "not finite or not positive$"):
            verify_cancellation(bad, blocks)
