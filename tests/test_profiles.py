"""Spatial and temporal concentration profiles and the band machinery."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import cilab
from cilab import profiles
from cilab.grid import GridResolutionError
from cilab.mollify import Mollifier
from cilab.profiles import (
    BandProfile, BumpTrain, band_project, fit_loglog, make_spatial_profiles,
    make_temporal, rescaled,
)

from oracles import lattice_values, phi


def circle(n):
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def circle_mean(vals):
    return vals.sum() / len(vals)


@pytest.fixture(scope="module")
def sp():
    return make_spatial_profiles(1)


class TestSpatialProfiles:
    def test_phi_square_normalization(self, sp):
        x = np.linspace(-np.pi, np.pi, (1 << 14) + 1)
        val = np.trapezoid(phi(sp, x) ** 2, x) / (2.0 * np.pi)
        assert abs(val - 1.0) <= 1e-10

    def test_psi_square_normalization_and_mean(self, sp):
        x = np.linspace(-np.pi, np.pi, (1 << 14) + 1)
        val = np.trapezoid(sp.psi(x) ** 2, x) / (2.0 * np.pi)
        assert abs(val - 1.0) <= 1e-10
        assert abs(np.trapezoid(sp.psi(x), x)) <= 1e-12

    def test_phi_is_negative_second_derivative(self, sp):
        # spectral differentiation of Phi on the circle as the oracle
        n = 4096
        x = circle(n)
        spec = np.fft.rfft(sp.Phi(x))
        k = np.arange(len(spec))
        d2 = np.fft.irfft(spec * (1j * k) ** 2, n)
        assert np.abs(-d2 - phi(sp, x)).max() <= 1e-8

    def test_supports_inside_unit_interval(self, sp):
        x = np.concatenate([np.linspace(-np.pi, -1.0, 500),
                            np.linspace(1.0, np.pi, 500)])
        assert np.abs(sp.Phi(x)).max() == 0.0
        assert np.abs(phi(sp, x)).max() == 0.0
        assert np.abs(sp.psi(x)).max() == 0.0

    def test_psi_is_odd(self, sp):
        x = np.linspace(0.0, 1.0, 300)
        assert np.abs(sp.psi(-x) + sp.psi(x)).max() <= 1e-15

    def test_higher_smoothness_order(self):
        p = make_spatial_profiles(2)
        x = np.linspace(-np.pi, np.pi, (1 << 14) + 1)
        assert abs(np.trapezoid(phi(p, x) ** 2, x) / (2 * np.pi) - 1.0) <= 1e-10

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            make_spatial_profiles(0)


class TestRescaled:
    def test_identity_rescale(self, sp):
        f = rescaled(lambda x: phi(sp, x), 1.0)
        x = np.linspace(-1.0, 1.0, 257)
        assert np.abs(f(x) - phi(sp, x)).max() <= 1e-14

    def test_preserves_square_mean_and_peaks(self, sp):
        f = rescaled(lambda x: phi(sp, x), 1.0 / 8.0)
        x = np.linspace(-np.pi, np.pi, (1 << 15) + 1)
        val = np.trapezoid(f(x) ** 2, x) / (2.0 * np.pi)
        assert abs(val - 1.0) <= 1e-10
        dense = np.linspace(-1.0, 1.0, 1 << 15)
        ratio = np.abs(f(dense / 8.0)).max() / np.abs(phi(sp, dense)).max()
        assert abs(ratio - np.sqrt(8.0)) <= 1e-8

    def test_support_shrinks(self, sp):
        r = 1.0 / 8.0
        f = rescaled(sp.psi, r)
        x = np.concatenate([np.linspace(-np.pi, -r, 400), np.linspace(r, np.pi, 400)])
        assert np.abs(f(x)).max() == 0.0

    def test_periodization_matches_on_fundamental_cell(self, sp):
        f = rescaled(sp.psi, 0.5)
        x = np.linspace(-np.pi, np.pi, 501, endpoint=False)
        direct = np.sqrt(2.0) * sp.psi(x / 0.5)
        assert np.abs(f(x) - direct).max() <= 1e-14
        assert np.abs(f(x + 2.0 * np.pi) - f(x)).max() <= 1e-12

    def test_bad_radius_rejected(self, sp):
        for r in (0.0, -0.25, 1.5):
            with pytest.raises(ValueError):
                rescaled(lambda x: phi(sp, x), r)

    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(min_value=0.05, max_value=1.0))
    def test_square_mean_preserved_for_any_radius(self, r):
        sp = make_spatial_profiles(1)
        f = rescaled(lambda x: phi(sp, x), r)
        x = np.linspace(-np.pi, np.pi, (1 << 15) + 1)
        val = np.trapezoid(f(x) ** 2, x) / (2.0 * np.pi)
        assert abs(val - 1.0) <= 1e-7


class TestTemporalProfiles:
    def test_unit_parameters(self):
        tp = make_temporal(None, 1, 1)
        t = circle(1 << 14)
        assert abs(circle_mean(tp.g(t) ** 2) - 1.0) <= 1e-10
        assert np.abs(tp.h(t)).max() <= 1.0

    def test_square_mean_one_across_tau(self):
        t = circle(1 << 15)
        for tau in (2, 4, 8):
            tp = make_temporal(None, tau, 1)
            assert abs(circle_mean(tp.g(t) ** 2) - 1.0) <= 1e-10

    def test_h_sup_bound_uniform(self):
        t = circle(1 << 15)
        for tau, sigma in ((1, 1), (4, 1), (8, 2), (16, 4)):
            tp = make_temporal(None, tau, sigma)
            assert np.abs(tp.h(t)).max() <= 1.0

    def test_h_derivative_identity(self):
        tp = make_temporal(None, 4, 2)
        n = 1 << 14
        t = circle(n)
        spec = np.fft.rfft(tp.h(t))
        k = np.arange(len(spec))
        dh = np.fft.irfft(spec * 1j * k, n)
        target = tp.sigma * (tp.g(t) ** 2 - 1.0)
        assert np.abs(dh - target).max() <= 1e-8

    def test_oscillation_periodicity(self):
        tp = make_temporal(None, 2, 4)
        t = np.linspace(-np.pi, np.pi, 211)
        period = 2.0 * np.pi / tp.sigma
        assert np.abs(tp.g(t + period) - tp.g(t)).max() <= 1e-12
        assert np.abs(tp.h(t) - tp.shape.h_tau(tp.sigma * t, tp.tau)).max() == 0.0

    def test_l1_norm_slope(self):
        taus = (2, 4, 8, 16)
        t = circle(1 << 15)
        norms = [circle_mean(np.abs(make_temporal(None, tau, 1).g(t))) for tau in taus]
        assert abs(fit_loglog(taus, norms) - (-0.5)) <= 0.05

    @pytest.mark.parametrize("m_deriv", [0, 1])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, np.inf])
    def test_scaling_laws(self, m_deriv, gamma):
        taus = (2, 4, 8, 16)
        t = circle(1 << 15)
        norms = []
        for tau in taus:
            vals = np.abs(make_temporal(None, tau, 1).g(t, deriv=m_deriv))
            if np.isinf(gamma):
                norms.append(vals.max())
            else:
                norms.append(circle_mean(vals ** gamma) ** (1.0 / gamma))
        want = m_deriv + 0.5 - (0.0 if np.isinf(gamma) else 1.0 / gamma)
        assert abs(fit_loglog(taus, norms) - want) <= 0.1

    def test_support_measure_law(self):
        t = circle(1 << 16)
        consts = []
        for tau in (2, 4, 8, 16):
            tp = make_temporal(None, tau, 1)
            measured = 2.0 * np.pi * np.mean(np.abs(tp.g_base(t)) > 0)
            # the raw train's support has measure 2 pi / tau
            assert measured <= 2.0 * np.pi / tau + 1e-3
            consts.append(measured * tau)
        assert max(consts) - min(consts) <= 0.05 * max(consts)

    def test_resolution_validator(self):
        # the default train has 8 anchors; 64 slices carry at most band 7
        with pytest.raises(GridResolutionError):
            make_temporal(None, 1, 2, n_t=64)
        # a 2-anchor train fits, and the requested band must still fit
        make_temporal(BumpTrain(m0=2), 1, 2, n_t=64)
        with pytest.raises(GridResolutionError):
            make_temporal(BumpTrain(m0=2), 1, 2, n_t=64, band=8)

    def test_bad_parameters_rejected(self):
        for tau, sigma in ((0, 1), (1, 0), (-2, 1)):
            with pytest.raises(ValueError):
                make_temporal(None, tau, sigma)
        with pytest.raises(ValueError):
            BumpTrain(m0=1)


class TestBumpRule:
    """The one Gauss-Legendre rule behind every integral of the bump."""

    def test_mass_runs_monotonically_from_zero_to_one(self):
        bt = BumpTrain()
        assert bt.mass(-1.0) == 0.0 and bt.mass(1.0) == 1.0
        x = np.linspace(-1.5, 1.5, 3001)
        m = bt.mass(x)
        assert np.all(m[x <= -1.0] == 0.0) and np.all(m[x >= 1.0] == 1.0)
        # monotone up to the rounding of sums near one: beyond |x| = 0.97
        # the squared bump is below one ulp of its integral
        assert np.all(np.diff(m) >= -1e-15)
        assert np.all(np.diff(m)[np.abs(x[1:]) < 0.9] > 0.0)
        assert abs(bt.mass(0.0) - 0.5) <= 1e-15

    @pytest.mark.parametrize("tau", [1, 3, 8])
    def test_each_bump_carries_its_share_of_h(self, tau):
        # across one bump h gains the bump's mass 2 pi / m0 and loses the
        # width of its support
        bt = BumpTrain()
        w = bt.width(tau)
        for a in bt.anchors:
            rise = bt.h_tau(a + w, tau) - bt.h_tau(a - w, tau)
            assert abs(rise - (2.0 * np.pi / bt.m0 - 2.0 * w)) <= 1e-14

    @staticmethod
    def integrals():
        """Every integral the rule serves, for the bump orders in use: the
        squared train bump, c_phi and c_psi, the mollifier symbol at
        omega = 64 (k ell on the benchmark grids) and the train's mass."""
        out = []
        for order in (1, 2):
            sp = make_spatial_profiles(order)
            out += [profiles.bump_integral(BumpTrain(order=order)._square),
                    sp.c_phi, sp.c_psi]
        return (np.array(out), Mollifier(1.0).spatial_symbol(64.0)[0],
                BumpTrain().mass(np.linspace(-0.999, 0.999, 999)))

    def test_rule_agrees_with_twice_the_nodes(self, monkeypatch):
        values, symbol, mass = self.integrals()
        finer = profiles._gauss_rule(2 * profiles._GAUSS_N)
        monkeypatch.setattr(profiles, "_gauss_rule", lambda: finer)
        fine_values, fine_symbol, fine_mass = self.integrals()
        assert np.abs(values / fine_values - 1.0).max() <= 1e-15
        # the symbol and the mass are measured against their peak, one
        assert abs(symbol - fine_symbol) <= 1e-15
        assert np.abs(mass - fine_mass).max() <= 1e-15

    def test_setup_imports_no_scipy_quadrature(self):
        # the step and the benchmark set-up need numpy and scipy.fft only
        script = (
            "import sys\n"
            "import cilab\n"
            "from cilab import (amplitudes, blocks, geometry, mollify,\n"
            "                   perturbations, profiles)\n"
            "geometry.build_geometry()\n"
            "profiles.make_spatial_profiles()\n"
            "profiles.make_temporal(profiles.BumpTrain(m0=2), tau=1, sigma=1,\n"
            "                       n_t=16)\n"
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.interpolate',\n"
            "                           'scipy.optimize') if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(cilab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestBandedTemporalPair:
    def lattice(self, n_t):
        return -np.pi + 2.0 * np.pi * np.arange(n_t) / n_t

    def test_lattice_square_mean_exactly_one(self):
        n_t = 32
        tp = make_temporal(BumpTrain(m0=2), 1, 2, n_t=n_t, band=2)
        assert tp.band_g is not None
        g = tp.g(self.lattice(n_t))
        assert abs(g.dot(g) / n_t - 1.0) <= 1e-13

    def test_primitive_identity_exact_on_lattice(self):
        n_t = 32
        tp = make_temporal(BumpTrain(m0=2), 1, 2, n_t=n_t, band=2)
        t = self.lattice(n_t)
        spec = np.fft.rfft(tp.h(t))
        k = np.arange(len(spec))
        dh = np.fft.irfft(spec * 1j * k, n_t)
        target = tp.sigma * (tp.g(t) ** 2 - 1.0)
        assert np.abs(dh - target).max() <= 1e-12

    def test_anchor_and_band(self):
        tp = make_temporal(BumpTrain(m0=2), 1, 3, n_t=128, band=4)
        assert abs(tp.h(np.array(-np.pi))) <= 1e-12
        # dilation moves every harmonic to a multiple of sigma
        coef = tp.band_g.coef
        live = np.flatnonzero(np.abs(coef) > 1e-14)
        assert all(n % 3 == 0 for n in live)

    def test_band_default_is_largest_alias_free(self):
        tp = make_temporal(BumpTrain(m0=2), 1, 2, n_t=64)
        assert tp.band_g.n_harmonics == 2 * ((64 - 2) // 8)

    def test_banded_tracks_raw_train_when_band_ample(self):
        t = np.linspace(-np.pi, np.pi, 501)
        tp = make_temporal(BumpTrain(m0=2), 1, 1, band=40)
        raw = tp.g_base(t)
        assert np.abs(tp.g(t) - raw).max() <= 2e-3 * np.abs(raw).max()


class TestBandProfile:
    def test_projection_recovers_pure_harmonic(self):
        bp = band_project(lambda s: np.sin(3.0 * s), 5)
        assert abs(bp.coef[3] - (-0.5j)) <= 1e-12
        mask = np.ones(6, dtype=bool)
        mask[3] = False
        assert np.abs(bp.coef[mask]).max() <= 1e-12
        s = circle(64)
        assert np.abs(bp(s) - np.sin(3.0 * s)).max() <= 1e-12

    def test_mean_and_mean_sq(self):
        bp = band_project(lambda s: 2.0 + np.sin(3.0 * s), 4)
        assert abs(bp.mean() - 2.0) <= 1e-12
        assert abs(bp.mean_sq() - 4.5) <= 1e-12

    def test_lattice_parseval(self):
        rng = np.random.default_rng(7)
        coef = rng.normal(size=7) + 1j * rng.normal(size=7)
        coef[0] = coef[0].real
        bp = BandProfile(coef)
        vals = lattice_values(bp, 16)
        assert abs(np.mean(vals ** 2) - bp.mean_sq()) <= 1e-12

    def test_lattice_too_coarse_rejected(self):
        bp = BandProfile(np.ones(7))
        with pytest.raises(GridResolutionError):
            lattice_values(bp, 12)

    def test_renormalization_exact(self):
        bp = band_project(lambda s: 0.3 * np.cos(s) + 0.1 * np.sin(5.0 * s), 6)
        rn = bp.renormalized(1.0)
        assert abs(rn.mean_sq() - 1.0) <= 1e-14
        vals = lattice_values(rn, 32)
        assert abs(np.mean(vals ** 2) - 1.0) <= 1e-13

    def test_derivative_matches_spectral(self):
        sp = make_spatial_profiles(1)
        bp = band_project(rescaled(sp.Phi, 0.5), 40)
        n = 256
        s = circle(n)
        spec = np.fft.rfft(bp(s))
        k = np.arange(len(spec))
        oracle = np.fft.irfft(spec * (1j * k) ** 2, n)
        assert np.abs(bp.derivative(2)(s) - oracle).max() <= 1e-10

    def test_zero_mean_strips_constant(self):
        bp = band_project(lambda s: 1.5 + np.cos(2.0 * s), 3)
        assert bp.zero_mean().mean() == 0.0

    def test_band_projection_of_profile_converges(self):
        sp = make_spatial_profiles(1)
        f = rescaled(lambda x: phi(sp, x), 0.25)
        bp = band_project(f, 60).renormalized(1.0)
        assert abs(bp.mean_sq() - 1.0) <= 1e-14
        # truncated mass increases toward the full normalization
        masses = [band_project(f, k).mean_sq() for k in (60, 100, 400)]
        assert masses[0] < masses[1] < masses[2]
        assert abs(masses[2] - 1.0) <= 1e-3

    def test_construction_copies_the_coefficients(self):
        want = [1.0, 0.5 - 0.25j, 0.125j]
        coef = np.array(want)
        bp = BandProfile(coef)
        assert coef.flags.writeable
        assert not np.shares_memory(coef, bp.coef)
        assert not bp.coef.flags.writeable
        assert np.array_equal(coef, want) and np.array_equal(bp.coef, want)
        coef[1] = 7.0
        assert np.array_equal(bp.coef, want)

    def test_complex_mean_rejected(self):
        with pytest.raises(ValueError):
            BandProfile(np.array([1.0 + 1.0j, 0.0]))
