"""Mollification kernels, the commutator stresses, and closure of the
mollified system."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import cilab.mollify as mollify_module
from cilab import spectral
from cilab.checks import gate
from cilab.field import Field, ddt, div_tensor, dot, grad, to_spectral
from cilab.grid import Grid4, GridResolutionError
from cilab.mollify import (
    Mollifier, commutator_stresses, mollified_pressure, mollify,
)
from cilab.profiles import fit_loglog

from conftest import random_divfree, random_field
from test_spectral_ops import (
    frac_laplacian, noise_slice, rel_max, traced_peak,
)
from oracles import (
    _outer, _skew, _sym, axes, commutator_reference, mollify_4d, mollify_fft,
    per_slice, spatial_kernel, temporal_kernel, to_physical,
)

E2 = np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def grid():
    # dt floor 0.436, dx floor 0.785: ell = 0.9 is the working scale here
    return Grid4(n_t=64, n_x=16)


@pytest.fixture(scope="module")
def closure_grid():
    return Grid4(n_t=32, n_x=32)


def x_profile_field(grid, values_x, direction=None):
    """Field depending on x1 only, optionally a fixed-direction vector."""
    data = np.broadcast_to(values_x[None, :, None, None], grid.shape)
    if direction is not None:
        data = np.broadcast_to(data[..., None] * direction,
                               grid.shape + (3,))
    return Field(data.copy(), grid, _take=True)


def t_profile_field(grid, values_t, direction):
    data = np.broadcast_to(values_t[:, None, None, None, None] * direction,
                           grid.shape + (3,))
    return Field(data.copy(), grid, _take=True)


class TestMollifierKernels:
    def test_scale_validation(self):
        for ell in (0.0, -0.5, np.pi, 4.0):
            with pytest.raises(ValueError):
                Mollifier(ell)

    @pytest.mark.parametrize("ell", [0.3, 0.9, 2.0])
    def test_unit_mass_and_sign(self, ell):
        mol = Mollifier(ell)
        s = np.linspace(-ell, ell, 20001)
        spatial = spatial_kernel(mol, s)
        assert spatial.min() >= 0.0
        assert abs(np.trapezoid(spatial, s) - 1.0) < 1e-10
        ts = np.linspace(0.0, 0.9 * ell, 20001)
        temporal = temporal_kernel(mol, ts)
        assert temporal.min() >= 0.0
        assert abs(np.trapezoid(temporal, ts) - 1.0) < 1e-10

    def test_temporal_support_one_sided_inside_ell(self):
        ell = 1.1
        mol = Mollifier(ell)
        outside = np.array([-ell, -0.5 * ell, -1e-6, 0.9 * ell + 1e-6, ell])
        assert np.all(temporal_kernel(mol, outside) == 0.0)
        inside = np.array([0.2 * ell, 0.45 * ell, 0.7 * ell])
        assert np.all(temporal_kernel(mol, inside) > 0.0)

    def test_symbols_normalized_and_contractive(self):
        mol = Mollifier(0.7)
        assert mol.spatial_symbol(0.0)[0] == pytest.approx(1.0, abs=1e-14)
        assert abs(mol.temporal_symbol(0.0)[0] - 1.0) < 1e-14
        k = np.arange(1, 41)
        assert np.all(np.abs(mol.spatial_symbol(k)) <= 1.0)
        assert np.all(np.abs(mol.temporal_symbol(k)) < 1.0)

    def test_temporal_symbol_hermitian(self):
        mol = Mollifier(0.9)
        k = np.arange(1, 12)
        assert np.allclose(mol.temporal_symbol(-k),
                           np.conj(mol.temporal_symbol(k)), atol=1e-14)

    @pytest.mark.parametrize("ell,k", [(0.5, 1), (0.9, 2), (1.4, 3)])
    def test_spatial_symbol_matches_kernel_quadrature(self, ell, k):
        # independent oracle: trapezoid rule on the sampled kernel
        mol = Mollifier(ell)
        s = np.linspace(-ell, ell, 20001)
        oracle = np.trapezoid(spatial_kernel(mol, s) * np.cos(k * s), s)
        assert abs(float(mol.spatial_symbol(k)[0]) - oracle) < 1e-10

    def test_temporal_symbol_matches_kernel_quadrature(self):
        ell, k = 0.8, 2
        mol = Mollifier(ell)
        s = np.linspace(0.0, 0.9 * ell, 20001)
        kern = temporal_kernel(mol, s)
        oracle = (np.trapezoid(kern * np.cos(k * s), s)
                  - 1j * np.trapezoid(kern * np.sin(k * s), s))
        assert abs(mol.temporal_symbol(k)[0] - oracle) < 1e-10


class TestMollify:
    def test_constant_unchanged(self, grid):
        f = Field(np.full(grid.shape, 2.5), grid)
        assert (mollify(f, 0.9) - f).max_abs() < 1e-13

    def test_sin_is_eigenfunction(self, grid):
        x1 = axes(grid)[1]
        f = Field(np.broadcast_to(np.sin(x1), grid.shape).copy(), grid)
        ell = 0.9
        damped = mollify(f, ell)
        c = float(Mollifier(ell).spatial_symbol(1.0)[0])
        assert 0.0 < c <= 1.0
        assert np.abs(damped.data - c * np.sin(x1)).max() < 1e-13

    def test_damping_approaches_one(self, grid):
        cs = [float(Mollifier(ell).spatial_symbol(1.0)[0])
              for ell in (1.6, 1.2, 0.9, 0.6, 0.45)]
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert cs[-1] > 0.98
        assert all(0.0 < c <= 1.0 for c in cs)

    def test_time_harmonic_damped_and_lagged(self, grid):
        # one-sided kernel: cos(t) picks up the full complex symbol
        t = axes(grid)[0]
        f = Field(np.broadcast_to(np.cos(t), grid.shape).copy(), grid)
        ell = 0.9
        sym = Mollifier(ell).temporal_symbol(1)[0]
        want = np.real(sym * np.exp(1j * t))
        assert np.abs(mollify(f, ell).data - want).max() < 1e-13

    def test_mean_preserved(self, grid):
        f = random_field(grid, np.random.default_rng(3), 0)
        assert abs(mollify(f, 0.9).data.mean() - f.data.mean()) < 1e-13

    def test_divergence_free_preserved(self, grid):
        u = random_divfree(grid, np.random.default_rng(5))
        assert np.abs(per_slice(spectral.div, mollify(u, 0.9).data)).max() < 1e-10

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_commutes_with_spatial_derivatives(self, grid, seed):
        f = random_field(grid, np.random.default_rng(seed), 0)
        lhs = mollify(grad(f), 0.9)
        rhs = grad(mollify(f, 0.9))
        scale = max(rhs.max_abs(), 1e-300)
        assert (lhs - rhs).max_abs() < 1e-12 * scale

    @pytest.mark.parametrize("comp", [(), (3,), (3, 3)])
    def test_is_the_explicit_4d_multiplier(self, grid, comp):
        # the product of the four symbols on wavenumber tables of the
        # test's own, applied to samples with every mode occupied; the
        # time-Nyquist mode takes the real part of its symbol, as D does
        ell = 0.9
        mol = Mollifier(ell)
        rng = np.random.default_rng(11)
        f = Field(rng.normal(size=grid.shape + comp), grid, _take=True)
        kt = np.fft.fftfreq(grid.n_t, 1.0 / grid.n_t)
        kx = np.fft.fftfreq(grid.n_x, 1.0 / grid.n_x)
        kh = np.fft.rfftfreq(grid.n_x, 1.0 / grid.n_x)
        time = mol.temporal_symbol(kt)
        time[grid.n_t // 2] = time[grid.n_t // 2].real
        mult = (time[:, None, None, None]
                * mol.spatial_symbol(kx)[None, :, None, None]
                * mol.spatial_symbol(kx)[None, None, :, None]
                * mol.spatial_symbol(kh)[None, None, None, :])
        mult = mult.reshape(mult.shape + (1,) * len(comp))
        want = to_physical(to_spectral(f.data, grid) * mult, grid)
        got = mollify(f, ell).data
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_matches_the_space_time_multiplier_when_band_limited(
            self, grid, rank):
        # below the time-Nyquist mode the separable passes and the complex
        # symbol on the whole space-time spectrum agree to the rounding of
        # transforms of the input, whose peak is the scale
        f = random_field(grid, np.random.default_rng(13), rank, k_max=6)
        want = mollify_4d(f.data, grid, 0.9)
        got = mollify(f, 0.9).data
        assert np.abs(got - want).max() <= 1e-15 * f.max_abs()

    @pytest.mark.parametrize("band", [False, True], ids=["noise", "band"])
    @pytest.mark.parametrize("n", [8, 38, 48, 64])
    def test_is_the_fft_form(self, n, band):
        # the spatial matrix along each axis against the product symbol on
        # each slice's 3D spectrum (tests/oracles.py)
        g = Grid4(16, n)
        data = np.stack([noise_slice(n, (), band, n + j) for j in range(16)])
        got = mollify(Field(data, g, _take=True), 2.0).data
        assert rel_max(got, mollify_fft(data, g, 2.0)) <= 1e-14

    @pytest.mark.parametrize("project,sign", [(_sym, 1.0), (_skew, -1.0)],
                             ids=["sym", "skew"])
    def test_exact_class_stresses_keep_their_class(self, grid, project, sign):
        # an entry and its mirror, equal up to an exact sign, go through
        # the same matrix products, so an exactly symmetric or skew stress
        # keeps its class bit for bit; a skew zero diagonal stays zero
        data = project(random_field(grid, np.random.default_rng(17), 2).data)
        got = mollify(Field(data, grid, _take=True), 0.9).data
        assert np.array_equal(got, sign * np.swapaxes(got, 4, 5))
        if sign < 0:
            assert not np.diagonal(got, axis1=4, axis2=5).any()
        assert rel_max(got, mollify_fft(data, grid, 0.9)) <= 1e-14
        # one entry off its class: the output leaves the class too
        data = data.copy()
        data[3, 1, 2, 3, 0, 1] += 0.5
        generic = mollify(Field(data, grid, _take=True), 0.9).data
        assert not np.array_equal(generic, sign * np.swapaxes(generic, 4, 5))
        assert rel_max(generic, mollify_fft(data, grid, 0.9)) <= 1e-14

    @pytest.mark.parametrize("project,sign,zero_slices,calls", [
        (_skew, -1.0, (0,), 270), (_sym, 1.0, (), 432)],
        ids=["skew_first_slice_zero", "sym_dense"])
    def test_smooths_each_nonzero_component_slice_once(
            self, monkeypatch, project, sign, zero_slices, calls):
        # three spatial passes per nonzero component slice and none for a
        # zero one: 15 slices of 6 off-diagonal skew entries, 16 slices of
        # all 9 symmetric ones
        g = Grid4(16, 16)
        data = project(random_field(g, np.random.default_rng(5), 2).data)
        data[list(zero_slices)] = 0.0
        seen = []
        along = spectral.along

        def counted(*args):
            seen.append(1)
            return along(*args)

        monkeypatch.setattr(spectral, "along", counted)
        got = mollify(Field(data, g, _take=True), 2.0).data
        assert len(seen) == calls
        assert np.array_equal(got, sign * np.swapaxes(got, 4, 5))
        assert rel_max(got, mollify_fft(data, g, 2.0)) <= 1e-14

    @pytest.mark.parametrize("comp", [(), (3,), (3, 3)])
    def test_zero_stays_exactly_zero(self, grid, comp):
        zero = Field(np.zeros(grid.shape + comp), grid)
        assert not mollify(zero, 0.9).data.any()

    def test_unresolvable_scale_rejected(self, grid):
        f = Field(np.zeros(grid.shape), grid)
        with pytest.raises(GridResolutionError):
            mollify(f, 0.5)  # below the spatial floor 2 dx = 0.785
        coarse_t = Grid4(n_t=16, n_x=32)
        with pytest.raises(GridResolutionError):
            mollify(Field(np.zeros(coarse_t.shape), coarse_t), 1.0)
        mollify(Field(np.zeros(coarse_t.shape), coarse_t), 1.9)


class TestCommutatorStresses:
    def test_constants_give_zero(self, grid):
        u = Field(np.broadcast_to(np.array([1.0, -2.0, 0.5]),
                                  grid.shape + (3,)).copy(), grid)
        b = Field(np.broadcast_to(np.array([0.3, 0.0, -1.1]),
                                  grid.shape + (3,)).copy(), grid)
        r_u, r_b = commutator_stresses(u, b, mollify(u, 0.9),
                                       mollify(b, 0.9), 0.9)
        assert r_u.max_abs() < 1e-12
        assert r_b.max_abs() < 1e-12

    def test_mismatched_inputs_rejected(self, grid):
        rng = np.random.default_rng(11)
        u = random_divfree(grid, rng)
        b = random_divfree(grid, rng)
        u_l, b_l = mollify(u, 0.9), mollify(b, 0.9)
        with pytest.raises(ValueError, match="u_l"):
            commutator_stresses(u, b, u, b_l, 0.9)
        with pytest.raises(ValueError, match="B_l"):
            commutator_stresses(u, b, u_l, mollify(b, 1.2), 0.9)

    @pytest.mark.parametrize("arg,bad", [
        ("u_q", "scalar"), ("B_q", "grid"), ("u_l", "scalar"),
        ("B_l", "grid")])
    def test_non_vector_or_off_grid_input_rejected_before_any_work(
            self, grid, monkeypatch, arg, bad):
        rng = np.random.default_rng(11)
        u = random_divfree(grid, rng)
        b = random_divfree(grid, rng)
        args = {"u_q": u, "B_q": b, "u_l": mollify(u, 0.9),
                "B_l": mollify(b, 0.9)}
        if bad == "scalar":
            args[arg] = Field(args[arg].data[..., 0].copy(), grid, _take=True)
            match = f"{arg} must be a vector field"
        else:
            other = Grid4(n_t=32, n_x=16)
            args[arg] = Field(args[arg].data[::2].copy(), other, _take=True)
            match = f"{arg} lives on a different grid"
        seen = []
        monkeypatch.setattr(spectral, "along", lambda *a: seen.append(1))
        with pytest.raises(ValueError, match=match):
            commutator_stresses(*args.values(), 0.9)
        assert not seen

    def test_nan_state_rejected(self, grid):
        # a NaN in u_q spreads over its mollification, so the defect of u_l
        # is NaN, which no tolerance admits
        rng = np.random.default_rng(11)
        u = random_divfree(grid, rng)
        b = random_divfree(grid, rng)
        u_l, b_l = mollify(u, 0.9), mollify(b, 0.9)
        data = u.data.copy()
        data[3, 1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="^u_l .* relative defect nan"):
            commutator_stresses(Field(data, grid, _take=True), b, u_l, b_l,
                                0.9)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_compact_algebra_matches_full_reference(self, grid, threads,
                                                    monkeypatch):
        # the compact lift, subtraction and projection give the full 3x3
        # algebra's stresses and projection defects bit for bit
        rng = np.random.default_rng(29)
        u = random_divfree(grid, rng)
        b = random_divfree(grid, rng)
        u_l, b_l = mollify(u, 0.9), mollify(b, 0.9)
        defects = []

        def recording_gate(report, gates, error):
            if "velocity_commutator" in report:
                defects.extend(report[key] for key in ("velocity_commutator",
                                                       "magnetic_commutator"))
            return gate(report, gates, error)

        monkeypatch.setenv("CILAB_THREADS", threads)
        monkeypatch.setattr(mollify_module, "gate", recording_gate)
        r_u, r_b = commutator_stresses(u, b, u_l, b_l, 0.9)
        want_u, defect_u, want_b, defect_b = commutator_reference(
            u, b, u_l, b_l, 0.9)
        qscale = max(u.max_abs(), b.max_abs()) ** 2
        assert np.array_equal(r_u.data, want_u)
        assert np.array_equal(r_b.data, want_b)
        assert defects == [defect_u / qscale, defect_b / qscale]
        assert defect_u > 0.0

    def test_outputs_do_not_depend_on_the_pool_width(self, grid,
                                                     monkeypatch):
        # the time matrix runs on the pool with BLAS pinned to one thread,
        # and its width-1 loop must give the same bits
        rng = np.random.default_rng(31)
        u = random_divfree(grid, rng)
        b = random_divfree(grid, rng)
        r = random_field(grid, rng, 2)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CILAB_THREADS", threads)
            u_l, b_l = mollify(u, 0.9), mollify(b, 0.9)
            outputs.append((u_l.data, b_l.data, mollify(r, 0.9).data)
                           + tuple(c.data for c in commutator_stresses(
                               u, b, u_l, b_l, 0.9)))
        for serial, pooled in zip(*outputs):
            assert np.array_equal(serial, pooled)

    def test_symmetry_classes_exact(self, closure_grid):
        rng = np.random.default_rng(23)
        u = random_divfree(closure_grid, rng)
        b = random_divfree(closure_grid, rng)
        r_u, r_b = commutator_stresses(u, b, mollify(u, 0.9),
                                       mollify(b, 0.9), 0.9)
        swap_u = np.swapaxes(r_u.data, 4, 5)
        assert np.abs(r_u.data - swap_u).max() == 0.0
        trace = r_u.data[..., 0, 0] + r_u.data[..., 1, 1] + r_u.data[..., 2, 2]
        assert np.abs(trace).max() < 1e-13 * r_u.max_abs()
        assert np.abs(r_b.data + np.swapaxes(r_b.data, 4, 5)).max() == 0.0

    @pytest.mark.parametrize("magnetic", [False, True])
    def test_single_harmonic_closed_form(self, grid, magnetic):
        # u = A sin(x1) e2: the quadratic commutator reduces to damped
        # sin^2 with symbol factors at wavenumbers one and two
        amp, ell = 1.3, 0.9
        x1 = axes(grid)[1][0, :, 0, 0]
        f = x_profile_field(grid, amp * np.sin(x1), E2)
        zero = Field(np.zeros(grid.shape + (3,)), grid)
        mol = Mollifier(ell)
        if magnetic:
            r_u, r_b = commutator_stresses(zero, f, zero, mol.apply(f), ell)
            sign = -1.0
        else:
            r_u, r_b = commutator_stresses(f, zero, mol.apply(f), zero, ell)
            sign = 1.0
        c1 = float(mol.spatial_symbol(1.0)[0])
        c2 = float(mol.spatial_symbol(2.0)[0])
        bracket = amp ** 2 * (c1 ** 2 * np.sin(x1) ** 2
                              - 0.5 * (1.0 - c2 * np.cos(2.0 * x1)))
        shape = np.outer(E2, E2) - np.eye(3) / 3.0
        want = sign * bracket[None, :, None, None, None, None] * shape
        assert np.abs(r_u.data - want).max() < 1e-12 * np.abs(want).max()
        assert r_b.max_abs() < 1e-14

    def test_scale_sweep_first_order_law(self):
        # Hoelder-1/2 time profile: Fourier amplitudes 1/n with quadratic
        # golden phases. The kernel is nonnegative, so the commutator is
        # pointwise nonpositive (Jensen) and its L1 norm equals the
        # space-time mean, which Parseval turns into an exact symbol sum;
        # against a rough path that sum follows the first-order law. The
        # sup norm is asserted monotone but not fitted: one sample path's
        # peak statistic wobbles with the phase draw.
        g = Grid4(n_t=256, n_x=16)
        t = g.t()
        n = np.arange(1, 64)
        phases = np.pi * 0.5 * (np.sqrt(5.0) - 1.0) * n * n
        tau = (np.cos(np.multiply.outer(t, n) + phases) / n).sum(axis=1)
        u = t_profile_field(g, tau, E2)
        zero = Field(np.zeros(g.shape + (3,)), g)
        sweep = np.geomspace(0.8, 1.5, 5)
        sup_sizes, l1_sizes, oracles = [], [], []
        for ell in sweep:
            r_u, _ = commutator_stresses(u, zero, mollify(u, ell), zero, ell)
            sup_sizes.append(r_u.max_abs())
            assert r_u.data[..., 1, 1].max() < 1e-12  # nonpositive entry
            l1_sizes.append(np.abs(r_u.data[..., 1, 1]).mean())
            sym2 = np.abs(Mollifier(ell).temporal_symbol(n)) ** 2
            oracles.append((2.0 / 3.0) * float(
                ((1.0 / n) ** 2 * (1.0 - sym2)).sum() / 2.0))
            del r_u
        assert all(np.diff(sup_sizes) > 0.0)  # decreases as ell -> 0
        np.testing.assert_allclose(l1_sizes, oracles, rtol=1e-10)
        slope = fit_loglog(sweep, np.array(l1_sizes))
        assert abs(slope - 1.0) <= 0.2
        assert slope == pytest.approx(0.98894920, abs=1e-5)


class TestWorkingSet:
    """The mollifier smooths one component of a slice at a time, and
    the commutators write their compact fluxes into the array they
    mollify and project them column by column in place, so a thread
    holds about one slice of temporaries."""

    ELL = 2.0

    @pytest.fixture(scope="class")
    def state(self):
        grid = Grid4(16, 32)
        rng = np.random.default_rng(21)
        u, b = random_divfree(grid, rng), random_divfree(grid, rng)
        return u, b, random_field(grid, rng, rank=2)

    # traced peak above the output, in output time slices: 20% over the
    # measured 1.18 (vector) and 1.06 (3x3) on one thread and 2.27 and
    # 2.09 on two. One transform pair over all components of a slice took
    # 2.24 and 2.18, 4.35 and 4.20.
    @pytest.mark.parametrize("rank,threads,budget", [
        (1, "1", 1.42), (2, "1", 1.27), (1, "2", 2.72), (2, "2", 2.51)])
    def test_mollify_peak(self, state, monkeypatch, rank, threads, budget):
        monkeypatch.setenv("CILAB_THREADS", threads)
        f = state[2] if rank == 2 else state[0]
        peak, out = traced_peak(mollify, f, self.ELL)
        slice_bytes = out.data.nbytes // f.grid.n_t
        assert (peak - out.data.nbytes) / slice_bytes <= budget

    # traced peak above the two 3x3 outputs and the skew commutator's
    # mollified flux, seven vector fields in all, in vector time slices:
    # 20% over the measured 1.7 (one thread) and 3.4 (two). Whole-slice
    # transforms with gathered fluxes and a full-size projection defect
    # took 4.0 and 8.0.
    @pytest.mark.parametrize("threads,budget", [("1", 2.0), ("2", 4.1)])
    def test_commutator_peak(self, state, monkeypatch, threads, budget):
        u, b, _ = state
        u_l, b_l = mollify(u, self.ELL), mollify(b, self.ELL)
        monkeypatch.setenv("CILAB_THREADS", threads)
        peak, _ = traced_peak(commutator_stresses, u, b, u_l, b_l, self.ELL)
        field = u.data.nbytes
        assert (peak - 7 * field) / (field // u.grid.n_t) <= budget


class TestMollifiedPressure:
    def test_zero_velocity_reduces_to_mollified_pressure(self, grid):
        p = random_field(grid, np.random.default_rng(2), 0, mean_free=True)
        zero = Field(np.zeros(grid.shape + (3,)), grid)
        got = mollified_pressure(p, zero, zero, zero, zero, 0.9)
        assert (got - mollify(p, 0.9)).max_abs() < 1e-13

    def test_constant_velocity_cancels(self, grid):
        p = random_field(grid, np.random.default_rng(4), 0, mean_free=True)
        u = Field(np.broadcast_to(np.array([1.0, 2.0, -0.5]),
                                  grid.shape + (3,)).copy(), grid)
        zero = Field(np.zeros(grid.shape + (3,)), grid)
        got = mollified_pressure(p, u, zero, mollify(u, 0.9), zero, 0.9)
        assert (got - mollify(p, 0.9)).max_abs() < 1e-13

    def test_output_mean_free(self, closure_grid):
        rng = np.random.default_rng(8)
        u = random_divfree(closure_grid, rng)
        b = random_divfree(closure_grid, rng)
        p = random_field(closure_grid, rng, 0, mean_free=True)
        got = mollified_pressure(p, u, b, mollify(u, 0.9), mollify(b, 0.9), 0.9)
        assert np.abs(got.spatial_means()).max() < 1e-13 * got.max_abs()


@pytest.fixture(scope="module")
def closure_fields(closure_grid):
    rng = np.random.default_rng(42)
    u = random_divfree(closure_grid, rng)
    b = random_divfree(closure_grid, rng)
    p = random_field(closure_grid, rng, 0, mean_free=True)
    ell = 0.9
    return u, b, p, mollify(u, ell), mollify(b, ell), ell


class TestMollifiedSystemClosure:
    """Substituting the mollified fields, commutator stresses, and the
    closure pressure into the relaxed balance laws must reproduce the
    mollification of the original residual exactly."""

    NU, ETA = 0.7, 0.4

    @staticmethod
    def dissipation(f, alpha):
        """(-Laplace)^alpha f, the slice kernel on every time slice."""
        return Field(frac_laplacian(f.data, alpha), f.grid, _take=True)

    def momentum(self, u, b, p, alpha):
        return (ddt(u) + self.NU * self.dissipation(u, alpha)
                + div_tensor(Field(_outer(u.data, u.data)
                                   - _outer(b.data, b.data), u.grid))
                + grad(p))

    def induction(self, u, b, alpha):
        return (ddt(b) + self.ETA * self.dissipation(b, alpha)
                + div_tensor(Field(_outer(b.data, u.data)
                                   - _outer(u.data, b.data), u.grid)))

    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    def test_momentum_closure(self, closure_fields, alpha):
        u, b, p, u_l, b_l, ell = closure_fields
        r_u, _ = commutator_stresses(u, b, u_l, b_l, ell)
        p_l = mollified_pressure(p, u, b, u_l, b_l, ell)
        lhs = self.momentum(u_l, b_l, p_l, alpha) - div_tensor(r_u)
        rhs = mollify(self.momentum(u, b, p, alpha), ell)
        assert (lhs - rhs).max_abs() < 1e-11 * max(rhs.max_abs(), 1.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    def test_induction_closure(self, closure_fields, alpha):
        u, b, p, u_l, b_l, ell = closure_fields
        _, r_b = commutator_stresses(u, b, u_l, b_l, ell)
        lhs = self.induction(u_l, b_l, alpha) - div_tensor(r_b)
        rhs = mollify(self.induction(u, b, alpha), ell)
        assert (lhs - rhs).max_abs() < 1e-11 * max(rhs.max_abs(), 1.0)

    def test_full_trace_pressure_does_not_close(self, closure_fields):
        # guard for the shipped 1/3 trace weights: carrying the full
        # squared magnitudes leaves an order-one gradient residual
        u, b, p, u_l, b_l, ell = closure_fields
        r_u, _ = commutator_stresses(u, b, u_l, b_l, ell)
        bad = (mollify(p, ell) - (dot(u_l, u_l) - dot(b_l, b_l))
               + mollify(dot(u, u) - dot(b, b), ell))
        bad = Field(bad.data - bad.spatial_means()[:, None, None, None],
                    bad.grid, _take=True)
        lhs = self.momentum(u_l, b_l, bad, 1.0) - div_tensor(r_u)
        rhs = mollify(self.momentum(u, b, p, 1.0), ell)
        assert (lhs - rhs).max_abs() > 0.1 * rhs.max_abs()
