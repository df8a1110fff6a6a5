"""Field layer: transforms, norms, tensor algebra, calculus."""

import numpy as np
import pytest

from cilab import spectral
from cilab.field import (
    SKEW_PAIRS, SYM_PAIRS, Field, ddt, ddt_slice, div_tensor, dot, expand,
    grad, lebesgue_norm, to_spectral,
)
from cilab.grid import Grid4, GridResolutionError

from conftest import random_field
from oracles import (
    _outer, _skew, _sym, _traceless, axes, per_slice, spectral_derivative,
    to_physical,
)

PI = np.pi


class TestGrid:
    def test_spacings(self, small_grid):
        assert small_grid.dt == pytest.approx(2 * PI / 16)
        assert small_grid.dx == pytest.approx(2 * PI / 16)

    @pytest.mark.parametrize("nt,nx", [(12, 16), (16, 15), (4, 16), (16, 6)])
    def test_rejects_bad_sizes(self, nt, nx):
        with pytest.raises(GridResolutionError):
            Grid4(nt, nx)

    def test_axes_cover_box(self, small_grid):
        t, x1, _, _ = axes(small_grid)
        assert t.min() == pytest.approx(-PI)
        assert t.max() == pytest.approx(PI - small_grid.dt)
        assert x1.ravel()[1] - x1.ravel()[0] == pytest.approx(small_grid.dx)


class TestTransforms:
    def test_round_trip(self, small_grid):
        rng = np.random.default_rng(7)
        f = random_field(small_grid, rng)
        back = to_physical(to_spectral(f.data, small_grid), small_grid)
        assert np.abs(back - f.data).max() <= 1e-12 * np.abs(f.data).max()

    def test_zero_coefficient_is_mean(self, small_grid):
        rng = np.random.default_rng(8)
        f = random_field(small_grid, rng)
        c0 = to_spectral(f.data, small_grid)[0, 0, 0, 0]
        assert c0 == pytest.approx(f.data.mean(), abs=1e-13)
        assert abs(c0.imag) <= 1e-14

    def test_parseval(self, small_grid):
        rng = np.random.default_rng(9)
        f = random_field(small_grid, rng)
        spec = to_spectral(f.data, small_grid)
        # the half spectrum stores one of each conjugate pair on the
        # interior k3 planes, 0 < k3 < n/2, so those count twice
        k3 = np.arange(spec.shape[-1])
        twice = (k3 > 0) & (k3 < small_grid.n_x // 2)
        power = (np.where(twice, 2.0, 1.0) * np.abs(spec) ** 2).sum()
        l2 = lebesgue_norm(f, 2, 2)
        assert np.sqrt(power * (2 * PI) ** 4) == pytest.approx(l2, rel=1e-10)

    def test_immutable(self, small_grid):
        f = Field(np.ones(small_grid.shape), small_grid)
        with pytest.raises(ValueError):
            f.data[0, 0, 0, 0] = 2.0

    @pytest.mark.parametrize("special", [None, -0.0, np.nan])
    def test_max_abs_is_the_largest_magnitude(self, small_grid, special):
        rng = np.random.default_rng(9)
        for data in (rng.normal(size=small_grid.shape),
                     -np.abs(rng.normal(size=small_grid.shape)),
                     np.full(small_grid.shape, -0.0)):
            if special is not None:
                data[3, 1, 4, 1] = special
            f = Field(data, small_grid, _take=True)
            want = np.abs(f.data).max()
            # bitwise: same value, same sign of zero, NaN for NaN
            assert np.array_equal(f.max_abs(), want, equal_nan=True)
            assert np.signbit(f.max_abs()) == np.signbit(want)


class TestNorms:
    def test_sin_l2_oracle(self, small_grid):
        # integral of sin^2(x3) over the spatial box is 4 pi^3
        _, _, _, x3 = axes(small_grid)
        f = Field(np.broadcast_to(np.sin(x3), small_grid.shape).copy(), small_grid)
        val = lebesgue_norm(f, np.inf, 2)
        assert val ** 2 == pytest.approx(4 * PI ** 3, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_constant_lp_oracle(self, small_grid, p):
        f = Field(np.ones(small_grid.shape), small_grid)
        val = lebesgue_norm(f, np.inf, p)
        assert val == pytest.approx((8 * PI ** 3) ** (1.0 / p), rel=1e-12)

    def test_p_monotonicity_of_averaged_norms(self, small_grid):
        rng = np.random.default_rng(10)
        f = random_field(small_grid, rng)
        vol = (2 * PI) ** 3
        prev = 0.0
        for p in (1.0, 2.0, 3.0, 6.0):
            avg = lebesgue_norm(f, np.inf, p) / vol ** (1.0 / p)
            assert avg >= prev * (1 - 1e-12)
            prev = avg
        assert lebesgue_norm(f, np.inf, np.inf) >= prev * (1 - 1e-12)


class TestCalculus:
    def test_ddt_oracle(self, small_grid):
        t, _, _, _ = axes(small_grid)
        f = Field(np.broadcast_to(np.sin(t), small_grid.shape).copy(), small_grid)
        df = ddt(f)
        assert np.abs(df.data - np.cos(t)).max() <= 1e-12

    @staticmethod
    def _generic(grid, rank, seed):
        """Samples with every time mode present, the Nyquist one included."""
        rng = np.random.default_rng(seed)
        comps = {0: (), 1: (3,), 2: (3, 3)}[rank]
        return Field(rng.normal(size=grid.shape + comps), grid, _take=True)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("n_t", [8, 16, 32])
    def test_ddt_is_the_time_only_derivative(self, n_t, rank):
        # the time-only rFFT derivative with the Nyquist multiplier zeroed
        grid = Grid4(n_t, 8)
        f = self._generic(grid, rank, n_t + rank)
        k = np.arange(n_t // 2 + 1, dtype=float)
        k[-1] = 0.0
        k = k.reshape((-1,) + (1,) * (f.data.ndim - 1))
        want = np.fft.irfft(1j * k * np.fft.rfft(f.data, axis=0), n=n_t, axis=0)
        got = ddt(f).data
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_ddt_agrees_with_the_4d_multiplier(self, small_grid):
        f = self._generic(small_grid, 1, 5)
        want = spectral_derivative(f, m=1).data
        assert np.abs(ddt(f).data - want).max() <= 1e-13 * np.abs(want).max()

    def test_rows_of_d_are_the_slices_of_ddt(self, small_grid):
        f = self._generic(small_grid, 1, 6)
        whole = ddt(f).data
        for j in range(small_grid.n_t):
            row = ddt_slice(f.data, j)
            assert row.shape == whole.shape[1:]
            assert np.abs(row - whole[j]).max() <= 1e-14 * np.abs(whole).max()

    def test_time_derivative_matrix(self):
        d = spectral.derivative_matrix(16)
        assert not d.flags.writeable
        # circulant and skew, the Nyquist-offset entry exactly zero
        for j in range(16):
            assert np.array_equal(d[j], np.roll(d[0], j))
        assert np.array_equal(d, -d.T)
        assert d[0, 8] == 0.0 and np.all(np.diag(d) == 0.0)
        # exact on the resolved modes: d/dt sin(k t) = k cos(k t)
        t = Grid4(16, 8).t()
        for k in range(1, 8):
            assert np.abs(d @ np.sin(k * t) - k * np.cos(k * t)).max() <= 1e-12

    @pytest.mark.parametrize("axis", [None, 1, 2, 3])
    def test_ddt_of_time_nyquist_mode_is_zero(self, axis):
        # cos(8 t) on 16 time samples is its own alias at k_t = +-8, and so
        # is its product with any spatial mode: its time derivative is zero
        grid = Grid4(16, 8)
        t = axes(grid)[0]
        x = 0.0 if axis is None else axes(grid)[axis]
        f = Field(np.broadcast_to(np.cos(8 * t) * np.cos(x), grid.shape),
                  grid)
        assert ddt(f).max_abs() <= 1e-12

    @pytest.mark.parametrize("path", ["directional", "grad"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_derivative_of_spatial_nyquist_mode_is_zero(self, axis, path):
        # cos(4 x_a) on 8 samples is its own alias at k_a = +-4, and so is
        # its product with cos(x3): its x_a derivative is zero, on the slice
        # kernel and on the whole-field gradient alike, on the k3 > 0
        # planes of the half spectrum as on k3 = 0
        grid = Grid4(8, 8)
        x = axes(grid)
        f = np.broadcast_to(np.cos(4 * x[axis]) * np.cos(x[3]), grid.shape)
        if path == "grad":
            d = grad(Field(f, grid)).data
        else:
            d = spectral.directional(f[0, ..., None],
                                     np.eye(3)[:, None])[..., 0, :]
        assert np.abs(d[..., axis - 1]).max() <= 1e-12

    def test_grad_and_div_roundtrip(self, small_grid):
        rng = np.random.default_rng(12)
        f = random_field(small_grid, rng, k_max=3)
        lap = per_slice(spectral.div, grad(f).data)
        ref = (spectral_derivative(f, 0, (2, 0, 0)).data
               + spectral_derivative(f, 0, (0, 2, 0)).data
               + spectral_derivative(f, 0, (0, 0, 2)).data)
        assert np.abs(lap - ref).max() <= 1e-10 * max(1, np.abs(ref).max())

    def test_div_tensor_column_convention(self, small_grid):
        # A_{01} = sin(x2) and zeros elsewhere: (div A)_0 = cos(x2)
        _, _, x2, _ = axes(small_grid)
        data = np.zeros(small_grid.shape + (3, 3))
        data[..., 0, 1] = np.sin(x2)
        a = Field(data, small_grid, _take=True)
        d = div_tensor(a)
        assert np.abs(d.data[..., 0] - np.cos(x2)).max() <= 1e-12
        assert np.abs(d.data[..., 1:]).max() <= 1e-13

    def test_spectral_leibniz(self, small_grid):
        # band-limited factors whose product stays under Nyquist
        rng = np.random.default_rng(13)
        f = random_field(small_grid, rng, k_max=3)
        g = random_field(small_grid, rng, k_max=3)
        prod = Field(f.data * g.data, small_grid, _take=True)
        lhs = grad(prod)
        rhs = Field(f.data[..., None] * grad(g).data
                    + g.data[..., None] * grad(f).data, small_grid, _take=True)
        scale = max(lhs.max_abs(), 1.0)
        assert np.abs(lhs.data - rhs.data).max() <= 1e-10 * scale

    def test_fd_commutation_second_order(self):
        # centered differences converge at order dx^2 to the spectral derivative
        errs = []
        for n in (16, 32):
            g = Grid4(8, n)
            _, x1, _, _ = axes(g)
            f = Field(np.broadcast_to(np.sin(2 * x1), g.shape).copy(), g)
            d_spec = spectral_derivative(f, 0, (1, 0, 0)).data
            d_fd = (np.roll(f.data, -1, axis=1) - np.roll(f.data, 1, axis=1)) / (2 * g.dx)
            errs.append(np.abs(d_fd - d_spec).max())
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(4.0, abs=0.5)


class TestTensorAlgebra:
    def test_sym_plus_skew(self, small_grid):
        rng = np.random.default_rng(14)
        a = random_field(small_grid, rng, rank=2)
        back = _sym(a.data) + _skew(a.data)
        assert np.abs(back - a.data).max() <= 1e-14

    def test_traceless(self, small_grid):
        rng = np.random.default_rng(15)
        a = random_field(small_grid, rng, rank=2)
        tl = Field(_traceless(a.data), small_grid, _take=True)
        tr = np.trace(tl.data, axis1=-2, axis2=-1)
        assert np.abs(tr).max() <= 1e-12 * max(1, a.max_abs())

    def test_outer_and_dot(self, small_grid):
        rng = np.random.default_rng(17)
        u = random_field(small_grid, rng, rank=1)
        v = random_field(small_grid, rng, rank=1)
        ov = _outer(u.data, v.data)
        assert ov.shape == small_grid.shape + (3, 3)
        tr = np.trace(ov, axis1=-2, axis2=-1)
        assert np.abs(tr - dot(u, v).data).max() <= 1e-13 * max(1, np.abs(ov).max())

    def test_compact_components_expand_back(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(4, 3, 3))
        s, k = a + np.swapaxes(a, -1, -2), a - np.swapaxes(a, -1, -2)
        for full, pairs, sign in ((s, SYM_PAIRS, 1.0), (k, SKEW_PAIRS, -1.0)):
            compact = full[..., pairs[0], pairs[1]]
            assert compact.shape == (4, len(pairs[0]))
            assert np.array_equal(expand(compact, pairs, sign), full)
            # into a given array, only the pairs and their mirrors change
            into = np.full(full.shape, 7.0)
            assert expand(compact, pairs, sign, out=into) is into
            kept = np.ones((3, 3), dtype=bool)
            kept[pairs] = kept[pairs[::-1]] = False
            assert np.array_equal(into, np.where(kept, 7.0, full))
