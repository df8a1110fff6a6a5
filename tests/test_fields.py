"""Field layer: transforms, norms, tensor algebra, calculus, serialization."""

import numpy as np
import pytest

from cilab import spectral
from cilab.field import (
    Field, FieldFormatError, MixedNormSpec, ddt, div_tensor, div_vec, dot,
    grad, norm, outer, read_field, skew, spectral_derivative, sym,
    tensor_apply, to_physical, to_spectral, trace, traceless, write_field,
)
from cilab.grid import Grid4, GridResolutionError

from conftest import random_field

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
        t, x1, _, _ = small_grid.axes()
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
        l2 = norm(f, MixedNormSpec.lebesgue(2, 2))
        h0 = norm(f, MixedNormSpec.hbeta(0.0))
        assert h0 == pytest.approx(l2, rel=1e-10)

    def test_spectral_cache_reused(self, small_grid):
        f = Field(np.zeros(small_grid.shape), small_grid)
        assert f.spectral is f.spectral

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

    def test_mean_free_validation(self, small_grid):
        with pytest.raises(ValueError):
            Field(np.ones(small_grid.shape), small_grid, mean_free=True)


class TestNorms:
    def test_sin_l2_oracle(self, small_grid):
        # integral of sin^2(x3) over the spatial box is 4 pi^3
        _, _, _, x3 = small_grid.axes()
        f = Field(np.broadcast_to(np.sin(x3), small_grid.shape).copy(), small_grid)
        val = norm(f, MixedNormSpec.lebesgue(np.inf, 2))
        assert val ** 2 == pytest.approx(4 * PI ** 3, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_constant_lp_oracle(self, small_grid, p):
        f = Field(np.ones(small_grid.shape), small_grid)
        val = norm(f, MixedNormSpec.lebesgue(np.inf, p))
        assert val == pytest.approx((8 * PI ** 3) ** (1.0 / p), rel=1e-12)

    def test_p_monotonicity_of_averaged_norms(self, small_grid):
        rng = np.random.default_rng(10)
        f = random_field(small_grid, rng)
        vol = (2 * PI) ** 3
        prev = 0.0
        for p in (1.0, 2.0, 3.0, 6.0):
            avg = norm(f, MixedNormSpec.lebesgue(np.inf, p)) / vol ** (1.0 / p)
            assert avg >= prev * (1 - 1e-12)
            prev = avg
        assert norm(f, MixedNormSpec.lebesgue(np.inf, np.inf)) >= prev * (1 - 1e-12)

    def test_cn_oracle(self, small_grid):
        _, _, _, x3 = small_grid.axes()
        f = Field(np.broadcast_to(np.sin(x3), small_grid.shape).copy(), small_grid)
        assert norm(f, MixedNormSpec.cn(0)) == pytest.approx(1.0, rel=1e-12)
        assert norm(f, MixedNormSpec.cn(1)) == pytest.approx(2.0, rel=1e-12)

    def test_hbeta_oracle(self, small_grid):
        _, _, _, x3 = small_grid.axes()
        f = Field(np.broadcast_to(np.sin(x3), small_grid.shape).copy(), small_grid)
        # two modes with |k| = 1, each carrying 1/4 of the squared mass
        expected = np.sqrt((2 * PI) ** 4 * 0.5 * 2.0)
        assert norm(f, MixedNormSpec.hbeta(1.0)) == pytest.approx(expected, rel=1e-10)

    def test_sobolev_matches_manual_sum(self, small_grid):
        rng = np.random.default_rng(11)
        f = random_field(small_grid, rng, k_max=3)
        total = 0.0
        for m, zeta in [(0, (0, 0, 0)), (1, (0, 0, 0)), (0, (1, 0, 0)),
                        (0, (0, 1, 0)), (0, (0, 0, 1))]:
            g = spectral_derivative(f, m, zeta)
            total += norm(g, MixedNormSpec.lebesgue(2, 2))
        assert norm(f, MixedNormSpec.sobolev(1, 2)) == pytest.approx(total, rel=1e-12)

    def test_norm_labels(self):
        assert MixedNormSpec.lebesgue(1, 2).label == "L1t_L2x"
        assert MixedNormSpec.lebesgue(np.inf, np.inf).label == "Linft_Linfx"
        assert MixedNormSpec.cn(1).label == "C1"


class TestCalculus:
    def test_ddt_oracle(self, small_grid):
        t, _, _, _ = small_grid.axes()
        f = Field(np.broadcast_to(np.sin(t), small_grid.shape).copy(), small_grid)
        df = ddt(f)
        assert np.abs(df.data - np.cos(t)).max() <= 1e-12

    @pytest.mark.parametrize("axis", [
        None, 1, 2,
        pytest.param(3, marks=pytest.mark.xfail(strict=True, reason=(
            "on the k3 > 0 planes of the half spectrum the 4D multiplier "
            "gives the time-Nyquist mode i k_t = -i n_t/2 instead of 0")))])
    def test_ddt_of_time_nyquist_mode_is_zero(self, axis):
        # cos(8 t) on 16 time samples is its own alias at k_t = +-8, and so
        # is its product with any spatial mode: its time derivative is zero
        grid = Grid4(16, 8)
        t = grid.axes()[0]
        x = 0.0 if axis is None else grid.axes()[axis]
        f = Field(np.broadcast_to(np.cos(8 * t) * np.cos(x), grid.shape),
                  grid)
        assert ddt(f).max_abs() <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "on the k3 > 0 planes of the half spectrum the multiplier i k_a "
        "gives the spatial-Nyquist mode -i n/2 instead of 0"))
    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_derivative_of_spatial_nyquist_mode_is_zero(self, axis, lead):
        # cos(4 x_a) on 8 samples is its own alias at k_a = +-4, and so is
        # its product with cos(x3): its x_a derivative is zero
        grid = Grid4(8, 8)
        x = grid.axes()
        f = np.broadcast_to(np.cos(4 * x[axis]) * np.cos(x[3]), grid.shape)
        arr = f[..., None] if lead else f[0, ..., None]
        d = spectral.directional(arr, np.eye(3)[:, None], lead=lead)
        assert np.abs(d[..., 0, axis - 1]).max() <= 1e-12

    def test_grad_and_div_roundtrip(self, small_grid):
        rng = np.random.default_rng(12)
        f = random_field(small_grid, rng, k_max=3)
        lap = div_vec(grad(f))
        ref = (spectral_derivative(f, 0, (2, 0, 0)).data
               + spectral_derivative(f, 0, (0, 2, 0)).data
               + spectral_derivative(f, 0, (0, 0, 2)).data)
        assert np.abs(lap.data - ref).max() <= 1e-10 * max(1, np.abs(ref).max())

    def test_div_tensor_column_convention(self, small_grid):
        # A_{01} = sin(x2) and zeros elsewhere: (div A)_0 = cos(x2)
        _, _, x2, _ = small_grid.axes()
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
            _, x1, _, _ = g.axes()
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
        back = sym(a).data + skew(a).data
        assert np.abs(back - a.data).max() <= 1e-14

    def test_traceless(self, small_grid):
        rng = np.random.default_rng(15)
        a = random_field(small_grid, rng, rank=2)
        tl = traceless(a)
        assert np.abs(trace(tl).data).max() <= 1e-12 * max(1, a.max_abs())

    def test_tensor_apply_right_product(self, small_grid):
        rng = np.random.default_rng(16)
        a = random_field(small_grid, rng, rank=2)
        v = random_field(small_grid, rng, rank=1)
        av = tensor_apply(a, v)
        manual = np.zeros(small_grid.shape + (3,))
        for i in range(3):
            for j in range(3):
                manual[..., i] += a.data[..., i, j] * v.data[..., j]
        assert np.abs(av.data - manual).max() <= 1e-13 * max(1, np.abs(manual).max())

    def test_outer_and_dot(self, small_grid):
        rng = np.random.default_rng(17)
        u = random_field(small_grid, rng, rank=1)
        v = random_field(small_grid, rng, rank=1)
        ov = outer(u, v)
        assert ov.data.shape == small_grid.shape + (3, 3)
        assert np.abs(trace(ov).data - dot(u, v).data).max() <= 1e-13 * max(1, ov.max_abs())


class TestSerialization:
    def test_round_trip(self, small_grid, tmp_path):
        rng = np.random.default_rng(18)
        f = random_field(small_grid, rng, rank=1)
        path = tmp_path / "field.bin"
        write_field(f, str(path))
        g = read_field(str(path))
        assert g.grid == Grid4(16, 16)
        assert np.array_equal(g.data, f.data)

    def test_header_layout(self, small_grid, tmp_path):
        f = Field.zeros(small_grid, rank=2)
        path = tmp_path / "field.bin"
        write_field(f, str(path))
        blob = path.read_bytes()
        assert blob[:7] == b"CILAB1\x00"
        assert int.from_bytes(blob[7:11], "little") == 16
        assert int.from_bytes(blob[11:15], "little") == 16
        assert blob[15] == 2
        assert len(blob) == 16 + 16 ** 4 * 9 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTCILAB" + b"\x00" * 64)
        with pytest.raises(FieldFormatError):
            read_field(str(path))

    def test_truncated_payload_rejected(self, small_grid, tmp_path):
        f = Field.zeros(small_grid, rank=0)
        path = tmp_path / "field.bin"
        write_field(f, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FieldFormatError):
            read_field(str(path))
