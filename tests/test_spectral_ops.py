"""Multiplier operators: projections, inverse divergences, Biot-Savart."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from cilab.field import Field, MixedNormSpec, div_tensor, grad, norm, skew, sym, trace
from cilab.spectral_ops import (
    biot_savart, curl, frac_laplacian, inv_div_skew, inv_div_sym,
    inv_laplacian, leray, p_neq0,
)

from conftest import random_divfree, random_field


def rel_max(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestProjectors:
    def test_p_neq0_removes_slice_means(self, small_grid):
        rng = np.random.default_rng(20)
        f = p_neq0(random_field(small_grid, rng))
        assert np.abs(f.spatial_means()).max() <= 1e-13 * max(1, f.max_abs())

    def test_leray_idempotent(self, small_grid):
        rng = np.random.default_rng(21)
        u = random_field(small_grid, rng, rank=1)
        once = leray(u)
        twice = leray(once)
        assert rel_max(twice.data, once.data) <= 1e-12

    def test_leray_commutes_with_p_neq0(self, small_grid):
        rng = np.random.default_rng(22)
        u = random_field(small_grid, rng, rank=1)
        a = leray(p_neq0(u))
        b = p_neq0(leray(u))
        assert rel_max(a.data, b.data) <= 1e-12

    def test_leray_annihilates_gradients(self, small_grid):
        rng = np.random.default_rng(23)
        phi = random_field(small_grid, rng, k_max=3)
        g = grad(phi)
        assert leray(g).max_abs() <= 1e-10 * max(1, g.max_abs())

    def test_leray_fixes_divergence_free(self, small_grid):
        rng = np.random.default_rng(24)
        u = random_divfree(small_grid, rng)
        assert rel_max(leray(u).data, u.data) <= 1e-10


def leray_multiplier(f):
    """The Leray projection as one multiplier on the whole 4D spectrum."""
    spec = f.spectral
    _, k1, k2, k3 = f.grid.k_broadcast()
    ks = [k.astype(float) for k in (k1, k2, k3)]
    ksq = sum(k * k for k in ks)
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    kdotu = sum(ks[a] * spec[..., a] for a in range(3))
    out = np.stack([spec[..., a] - ks[a] * inv * kdotu for a in range(3)],
                   axis=-1)
    return Field.from_spectral(out, f.grid).data


def p_neq0_multiplier(f):
    """Zeroing the spatial zero modes of the whole 4D spectrum."""
    spec = f.spectral.copy()
    spec[:, 0, 0, 0] = 0.0
    return Field.from_spectral(spec, f.grid).data


def traced_peak(fn, *args, **kwargs):
    """Peak traced allocation of one call above the level at entry, and
    the result."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return peak, out


class TestStreamedProjections:
    """leray and p_neq0 run one kernel per time slice."""

    def test_leray_is_the_4d_multiplier(self, small_grid):
        rng = np.random.default_rng(4)
        for _ in range(3):
            u = random_field(small_grid, rng, rank=1)
            assert rel_max(leray(u).data, leray_multiplier(u)) <= 1e-14

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_p_neq0_is_the_4d_multiplier(self, small_grid, rank):
        rng = np.random.default_rng(3)
        f = random_field(small_grid, rng, rank=rank)
        shape = (small_grid.n_t, 1, 1, 1) + f.data.shape[4:]
        f = Field(f.data + rng.normal(size=shape), small_grid, _take=True)
        assert rel_max(p_neq0(f).data, p_neq0_multiplier(f)) <= 1e-14

    def test_one_slice_stays_on_its_slice(self, small_grid):
        rng = np.random.default_rng(44)
        data = np.zeros(small_grid.shape + (3,))
        data[5] = random_field(small_grid, rng, rank=1).data[5] + 1.0
        u = Field(data, small_grid, _take=True)
        for op in (leray, p_neq0):
            out = op(u).data
            assert np.abs(out[5]).max() > 0.0
            assert np.all(np.delete(out, 5, axis=0) == 0.0)

    @staticmethod
    def _leray_slices(small_grid):
        """Traced peak of leray above its output, in time slices."""
        rng = np.random.default_rng(45)
        u = random_field(small_grid, rng, rank=1)
        peak, out = traced_peak(leray, u)
        return (peak - out.data.nbytes) / (out.data.nbytes // small_grid.n_t)

    def test_leray_peak_is_output_plus_a_few_slices(self, small_grid,
                                                    monkeypatch):
        # a whole-field spectrum, its projection and the output come to
        # about three field copies; a slice loop needs the output alone
        monkeypatch.setenv("CILAB_THREADS", "1")
        assert self._leray_slices(small_grid) <= 6

    def test_leray_peak_on_two_threads(self, small_grid, monkeypatch):
        # each pool thread keeps about three slices of temporaries in
        # flight: 2.9 slices on one thread, 5.7 on two
        monkeypatch.setenv("CILAB_THREADS", "2")
        assert self._leray_slices(small_grid) <= 8


class TestFractionalLaplacian:
    def test_semigroup(self, small_grid):
        rng = np.random.default_rng(25)
        f = random_field(small_grid, rng)
        a, b = 0.6, 0.9
        lhs = frac_laplacian(frac_laplacian(f, a), b)
        rhs = frac_laplacian(f, a + b)
        assert rel_max(lhs.data, rhs.data) <= 1e-10

    def test_matches_laplacian_at_one(self, small_grid):
        rng = np.random.default_rng(26)
        f = random_field(small_grid, rng, k_max=3)
        from cilab.field import div_vec
        lap = div_vec(grad(f))
        assert rel_max(frac_laplacian(f, 1.0).data, -lap.data) <= 1e-10

    def test_inverse_laplacian(self, small_grid):
        rng = np.random.default_rng(27)
        f = p_neq0(random_field(small_grid, rng))
        g = inv_laplacian(frac_laplacian(f, 1.0))
        assert rel_max(g.data, -f.data) <= 1e-10

    def test_rejects_negative_alpha(self, small_grid):
        f = Field.zeros(small_grid)
        with pytest.raises(ValueError):
            frac_laplacian(f, -0.5)


class TestInverseDivergences:
    def test_sym_structure(self, small_grid):
        rng = np.random.default_rng(28)
        u = p_neq0(random_field(small_grid, rng, rank=1))
        r = inv_div_sym(u)
        scale = max(r.max_abs(), 1e-300)
        assert np.abs(r.data - sym(r).data).max() <= 1e-12 * scale
        assert np.abs(trace(r).data).max() <= 1e-12 * scale

    def test_sym_right_inverse(self, small_grid):
        rng = np.random.default_rng(29)
        u = p_neq0(random_field(small_grid, rng, rank=1))
        r = inv_div_sym(u)
        assert rel_max(div_tensor(r).data, u.data) <= 1e-10

    def test_sym_rejects_nonmean_free(self, small_grid):
        u = Field(np.ones(small_grid.shape + (3,)), small_grid)
        with pytest.raises(ValueError):
            inv_div_sym(u)

    def test_skew_structure_and_inverse(self, small_grid):
        rng = np.random.default_rng(30)
        u = random_divfree(small_grid, rng)
        r = inv_div_skew(u)
        scale = max(r.max_abs(), 1e-300)
        assert np.abs(r.data - skew(r).data).max() <= 1e-12 * scale
        assert rel_max(div_tensor(r).data, u.data) <= 1e-10

    def test_skew_rejects_divergent_input(self, small_grid):
        rng = np.random.default_rng(31)
        u = p_neq0(random_field(small_grid, rng, rank=1, k_max=3))
        # generic band-limited fields are far from divergence-free
        with pytest.raises(ValueError):
            inv_div_skew(u)

    def test_gradient_bounded_operator(self, small_grid):
        # |grad| R has modest operator norm on mean-free fields
        rng = np.random.default_rng(32)
        spec = MixedNormSpec.lebesgue(2, 2)
        for _ in range(5):
            u = p_neq0(random_field(small_grid, rng, rank=1))
            r = frac_laplacian(inv_div_sym(u), 0.5)
            assert norm(r, spec) <= 10.0 * norm(u, spec)


class TestBiotSavart:
    def test_shear_eigenfield_oracle(self, small_grid):
        # B = (sin x3, cos x3, 0) is a curl eigenfield: A equals B
        _, _, _, x3 = small_grid.axes()
        data = np.zeros(small_grid.shape + (3,))
        data[..., 0] = np.sin(x3)
        data[..., 1] = np.cos(x3)
        b = Field(data, small_grid, _take=True)
        a = biot_savart(b)
        assert np.abs(a.data - b.data).max() <= 1e-12

    def test_curl_of_potential_recovers_field(self, small_grid):
        rng = np.random.default_rng(33)
        b = random_divfree(small_grid, rng)
        assert rel_max(curl(biot_savart(b)).data, b.data) <= 1e-10

    def test_curl_grad_is_zero(self, small_grid):
        rng = np.random.default_rng(34)
        phi = random_field(small_grid, rng, k_max=3)
        g = curl(grad(phi))
        assert g.max_abs() <= 1e-11 * max(1, phi.max_abs())


def test_only_the_spectral_layer_imports_scipy_fft():
    # spatial multipliers live in cilab.spectral; field keeps the 4D pair
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "cilab"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            else:
                continue
            if any(name == "scipy.fft" or name.startswith("scipy.fft.")
                   for name in names):
                offenders.append(path.name)
    assert set(offenders) <= {"spectral.py", "field.py"}, offenders
