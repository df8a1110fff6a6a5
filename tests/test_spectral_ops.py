"""Multiplier operators: projections, inverse divergences, Biot-Savart.

The whole-field projections of cilab.spectral_ops are tested as Fields;
every other operator is a slice kernel of cilab.spectral, run on each
time slice through per_slice."""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from cilab import spectral, threads
from cilab.field import Field, div_tensor, grad, lebesgue_norm, to_spectral
from cilab.mollify import Mollifier
from cilab.spectral_ops import leray, p_neq0

from conftest import random_divfree, random_field
from oracles import _skew, _sym, per_slice, to_physical


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
    """The Leray projection as one multiplier on the whole 4D spectrum,
    on wavenumber tables of its own."""
    n = f.grid.n_x
    kf = np.fft.fftfreq(n, 1.0 / n)
    ks = (kf[None, :, None, None], kf[None, None, :, None],
          np.fft.rfftfreq(n, 1.0 / n)[None, None, None, :])
    ksq = sum(k * k for k in ks)
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    spec = to_spectral(f.data, f.grid)
    kdotu = sum(ks[a] * spec[..., a] for a in range(3))
    out = np.stack([spec[..., a] - ks[a] * inv * kdotu for a in range(3)],
                   axis=-1)
    return to_physical(out, f.grid)


def p_neq0_multiplier(f):
    """Zeroing the spatial zero modes of the whole 4D spectrum."""
    spec = to_spectral(f.data, f.grid)
    spec[:, 0, 0, 0] = 0.0
    return to_physical(spec, f.grid)


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
    """The whole-field forms run one slice kernel per time slice."""

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

    @pytest.mark.parametrize("comps", [(), (3,)])
    def test_slice_mean_ignores_the_blas_thread_count(self, comps):
        # at 64^3 a BLAS reduction of the same slice differs in its last
        # bits between one and two OpenBLAS threads
        blas = threads._handles()[0]
        if blas is None:
            pytest.skip("no OpenBLAS thread-count handle in this process")
        get, put = blas
        slab = np.random.default_rng(46).normal(size=(64, 64, 64) + comps) + 0.3
        saved = get()
        try:
            runs = []
            for count in (1, 2):
                put(count)
                runs.append(spectral.mean_free(slab))
        finally:
            put(saved)
        assert np.array_equal(runs[0], runs[1])
        points = slab.reshape(64 ** 3, -1)
        mean = [math.fsum(points[:, c]) / 64 ** 3 for c in range(points.shape[1])]
        want = slab - np.reshape(mean, comps)
        assert np.abs(runs[0] - want).max() <= 1e-15

    @staticmethod
    def _peak_slices(small_grid, op, rank=1):
        """Traced peak of op on a random field of the given rank above its
        output, in output time slices."""
        rng = np.random.default_rng(45)
        u = random_field(small_grid, rng, rank=rank)
        peak, out = traced_peak(op, u)
        return (peak - out.data.nbytes) / (out.data.nbytes // small_grid.n_t)

    def test_leray_peak_is_output_plus_a_few_slices(self, small_grid,
                                                    monkeypatch):
        # a whole-field spectrum, its projection and the output come to
        # about three field copies; a slice loop needs the output alone
        monkeypatch.setenv("CILAB_THREADS", "1")
        assert self._peak_slices(small_grid, leray) <= 6

    def test_leray_peak_on_two_threads(self, small_grid, monkeypatch):
        # each pool thread keeps about three slices of temporaries in
        # flight: 2.9 slices on one thread, 5.7 on two
        monkeypatch.setenv("CILAB_THREADS", "2")
        assert self._peak_slices(small_grid, leray) <= 8

    # measured on 16x16^3 in output slices, grad of a vector and
    # div_tensor: 2.6 and 6.8 on one thread, 5.2 and 12.6 on two; each
    # budget is 20% over. One 3D transform pair over the whole field
    # peaked at 24 and 75.
    @pytest.mark.parametrize("op,rank,threads,budget", [
        (grad, 1, "1", 3.1), (grad, 1, "2", 6.2),
        (div_tensor, 2, "1", 8.1), (div_tensor, 2, "2", 15.1),
    ], ids=["grad-1", "grad-2", "div_tensor-1", "div_tensor-2"])
    def test_calculus_peak_is_output_plus_a_few_slices(
            self, small_grid, monkeypatch, op, rank, threads, budget):
        monkeypatch.setenv("CILAB_THREADS", threads)
        assert self._peak_slices(small_grid, op, rank) <= budget


class TestHalfSpectra:
    """Multipliers on half spectra, chained between one forward and one
    inverse transform."""

    @pytest.mark.parametrize("n", [8, 38])
    def test_div_spectrum_is_the_tensor_divergence(self, n):
        rng = np.random.default_rng(n + 1)
        weights = rng.standard_normal((n, n, n, 6))
        tables = rng.standard_normal((2, 6, 6, 3))
        spec = None
        for table in tables:
            spec = spectral.div_spectrum(weights, table, spec)
        tens = weights.reshape(-1, 6) @ tables.sum(axis=0).reshape(6, 18)
        want = spectral.div(tens.reshape(n, n, n, 6, 3))
        assert rel_max(spectral.irfft(spec, n), want) <= 1e-13


class TestDerivativeRule:
    """One Nyquist rule for every derivative: the multipliers of
    spectral.derivatives vanish at k_a = +-n/2."""

    @pytest.mark.parametrize("n", [8, 9, 38])
    def test_tables_zero_only_the_nyquist_entries(self, n):
        raw = spectral.wavenumbers(n, 1)
        tables = spectral.derivatives(n, 1)
        assert tables is spectral.derivatives(n, 1)
        for got, want in zip(tables[:3], raw[:3]):
            assert got.shape == want.shape and not got.flags.writeable
            nyquist = np.abs(want) == n / 2
            assert nyquist.any() == (n % 2 == 0)
            assert np.all(got[nyquist] == 0.0)
            assert np.array_equal(got[~nyquist], want[~nyquist])
        k1, k2, k3, ksq = tables
        assert np.array_equal(ksq, k1 * k1 + k2 * k2 + k3 * k3)

    @pytest.mark.parametrize("n", [8, 38])
    def test_projections_and_double_curls_are_divergence_free(self, n):
        # white noise fills every plane of the spectrum, the Nyquist ones
        # included
        rng = np.random.default_rng(n + 2)
        vec = rng.standard_normal((n, n, n, 2, 3))
        once = spectral.leray(vec)
        for out in (once, spectral.curl_curl(vec)):
            terms = spectral.div_terms(out)
            assert (np.abs(terms.sum(axis=-1)).max()
                    <= 1e-13 * np.abs(terms).max())
        assert rel_max(spectral.leray(once), once) <= 1e-13


def frac_laplacian(data, alpha):
    """(-Laplace)^alpha on every time slice of a sample array."""
    return per_slice(spectral.frac_laplacian, data, alpha)


def with_mean(grid, rng, shift=0.3):
    """A random band-limited vector field plus shift on its spatial mean:
    neither mean-free nor divergence-free."""
    u = random_field(grid, rng, rank=1)
    return Field(u.data + shift, grid, _take=True)


class TestFractionalLaplacian:
    def test_semigroup(self, small_grid):
        rng = np.random.default_rng(25)
        f = random_field(small_grid, rng)
        a, b = 0.6, 0.9
        lhs = frac_laplacian(frac_laplacian(f.data, a), b)
        rhs = frac_laplacian(f.data, a + b)
        assert rel_max(lhs, rhs) <= 1e-10

    def test_matches_laplacian_at_one(self, small_grid):
        rng = np.random.default_rng(26)
        f = random_field(small_grid, rng, k_max=3)
        lap = per_slice(spectral.div, grad(f).data)
        assert rel_max(frac_laplacian(f.data, 1.0), -lap) <= 1e-10

    def test_inverse_laplacian(self, small_grid):
        rng = np.random.default_rng(27)
        f = p_neq0(random_field(small_grid, rng))
        # the inverse Laplacian multiplier of the Biot-Savart law and the
        # inverse divergences, zero on the zero mode
        n = small_grid.n_x
        inv = -spectral.safe_inv(spectral.wavenumbers(n)[3])
        g = per_slice(lambda s: spectral.irfft(spectral.rfft(s) * inv, n),
                      frac_laplacian(f.data, 1.0))
        assert rel_max(g, -f.data) <= 1e-10

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            spectral.frac_laplacian(np.zeros((8, 8, 8)), -0.5)


class TestInverseDivergences:
    def test_sym_structure(self, small_grid):
        rng = np.random.default_rng(28)
        u = p_neq0(random_field(small_grid, rng, rank=1))
        r = per_slice(spectral.inv_div_sym, u.data)
        scale = max(np.abs(r).max(), 1e-300)
        assert np.abs(r - _sym(r)).max() <= 1e-12 * scale
        tr = np.trace(r, axis1=-2, axis2=-1)
        assert np.abs(tr).max() <= 1e-12 * scale

    def test_sym_right_inverse(self, small_grid):
        rng = np.random.default_rng(29)
        u = p_neq0(random_field(small_grid, rng, rank=1))
        r = per_slice(spectral.inv_div_sym, u.data)
        assert rel_max(per_slice(spectral.div, r), u.data) <= 1e-10

    def test_sym_inverts_the_mean_free_part_of_any_input(self, small_grid):
        # the kernel takes every input: its divergence is the input less
        # its spatial mean, so the mean-free check belongs to its caller
        u = with_mean(small_grid, np.random.default_rng(31))
        r = per_slice(spectral.inv_div_sym, u.data)
        assert rel_max(per_slice(spectral.div, r), p_neq0(u).data) <= 1e-14

    def test_skew_structure_and_inverse(self, small_grid):
        rng = np.random.default_rng(30)
        u = random_divfree(small_grid, rng)
        r = per_slice(spectral.inv_div_skew, u.data)
        scale = max(np.abs(r).max(), 1e-300)
        assert np.abs(r - _skew(r)).max() <= 1e-12 * scale
        assert rel_max(per_slice(spectral.div, r), u.data) <= 1e-10

    def test_skew_inverts_the_solenoidal_part_of_any_input(self, small_grid):
        # generic band-limited fields are far from divergence-free: the
        # divergence of the skew inverse is their mean-free Leray part
        u = with_mean(small_grid, np.random.default_rng(31))
        r = per_slice(spectral.inv_div_skew, u.data)
        want = leray(p_neq0(u)).data
        assert rel_max(per_slice(spectral.div, r), want) <= 1e-14

    def test_gradient_bounded_operator(self, small_grid):
        # |grad| R has modest operator norm on mean-free fields
        rng = np.random.default_rng(32)
        for _ in range(5):
            u = p_neq0(random_field(small_grid, rng, rank=1))
            r = Field(frac_laplacian(per_slice(spectral.inv_div_sym, u.data),
                                     0.5), small_grid, _take=True)
            assert lebesgue_norm(r, 2, 2) <= 10.0 * lebesgue_norm(u, 2, 2)


def biot_savart(b):
    return per_slice(spectral.curl, b.data, inverse_laplacian=True)


class TestBiotSavart:
    def test_shear_eigenfield_oracle(self, small_grid):
        # B = (sin x3, cos x3, 0) is a curl eigenfield: A equals B
        _, _, _, x3 = small_grid.axes()
        data = np.zeros(small_grid.shape + (3,))
        data[..., 0] = np.sin(x3)
        data[..., 1] = np.cos(x3)
        b = Field(data, small_grid, _take=True)
        assert np.abs(biot_savart(b) - b.data).max() <= 1e-12

    def test_curl_of_potential_recovers_field(self, small_grid):
        rng = np.random.default_rng(33)
        b = random_divfree(small_grid, rng)
        assert rel_max(per_slice(spectral.curl, biot_savart(b)),
                       b.data) <= 1e-10

    def test_curl_grad_is_zero(self, small_grid):
        rng = np.random.default_rng(34)
        phi = random_field(small_grid, rng, k_max=3)
        g = per_slice(spectral.curl, grad(phi).data)
        assert np.abs(g).max() <= 1e-11 * max(1, phi.max_abs())


@pytest.mark.parametrize("n_t,ell", [(8, 2.0), (16, 0.9), (32, 0.9)])
def test_time_multiplier_matrix_is_a_shared_read_only_circulant(n_t, ell):
    symbol = Mollifier(ell).temporal_symbol
    mat = spectral.time_multiplier_matrix(symbol, n_t)
    assert mat.shape == (n_t, n_t)
    assert mat is spectral.time_multiplier_matrix(
        Mollifier(ell).temporal_symbol, n_t)
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    for j in range(n_t):
        assert np.array_equal(mat[j], np.roll(mat[0], j))
    # the symbol is exactly one at k_t = 0, so every row has unit mass
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-15)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cilab"


def test_only_the_spectral_layer_builds_wavenumber_tables():
    # the Fourier convention is written once: no other module calls
    # fftfreq or rfftfreq, from numpy or from scipy
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            if {"fftfreq", "rfftfreq"} & set(names):
                offenders.add(path.name)
    assert offenders <= {"spectral.py"}, offenders


def test_only_the_spectral_layer_imports_scipy_fft():
    # spatial multipliers live in cilab.spectral; field keeps the 4D
    # forward transform of the divergence gate
    offenders = []
    for path in sorted(SRC.glob("*.py")):
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
