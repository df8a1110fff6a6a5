"""Block sampling, the seven algebraic identities, and the scaling laws."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cilab.blocks import (
    BlockParams, BlockSet, block_norm, envelope_stack, family, flow_products,
    measure_intermittency, measure_product_intermittency,
    predicted_block_norm, predicted_product_norm, product_norm,
    sample_blocks,
)
from cilab.field import grad, lebesgue_norm
from cilab.geometry import build_geometry
from cilab.grid import Grid4, GridResolutionError
from cilab.profiles import BandProfile, fit_loglog, make_spatial_profiles

from oracles import (
    IDENTITY_NAMES, BlockIdentityError, flow_field, pair_support_fraction,
    profile_field, skew_generator, support_fraction, sym_generator,
    verify_identities,
)


def second_moments(u, v):
    """Spatial means of u_i v_j per time slice, for vector samples u, v."""
    return (u[..., :, None] * v[..., None, :]).mean(axis=(1, 2, 3))


@pytest.fixture(scope="module")
def geom():
    return build_geometry()


@pytest.fixture(scope="module")
def base():
    return make_spatial_profiles()


@pytest.fixture(scope="module")
def dense_grid():
    return Grid4(n_t=8, n_x=48)


@pytest.fixture(scope="module")
def dense_blocks(geom, base, dense_grid):
    params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=1.0,
                         n_shear_harmonics=1, n_conc_harmonics=1)
    return sample_blocks(geom.lambda_b[0], params, dense_grid, base)


@pytest.fixture(scope="module")
def banded_blocks(geom, base):
    params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=2.0)
    return sample_blocks(geom.lambda_b[0], params, Grid4(n_t=8, n_x=64), base)


def law_sweep(lams=(4, 16, 64), mu=4.0):
    return [BlockParams(lam=l, r_perp=1.0 / l, r_par=l ** -0.5, mu=mu)
            for l in lams]


class TestBlockParams:
    def test_valid(self):
        p = BlockParams(lam=16, r_perp=0.25, r_par=0.5, mu=4.0)
        assert p.lam_r_perp == 4

    def test_non_integer_concentration_scale(self):
        with pytest.raises(ValueError):
            BlockParams(lam=4, r_perp=0.3, r_par=0.5)

    def test_bad_orderings(self):
        with pytest.raises(ValueError):
            BlockParams(lam=4, r_perp=0.5, r_par=0.25)
        with pytest.raises(ValueError):
            BlockParams(lam=1, r_perp=1.0, r_par=2.0)
        with pytest.raises(ValueError):
            BlockParams(lam=4, r_perp=0.0, r_par=0.5)

    def test_bad_rates_and_bands(self):
        with pytest.raises(ValueError):
            BlockParams(lam=4, r_perp=0.25, r_par=0.5, mu=-1.0)
        with pytest.raises(ValueError):
            BlockParams(lam=0)
        with pytest.raises(ValueError):
            BlockParams(lam=1, n_shear_harmonics=0)

    @given(lam=st.integers(1, 60), j=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_rational_concentration_scales_accepted(self, lam, j):
        if j > lam:
            return
        p = BlockParams(lam=lam, r_perp=j / lam, r_par=1.0)
        assert p.lam_r_perp == j


class TestSampling:
    def test_alias_bound_enforced(self, geom):
        params = BlockParams(lam=16, r_perp=0.25, r_par=0.5, mu=4.0)
        with pytest.raises(GridResolutionError):
            sample_blocks(geom.lambda_b[0], params, Grid4(n_t=8, n_x=64))

    def test_non_integer_phase_rate(self, geom):
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=0.3)
        with pytest.raises(ValueError):
            sample_blocks(geom.lambda_b[0], params, Grid4(n_t=8, n_x=48))

    def test_concentration_power_is_one(self, banded_blocks):
        phi = profile_field(banded_blocks, "concentration")
        assert abs((phi.data ** 2).mean() - 1.0) < 1e-8

    def test_flows_mean_free(self, banded_blocks):
        for kind in ("velocity", "magnetic", "velocity_potential",
                     "velocity_corrector", "magnetic_potential",
                     "magnetic_corrector"):
            means = flow_field(banded_blocks, kind).spatial_means()
            assert np.abs(means).max() < 1e-12, kind

    def test_phase_orthogonality(self, banded_blocks):
        # concentration rides k, shear rides k1; gradients are orthogonal
        # to the complementary frame legs
        f = banded_blocks.frame
        g_conc = grad(profile_field(banded_blocks, "concentration"))
        g_shear = grad(profile_field(banded_blocks, "shear"))
        assert np.abs(g_conc.data @ np.asarray(f.k1)).max() < 1e-10
        assert np.abs(g_conc.data @ np.asarray(f.k2)).max() < 1e-10
        assert np.abs(g_shear.data @ np.asarray(f.k)).max() < 1e-10

    def test_second_moments(self, banded_blocks):
        f = banded_blocks.frame
        W = flow_field(banded_blocks, "velocity").data
        D = flow_field(banded_blocks, "magnetic").data
        assert np.abs(second_moments(W, W) - np.outer(f.k1, f.k1)).max() < 1e-8
        assert np.abs(second_moments(D, D) - np.outer(f.k2, f.k2)).max() < 1e-8
        assert np.abs(second_moments(W, D) - np.outer(f.k1, f.k2)).max() < 1e-8

    @pytest.mark.parametrize("frame_index", range(12))
    def test_second_moments_every_frame(self, geom, base, dense_grid, frame_index):
        frame = (geom.lambda_b + geom.lambda_u)[frame_index]
        params = BlockParams(lam=2, r_perp=0.5, r_par=0.5, mu=1.0,
                             n_shear_harmonics=1, n_conc_harmonics=1)
        blocks = sample_blocks(frame, params, dense_grid, base)
        W = flow_field(blocks, "velocity").data
        D = flow_field(blocks, "magnetic").data
        assert np.abs(second_moments(W, W) - np.outer(frame.k1, frame.k1)).max() < 1e-8
        assert np.abs(second_moments(W, D) - np.outer(frame.k1, frame.k2)).max() < 1e-8

    def test_frozen_blocks_time_independent(self, geom, base, dense_grid):
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=0.0,
                             n_conc_harmonics=1)
        blocks = sample_blocks(geom.lambda_b[0], params, dense_grid, base)
        W = flow_field(blocks, "velocity").data
        assert np.abs(W - W[0]).max() == 0.0

    def test_slice_matches_field(self, banded_blocks):
        field = flow_field(banded_blocks, "magnetic_potential")
        assert np.array_equal(field.data[3], banded_blocks.flow_slice("magnetic_potential", 3))

    def test_slice_matches_direct_phase_evaluation(self, banded_blocks):
        # spot-check the integer table lookup against a direct evaluation
        g = banded_blocks.grid
        j, ii = 5, (7, 21, 40)
        x = g.x()
        xi = sum(a * x[i] for a, i in zip(banded_blocks.a_int, ii))
        xi += banded_blocks.rate * g.t()[j]
        want = banded_blocks.shear_band(np.array([xi]))[0]
        got = banded_blocks.profile_slice("shear", j)[ii]
        assert abs(want - got) < 1e-12

    def test_unknown_kinds_rejected(self, banded_blocks):
        with pytest.raises(ValueError):
            banded_blocks.profile_slice("vorticity", 0)
        with pytest.raises(ValueError):
            banded_blocks.flow_slice("pressure", 0)


class TestFlowAlgebra:
    """blocks.Family and flow_products state the two flow rules once:
    velocity frames carry W = psi phi k1 only, magnetic frames also
    D = psi phi k2, and the products are W (x) W - D (x) D in the velocity
    equation and D (x) W - W (x) D in the magnetic one."""

    @pytest.fixture(scope="class")
    def families(self, geom, base, dense_grid):
        params = BlockParams(lam=1, mu=1.0, n_conc_harmonics=1)
        blocks = {fr.name: sample_blocks(fr, params, dense_grid, base)
                  for fr in geom.lambda_b + geom.lambda_u}
        return {name: (frames, family(name, frames, blocks, dense_grid))
                for name, frames in (("magnetic", geom.lambda_b),
                                     ("velocity", geom.lambda_u))}

    @pytest.mark.parametrize("name", ["magnetic", "velocity"])
    def test_family_rows_are_the_frame_directions(self, families, name):
        frames, fam = families[name]
        assert fam.name == name
        assert [bs.frame.name for bs in fam.sets] == [fr.name for fr in frames]
        assert fam.sides == (("velocity", "magnetic") if name == "magnetic"
                             else ("velocity",))
        for rows in (fam.flows, fam.potentials):
            assert rows.shape == (len(frames), 6)
            assert not rows.flags.writeable
        inv_pot = np.array([1.0 / fr.denom ** 2 for fr in frames])[:, None]
        k1 = np.stack([fr.k1 for fr in frames])
        k2 = np.stack([fr.k2 for fr in frames])
        assert np.array_equal(fam.flows[:, :3], k1)
        assert np.array_equal(fam.potentials[:, :3], inv_pot * k1)
        if name == "magnetic":
            assert np.array_equal(fam.flows[:, 3:], k2)
            assert np.array_equal(fam.potentials[:, 3:], inv_pot * k2)
        else:
            assert not fam.flows[:, 3:].any()
            assert not fam.potentials[:, 3:].any()

    @pytest.mark.parametrize("name", ["magnetic", "velocity"])
    @pytest.mark.parametrize("j", [0, 5])
    def test_every_flow_is_its_envelope_times_its_row(self, families, name,
                                                      j):
        # the rank-one identity the builders and verifiers rest on, bitwise
        _, fam = families[name]
        n = fam.sets[0].grid.n_x
        for rows, profile, suffix in ((fam.flows, "concentration", ""),
                                      (fam.potentials, "potential",
                                       "_potential")):
            env = envelope_stack(fam.sets, j, profile)
            for i, bs in enumerate(fam.sets):
                for s, side in enumerate(fam.sides):
                    want = bs.flow_slice(side + suffix, j)
                    got = (env[:, i, None] * rows[i, 3 * s:3 * s + 3])
                    assert np.array_equal(got.reshape(n, n, n, 3), want), (
                        bs.frame.name, side + suffix)

    def test_family_validates_its_block_sets(self, geom, families,
                                             dense_grid):
        _, mag = families["magnetic"]
        blocks = {bs.frame.name: bs for bs in mag.sets}
        missing = dict(blocks)
        del missing[geom.lambda_b[1].name]
        with pytest.raises(ValueError, match="missing block set"):
            family("magnetic", geom.lambda_b, missing, dense_grid)
        swapped = dict(blocks)
        swapped[geom.lambda_b[1].name] = blocks[geom.lambda_b[2].name]
        with pytest.raises(ValueError, match="sampled for frame"):
            family("magnetic", geom.lambda_b, swapped, dense_grid)
        with pytest.raises(ValueError, match="different grid"):
            family("magnetic", geom.lambda_b, blocks, Grid4(n_t=8, n_x=64))
        with pytest.raises(ValueError, match="unknown frame family"):
            family("pressure", geom.lambda_b, blocks, dense_grid)

    def test_magnetic_products_are_the_skew_generators(self, families):
        frames, fam = families["magnetic"]
        want = np.stack([skew_generator(fr) for fr in frames])
        assert np.array_equal(flow_products(fam.flows)[:, 3:], want)

    def test_velocity_products_are_the_sym_generators(self, families):
        frames, fam = families["velocity"]
        want = np.stack([sym_generator(fr) for fr in frames])
        assert np.array_equal(flow_products(fam.flows)[:, :3], want)

    def test_magnetic_velocity_product_is_the_imbalance(self, families):
        frames, fam = families["magnetic"]
        want = np.stack([np.outer(fr.k1, fr.k1) - np.outer(fr.k2, fr.k2)
                         for fr in frames])
        assert np.array_equal(flow_products(fam.flows)[:, :3], want)

    def test_velocity_frames_drive_no_magnetic_product(self, families):
        _, fam = families["velocity"]
        assert not flow_products(fam.flows)[:, 3:].any()


def worst(report):
    return max(report[name] for name in IDENTITY_NAMES)


class TestIdentities:
    def test_all_identities_dense(self, dense_blocks):
        report = verify_identities(dense_blocks, tol=1e-7)
        assert set(report) == set(IDENTITY_NAMES) | {
            f"{name}_tolerance" for name in IDENTITY_NAMES}
        assert worst(report) < 1e-10
        assert all(report[f"{name}_tolerance"] == 1e-7
                   for name in IDENTITY_NAMES)

    def test_identities_banded(self, banded_blocks):
        report = verify_identities(banded_blocks, tol=1e-7)
        assert worst(report) < 1e-10

    def test_identities_concentrated(self, geom, base):
        # concentrated parameters on a magnetic frame, fine grid
        params = BlockParams(lam=8, r_perp=0.25, r_par=0.5, mu=4.0)
        blocks = sample_blocks(geom.lambda_b[0], params, Grid4(n_t=8, n_x=128), base)
        report = verify_identities(blocks, time_indices=(0, 3), tol=1e-7)
        assert worst(report) < 1e-10

    def test_identities_velocity_frame(self, geom, base, dense_grid):
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=3.0,
                             n_conc_harmonics=1)
        blocks = sample_blocks(geom.lambda_u[2], params, dense_grid, base)
        report = verify_identities(blocks, tol=1e-7)
        assert worst(report) < 1e-10

    def test_frozen_blocks_still_satisfy_identities(self, geom, base, dense_grid):
        # the transport source is stated in its time-cancelled form, so the
        # frozen family must satisfy the same seven identities
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=0.0,
                             n_conc_harmonics=1)
        blocks = sample_blocks(geom.lambda_b[4], params, dense_grid, base)
        report = verify_identities(blocks, tol=1e-7)
        assert worst(report) < 1e-10

    def test_zero_blocks_trivially_pass(self, geom, dense_grid):
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=1.0)
        zero = BandProfile([0.0])
        blocks = BlockSet(geom.lambda_b[0], params, dense_grid,
                          shear_band=zero, conc_band=zero, potential_band=zero)
        report = verify_identities(blocks, time_indices=(0,), tol=1e-7)
        assert worst(report) == 0.0

    def test_broken_potential_lock_is_named(self, geom, base, dense_grid):
        # breaking phi = -r_perp^2 Phi'' must fail the curl identities and
        # report them by name
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=1.0,
                             n_conc_harmonics=1)
        good = sample_blocks(geom.lambda_b[0], params, dense_grid, base)
        bad = BlockSet(geom.lambda_b[0], params, dense_grid,
                       shear_band=good.shear_band,
                       conc_band=good.conc_band,
                       potential_band=good.potential_band.scaled(1.25))
        with pytest.raises(BlockIdentityError) as err:
            verify_identities(bad, time_indices=(0,), tol=1e-7)
        names = {name for name, _ in err.value.failures}
        assert "velocity_potential_curl" in names
        assert "magnetic_potential_curl" in names
        assert "velocity_transport" not in names

    def test_nan_table_fails_every_identity(self, geom, dense_grid):
        # a NaN slice residual sticks in the running maximum, so it cannot
        # pass as a zero
        params = BlockParams(lam=1, r_perp=1.0, r_par=1.0, mu=1.0,
                             n_conc_harmonics=1)
        good = BandProfile([0.0, 0.5])
        bad = BlockSet(geom.lambda_b[0], params, dense_grid,
                       shear_band=BandProfile([0.0, np.nan]),
                       conc_band=good, potential_band=good)
        with pytest.raises(BlockIdentityError) as err:
            verify_identities(bad, time_indices=(0, 2), tol=1e-7)
        assert [name for name, _ in err.value.failures] == list(IDENTITY_NAMES)
        assert all(np.isnan(res) for _, res in err.value.failures)


class TestScalingLaws:
    def test_amplitude_law_p1(self, base):
        fit = measure_intermittency(base, law_sweep(), p=1.0)
        assert abs(fit.slope - 1.0) < 0.1

    def test_amplitude_law_sup(self, base):
        fit = measure_intermittency(base, law_sweep(), p=np.inf)
        assert abs(fit.slope - 1.0) < 0.1

    def test_power_norm_flat_across_scales(self, base):
        fit = measure_intermittency(base, law_sweep(), p=2.0)
        assert np.isnan(fit.slope)
        assert fit.max_flat_deviation < 0.05

    def test_gradient_laws(self, base):
        fit1 = measure_intermittency(base, law_sweep(), p=2.0, grad_order=1)
        fit2 = measure_intermittency(base, law_sweep(), p=1.0, grad_order=2)
        assert abs(fit1.slope - 1.0) < 0.1
        assert abs(fit2.slope - 1.0) < 0.1

    def test_time_derivative_law(self, base):
        fit = measure_intermittency(base, law_sweep(), p=1.0, time_order=1)
        assert abs(fit.slope - 1.0) < 0.1

    def test_short_sweep_rejected(self, base):
        with pytest.raises(ValueError):
            measure_intermittency(base, law_sweep(lams=(4, 16)))

    def test_product_law(self, geom, base):
        b1, b2 = geom.lambda_b[0], geom.lambda_b[1]
        fit = measure_product_intermittency(base, law_sweep(), b1, b2, p=1.0)
        assert abs(fit.slope - 1.0) < 0.15

    def test_product_requires_antipodal_pair(self, geom, base):
        with pytest.raises(ValueError):
            product_norm(base, law_sweep()[0], geom.lambda_b[0], geom.lambda_b[2])

    def test_power_norm_value(self, base):
        # both profiles carry unit power, so the concentrated power norm
        # stays one exactly
        v = block_norm(base, BlockParams(lam=16, r_perp=1 / 16, r_par=0.25, mu=4.0))
        assert abs(v - 1.0) < 1e-6

    def test_predicted_laws(self):
        p = BlockParams(lam=8, r_perp=0.25, r_par=0.5, mu=4.0)
        assert predicted_block_norm(p, 2.0) == 1.0
        assert predicted_block_norm(p, 2.0, grad_order=1) == pytest.approx(8.0)
        assert predicted_block_norm(p, 2.0, time_order=1) == pytest.approx(
            0.25 * 8 * 4.0 / 0.5)
        assert predicted_product_norm(p, 1.0) == pytest.approx(0.5)
        assert predicted_product_norm(p, np.inf) == pytest.approx(1.0 / (0.25 * 0.5))


class TestSupportGeometry:
    def test_single_block_fractions(self, geom, base):
        grid = Grid4(n_t=8, n_x=4096)
        for params in law_sweep():
            fs = support_fraction(base, params, geom.lambda_b[0], grid, "shear")
            fc = support_fraction(base, params, geom.lambda_b[0], grid, "concentration")
            assert abs(fs * np.pi / params.r_par - 1.0) < 0.2
            assert abs(fc * np.pi / params.r_perp - 1.0) < 0.2

    def test_fraction_slopes(self, geom, base):
        grid = Grid4(n_t=8, n_x=4096)
        sweep = law_sweep()
        fs = [support_fraction(base, q, geom.lambda_u[0], grid, "shear") for q in sweep]
        fc = [support_fraction(base, q, geom.lambda_u[0], grid, "concentration")
              for q in sweep]
        assert abs(fit_loglog([q.r_par for q in sweep], fs) - 1.0) < 0.2
        assert abs(fit_loglog([q.r_perp for q in sweep], fc) - 1.0) < 0.2

    def test_unknown_support_kind(self, geom, base):
        with pytest.raises(ValueError):
            support_fraction(base, law_sweep()[0], geom.lambda_b[0],
                             Grid4(n_t=8, n_x=64), "temporal")

    def test_pair_overlap_small_but_present(self, geom, base):
        grid = Grid4(n_t=8, n_x=64)
        params = BlockParams(lam=8, r_perp=1 / 8, r_par=8 ** -0.5, mu=4.0)
        frac = pair_support_fraction(base, params, geom.lambda_b[0],
                                     geom.lambda_b[1], grid)
        assert 0.0 < frac <= params.r_par ** 2 * params.r_perp


class TestCorrectorSizes:
    @pytest.mark.parametrize("lam,r_perp,n_conc", [
        (1, 1.0, 2), (4, 0.25, 2), (2, 0.5, 2), (1, 1.0, 1)])
    def test_potential_amplitude_window(self, geom, base, lam, r_perp, n_conc):
        # the leading flow and lam^2 N^2 times its potential stay within a
        # factor of ten of each other across the sampled configurations
        params = BlockParams(lam=lam, r_perp=r_perp, r_par=1.0, mu=0.0,
                             n_conc_harmonics=n_conc)
        blocks = sample_blocks(geom.lambda_b[0], params, Grid4(n_t=8, n_x=64), base)
        lead = lebesgue_norm(flow_field(blocks, "velocity"), np.inf, 2.0)
        pot = lebesgue_norm(flow_field(blocks, "velocity_potential"), np.inf,
                            2.0)
        ratio = (lam * geom.lambda_b[0].denom) ** 2 * pot / lead
        assert 0.1 < ratio < 10.0

    def test_corrector_smaller_than_flow(self, banded_blocks):
        # at unit concentration the corrector is bounded by the flow scale
        lead = lebesgue_norm(flow_field(banded_blocks, "velocity"), np.inf,
                             2.0)
        corr = lebesgue_norm(flow_field(banded_blocks, "velocity_corrector"),
                             np.inf, 2.0)
        assert corr < 10.0 * lead
