"""Frame sets, base coefficients, and the affine decompositions."""

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cilab.field import SKEW_PAIRS, SYM_PAIRS, expand
from cilab.geometry import (
    ConstructionError, Frame, OutOfBallError, build_geometry, gamma_skew,
    gamma_sym, measure_m_star, pair_resonances, reconstruct_skew,
    reconstruct_sym, skew_generator, sym_generator, _solve_skew_coefficients,
)


@pytest.fixture(scope="module")
def geom():
    return build_geometry()


def random_skew(rng, radius):
    w = rng.normal(size=3)
    w *= rng.uniform(0, radius) / (np.sqrt(2.0) * np.linalg.norm(w))
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0]])


def random_sym_dev(rng, radius):
    m = rng.normal(size=(3, 3))
    s = 0.5 * (m + m.T)
    return s * rng.uniform(0, radius) / np.sqrt((s * s).sum())


class TestFrames:
    def test_counts_and_denominators(self, geom):
        assert len(geom.lambda_b) == 6
        assert len(geom.lambda_u) == 6
        assert all(f.denom == 5 for f in geom.lambda_b + geom.lambda_u)

    def test_bad_frame_rejected(self):
        with pytest.raises(ConstructionError):
            Frame("bad", (1, 0, 0), (0, 1, 0), (0, 1, 0), 1)
        with pytest.raises(ConstructionError):
            # left-handed triple
            Frame("bad", (0, 0, -1), (1, 0, 0), (0, 1, 0), 1)

    def test_direction_sets_disjoint(self, geom):
        dirs_b = {tuple(Fraction(c, f.denom) for c in f.k_num) for f in geom.lambda_b}
        dirs_u = {tuple(Fraction(c, f.denom) for c in f.k_num) for f in geom.lambda_u}
        assert not dirs_b & dirs_u

    def test_k2_pairwise_distinct(self, geom):
        k2s = [tuple(Fraction(c, f.denom) for c in f.k2_num)
               for f in geom.lambda_b + geom.lambda_u]
        assert len(set(k2s)) == 12

    def test_skew_generator_is_cross_matrix(self, geom):
        for f in geom.lambda_b:
            g = skew_generator(f)
            k = f.k
            expected = np.array([
                [0.0, -k[2], k[1]],
                [k[2], 0.0, -k[0]],
                [-k[1], k[0], 0.0]])
            assert np.abs(g - expected).max() <= 1e-15


class TestBaseCoefficients:
    def test_exact_values(self, geom):
        assert geom.c_b_exact == (Fraction(1, 2),) * 6
        assert geom.c_u_exact == (Fraction(1, 2),) * 6

    def test_skew_center_identity(self, geom):
        total = sum(c * skew_generator(f)
                    for c, f in zip(geom.c_b, geom.lambda_b))
        assert np.abs(total).max() <= 1e-15

    def test_sym_center_identity(self, geom):
        total = sum(c * sym_generator(f)
                    for c, f in zip(geom.c_u, geom.lambda_u))
        assert np.abs(total - np.eye(3)).max() <= 1e-15

    def test_sym_center_identity_is_exact(self, geom):
        # the coefficients come from an exact inverse of the span map, so
        # sum c k1 (x) k1 = Id holds over the rationals
        k1s = [[Fraction(c, f.denom) for c in f.k1_num] for f in geom.lambda_u]
        total = [[sum(c * k1[a] * k1[b] for c, k1 in zip(geom.c_u_exact, k1s))
                  for b in range(3)] for a in range(3)]
        assert total == [[int(a == b) for b in range(3)] for a in range(3)]
        assert all(type(c) is Fraction for c in geom.c_u_exact)

    def test_infeasible_candidates_error(self):
        bad = [f for f in build_geometry().lambda_b if f.k_num[0] >= 0
               and f.k_num[1] >= 0 and f.k_num[2] >= 0]
        with pytest.raises(ConstructionError, match="do not sum to zero"):
            _solve_skew_coefficients(bad)


class TestCompactTables:
    # row k of L reads frame k's coefficient off the compact components of
    # cilab.field, so the coefficients of the i-th compact basis tensor E_i
    # rebuild it; this pins the slot order and the axial signs
    FAMILIES = {
        "magnetic": ("L_b", "lambda_b", skew_generator, SKEW_PAIRS, -1.0),
        "velocity": ("L_u", "lambda_u", sym_generator, SYM_PAIRS, 1.0)}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_rebuild_the_compact_basis(self, geom, family):
        table, frames, generator, pairs, sign = self.FAMILIES[family]
        table, frames = getattr(geom, table), getattr(geom, frames)
        slots = len(pairs[0])
        assert table.shape == (6, slots)
        gens = np.stack([generator(f) for f in frames])
        for i in range(slots):
            basis = expand(np.eye(slots)[i], pairs, sign)
            rebuilt = np.einsum("k,kab->ab", table[:, i], gens)
            assert np.abs(rebuilt - basis).max() <= 1e-15


class TestSkewDecomposition:
    def test_zero_reconstructs(self, geom):
        coeffs = gamma_skew(geom, np.zeros((3, 3)))
        assert np.abs(coeffs - geom.c_b).max() <= 1e-15
        assert np.abs(reconstruct_skew(geom, coeffs)).max() <= 1e-15

    def test_single_direction_oracle(self, geom):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        a = geom.eps_b / 2 * (np.outer(e1, e2) - np.outer(e2, e1)) / np.sqrt(2)
        coeffs = gamma_skew(geom, a)
        assert np.abs(reconstruct_skew(geom, coeffs) - a).max() <= 1e-12

    def test_reconstruction_on_ball(self, geom):
        rng = np.random.default_rng(40)
        for _ in range(100):
            a = random_skew(rng, geom.eps_b)
            coeffs = gamma_skew(geom, a)
            assert coeffs.min() > 0
            assert np.abs(reconstruct_skew(geom, coeffs) - a).max() <= 1e-12

    def test_boundary_positivity(self, geom):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = random_skew(rng, geom.eps_b)
            nrm = np.sqrt((a * a).sum())
            if nrm > 0:
                a *= geom.eps_b / nrm
            assert gamma_skew(geom, a).min() > 0

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_affine_scaling(self, geom, t):
        rng = np.random.default_rng(42)
        a = random_skew(rng, geom.eps_b)
        lhs = gamma_skew(geom, t * a) - geom.c_b
        rhs = t * (gamma_skew(geom, a) - geom.c_b)
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_out_of_ball_rejected(self, geom):
        a = random_skew(np.random.default_rng(43), geom.eps_b)
        a *= 3 * geom.eps_b / np.sqrt((a * a).sum())
        with pytest.raises(OutOfBallError):
            gamma_skew(geom, a)

    def test_non_skew_rejected(self, geom):
        with pytest.raises(ValueError):
            gamma_skew(geom, np.eye(3))

    def test_vectorized_matches_loop(self, geom):
        rng = np.random.default_rng(44)
        mats = np.stack([random_skew(rng, geom.eps_b) for _ in range(12)])
        mats = mats.reshape(3, 4, 3, 3)
        batch = gamma_skew(geom, mats)
        assert batch.shape == (3, 4, 6)
        for i in range(3):
            for j in range(4):
                single = gamma_skew(geom, mats[i, j])
                assert np.abs(batch[i, j] - single).max() <= 1e-14


class TestSymDecomposition:
    def test_identity_center(self, geom):
        coeffs = gamma_sym(geom, np.eye(3))
        assert np.abs(coeffs - geom.c_u).max() <= 1e-15
        assert np.abs(reconstruct_sym(geom, coeffs) - np.eye(3)).max() <= 1e-13

    def test_diagonal_oracle(self, geom):
        s = np.eye(3) + geom.eps_u / 2 * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
        coeffs = gamma_sym(geom, s)
        assert np.abs(reconstruct_sym(geom, coeffs) - s).max() <= 1e-12

    def test_reconstruction_on_ball(self, geom):
        rng = np.random.default_rng(45)
        for _ in range(100):
            s = np.eye(3) + random_sym_dev(rng, geom.eps_u)
            coeffs = gamma_sym(geom, s)
            assert coeffs.min() > 0
            assert np.abs(reconstruct_sym(geom, coeffs) - s).max() <= 1e-12

    def test_out_of_ball_rejected(self, geom):
        s = np.eye(3) + random_sym_dev(np.random.default_rng(46), 3 * geom.eps_u)
        dev = s - np.eye(3)
        dev *= 2 * geom.eps_u / np.sqrt((dev * dev).sum())
        with pytest.raises(OutOfBallError):
            gamma_sym(geom, np.eye(3) + dev)

    def test_non_symmetric_rejected(self, geom):
        a = np.eye(3)
        a[0, 1] = 0.5
        with pytest.raises(ValueError):
            gamma_sym(geom, a)


class TestDerivedQuantities:
    def test_radii_positive(self, geom):
        assert geom.eps_b > 0.5
        assert geom.eps_u > 0

    def test_m_star_measured(self, geom):
        assert 0 < measure_m_star(geom) < 10.0


class TestResonances:
    # Global frame index (skew family first), mapped to the minimal shear and
    # concentration harmonic orders of the pair's all-nonzero resonances.
    # Every resonance needs at least 3 harmonics in both profiles at once, so
    # single-shear-harmonic grid configurations never excite one.
    RESONANT = {
        (0, 4): (3, 5), (2, 4): (4, 5),
        (6, 9): (5, 3), (6, 11): (5, 4), (7, 10): (5, 3),
        (8, 11): (5, 3), (9, 10): (5, 4),
    }

    def test_resonant_pairs_flagged_at_expected_order(self, geom):
        frames = list(geom.lambda_b) + list(geom.lambda_u)
        for (i, j), (shear, conc) in sorted(self.RESONANT.items()):
            res = pair_resonances(frames[i], frames[j])
            assert res, f"pair ({i}, {j}) should resonate"
            min_shear = min(min(abs(n[0]), abs(n[2])) for n in res)
            min_conc = min(min(abs(n[1]), abs(n[3])) for n in res)
            assert (min_shear, min_conc) == (shear, conc)

    def test_all_other_pairs_clean(self, geom):
        frames = list(geom.lambda_b) + list(geom.lambda_u)
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                if (i, j) in self.RESONANT:
                    continue
                assert pair_resonances(frames[i], frames[j]) == []
