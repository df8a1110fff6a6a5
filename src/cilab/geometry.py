"""Wavevector frames and the two affine geometric decompositions.

One family of frames carries the skew decomposition: the generators
k2 (x) k1 - k1 (x) k2 of a right-handed orthonormal frame equal the cross
product matrix of k, so a skew matrix A is reconstructed exactly by affine
coefficients in its axial vector. The second family carries the symmetric
decomposition around the identity through rank-one tensors k1 (x) k1.

The shipped candidate set is chosen so that, beyond the reconstruction
identities, the phase lattices of distinct frames admit no resonance with
all four harmonic indices nonzero at low order. Cross means of mixed wave
products then vanish because every surviving resonance touches a mean-zero
profile factor. Every all-nonzero resonance of the shipped set needs at
least 3 harmonics in one shear profile and at least 3 in one concentration
profile simultaneously; shipped grid configurations use a single shear
harmonic and stay clear.

Both decompositions are exact throughout: the skew base is the uniform
c = 3/n, valid because the candidate axes sum to zero over the integers,
and the symmetric base and both correction tables come from exact
rational inverses. The tables act on compact components in the layout of
cilab.field (SYM_PAIRS, SKEW_PAIRS), the layout the amplitudes store, so
gamma^2 = c + compact(A) @ L^T. Floating point enters only at evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .field import SKEW_PAIRS, SYM_PAIRS, frobenius_weights


class ConstructionError(RuntimeError):
    """Raised when no valid coefficient vector exists for a candidate set."""


class OutOfBallError(ValueError):
    """Raised when a matrix lies outside a decomposition's validity ball."""


@dataclass(frozen=True)
class Frame:
    """Orthonormal right-handed triple (k, k1, k2) of rational unit vectors,
    stored as integer triples over a common denominator."""

    name: str
    k_num: tuple
    k1_num: tuple
    k2_num: tuple
    denom: int

    def __post_init__(self):
        vs = [self.k_num, self.k1_num, self.k2_num]
        n = Fraction(self.denom)
        for v in vs:
            if sum(Fraction(c) ** 2 for c in v) != n * n:
                raise ConstructionError(f"{self.name}: {v} is not length {self.denom}")
        for a in range(3):
            for b in range(a + 1, 3):
                if sum(Fraction(x) * Fraction(y) for x, y in zip(vs[a], vs[b])) != 0:
                    raise ConstructionError(f"{self.name}: vectors not orthogonal")
        cross = (
            self.k1_num[1] * self.k2_num[2] - self.k1_num[2] * self.k2_num[1],
            self.k1_num[2] * self.k2_num[0] - self.k1_num[0] * self.k2_num[2],
            self.k1_num[0] * self.k2_num[1] - self.k1_num[1] * self.k2_num[0],
        )
        if tuple(c * self.denom for c in self.k_num) != cross:
            raise ConstructionError(f"{self.name}: frame is not right-handed")

    @property
    def k(self) -> np.ndarray:
        return np.array(self.k_num, dtype=float) / self.denom

    @property
    def k1(self) -> np.ndarray:
        return np.array(self.k1_num, dtype=float) / self.denom

    @property
    def k2(self) -> np.ndarray:
        return np.array(self.k2_num, dtype=float) / self.denom


# Candidate frames, all denominator 5. The symmetric family points its wave
# directions along the signed axes and takes 3-4-5 tangents in the normal
# plane; the six rank-one tensors k1 (x) k1 then form a basis of the
# symmetric space whose unique base solution is 1/2 on every frame. The skew
# family uses the complementary in-plane 3-4-5 directions (never parallel to
# a symmetric-family tangent) as wave directions, in antipodal pairs; each
# pair swaps the roles of the axis tangent and the in-plane tangent, so the
# first and second tangents agree as multisets and the rank-one imbalance
# sum(c (k1 k1^T - k2 k2^T)) vanishes exactly at the center. All twelve
# second tangents are pairwise distinct.

SKEW_FRAME_CANDIDATES = (
    Frame("B1", (4, 3, 0), (0, 0, 5), (3, -4, 0), 5),
    Frame("B2", (-4, -3, 0), (3, -4, 0), (0, 0, 5), 5),
    Frame("B3", (0, 4, 3), (5, 0, 0), (0, 3, -4), 5),
    Frame("B4", (0, -4, -3), (0, 3, -4), (5, 0, 0), 5),
    Frame("B5", (4, 0, 3), (0, 5, 0), (-3, 0, 4), 5),
    Frame("B6", (-4, 0, -3), (-3, 0, 4), (0, 5, 0), 5),
)

SYM_FRAME_CANDIDATES = (
    Frame("u1", (0, 0, 5), (3, 4, 0), (-4, 3, 0), 5),
    Frame("u2", (0, 0, -5), (4, -3, 0), (-3, -4, 0), 5),
    Frame("u3", (5, 0, 0), (0, 3, 4), (0, -4, 3), 5),
    Frame("u4", (-5, 0, 0), (0, 4, -3), (0, -3, -4), 5),
    Frame("u5", (0, 5, 0), (4, 0, -3), (-3, 0, -4), 5),
    Frame("u6", (0, -5, 0), (3, 0, 4), (-4, 0, 3), 5),
)


def skew_generator(frame: Frame) -> np.ndarray:
    """k2 (x) k1 - k1 (x) k2, equal to the cross-product matrix of k."""
    k1, k2 = frame.k1, frame.k2
    return np.outer(k2, k1) - np.outer(k1, k2)


def sym_generator(frame: Frame) -> np.ndarray:
    return np.outer(frame.k1, frame.k1)


def _rational_solve(a, b):
    """Solve A x = b exactly over Fractions (A square, lists of lists)."""
    n = len(a)
    m = [row[:] + rhs[:] for row, rhs in zip(a, b)]
    w = len(m[0])
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ConstructionError("singular rational system")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return [row[n:w] for row in m]


def _solve_skew_coefficients(frames):
    """Base coefficients c with sum c k = 0, normalized to sum c = 3: the
    max-min optimum c = 3/n on every frame, a solution exactly when the
    axes k sum to zero, which is checked over the integers."""
    scale = math.lcm(*(f.denom for f in frames))
    if any(sum(f.k_num[axis] * (scale // f.denom) for f in frames)
           for axis in range(3)):
        raise ConstructionError(
            "skew base infeasible: the candidate axes k do not sum to zero, "
            "so the uniform c = 3/n does not solve sum c k = 0")
    return [Fraction(3, len(frames))] * len(frames)


# (axis, sign) of the axial vector omega(A) = (A21, A02, A10) on each slot
# of SKEW_PAIRS: (A01, A02, A12) = (-omega_2, omega_1, -omega_0)
_AXIAL_SLOTS = ((2, -1), (1, 1), (0, -1))


def _skew_correction_maps(frames):
    """L as an (n, 3) table on SKEW_PAIRS: row k is k_k^T (M M^T)^-1, the
    exact pseudoinverse of the span map M in axial coordinates, read
    through the axial slots."""
    cols = [[Fraction(f.k_num[a], f.denom) for f in frames] for a in range(3)]
    gram = [[sum(cols[a][j] * cols[b][j] for j in range(len(frames)))
             for b in range(3)] for a in range(3)]
    rhs = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    gram_inv = _rational_solve(gram, rhs)
    rows = [[sum(cols[a][j] * gram_inv[a][b] for a in range(3))
             for b in range(3)] for j in range(len(frames))]
    return np.array([[float(sign * row[axis]) for axis, sign in _AXIAL_SLOTS]
                     for row in rows])


def _sym_decomposition(frames):
    """Base coefficients c with sum c k1 (x) k1 = Id and the (n, 6) table
    L on SYM_PAIRS, both from one exact inversion of the span map M from
    coefficients to compact components: c = M^-1 compact(Id), and row k
    of M^-1 is L_k."""
    k1s = [[Fraction(c, f.denom) for c in f.k1_num] for f in frames]
    mat = [[k1[a] * k1[b] for k1 in k1s] for a, b in zip(*SYM_PAIRS)]
    ident = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    inv = _rational_solve(mat, ident)
    diagonal = np.equal(*SYM_PAIRS)
    c_exact = [sum(v for v, on in zip(row, diagonal) if on) for row in inv]
    if min(c_exact) <= 0:
        raise ConstructionError(
            "symmetric base program infeasible: the unique solution of "
            "sum c k1 k1^T = Id has a nonpositive coefficient")
    return c_exact, np.array([[float(v) for v in row] for row in inv])


def _dual_norm(table, pairs) -> float:
    """Largest norm of the functionals A -> compact(A) @ t over tensors of
    the class with unit Frobenius norm: sqrt(sum t^2 / w), with w the
    Frobenius weights of the compact components."""
    return float(np.sqrt((table * table / frobenius_weights(pairs)).sum(
        axis=-1)).max())


@dataclass(frozen=True)
class GeometrySet:
    lambda_u: tuple
    lambda_b: tuple
    c_u: np.ndarray
    c_b: np.ndarray
    c_u_exact: tuple
    c_b_exact: tuple
    L_u: np.ndarray  # (6, 6): one row per frame, on SYM_PAIRS
    L_b: np.ndarray  # (6, 3): one row per frame, on SKEW_PAIRS
    eps_u: float
    eps_b: float


def build_geometry() -> GeometrySet:
    frames_b = SKEW_FRAME_CANDIDATES
    frames_u = SYM_FRAME_CANDIDATES

    dirset = {(tuple(Fraction(c, f.denom) for c in f.k_num)) for f in frames_b}
    dirset_u = {(tuple(Fraction(c, f.denom) for c in f.k_num)) for f in frames_u}
    if dirset & dirset_u:
        raise ConstructionError("candidate sets share a wavevector direction")
    k2s = [tuple(Fraction(c, f.denom) for c in f.k2_num) for f in frames_b + frames_u]
    if len(set(k2s)) != len(k2s):
        raise ConstructionError("candidate second tangents are not pairwise distinct")

    c_b = _solve_skew_coefficients(frames_b)
    c_u, L_u = _sym_decomposition(frames_u)
    L_b = _skew_correction_maps(frames_b)

    margin = 0.9
    eps_b = margin * float(min(c_b)) / _dual_norm(L_b, SKEW_PAIRS)
    eps_u = margin * float(min(c_u)) / _dual_norm(L_u, SYM_PAIRS)

    return GeometrySet(
        lambda_u=frames_u, lambda_b=frames_b,
        c_u=np.array([float(c) for c in c_u]),
        c_b=np.array([float(c) for c in c_b]),
        c_u_exact=tuple(c_u), c_b_exact=tuple(c_b),
        L_u=L_u, L_b=L_b,
        eps_u=eps_u, eps_b=eps_b,
    )


def measure_m_star(geom: GeometrySet, samples: int = 200, seed: int = 1) -> float:
    """Sampled Lipschitz constant of gamma = sqrt(gamma^2) over both balls."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        w1, w2 = rng.normal(size=3), rng.normal(size=3)
        a1 = _skew_from_axial(w1 / np.linalg.norm(w1) * rng.uniform(0, geom.eps_b) / np.sqrt(2))
        a2 = _skew_from_axial(w2 / np.linalg.norm(w2) * rng.uniform(0, geom.eps_b) / np.sqrt(2))
        g1 = np.sqrt(gamma_skew(geom, a1))
        g2 = np.sqrt(gamma_skew(geom, a2))
        d = np.sqrt(((a1 - a2) ** 2).sum())
        if d > 1e-12:
            worst = max(worst, float(np.abs(g1 - g2).max()) / d)
        s1 = _random_sym(rng, geom.eps_u)
        s2 = _random_sym(rng, geom.eps_u)
        g1 = np.sqrt(gamma_sym(geom, np.eye(3) + s1))
        g2 = np.sqrt(gamma_sym(geom, np.eye(3) + s2))
        d = np.sqrt(((s1 - s2) ** 2).sum())
        if d > 1e-12:
            worst = max(worst, float(np.abs(g1 - g2).max()) / d)
    return worst


def _skew_from_axial(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _random_sym(rng, radius):
    m = rng.normal(size=(3, 3))
    s = 0.5 * (m + m.T)
    s *= rng.uniform(0, radius) / np.sqrt((s * s).sum())
    return s


def _check_ball(dev: np.ndarray, eps: float, what: str):
    nrm = np.sqrt((dev ** 2).sum(axis=(-2, -1)))
    worst = float(nrm.max())
    if worst > eps * (1 + 1e-12):
        raise OutOfBallError(f"{what}: norm {worst:.6g} exceeds ball radius {eps:.6g}")


def gamma_skew(geom: GeometrySet, a) -> np.ndarray:
    """Squared coefficients gamma^2 for the skew decomposition of a.

    Accepts a single 3x3 matrix or an array of matrices in the trailing two
    axes; returns coefficients with one leading axis per frame appended last.
    """
    a = np.asarray(a, dtype=float)
    skew_defect = np.abs(a + np.swapaxes(a, -1, -2)).max()
    if skew_defect > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("gamma_skew needs a skew-symmetric input")
    _check_ball(a, geom.eps_b, "gamma_skew")
    vals = geom.c_b + a[..., SKEW_PAIRS[0], SKEW_PAIRS[1]] @ geom.L_b.T
    if vals.min() <= 0:
        raise ConstructionError("gamma_skew produced a nonpositive coefficient")
    return vals


def gamma_sym(geom: GeometrySet, s) -> np.ndarray:
    """Squared coefficients gamma^2 for the symmetric decomposition of s,
    affine around the identity."""
    s = np.asarray(s, dtype=float)
    sym_defect = np.abs(s - np.swapaxes(s, -1, -2)).max()
    if sym_defect > 1e-10 * max(1.0, np.abs(s).max()):
        raise ValueError("gamma_sym needs a symmetric input")
    dev = s - np.eye(3)
    _check_ball(dev, geom.eps_u, "gamma_sym")
    vals = geom.c_u + dev[..., SYM_PAIRS[0], SYM_PAIRS[1]] @ geom.L_u.T
    if vals.min() <= 0:
        raise ConstructionError("gamma_sym produced a nonpositive coefficient")
    return vals


def reconstruct_skew(geom: GeometrySet, coeffs) -> np.ndarray:
    gens = np.stack([skew_generator(f) for f in geom.lambda_b])
    return np.einsum("...f,fij->...ij", np.asarray(coeffs), gens)


def reconstruct_sym(geom: GeometrySet, coeffs) -> np.ndarray:
    gens = np.stack([sym_generator(f) for f in geom.lambda_u])
    return np.einsum("...f,fij->...ij", np.asarray(coeffs), gens)


def pair_resonances(f1: Frame, f2: Frame, n_max: int = 8):
    """Integer resonances among the four phase forms of two frames.

    The phase lattice of a frame's wave pair is spanned by (k1_num, N mu)
    for the shear factor and (k_num, 0) for the concentration factor, in
    units of the common integer phase scale. A resonance is a nontrivial
    integer combination summing to zero in space and time; returned tuples
    are (n1, n2, n3, n4) with n1, n3 the shear slots of the two frames.
    Combinations where some slot vanishes are harmless (every profile is
    mean-zero) and are not reported.
    """
    out = []
    n1n3 = []
    for n1 in range(-n_max, n_max + 1):
        for n3 in range(-n_max, n_max + 1):
            if n1 * f1.denom + n3 * f2.denom == 0:
                n1n3.append((n1, n3))
    for (n1, n3), n2, n4 in product(
            n1n3, range(-n_max, n_max + 1), range(-n_max, n_max + 1)):
        if 0 in (n1, n2, n3, n4):
            continue
        vec = [n1 * f1.k1_num[a] + n2 * f1.k_num[a]
               + n3 * f2.k1_num[a] + n4 * f2.k_num[a] for a in range(3)]
        if vec == [0, 0, 0]:
            out.append((n1, n2, n3, n4))
    return out
