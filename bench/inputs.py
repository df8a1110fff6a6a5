"""Seeded, vectorised inputs for the benchmark workloads.

Every field is a sum of random plane waves with integer wavevectors in
[-K_MAX, K_MAX]^4 (time and three space axes), six waves per component,
with normal amplitudes and uniform phases, in the style of the test
suite's random fields. A wave factors into one time factor and three
spatial factors, so each component comes out of one small complex matrix
product instead of a per-point loop; peak memory stays at a few copies of
the output.

The wavevectors and amplitude sizes come from a fixed stream that every
seed shares; the seed draws the phases (and the sparse time window).
Identity checks compare aliasing residuals against tolerances scaled by
the amplitude tail, and with amplitudes redrawn per seed the low-frequency
balance of verified_step failed on two of six seeds and passed on four
(residual over tolerance 0.97 to 3.1), so checks_failed would have
measured the draw rather than the program. With the shared support it
failed on all six phase draws tried (ratio 1.7 to 2.4).

Only numpy arrays leave this module: the program under test receives the
generated samples, never the generator.
"""

from __future__ import annotations

import numpy as np

N_WAVES = 6
K_MAX = 3
SCALE = 0.4  # stress amplitude relative to the state
SHARED_STREAM = 0


class Draws:
    """The two random streams behind one set of inputs."""

    def __init__(self, seed: int):
        self.shared = np.random.default_rng(SHARED_STREAM)
        self.seeded = np.random.default_rng(seed)


def _axis(n: int) -> np.ndarray:
    """Sample points of one periodic axis in [-pi, pi)."""
    return -np.pi + (2.0 * np.pi / n) * np.arange(n)


def _waves(draws: Draws, count: int):
    """Integer wavevectors (count, 4) and complex amplitudes (count,)."""
    k = draws.shared.integers(-K_MAX, K_MAX + 1, size=(count, 4))
    size = draws.shared.normal(size=count)
    phase = draws.seeded.uniform(0.0, 2.0 * np.pi, size=count)
    return k, size * np.exp(1j * phase)


def _synthesize(n_t: int, n_x: int, k, coef) -> np.ndarray:
    """Re sum_w coef[w, c] exp(i k_w . (t, x)) for every component c.

    k is (W, 4); coef is (W, C). Returns (n_t, n_x, n_x, n_x, C). Each
    component sums only the waves with a nonzero coefficient in it.
    """
    t, x = _axis(n_t), _axis(n_x)
    out = np.empty((n_t, n_x ** 3, coef.shape[1]))
    for c in range(coef.shape[1]):
        w = np.flatnonzero(coef[:, c])
        phase = [np.exp(1j * np.outer(k[w, axis], x)) for axis in (1, 2, 3)]
        space = (phase[0][:, :, None, None] * phase[1][:, None, :, None]
                 * phase[2][:, None, None, :]).reshape(len(w), -1)
        time = np.exp(1j * np.outer(t, k[w, 0])) * coef[w, c]  # (n_t, W)
        out[..., c] = (time @ space).real
    return out.reshape((n_t, n_x, n_x, n_x, coef.shape[1]))


def random_tensor(draws: Draws, n_t: int, n_x: int) -> np.ndarray:
    """Random band-limited 3x3 tensor samples, independent waves per entry."""
    k, amp = _waves(draws, 9 * N_WAVES)
    coef = np.zeros((9 * N_WAVES, 9), dtype=complex)
    coef[np.arange(9 * N_WAVES), np.repeat(np.arange(9), N_WAVES)] = amp
    return _synthesize(n_t, n_x, k, coef).reshape((n_t, n_x, n_x, n_x, 3, 3))


def random_divfree(draws: Draws, n_t: int, n_x: int) -> np.ndarray:
    """curl of a random band-limited vector potential, taken wave by wave:
    curl(e_c cos theta) = -sin(theta) (q x e_c), so the output is exactly
    solenoidal and spatially mean-free on every slice."""
    k, amp = _waves(draws, 3 * N_WAVES)
    comp = np.repeat(np.arange(3), N_WAVES)
    direction = np.cross(k[:, 1:].astype(float), np.eye(3)[comp])
    coef = 1j * amp[:, None] * direction  # -sin = Re(i e^{i theta})
    return _synthesize(n_t, n_x, k, coef)


def stress_pair(draws: Draws, n_t: int, n_x: int):
    """Symmetric traceless and skew stress samples, projected in place:
    SCALE * traceless(sym(T)) and SCALE * skew(T') for random T, T'."""
    r_u = random_tensor(draws, n_t, n_x)
    r_b = random_tensor(draws, n_t, n_x)
    for i in range(3):
        for j in range(i + 1, 3):
            pair = 0.5 * SCALE * (r_u[..., i, j] + r_u[..., j, i])
            r_u[..., i, j] = pair
            r_u[..., j, i] = pair
            pair = 0.5 * SCALE * (r_b[..., i, j] - r_b[..., j, i])
            r_b[..., i, j] = pair
            r_b[..., j, i] = -pair
        r_b[..., i, i] = 0.0
    diag = SCALE * np.einsum("...ii->...i", r_u)
    diag -= diag.mean(axis=-1, keepdims=True)
    for i in range(3):
        r_u[..., i, i] = diag[..., i]
    return r_u, r_b


def time_window(draws: Draws, n_t: int, width: int) -> np.ndarray:
    """Smooth nonnegative window that is positive on `width` consecutive
    slices (cyclically) and exactly zero on all others."""
    start = int(draws.seeded.integers(n_t))
    w = np.zeros(n_t)
    inside = np.sin(np.pi * np.arange(1, width + 1) / (width + 1)) ** 2
    w[(start + np.arange(width)) % n_t] = inside
    return w
