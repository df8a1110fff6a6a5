"""1D concentration profiles in space and time.

Spatial side: a smooth bump Phi supported in [-1, 1] with phi = -Phi'' and
an odd mean-zero bump psi, normalized so the squares of phi and psi average
to one over the circle. Temporal side: a train of m0 identical bumps at
fixed anchors; raising the compression tau squeezes every bump in place, so
the circle average of the square stays exactly one for all tau, the
antiderivative h of g^2 - 1 keeps a sup bound 2 pi / m0 independent of tau,
the support measure scales like 1/tau, and the L^gamma norms of the M-th
derivative scale like tau^(M + 1/2 - 1/gamma).

Grid-facing code never samples the raw bumps directly: their Fourier tails
decay only like exp(-c sqrt(n)) and would dominate identity residuals on
coarse lattices. BandProfile holds a truncated Fourier series of a profile,
supports exact differentiation and rescaling in coefficient space, and can
be renormalized so the quadratic normalizations hold exactly (Parseval) on
any lattice finer than twice its band.

Every integral of the bump (the normalizations, the train's mass behind h,
the mollifier's mass and symbols) goes through one Gauss-Legendre rule,
bump_integral; those integrands are smooth. blocks keeps a dense circle
rule for its norms, whose integrands |f|^p and sup |f| are not smooth.
"""

import functools

import numpy as np

from .grid import GridResolutionError

_QUAD_N = 1 << 13

# from 192 nodes on, every bump integral (orders 1-3) agrees with the rule at
# twice the nodes to 1e-15; 128 nodes still miss c_phi by 1e-13
_GAUSS_N = 256


@functools.lru_cache(maxsize=None)
def _bump_poly(order, deriv):
    """Integer-coefficient representation of the m-th derivative of
    exp(-q^-n), q = 1 - x^2, as b(x) * sum coef * x^i * q^-j. Terms obey
    the recurrence d/dx [x^i q^-j] = i x^(i-1) q^-j + 2j x^(i+1) q^-(j+1)
    plus the chain factor u' = -2n x q^-(n+1) from the exponent."""
    n = order
    terms = {(0, 0): 1}
    for _ in range(deriv):
        new = {}
        for (i, j), c in terms.items():
            if i:
                new[(i - 1, j)] = new.get((i - 1, j), 0) + i * c
            if j:
                new[(i + 1, j + 1)] = new.get((i + 1, j + 1), 0) + 2 * j * c
            new[(i + 1, j + n + 1)] = new.get((i + 1, j + n + 1), 0) - 2 * n * c
        terms = {ij: c for ij, c in new.items() if c}
    return tuple((i, j, c) for (i, j), c in sorted(terms.items()))


def _bump(x, order, deriv=0):
    """exp(-(1 - x^2)^-order) inside (-1, 1) and zero outside, or any
    derivative of it; near the endpoints the exponential damps every
    rational factor, so the result vanishes continuously."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    # below q = 1e-6 the value exp(-q^-order) underflows to an exact zero,
    # so trimming there loses nothing and keeps q^-j from overflowing
    inside = x * x < 1.0 - 1e-6
    if not inside.any():
        return out
    xi = x[inside]
    q = 1.0 - xi * xi
    b = np.exp(-q ** (-float(order)))
    total = np.zeros_like(xi)
    for i, j, c in _bump_poly(order, deriv):
        total += float(c) * xi ** i * q ** (-float(j))
    out[inside] = total * b
    return out


def _circle_nodes(n=_QUAD_N):
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


@functools.lru_cache(maxsize=None)
def _gauss_rule(n=_GAUSS_N):
    """Gauss-Legendre nodes and weights on [-1, 1]: five Newton steps on the
    recurrence for P_n from cosine guesses reach rounding for every n, and
    the weights 2 / ((1 - x^2) P_n'^2) come with the last step. numpy's
    leggauss calls an eigensolver and its weights drift by ~n ulps."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp ** 2)
    for arr in (x, w):  # every caller shares the cached arrays
        arr.setflags(write=False)
    return x, w


def bump_integral(fn, upper=1.0):
    """Integral over [-1, upper] of fn, which maps arrays ending in the node
    axis; an array of upper limits gives one integral per entry."""
    x, w = _gauss_rule()
    half = 0.5 * (np.asarray(upper, dtype=float)[..., None] + 1.0)
    return (fn(half * x + (half - 1.0)) * w).sum(axis=-1) * half[..., 0]


class SpatialProfiles:
    """Phi, phi = -Phi'' and psi on the circle, supported in [-1, 1]."""

    __slots__ = ("order", "c_phi", "c_psi")

    def __init__(self, order, c_phi, c_psi):
        self.order = order
        self.c_phi = c_phi
        self.c_psi = c_psi

    def Phi(self, x, deriv=0):
        return self.c_phi * _bump(x, self.order, deriv)

    def psi(self, x, deriv=0):
        # psi = c x b(x); Leibniz gives (x b)^(m) = x b^(m) + m b^(m-1)
        x = np.asarray(x, dtype=float)
        total = x * _bump(x, self.order, deriv)
        if deriv:
            total += deriv * _bump(x, self.order, deriv - 1)
        return self.c_psi * total


def make_spatial_profiles(smoothness_order: int = 1) -> SpatialProfiles:
    """Profiles from the exp(-1/(1-x^2)^order) family, scaled so the circle
    means of phi^2 and psi^2 are one."""
    if smoothness_order < 1:
        raise ValueError("smoothness order must be a positive integer")
    d2 = bump_integral(lambda x: _bump(x, smoothness_order, 2) ** 2)
    raw_psi = bump_integral(lambda x: (x * _bump(x, smoothness_order)) ** 2)
    return SpatialProfiles(smoothness_order, float(np.sqrt(2.0 * np.pi / d2)),
                           float(np.sqrt(2.0 * np.pi / raw_psi)))


def rescaled(profile_fn, r: float):
    """Periodized L^2-preserving rescale x -> r^(-1/2) p(x/r) on the circle."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"rescale parameter must lie in (0, 1], got {r}")
    amp = r ** -0.5

    def f(x):
        x = np.asarray(x, dtype=float)
        s = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
        return amp * profile_fn(s / r)

    return f


class BumpTrain:
    """Anchored train shape for the temporal profile: m0 identical bumps at
    the centers of the m0 equal arcs of the circle. Compression tau narrows
    each bump about its own anchor by 1/tau."""

    __slots__ = ("m0", "order", "amp")

    def __init__(self, m0: int = 8, order: int = 1):
        if m0 < 2:
            raise ValueError("bump train needs at least 2 anchors")
        self.m0 = m0
        self.order = order
        # makes the circle mean of g_tau^2 exactly one for every tau
        self.amp = float(np.sqrt(2.0 / bump_integral(self._square)))

    def _square(self, s):
        return _bump(s, self.order) ** 2

    def mass(self, x):
        """Share of the squared bump's integral left of x; the rule runs on
        [-1, x] only where |x| < 1."""
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, 1.0, 0.0)
        inside = np.abs(x) < 1.0
        out[inside] = (bump_integral(self._square, x[inside])
                       / bump_integral(self._square))
        return out

    @property
    def anchors(self):
        return -np.pi + (2.0 * np.arange(self.m0) + 1.0) * np.pi / self.m0

    def width(self, tau: float) -> float:
        return np.pi / (self.m0 * tau)

    def g_tau(self, t, tau, deriv=0):
        t = np.asarray(t, dtype=float)
        s = np.mod(t + np.pi, 2.0 * np.pi) - np.pi
        w = self.width(tau)
        out = np.zeros_like(s)
        for a in self.anchors:
            out += _bump((s - a) / w, self.order, deriv)
        return self.amp * np.sqrt(tau) * out / w ** deriv

    def h_tau(self, t, tau):
        """Antiderivative of g_tau^2 - 1 started at -pi; circle-periodic
        because each bump carries the same share of the total mass 2 pi."""
        t = np.asarray(t, dtype=float)
        s = np.mod(t + np.pi, 2.0 * np.pi) - np.pi
        w = self.width(tau)
        per_bump = 2.0 * np.pi / self.m0
        total = np.zeros_like(s)
        for a in self.anchors:
            total += self.mass((s - a) / w)
        return per_bump * total - (s + np.pi)


class TemporalProfiles:
    """Oscillated pair g(t) = g_tau(sigma t), h(t) = h_tau(sigma t); g is
    (2 pi / sigma)-periodic and dh/dt = sigma (g^2 - 1).

    In banded mode g and h are trigonometric polynomials built from the
    train: the quadratic normalization and the primitive identity then
    hold exactly on any lattice that carries the square of g."""

    __slots__ = ("shape", "tau", "sigma", "band_g", "band_h")

    def __init__(self, shape: BumpTrain, tau: int, sigma: int,
                 band_g=None, band_h=None):
        self.shape = shape
        self.tau = tau
        self.sigma = sigma
        self.band_g = band_g
        self.band_h = band_h

    def g(self, t, deriv=0):
        t = np.asarray(t, dtype=float)
        if self.band_g is not None:
            poly = self.band_g.derivative(deriv) if deriv else self.band_g
            return poly(t)
        return self.sigma ** deriv * self.shape.g_tau(self.sigma * t, self.tau, deriv)

    def h(self, t):
        t = np.asarray(t, dtype=float)
        if self.band_h is not None:
            return self.band_h(t)
        return self.shape.h_tau(self.sigma * t, self.tau)

    def g_base(self, t, deriv=0):
        """The unoscillated raw g_tau, for the scaling-law measurements."""
        return self.shape.g_tau(t, self.tau, deriv)

def make_temporal(g_shape, tau: int, sigma: int, n_t=None,
                  band=None) -> TemporalProfiles:
    """Build the oscillated temporal pair.

    Raw mode (neither n_t nor band) evaluates the bump train directly and
    serves the dense-quadrature scaling measurements. Given a lattice size
    n_t or an explicit band, g becomes the band-limited projection of the
    train, renormalized so the mean of g^2 is exactly one, and h its exact
    primitive in coefficient space; lattice identity checks need this mode,
    since raw bump samples carry unresolved tails. The default band is the
    largest whose square the lattice holds alias-free; couplings against
    further time-dependent factors usually want a smaller explicit band."""
    if g_shape is None:
        g_shape = BumpTrain()
    if tau < 1 or sigma < 1 or tau != int(tau) or sigma != int(sigma):
        raise ValueError("tau and sigma must be positive integers")
    tau = int(tau)
    sigma = int(sigma)
    if n_t is None and band is None:
        return TemporalProfiles(g_shape, tau, sigma)
    if band is None:
        band = (int(n_t) - 2) // (4 * sigma)
    band = int(band)
    if n_t is not None and 4 * sigma * band > int(n_t) - 2:
        raise GridResolutionError(
            f"a lattice of {n_t} slices cannot carry the square of the "
            f"oscillated profile: need 4*sigma*band <= n_t - 2, got "
            f"{4 * sigma * band} > {int(n_t) - 2}")
    if band < g_shape.m0:
        raise GridResolutionError(
            f"band {band} cannot carry the fundamental harmonic of a train "
            f"with {g_shape.m0} anchors; lower sigma or m0, or raise n_t")
    base = band_project(lambda s: g_shape.g_tau(s, tau), band).renormalized(1.0)
    osc = base.dilated(sigma)
    square = osc.squared().coef.copy()
    square[0] -= 1.0  # renormalization pinned the mean of g^2 at one
    prim = BandProfile(square).antiderivative().scaled(float(sigma))
    coef_h = prim.coef.copy()
    coef_h[0] = -complex(prim(np.array(-np.pi)))  # anchor h(-pi) = 0
    return TemporalProfiles(g_shape, tau, sigma,
                            band_g=osc, band_h=BandProfile(coef_h))


class BandProfile:
    """Real trigonometric polynomial on the circle, stored by its one-sided
    Fourier coefficients c_0..c_K: f(s) = c_0 + 2 Re sum_n c_n e^{ins}."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        # a copy: the profile freezes its coefficients, not the caller's
        coef = np.array(coef, dtype=complex)
        if coef.ndim != 1 or len(coef) == 0:
            raise ValueError("coefficients must be a nonempty 1D array")
        if abs(coef[0].imag) > 1e-14 * max(1.0, abs(coef[0])):
            raise ValueError("zeroth coefficient of a real profile must be real")
        self.coef = coef
        self.coef.setflags(write=False)

    @property
    def n_harmonics(self) -> int:
        return len(self.coef) - 1

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, float(self.coef[0].real))
        for n in range(1, len(self.coef)):
            out += 2.0 * (self.coef[n].real * np.cos(n * s)
                          - self.coef[n].imag * np.sin(n * s))
        return out

    def derivative(self, m: int = 1) -> "BandProfile":
        n = np.arange(len(self.coef))
        return BandProfile(self.coef * (1j * n) ** m)

    def antiderivative(self) -> "BandProfile":
        """Periodic primitive with zero mean; needs a mean-free profile."""
        if abs(self.coef[0]) > 1e-12 * max(1.0, np.abs(self.coef).max()):
            raise ValueError("only a mean-free profile has a periodic primitive")
        out = np.zeros_like(self.coef)
        out[1:] = self.coef[1:] / (1j * np.arange(1, len(self.coef)))
        return BandProfile(out)

    def squared(self) -> "BandProfile":
        """Pointwise square, exact in coefficient space; the band doubles."""
        k = self.n_harmonics
        full = np.concatenate([self.coef[:0:-1].conj(), self.coef])
        return BandProfile(np.convolve(full, full)[2 * k:])

    def dilated(self, m: int) -> "BandProfile":
        """Pushforward under s -> m s: harmonic n moves to harmonic m n."""
        if m < 1 or m != int(m):
            raise ValueError("dilation order must be a positive integer")
        out = np.zeros(int(m) * self.n_harmonics + 1, dtype=complex)
        out[:: int(m)] = self.coef
        return BandProfile(out)

    def scaled(self, factor: float) -> "BandProfile":
        return BandProfile(self.coef * factor)

    def zero_mean(self) -> "BandProfile":
        c = self.coef.copy()
        c[0] = 0.0
        return BandProfile(c)

    def mean_sq(self) -> float:
        """Circle mean of f^2; also the exact lattice mean on any uniform
        lattice with more than twice the band's points (Parseval)."""
        c = self.coef
        return float(c[0].real ** 2 + 2.0 * (np.abs(c[1:]) ** 2).sum())

    def renormalized(self, target_mean_sq: float = 1.0) -> "BandProfile":
        ms = self.mean_sq()
        if ms <= 0:
            raise ValueError("cannot renormalize an identically zero profile")
        return self.scaled(np.sqrt(target_mean_sq / ms))

def band_project(fn, n_harmonics: int, n_quad: int = _QUAD_N) -> BandProfile:
    """Truncated Fourier series of a circle-periodic callable, by dense FFT
    quadrature starting at -pi."""
    if n_harmonics < 0 or 2 * n_harmonics >= n_quad:
        raise ValueError("band must be nonnegative and well below the quadrature size")
    vals = np.asarray(fn(_circle_nodes(n_quad)), dtype=float)
    spec = np.fft.rfft(vals) / n_quad
    n = np.arange(n_harmonics + 1)
    phase = (-1.0) ** n  # start of the sample lattice sits at -pi
    return BandProfile(spec[: n_harmonics + 1] * phase)


def fit_loglog(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])
