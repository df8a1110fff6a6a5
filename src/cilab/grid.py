"""Uniform space-time grid on the periodic box [-pi, pi)^4.

The time circle is the first axis; the three spatial axes follow. The
space-time transforms run through the integer wavenumber tables defined
here (the spatial operators take float tables from cilab.spectral), so a
single Grid4 instance is shared by every field that must interoperate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class GridResolutionError(ValueError):
    """Raised when a grid cannot resolve a requested structure."""


def fft_workers() -> int:
    """Worker count for scipy.fft, from the CILAB_THREADS variable."""
    raw = os.environ.get("CILAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


@dataclass(frozen=True)
class Grid4:
    """Tensor grid with n_t time samples and n_x samples per spatial axis.

    n_t must be a power of two and n_x even, both at least 8. Spacings are
    dt = 2 pi / n_t and dx = 2 pi / n_x; sample points start at -pi.
    """

    n_t: int
    n_x: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n_t < 8 or (self.n_t & (self.n_t - 1)) != 0:
            raise GridResolutionError(
                f"n_t must be a power of two >= 8, got {self.n_t}")
        if self.n_x < 8 or self.n_x % 2 != 0:
            raise GridResolutionError(
                f"n_x must be even and >= 8, got {self.n_x}")

    @property
    def dt(self) -> float:
        return TWO_PI / self.n_t

    @property
    def dx(self) -> float:
        return TWO_PI / self.n_x

    @property
    def shape(self) -> tuple:
        return (self.n_t, self.n_x, self.n_x, self.n_x)

    def t(self) -> np.ndarray:
        """Time samples in [-pi, pi)."""
        return -np.pi + self.dt * np.arange(self.n_t)

    def x(self) -> np.ndarray:
        """Spatial samples in [-pi, pi), same for each axis."""
        return -np.pi + self.dx * np.arange(self.n_x)

    def axes(self):
        """Broadcastable (t, x1, x2, x3) coordinate arrays."""
        t = self.t()[:, None, None, None]
        x = self.x()
        return t, x[None, :, None, None], x[None, None, :, None], x[None, None, None, :]

    # Integer wavenumbers in FFT storage order. The last spatial axis is
    # half-length because all physical data is real (rfft convention).

    def k_t(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_t, 1.0 / self.n_t).astype(np.int64)

    def k_full(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_x, 1.0 / self.n_x).astype(np.int64)

    def k_half(self) -> np.ndarray:
        return np.arange(self.n_x // 2 + 1, dtype=np.int64)

    def k_broadcast(self):
        """Wavenumbers shaped to broadcast over spectral arrays."""
        kt = self.k_t()[:, None, None, None]
        k1 = self.k_full()[None, :, None, None]
        k2 = self.k_full()[None, None, :, None]
        k3 = self.k_half()[None, None, None, :]
        return kt, k1, k2, k3

    def rfft_weight(self) -> np.ndarray:
        """Multiplicity of each stored mode under the rfft convention.

        Modes with 0 < k3 < n_x/2 represent a conjugate pair (weight 2);
        the k3 = 0 and k3 = n_x/2 planes are self-conjugate (weight 1).
        """
        key = "rfft_w"
        if key not in self._cache:
            w = np.full(self.n_x // 2 + 1, 2.0)
            w[0] = 1.0
            w[-1] = 1.0
            self._cache[key] = w[None, None, None, :]
        return self._cache[key]
