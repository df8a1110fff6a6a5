"""Uniform space-time grid on the periodic box [-pi, pi)^4.

The time circle is the first axis; the three spatial axes follow. A Grid4
holds sizes, spacings and the time samples only; every wavenumber table,
spatial or temporal, comes from cilab.spectral. Fields interoperate when
their grids compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .threads import fft_workers  # noqa: F401  (cilab.grid.fft_workers)

TWO_PI = 2.0 * np.pi


class GridResolutionError(ValueError):
    """Raised when a grid cannot resolve a requested structure."""


@dataclass(frozen=True)
class Grid4:
    """Tensor grid with n_t time samples and n_x samples per spatial axis.

    n_t must be a power of two and n_x even, both at least 8. Spacings are
    dt = 2 pi / n_t and dx = 2 pi / n_x; sample points start at -pi.
    """

    n_t: int
    n_x: int

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
