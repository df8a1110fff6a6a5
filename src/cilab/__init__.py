"""Spectral laboratory for an intermittent convex-integration construction
of a viscous and resistive relaxation system on the space-time torus."""

__version__ = "0.1.0"

from .grid import Grid4, GridResolutionError
from .threads import fft_workers
from .field import Field, MixedNormSpec, norm

__all__ = [
    "Grid4",
    "GridResolutionError",
    "Field",
    "MixedNormSpec",
    "norm",
    "fft_workers",
    "__version__",
]
