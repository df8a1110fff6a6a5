"""The whole-field names the benchmark still reaches, and the 4D
divergence gate.

`leray` and `p_neq0` map a slice kernel of cilab.spectral (`leray`,
`mean_free`) over the time slices through `field._slicewise`. They stay as
whole-field names only because the benchmark's tracer patches them by
name here and in cilab.perturbations, and its kernel microbenchmark times
`leray`; every other spatial operator is a slice kernel in
cilab.spectral that its caller maps. `_div_rel_defect` is the
divergence-free gate of `assemble_iterate`, one 4D transform per
component on the derivative tables of cilab.spectral.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .field import Field, _require_vector_on, _slicewise, to_spectral


def _div_rel_defect(f: Field) -> float:
    """Relative size of div f (multipliers k') against the gradient scale
    of f (raw |k|). Each component's 4D spectrum is scaled in place and
    summed into one accumulator, so two spectra are live at most."""
    _require_vector_on(f.grid, "divergence gate input", f)
    ks = spectral.derivatives(f.grid.n_x)[:3]
    kmag = np.sqrt(spectral.wavenumbers(f.grid.n_x)[3])
    div = None
    den = 0.0
    for a in range(3):
        spec = to_spectral(f.data[..., a], f.grid)
        mag = np.abs(spec)
        # np.maximum, not max: a NaN component keeps the defect NaN
        den = float(np.maximum(den, np.multiply(kmag, mag, out=mag).max()))
        del mag
        spec *= 1j * ks[a]
        if div is None:
            div = spec
        else:
            div += spec
        del spec
    num = float(np.abs(div).max())
    if den == 0.0:
        return 0.0
    return num / den


# field._slicewise builds no whole-field spectrum and never touches an idle
# slice; verifiers that need one slice's projection call the kernel directly.

def p_neq0(f: Field) -> Field:
    """Remove the spatial mean of every time slice: the multiplier zeroing
    the spatial zero modes, applied without a transform."""
    return _slicewise(f, spectral.mean_free)


def leray(f: Field) -> Field:
    """Helmholtz projection onto divergence-free fields, identity on means,
    by one 3D transform pair per nonzero slice."""
    _require_vector_on(f.grid, "leray input", f)
    return _slicewise(f, spectral.leray)
