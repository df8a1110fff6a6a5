import numpy as np
import pytest

from cilab.grid import Grid4


@pytest.fixture(scope="session")
def small_grid():
    return Grid4(n_t=16, n_x=16)


def random_scalar(grid, rng, k_max=4):
    """Band-limited random real scalar with modes inside |k_i| <= k_max."""
    from oracles import axes

    data = np.zeros(grid.shape)
    t, x1, x2, x3 = axes(grid)
    n_waves = 6
    for _ in range(n_waves):
        k = rng.integers(-k_max, k_max + 1, size=4)
        amp = rng.normal()
        phase = rng.uniform(0, 2 * np.pi)
        data = data + amp * np.cos(k[0] * t + k[1] * x1 + k[2] * x2 + k[3] * x3 + phase)
    return data


def random_field(grid, rng, rank=0, k_max=4, mean_free=False):
    from cilab.field import Field

    if rank == 0:
        data = random_scalar(grid, rng, k_max)
        if mean_free:
            data = data - data.mean(axis=(1, 2, 3), keepdims=True)
        return Field(data, grid, _take=True)
    shape = (3,) if rank == 1 else (3, 3)
    comps = np.stack(
        [random_scalar(grid, rng, k_max) for _ in range(int(np.prod(shape)))],
        axis=-1).reshape(grid.shape + shape)
    if mean_free:
        comps = comps - comps.mean(axis=(1, 2, 3), keepdims=True)
    return Field(comps, grid, _take=True)


def random_divfree(grid, rng, k_max=4):
    """Random band-limited divergence-free mean-free vector field."""
    from cilab import spectral
    from cilab.field import Field
    from cilab.spectral_ops import p_neq0
    from oracles import per_slice

    f = p_neq0(random_field(grid, rng, rank=1, k_max=k_max))
    return Field(per_slice(spectral.curl, f.data), grid, _take=True)


def report_of(check, *args):
    """A check's report, passing or failing: a failing gate's error carries
    every residual the check measures as `report`."""
    from cilab.amplitudes import CancellationError
    from cilab.perturbations import CorrectorIdentityError

    try:
        return check(*args)
    except (CancellationError, CorrectorIdentityError) as exc:
        return exc.report
