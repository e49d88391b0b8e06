import numpy as np
import pytest

from paradiff_lab import SpectralField, TorusGrid


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, 48)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(1, 8)   # too small


def test_grid_geometry(grid):
    assert grid.nyquist == 32
    assert grid.spacing == pytest.approx(2 * np.pi / 64)
    k = grid.axis_freqs()
    assert k.min() == -32 and k.max() == 31 and len(set(k)) == 64


# the inverse transform of an inf coefficient warns before the check raises
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_field_rejected(grid):
    vals = np.ones(64, dtype=complex)
    vals[5] = np.nan
    with pytest.raises(ValueError):
        SpectralField.from_values(grid, vals)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = np.inf
    with pytest.raises(ValueError):
        SpectralField.from_coeffs(grid, coeffs)


def test_constant_field_coeffs(grid):
    u = SpectralField.from_values(grid, np.ones(64))
    assert u.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(u.coeffs[1:])) < 1e-15
    assert grid.points(u.support()) == [(0,)]


def test_pure_mode_single_coefficient(grid):
    u = SpectralField.from_values(grid, np.exp(3j * grid.axis_points()))
    sup = u.support()
    assert sup.dtype == bool and sup.shape == grid.shape
    assert grid.points(sup) == [(3,)]
    assert u.coeffs[3] == pytest.approx(1.0)


def test_points_and_band_limit_2d():
    grid = TorusGrid(2, 16)
    coeffs = np.zeros(grid.shape, dtype=complex)
    for pt in ((1, -8), (-3, 2), (0, 0)):
        coeffs[grid.index_of(pt)] = 1.0
    u = SpectralField.from_coeffs(grid, coeffs)
    assert grid.points(u.support()) == [(-3, 2), (0, 0), (1, -8)]
    # the radius is the exact one of the integer point
    assert u.band_limit() == float(np.sqrt(65))
    assert SpectralField.zero(grid).band_limit() == 0.0


@pytest.mark.parametrize("n,eta", [(1, (5,)), (2, (3, 4)), (2, (1, 1))])
def test_annulus_edges(n, eta):
    """A lattice point within 5e-13 beyond either radius counts as inside,
    one 2e-12 beyond as outside."""
    grid = TorusGrid(n, 16)
    at = grid.index_of(eta)
    norm = grid.freq_norms()[at]
    for gap, inside in ((5e-13, True), (2e-12, False)):
        assert grid.annulus(norm + gap, norm + 1.0)[at] == inside
        assert grid.annulus(norm - 1.0, norm - gap)[at] == inside
    assert grid.annulus(norm, norm)[at]
    assert grid.annulus(0.0, 0.0).sum() == 1


def test_round_trip(grid):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u = SpectralField.from_values(grid, vals)
    back = SpectralField.from_coeffs(grid, u.coeffs)
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_round_trip_2d():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    u = SpectralField.from_values(grid, vals)
    back = SpectralField.from_coeffs(grid, u.coeffs)
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("n", [1, 2])
def test_from_coeffs_values_on_first_read(n, monkeypatch):
    grid = TorusGrid(n, 16)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(
        grid.shape)
    ifftn, calls = np.fft.ifftn, []
    monkeypatch.setattr(np.fft, "ifftn",
                        lambda *args, **kw: calls.append(1) or ifftn(*args, **kw))
    u = SpectralField.from_coeffs(grid, coeffs)
    v = SpectralField.from_coeffs(grid, rng.standard_normal(grid.shape))
    # the algebra acts on the coefficients and runs no inverse transform
    combined = [(u + v, coeffs + v.coeffs), (u - v, coeffs - v.coeffs),
                (2 * u, 2 * coeffs)]
    assert calls == []
    for fld, expect in combined:
        assert np.array_equal(fld.coeffs, expect)
        assert np.array_equal(fld.values, ifftn(expect) * grid.N**n)
    calls.clear()
    values = u.values
    assert np.array_equal(values, ifftn(coeffs) * grid.N**n)
    assert u.values is values and len(calls) == 1
    # from_values keeps the samples it was given as the cached view
    samples = ifftn(coeffs) * grid.N**n + 1.0
    assert np.array_equal(SpectralField.from_values(grid, samples).values,
                          samples)
    for bad in (np.nan, np.inf):
        c = coeffs.copy()
        c[(3,) * n] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralField.from_coeffs(grid, c)
