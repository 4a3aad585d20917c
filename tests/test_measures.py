import numpy as np
import pytest

import szquad as sq
from szquad.errors import (
    InvalidCoefficientsError,
    InvalidMeasureError,
    ResolutionError,
    UnsupportedVariantError,
)

from conftest import grid_moments


def test_lebesgue_moments():
    assert np.allclose(sq.moments(sq.Lebesgue(), 3), [1, 0, 0, 0])


def test_bernstein_szego_moments_geometric_and_grid():
    spec = sq.BernsteinSzego(0.5)
    c = sq.moments(spec, 3)
    assert np.allclose(c, [1, 0.5, 0.25, 0.125], atol=1e-13)
    # independent grid oracle on the density itself
    c_grid = grid_moments(lambda p: sq.density_eval(spec, p), 3)
    assert np.max(np.abs(c - c_grid)) < 1e-10


def test_bernstein_szego_complex_roots_grid_oracle():
    spec = sq.BernsteinSzego([0.4 + 0.3j, -0.2 + 0.1j])
    c = sq.moments(spec, 6)
    c_grid = grid_moments(lambda p: sq.density_eval(spec, p), 6)
    assert np.max(np.abs(c - c_grid)) < 1e-10


def test_bernstein_szego_rejects_roots_outside_disk():
    with pytest.raises(InvalidCoefficientsError):
        sq.BernsteinSzego([1.2])


def test_explicit_moments_echo_and_normalization():
    c = sq.moments(sq.ExplicitMoments([2.0, 1.0, 0.5]), 2)
    assert np.allclose(c, [1, 0.5, 0.25])
    with pytest.raises(InvalidMeasureError):
        sq.moments(sq.ExplicitMoments([1.0, 0.3]), 4)


def test_density_examples():
    assert sq.density_eval(sq.Lebesgue(), 1.234) == 1.0
    assert sq.density_eval(sq.BernsteinSzego(0.5), 0.0) == pytest.approx(3.0)
    assert sq.density_eval(sq.BernsteinSzego(0.5), np.pi) == pytest.approx(1.0 / 3.0)


def test_density_unsupported_variants():
    with pytest.raises(UnsupportedVariantError):
        sq.density_eval(sq.ExplicitMoments([1.0]), 0.1)
    with pytest.raises(UnsupportedVariantError):
        sq.density_eval(sq.ExplicitVerblunsky([0.1]), 0.1)


def test_geronimus_density_support_arc():
    a = 0.4
    spec = sq.Geronimus(a)
    # the a.c. part lives where |sin(phi/2)| > |a|
    inside = 2 * np.arcsin(a) + 0.2
    outside = 2 * np.arcsin(a) - 0.2
    assert sq.density_eval(spec, inside) > 0
    assert sq.density_eval(spec, outside) == pytest.approx(0.0, abs=1e-10)


def test_geronimus_moments_match_constant_sequence():
    a = 0.3 - 0.15j
    c = sq.moments(sq.Geronimus(a), 6)
    c2 = sq.moments_from_alphas(np.full(6, a), 6)
    assert np.allclose(c, c2)


def test_caratheodory_series():
    assert np.allclose(sq.caratheodory_series(sq.Lebesgue(), 4), [1, 0, 0, 0, 0])
    assert np.allclose(sq.caratheodory_series(sq.BernsteinSzego(0.5), 2), [1, 1, 0.5])
    assert np.allclose(sq.caratheodory_series(sq.ExplicitMoments([1, 0.5j]), 1), [1, 1j])


def test_density_samples_flat_equals_lebesgue():
    spec = sq.DensitySamples(np.ones(64))
    assert np.max(np.abs(sq.moments(spec, 8) - sq.moments(sq.Lebesgue(), 8))) < 1e-12


def test_density_samples_roundtrip_smooth():
    # a 2-mode positive density: moments must match the analytic values
    grid = 2 * np.pi * np.arange(256) / 256
    vals = 1.0 + 0.6 * np.cos(grid) + 0.2 * np.sin(2 * grid)
    c = sq.moments(sq.DensitySamples(vals), 4)
    assert np.allclose(c, [1, 0.3, -0.1j, 0, 0], atol=1e-13)


def test_density_samples_resolution_error():
    with pytest.raises(ResolutionError):
        sq.moments(sq.DensitySamples(np.ones(16)), 8)


def test_density_samples_validation():
    with pytest.raises(InvalidMeasureError):
        sq.DensitySamples([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(InvalidMeasureError):
        sq.DensitySamples([0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("spec", [
    sq.Lebesgue(),
    sq.BernsteinSzego(0.5),
    sq.BernsteinSzego([0.4 + 0.3j, -0.3]),
    sq.Geronimus(0.35 + 0.2j),
    sq.ExplicitVerblunsky([0.2, -0.4j, 0.1 + 0.1j]),
])
def test_builtin_measures_positive_definite_to_30(spec):
    # Levinson pivots stay positive and coefficients stay in the disk
    c = sq.moments(spec, 30)
    alphas = sq.verblunsky_from_moments(c, 30)
    assert np.max(np.abs(alphas)) < 1
    assert c[0] == pytest.approx(1.0)


def test_verblunsky_prefix_roundtrip():
    stored = [0.3, -0.2 + 0.1j]
    assert np.allclose(sq.verblunsky_prefix(sq.ExplicitVerblunsky(stored), 4),
                       [0.3, -0.2 + 0.1j, 0, 0])
    assert np.allclose(sq.verblunsky_prefix(sq.BernsteinSzego(0.5), 3), [0.5, 0, 0])
    assert np.allclose(sq.verblunsky_prefix(sq.Geronimus(0.2), 3), [0.2, 0.2, 0.2])


def test_moment_file_roundtrip(tmp_path):
    path = tmp_path / "moments.txt"
    path.write_text("1 0\n0.5 -0.25\n# comment\n0.125 0\n")
    c = sq.measures.load_moments_file(path)
    assert np.allclose(c, [1, 0.5 - 0.25j, 0.125])


def test_density_file_roundtrip(tmp_path):
    path = tmp_path / "density.txt"
    vals = 1.0 + 0.3 * np.cos(2 * np.pi * np.arange(32) / 32)
    path.write_text("32\n" + "\n".join(f"{v:.17g}" for v in vals) + "\n")
    spec = sq.measures.load_density_file(path)
    assert len(spec.values) == 32


def test_density_file_size_mismatch(tmp_path):
    path = tmp_path / "density.txt"
    path.write_text("5\n1\n1\n")
    with pytest.raises(InvalidMeasureError):
        sq.measures.load_density_file(path)


def test_measure_id_tokens():
    assert sq.measure_id(sq.Lebesgue()) == "lebesgue"
    assert sq.measure_id(sq.BernsteinSzego(0.5)) == "bernstein-szego:0.5,0"
    assert "geronimus" in sq.measure_id(sq.Geronimus(0.1))


@pytest.mark.parametrize("spec", [
    sq.Lebesgue(),
    sq.BernsteinSzego(0.5),
    sq.Geronimus(0.35 + 0.2j),
    sq.ExplicitVerblunsky([0.3, -0.2j, 0.1 + 0.25j, 0.05]),
], ids=["lebesgue", "bernstein-szego", "geronimus", "explicit"])
def test_moments_prefix_is_bit_identical(spec):
    # szq sweep computes the moments once, at the largest n, and slices
    full = sq.moments(spec, 64)
    for n in (0, 1, 16, 33, 64):
        assert np.array_equal(full[: n + 1], sq.moments(spec, n))
