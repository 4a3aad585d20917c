import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import szquad as sq
from szquad.errors import (
    InvalidCoefficientsError,
    InvalidDegreeError,
    NotPositiveDefiniteError,
    ZerosNotInDiskError,
)
from szquad.opuc_core import prufer_phase
from szquad.rulegen import ParaOrthogonalSpec, spec_for_rule

from conftest import atom_moments, grid_moments, random_disk_points
from oracles import christoffel_weights, mp_christoffel, mp_moments, wronskian_residual

P = np.polynomial.polynomial


# --- point evaluation -------------------------------------------------------

def test_eval_empty_sequence():
    b = sq.szego_eval([], 0.3 + 0.4j)
    s = sq.szego_eval(-np.array([]), 0.3 + 0.4j)
    assert b.phi == 1 and b.phi_star == 1 and s.phi == 1 and s.phi_star == 1


def test_eval_zero_coefficients():
    b = sq.szego_eval([0, 0, 0], 1j)
    s = sq.szego_eval(-np.array([0, 0, 0]), 1j)
    assert b.phi == pytest.approx(-1j)
    assert b.phi_star == 1
    assert s.phi == pytest.approx(-1j)
    assert s.phi_star == 1


def test_eval_single_coefficient():
    b = sq.szego_eval([0.5], 1.0)
    s = sq.szego_eval(-np.array([0.5]), 1.0)
    assert b.phi == pytest.approx(0.5)
    assert b.phi_star == pytest.approx(0.5)
    assert s.phi == pytest.approx(1.5)
    assert s.phi_star == pytest.approx(1.5)


def test_eval_rejects_unit_modulus_coefficient():
    with pytest.raises(InvalidCoefficientsError):
        sq.szego_eval([1.0], 0.5)


def test_eval_vectorized_matches_scalar(rng):
    alphas = random_disk_points(rng, 7)
    zs = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    vec = sq.szego_eval(alphas, zs, with_derivatives=True)
    for i, z in enumerate(zs):
        one = sq.szego_eval(alphas, z, with_derivatives=True)
        assert one.phi == pytest.approx(vec.phi[i])
        assert one.dphi == pytest.approx(vec.dphi[i])


# --- coefficient vectors ----------------------------------------------------

def test_coeffs_trivial_cases():
    phi, _, _, _ = sq.szego_coeffs([])
    assert np.allclose(phi, [1])
    phi, phi_star, _, _ = sq.szego_coeffs([0.3 + 0.1j])
    assert np.allclose(phi, [-(0.3 + 0.1j), 1])
    assert np.allclose(phi_star, [1, -(0.3 - 0.1j)])
    phi, _, psi, _ = sq.szego_coeffs(np.zeros(4))
    assert np.allclose(phi, [0, 0, 0, 0, 1])
    assert np.allclose(psi, [0, 0, 0, 0, 1])


@pytest.mark.parametrize("n", [1, 5, 20, 50])
def test_coeffs_consistent_with_eval(rng, n):
    alphas = random_disk_points(rng, n, radius=0.8)
    phi, phi_star, psi, psi_star = sq.szego_coeffs(alphas)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 20)) * rng.uniform(0.5, 1.2, 20)
    b = sq.szego_eval(alphas, zs)
    s = sq.szego_eval(-alphas, zs)
    scale = np.abs(P.polyval(zs, phi)) + 1.0
    assert np.max(np.abs(P.polyval(zs, phi) - b.phi) / scale) < 1e-12
    assert np.max(np.abs(P.polyval(zs, phi_star) - b.phi_star) / scale) < 1e-12
    assert np.max(np.abs(P.polyval(zs, psi) - s.phi) / scale) < 1e-12
    assert np.max(np.abs(P.polyval(zs, psi_star) - s.phi_star) / scale) < 1e-12


def test_derivatives_match_coefficient_route(rng):
    alphas = random_disk_points(rng, 9)
    phi, phi_star, _, _ = sq.szego_coeffs(alphas)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
    b = sq.szego_eval(alphas, zs, with_derivatives=True)
    assert np.allclose(b.dphi, P.polyval(zs, P.polyder(phi)), atol=1e-11)
    assert np.allclose(b.dphi_star, P.polyval(zs, P.polyder(phi_star)), atol=1e-11)


def test_reversed_constant_term_is_one(rng):
    # Phi*_n(0) = 1 exactly for monic Phi_n
    alphas = random_disk_points(rng, 12, radius=0.9)
    _, phi_star, _, psi_star = sq.szego_coeffs(alphas)
    assert phi_star[0] == 1.0
    assert psi_star[0] == 1.0


# --- reversal ---------------------------------------------------------------

def test_reversed_examples():
    assert np.allclose(sq.reversed_poly([1], 2), [0, 0, 1])
    a = 0.3 - 0.2j
    assert np.allclose(sq.reversed_poly([-a, 1], 1), [1, -np.conj(a)])


def test_reversed_involution(rng):
    p = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(sq.reversed_poly(sq.reversed_poly(p, 5), 5), p)


def test_reversed_degree_error():
    with pytest.raises(InvalidDegreeError):
        sq.reversed_poly([1, 2, 3], 1)


# --- normalization constant and the wronskian identity ----------------------

def test_constant_examples():
    assert sq.szego_constant([]) == 2.0
    assert sq.szego_constant([0.5]) == pytest.approx(1.5)
    assert sq.szego_constant([0.3, 0.4j]) == pytest.approx(2 * 0.91 * 0.84)


def test_wronskian_trivial():
    assert wronskian_residual([], 1j) == 0.0
    assert wronskian_residual([0.5], 1.0) == pytest.approx(0.0, abs=1e-15)


def test_wronskian_coefficient_oracle(rng):
    # coefficient-level product: Phi_n Psi*_n + Psi_n Phi*_n == K_n z^n exactly
    alphas = random_disk_points(rng, 12, radius=0.85)
    phi, phi_star, psi, psi_star = sq.szego_coeffs(alphas)
    prod = P.polymul(phi, psi_star) + P.polymul(psi, phi_star)
    expect = np.zeros(len(prod), dtype=complex)
    expect[len(alphas)] = sq.szego_constant(alphas)
    assert np.max(np.abs(prod - expect)) < 1e-13


def test_wronskian_on_circle(rng):
    alphas = random_disk_points(rng, 12, radius=0.8)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    assert np.max(wronskian_residual(alphas, zs)) < 1e-11


@pytest.mark.parametrize("n", [5, 25, 50])
def test_wronskian_scaling_bound(rng, n):
    alphas = random_disk_points(rng, n, radius=0.7)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    assert np.max(wronskian_residual(alphas, zs)) < 1e-11 * 2 ** n


# --- inverse recurrence (Schur parameters) -----------------------------------

def test_inverse_monomial():
    assert np.allclose(sq.inverse_szego([0, 0, 0, 1]), [0, 0, 0])


def test_inverse_single_root():
    assert np.allclose(sq.inverse_szego([-0.5, 1]), [0.5])


def test_inverse_roundtrip_two_roots():
    p = P.polyfromroots([0.5, 0.3j])
    params = sq.inverse_szego(p)
    assert np.max(np.abs(params)) < 1
    phi, _, _, _ = sq.szego_coeffs(params)
    assert np.max(np.abs(phi - p)) < 1e-12


def test_inverse_detects_outside_zero():
    with pytest.raises(ZerosNotInDiskError):
        sq.inverse_szego(P.polyfromroots([1.5, 0.2]))
    with pytest.raises(ZerosNotInDiskError):
        sq.inverse_szego(P.polyfromroots([np.exp(0.3j)]))  # on the circle


def test_inverse_requires_monic():
    with pytest.raises(ValueError):
        sq.inverse_szego([1.0, 2.0])


def test_forward_polynomials_have_zeros_in_disk(rng):
    # every Phi_n from valid coefficients passes the inverse recurrence
    for _ in range(20):
        alphas = random_disk_points(rng, int(rng.integers(1, 15)), radius=0.9)
        phi, _, _, _ = sq.szego_coeffs(alphas)
        recovered = sq.inverse_szego(phi)
        assert np.max(np.abs(recovered - alphas)) < 1e-10


# --- moment extraction --------------------------------------------------------

def test_moments_lebesgue():
    assert np.allclose(sq.verblunsky_from_moments([1, 0, 0, 0], 3), [0, 0, 0])


def test_moments_bernstein_szego_against_grid_oracle():
    # oracle first: integrate the density (1-|b|^2)/|1 - conj(b) e^{i phi}|^2
    b = 0.5
    density = lambda phis: (1 - b ** 2) / np.abs(1 - b * np.exp(1j * phis)) ** 2
    c_oracle = grid_moments(density, 4)
    assert np.max(np.abs(c_oracle - 0.5 ** np.arange(5))) < 1e-10
    alphas = sq.verblunsky_from_moments(c_oracle, 4)
    assert np.allclose(alphas, [0.5, 0, 0, 0], atol=1e-10)


def test_moments_discrete_atoms_roundtrip(rng):
    # moments of a 6-atom measure by brute force; the resulting 6-node rule
    # must reproduce c_0..c_5
    angles = np.sort(rng.uniform(0, 2 * np.pi, 6))
    masses = rng.uniform(0.2, 1.0, 6)
    c = atom_moments(angles, masses, 6)
    rule = sq.generate_rule(sq.ExplicitMoments(c), 6, 0)
    disc = rule.moments(5)
    assert np.max(np.abs(disc - c[:6])) < 1e-11


def test_moments_degenerate_measure_detected(rng):
    # a 3-atom measure has no order-4 coefficient extraction
    angles = rng.uniform(0, 2 * np.pi, 3)
    c = atom_moments(angles, np.ones(3), 6)
    with pytest.raises(NotPositiveDefiniteError):
        sq.verblunsky_from_moments(c, 5)


def test_moments_roundtrip_with_forward_map(rng):
    alphas = random_disk_points(rng, 8, radius=0.7)
    c = sq.moments_from_alphas(alphas, 8)
    back = sq.verblunsky_from_moments(c, 8)
    assert np.max(np.abs(back - alphas)) < 1e-11


def _grown_step(phi, phi_star, ak):
    """One Szego step on coefficient vectors grown by concatenation and padding."""
    zphi, star = np.concatenate(([0.0 + 0.0j], phi)), np.pad(phi_star, (0, 1))
    return zphi - ak * star, star - np.conj(ak) * zphi


def _levinson_reference(c, n):
    """The Levinson loop on fresh, growing arrays (no validation)."""
    phi = phi_star = np.array([1.0 + 0.0j])
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        num = np.sum(phi * np.conj(c[1:len(phi) + 1]))
        den = np.sum(phi_star * np.conj(c[:len(phi_star)]))
        out[k] = num / den
        phi, phi_star = _grown_step(phi, phi_star, out[k])
    return out


@pytest.mark.parametrize("n", [23, 63])
def test_levinson_in_place_bit_identical(rng, n):
    c = sq.moments_from_alphas(random_disk_points(rng, n, radius=0.6), n)
    assert np.array_equal(sq.verblunsky_from_moments(c, n), _levinson_reference(c, n))


# the monomial Szego loop these moments replaced erred by 1.3e-3 on
# Geronimus(-0.6) at n = 64 and by 2e4 to 7e17 on the others at n = 128
@pytest.mark.parametrize("a", [0.6, -0.6, 0.4j, 0.3 + 0.4j])
def test_moments_match_mp_oracle_geronimus(a):
    alphas = np.full(128, a)
    assert np.max(np.abs(sq.moments_from_alphas(alphas, 128) - mp_moments(alphas, 128))) <= 2e-14


def _unimodular_phases(rng, size, modulus):
    return modulus * np.exp(2j * np.pi * rng.random(size))


def test_moments_match_mp_oracle_dense_complex(rng):
    # complex coefficients: conjugated CMV parameters err by about 1 here
    for size in (64, 256):
        alphas = _unimodular_phases(rng, size, 0.6)
        ref = mp_moments(alphas, size)
        assert np.max(np.abs(sq.moments_from_alphas(alphas, size) - ref)) <= 2e-14
    # n below the last nonzero coefficient: the corner is cut at n + 2
    for n in (0, 1, 2, 100):
        assert np.max(np.abs(sq.moments_from_alphas(alphas, n) - ref[:n + 1])) <= 2e-14


@pytest.mark.parametrize("size, modulus", [(16, 0.7), (32, 0.9)])
def test_moments_match_mp_oracle_followed_by_zeros(rng, size, modulus):
    alphas = _unimodular_phases(rng, size, modulus)
    c = sq.moments_from_alphas(alphas, 128)
    assert np.max(np.abs(c - mp_moments(alphas, 128))) <= 2e-14
    # the same coefficients with explicit zeros after them
    assert np.array_equal(c, sq.moments_from_alphas(np.pad(alphas, (0, 112)), 128))


def test_moments_edge_cases():
    assert np.array_equal(sq.moments_from_alphas([0.3 - 0.4j], 0), [1.0])
    assert sq.moments_from_alphas([0.3 - 0.4j, 0.5], 1) == pytest.approx([1.0, 0.3 + 0.4j], abs=1e-16)
    lebesgue = np.zeros(9, dtype=complex)
    lebesgue[0] = 1.0
    assert np.array_equal(sq.moments_from_alphas([], 8), lebesgue)
    assert np.array_equal(sq.moments_from_alphas(np.zeros(5), 8), lebesgue)


def test_moments_dense_1024_without_warning():
    # the monomial loop overflowed here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = sq.moments_from_alphas(np.full(1024, -0.6), 1024)
    assert np.all(np.isfinite(c)) and np.max(np.abs(c)) <= 1.0 + 1e-12


def test_extracted_polynomials_orthogonal_under_toeplitz_product(rng):
    # <Phi_k, z^j> = sum_l phi_{k,l} c_{j-l} must vanish for j < k
    angles = np.sort(rng.uniform(0, 2 * np.pi, 9))
    masses = rng.uniform(0.1, 1.0, 9)
    c = atom_moments(angles, masses, 8)
    alphas = sq.verblunsky_from_moments(c, 7)
    c_ext = np.concatenate([np.conj(c[::-1][:-1]), c])   # c_{-8}..c_8
    zero = len(c) - 1
    phi = np.array([1.0 + 0j])
    worst = 0.0
    for k in range(1, 8):
        phi_star = np.conj(phi)[::-1]
        phi = np.concatenate(([0], phi)) - alphas[k - 1] * np.pad(phi_star, (0, 1))
        for j in range(k):
            val = sum(phi[l] * c_ext[zero + j - l] for l in range(len(phi)))
            worst = max(worst, abs(val))
    assert worst < 1e-10


def test_second_kind_matches_integral_definition():
    # Psi_n(z) = (1/2pi) int (z+w)/(z-w) (Phi_n(z) - Phi_n(w)) dsigma(phi),
    # w = e^{i phi}; grid integration for a smooth density confirms the
    # recurrence normalization Psi_0 = 1
    import szquad as sq
    b = 0.5
    density = lambda phis: (1 - b ** 2) / np.abs(1 - b * np.exp(1j * phis)) ** 2
    grid = 2 * np.pi * np.arange(8192) / 8192
    w = np.exp(1j * grid)
    fvals = density(grid)
    alphas = [b, 0.0, 0.0]
    phi_c, _, psi_c, _ = sq.szego_coeffs(alphas)
    for z in (0.3 + 0.2j, -0.4j, 0.1):
        phi_z = P.polyval(z, phi_c)
        integrand = (z + w) / (z - w) * (phi_z - P.polyval(w, phi_c)) * fvals
        psi_direct = np.mean(integrand)
        assert abs(psi_direct - P.polyval(z, psi_c)) < 1e-12


@pytest.mark.parametrize("n", [30, 50])
def test_wronskian_raw_bound_moderate_coefficients(rng, n):
    # for coefficients of modest size the on-circle residual stays below
    # 1e-11 outright, without the coefficient-growth allowance
    alphas = random_disk_points(rng, n, radius=0.5)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    assert np.max(wronskian_residual(alphas, zs)) < 1e-11


# --- zero runs in the Schur-map and Christoffel kernels -------------------------

def _schur_reference(alphas, phi):
    """theta, theta' and B_N with one plain Schur step per coefficient, zero or not."""
    z = np.exp(1j * phi)
    b, args, dtheta = z, np.zeros(phi.shape), np.ones(phi.shape)
    for a in alphas:
        w = 1.0 - np.conj(a) * b
        args += np.arctan2(w.imag, w.real)
        dtheta = dtheta * ((1.0 - abs(a) ** 2) / (w.real ** 2 + w.imag ** 2)) + 1.0
        b = z * (b - a) / w
    return (len(alphas) + 1) * phi - 2.0 * args, dtheta, b


def _christoffel_reference(alphas, z):
    """1 / sum_k |phi_k(z)|^2 with one plain orthonormal Szego step per coefficient."""
    phi = phi_star = np.ones_like(z)
    total = np.ones(z.shape)
    for a in alphas:
        zphi = z * phi
        phi, phi_star = zphi - a * phi_star, phi_star - np.conj(a) * zphi
        norm = np.sqrt(1.0 - abs(a) ** 2)
        phi, phi_star = phi / norm, phi_star / norm
        total += np.abs(phi) ** 2
    return 1.0 / total


def _assert_kernels_match_reference(alphas, phi):
    theta, dtheta, b, _ = prufer_phase(alphas, phi)
    mu = christoffel_weights(alphas, phi)
    ref_theta, ref_dtheta, ref_b = _schur_reference(alphas, phi)
    ref_mu = _christoffel_reference(alphas, np.exp(1j * phi))
    if np.all(alphas != 0):
        # no zero run: the kernels take the reference steps in the same order
        for got, ref in ((theta, ref_theta), (dtheta, ref_dtheta), (b, ref_b), (mu, ref_mu)):
            assert np.array_equal(got, ref)
        return
    # a run of r zeros rounds r times in the reference and about once in the
    # kernels: a phase difference up to N eps, which theta' amplifies
    tol = 16 * len(alphas) * np.finfo(float).eps * (1.0 + ref_dtheta)
    assert np.all(np.abs(theta - ref_theta) <= tol)
    assert np.all(np.abs(dtheta / ref_dtheta - 1) <= tol)
    assert np.all(np.abs(b - ref_b) <= tol)
    assert np.all(np.abs(mu / ref_mu - 1) <= tol)


def _assert_weights_match_mpmath(alphas, phi):
    """The kernel's mu = prod r_k / theta' against the 40-digit Christoffel
    sum, within 16 N eps plus eps |d log mu/d phi|, the error that rounding
    the point alone makes (|d log mu/d phi| reaches 9e3 on random |a| = 0.7,
    N = 127 sequences)."""
    mu = prufer_phase(alphas, phi)[3]
    ref, slope = mp_christoffel(alphas, phi, slope=True)
    eps = np.finfo(float).eps
    assert np.all(np.abs(mu / ref - 1) <= eps * (16 * max(len(alphas), 1) + np.abs(slope)))


_zero_run = st.integers(1, 80).map(lambda r: [0j] * r)
_nonzero_block = st.lists(
    st.builds(lambda r, t: complex(r * np.exp(2j * np.pi * t)),
              st.floats(0.05, 0.7), st.floats(0.0, 1.0)),
    min_size=1, max_size=4)
_run_patterns = st.lists(st.one_of(_zero_run, _nonzero_block), max_size=6).map(
    lambda blocks: np.array(sum(blocks, []), dtype=complex))

_rng = np.random.default_rng(3)
_block = 0.5 * np.exp(2j * np.pi * _rng.random(12))
_STIFF = np.array([0.7 * np.exp(2j * np.pi * t) for t in np.random.default_rng(0).random(16)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_run_patterns)
@example(np.concatenate([np.zeros(90), _block]))                          # leading run
@example(np.concatenate([_block[:6], np.zeros(150), _block[6:]]))         # interior run
@example(np.concatenate([_block, np.zeros(200)]))                         # trailing run
@example(np.zeros(255, dtype=complex))                                    # all zeros
@example(0.3 * np.exp(2j * np.pi * _rng.random(100)))                     # no zeros
@example(np.concatenate([_STIFF, np.zeros(111)]))                         # stiff, n = 128
@example(_block[:3])                                  # on 2049 points, blocks of 3:
@example(_block[:4])                                  # one block, one past it,
@example(_block[:5])                                  # two past it,
@example(_block[:9])                                  # three full blocks
@example(np.concatenate([_block[:3], np.zeros(40), _block[3:6]]))          # run between blocks
def test_zero_run_kernels_match_plain_steps(alphas):
    n = len(alphas) + 1
    # the 2n+1 grid, two points, and 2049 points, where a Schur-map block of
    # prufer_phase spans 8192 // 2049 = 3 coefficients
    for phi in (np.linspace(0.0, 2 * np.pi, 2 * n + 1), np.array([0.4, 5.1]),
                np.linspace(0.0, 2 * np.pi, 2049)):
        _assert_kernels_match_reference(alphas, phi)
    nodes = sq.find_nodes(ParaOrthogonalSpec(alphas, (), np.exp(0.3j), n, 0))
    _assert_kernels_match_reference(alphas, nodes)
    _assert_weights_match_mpmath(alphas, np.concatenate([[0.4, 5.1], nodes[::max(1, n // 8)]]))


@pytest.mark.parametrize("measure, n", [(sq.Geronimus(0.4j), 128), (sq.Geronimus(-0.6), 64),
                                        (sq.Geronimus(-0.6), 128)])
def test_kernel_weights_at_rule_nodes(measure, n):
    # the mass point of Geronimus(0.4i) carries mu = 0.276 at n = 128
    spec = spec_for_rule(measure, n, 0)
    _assert_weights_match_mpmath(spec.base, sq.find_nodes(spec))


@pytest.mark.parametrize("size", [63, 127])
def test_kernel_weights_random_dense(size):
    # localized at this modulus: on the grid, not at the rule nodes, where the
    # forward recurrence itself loses the decaying solution
    rng = np.random.default_rng(size)
    for _ in range(2):
        alphas = 0.7 * np.exp(2j * np.pi * rng.random(size))
        _assert_weights_match_mpmath(alphas, np.linspace(0.0, 2 * np.pi, 67))


def test_zero_run_phase_within_ulps():
    # e^{i r phi} from the split angle: B_N of an all-zero sequence is
    # e^{i (N+1) phi} within about eps; rounding r*phi to one double misses
    # by about 2000 eps at N = 1023, and N plain steps by about 340 eps
    phi = np.linspace(0.0, 2 * np.pi, 257)
    for count in (200, 1023):
        b = prufer_phase(np.zeros(count), phi)[2]
        with mpmath.workdps(30):
            exact = np.array([complex(mpmath.expj((count + 1) * mpmath.mpf(float(p))))
                              for p in phi])
        assert np.max(np.abs(b - exact)) <= 4 * np.finfo(float).eps


def test_prufer_phase_scalar_is_one_point():
    # a scalar angle, a one-point array and the same point among others
    # give the same bits
    for x in np.linspace(0.1, 6.2, 7):
        one = prufer_phase(_STIFF, np.array([x]))
        many = prufer_phase(_STIFF, np.array([x, 1.0, 2.0]))
        for got, ref, among in zip(prufer_phase(_STIFF, float(x)), one, many):
            assert got.shape == () and got == ref[0] == among[0]


def test_christoffel_weights_take_angles():
    alphas = np.array([0.5, 0.0, 0.0, -0.2j, 0.0])
    phi = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0])
    assert np.allclose(christoffel_weights(alphas, phi),
                       _christoffel_reference(alphas, np.exp(1j * phi)), rtol=1e-14, atol=0)
    # complex points z are refused, not read as angles
    with pytest.raises(TypeError, match="angles phi"):
        christoffel_weights(alphas, np.exp(1j * phi))
