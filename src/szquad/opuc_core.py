"""Szego recurrence kernel for orthogonal polynomials on the unit circle.

Conventions used throughout the package:

* recurrence coefficients a_j satisfy |a_j| < 1 and drive the monic
  first-kind polynomials

      Phi_n(z)  = z*Phi_{n-1}(z) - a_{n-1}*Phi*_{n-1}(z),      Phi_0 = 1,
      Phi*_n(z) = Phi*_{n-1}(z) - conj(a_{n-1})*z*Phi_{n-1}(z), Phi*_0 = 1,

  where Phi*_n is the reversed polynomial z^n * conj(Phi_n)(1/conj(z));
* the second-kind polynomials Psi_n satisfy the same recurrence with
  a_j replaced by -a_j;
* trigonometric moments are c_k = (1/2pi) int e^{-ik phi} dsigma(phi)
  of a measure normalized to c_0 = 1, so that a_0 = conj(c_1).

Polynomials are numpy coefficient arrays in ascending degree order.
Point evaluation always runs the recurrence directly (stable near |z| = 1);
the coefficient vectors exist for round-trip tests and series work.
"""

from collections import namedtuple

import numpy as np

from .errors import (
    InvalidCoefficientsError,
    InvalidDegreeError,
    NotPositiveDefiniteError,
    ZerosNotInDiskError,
)

# strict unit-disk margin for recurrence coefficients
UNIT_MARGIN = 1e-14

# Toeplitz pivots at or below this are treated as a degenerate measure
PIVOT_TOL = 1e-13


def as_verblunsky(alphas):
    """Validate and return recurrence coefficients as a complex array.

    Raises InvalidCoefficientsError unless every |a_j| < 1 - UNIT_MARGIN.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if a.ndim != 1:
        raise InvalidCoefficientsError("coefficient sequence must be one-dimensional")
    if a.size and np.max(np.abs(a)) >= 1.0 - UNIT_MARGIN:
        j = int(np.argmax(np.abs(a)))
        raise InvalidCoefficientsError(
            f"|a_{j}| = {abs(a[j]):.17g} is not strictly inside the unit disk"
        )
    return a


def _szego_step(zphi, phi_star, a):
    """One Szego step: (z*Phi_k, Phi*_k) -> (Phi_{k+1}, Phi*_{k+1}) for a_k = a.

    The one place the recurrence is written. Its arguments may be point
    values, derivative values or coefficient vectors; the second kind is the
    same step with -a.
    """
    return zphi - a * phi_star, phi_star - np.conj(a) * zphi


# Pointwise values of Phi_n and Phi*_n at one or many z (scalars or arrays,
# matching the input); dphi/dphi_star are d/dz values, populated only when
# derivatives are requested. Psi_n, Psi*_n are the fields of szego_eval(-a, z).
EvalBundle = namedtuple(
    "EvalBundle",
    ["phi", "phi_star", "dphi", "dphi_star"],
    defaults=(None, None),
)


def szego_eval(alphas, z, with_derivatives=False):
    """Run the first-kind recurrence at the point(s) z.

    `z` may be a scalar or an ndarray; outputs broadcast accordingly.
    Derivatives come from the differentiated recurrence, never finite
    differences.
    """
    a = as_verblunsky(alphas)
    zz = np.asarray(z, dtype=complex)

    phi = np.ones_like(zz)
    phi_star = np.ones_like(zz)
    dphi = dphi_star = None
    if with_derivatives:
        dphi = np.zeros_like(zz)
        dphi_star = np.zeros_like(zz)

    for ak in a:
        if with_derivatives:
            # d/dz of z*Phi_k is Phi_k + z*Phi_k'
            dphi, dphi_star = _szego_step(phi + zz * dphi, dphi_star, ak)
        phi, phi_star = _szego_step(zz * phi, phi_star, ak)

    if zz.ndim == 0:
        return EvalBundle(*(None if v is None else complex(v)
                            for v in (phi, phi_star, dphi, dphi_star)))
    return EvalBundle(phi, phi_star, dphi, dphi_star)


def prufer_phase(alphas, phi):
    """Lifted Prufer phase of B_N = z*Phi_N/Phi*_N at z = e^{i phi}, N = len(alphas).

    On |z| = 1 the Blaschke factor B_k is unimodular and follows the Schur map

        B_{k+1} = z (B_k - a_k) / (1 - conj(a_k) B_k),   B_0 = z,

    so its continuous argument is

        theta = (N+1) phi - 2 sum_k arg(1 - conj(a_k) B_k),

    a sum of principal arguments (each factor has positive real part), with
    theta(phi + 2pi) = theta(phi) + 2pi(N+1) exactly. The phi-derivative
    S_k follows S_0 = 1, S_{k+1} = S_k (1 - |a_k|^2)/|1 - conj(a_k) B_k|^2 + 1
    without overflow (Simon, OPUC, 2005: Pruefer variables). Returns
    (theta, S, B_N) with the shape of phi.
    """
    a = as_verblunsky(alphas)
    phi = np.asarray(phi, dtype=float)
    z = np.exp(1j * phi)
    b = z
    dtheta = np.ones(phi.shape)
    args = np.zeros(phi.shape)
    for ak in a:
        w = 1.0 - np.conj(ak) * b
        args += np.arctan2(w.imag, w.real)
        dtheta = dtheta * ((1.0 - abs(ak) ** 2) / (w.real ** 2 + w.imag ** 2)) + 1.0
        b = z * (b - ak) / w
    return (len(a) + 1) * phi - 2.0 * args, dtheta, b


def christoffel_weights(alphas, z):
    """Christoffel numbers mu_s = 1 / sum_{k<=N} |phi_k(z_s)|^2, N = len(alphas).

    phi_k = Phi_k / prod_{j<k} (1 - |a_j|^2)^(1/2) are the orthonormal
    polynomials. At the N+1 zeros of a para-orthogonal polynomial built from
    `alphas` these are the weights of its Szego rule (Jones, Njastad &
    Thron, Bull. LMS 21, 1989): a sum of positive terms, so positive by
    construction.
    """
    a = as_verblunsky(alphas)
    zz = np.asarray(z, dtype=complex)
    phi = np.ones_like(zz)
    phi_star = np.ones_like(zz)
    total = np.ones(zz.shape)
    for ak in a:
        phi, phi_star = _szego_step(zz * phi, phi_star, ak)
        norm = np.sqrt(1.0 - abs(ak) ** 2)
        phi, phi_star = phi / norm, phi_star / norm
        total += np.abs(phi) ** 2
    return 1.0 / total


def _shift(p):
    """Multiply a coefficient vector by z."""
    return np.concatenate(([0.0 + 0.0j], p))


def szego_coeffs(alphas):
    """Coefficient vectors (ascending) of Phi_n, Phi*_n, Psi_n, Psi*_n."""
    a = as_verblunsky(alphas)
    phi = phi_star = psi = psi_star = np.array([1.0 + 0.0j])
    for ak in a:
        phi, phi_star = _szego_step(_shift(phi), np.pad(phi_star, (0, 1)), ak)
        psi, psi_star = _szego_step(_shift(psi), np.pad(psi_star, (0, 1)), -ak)
    return phi, phi_star, psi, psi_star


def reversed_poly(p, n):
    """Degree-n reversal: coefficient k of the output is conj(coefficient n-k).

    An involution: reversed_poly(reversed_poly(p, n), n) == p.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if len(p) - 1 > n:
        raise InvalidDegreeError(f"degree {len(p) - 1} exceeds reversal degree {n}")
    return np.conj(np.pad(p, (0, n + 1 - len(p))))[::-1].copy()


def szego_constant(alphas):
    """K_N = 2 * prod_{j<N} (1 - |a_j|^2); lies in (0, 2]."""
    a = as_verblunsky(alphas)
    return float(2.0 * np.prod(1.0 - np.abs(a) ** 2))


def wronskian_residual(alphas, z):
    """|Phi_n Psi*_n + Psi_n Phi*_n - K_n z^n| at the point(s) z.

    The combination is identically K_n z^n, so this measures rounding only.
    """
    a = as_verblunsky(alphas)
    b = szego_eval(a, z)
    s = szego_eval(-a, z)
    kn = szego_constant(a)
    zz = np.asarray(z, dtype=complex)
    res = np.abs(np.asarray(b.phi) * s.phi_star + np.asarray(s.phi) * b.phi_star
                 - kn * zz ** len(a))
    return float(res) if res.ndim == 0 else res


def _require_monic(p):
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    if abs(p[-1] - 1.0) > 1e-13:
        raise ValueError(f"polynomial must be monic, leading coefficient {p[-1]}")
    return p


def inverse_szego(p):
    """Recover the recurrence coefficients of a monic polynomial.

    Runs the recurrence downward: a_{k-1} = -P_k(0), then

        z*P_{k-1} = (P_k + a_{k-1} * reversed(P_k, k)) / (1 - |a_{k-1}|^2).

    Succeeds iff all recovered parameters lie strictly inside the unit disk,
    which happens iff all zeros of p do (the Schur-Cohn test). Raises
    ZerosNotInDiskError otherwise; that outcome is a verdict, not a failure.
    """
    work = _require_monic(p)
    deg = len(work) - 1
    params = np.zeros(deg, dtype=complex)
    for k in range(deg, 0, -1):
        ak = -work[0]
        if abs(ak) >= 1.0 - UNIT_MARGIN:
            raise ZerosNotInDiskError(
                f"parameter {k - 1} has modulus {abs(ak):.17g}; "
                "some zero lies outside the open unit disk"
            )
        rev = np.conj(work)[::-1]
        work = (work + ak * rev)[1:] / (1.0 - abs(ak) ** 2)
        params[k - 1] = ak
    return params


def verblunsky_from_moments(c, n):
    """Levinson-style extraction of a_0..a_{n-1} from moments c_0..c_n.

    Uses the inner product <z^j, z^k> = c_{k-j} (with c_{-m} = conj(c_m)), so

        a_k = <z*Phi_k, 1> / <Phi*_k, 1>,

    keyed to the convention a_{n-1} = -Phi_n(0). The denominators are the
    Toeplitz pivots prod_{j<k}(1 - |a_j|^2); a pivot at or below PIVOT_TOL
    means the measure has fewer than n+1 support points.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    if len(c) < n + 1:
        raise NotPositiveDefiniteError(f"need moments c_0..c_{n}, got {len(c)} entries")
    if abs(c[0] - 1.0) > 1e-12:
        raise NotPositiveDefiniteError(f"moments must be normalized to c_0 = 1, got {c[0]}")
    phi = np.array([1.0 + 0.0j])
    phi_star = np.array([1.0 + 0.0j])
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        num = np.sum(phi * np.conj(c[1:len(phi) + 1]))
        den = np.sum(phi_star * np.conj(c[:len(phi_star)]))
        if den.real <= PIVOT_TOL:
            raise NotPositiveDefiniteError(
                f"Toeplitz pivot {den.real:.3e} at order {k}; "
                "measure is degenerate at this size"
            )
        ak = num / den
        if abs(ak) >= 1.0 - UNIT_MARGIN:
            raise NotPositiveDefiniteError(
                f"extracted |a_{k}| = {abs(ak):.17g} >= 1; moment matrix not positive definite"
            )
        out[k] = ak
        phi, phi_star = _szego_step(_shift(phi), np.pad(phi_star, (0, 1)), ak)
    return out


def moments_from_alphas(alphas, n):
    """Moments c_0..c_n of the measure whose recurrence coefficients start
    with `alphas` (taken as zero beyond the given entries).

    Inverse of the Levinson pass: orthogonality <Phi_k, 1> = 0 determines
    each new moment linearly from the previous ones.
    """
    a = as_verblunsky(alphas)
    phi = np.array([1.0 + 0.0j])
    phi_star = np.array([1.0 + 0.0j])
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    for k in range(1, n + 1):
        ak = a[k - 1] if k - 1 < len(a) else 0.0
        phi, phi_star = _szego_step(_shift(phi), np.pad(phi_star, (0, 1)), ak)
        # Phi_k is monic and orthogonal to 1: sum_j phi_j conj(c_j) = 0
        c[k] = np.conj(-np.sum(phi[:-1] * np.conj(c[:k])))
    return c
