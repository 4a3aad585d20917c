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

import itertools
import math
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


# Dekker's splitting constant: the high part of a split double keeps 26
# significant bits, so its product with any run length below 2^27 is exact
_SPLIT = 2.0 ** 27 + 1.0


def _zero_runs(a):
    """The nonzero coefficients of `a` and the runs of exact zeros around them.

    Returns (coefs, runs, trailing) as Python values: runs[i] zeros precede
    coefs[i], and `trailing` zeros follow the last of them. A dense sequence
    gives runs of 0 only.
    """
    nz = np.flatnonzero(a)
    at = nz.tolist()
    runs = [j - i - 1 for i, j in zip([-1] + at, at)]
    trailing = len(a) - 1 - at[-1] if at else len(a)
    return a[nz].tolist(), runs, trailing


def _circle_power(phi):
    """z^r = e^{i r phi} for whole runs r, without rounding r*phi to one double.

    phi = hi + lo exactly with hi of 26 bits (Dekker split), so r*hi is
    exact and the one rounding of r*lo is 2^-26 times smaller than that of
    r*phi.
    """
    t = _SPLIT * phi
    hi = t - (t - phi)
    lo = phi - hi
    return lambda r: np.exp(1j * (r * hi)) * np.exp(1j * (r * lo))


# complex values per Schur-map block in `prufer_phase`: the block spans at
# most max(1, min(_BLOCK_POINTS // points, nonzero coefficients)) coefficients
_BLOCK_POINTS = 8192

# binary orders of magnitude one block's product of ratios r_k may span:
# r_k lies within a factor (1 + |a_k|)/(1 - |a_k|) of 1, so a block of
# _EXP_SPAN // log2 of that factor rows cannot overflow or go subnormal
_EXP_SPAN = 960


def prufer_phase(alphas, phi):
    """Lifted Prufer phase of B_N = z*Phi_N/Phi*_N at z = e^{i phi}, N = len(alphas),
    with its phi-derivative and the Christoffel numbers there.

    On |z| = 1 the Blaschke factor B_k is unimodular and follows the Schur map

        B_{k+1} = z (B_k - a_k) / (1 - conj(a_k) B_k),   B_0 = z,

    so its continuous argument is

        theta = (N+1) phi - 2 sum_k arg(1 - conj(a_k) B_k),

    a sum of principal arguments (each factor has positive real part), with
    theta(phi + 2pi) = theta(phi) + 2pi(N+1) exactly. The phi-derivative
    S_k follows S_0 = 1, S_{k+1} = S_k r_k + 1 with the ratios
    r_k = (1 - |a_k|^2)/|1 - conj(a_k) B_k|^2, without overflow (Simon,
    OPUC, 2005: Pruefer variables). The orthonormal polynomials have
    |phi*_{k+1}|^2 = |phi*_k|^2 / r_k on the circle, and S_N = K_N/|phi*_N|^2
    for the Christoffel sum K_N = sum_{k<=N} |phi_k|^2, so the Christoffel
    number is mu = 1/K_N = prod_k r_k / S_N (Jones, Njastad & Thron, Bull.
    LMS 21, 1989): a product of positive factors, positive by construction.
    At the zeros of a para-orthogonal polynomial built from `alphas` these
    are the weights of its Szego rule. The product is carried as a mantissa
    and a power of two, rescaled once per block.

    At a_k = 0 the step is B <- zB, S <- S + 1, r_k = 1 with no arg term,
    so a run of r zero coefficients costs one step: B <- e^{i r phi} B,
    S <- S + r. A pass costs O(nonzero coefficients + zero runs) vector
    operations. Returns (theta, S, B_N, mu) with the shape of phi.
    """
    a = as_verblunsky(alphas)
    phi = np.asarray(phi, dtype=float)
    size = phi.size
    # one point runs as two: numpy rounds an in-place complex product on one
    # element differently from the same product out of place or on more
    x = np.repeat(phi.reshape(-1), 2) if size == 1 else phi.reshape(-1)
    coefs, runs, trailing = _zero_runs(a)
    power = _circle_power(x)
    z = np.exp(1j * x)
    b = z.copy()
    dtheta = np.ones(x.shape)
    # Python's abs: numpy's complex absolute rounds some moduli differently
    moduli = [abs(ak) for ak in coefs]
    gains = np.array([1.0 - m ** 2 for m in moduli])
    # the factors w_k of up to `rows` coefficients at a time, so that one
    # arctan2, one ratio pass and one product serve the whole block; row 0
    # of `args` carries the running sum of the arguments into the next block
    top = max(moduli, default=0.0)
    span = max(1.0, math.log2((1.0 + top) / (1.0 - top)))
    rows = max(1, min(_BLOCK_POINTS // max(x.size, 1), len(coefs), int(_EXP_SPAN // span)))
    w = np.empty((rows, x.size), dtype=complex)
    w_rows = list(w)
    args = np.zeros((rows + 1, x.size))
    # prod_k r_k = mant * 2^expo
    mant, expo = 1.0, 0
    for start in range(0, len(coefs), rows):
        stop = min(start + rows, len(coefs))
        block_runs = runs[start:stop]
        for ak, run, wk in zip(coefs[start:stop], block_runs, w_rows):
            if run:
                np.multiply(b, power(run), b)
            np.multiply(ak.conjugate(), b, wk)
            np.subtract(1.0, wk, wk)
            np.subtract(b, ak, b)
            np.multiply(z, b, b)
            np.divide(b, wk, b)
        wb = w[:stop - start]
        np.arctan2(wb.imag, wb.real, out=args[1:stop - start + 1])
        np.add.reduce(args[:stop - start + 1], axis=0, out=args[0])
        ratios = gains[start:stop, None] / (wb.real ** 2 + wb.imag ** 2)
        for ratio, run in zip(ratios, block_runs):
            if run:
                np.add(dtheta, run, dtheta)
            np.multiply(dtheta, ratio, dtheta)
            np.add(dtheta, 1.0, dtheta)
        product = np.multiply.reduce(ratios, axis=0)
        if start:
            # the earlier blocks' product, rescaled to [0.5, 1)
            mant, shift = np.frexp(mant)
            expo = expo + shift
            product *= mant
        mant = product
    if trailing:
        np.multiply(b, power(trailing), b)
        np.add(dtheta, trailing, dtheta)
    theta = (len(a) + 1) * x - 2.0 * args[0]
    mu = np.ldexp(mant / dtheta, expo)
    return tuple(v[:size].reshape(phi.shape)[()] for v in (theta, dtheta, b, mu))


def blocked_powers(z, count):
    """Rows z^0..z^{b-1} and rows z^0, z^b, ..., z^{b(b-1)} at the points z,
    for the smallest b with b*b >= count: every power z^{bj+i} below count
    is the product of row i of the first and row j of the second, so a sum
    over count powers becomes one matrix product. Both by running products.
    """
    b = math.isqrt(count - 1) + 1

    def powers(x):
        out = np.empty((b, len(z)), dtype=complex)
        out[0] = 1.0
        out[1:] = x
        return np.cumprod(out, axis=0)

    low = powers(z)
    return low, powers(low[-1] * z)


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
    # zphi[1:k+2] holds Phi_k, so zphi[:k+2] is z*Phi_k (zphi[0] stays 0)
    zphi = np.zeros(n + 2, dtype=complex)
    phi_star = np.zeros(n + 2, dtype=complex)
    zphi[1] = phi_star[0] = 1.0
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        num = np.sum(zphi[1:k + 2] * np.conj(c[1:k + 2]))
        den = np.sum(phi_star[:k + 1] * np.conj(c[:k + 1]))
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
        zphi[1:k + 3], phi_star[:k + 2] = _szego_step(zphi[:k + 2], phi_star[:k + 2], ak)
    return out


def _cmv_diagonals(a, size):
    """Rows 0..size-1 of the CMV matrix C = L*M of the coefficients `a`
    (zero past the given ones) as five diagonals: out[i, t] = C[i, i + t - 2].

    L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ... (direct
    sums), Theta_j = [[conj(a_j), rho_j], [rho_j, -a_j]] on rows j, j+1,
    rho_j = (1 - |a_j|^2)^(1/2). Row i of the product reads

        i even: [0, conj(a_i) rho_{i-1}, -a_{i-1} conj(a_i), rho_i conj(a_{i+1}), rho_i rho_{i+1}],
        i odd:  [rho_{i-1} rho_{i-2}, -rho_{i-1} a_{i-2}, -a_{i-1} conj(a_i), -a_{i-1} rho_i, 0],

    with a_{-1} = -1 and rho_{-1} = 0 standing for the leading 1 of M.
    Entries whose column falls outside 0..size-1 are left in place; they
    meet the zero padding of the vector they multiply.
    """
    # e[j + 2] = a_j and r[j + 2] = rho_j, for j = -2..size
    e = np.zeros(size + 3, dtype=complex)
    e[1] = -1.0
    count = min(len(a), size + 1)
    e[2:count + 2] = a[:count]
    mod = np.abs(e)
    r = np.sqrt((1.0 - mod) * (1.0 + mod))
    r[1] = 0.0

    def at(v, s):
        """v at index i + s for the rows i = 0..size-1."""
        return v[2 + s:2 + s + size]

    even = np.arange(size) % 2 == 0
    out = np.empty((size, 5), dtype=complex)
    out[:, 0] = np.where(even, 0.0, at(r, -1) * at(r, -2))
    out[:, 1] = at(r, -1) * np.where(even, np.conj(at(e, 0)), -at(e, -2))
    out[:, 2] = -at(e, -1) * np.conj(at(e, 0))
    out[:, 3] = at(r, 0) * np.where(even, np.conj(at(e, 1)), -at(e, -1))
    out[:, 4] = np.where(even, at(r, 0) * at(r, 1), 0.0)
    return out


def moments_from_alphas(alphas, n):
    """Moments c_0..c_n of the measure whose recurrence coefficients start
    with `alphas` (taken as zero beyond the given entries).

    c_k = (C^k)_00 for the CMV matrix C of the coefficients as given
    (Cantero, Moral & Velazquez, LAA 362, 2003; Simon, OPUC vol. 1, ch. 4).
    Only the corner A of size D = min(n, d) + 2 is used, d one past the
    last nonzero coefficient, and (A^k)_00 = (C^k)_00 for k <= n exactly:
    C is five-diagonal, so an entry past index n cannot reach row 0 within
    n powers; and past d the matrix is the free CMV matrix, which carries
    the odd entries outward and the even ones inward, so nothing that
    leaves the corner returns. C is unitary and A a contraction, so the
    powers do not amplify rounding, where the monomial coefficients of the
    Szego recurrence grow like prod(1 + |a_k|). Each power is one row-wise
    product of the five diagonals with a sliding window of the vector:
    n products on a D-vector, independent of how many zeros follow.
    """
    a = as_verblunsky(alphas)[:n]
    nonzero = np.flatnonzero(a)
    size = (int(nonzero[-1]) + 1 if nonzero.size else 0) + 2
    diag = _cmv_diagonals(a, size)
    # two padded vectors in turn: A^{k-1} e_0 in one gives A^k e_0 in the other
    buf = np.zeros((2, size + 4), dtype=complex)
    buf[0, 2] = 1.0
    steps = [(np.lib.stride_tricks.sliding_window_view(buf[i], 5), buf[1 - i, 2:-2])
             for i in (0, 1)]
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    for k, (window, out) in zip(range(1, n + 1), itertools.cycle(steps)):
        np.einsum("ij,ij->i", diag, window, out=out)
        c[k] = out[0]
    return c
