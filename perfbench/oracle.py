"""Reference computations for checking szquad output, made apart from szquad.

Nothing here imports szquad. The Szegő recurrence runs in mpmath at
DPS significant digits; the trigonometric-moment conventions match the
library's: c_k = (1/2pi) int e^{-ik phi} dsigma, c_0 = 1, a_0 = conj(c_1),

    Phi_{j+1}  = z Phi_j - a_j Phi*_j,      Phi*_{j+1} = Phi*_j - conj(a_j) z Phi_j.

An n-node rule built from the coefficients a_0..a_{n-2} and the unimodular
eta has its nodes at the zeros of T = z Phi_{n-1} + eta Phi*_{n-1} and its
weights equal to the Christoffel numbers 1 / sum_{j<n} |phi_j(z_s)|^2 with
phi_j = Phi_j / ||Phi_j|| (Jones, Njåstad & Thron, Bull. LMS 21, 1989).
"""

import math

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf

DPS = 34

# Property thresholds. A node moved by 1e-9 rad exceeds NODE_TOL, one weight
# scaled by 1 + 1e-9 exceeds MASS_TOL, and one weight scaled by 1 + 1e-9 with
# the rule renormalized exceeds WEIGHT_REL_TOL. The program's second-kind
# weights meet the Christoffel weights within 1e-12 of max(mu, 1e-3) except
# on measures with coefficients of modulus 0.7, where they miss by up to
# 1e-10; those are checked against WEIGHT_REL_TOL_LOOSE.
NODE_TOL = 1e-12          # distance in radians from a node to the zero of T
WEIGHT_REL_TOL = 1e-10    # |mu - mu_ref| / max(mu_ref, WEIGHT_FLOOR)
WEIGHT_REL_TOL_LOOSE = 1e-8
WEIGHT_FLOOR = 1e-3       # below it, weights are compared against 1e-3 of the mass
MOMENT_TOL = 1e-12        # |sum mu z^-k - c_k| for k within the exactness degree
MASS_TOL = 1e-13          # |sum mu - 1|


def _mp_values(values):
    return [mpmath.mpmathify(v) for v in values]


# --- moments -------------------------------------------------------------

def moments_from_verblunsky(alphas, count, dps=DPS):
    """c_0..c_count of the measure whose coefficients start with `alphas`,
    taken as zero beyond them, from <Phi_k, 1> = 0.

    Past the last nonzero coefficient a_{N-1}, Phi_k = z^{k-N} Phi_N, so each
    further moment costs O(N). The recurrence loses digits as fast as the
    coefficients of Phi_k grow, so moments_precise runs it twice with
    extra digits and compares.
    """
    with mp.workdps(dps):
        a = _mp_values(alphas)
        while a and a[-1] == 0:
            a.pop()
        c = [mpc(1)] + [mpc(0)] * count
        phi, phi_star = [mpc(1)], [mpc(1)]
        for k in range(1, count + 1):
            if k - 1 < len(a):
                ak = a[k - 1]
                zphi = [mpc(0)] + phi
                phi_star_p = phi_star + [mpc(0)]
                phi = [zphi[i] - ak * phi_star_p[i] for i in range(k + 1)]
                phi_star = [phi_star_p[i] - mpmath.conj(ak) * zphi[i] for i in range(k + 1)]
            # Phi_k = z^{k-N} Phi_N is monic and orthogonal to 1
            shift = k + 1 - len(phi)
            acc = mpc(0)
            for i in range(len(phi) - 1):
                acc += phi[i] * mpmath.conj(c[i + shift])
            c[k] = -mpmath.conj(acc)
        return c


def moments_precise(alphas, count):
    """Moments from the recurrence at DPS + 40 digits, confirmed by a second
    pass at DPS + 80; raises if the two differ beyond 10^-DPS."""
    first = moments_from_verblunsky(alphas, count, DPS + 40)
    second = moments_from_verblunsky(alphas, count, DPS + 80)
    with mp.workdps(DPS + 80):
        gap = max(abs(x - y) for x, y in zip(first, second))
    if gap > mpf(10) ** (-DPS):
        raise ArithmeticError(f"moment recurrence lost precision: passes differ by {mpmath.nstr(gap, 3)}")
    return first


def bernstein_szego_moments(roots, count):
    """Moments of the density proportional to 1/|P(e^{i phi})|^2, P = prod (z - b_j),
    from its closed form by residues at the poles 1/conj(b_j) outside the disk:

        c_k = sum_j K z_j^{d-k-1} / (P(z_j) conj(b_j) prod_{i != j} (1 - conj(b_i) z_j)),

    with K fixed by c_0 = 1. Needs distinct nonzero roots in the open disk.
    """
    with mp.workdps(DPS + 10):
        b = _mp_values(roots)
        if not b:
            return [mpc(1)] + [mpc(0)] * count
        d = len(b)
        zs = [1 / mpmath.conj(bj) for bj in b]
        coef = []
        for j, zj in enumerate(zs):
            p_val = mpmath.fprod([zj - bi for bi in b])
            other = mpmath.fprod([1 - mpmath.conj(bi) * zj for i, bi in enumerate(b) if i != j])
            coef.append(zj ** (d - 1) / (p_val * mpmath.conj(b[j]) * other))
        raw = [mpmath.fsum([cj * zj ** (-k) for cj, zj in zip(coef, zs)]) for k in range(count + 1)]
        return [v / raw[0] for v in raw]


def verblunsky_from_moments(c, count):
    """a_0..a_{count-1} from c_0..c_count by the Szegő recurrence on
    coefficient vectors: a_k = <z Phi_k, 1> / <Phi*_k, 1>."""
    with mp.workdps(DPS + 20):
        cc = _mp_values(c)
        cc += [mpc(0)] * (count + 1 - len(cc))
        c0 = cc[0]
        cc = [v / c0 for v in cc]
        phi, phi_star = [mpc(1)], [mpc(1)]
        out = []
        for k in range(count):
            num = mpmath.fsum([phi[i] * mpmath.conj(cc[i + 1]) for i in range(len(phi))])
            den = mpmath.fsum([phi_star[i] * mpmath.conj(cc[i]) for i in range(len(phi_star))])
            ak = num / den
            out.append(ak)
            zphi = [mpc(0)] + phi
            phi_star_p = phi_star + [mpc(0)]
            phi = [zphi[i] - ak * phi_star_p[i] for i in range(k + 2)]
            phi_star = [phi_star_p[i] - mpmath.conj(ak) * zphi[i] for i in range(k + 2)]
        return out


def schur_parameters(roots):
    """Coefficients a_0..a_{d-1} of the Bernstein-Szegő measure with the given
    roots: run the recurrence downward from the monic prod (z - b_j)."""
    with mp.workdps(DPS + 10):
        work = [mpc(1)]
        for bj in _mp_values(roots):
            work = [mpc(0)] + work
            for i in range(len(work) - 1):
                work[i] -= bj * work[i + 1]
        d = len(work) - 1
        params = [mpc(0)] * d
        for k in range(d, 0, -1):
            ak = -work[0]
            rev = [mpmath.conj(v) for v in reversed(work)]
            work = [(work[i] + ak * rev[i]) / (1 - abs(ak) ** 2) for i in range(1, k + 1)]
            params[k - 1] = ak
        return params


def trig_density_moments(d, eps, count):
    """c_0..c_count of the density |sum_j d_j e^{ij phi}|^2 + eps, normalized
    to c_0 = 1: c_k = sum_l d_{l+k} conj(d_l), zero beyond the degree."""
    with mp.workdps(DPS + 10):
        dm = _mp_values(d)
        raw = [mpmath.fsum([dm[l + k] * mpmath.conj(dm[l]) for l in range(len(dm) - k)])
               for k in range(min(count, len(dm) - 1) + 1)]
        raw[0] += mpmath.mpmathify(eps)
        c = [v / raw[0] for v in raw]
        return c + [mpc(0)] * (count + 1 - len(c))


def measure_alphas(kind, value, count):
    """a_0..a_{count-1} of a measure named as in measure_moments."""
    if kind == "lebesgue":
        full = []
    elif kind == "bernstein-szego":
        full = schur_parameters(value)
    elif kind == "geronimus":
        full = [mpmath.mpmathify(value)] * count
    elif kind == "verblunsky":
        full = _mp_values(value)
    else:
        full = verblunsky_from_moments(measure_moments(kind, value, count), count)
    full = list(full[:count])
    return full + [mpc(0)] * (count - len(full))


def measure_moments(kind, value, count):
    """c_0..c_count of a measure: "lebesgue"; "bernstein-szego" with its roots;
    "geronimus" with its constant coefficient; "verblunsky" with its
    coefficients (zero beyond them); "moments" with c_0, c_1, ... as given
    (zero beyond them, normalized to c_0 = 1); "trig" with (d, eps) of
    trig_density_moments."""
    if kind == "lebesgue":
        return [mpc(1)] + [mpc(0)] * count
    if kind == "bernstein-szego":
        return bernstein_szego_moments(value, count)
    if kind == "geronimus":
        return moments_precise([value] * count, count)
    if kind == "verblunsky":
        return moments_precise(value, count)
    if kind == "trig":
        return trig_density_moments(*value, count)
    with mp.workdps(DPS):
        given = _mp_values(value[: count + 1])
        return [v / given[0] for v in given] + [mpc(0)] * (count + 1 - len(given))


def chebyshev_moments(count):
    """int x^k dx / (pi sqrt(1 - x^2)), k = 0..count: C(2j, j) / 4^j for k = 2j."""
    return [mpf(math.comb(k, k // 2)) / mpf(2) ** k if k % 2 == 0 else mpf(0)
            for k in range(count + 1)]


def interval_moments(c, count):
    """int x^k dpsi on [-1, 1] for the fold of a circle measure symmetric under
    phi -> -phi (real c_k): x^k = cos^k phi = 2^-k sum_j C(k, j) e^{i(k-2j) phi}."""
    with mp.workdps(DPS + 10):
        re = [mpmath.re(v) for v in c]
        return [mpmath.fsum([math.comb(k, j) * re[abs(k - 2 * j)] for j in range(k + 1)]) / mpf(2) ** k
                for k in range(count + 1)]


# --- nodes and weights ---------------------------------------------------

def christoffel_check(alphas, eta, nodes):
    """At each node z_s = e^{i phi_s}: the Christoffel weight
    K(z_s)^-1 = 1 / sum_{j<n} |phi_j(z_s)|^2, and the distance in radians to
    the zero of T, arg(-z Phi_{n-1} / (eta Phi*_{n-1})) / theta'(phi_s). The
    phase theta = arg(z Phi_{n-1} / Phi*_{n-1}) has theta' = K / |phi*_{n-1}|^2.

    `alphas` are the n-1 coefficients a_0..a_{n-2}. Runs of zero coefficients
    are stepped in closed form: Phi -> z^L Phi, Phi* unchanged, and each of the
    L steps adds |Phi*|^2 / ||Phi||^2 to the sum, since |z| = 1.
    Returns (weights, node_errors) as float arrays.
    """
    with mp.workdps(DPS):
        a = _mp_values(alphas)
        runs = []          # (coefficient or None for a zero run, length)
        for ak in a:
            if ak == 0:
                if runs and runs[-1][0] is None:
                    runs[-1] = (None, runs[-1][1] + 1)
                else:
                    runs.append((None, 1))
            else:
                runs.append((ak, 1))
        eta_mp = mpc(complex(eta).real, complex(eta).imag)
        weights = np.empty(len(nodes))
        errs = np.empty(len(nodes))
        for s, phi_s in enumerate(nodes):
            z = mpmath.expj(mpf(float(phi_s)))
            phi, phi_star = mpc(1), mpc(1)
            norm = mpf(1)
            total = mpf(0)
            for ak, length in runs:
                if ak is None:
                    total += length * (phi_star.real ** 2 + phi_star.imag ** 2) / norm
                    phi = phi * z ** length
                else:
                    total += (phi_star.real ** 2 + phi_star.imag ** 2) / norm
                    zphi = z * phi
                    phi = zphi - ak * phi_star
                    phi_star = phi_star - mpmath.conj(ak) * zphi
                    norm *= 1 - (ak.real ** 2 + ak.imag ** 2)
            last = (phi_star.real ** 2 + phi_star.imag ** 2) / norm
            total += last
            weights[s] = float(1 / total)
            errs[s] = float(abs(mpmath.arg(-z * phi / (eta_mp * phi_star))) * last / total)
        return weights, errs


def bernstein_szego_real_nodes(b, n, eta):
    """Nodes of the n-point rule of Bernstein-Szegő with one real root b and
    boundary parameter eta, solved apart from any recurrence: on |z| = 1,
    T = z^{n-1} (z - b) + eta (1 - b z) vanishes where
    g(phi) = n phi + 2 atan2(b sin phi, 1 - b cos phi) = arg(-eta) + 2 pi k,
    and g increases strictly from 0 to 2 pi n."""
    target = (math.atan2((-eta).imag, (-eta).real) % (2 * math.pi)) + 2 * math.pi * np.arange(n)
    phi = target / n
    for _ in range(60):
        den = 1 - 2 * b * np.cos(phi) + b * b
        g = n * phi + 2 * np.arctan2(b * np.sin(phi), 1 - b * np.cos(phi))
        dg = n + 2 * (b * np.cos(phi) - b * b) / den
        step = (g - target) / dg
        phi = phi - step
        if np.max(np.abs(step)) < 1e-13:
            return np.sort(np.mod(phi, 2 * math.pi))
    raise ArithmeticError(f"Newton on the Bernstein-Szegő({b}) phase did not settle at n={n}")


def bernstein_szego_real_asym_dev(b, n, eta):
    """max_s |1/(n mu_s) - 1/f(phi_s)| for the m = 0 rule of Bernstein-Szegő(b):
    with mu_s = 1 / (1 + (n-1)/f) the deviation is (1/n) max_s |1 - 1/f|,
    1/f = |1 - b z|^2 / (1 - b^2)."""
    phi = bernstein_szego_real_nodes(b, n, eta)
    inv_f = (1 - 2 * b * np.cos(phi) + b * b) / (1 - b * b)
    return float(np.max(np.abs(1 - inv_f)) / n)


# --- property checks -------------------------------------------------------

def rule_moment_errors(nodes, weights, c_ref, degree):
    """max_{k<=degree} |sum_s mu_s e^{-ik phi_s} - c_k|, in blocks of 64 rows."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    ref = np.array([complex(v) for v in c_ref[: degree + 1]])
    worst = 0.0
    for start in range(0, degree + 1, 64):
        k = np.arange(start, min(degree + 1, start + 64))
        disc = np.exp(-1j * np.outer(k, nodes)) @ weights
        worst = max(worst, float(np.max(np.abs(disc - ref[start: start + len(k)]))))
    return worst


def circle_rule_properties(nodes, weights, n):
    """Problems with the shape of a circle rule: n strictly increasing angles
    in [0, 2 pi), positive weights summing to 1."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    problems = []
    if len(nodes) != n or len(weights) != n:
        problems.append(f"{len(nodes)} nodes and {len(weights)} weights for n={n}")
        return problems
    if np.any(np.diff(nodes) <= 0) or nodes[0] < 0 or nodes[-1] >= 2 * math.pi:
        problems.append("nodes not strictly increasing in [0, 2pi)")
    if np.min(weights) <= 0:
        problems.append(f"nonpositive weight {np.min(weights):.3e}")
    if abs(float(np.sum(weights)) - 1.0) > MASS_TOL:
        problems.append(f"weights sum to 1{float(np.sum(weights)) - 1.0:+.3e}")
    return problems


def check_circle_rule(nodes, weights, n, m, modified, eta, c_ref, weight_tol=WEIGHT_REL_TOL):
    """All checks on one circle rule against the oracles.

    `modified` holds the n-1 coefficients (measure prefix, then tail) from
    the oracle side; `c_ref` the measure's moments through n-1-m.
    Returns (problems, worst relative error over moments and weights).
    """
    problems = circle_rule_properties(nodes, weights, n)
    if problems:
        return problems, math.inf
    w_ref, node_err = christoffel_check(modified, eta, nodes)
    w_err = float(np.max(np.abs(np.asarray(weights) - w_ref) / np.maximum(w_ref, WEIGHT_FLOOR)))
    c_err = rule_moment_errors(nodes, weights, c_ref, n - 1 - m)
    if np.max(node_err) > NODE_TOL:
        problems.append(f"node {np.max(node_err):.3e} rad off its zero")
    if w_err > weight_tol:
        problems.append(f"weight relative error {w_err:.3e}")
    if c_err > MOMENT_TOL:
        problems.append(f"moment error {c_err:.3e} through degree {n - 1 - m}")
    return problems, max(w_err, c_err)


def check_interval_rule(x, lam, degree, m_ref):
    """Interval rule: strictly decreasing nodes in [-1, 1], positive weights
    summing to 1, and sum lam x^k = m_k through `degree`."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    problems = []
    if len(x) == 0 or len(x) != len(lam):
        return [f"{len(x)} nodes and {len(lam)} weights"], math.inf
    if np.any(np.diff(x) >= 0) or x[0] > 1 or x[-1] < -1:
        problems.append("interval nodes not strictly decreasing in [-1, 1]")
    if np.min(lam) <= 0:
        problems.append(f"nonpositive weight {np.min(lam):.3e}")
    if abs(float(np.sum(lam)) - 1.0) > MASS_TOL:
        problems.append(f"weights sum to 1{float(np.sum(lam)) - 1.0:+.3e}")
    ref = np.array([float(v) for v in m_ref[: degree + 1]])
    powers = np.vander(x, degree + 1, increasing=True).T
    err = float(np.max(np.abs(powers @ lam - ref)))
    if err > MOMENT_TOL:
        problems.append(f"interval moment error {err:.3e} through degree {degree}")
    return problems, err


# --- self-test on known answers ---------------------------------------------

def self_test():
    """Check the oracles against answers known in closed form; returns a list
    of failures (empty when all hold)."""
    failures = []
    rng = np.random.default_rng(12345)

    # Lebesgue: nodes (arg(-eta) + 2 pi k)/n, weights 1/n
    n = 12
    eta = complex(np.exp(0.9j))
    nodes = np.sort(np.mod((np.angle(-eta) + 2 * math.pi * np.arange(n)) / n, 2 * math.pi))
    w, err = christoffel_check([0.0] * (n - 1), eta, nodes)
    if np.max(np.abs(w * n - 1)) > 1e-14 or np.max(err) > 1e-14:
        failures.append("Lebesgue rule: weights 1/n at rotated equispaced nodes")

    # Bernstein-Szegő(1/2): 1/(n mu) = 1/n + (n-1)/(n f) at any point of the circle
    n = 9
    phis = np.sort(rng.uniform(0, 2 * math.pi, 5))
    w, _ = christoffel_check([0.5] + [0.0] * (n - 2), 1.0, phis)
    f = 0.75 / (1.25 - np.cos(phis))
    if np.max(np.abs(1 / (n * w) - (1 / n + (n - 1) / (n * f)))) > 1e-14:
        failures.append("Bernstein-Szegő(1/2): Christoffel identity")
    nodes = bernstein_szego_real_nodes(0.5, n, eta)
    _, err = christoffel_check([0.5] + [0.0] * (n - 2), eta, nodes)
    if np.max(err) > 1e-13:
        failures.append("Bernstein-Szegő(1/2): closed-form nodes vs the recurrence")

    # closed-form Bernstein-Szegő moments vs the recurrence on its Schur parameters
    roots = [0.5 + 0.2j, -0.3j, 0.6]
    c_closed = bernstein_szego_moments(roots, 20)
    c_rec = moments_from_verblunsky(schur_parameters(roots), 20)
    if max(abs(x - y) for x, y in zip(c_closed, c_rec)) > 1e-30:
        failures.append("Bernstein-Szegő moments: residues vs recurrence")
    if abs(bernstein_szego_moments([0.5], 3)[3] - mpf(0.125)) > 1e-30:
        failures.append("Bernstein-Szegő(1/2): c_3 = 1/8")

    # Levinson inverts the moment recurrence
    alphas = [0.3 - 0.2j, 0.1j, -0.4, 0.25]
    back = verblunsky_from_moments(moments_from_verblunsky(alphas, 4), 4)
    if max(abs(x - mpc(a)) for x, a in zip(back, alphas)) > 1e-30:
        failures.append("Levinson round trip")

    # folding the flat measure gives the Chebyshev weight
    cheb = chebyshev_moments(10)
    folded = interval_moments([1] + [0] * 10, 10)
    if max(abs(x - y) for x, y in zip(cheb, folded)) > 1e-30 or cheb[4] != mpf(3) / 8:
        failures.append("Chebyshev moments")
    return failures
