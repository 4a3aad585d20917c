"""Checks for everything a positive circle rule is supposed to satisfy.

Each operation here reduces an integral statement to finitely many moments
and reports residuals; nothing in this module does singular numerical
quadrature. The central device is the cotangent-difference kernel

    S(psi) = (1/2pi) int cot((phi - psi)/2) (u(psi) - u(phi)) dsigma(phi)

applied modewise: for u(phi) = e^{ik phi}, k >= 1,

    S_k(psi) = -i [ conj(c_k) + e^{ik psi} + 2 sum_{l=1}^{k-1} conj(c_l) e^{i(k-l) psi} ],

a finite trigonometric polynomial with moment coefficients. Everything else
(weight recovery, zero separation, series matching) builds on that.
"""

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    DegenerateSpecError,
    LogSingularityError,
    UnsupportedVariantError,
    ZerosNotInDiskError,
)
from .opuc_core import blocked_powers, inverse_szego, prufer_phase, szego_constant
from .rulegen import QuadratureRule, _check_eta, generate_rule, qm_recurrence_coeffs

P = np.polynomial.polynomial
TWO_PI = 2.0 * np.pi


def default_exactness_tol(n, c):
    """Absolute tolerance for moment-match errors: 1e-10 * n * max|c_k|."""
    return 1e-10 * n * float(np.max(np.abs(c)))


# --- exactness ------------------------------------------------------------

@dataclass(frozen=True)
class ExactnessReport:
    errors: np.ndarray          # e_k = |sum mu e^{-ik phi} - c_k|, k = 0..k_probe
    precise_degree: int         # largest d with max_{k<=d} e_k <= tol
    tol: float
    saturated: bool             # True when no probed k failed

    def to_record(self):
        return {
            "errors": [{"k": int(k), "error": float(e)} for k, e in enumerate(self.errors)],
            "precise_degree": int(self.precise_degree),
            "tol": float(self.tol),
        }


def check_exactness(rule, c, k_probe, tol=None):
    """Compare the rule's discrete moments against c_0..c_{k_probe}."""
    c = np.asarray(c, dtype=complex)
    if len(c) < k_probe + 1:
        raise ValueError(f"need moments to k={k_probe}, have {len(c) - 1}")
    if tol is None:
        tol = default_exactness_tol(rule.n, c[: k_probe + 1])
    disc = rule.moments(k_probe)
    errors = np.abs(disc - c[: k_probe + 1])
    fails = np.nonzero(errors > tol)[0]
    if fails.size:
        precise = int(fails[0]) - 1
        saturated = False
    else:
        precise = k_probe
        saturated = True
    return ExactnessReport(errors=errors, precise_degree=precise, tol=float(tol),
                           saturated=saturated)


# --- series matching (Caratheodory route) ----------------------------------

def _series_ratio(num, den, order):
    """Power series of num/den through z^order. den[0] must not vanish."""
    den = np.asarray(den, dtype=complex)
    num = np.asarray(num, dtype=complex)
    if abs(den[0]) < 1e-13:
        raise DegenerateSpecError("series division: constant term of denominator vanishes")
    out = np.zeros(order + 1, dtype=complex)
    rem = np.zeros(order + 1, dtype=complex)
    rem[: min(order + 1, len(num))] = num[: order + 1]
    dpad = np.zeros(order + 1, dtype=complex)
    dpad[: min(order + 1, len(den))] = den[: order + 1]
    for k in range(order + 1):
        out[k] = rem[k] / dpad[0]
        rem[k:] -= out[k] * dpad[: order + 1 - k]
    return out


@dataclass(frozen=True)
class CaratheodoryReport:
    max_error: float            # worst series coefficient mismatch through the order
    order: int                  # n - m - 1
    schur_in_disk: bool         # inner factor passed the Schur-Cohn test
    schur_max_abs: float        # largest recovered parameter modulus

    def to_record(self):
        return {
            "max_error": float(self.max_error),
            "order": int(self.order),
            "schur_in_disk": bool(self.schur_in_disk),
        }


def _spread_order(nodes):
    """Indices of the nodes taken by angle in bit-reversed order: every prefix
    of this order is spread over the whole circle."""
    n = len(nodes)
    i = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    bits = max(1, (n - 1).bit_length())
    for b in range(bits):
        rev |= ((i >> b) & 1) << (bits - 1 - b)
    return np.argsort(nodes)[np.argsort(rev)]


def _nodes_polys(nodes, weights=None):
    """Coefficients (ascending) of T = prod (z - z_s) and, with weights, of
    N = -T sum mu_s (z + z_s)/(z - z_s), z_s = e^{i phi_s}: the FFT of their
    values at the n+1 roots of unity turned by rho to the middle of the
    widest gap of the nodes mod 2pi/(n+1), so that no point meets a node.
    The factors go in _spread_order: in node order the partial products grow
    like e^{0.32 n} and overflow near n = 2200."""
    n = len(nodes)
    h = TWO_PI / (n + 1)
    r = np.sort(np.mod(nodes, h))
    gaps = np.diff(np.append(r, r[0] + h))
    g = int(np.argmax(gaps))
    rho = r[g] + gaps[g] / 2.0
    w = np.exp(1j * (rho + h * np.arange(n + 1)))
    order = _spread_order(nodes)
    z = np.exp(1j * np.asarray(nodes)[order])[:, None]
    mu = None if weights is None else np.asarray(weights)[order]
    t_vals = np.empty(n + 1, dtype=complex)
    cauchy = np.empty(n + 1, dtype=complex)      # sum mu_s / (w - z_s)
    cols = max(1, 2 ** 21 // max(n, 1))    # bounds the (n, cols) blocks to 32 MB
    for lo in range(0, n + 1, cols):
        diff = w[lo:lo + cols] - z
        t_vals[lo:lo + cols] = np.prod(diff, axis=0)
        if mu is not None:
            cauchy[lo:lo + cols] = mu @ np.reciprocal(diff, out=diff)
    unrotate = np.exp(-1j * rho * np.arange(n + 1)) / (n + 1)
    t_poly = np.fft.fft(t_vals) * unrotate
    if weights is None:
        return t_poly
    # (w + z_s)/(w - z_s) = 2w/(w - z_s) - 1
    herglotz = 2.0 * w * cauchy - np.sum(mu)
    return t_poly, np.fft.fft(-t_vals * herglotz) * unrotate


def caratheodory_match(rule, c):
    """Check the series condition of the inner-factor description:

    (eta p* - z p)/(eta p* + z p) must reproduce 1 + 2 sum c_k z^k through
    order n-m-1, and p must have all zeros in the open unit disk. T = z p +
    eta p* and N = eta p* - z p come from the rule's nodes and weights.
    """
    order = rule.n - rule.m - 1
    c = np.asarray(c, dtype=complex)
    if len(c) < order + 1:
        raise ValueError(f"need moments to k={order}, have {len(c) - 1}")
    t_poly, n_poly = _nodes_polys(rule.nodes, rule.weights)
    series = _series_ratio(n_poly, t_poly, order)
    target = 2.0 * c[: order + 1].copy()
    target[0] = 1.0
    max_err = float(np.max(np.abs(series - target)))

    # inner factor p = (T - N)/(2z); its zeros must lie in the disk
    pnum = t_poly - n_poly
    p = pnum[1:] / 2.0
    p = p / p[-1]  # monic up to rounding
    try:
        params = inverse_szego(p)
        in_disk = True
        max_abs = float(np.max(np.abs(params))) if len(params) else 0.0
    except ZerosNotInDiskError:
        in_disk = False
        max_abs = float("inf")
    return CaratheodoryReport(max_error=max_err, order=order,
                              schur_in_disk=in_disk, schur_max_abs=max_abs)


# --- trigonometric nodes polynomial and the kernel transform ---------------

def _trig_phase(nodes):
    """M with T(phi) = Re(M e^{-in phi/2} prod (e^{i phi} - z_s)) for the real
    T(phi) = 2^n prod_s sin((phi - phi_s)/2). The factor 2^n keeps T near the
    size of prod (z - z_s); without it T is subnormal at n = 1024."""
    return np.exp(-0.5j * (np.sum(nodes) + len(nodes) * np.pi))


def _trig_nodes_coeffs(nodes):
    """Coefficients of T(phi) = 2^n prod_s sin((phi - phi_s)/2) on the doubled
    frequency grid: returns (nu, co) with T = sum_j co[j] e^{i (nu[j]/2) phi},
    nu integer (odd entries appear when the node count is odd)."""
    nodes = np.asarray(nodes, dtype=float)
    nn = len(nodes)
    return 2 * np.arange(nn + 1) - nn, _trig_phase(nodes) * _nodes_polys(nodes)


def _kernel_poly(nodes, t_poly, c):
    """The kernel transform S of T as S(psi) = Im(sum_j beta_j e^{ij psi}) / q(psi).

    Even n: q = 1, and with T = sum_k a_k e^{ik phi} (a_{-k} = conj(a_k)),
    the modewise formula of the module docstring sums to beta_j = 4 b_j for
    j >= 1 and beta_0 = 2 b_0 - a_0, where b_j = sum_{l>=0} a_{j+l} e_l,
    e_0 = 1/2, e_l = conj(c_l): one convolution. Odd n: T has half-integer frequencies, so
    transform q*T with the positive half-degree factor q = cos((psi - phi_c)/2),
    whose zero phi_c + pi sits mid-way in the widest node gap. Returns
    (beta, phi_c), phi_c None for even n.
    """
    n = len(nodes)
    # T is real, so co_{-nu} = conj(co_nu); imposing it keeps the rounding of
    # the phase of _trig_phase, about 1e-14 rad, out of the one-sided sum,
    # where it would bring in the conjugate function of T
    full = _trig_phase(nodes) * t_poly
    half = (full + np.conj(full[::-1]))[n // 2:] / 2.0
    if n % 2 == 0:
        a, phi_c = half, None
    else:
        # half holds the frequencies -1/2, 1/2, ..., n/2 of T
        gaps = np.diff(np.append(nodes, nodes[0] + TWO_PI))
        gi = int(np.argmax(gaps))
        phi_c = float(np.mod(nodes[gi] + gaps[gi] / 2.0 + np.pi, TWO_PI))
        a = 0.5 * (np.exp(-0.5j * phi_c) * half + np.exp(0.5j * phi_c) * np.append(half[1:], 0.0))
    e = np.conj(c[: len(a)])
    e[0] = 0.5
    beta = 4.0 * np.convolve(a[::-1], e)[len(a) - 1::-1]
    beta[0] = beta[0] / 2.0 - a[0]
    return beta, phi_c


def _poly_values(coefs, z):
    """Values at z of the polynomials in the rows of coefs (ascending). With
    b*b >= the length, p(z) = sum_j z^{bj} sum_i c_{bj+i} z^i: one matrix
    product with z^0..z^{b-1}, then a sum weighted by z^{bj}."""
    k, d = coefs.shape
    low, high = blocked_powers(z, d)
    b = len(low)
    pad = np.zeros((k, b * b), dtype=complex)
    pad[:, :d] = coefs
    return np.sum((pad.reshape(k, b, b) @ low) * high, axis=1)


def _node_distance(psi, nodes):
    """Circular distance from each angle to the nearest of the sorted nodes."""
    ext = np.concatenate([[nodes[-1] - TWO_PI], nodes, [nodes[0] + TWO_PI]])
    p = np.mod(psi, TWO_PI)
    i = np.searchsorted(ext, p)
    return np.minimum(p - ext[i - 1], ext[i] - p)


@dataclass(frozen=True)
class SFunctionTrace:
    psi: np.ndarray             # retained sample angles
    s_values: np.ndarray        # kernel-transform values S(psi)
    r_values: np.ndarray        # rational-expansion values R(psi)
    t_values: np.ndarray        # nodes polynomial T(psi)
    max_s_minus_r: float        # max|S - R| / max|R| over psi
    weight_residual: float      # max_s |mu_s + S(phi_s)/(2 T'(phi_s))|
    arc_counts: tuple           # 1 where S changes sign across node arc i, else 0
    sign_case: int              # sign shared by all recovered weights, 0 if mixed
    sign_consistent: bool       # every recovered weight -S/(2T') is positive
    interlacing_violations: int # nodes whose recovered weight is not positive
    skipped: tuple              # (angle, reason) pairs for dropped samples

    def to_record(self):
        return {
            "max_s_minus_r": float(self.max_s_minus_r),
            "weight_residual": float(self.weight_residual),
            "interlacing_violations": int(self.interlacing_violations),
            "sign_case": int(self.sign_case),
        }


def s_function(rule, c, samples=None):
    """Cross-check the kernel-transform polynomial S against the rational
    expansion R built from the weights, recover the weights from S, and
    verify that the zeros of S separate the nodes. c holds the moments
    c_0..c_k of the measure, k >= n//2 + (n mod 2).

    The weight identity S(phi_s) = -2 mu_s T'(phi_s) turns the separation
    into a sign count: T' alternates at consecutive nodes and S has at most
    n zeros, so when every recovered weight is positive, S has exactly one
    zero on each node arc. For odd n, S = K/q with the half-degree factor q:
    on a node set that is not an exact rule, S may change sign through the
    pole at the zero of q instead, where a root count finds no zero; S then
    misses R, and max_s_minus_r reports the set. The default samples are 8n
    equispaced angles, evaluated by FFT; other samples, and the nodes, by
    blocked power sums in e^{i psi}.

    Requires the rule to be exact at least on the half-degree class
    (n - 1 - m >= n//2 + (n mod 2)); below that the construction has no
    meaning and a ValueError is raised.
    """
    n, m = rule.n, rule.m
    half = n // 2 + n % 2
    if n - 1 - m < half:
        raise ValueError(f"S-function needs exactness degree >= {half}, rule has {n - 1 - m}")
    c = np.asarray(c, dtype=complex)
    if len(c) < half + 1:
        raise ValueError(f"need moments to k={half}, have {len(c) - 1}")
    nodes = rule.nodes
    t_poly, n_poly = _nodes_polys(nodes, rule.weights)
    beta, phi_c = _kernel_poly(nodes, t_poly, c)
    mult = _trig_phase(nodes)
    polys = np.zeros((3, n + 1), dtype=complex)     # S's beta, T, N as polynomials in z
    polys[0, : len(beta)] = beta
    polys[1], polys[2] = t_poly, n_poly

    if samples is None:
        count = 8 * n
        psi = (np.arange(count) + 0.5) * TWO_PI / count
        vals = count * np.fft.ifft(polys * np.exp(0.5j * (TWO_PI / count) * np.arange(n + 1)),
                                   n=count, axis=1)
    else:
        psi = np.asarray(samples, dtype=float)
        vals = _poly_values(polys, np.exp(1j * psi))
    q = np.cos((psi - phi_c) / 2.0) if phi_c is not None else np.ones_like(psi)
    near_node = _node_distance(psi, nodes) < 1e-8
    bad_q = (np.abs(q) < 1e-6) & ~near_node
    skipped = [(float(a), "kernel-singularity") for a in psi[near_node]]
    skipped += [(float(a), "half-degree factor vanishes") for a in psi[bad_q]]
    keep = ~(near_node | bad_q)
    psi, q, vals = psi[keep], q[keep], vals[:, keep]
    rot = mult * np.exp(-0.5j * n * psi)
    s_vals = vals[0].imag / q
    t_vals = (rot * vals[1]).real
    r_vals = (1j * rot * vals[2]).real
    max_sr = float(np.max(np.abs(s_vals - r_vals)) / np.max(np.abs(r_vals))) if len(psi) else 0.0

    # S and T' at the nodes; T'(phi_s) = Re(i M e^{-in phi_s/2} z_s T'(z_s))
    z = np.exp(1j * nodes)
    at_nodes = _poly_values(np.stack([polys[0], np.append(P.polyder(t_poly), 0.0)]), z)
    s_nodes = at_nodes[0].imag
    if phi_c is not None:
        s_nodes = s_nodes / np.cos((nodes - phi_c) / 2.0)
    tprime = (1j * mult * np.exp(-0.5j * n * nodes) * z * at_nodes[1]).real
    recovered = -s_nodes / (2.0 * tprime)
    w_resid = float(np.max(np.abs(rule.weights - recovered)))

    # S(phi + 2pi) = (-1)^n S(phi)
    s_next = np.append(s_nodes[1:], (-1) ** n * s_nodes[0])
    positive = recovered > 0
    sign_case = 1 if np.all(positive) else (-1 if np.all(recovered < 0) else 0)
    return SFunctionTrace(
        psi=psi, s_values=s_vals, r_values=r_vals, t_values=t_vals,
        max_s_minus_r=max_sr, weight_residual=w_resid,
        arc_counts=tuple((s_nodes * s_next < 0).astype(int).tolist()), sign_case=sign_case,
        sign_consistent=bool(np.all(positive)),
        interlacing_violations=int(np.count_nonzero(~positive)),
        skipped=tuple(skipped),
    )


# --- orthogonality of the nodes polynomial ---------------------------------

@dataclass(frozen=True)
class OrthogonalityReport:
    max_violation: float
    n_checked: int              # number of basis functions tested
    class_degree: int           # l in the tested class

    def to_record(self):
        return {"max_violation": float(self.max_violation),
                "n_checked": int(self.n_checked)}


def _class_integrals(nus, co, c, top, gamma2):
    """|(1/2pi) int t(phi) e^{i kappa phi/2} dsigma| for t = sum_j co[j]
    e^{i nu[j] phi/2} and the test modes kappa = +-(2k + gamma2), k = 0..top
    (+0 and -0 once), from one gather of the two-sided moment table:
    (1/2pi) int e^{i r phi} dsigma = conj(c_r) for r >= 0, c_{-r} below."""
    kappa = 2 * np.arange(top + 1) + gamma2
    kappa = np.concatenate([kappa, -kappa[kappa != 0]])
    r = (kappa[:, None] + np.asarray(nus)[None, :]) // 2
    two_sided = np.concatenate([c[:0:-1], np.conj(c)])
    return np.abs(two_sided[r + len(c) - 1] @ co)


def check_orthogonality(rule, c):
    """Verify that the trigonometric nodes polynomial is orthogonal to the
    class matching the rule's exactness: t in T_{l,gamma} with l = n//2 - 1 - m.

    Every integral is a finite combination of the moments c_0..c_n of the
    measure; longer c is cut to that length.
    """
    n, m = rule.n, rule.m
    c = np.asarray(c, dtype=complex)
    if len(c) < n + 1:
        raise ValueError(f"need moments to k={n}, have {len(c) - 1}")
    c = c[: n + 1]
    n_half = n // 2
    gamma2 = n % 2
    l = n_half - 1 - m
    if l < 0:
        return OrthogonalityReport(max_violation=0.0, n_checked=0, class_degree=l)

    nus_t, co_t = _trig_nodes_coeffs(rule.nodes)
    totals = _class_integrals(nus_t, co_t, c, l, gamma2)
    # relative to the size of the integrand: T carries the factor 2^n
    worst = np.max(totals) / (np.sum(np.abs(co_t)) * np.max(np.abs(c)))
    return OrthogonalityReport(max_violation=float(worst), n_checked=len(totals),
                               class_degree=l)


# --- interlacing against lower-level Szego nodes ----------------------------

@dataclass(frozen=True)
class InterlacingReport:
    arc_counts: tuple             # rule nodes in each circular arc between zeros
    violations: int               # arcs containing no rule node

    def to_record(self):
        return {"interlacing_violations": int(self.violations),
                "arcs": len(self.arc_counts)}


def check_interlacing(rule, measure, l, kappa):
    """Every circular arc between consecutive zeros of the level-(n-l)
    para-orthogonal polynomial (parameter kappa) must contain at least one
    rule node; requires m <= l <= n-1. The zeros are where the increasing
    Prufer phase of that level crosses arg(-kappa) mod 2pi, so the phase at
    0 and at the nodes places each node in an arc; arcs are counted from
    the first zero in [0, 2pi).
    """
    n, m = rule.n, rule.m
    if not (m <= l <= n - 1):
        raise ValueError(f"need m <= l <= n-1, got l={l}, m={m}, n={n}")
    level = n - l
    base = measures.verblunsky_prefix(measure, level - 1)
    theta = prufer_phase(base, np.concatenate([[0.0], rule.nodes]))[0]
    turns = (theta - np.angle(-_check_eta(kappa))) / TWO_PI
    # turns[0] is an integer when a zero sits at 0, which then opens arc 0
    arcs = (np.floor(turns[1:]) - np.ceil(turns[0])).astype(int) % level
    counts = np.bincount(arcs, minlength=level)
    return InterlacingReport(arc_counts=tuple(int(v) for v in counts),
                             violations=int(np.count_nonzero(counts == 0)))


# --- weight asymptotics -----------------------------------------------------

@dataclass(frozen=True)
class AsymptoticReport:
    n: int
    m: int
    rule: QuadratureRule         # the rule the deviation was measured on
    inv_n_mu: np.ndarray         # 1/(n mu_s)
    f_values: np.ndarray         # density at the nodes
    g_values: np.ndarray         # finite-n tail factor 1 - (2/n) Re{z q_m*'/q_m*}
    max_deviation: float         # max |1/(n mu_s) - g/f| over the nodes,
                                 # including the O(k/n) Christoffel term

    def to_record(self):
        return {"n": int(self.n), "max_asym_dev": float(self.max_deviation)}


def asymptotic_report(measure, n_list, m=0, tail=(), eta=1.0):
    """Per-n comparison of 1/(n mu_s) against g_n(phi_s)/f(phi_s).

    Every n uses the same m and the same m tail coefficients. The finite-n
    factor g substitutes for the limit the theory assumes. For m = 0, g is
    identically 1, and the finite-n deviation is the measure's own
    Christoffel term: with mu_s = 1 / sum_{j<n} |phi_j(z_s)|^2, a degree-1
    Bernstein-Szego measure gives exactly (1 - 1/f)/n at each node, and a
    degree-k one gives O(k/n). For m > 0 the deviation also holds the
    g_n - g gap.
    """
    if not measures.has_density(measure):
        raise UnsupportedVariantError("asymptotics need a measure with a pointwise density")

    reports = []
    for n in n_list:
        rule = generate_rule(measure, n, m, tail, eta)
        f_vals = np.asarray(measures.density_eval(measure, rule.nodes), dtype=float)
        # g = 1 - (2/n) Re{z q_m*'/q_m*}, and on the circle 2 Re{z q_m*'/q_m*}
        # = m + 1 - theta_beta' for the Prufer phase of q_m's coefficients
        dtheta_q = prufer_phase(qm_recurrence_coeffs(tail, rule.eta), rule.nodes)[1]
        g_vals = 1.0 - (m + 1 - dtheta_q) / n
        inv = 1.0 / (n * rule.weights)
        reports.append(AsymptoticReport(
            n=n, m=m, rule=rule, inv_n_mu=inv, f_values=f_vals, g_values=g_vals,
            max_deviation=float(np.max(np.abs(inv - g_vals / f_vals))),
        ))
    return reports


# --- Szego function ---------------------------------------------------------

def _log_density_fourier(spec, grid_size):
    phis = TWO_PI * np.arange(grid_size) / grid_size
    f = np.asarray(measures.density_eval(spec, phis), dtype=float)
    if np.min(f) <= 0:
        raise LogSingularityError("density touches zero; Szego function undefined")
    lam = np.fft.fft(np.log(f)) / grid_size
    return phis, f, lam


def szego_function(spec, z, grid_size=2048):
    """D(z) = exp(lam_0 / 2 + sum_{k>=1} lam_k z^k) with lam_k the Fourier
    coefficients of log f; satisfies |D(e^{i phi})|^2 = f(phi) up to the grid
    truncation. Defined for |z| <= 1."""
    _, _, lam = _log_density_fourier(spec, grid_size)
    zz = np.asarray(z, dtype=complex)
    if np.any(np.abs(zz) > 1.0 + 1e-12):
        raise ValueError("Szego function is evaluated on the closed unit disk")
    kmax = grid_size // 2 - 1
    acc = np.full(zz.shape, lam[0] / 2.0, dtype=complex)
    zp = np.ones_like(zz)
    for k in range(1, kmax + 1):
        zp = zp * zz
        acc += lam[k] * zp
    out = np.exp(acc)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SzegoFunctionReport:
    density_residual: float      # max | |D(e^{i phi})|^2 - f(phi) | on the grid
    kn_half: tuple               # K_n/2 along the requested n values
    limit: float                 # exp of the mean of log f
    max_trend_gap: float         # |K_n/2 - limit| at the last n
    note: str

    def to_record(self):
        return {"density_residual": float(self.density_residual),
                "kn_half": [float(v) for v in self.kn_half],
                "limit": float(self.limit)}


def szego_report(spec, n_list, grid_size=2048):
    """Grid check of |D|^2 = f plus the trend of K_n/2 toward exp(mean log f).

    The classical statement relates the limit of K_n/2 to the value D(0)^2 =
    exp((1/2pi) int log f); sources quoting 1/D(0) instead are using the
    reciprocal convention, which this report deliberately does not follow.
    """
    phis, f, lam = _log_density_fourier(spec, grid_size)
    dvals = szego_function(spec, np.exp(1j * phis), grid_size=grid_size)
    density_residual = float(np.max(np.abs(np.abs(dvals) ** 2 - f)))
    limit = float(np.exp(lam[0].real))
    kn = []
    for n in n_list:
        alphas = measures.verblunsky_prefix(spec, n)
        kn.append(szego_constant(alphas) / 2.0)
    gap = abs(kn[-1] - limit) if kn else 0.0
    return SzegoFunctionReport(
        density_residual=density_residual, kn_half=tuple(kn), limit=limit,
        max_trend_gap=float(gap),
        note="K_n/2 compared against exp(mean log f) = D(0)^2; reciprocal convention flagged",
    )
