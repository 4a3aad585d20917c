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

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    DegenerateSpecError,
    LogSingularityError,
    UnsupportedVariantError,
    ZerosNotInDiskError,
)
from .opuc_core import (
    inverse_szego,
    moments_from_alphas,
    prufer_phase,
    reversed_poly,
    szego_coeffs,
    szego_constant,
    szego_eval,
)
from .rulegen import (
    QuadratureRule,
    _check_eta,
    build_qm,
    find_nodes,
    generate_rule,
    qm_recurrence_coeffs,
)

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


def _nodes_polys(nodes, weights=None):
    """Coefficients (ascending) of T = prod (z - z_s) and, with weights, of
    N = -T sum mu_s (z + z_s)/(z - z_s), z_s = e^{i phi_s}: the FFT of their
    values at the n+1 roots of unity turned by rho to the middle of the
    widest gap of the nodes mod 2pi/(n+1), so that no point meets a node."""
    n = len(nodes)
    h = TWO_PI / (n + 1)
    r = np.sort(np.mod(nodes, h))
    gaps = np.diff(np.append(r, r[0] + h))
    g = int(np.argmax(gaps))
    rho = r[g] + gaps[g] / 2.0
    w = np.exp(1j * (rho + h * np.arange(n + 1)))[:, None]
    z = np.exp(1j * nodes)
    t_vals = np.prod(w - z, axis=1)
    unrotate = np.exp(-1j * rho * np.arange(n + 1)) / (n + 1)
    t_poly = np.fft.fft(t_vals) * unrotate
    if weights is None:
        return t_poly
    herglotz = ((w + z) / (w - z)) @ weights
    return t_poly, np.fft.fft(-t_vals * herglotz) * unrotate


def _halves_from_spec(spec):
    """Same two polynomials built without nodes, via the inner factor p:

        2 z p = z q_m (Phi + Psi) + eta q_m* (Phi* - Psi*),
        T = z p + eta p*,   N = eta p* - z p,

    with Phi, Psi of order n-m-1 from the base coefficients.
    """
    q = build_qm(spec.tail, spec.eta)
    qs = reversed_poly(q, spec.m)
    phi, phi_star, psi, psi_star = szego_coeffs(np.asarray(spec.base, dtype=complex))
    first = P.polymul(q, phi + psi)
    diff = phi_star - psi_star            # constant term is exactly zero
    second = P.polymul(qs, diff[1:]) if len(diff) > 1 else np.zeros(1, dtype=complex)
    terms = [first, spec.eta * second]
    size = max(len(t) for t in terms)
    p = sum(np.pad(t, (0, size - len(t))) for t in terms) / 2.0
    p = np.trim_zeros(p, "b")
    ps = reversed_poly(p, spec.n - 1)
    zp = np.concatenate(([0.0 + 0.0j], p))
    t_poly = zp + np.pad(spec.eta * ps, (0, len(zp) - len(ps)))
    n_poly = np.pad(spec.eta * ps, (0, len(zp) - len(ps))) - zp
    return t_poly, n_poly


def caratheodory_match(rule_or_spec, c):
    """Check the series condition of the inner-factor description:

    (eta p* - z p)/(eta p* + z p) must reproduce 1 + 2 sum c_k z^k through
    order n-m-1, and p must have all zeros in the open unit disk.
    """
    obj = rule_or_spec
    if isinstance(obj, QuadratureRule):
        t_poly, n_poly = _nodes_polys(obj.nodes, obj.weights)
    else:
        t_poly, n_poly = _halves_from_spec(obj)
    n, m = obj.n, obj.m
    order = n - m - 1
    c = np.asarray(c, dtype=complex)
    if len(c) < order + 1:
        raise ValueError(f"need moments to k={order}, have {len(c) - 1}")
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

def _trig_nodes_coeffs(nodes):
    """Coefficients of T(phi) = prod_s sin((phi - phi_s)/2) on the doubled
    frequency grid: returns (nu, co) with T = sum_j co[j] e^{i (nu[j]/2) phi},
    nu integer (odd entries appear when the node count is odd)."""
    nodes = np.asarray(nodes, dtype=float)
    nn = len(nodes)
    pref = (2.0j) ** (-nn) * np.exp(-0.5j * np.sum(nodes))
    nus = 2 * np.arange(nn + 1) - nn
    return nus, pref * _nodes_polys(nodes)


def _trig_eval(nus, coeffs, psi):
    psi = np.asarray(psi, dtype=float)
    acc = np.zeros(psi.shape, dtype=complex)
    for nu, co in zip(nus, coeffs):
        acc += co * np.exp(0.5j * nu * psi)
    return acc


def _kernel_transform(nus, coeffs, c):
    """Apply the cotangent-difference kernel modewise. Input frequencies must
    be integers (even nu); output is again on the doubled grid."""
    if np.any(np.asarray(nus) % 2 != 0):
        raise ValueError("kernel transform needs integer frequencies")
    acc = {}

    def add(nu, val):
        acc[nu] = acc.get(nu, 0.0 + 0.0j) + val

    for nu, t in zip(nus, coeffs):
        k = int(nu) // 2
        if k == 0:
            continue
        if k > 0:
            add(0, t * (-1j) * np.conj(c[k]))
            add(2 * k, t * (-1j))
            for l in range(1, k):
                add(2 * (k - l), t * (-2j) * np.conj(c[l]))
        else:
            kk = -k
            add(0, t * 1j * c[kk])
            add(-2 * kk, t * 1j)
            for l in range(1, kk):
                add(-2 * (kk - l), t * 2j * c[l])
    nus_out = np.array(sorted(acc))
    return nus_out, np.array([acc[v] for v in nus_out])


def _trig_zeros_on_circle(nus, coeffs, expected, tol=1e-6):
    """Angles of the on-circle zeros of an integer-frequency trig polynomial."""
    kmax = int(np.max(np.abs(nus))) // 2
    dense = np.zeros(2 * kmax + 1, dtype=complex)
    for nu, co in zip(nus, coeffs):
        dense[int(nu) // 2 + kmax] = co
    roots = np.roots(dense[::-1])
    on = roots[np.abs(np.abs(roots) - 1.0) < tol]
    angles = np.sort(np.mod(np.angle(on), TWO_PI))
    return angles, len(on) == expected


def _circular_gap(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + np.pi) % TWO_PI - np.pi)


def _nodes_poly_derivative(nodes):
    """T'(phi_s) = (1/2) prod_{t != s} sin((phi_s - phi_t)/2)."""
    out = np.empty(len(nodes))
    for i, p in enumerate(nodes):
        others = np.delete(nodes, i)
        out[i] = 0.5 * np.prod(np.sin((p - others) / 2.0))
    return out


@dataclass(frozen=True)
class SFunctionTrace:
    psi: np.ndarray             # retained sample angles
    s_values: np.ndarray        # kernel-transform values S(psi)
    r_values: np.ndarray        # rational-expansion values R(psi)
    t_values: np.ndarray        # nodes polynomial T(psi)
    max_s_minus_r: float        # max|S - R| / max|R| over psi
    weight_residual: float      # max_s |mu_s + S(phi_s)/(2 T'(phi_s))|
    s_zeros: np.ndarray
    arc_counts: tuple           # S-zeros per circular node arc (all should be 1)
    sign_case: int              # sgn(S*T) mid-way in the widest gap of nodes and zeros
    sign_consistent: bool       # the next point counterclockwise matches the sign case
    interlacing_violations: int
    skipped: tuple              # (angle, reason) pairs for dropped samples

    def to_record(self):
        return {
            "max_s_minus_r": float(self.max_s_minus_r),
            "weight_residual": float(self.weight_residual),
            "interlacing_violations": int(self.interlacing_violations),
            "sign_case": int(self.sign_case),
        }


def s_function(rule, measure, samples=None):
    """Cross-check the kernel-transform polynomial S against the rational
    expansion R built from the weights, recover the weights from S, and
    verify that the zeros of S separate the nodes.

    Requires the rule to be exact at least on the half-degree class
    (n - 1 - m >= n//2 + (n mod 2)); below that the construction has no
    meaning and a ValueError is raised.
    """
    n, m = rule.n, rule.m
    n_half = n // 2
    gamma2 = n % 2
    if n - 1 - m < n_half + gamma2:
        raise ValueError(
            f"S-function needs exactness degree >= {n_half + gamma2}, rule has {n - 1 - m}"
        )
    nodes = rule.nodes
    c = measures.moments(measure, n)

    nus_t, co_t = _trig_nodes_coeffs(nodes)
    if gamma2 == 0:
        nus_s, co_s = _kernel_transform(nus_t, co_t, c)
        q_of = None
        phi_guard = None
    else:
        # odd node count: multiply by a positive half-degree factor q,
        # transform q*T (integer frequencies), and divide q back out
        gaps = np.diff(np.concatenate([nodes, [nodes[0] + TWO_PI]]))
        gi = int(np.argmax(gaps))
        phi_guard = float(np.mod(nodes[gi] + gaps[gi] / 2.0, TWO_PI))
        phi_c = float(np.mod(phi_guard + np.pi, TWO_PI))
        acc = {}
        for nu_q, co_q in ((-1, np.exp(0.5j * phi_c) / 2.0), (1, np.exp(-0.5j * phi_c) / 2.0)):
            for nu, co in zip(nus_t, co_t):
                key = int(nu) + nu_q
                acc[key] = acc.get(key, 0.0 + 0.0j) + co * co_q
        nus_qt = np.array(sorted(acc))
        co_qt = np.array([acc[v] for v in nus_qt])
        nus_s, co_s = _kernel_transform(nus_qt, co_qt, c)
        q_of = lambda psi: np.cos((np.asarray(psi, dtype=float) - phi_c) / 2.0)

    def s_eval(psi):
        vals = _trig_eval(nus_s, co_s, psi).real
        return vals / q_of(psi) if q_of is not None else vals

    def t_eval(psi):
        return _trig_eval(nus_t, co_t, psi).real

    if samples is None:
        count = 8 * n
        samples = (np.arange(count) + 0.5) * TWO_PI / count
    samples = np.asarray(samples, dtype=float)

    skipped = []
    keep = np.ones(len(samples), dtype=bool)
    near_node = np.min(_circular_gap(samples[:, None], nodes[None, :]), axis=1) < 1e-8
    for ang in samples[near_node]:
        skipped.append((float(ang), "kernel-singularity"))
    keep &= ~near_node
    if q_of is not None:
        bad_q = np.abs(q_of(samples)) < 1e-6
        for ang in samples[bad_q & keep]:
            skipped.append((float(ang), "half-degree factor vanishes"))
        keep &= ~bad_q
    psi = samples[keep]

    s_vals = s_eval(psi)
    z = np.exp(1j * psi)
    herglotz = np.zeros(len(psi), dtype=complex)
    for p, w in zip(nodes, rule.weights):
        zp = np.exp(1j * p)
        herglotz += w * (z + zp) / (z - zp)
    t_vals = t_eval(psi)
    r_vals = (-1j * t_vals * herglotz).real
    # relative to the largest |R|: T and S carry the factor (2i)^-n of
    # _trig_nodes_coeffs, which would make an absolute difference vanish
    max_sr = float(np.max(np.abs(s_vals - r_vals)) / np.max(np.abs(r_vals))) if len(psi) else 0.0

    tprime = _nodes_poly_derivative(nodes)
    w_resid = float(np.max(np.abs(rule.weights + s_eval(nodes) / (2.0 * tprime))))

    expected = n + gamma2
    zeros, count_ok = _trig_zeros_on_circle(nus_s, co_s, expected)
    if gamma2 == 1 and len(zeros):
        drop = int(np.argmin(_circular_gap(zeros, phi_guard)))
        zeros = np.delete(zeros, drop)

    arc_counts = []
    ext = np.concatenate([nodes, [nodes[0] + TWO_PI]])
    for i in range(n):
        lo, hi = ext[i], ext[i + 1]
        lifted = np.where(zeros < lo, zeros + TWO_PI, zeros)
        arc_counts.append(int(np.sum((lifted > lo) & (lifted < hi))))
    violations = sum(1 for cnt in arc_counts if cnt != 1)
    if len(zeros) != n or not count_ok:
        violations += abs(len(zeros) - n) if len(zeros) != n else 1

    # S*T is periodic; probe the widest circular gap of nodes and zeros (not
    # the one holding the guard angle, where the half-degree factor vanishes)
    # and read which kind of point comes next counterclockwise
    points = np.concatenate([nodes, zeros])
    is_node = np.arange(len(points)) < n
    order = np.argsort(points, kind="stable")
    points, is_node = points[order], is_node[order]
    gaps = np.diff(np.concatenate([points, [points[0] + TWO_PI]]))
    if phi_guard is not None:
        gaps = np.where((phi_guard - points) % TWO_PI < gaps, -1.0, gaps)
    g = int(np.argmax(gaps))
    probe = points[g] + gaps[g] / 2.0
    sgn = 1 if s_eval(np.array([probe]))[0] * t_eval(np.array([probe]))[0] > 0 else -1
    node_next = bool(len(zeros) == n and is_node[(g + 1) % len(points)])
    sign_consistent = (sgn > 0) == node_next
    if not sign_consistent:
        violations += 1

    return SFunctionTrace(
        psi=psi, s_values=s_vals, r_values=r_vals, t_values=t_vals,
        max_s_minus_r=max_sr, weight_residual=w_resid,
        s_zeros=zeros, arc_counts=tuple(arc_counts), sign_case=sgn,
        sign_consistent=sign_consistent, interlacing_violations=int(violations),
        skipped=tuple(skipped),
    )


# --- orthogonality of the nodes polynomial ---------------------------------

@dataclass(frozen=True)
class OrthogonalityReport:
    max_violation: float
    n_checked: int              # number of basis functions tested
    class_degree: int           # l in the tested class
    explicit_weight_violation: float = math.nan  # 1/|q* Phi*|^2 route (Lebesgue base only)

    def to_record(self):
        rec = {"max_violation": float(self.max_violation),
               "n_checked": int(self.n_checked)}
        if not math.isnan(self.explicit_weight_violation):
            rec["explicit_weight_violation"] = float(self.explicit_weight_violation)
        return rec


def _moment_value(c, r):
    """(1/2pi) int e^{i r phi} dsigma = conj(c_r) for r >= 0, c_{-r} below."""
    r = int(r)
    return np.conj(c[r]) if r >= 0 else c[-r]


def check_orthogonality(rule_or_spec, measure):
    """Verify that the trigonometric nodes polynomial is orthogonal to the
    class matching the rule's exactness: t in T_{l,gamma} with l = n//2 - 1 - m.

    Every integral is a finite combination of moments. When called with a
    ParaOrthogonalSpec over the Lebesgue measure, additionally checks the
    maximal-orthogonality statement against the explicit weight
    1/|q_m* Phi*_{n-1-m}|^2 (which is then 1/|q_m*|^2).
    """
    spec = None
    if isinstance(rule_or_spec, QuadratureRule):
        rule = rule_or_spec
        nodes, n, m = rule.nodes, rule.n, rule.m
    else:
        spec = rule_or_spec
        nodes = find_nodes(spec)
        n, m = spec.n, spec.m
    n_half = n // 2
    gamma2 = n % 2
    l = n_half - 1 - m
    if l < 0:
        return OrthogonalityReport(max_violation=0.0, n_checked=0, class_degree=l)

    c = measures.moments(measure, n)
    nus_t, co_t = _trig_nodes_coeffs(nodes)
    worst = 0.0
    checked = 0
    for k in range(l + 1):
        for sign in (1, -1):
            kappa2 = sign * (2 * k + gamma2)   # doubled frequency of the test mode
            total = 0.0 + 0.0j
            for nu, co in zip(nus_t, co_t):
                total += co * _moment_value(c, (kappa2 + int(nu)) // 2)
            worst = max(worst, abs(total))
            checked += 1
            if kappa2 == 0:
                break   # +0 and -0 are the same mode

    explicit = math.nan
    if spec is not None and isinstance(measure, measures.Lebesgue):
        explicit = _explicit_weight_orthogonality(spec)
    return OrthogonalityReport(max_violation=float(worst), n_checked=checked,
                               class_degree=l, explicit_weight_violation=explicit)


def _explicit_weight_orthogonality(spec):
    """Maximal orthogonality of Re{eta^{1/2} z^{-n/2} q_m*(z)} against the
    weight dphi / |q_m*(e^{i phi})|^2, checked through the class T_{n//2-1,gamma}.

    Valid for a Lebesgue base, where Phi*_{n-1-m} = 1 and the weight is the
    normalized measure generated by q_m's own recurrence coefficients.
    """
    n, m = spec.n, spec.m
    beta = qm_recurrence_coeffs(spec.tail, spec.eta)
    q = build_qm(spec.tail, spec.eta)
    qs = reversed_poly(q, m)
    half_eta = np.exp(0.5j * np.angle(spec.eta))
    # Re{half_eta e^{-in phi/2} q*} on the doubled frequency grid
    modes = {}
    for j, coef in enumerate(qs):
        nu = 2 * j - n
        modes[nu] = modes.get(nu, 0.0 + 0.0j) + half_eta * coef / 2.0
        modes[-nu] = modes.get(-nu, 0.0 + 0.0j) + np.conj(half_eta * coef) / 2.0
    cq = moments_from_alphas(beta, n)  # normalized moments of the q-measure
    n_half = n // 2
    gamma2 = n % 2
    worst = 0.0
    for k in range(n_half):
        for sign in (1, -1):
            kappa2 = sign * (2 * k + gamma2)
            total = 0.0 + 0.0j
            for nu, coef in modes.items():
                total += coef * _moment_value(cq, (kappa2 + nu) // 2)
            worst = max(worst, abs(total))
            if kappa2 == 0:
                break
    return float(worst)


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
        z = np.exp(1j * rule.nodes)
        f_vals = np.asarray(measures.density_eval(measure, rule.nodes), dtype=float)
        beta = qm_recurrence_coeffs(tail, rule.eta)
        qb = szego_eval(beta, z, with_derivatives=True)
        g_vals = 1.0 - (2.0 / n) * (z * qb.dphi_star / qb.phi_star).real
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
