"""Weight formulas, the nodes polynomial in coefficient form, the spec
descriptions of a rule and the S-function zeros by root extraction, kept as
test oracles.

The library computes weights one way (Christoffel numbers) and checks a
rule from its nodes, weights and moments; the routes here stay independent
of that: the split form through q_m, least squares on the moment
conditions, coefficient-level recurrence algebra, the inner factor and the
explicit weight 1/|q_m*|^2 built from the spec without nodes, and np.roots
where the library counts signs.
"""

import warnings

import numpy as np

from szquad import validation
from szquad.errors import PositivityViolationError
from szquad.opuc_core import (
    as_verblunsky,
    moments_from_alphas,
    reversed_poly,
    szego_coeffs,
    szego_constant,
    szego_eval,
)
from szquad.rulegen import build_modified_sequence, build_qm, qm_recurrence_coeffs


P = np.polynomial.polynomial
TWO_PI = 2.0 * np.pi


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


def halves_from_spec(spec):
    """T = prod (z - z_s) and N = -T sum mu_s (z + z_s)/(z - z_s) of the rule,
    built without nodes via the inner factor p:

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


def explicit_weight_orthogonality(spec):
    """Maximal orthogonality of Re{eta^{1/2} z^{-n/2} q_m*(z)} against the
    weight dphi / |q_m*(e^{i phi})|^2, checked through the class T_{n//2-1,gamma}.

    Valid for a Lebesgue base, where Phi*_{n-1-m} = 1 and the weight is the
    normalized measure generated by q_m's own recurrence coefficients.
    """
    n, m = spec.n, spec.m
    beta = qm_recurrence_coeffs(spec.tail, spec.eta)
    q = build_qm(spec.tail, spec.eta)
    qs = reversed_poly(q, m)
    # Re{eta^{1/2} e^{-in phi/2} q*} on the doubled frequency grid
    hq = np.exp(0.5j * np.angle(spec.eta)) * qs / 2.0
    nus = 2 * np.arange(len(qs)) - n
    cq = moments_from_alphas(beta, n)  # normalized moments of the q-measure
    totals = validation._class_integrals(np.concatenate([nus, -nus]),
                                         np.concatenate([hq, np.conj(hq)]),
                                         cq, n // 2 - 1, n % 2)
    return float(np.max(totals, initial=0.0))


class ConditioningWarning(UserWarning):
    """Least-squares weight recovery is ill-conditioned (near-coincident nodes)."""


def nodes_polynomial(spec):
    """Coefficients (ascending) of the monic nodes polynomial T_n."""
    phi, phi_star, _, _ = szego_coeffs(build_modified_sequence(spec))
    return np.concatenate(([0.0 + 0.0j], phi)) + spec.eta * np.pad(phi_star, (0, 1))


def weights_qm_formula(spec, nodes):
    """Weight formula in split form, using only first-kind data and q_m:

        mu_s = -eta * K * z_s^{n-1} |q_m(z_s)|^2
               / [(z q_m Phi - eta q_m* Phi*)(z_s) * (z q_m Phi + eta q_m* Phi*)'(z_s)]

    with Phi = Phi_{n-m-1} and K = 2 prod (1 - |a_j|^2) over the base.
    """
    z = np.exp(1j * np.asarray(nodes, dtype=float))
    base = np.asarray(spec.base, dtype=complex)
    beta = qm_recurrence_coeffs(spec.tail, spec.eta)
    kconst = szego_constant(base)
    eb = szego_eval(base, z, with_derivatives=True)
    qb = szego_eval(beta, z, with_derivatives=True)
    q, qs = qb.phi, qb.phi_star
    dq, dqs = qb.dphi, qb.dphi_star
    f, fs = eb.phi, eb.phi_star
    df, dfs = eb.dphi, eb.dphi_star
    a_val = z * f * q - spec.eta * fs * qs
    b_der = f * q + z * (df * q + f * dq) + spec.eta * (dfs * qs + fs * dqs)
    mu = -spec.eta * kconst * z ** (spec.n - 1) * np.abs(q) ** 2 / (a_val * b_der)
    # measures with near-vanishing density (deep |Phi| valleys) leave
    # rounding dust in the imaginary part proportional to mu
    if np.any(np.abs(mu.imag) > np.maximum(1e-12, 1e-8 * np.abs(mu.real))):
        raise PositivityViolationError(
            f"split-form weight formula: imaginary residue {np.max(np.abs(mu.imag)):.3e}")
    if np.min(mu.real) <= 0:
        raise PositivityViolationError(
            f"split-form weight formula: nonpositive weight {np.min(mu.real):.3e}")
    return mu.real


def weights_vandermonde_oracle(nodes, c, k_max, return_residual=False):
    """Least-squares recovery of weights from the moment conditions
    sum_s mu_s e^{-ik phi_s} = c_k, k = 0..k_max.

    Independent of any recurrence machinery. With k_max = n-1 the system
    determines the weights uniquely, but the moments fed in must then be
    ones the node set can actually match: for a reduced-exactness rule that
    means the moments of its modified coefficient sequence, not of the
    original measure (which the rule only matches through k = n-1-m).
    Warns (ConditioningWarning) when the node system is ill-conditioned.
    """
    nodes = np.asarray(nodes, dtype=float)
    c = np.asarray(c, dtype=complex)
    if k_max > len(c) - 1:
        raise ValueError(f"need moments to k_max={k_max}, have {len(c) - 1}")
    rows = []
    rhs = []
    for k in range(k_max + 1):
        rows.append(np.cos(k * nodes))
        rhs.append(c[k].real)
        if k > 0:
            rows.append(-np.sin(k * nodes))
            rhs.append(c[k].imag)
    a_mat = np.array(rows)
    b_vec = np.array(rhs)
    mu, _, rank, sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    resid = float(np.max(np.abs(a_mat @ mu - b_vec)))
    if rank < min(a_mat.shape) or sv[0] > 1e10 * sv[-1]:
        warnings.warn(
            f"near-coincident nodes: rank {rank}, condition {sv[0] / max(sv[-1], 1e-300):.2e}, "
            f"residual {resid:.2e}",
            ConditioningWarning,
            stacklevel=2,
        )
    if return_residual:
        return mu, resid
    return mu


def trig_zeros_on_circle(nus, coeffs, expected, tol=1e-6):
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


def s_zero_verdict(rule, c):
    """Zero separation of the S-function by root extraction.

    Takes the on-circle zeros of S (for odd n those of q*S, less the one
    nearest the zero of q), counts them in each node arc, and probes
    sgn(S*T) mid-way in the widest gap of nodes and zeros (not the one
    holding the zero of q): the next point counterclockwise must be a node
    exactly when the sign is positive. Returns (violations, sign_consistent,
    arc_counts, zeros).
    """
    nodes, n = rule.nodes, rule.n
    c = np.asarray(c, dtype=complex)
    beta, phi_c = validation._kernel_poly(nodes, validation._nodes_polys(nodes), c)
    # Im(sum_j beta_j z^j) on the doubled frequency grid
    k = len(beta) - 1
    nus = 2 * np.arange(-k, k + 1)
    co = np.concatenate([-np.conj(beta[:0:-1]), [beta[0] - np.conj(beta[0])], beta[1:]]) / 2j
    zeros, count_ok = trig_zeros_on_circle(nus, co, n + n % 2)
    phi_guard = None
    if phi_c is not None:
        phi_guard = np.mod(phi_c + np.pi, TWO_PI)
        if len(zeros):
            zeros = np.delete(zeros, int(np.argmin(_circular_gap(zeros, phi_guard))))

    arc_counts = []
    ext = np.concatenate([nodes, [nodes[0] + TWO_PI]])
    for i in range(n):
        lifted = np.where(zeros < ext[i], zeros + TWO_PI, zeros)
        arc_counts.append(int(np.sum((lifted > ext[i]) & (lifted < ext[i + 1]))))
    violations = sum(1 for cnt in arc_counts if cnt != 1)
    if len(zeros) != n or not count_ok:
        violations += abs(len(zeros) - n) if len(zeros) != n else 1

    points = np.concatenate([nodes, zeros])
    is_node = np.arange(len(points)) < n
    order = np.argsort(points, kind="stable")
    points, is_node = points[order], is_node[order]
    gaps = np.diff(np.concatenate([points, [points[0] + TWO_PI]]))
    if phi_guard is not None:
        gaps = np.where((phi_guard - points) % TWO_PI < gaps, -1.0, gaps)
    g = int(np.argmax(gaps))
    probe = validation.s_function(rule, c, samples=[points[g] + gaps[g] / 2.0])
    sgn = 1 if probe.s_values[0] * probe.t_values[0] > 0 else -1
    node_next = bool(len(zeros) == n and is_node[(g + 1) % len(points)])
    sign_consistent = (sgn > 0) == node_next
    if not sign_consistent:
        violations += 1
    return violations, sign_consistent, tuple(arc_counts), zeros
