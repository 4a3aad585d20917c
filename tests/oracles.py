"""Weight formulas and the nodes polynomial in coefficient form, kept as
test oracles.

The library computes weights one way (Christoffel numbers) and never
expands the nodes polynomial; the routes here stay independent of that:
the split form through q_m, least squares on the moment conditions, and
coefficient-level recurrence algebra.
"""

import warnings

import numpy as np

from szquad.errors import PositivityViolationError
from szquad.opuc_core import szego_coeffs, szego_constant, szego_eval
from szquad.rulegen import build_modified_sequence, qm_recurrence_coeffs


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
