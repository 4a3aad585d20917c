"""Construction of positive quadrature rules on the unit circle.

A rule with n nodes and degree of exactness n-1-m is generated from a
measure's first n-m-1 recurrence coefficients, m freely chosen "tail"
coefficients inside the unit disk, and a unimodular boundary parameter eta.
The nodes are the zeros of the para-orthogonal polynomial

    T_n(z) = z*Phi~_{n-1}(z) + eta*Phi~*_{n-1}(z),

where Phi~_{n-1} comes from the concatenated coefficient sequence. All
zeros are simple and lie on the unit circle, where they solve

    theta(phi) = arg(-eta) + 2*pi*j,   theta = arg(z*Phi~_{n-1}/Phi~*_{n-1}),  z = e^{i phi},

for the lifted Prufer phase theta, strictly increasing with total increase
2*pi*n over a full turn. They are found by Prufer phase + safeguarded
Newton: one pass of the Schur map over a 2n+1 grid brackets every node,
and Newton steps on theta, bisecting when a step leaves its bracket,
converge the nodes still active. The weights are the Christoffel numbers
of the concatenated sequence at the nodes; the second-kind, split-form and
least-squares formulas here cross-check them.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    ArityError,
    ConditioningWarning,
    InternalConsistencyError,
    InvalidCoefficientsError,
    NodeCountError,
    PositivityViolationError,
)
from .opuc_core import (
    as_verblunsky,
    christoffel_weights,
    prufer_phase,
    szego_coeffs,
    szego_constant,
    szego_eval,
)

TWO_PI = 2.0 * np.pi

# tails may not come closer to the unit circle than this
TAIL_MARGIN = 1e-8

# minimum angular separation between nodes of a valid rule
NODE_GAP = 1e-10

ETA_TOL = 1e-14


def _check_eta(eta):
    eta = complex(eta)
    if abs(abs(eta) - 1.0) > ETA_TOL:
        raise InvalidCoefficientsError(f"|eta| = {abs(eta):.17g}, must be 1")
    return eta


@dataclass(frozen=True)
class ParaOrthogonalSpec:
    """Recipe for one nodes polynomial: measure prefix, free tail, eta, sizes.

    base holds a_0..a_{n-m-2} (the measure's coefficients), tail holds the m
    free coefficients appended after them.
    """

    base: tuple
    tail: tuple
    eta: complex
    n: int
    m: int

    def __init__(self, base, tail, eta, n, m):
        base = tuple(complex(v) for v in np.atleast_1d(np.asarray(base, dtype=complex))) \
            if np.size(base) else ()
        tail = tuple(complex(v) for v in np.atleast_1d(np.asarray(tail, dtype=complex))) \
            if np.size(tail) else ()
        if not (0 <= m <= n - 1):
            raise ArityError(f"need 0 <= m <= n-1, got n={n}, m={m}")
        if len(tail) != m:
            raise ArityError(f"tail length must equal m: got {len(tail)}, m={m}")
        if len(base) != n - m - 1:
            raise ArityError(f"base length must be n-m-1={n - m - 1}, got {len(base)}")
        if base:
            as_verblunsky(base)
        if any(abs(t) > 1.0 - TAIL_MARGIN for t in tail):
            raise InvalidCoefficientsError(
                f"tail coefficients must satisfy |a| <= {1 - TAIL_MARGIN} to keep nodes separated"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "eta", _check_eta(eta))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))


def build_modified_sequence(spec):
    """Concatenate base and tail: the n-1 coefficients generating Phi~_{n-1}."""
    return np.concatenate([np.asarray(spec.base, dtype=complex),
                           np.asarray(spec.tail, dtype=complex)])


def qm_recurrence_coeffs(tail, eta):
    """Recurrence coefficients of q_m: step j consumes the tail in reverse,
    beta_{j-1} = eta * conj(tail[m-j])."""
    eta = _check_eta(eta)
    tail = np.atleast_1d(np.asarray(tail, dtype=complex)) if np.size(tail) else \
        np.zeros(0, dtype=complex)
    return eta * np.conj(tail[::-1])


def build_qm(tail, eta):
    """Monic q_m built by q_j = z*q_{j-1} - eta*conj(tail[m-j])*q*_{j-1}, q_0 = 1.

    Its zeros lie in the open unit disk, and it satisfies the splitting
    identity z*Phi~_{n-1} + eta*Phi~*_{n-1} = z*q_m*Phi_{n-m-1} + eta*q_m**Phi*_{n-m-1}.
    """
    beta = qm_recurrence_coeffs(tail, eta)
    if beta.size and np.max(np.abs(beta)) > 1.0 - TAIL_MARGIN:
        raise InvalidCoefficientsError("tail coefficients too close to the unit circle")
    return szego_coeffs(beta)[0]


def nodes_polynomial(spec):
    """Coefficients (ascending) of the monic nodes polynomial T_n."""
    phi, phi_star, _, _ = szego_coeffs(build_modified_sequence(spec))
    return np.concatenate(([0.0 + 0.0j], phi)) + spec.eta * np.pad(phi_star, (0, 1))


class PhaseFunction:
    """Lifted Prufer phase theta(phi) of the nodes polynomial on |z| = 1.

    theta is the continuous argument of z*Phi~_{n-1}/Phi~*_{n-1}, strictly
    increasing with theta(phi + 2pi) = theta(phi) + 2pi*n; the nodes solve
    theta(phi) = arg(-eta) + 2pi*j. One `prufer_phase` pass samples it on a
    2n+1 grid, whose seam is rolled to the grid point with the smallest
    theta': `phis` runs over one full turn from there and `thetas` holds
    the phase at those points.
    """

    def __init__(self, spec):
        self.n = spec.n
        self.alphas = build_modified_sequence(spec)
        grid = np.linspace(0.0, TWO_PI, 2 * self.n + 1)
        theta, dtheta, _ = prufer_phase(self.alphas, grid)
        s = int(np.argmin(dtheta[:-1]))
        self.phis = np.concatenate([grid[s:-1], grid[:s + 1] + TWO_PI])
        self.thetas = np.concatenate([theta[s:-1], theta[:s + 1] + TWO_PI * self.n])

    @property
    def total_increase(self):
        return float(self.thetas[-1] - self.thetas[0])

    def __call__(self, phi):
        """Lifted theta(phi) at any real phi."""
        theta = prufer_phase(self.alphas, phi)[0]
        return float(theta) if theta.ndim == 0 else theta


def node_errors(spec, nodes):
    """Estimated angular error of each node and theta' there, from one pass.

    The error is |arg(-B eta^{-1})| / theta', the Newton distance from the
    node to the zero of the wrapped residual.
    """
    _, dtheta, b = prufer_phase(build_modified_sequence(spec), nodes)
    return np.abs(np.angle(-b * np.conj(spec.eta))) / dtheta, dtheta


# a node is accepted within this angle of its zero, by the Newton estimate
NODE_TOL = 1e-12


def _narrow(lo, hi):
    """Brackets in [0, 2pi] at most 4 ulps wide."""
    return hi - lo <= 4 * np.spacing(hi)


def find_nodes(spec):
    """Locate the n zeros of the nodes polynomial on the unit circle.

    Prufer phase plus safeguarded Newton: the 2n+1 grid of `PhaseFunction`
    brackets each target theta = arg(-eta) + 2pi*j, and Newton steps
    phi <- phi - f/theta' run on the unconverged nodes only, bisecting
    whenever a step leaves the bracket. The residual f is theta - target
    until it is below pi/2, then the wrapped arg(-B eta^{-1}), which carries
    no rounding from the lifted n*phi.
    """
    n = spec.n
    eta = spec.eta
    pf = PhaseFunction(spec)
    t0 = float(np.angle(-eta))
    k0 = np.ceil((pf.thetas[0] - t0) / TWO_PI)
    targets = t0 + TWO_PI * (k0 + np.arange(n))
    idx = np.clip(np.searchsorted(pf.thetas, targets, side="right") - 1, 0, len(pf.phis) - 2)
    lo, hi = pf.phis[idx], pf.phis[idx + 1]
    th_lo, th_hi = pf.thetas[idx], pf.thetas[idx + 1]
    phi = lo + (hi - lo) * np.clip((targets - th_lo) / (th_hi - th_lo), 0.0, 1.0)
    # solve past the seam one turn back, in [0, 2pi), where angles carry more bits
    past = lo >= TWO_PI
    lo[past] -= TWO_PI
    hi[past] -= TWO_PI
    phi[past] -= TWO_PI
    targets[past] -= TWO_PI * n

    active = np.arange(n)
    # bisection alone takes about 55 passes from width pi/n down to 4 ulps
    for _ in range(200):
        if active.size == 0:
            break
        p = phi[active]
        theta, dtheta, b = prufer_phase(pf.alphas, p)
        lifted = theta - targets[active]
        engaged = np.abs(lifted) < 0.5 * np.pi
        f = np.where(engaged, np.angle(-b * np.conj(eta)), lifted)
        left = np.where(f < 0, p, lo[active])
        right = np.where(f > 0, p, hi[active])
        step = f / dtheta
        newton = p - step
        settled = engaged & (np.abs(step) <= 64 * np.finfo(float).eps * np.maximum(1.0, p))
        inside = (newton > left) & (newton < right)
        phi[active] = np.where(settled, np.clip(newton, left, right),
                               np.where(inside, newton, 0.5 * (left + right)))
        lo[active], hi[active] = left, right
        active = active[~(settled | _narrow(left, right))]

    # a bracket holds a sign change of the residual by construction
    err, dtheta = node_errors(spec, phi)
    bad = np.flatnonzero((err > NODE_TOL) & ~_narrow(lo, hi))
    if bad.size:
        j = int(bad[np.argmax(err[bad])])
        raise InternalConsistencyError(
            f"node {j} at {phi[j]:.17g} rad: estimated error {err[j]:.3e} rad exceeds "
            f"{NODE_TOL:.0e}, theta' = {dtheta[j]:.3e}"
        )

    nodes = np.mod(phi, TWO_PI)
    nodes[nodes >= TWO_PI] = 0.0   # mod of a tiny negative can round up to 2*pi
    nodes = np.sort(nodes)
    gaps = np.diff(np.concatenate([nodes, [nodes[0] + TWO_PI]]))
    if np.min(gaps) <= NODE_GAP:
        raise NodeCountError(f"expected {n} distinct nodes, got gaps down to {np.min(gaps):.3e}")
    return nodes


def _real_positive(mu, what, rel_imag=0.0):
    mu = np.asarray(mu)
    # rel_imag loosens the check per weight: measures with near-vanishing
    # density (deep |Phi| valleys) leave rounding dust proportional to mu
    tol = np.maximum(1e-12, rel_imag * np.abs(mu.real))
    if np.any(np.abs(mu.imag) > tol):
        raise PositivityViolationError(
            f"{what}: imaginary residue {np.max(np.abs(mu.imag)):.3e} beyond tolerance"
        )
    out = mu.real
    if np.min(out) <= 0:
        raise PositivityViolationError(f"{what}: nonpositive weight {np.min(out):.3e}")
    return out


def weights_second_kind(spec, nodes):
    """mu_s = (z*Psi~ - eta*Psi~*)(z_s) / (2 z_s (z*Phi~ + eta*Phi~*)'(z_s)),
    with Psi~ the first-kind polynomial of the negated sequence."""
    z = np.exp(1j * np.asarray(nodes, dtype=float))
    modified = build_modified_sequence(spec)
    eb = szego_eval(modified, z, with_derivatives=True)
    sb = szego_eval(-modified, z)
    num = z * sb.phi - spec.eta * sb.phi_star
    den = eb.phi + z * eb.dphi + spec.eta * eb.dphi_star
    return _real_positive(num / (2.0 * z * den), "second-kind weight formula")


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
    return _real_positive(mu, "split-form weight formula", rel_imag=1e-8)


def weights_vandermonde_oracle(nodes, c, k_max, return_residual=False):
    """Least-squares recovery of weights from the moment conditions
    sum_s mu_s e^{-ik phi_s} = c_k, k = 0..k_max.

    Independent of any recurrence machinery; used to cross-check the
    analytic formulas. With k_max = n-1 the system determines the weights
    uniquely, but the moments fed in must then be ones the node set can
    actually match: for a reduced-exactness rule that means the moments of
    its modified coefficient sequence, not of the original measure (which
    the rule only matches through k = n-1-m). Warns (ConditioningWarning)
    when the node system is ill-conditioned.
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


@dataclass(frozen=True)
class QuadratureRule:
    """Sorted node angles in [0, 2*pi), positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    n: int
    m: int
    eta: complex
    measure_id: str = ""

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "eta", _check_eta(self.eta))
        if len(nodes) != self.n or len(weights) != self.n:
            raise NodeCountError(f"rule size mismatch: {len(nodes)} nodes for n={self.n}")
        if np.any(nodes < 0) or np.any(nodes >= TWO_PI):
            raise NodeCountError("node angles must lie in [0, 2*pi)")
        gaps = np.diff(np.concatenate([nodes, [nodes[0] + TWO_PI]]))
        if self.n > 0 and (np.any(np.diff(nodes) <= 0) or np.min(gaps) <= NODE_GAP):
            raise NodeCountError("nodes must be strictly increasing with circular separation")
        if np.min(weights) <= 0:
            raise PositivityViolationError(f"weight {np.min(weights):.3e} is not positive")
        if abs(np.sum(weights) - 1.0) > 1e-12:
            raise PositivityViolationError(
                f"weights sum to {np.sum(weights):.17g}, expected 1 within 1e-12"
            )

    def moments(self, k_max):
        """Discrete moments sum_s mu_s e^{-ik phi_s}, k = 0..k_max."""
        k = np.arange(k_max + 1)
        return np.exp(-1j * np.outer(k, self.nodes)) @ self.weights

    def to_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "eta": [self.eta.real, self.eta.imag],
            "nodes": [float(v) for v in self.nodes],
            "weights": [float(v) for v in self.weights],
            "measure_id": self.measure_id,
        }

    @classmethod
    def from_dict(cls, data):
        eta = data["eta"]
        if isinstance(eta, (list, tuple)):
            eta = complex(eta[0], eta[1])
        else:
            eta = complex(eta)
        return cls(
            nodes=np.asarray(data["nodes"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            n=int(data["n"]),
            m=int(data["m"]),
            eta=eta,
            measure_id=data.get("measure_id", ""),
        )


def eta_for_node_at(base, tail, n, m, phi0):
    """Boundary parameter forcing a node at phi0:
    eta = -z0 * Phi~_{n-1}(z0) / Phi~*_{n-1}(z0), z0 = e^{i phi0}."""
    modified = np.concatenate([np.asarray(base, dtype=complex),
                               np.asarray(tail, dtype=complex)])
    z0 = np.exp(1j * float(phi0))
    eb = szego_eval(modified, z0)
    eta = -z0 * eb.phi / eb.phi_star
    return eta / abs(eta)


def generate_rule(measure, n, m, tail=(), eta=1.0, node_at=None):
    """Build the positive rule for a measure: n nodes, exactness n-1-m.

    `tail` supplies the m free coefficients; `eta` is the boundary parameter,
    or pass node_at=phi0 to pin a node at a chosen angle instead.
    """
    if not (0 <= m <= n - 1):
        raise ArityError(f"need 0 <= m <= n-1, got n={n}, m={m}")
    base = measures.verblunsky_prefix(measure, n - m - 1)
    if node_at is not None:
        eta = eta_for_node_at(base, np.asarray(tail, dtype=complex), n, m, node_at)
    spec = ParaOrthogonalSpec(base, tail, eta, n, m)
    nodes = find_nodes(spec)
    weights = christoffel_weights(build_modified_sequence(spec), np.exp(1j * nodes))
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-12:
        raise PositivityViolationError(f"weights sum to {total:.17g}")
    # kill the last few ulps so the rule invariant holds exactly enough
    weights = weights / total
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        n=n,
        m=m,
        eta=spec.eta,
        measure_id=measures.measure_id(measure),
    )


def spec_for_rule(measure, n, m, tail=(), eta=1.0):
    """ParaOrthogonalSpec from a measure without running the node finder."""
    base = measures.verblunsky_prefix(measure, n - m - 1)
    return ParaOrthogonalSpec(base, tail, eta, n, m)
