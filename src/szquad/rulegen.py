"""Construction of positive quadrature rules on the unit circle.

A rule with n nodes and degree of exactness n-1-m is generated from a
measure's first n-m-1 recurrence coefficients, m freely chosen "tail"
coefficients inside the unit disk, and a unimodular boundary parameter eta.
The nodes are the zeros of the para-orthogonal polynomial

    T_n(z) = z*Phi~_{n-1}(z) + eta*Phi~*_{n-1}(z),

where Phi~_{n-1} comes from the concatenated coefficient sequence. All
zeros are simple and lie on the unit circle, so they are located by
bisection on the (strictly increasing) argument of the Blaschke quotient

    theta(phi) = arg(q_m/q_m*) + arg(z*Phi_{n-m-1}/Phi*_{n-m-1}),  z = e^{i phi},

whose total increase over a full turn is exactly 2*pi*n. The weights are
the Christoffel numbers of the concatenated sequence at the nodes; the
second-kind, split-form and least-squares formulas here cross-check them.
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
    szego_coeffs,
    szego_constant,
    szego_eval,
)

P = np.polynomial.polynomial

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
    """Unwrapped argument of z*q_m*Phi_{n-m-1} / (q_m**Phi*_{n-m-1}) on |z| = 1.

    Strictly increasing in phi with total increase 2*pi*n over a full turn.
    Built as a breakpoint table with per-interval increments below pi/2 so
    the wrapped argument can be lifted unambiguously anywhere in between.

    Zeros of the numerator close to the circle concentrate almost a full
    turn of phase in an angular window of the order of their distance to
    the circle, which a wrapped increment cannot see (it aliases by 2*pi).
    Subdivision is therefore also driven by the Newton-step gauge
    h = |v|/|v'| of v = z*q_m*Phi, which approximates the distance to the
    nearest zero and decays only linearly, so a spike cannot hide between
    sample points.
    """

    LIFT_MAX = 0.5 * np.pi
    MIN_WIDTH = 1e-12
    GAUGE_SAFETY = 2.0

    def __init__(self, spec):
        self.n = spec.n
        self._base = np.asarray(spec.base, dtype=complex)
        self._beta = qm_recurrence_coeffs(spec.tail, spec.eta)
        self._build_table()

    def wrapped(self, phi):
        """Principal-value argument in (-pi, pi]."""
        z = np.exp(1j * np.asarray(phi, dtype=float))
        eb = szego_eval(self._base, z)
        qb = szego_eval(self._beta, z)
        num = z * qb.phi * eb.phi
        den = qb.phi_star * eb.phi_star
        # arg(num/den) without the division; |den| is bounded away from 0
        return np.angle(num * np.conj(den))

    def _probe(self, phi):
        """Wrapped argument plus the root-distance gauge.

        The gauge is the smaller of the per-factor Newton steps |q|/|q'| and
        |Phi|/|Phi'|; keeping the factors separate avoids cancellation
        between their logarithmic derivatives masking a nearby zero.
        """
        z = np.exp(1j * np.asarray(phi, dtype=float))
        eb = szego_eval(self._base, z, with_derivatives=True)
        qb = szego_eval(self._beta, z, with_derivatives=True)
        num = z * qb.phi * eb.phi
        den = qb.phi_star * eb.phi_star
        w = np.angle(num * np.conj(den))
        with np.errstate(divide="ignore", invalid="ignore"):
            h_q = np.where(np.abs(qb.dphi) > 0, np.abs(qb.phi) / np.abs(qb.dphi), np.inf)
            h_p = np.where(np.abs(eb.dphi) > 0, np.abs(eb.phi) / np.abs(eb.dphi), np.inf)
        return w, np.minimum(h_q, h_p)

    def _build_table(self):
        seeds = max(16, 16 * self.n)
        grid = np.linspace(0.0, TWO_PI, seeds + 1)
        wvals, hvals = self._probe(grid)
        wvals = np.atleast_1d(wvals)
        hvals = np.atleast_1d(hvals)
        phis = [grid[0]]
        thetas = [float(wvals[0])]
        wlist = [float(wvals[0])]
        stack = [(grid[i], float(wvals[i]), float(hvals[i]),
                  grid[i + 1], float(wvals[i + 1]), float(hvals[i + 1]))
                 for i in range(seeds - 1, -1, -1)]
        while stack:
            a, wa, ha, b, wb, hb = stack.pop()
            width = b - a
            delta = (wb - wa) % TWO_PI
            # resolved: increment unambiguous AND no numerator zero close
            # enough to either endpoint to hide a full turn inside
            resolved = delta < self.LIFT_MAX and \
                min(ha, hb) >= self.GAUGE_SAFETY * width
            if resolved or width < self.MIN_WIDTH:
                phis.append(b)
                thetas.append(thetas[-1] + delta)
                wlist.append(wb)
            else:
                mid = 0.5 * (a + b)
                wm, hm = self._probe(mid)
                stack.append((mid, float(wm), float(hm), b, wb, hb))
                stack.append((a, wa, ha, mid, float(wm), float(hm)))
        self.phis = np.array(phis)
        self.thetas = np.array(thetas)
        self._wvals = np.array(wlist)

    @property
    def total_increase(self):
        return float(self.thetas[-1] - self.thetas[0])

    def __call__(self, phi):
        """Unwrapped theta(phi) for phi in [0, 2*pi]."""
        phi = np.asarray(phi, dtype=float)
        scalar = phi.ndim == 0
        idx = np.clip(np.searchsorted(self.phis, np.atleast_1d(phi), side="right") - 1,
                      0, len(self.phis) - 2)
        w = np.atleast_1d(self.wrapped(phi))
        theta = self.thetas[idx] + (w - self._wvals[idx]) % TWO_PI
        return float(theta[0]) if scalar else theta


def _real_form_eval(spec, phi):
    """G(phi) = Re{eta^{-1/2} e^{-i n phi/2} T_n(e^{i phi})} and its phi-derivative.

    G is (up to a constant) the product of sines vanishing exactly at the
    nodes, so Newton steps on G polish bisection output.
    """
    z = np.exp(1j * np.asarray(phi, dtype=float))
    eb = szego_eval(build_modified_sequence(spec), z, with_derivatives=True)
    t_val = z * eb.phi + spec.eta * eb.phi_star
    t_der = eb.phi + z * eb.dphi + spec.eta * eb.dphi_star
    rot = np.exp(-0.5j * np.angle(spec.eta)) * np.exp(-0.5j * spec.n * np.asarray(phi))
    g = (rot * t_val).real
    gp = (rot * 1j * (z * t_der - 0.5 * spec.n * t_val)).real
    return g, gp


def find_nodes(spec, angle_tol=1e-13):
    """Locate the n zeros of the nodes polynomial on the unit circle.

    Targets theta(phi) = arg(eta) + (2k+1)*pi are bracketed on the monotone
    unwrapped phase, bisected to `angle_tol`, and polished by one or two
    Newton steps on the real trigonometric form of T_n.
    """
    pf = PhaseFunction(spec)
    n = spec.n
    if abs(pf.total_increase - TWO_PI * n) > 1e-6:
        raise InternalConsistencyError(
            f"phase winding {pf.total_increase / TWO_PI:.6f} turns, expected {n}; "
            "coefficients may be corrupted or too close to the unit circle"
        )
    theta0 = pf.thetas[0]
    t_base = np.angle(spec.eta) + np.pi
    k0 = int(np.ceil((theta0 - t_base) / TWO_PI - 1e-9))
    targets = t_base + TWO_PI * (k0 + np.arange(n))

    idx = np.clip(np.searchsorted(pf.thetas, targets, side="right") - 1, 0, len(pf.thetas) - 2)
    lo = pf.phis[idx].copy()
    hi = pf.phis[idx + 1].copy()
    wlo = pf._wvals[idx].copy()
    tlo = pf.thetas[idx].copy()
    for _ in range(64):
        if np.max(hi - lo) <= angle_tol:
            break
        mid = 0.5 * (lo + hi)
        wm = np.atleast_1d(pf.wrapped(mid))
        tm = tlo + (wm - wlo) % TWO_PI
        left = tm <= targets
        lo[left] = mid[left]
        wlo[left] = wm[left]
        tlo[left] = tm[left]
        hi[~left] = mid[~left]
    nodes = 0.5 * (lo + hi)

    # Newton polish on the real form; reject steps that leave the bracket scale
    max_step = np.maximum(hi - lo, TWO_PI / (8 * n))
    for _ in range(2):
        g, gp = _real_form_eval(spec, nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(gp != 0, g / gp, 0.0)
        step = np.where(np.abs(step) <= max_step, step, 0.0)
        nodes = nodes - step

    nodes = np.mod(nodes, TWO_PI)
    nodes[nodes >= TWO_PI] = 0.0   # mod of a tiny negative can round up to 2*pi
    nodes = np.sort(nodes)
    gaps = np.diff(np.concatenate([nodes, [nodes[0] + TWO_PI]]))
    if len(nodes) != n or np.min(gaps) <= NODE_GAP:
        raise NodeCountError(f"expected {n} distinct nodes, got gaps down to {np.min(gaps):.3e}")

    eb = szego_eval(build_modified_sequence(spec), np.exp(1j * nodes))
    resid = np.abs(np.exp(1j * nodes) * eb.phi + spec.eta * eb.phi_star)
    if np.max(resid) > 1e-10 * n:
        raise InternalConsistencyError(
            f"nodes polynomial residual {np.max(resid):.3e} exceeds {1e-10 * n:.1e}"
        )
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
