"""Construction of positive quadrature rules on the unit circle.

A rule with n nodes and degree of exactness n-1-m is generated from a
measure's first n-m-1 recurrence coefficients, m freely chosen "tail"
coefficients inside the unit disk, and a unimodular boundary parameter eta.
The nodes are the zeros of the para-orthogonal polynomial

    T_n(z) = z*Phi~_{n-1}(z) + eta*Phi~*_{n-1}(z),

where Phi~_{n-1} comes from the concatenated coefficient sequence. It
splits as z*q_m*Phi_{n-m-1} + eta*q_m^* Phi^*_{n-m-1}, with Phi_{n-m-1}
from the measure's coefficients and the inner factor q_m from
beta = qm_recurrence_coeffs(tail, eta). All zeros are simple and lie on
the unit circle, where they solve

    Theta(phi) = theta_base + theta_beta - phi = arg(-eta) + 2*pi*j,   z = e^{i phi},

for the lifted Prufer phases theta_base of z*Phi_{n-m-1}/Phi^*_{n-m-1}
and theta_beta of z*q_m/q_m^*: Theta is strictly increasing with total
increase 2*pi*n over a full turn (see `PhaseFunction` for why the finder
solves this split phase rather than that of the concatenated sequence).
They are found by Prufer phase + safeguarded Newton: one pass of the
Schur map over a 2n+1 grid brackets every node, and Newton steps on
Theta, bisecting when a step leaves its bracket, converge the nodes still
active, all of them in one pass. A pass over N coefficients costs about
N*(4.3 us + 17 ns*points), so a node that Newton had to bisect probes its
whole bracket in the next pass, within a budget of PROBE_BUDGET points
per pass, and gains several bits per pass instead of one bisection step.
A last pass checks the nodes on the concatenated sequence itself and
gives the weights, its Christoffel numbers at the nodes,
prod_k r_k / theta', positive by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    ArityError,
    InternalConsistencyError,
    InvalidCoefficientsError,
    NodeCountError,
    PositivityViolationError,
)
from .opuc_core import (
    as_verblunsky,
    blocked_powers,
    prufer_phase,
    szego_coeffs,
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
        base = tuple(np.asarray(base, dtype=complex).reshape(-1).tolist())
        tail = tuple(np.asarray(tail, dtype=complex).reshape(-1).tolist())
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


class PhaseFunction:
    """Lifted phase Theta(phi) of the nodes polynomial on |z| = 1, split at q_m.

    T_n = z*q_m*Phi_{n-m-1} + eta*q_m^* Phi^*_{n-m-1} vanishes on the circle
    where B_base * B_beta / z = -eta, with B_base = z*Phi_{n-m-1}/Phi^*_{n-m-1}
    from the measure's coefficients `base` and B_beta = z*q_m/q_m^* from
    beta = qm_recurrence_coeffs(tail, eta). So the nodes solve

        Theta(phi) = theta_base + theta_beta - phi = arg(-eta) + 2pi*j

    for the two lifted Prufer phases, with Theta' = theta_base' +
    theta_beta' - 1 >= 1 and total increase 2pi*n. The tail coefficients,
    at the end of the concatenated sequence, make its phase swing at the
    scale of the node spacing; Theta keeps them apart in the short q_m
    phase, so Newton converges in fewer passes. With m = 0 beta is empty
    and Theta is the phase of the base sequence alone.

    One pass samples Theta on a 2n+1 grid, whose seam is rolled to the
    grid point with the smallest Theta': `phis` runs over one full turn
    from there and `thetas` holds the phase at those points.
    """

    def __init__(self, spec):
        self.n = spec.n
        self.base = np.asarray(spec.base, dtype=complex)
        self.beta = qm_recurrence_coeffs(spec.tail, spec.eta)
        grid = np.linspace(0.0, TWO_PI, 2 * self.n + 1)
        theta, dtheta, _ = self.phase(grid)
        s = int(np.argmin(dtheta[:-1]))
        self.phis = np.concatenate([grid[s:-1], grid[:s + 1] + TWO_PI])
        self.thetas = np.concatenate([theta[s:-1], theta[:s + 1] + TWO_PI * self.n])

    def phase(self, phi):
        """(Theta, Theta', B) at the angles phi, with B = B_base * B_beta / z
        the unimodular number whose argument Theta lifts: one `prufer_phase`
        pass over base, and one over beta if m > 0."""
        theta, dtheta, b, _ = prufer_phase(self.base, phi)
        if self.beta.size:
            theta_q, dtheta_q, b_q, _ = prufer_phase(self.beta, phi)
            theta = theta + theta_q - phi
            dtheta = dtheta + dtheta_q - 1.0
            b = b * b_q * np.exp(-1j * phi)
        return theta, dtheta, b


def node_errors(spec, nodes):
    """Estimated angular error of each node, theta' there and the Christoffel
    numbers there, from one pass.

    The error is |arg(-B eta^{-1})| / theta', the Newton distance from the
    node to the zero of the wrapped residual.
    """
    _, dtheta, b, mu = prufer_phase(build_modified_sequence(spec), nodes)
    return np.abs(np.angle(-b * np.conj(spec.eta))) / dtheta, dtheta, mu


# a node is accepted within this angle of its zero, by the Newton estimate
NODE_TOL = 1e-12

# points per find_nodes pass while some node probes its bracket: a pass over
# N coefficients costs about N*(4.3 us + 17 ns*points), so 256 points cost
# less than twice one point
PROBE_BUDGET = 256

# most points one node probes its bracket with in a pass
PROBE_POINTS = 64


def _narrow(lo, hi):
    """Brackets in [0, 2pi] at most 4 ulps wide."""
    return hi - lo <= 4 * np.spacing(hi)


def _float_order(x):
    """An integer that orders doubles as their values do (0.0 and -0.0 alike)."""
    k = int(np.float64(x).view(np.int64))
    return k if k >= 0 else -(k & (2 ** 63 - 1))


def _from_float_order(k):
    value = float(np.int64(abs(k)).view(np.float64))
    return value if k >= 0 else -value


def _pin_between(spec, lo, hi):
    """A node_at angle for the pair of near-coincident nodes at lo <= hi.

    Between two nodes the phase theta of the concatenated sequence rises by
    2pi; where it is congruent to arg(eta), halfway, the boundary parameter
    that pins a node is -eta, and the pinned rule's neighbours sit a phase
    pi further out on either side. Near a mass point theta rises that far
    within less than one ulp of the nodes, so the angle is found by
    bisection over the doubles themselves, and reduced into [0, 2pi).
    """
    alphas = build_modified_sequence(spec)
    t_lo, t_hi = (float(prufer_phase(alphas, x)[0]) for x in (lo, hi))
    arg = float(np.angle(spec.eta))
    centre = arg + TWO_PI * np.round(((t_lo + t_hi) / 2.0 - arg) / TWO_PI)
    (a, t_a), (b, t_b) = (_float_order(lo), t_lo), (_float_order(hi), t_hi)
    while b - a > 1:
        mid = (a + b) // 2
        t_mid = float(prufer_phase(alphas, _from_float_order(mid))[0])
        if t_mid < centre:
            a, t_a = mid, t_mid
        else:
            b, t_b = mid, t_mid
    pin = float(np.mod(_from_float_order(a if centre - t_a <= t_b - centre else b), TWO_PI))
    return 0.0 if pin >= TWO_PI else pin


def find_nodes(spec, weights=False):
    """Locate the n zeros of the nodes polynomial on the unit circle.

    Prufer phase plus safeguarded Newton on the split phase Theta =
    theta_base + theta_beta - phi of `PhaseFunction`, whose slope stays
    flat where the tail makes that of the concatenated sequence swing. The
    2n+1 grid brackets each target Theta = arg(-eta) + 2pi*j, and Newton
    steps phi <- phi - f/Theta' run on the unconverged nodes only,
    bisecting whenever a step leaves the bracket. The residual f is Theta - target
    until it is below pi/2, then the wrapped arg(-B_base B_beta e^{-i phi}
    eta^{-1}), which carries no rounding from the lifted n*phi.

    Each pass evaluates all active nodes in one `prufer_phase` call on the
    base (and one on the m coefficients of beta), and a call over N
    coefficients costs about N*(4.3 us + 17 ns*points): the fixed part
    dominates up to some 256 points, so a pass on a few stiff nodes costs
    nearly as much as one on all of them. So each of the b nodes that the
    last pass bisected sends its iterate and k - 1 evenly spaced interior
    points of its bracket into the next call, with
    k = min(PROBE_POINTS, (PROBE_BUDGET - other active nodes) // b), if
    k >= 2. Its new bracket is the tightest sign change among them, and its
    next iterate the Newton step from the engaged probe with the smallest
    |f/Theta'| if it lands inside, else the midpoint: at least log2(k) bits
    per pass. The other nodes carry one point: where Newton converges,
    probes would buy nothing for their cost.

    A last pass checks every node on the concatenated sequence, against
    the nodes polynomial itself rather than the split solve, and gives the
    Christoffel numbers there. Returns the sorted node angles, or with
    weights=True the pair (nodes, weights) in that order.
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
    # per active node: the last pass bisected it. A rule of at most 16 nodes
    # probes from the first pass: its grid cells are wide enough to hold two
    # nodes, which Newton from the interpolated start can send to one root
    bisected = np.full(n, 4 * n <= PROBE_POINTS)
    # bisection alone takes about 55 passes from width pi/n down to 4 ulps
    for _ in range(200):
        if active.size == 0:
            break
        p, t, lo_a, hi_a = phi[active], targets[active], lo[active], hi[active]
        count = np.count_nonzero(bisected)
        k = min(PROBE_POINTS, (PROBE_BUDGET - active.size + count) // count) if count else 1
        probe = np.flatnonzero(bisected) if k > 1 else None
        points, t_points = p, t
        if probe is not None:
            # the k - 1 interior points of each probed bracket follow the iterates
            interior = lo_a[probe, None] + (hi_a - lo_a)[probe, None] * (np.arange(1, k) / k)
            points = np.concatenate([p, interior.ravel()])
            t_points = np.concatenate([t, np.repeat(t[probe], k - 1)])
        theta, dtheta, b = pf.phase(points)
        lifted = theta - t_points
        engaged = np.abs(lifted) < 0.5 * np.pi
        f = np.where(engaged, np.angle(-b * np.conj(eta)), lifted)
        step = f / dtheta
        left = np.where(f[:p.size] < 0, p, lo_a)
        right = np.where(f[:p.size] > 0, p, hi_a)
        if probe is not None:
            # one row per probed node, the iterate in column 0
            pr, fr, sr, er = (np.column_stack([v[probe], v[p.size:].reshape(probe.size, k - 1)])
                              for v in (points, f, step, engaged))
            # the first probe above the root, the last below that one (rounding
            # can make f non-monotone), and the probe with the shortest
            # engaged Newton step (the iterate if none is engaged)
            right[probe] = np.where(fr > 0, pr, hi_a[probe, None]).min(axis=1)
            left[probe] = np.where((fr < 0) & (pr < right[probe, None]), pr,
                                   lo_a[probe, None]).max(axis=1)
            best = np.where(er, np.abs(sr), np.inf).argmin(axis=1)
            pick = (np.arange(probe.size), best)
            p[probe], step[probe], engaged[probe] = pr[pick], sr[pick], er[pick]
        step, engaged = step[:p.size], engaged[:p.size]
        newton = p - step
        settled = engaged & (np.abs(step) <= 64 * np.finfo(float).eps * np.maximum(1.0, p))
        inside = (newton > left) & (newton < right)
        phi[active] = np.where(settled, np.clip(newton, left, right),
                               np.where(inside, newton, 0.5 * (left + right)))
        lo[active], hi[active] = left, right
        keep = ~(settled | _narrow(left, right))
        active = active[keep]
        bisected = ~inside[keep]

    # a bracket holds a sign change of the residual by construction
    err, dtheta, mu = node_errors(spec, phi)
    bad = np.flatnonzero((err > NODE_TOL) & ~_narrow(lo, hi))
    if bad.size:
        j = int(bad[np.argmax(err[bad])])
        raise InternalConsistencyError(
            f"node {j} at {phi[j]:.17g} rad: estimated error {err[j]:.3e} rad exceeds "
            f"{NODE_TOL:.0e}, theta' = {dtheta[j]:.3e}"
        )

    nodes = np.mod(phi, TWO_PI)
    nodes[nodes >= TWO_PI] = 0.0   # mod of a tiny negative can round up to 2*pi
    order = np.argsort(nodes)
    nodes = nodes[order]
    mu = mu[order]
    gaps = np.diff(np.concatenate([nodes, [nodes[0] + TWO_PI]]))
    j = int(np.argmin(gaps))
    if gaps[j] <= NODE_GAP:
        k = (j + 1) % n
        first, second = float(nodes[j]), float(nodes[k])
        pin = _pin_between(spec, first - TWO_PI if k == 0 else first, second)
        raise NodeCountError(
            f"expected {n} distinct nodes: nodes at {first!r} and {second!r} rad are "
            f"{gaps[j]:.3e} apart (NODE_GAP {NODE_GAP:.0e}), with Christoffel weights "
            f"{mu[j]:.3e} and {mu[k]:.3e}; pin a node between them with node_at={pin!r}"
        )
    return (nodes, mu) if weights else nodes


def _real_positive(mu, what):
    mu = np.asarray(mu)
    if np.any(np.abs(mu.imag) > 1e-12):
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
        """Discrete moments sum_s mu_s e^{-ik phi_s}, k = 0..k_max: with
        k = bj + i, one (b x n) @ (n x b) product of blocked powers of
        e^{-i phi_s}, b = ceil(sqrt(k_max + 1))."""
        low, high = blocked_powers(np.exp(-1j * self.nodes), k_max + 1)
        return ((high * self.weights) @ low.T).ravel()[:k_max + 1]

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


def eta_for_node_at(base, tail, phi0):
    """Boundary parameter forcing a node at phi0: eta = -B_{n-1}(e^{i phi0}),
    with B_{n-1} = z*Phi~_{n-1}/Phi~*_{n-1} from the Prufer kernel."""
    modified = np.concatenate([np.asarray(base, dtype=complex),
                               np.asarray(tail, dtype=complex)])
    eta = -complex(prufer_phase(modified, float(phi0))[2])
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
        eta = eta_for_node_at(base, np.asarray(tail, dtype=complex), node_at)
    spec = ParaOrthogonalSpec(base, tail, eta, n, m)
    nodes, weights = find_nodes(spec, weights=True)
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
