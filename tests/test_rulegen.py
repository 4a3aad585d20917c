import hashlib
import re
import warnings

import mpmath
import numpy as np
import pytest

import szquad as sq
from szquad import rulegen
from szquad.errors import (
    ArityError,
    InternalConsistencyError,
    InvalidCoefficientsError,
    NodeCountError,
    PositivityViolationError,
)
from szquad.opuc_core import moments_from_alphas, prufer_phase
from szquad.rulegen import (
    NODE_TOL,
    TWO_PI,
    ParaOrthogonalSpec,
    build_modified_sequence,
    node_errors,
    spec_for_rule,
)

from conftest import companion_nodes, random_disk_points, random_rule_setup
from oracles import (
    ConditioningWarning,
    christoffel_weights,
    mp_christoffel,
    nodes_polynomial,
    weights_qm_formula,
    weights_vandermonde_oracle,
)

P = np.polynomial.polynomial


# --- assembling the modified sequence and q_m --------------------------------

def test_modified_sequence_examples():
    spec = ParaOrthogonalSpec([0.1, 0.2], (), 1.0, 3, 0)
    assert np.allclose(build_modified_sequence(spec), [0.1, 0.2])
    spec = ParaOrthogonalSpec((), (), 1.0, 1, 0)
    assert build_modified_sequence(spec).size == 0
    spec = ParaOrthogonalSpec([0.5], [0.2j], 1.0, 3, 1)
    assert np.allclose(build_modified_sequence(spec), [0.5, 0.2j])


def test_spec_validation():
    with pytest.raises(ArityError):
        ParaOrthogonalSpec([0.5], [0.2], 1.0, 3, 0)   # tail length != m
    with pytest.raises(ArityError):
        ParaOrthogonalSpec([0.5], (), 1.0, 3, 1)      # base length != n-m-1
    with pytest.raises(InvalidCoefficientsError):
        ParaOrthogonalSpec([0.5], [1.0 - 1e-9], 1.0, 3, 1)  # tail too near circle
    with pytest.raises(InvalidCoefficientsError):
        ParaOrthogonalSpec([0.5], (), 1.1, 2, 0)      # |eta| != 1


def test_build_qm_trivial():
    assert np.allclose(sq.build_qm((), 1.0), [1])
    a = 0.3 + 0.2j
    assert np.allclose(sq.build_qm([a], 1.0), [-np.conj(a), 1])


def test_qm_splitting_identity(rng):
    # z Phi~ + eta Phi~* == z q_m Phi + eta q_m* Phi* at coefficient level
    for _ in range(10):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=12)
        spec = spec_for_rule(measure, n, m, tail, eta)
        lhs = nodes_polynomial(spec)
        q = sq.build_qm(spec.tail, eta)
        qs = sq.reversed_poly(q, m)
        phi, phi_star, _, _ = sq.szego_coeffs(np.asarray(spec.base))
        rhs = np.concatenate(([0], P.polymul(q, phi)))
        rhs = rhs + eta * np.pad(P.polymul(qs, phi_star), (0, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_qm_zeros_in_disk(rng):
    measure, n, m, tail, eta = random_rule_setup(rng, n_max=10)
    q = sq.build_qm(tail, eta)
    if m:
        assert np.max(np.abs(sq.inverse_szego(q))) < 1


# --- nodes polynomial ---------------------------------------------------------

def test_nodes_polynomial_examples():
    spec = ParaOrthogonalSpec(np.zeros(3), (), 1.0, 4, 0)
    assert np.allclose(nodes_polynomial(spec), [1, 0, 0, 0, 1])
    spec = ParaOrthogonalSpec((), (), -1.0, 1, 0)
    assert np.allclose(nodes_polynomial(spec), [-1, 1])
    spec = ParaOrthogonalSpec([0.5], (), 1.0, 2, 0)
    coeffs = nodes_polynomial(spec)
    assert np.allclose(np.abs(np.roots(coeffs[::-1])), 1.0)


# --- node finding --------------------------------------------------------------

def test_find_nodes_lebesgue():
    spec = ParaOrthogonalSpec(np.zeros(3), (), 1.0, 4, 0)
    nodes = sq.find_nodes(spec)
    assert np.allclose(nodes, np.pi * np.array([0.25, 0.75, 1.25, 1.75]), atol=1e-13)


def test_find_nodes_single():
    spec = ParaOrthogonalSpec((), (), 1.0, 1, 0)
    assert np.allclose(sq.find_nodes(spec), [np.pi])


def test_find_nodes_against_companion_oracle(rng):
    spec = ParaOrthogonalSpec([0.5], (), 1.0, 2, 0)
    assert np.max(np.abs(sq.find_nodes(spec) - companion_nodes(spec))) < 1e-10
    for _ in range(25):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=16)
        spec = spec_for_rule(measure, n, m, tail, eta)
        gap = np.abs(sq.find_nodes(spec) - companion_nodes(spec))
        gap = np.minimum(gap, 2 * np.pi - gap)
        assert np.max(gap) < 1e-9


_LOCALIZED = [
    sq.Geronimus(-0.6),
    sq.Geronimus(0.4j),
    sq.ExplicitVerblunsky(
        [complex(0.7 * np.exp(2j * np.pi * t)) for t in np.random.default_rng(0).random(16)]),
]
_LOCALIZED_IDS = ["geronimus(-0.6)", "geronimus(0.4j)", "verblunsky-16(0.7)"]


@pytest.mark.parametrize(
    "measure, n",
    [pytest.param(None, n, id=str(n)) for n in (1, 2, 7, 20, 50)]
    + [pytest.param(measure, n, id=f"{name}-{n}")
       for measure, name in zip(_LOCALIZED, _LOCALIZED_IDS) for n in (64, 128)])
def test_phase_total_increase(rng, measure, n):
    if measure is None:
        m = min(2, n - 1)
        tail = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        base = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1))
        spec = ParaOrthogonalSpec(base, tail, np.exp(0.37j), n, m)
    else:
        spec = spec_for_rule(measure, n, 0)
    pf = sq.PhaseFunction(spec)
    assert pf.thetas[-1] - pf.thetas[0] == pytest.approx(2 * np.pi * n, abs=1e-9)
    # the kernel's own winding over one turn from the seam
    ends = prufer_phase(build_modified_sequence(spec),
                        np.array([pf.phis[0], pf.phis[0] + TWO_PI]))[0]
    assert ends[1] - ends[0] == pytest.approx(2 * np.pi * n, abs=1e-9)
    assert len(pf.phis) == 2 * n + 1
    assert np.all(np.diff(pf.thetas) > 0)


def test_node_at_mode_forces_node():
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 5, 0, node_at=1.1)
    assert np.min(np.abs(rule.nodes - 1.1)) < 1e-10


def test_lebesgue_rule_exact_at_1024():
    # every coefficient is zero, so theta = n phi: node j solves n phi = arg(-eta) + 2pi j
    n, eta = 1024, np.exp(0.37j)
    rule = sq.generate_rule(sq.Lebesgue(), n, 0, eta=eta)
    with mpmath.workdps(40):
        t0 = mpmath.arg(-mpmath.mpc(complex(eta)))
        exact = np.array([float((t0 + 2 * mpmath.pi * j) / n) for j in range(1, n + 1)])
    assert np.all(np.abs(rule.nodes - exact) <= 4 * np.spacing(exact))
    assert np.max(np.abs(rule.weights - 1 / n)) <= 1e-15


def test_bernstein_szego_christoffel_law_at_1024():
    # a_0 = 1/2 and zeros after it: |phi_j|^2 = 1/f for j >= 1 on the circle,
    # so 1/(n mu_s) = 1/n + (n-1)/(n f) at every node (acceptance criterion 6)
    n = 1024
    measure = sq.BernsteinSzego(0.5)
    rule = sq.generate_rule(measure, n, 0)
    f = sq.density_eval(measure, rule.nodes)
    law = 1 / n + (n - 1) / (n * f)
    assert np.max(np.abs(1 / (n * rule.weights) - law)) <= 1e-12


# --- weights ---------------------------------------------------------------------

def test_weights_lebesgue_quarter():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    assert np.allclose(rule.weights, 0.25, atol=1e-14)


def test_weights_single_node():
    rule = sq.generate_rule(sq.Lebesgue(), 1, 0)
    assert np.allclose(rule.weights, [1.0])
    assert np.allclose(rule.nodes, [np.pi])


def test_triple_weight_agreement(rng):
    worst = 0.0
    for _ in range(30):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=14)
        spec = spec_for_rule(measure, n, m, tail, eta)
        nodes = sq.find_nodes(spec)
        w_second = sq.weights_second_kind(spec, nodes)
        w_split = weights_qm_formula(spec, nodes)
        c_mod = moments_from_alphas(build_modified_sequence(spec), max(n - 1, 0))
        w_lsq = weights_vandermonde_oracle(nodes, c_mod, n - 1)
        w_chr = christoffel_weights(build_modified_sequence(spec), nodes)
        worst = max(worst,
                    np.max(np.abs(w_second - w_split) / w_second),
                    np.max(np.abs(w_second - w_lsq) / w_second),
                    np.max(np.abs(w_second - w_chr) / w_second))
    assert worst < 1e-9


@pytest.mark.parametrize("a, n", [(-0.4, 128), (0.4j, 64)])
def test_geronimus_weights_off_real_eta(a, n):
    # the second-kind formula returned rounding-level nonpositive weights here
    measure = sq.Geronimus(a)
    rule = sq.generate_rule(measure, n, 0, eta=1j)
    ref = mp_christoffel(sq.verblunsky_prefix(measure, n - 1), rule.nodes)
    assert np.max(np.abs(rule.weights - ref) / ref) < 1e-12


def test_geronimus_far_from_circle_no_overflow():
    # |Phi_1023| on the circle reaches 6.5e208: the old phase quotient
    # num * conj(den) overflowed, and the table refined without end
    measure = sq.Geronimus(-0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = sq.generate_rule(measure, 1024, 0)
    sample = np.arange(0, 1024, 128)
    ref = mp_christoffel(sq.verblunsky_prefix(measure, 1023), rule.nodes[sample])
    assert np.max(np.abs(rule.weights[sample] - ref) / ref) < 1e-12


def test_vandermonde_reproduces_own_weights(rng):
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 6, 0)
    c = rule.moments(5)
    w = weights_vandermonde_oracle(rule.nodes, c, 5)
    assert np.max(np.abs(w - rule.weights)) < 1e-12


def test_vandermonde_inconsistent_moments_residual(rng):
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 6, 0)
    c = rule.moments(5)
    c[1:] += 1e-3 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    _, resid = weights_vandermonde_oracle(rule.nodes, c, 5, return_residual=True)
    assert resid > 1e-5


def test_vandermonde_conditioning_warning():
    nodes = np.array([0.5, 0.5 + 1e-13, 2.0])
    with pytest.warns(ConditioningWarning):
        weights_vandermonde_oracle(nodes, np.array([1, 0, 0, 0.0]), 2)


def test_weight_formula_rejects_wrong_nodes():
    spec = ParaOrthogonalSpec([0.5], (), 1.0, 2, 0)
    with pytest.raises(PositivityViolationError):
        sq.weights_second_kind(spec, np.array([0.1, 1.7]))


# --- rule generation ---------------------------------------------------------------

def test_generate_rule_golden_lebesgue():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0, (), 1.0)
    assert np.allclose(rule.nodes, np.pi * np.array([0.25, 0.75, 1.25, 1.75]))
    assert np.allclose(rule.weights, 0.25)
    assert rule.measure_id == "lebesgue"


def test_generate_rule_reduced_exactness():
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 3, 1, [0.3], 1.0)
    c = sq.moments(sq.BernsteinSzego(0.5), 3)
    rep = sq.check_exactness(rule, c, 3)
    assert rep.precise_degree >= 1
    assert np.min(rule.weights) > 0


def test_generate_rule_drops_exactness_at_degree_cut(rng):
    rule = sq.generate_rule(sq.Lebesgue(), 5, 2, [0.1, -0.2j], 1j)
    c = sq.moments(sq.Lebesgue(), 5)
    rep = sq.check_exactness(rule, c, 5)
    assert rep.precise_degree == 2


def test_generate_rule_tail_arity():
    with pytest.raises(ArityError):
        sq.generate_rule(sq.Lebesgue(), 4, 2, [0.1], 1.0)


def test_rule_serialization_roundtrip():
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 5, 1, [0.2 - 0.1j], np.exp(0.3j))
    back = sq.QuadratureRule.from_dict(rule.to_dict())
    assert np.allclose(back.nodes, rule.nodes)
    assert np.allclose(back.weights, rule.weights)
    assert back.eta == pytest.approx(rule.eta)
    assert back.measure_id == rule.measure_id


def test_rule_invariants_enforced():
    with pytest.raises(PositivityViolationError):
        sq.QuadratureRule(np.array([0.5, 2.0]), np.array([0.7, 0.2]), 2, 0, 1.0)
    from szquad.errors import NodeCountError
    with pytest.raises(NodeCountError):
        sq.QuadratureRule(np.array([2.0, 0.5]), np.array([0.5, 0.5]), 2, 0, 1.0)


def test_levinson_roundtrip_through_discrete_rule(rng):
    # Verblunsky extraction from a generated rule's own moments recovers the
    # full modified sequence (shared prefix plus tail)
    measure, n, m, tail, eta = random_rule_setup(rng, n_max=12)
    if n < 2:
        n, m, tail = 3, 0, ()
        measure = sq.ExplicitVerblunsky([0.3, -0.2])
    rule = sq.generate_rule(measure, n, m, tail, eta)
    spec = spec_for_rule(measure, n, m, tail, eta)
    c_rule = rule.moments(n - 1)
    extracted = sq.verblunsky_from_moments(c_rule, n - 1)
    assert np.max(np.abs(extracted - build_modified_sequence(spec))) < 1e-9


def test_phase_function_callable_monotone(rng):
    spec = ParaOrthogonalSpec([0.4, -0.2j], [0.5], np.exp(0.9j), 4, 1)
    pf = sq.PhaseFunction(spec)
    alphas = build_modified_sequence(spec)
    dense = np.linspace(0.0, 2 * np.pi, 2000)
    theta = prufer_phase(alphas, dense)[0]
    assert np.all(np.diff(theta) > -1e-12)
    assert theta[-1] - theta[0] == pytest.approx(2 * np.pi * 4, abs=1e-8)
    # the table holds the split phase theta_base + theta_beta - phi at its
    # own breakpoints, not the phase of the concatenated sequence
    beta = rulegen.qm_recurrence_coeffs(spec.tail, spec.eta)
    split = prufer_phase(pf.base, pf.phis)[0] + prufer_phase(beta, pf.phis)[0] - pf.phis
    assert np.allclose(split, pf.thetas, atol=1e-9)
    assert np.all(np.diff(pf.thetas) > 0)
    # both phases meet the targets arg(-eta) + 2pi*j at the nodes
    nodes = sq.find_nodes(spec)
    target = np.angle(-spec.eta)
    for got in (pf.phase(nodes)[0], prufer_phase(alphas, nodes)[0]):
        assert np.max(np.abs(np.angle(np.exp(1j * (got - target))))) < 1e-12
    # scalar call
    assert prufer_phase(alphas, 1.0)[0] == pytest.approx(
        prufer_phase(alphas, np.array([1.0]))[0][0])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", _LOCALIZED, ids=_LOCALIZED_IDS)
def test_phase_function_monotone_localized(measure, n):
    pf = sq.PhaseFunction(spec_for_rule(measure, n, 0))
    dense = np.linspace(0.0, 2 * np.pi, 64 * n + 1)
    theta, dtheta, b, _ = prufer_phase(pf.base, dense)
    assert np.all(np.diff(theta) > 0)
    assert np.all(dtheta > 0)
    assert theta[-1] - theta[0] == pytest.approx(2 * np.pi * n, abs=1e-9)
    # theta lifts the argument of B = z Phi / Phi*, and b is B itself
    ev = sq.szego_eval(pf.base, np.exp(1j * dense))
    quotient = np.exp(1j * dense) * ev.phi / ev.phi_star
    assert np.max(np.abs(b - quotient)) < 1e-9
    assert np.max(np.abs(np.exp(1j * theta) - quotient)) < 1e-9


def _depth_first_table(pf):
    """The rolled grid table rebuilt one point at a time: the Schur map in
    scalar complex arithmetic per point, with the points past the seam
    evaluated at phi + 2pi directly rather than shifted by 2pi*n. The
    reference for the one vectorized pass; also returns theta' on the grid."""
    def point(p):
        z = complex(np.exp(1j * p))
        b, args, slope = z, 0.0, 1.0
        for a in pf.base:
            w = 1 - a.conjugate() * b
            args += np.arctan2(w.imag, w.real)
            slope = slope * (1 - abs(a) ** 2) / abs(w) ** 2 + 1
            b = z * (b - a) / w
        return pf.n * p - 2 * args, slope

    grid = np.linspace(0.0, TWO_PI, 2 * pf.n + 1)
    slopes = np.array([point(p)[1] for p in grid[:-1]])
    s = int(np.argmin(slopes))
    phis = np.concatenate([grid[s:-1], grid[:s + 1] + TWO_PI])
    return phis, np.array([point(p)[0] for p in phis]), slopes


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", _LOCALIZED)
def test_phase_table_matches_depth_first(measure, n):
    pf = rulegen.PhaseFunction(spec_for_rule(measure, n, 0))
    ref_phis, ref_thetas, slopes = _depth_first_table(pf)
    assert len(pf.phis) == 2 * n + 1
    assert np.array_equal(pf.phis, ref_phis)
    assert np.max(np.abs(pf.thetas - ref_thetas)) <= 1e-11
    assert pf.thetas[-1] - pf.thetas[0] == pytest.approx(2 * np.pi * n, abs=1e-9)
    # the seam sits at the flattest grid point, by theta' = K_{n-1} / |phi*_{n-1}|^2
    grid = np.linspace(0.0, TWO_PI, 2 * n + 1)[:-1]
    phi_star2 = np.abs(sq.szego_eval(pf.base, np.exp(1j * grid)).phi_star) ** 2 \
        / np.prod(1 - np.abs(pf.base) ** 2)
    k = 1 / (christoffel_weights(pf.base, grid) * phi_star2)
    assert np.max(np.abs(slopes / k - 1)) <= 1e-9
    # the table's phase is the argument of z Phi / Phi* from the recurrence itself
    zt = np.exp(1j * pf.phis)
    ev = sq.szego_eval(pf.base, zt)
    assert np.max(np.abs(np.exp(1j * pf.thetas) - zt * ev.phi / ev.phi_star)) < 1e-9


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", _LOCALIZED)
def test_phase_table_probe_calls_per_level(measure, n, kernel_calls):
    spec = spec_for_rule(measure, n, 0)
    rulegen.PhaseFunction(spec)
    assert kernel_calls == [(n - 1, 2 * n + 1)]   # the table is one pass over the grid
    kernel_calls.clear()
    sq.find_nodes(spec)
    # with m = 0 every pass runs on the measure's n - 1 coefficients alone
    assert {length for length, _ in kernel_calls} == {n - 1}
    calls = [points for _, points in kernel_calls]
    grid, levels, check = calls[0], calls[1:-1], calls[-1]
    # the last pass checks all n nodes and gives their weights
    assert grid == 2 * n + 1 and check == n
    # one pass per Newton level, on the active nodes only; a node that was
    # bisected probes its bracket in the next one, within the probe budget
    assert levels[0] == n
    assert max(levels) <= max(n, rulegen.PROBE_BUDGET)
    # bisection from a grid cell of width pi/n to 4 ulps, plus a few Newton passes
    bisections = int(np.ceil(np.log2((np.pi / n) / (4 * np.spacing(TWO_PI)))))
    assert len(levels) <= bisections + 16


def test_find_nodes_pass_counts_localized(kernel_calls):
    # the benchmark's localized rules at eta = 1 (e^{0.7i} for residual_scale):
    # with one point per pass for the last stiff nodes they took 249 passes,
    # 48 of them for one rule; probing whole brackets once at most 16 nodes
    # were active took 150 and 18, plus a weight pass per rule; probing every
    # bisected node, with the weights from the check pass, takes 115 and 13.
    # A few passes of slack absorb libm rounding on other platforms.
    inputs = [(sq.Geronimus(a), n, 1.0, None) for a in (-0.6, -0.4, 0.4j) for n in (64, 128)]
    inputs += [(_LOCALIZED[2], n, 1.0, None) for n in (64, 128)]
    inputs += [(sq.Geronimus(0.6), 32, 1.0, 0.0),                    # winding_seam
               (sq.Geronimus(0.4j), 128, np.exp(0.7j), None)]        # residual_scale
    per_rule = []
    for measure, n, eta, node_at in inputs:
        kernel_calls.clear()
        sq.generate_rule(measure, n, 0, eta=eta, node_at=node_at)
        per_rule.append(len(kernel_calls))
    assert sum(per_rule) <= 115 + 5
    assert max(per_rule) <= 13 + 2


def test_find_nodes_pass_count_geronimus_1024(kernel_calls):
    # the stiff nodes at both gap edges kept more than 16 nodes active, so the
    # former all-or-none probe switch stayed off and they bisected one step
    # per pass: 20 passes. Probing every bisected node takes 16, the final
    # pass included
    rule = sq.generate_rule(sq.Geronimus(-0.6), 1024, 0, eta=1.0)
    assert len(kernel_calls) <= 17
    assert kernel_calls[-1] == (rule.n - 1, rule.n)


def test_find_nodes_pass_count_tail_1024(kernel_calls):
    # on the phase of the concatenated sequence the four tail coefficients
    # made theta' swing at the scale of the node spacing: 11 Newton passes
    # between the grid and the check. The split phase takes 2, each one call
    # on the measure's 1019 coefficients and one on the 4 of q_m
    tail = [0.31 - 0.12j, -0.22 + 0.27j, 0.05 + 0.41j, -0.38 - 0.09j]
    rule = sq.generate_rule(sq.BernsteinSzego(0.45), 1024, 4, tail, eta=np.exp(0.9j))
    assert len(kernel_calls) <= 7
    passes, check = kernel_calls[:-1], kernel_calls[-1]
    assert [length for length, _ in passes] == [1019, 4] * (len(passes) // 2)
    assert passes[0] == (1019, 2 * rule.n + 1)
    # the final check runs on the concatenated sequence
    assert check == (rule.n - 1, rule.n)


def test_find_nodes_m0_outputs_unchanged():
    # with m = 0 the split phase is the base phase alone, one call per pass as
    # before the split, so nodes and weights keep their bits (the digest was
    # taken on the concatenated-phase finder, x86_64 with numpy 2.4)
    rule = sq.generate_rule(sq.Geronimus(-0.6), 128, 0, eta=1.0)
    digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()
    assert digest == "8d95790ccdd1410b64132e100c3766792563446d59487982625dcfc9355d2737"


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_find_nodes_split_phase_random(rng, n):
    # random smooth measures, tails and eta (or a pinned node): every node
    # solves the concatenated-sequence equation to 4 ulps of 2pi. The tail
    # radius shrinks like 1/sqrt(m) past m = 16, since a long dense random
    # tail is a localized sequence, whose stiff nodes the forward final
    # check cannot resolve
    ulp = np.spacing(TWO_PI)
    for m in (1, n // 4, n - 1):
        for trial in range(3):
            if trial == 0:
                roots = random_disk_points(rng, int(rng.integers(1, 4)), 0.7)
                measure = sq.BernsteinSzego(list(roots))
            elif trial == 1:
                measure = sq.ExplicitVerblunsky(list(random_disk_points(rng, 16, 0.3)))
            else:
                measure = sq.Lebesgue()
            tail = random_disk_points(rng, m, 0.5 * min(1.0, (16 / m) ** 0.5))
            eta = np.exp(2j * np.pi * rng.random())
            node_at = float(TWO_PI * rng.random()) if trial == 2 else None
            rule = sq.generate_rule(measure, n, m, tail, eta=eta, node_at=node_at)
            spec = spec_for_rule(measure, n, m, tail, rule.eta)
            assert rule.nodes.size == n and np.all(np.diff(rule.nodes) > 0)
            assert np.max(node_errors(spec, rule.nodes)[0]) <= 4 * ulp
            if node_at is not None:
                assert np.min(np.abs(np.angle(np.exp(1j * (rule.nodes - node_at))))) <= 1e-12
            if n <= 64:
                gap = np.abs(rule.nodes - companion_nodes(spec))
                assert np.max(np.minimum(gap, TWO_PI - gap)) <= 1e-12
                w_split = weights_qm_formula(spec, rule.nodes)
                assert np.max(np.abs(rule.weights - w_split) / w_split) <= 1e-10


@pytest.mark.parametrize("measure", [sq.BernsteinSzego(0.5), sq.Geronimus(-0.4),
                                     sq.Geronimus(-0.6)])
def test_phase_derivative_christoffel_identity(measure):
    # theta' = K_{n-1} / |phi*_{n-1}|^2, with K_{n-1} = 1/mu the Christoffel sum
    spec = spec_for_rule(measure, 64, 0, eta=np.exp(0.3j))
    alphas = build_modified_sequence(spec)
    phi = np.concatenate([sq.find_nodes(spec), np.linspace(0.0, 2 * np.pi, 257)])
    z = np.exp(1j * phi)
    _, dtheta, _, _ = prufer_phase(alphas, phi)
    phi_star2 = np.abs(sq.szego_eval(alphas, z).phi_star) ** 2 / np.prod(1 - np.abs(alphas) ** 2)
    mu = christoffel_weights(alphas, phi)
    assert np.max(np.abs(dtheta * phi_star2 * mu - 1)) <= 1e-12


def _mp_phase_root(alphas, eta, phi, half_width=1e-12, dps=60):
    """Zero of theta - target within half_width of phi, by bisection in mpmath
    on the lifted phase theta(x) = n x - 2 sum_k arg(1 - conj(a_k) B_k(x))."""
    with mpmath.workdps(dps):
        alphas = [mpmath.mpc(complex(a)) for a in alphas]

        def theta(x):
            z = mpmath.expj(x)
            b, args = z, mpmath.mpf(0)
            for a in alphas:
                w = 1 - mpmath.conj(a) * b
                args += mpmath.arg(w)
                b = z * (b - a) / w
            return (len(alphas) + 1) * x - 2 * args

        lo = mpmath.mpf(float(phi)) - half_width
        hi = mpmath.mpf(float(phi)) + half_width
        t0 = mpmath.arg(-mpmath.mpc(complex(eta)))
        target = t0 + 2 * mpmath.pi * mpmath.ceil((theta(lo) - t0) / (2 * mpmath.pi))
        assert theta(lo) < target < theta(hi)
        while hi - lo > mpmath.mpf(10) ** -25:
            mid = (lo + hi) / 2
            if theta(mid) < target:
                lo = mid
            else:
                hi = mid
        return lo


def test_stiff_node_within_ulps_of_root():
    # the node at the mass point of Geronimus(0.4i) (weight 8/29): theta jumps
    # by 2pi within an ulp of phi, so the lifted residual stays +-pi until the
    # bracket closes; stopping on a small step there lost 2e-11 of the mass
    spec = spec_for_rule(sq.Geronimus(0.4j), 128, 0)
    alphas = build_modified_sequence(spec)
    nodes = sq.find_nodes(spec)
    mass = np.sum(christoffel_weights(alphas, nodes))
    assert abs(mass - 1) <= 1e-13
    j = int(np.argmin(np.abs(nodes - 0.7610127542247)))
    root = _mp_phase_root(alphas, spec.eta, nodes[j])
    assert float(abs(mpmath.mpf(nodes[j]) - root)) <= 4 * np.spacing(nodes[j])


def test_geronimus_builds_past_absolute_residual():
    # the former absolute bound 1e-10 * n rejected this rule with "nodes
    # polynomial residual 6.25e-02", a relative residual near 2e-20
    measure = sq.Geronimus(0.4j)
    rule = sq.generate_rule(measure, 128, 0, eta=np.exp(0.75j * np.pi))
    ref = mp_christoffel(sq.verblunsky_prefix(measure, 127), rule.nodes)
    assert np.max(np.abs(rule.weights - ref) / ref) < 1e-12


def test_geronimus_close_pair_at_mass_point():
    # Geronimus(0.9), n = 16: two nodes sit 4.9e-10 on either side of phi = 0,
    # in one grid cell. The finder used to return them 4.0e-14 apart and raise
    # NodeCountError; the true gap is 9.73e-10, the CMV-eigenvalue gap
    spec = spec_for_rule(sq.Geronimus(0.9), 16, 0)
    alphas = build_modified_sequence(spec)
    nodes = sq.find_nodes(spec)
    assert np.max(node_errors(spec, nodes)[0]) <= NODE_TOL
    assert nodes[0] + TWO_PI - nodes[-1] == pytest.approx(9.73e-10, rel=1e-3)
    for x in (nodes[0], nodes[-1]):
        # the finder works to absolute ulps of the angles in [0, 2pi]
        root = _mp_phase_root(alphas, spec.eta, x)
        assert float(abs(mpmath.mpf(x) - root)) <= 4 * np.spacing(max(x, 1.0))
    # the rule itself loses 3.9e-7 of the mass to these two nodes
    with pytest.raises(PositivityViolationError, match="weights sum to"):
        sq.generate_rule(sq.Geronimus(0.9), 16, 0)


@pytest.mark.parametrize("measure, n", [(sq.BernsteinSzego(0.5), 64), (sq.Geronimus(0.4j), 128),
                                        (_LOCALIZED[2], 128)])
def test_node_errors_sees_moved_nodes(measure, n):
    spec = spec_for_rule(measure, n, 0)
    nodes = sq.find_nodes(spec)
    assert np.max(node_errors(spec, nodes)[0]) <= NODE_TOL
    moved = node_errors(spec, nodes + 1e-9)[0]
    assert np.min(moved) >= 0.9e-9


def test_find_nodes_reports_unresolved_node(monkeypatch):
    monkeypatch.setattr(rulegen, "NODE_TOL", 0.0)
    with pytest.raises(InternalConsistencyError, match=r"node \d+ at .* theta' = "):
        sq.find_nodes(spec_for_rule(sq.BernsteinSzego(0.5), 16, 0))


def test_vandermonde_lebesgue_uniform():
    rule = sq.generate_rule(sq.Lebesgue(), 5, 0)
    c = np.zeros(5, dtype=complex)
    c[0] = 1.0
    w = weights_vandermonde_oracle(rule.nodes, c, 4)
    assert np.allclose(w, 0.2, atol=1e-13)


# --- rule moments ------------------------------------------------------------

def test_rule_moments_against_mp_sums():
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 256, 0, eta=np.exp(0.4j))
    disc = rule.moments(255)
    ks = [0, 1, 17, 100, 200, 255]
    with mpmath.workdps(30):
        # the double angles taken exactly
        ref = [complex(mpmath.fsum(mpmath.mpf(float(w)) * mpmath.expj(-k * mpmath.mpf(float(p)))
                                   for w, p in zip(rule.weights, rule.nodes))) for k in ks]
    assert np.max(np.abs(disc[ks] - ref)) <= 1e-14


@pytest.mark.parametrize("measure", [sq.BernsteinSzego(0.5), sq.Lebesgue()], ids=["bs", "lebesgue"])
def test_rule_moments_blocked_against_direct_4096(measure):
    rule = sq.generate_rule(measure, 4096, 0)
    ks = np.arange(0, 4096, 7)
    disc = rule.moments(4095)[ks]
    direct = np.exp(-1j * np.outer(ks, rule.nodes)) @ rule.weights
    if isinstance(measure, sq.Lebesgue):
        # both forms err by about 1.7e-13 against c_k = 0 here, differently
        exact = (ks == 0).astype(float)
        assert np.max(np.abs(disc - exact)) <= 1.1 * np.max(np.abs(direct - exact))
    else:
        assert np.max(np.abs(disc - direct)) <= 5e-14


# --- repeatability -------------------------------------------------------------

def test_generate_rule_and_moments_repeat_bit_for_bit():
    inputs = [(sq.Geronimus(0.4j), 64, 0, (), 1.0),
              (sq.BernsteinSzego([0.5, -0.2j]), 48, 3, (0.2, -0.1j, 0.3 + 0.3j), np.exp(0.9j))]

    def run():
        out = []
        for measure, n, m, tail, eta in inputs:
            rule = sq.generate_rule(measure, n, m, tail, eta=eta)
            out += [rule.nodes, rule.weights, sq.moments(measure, n), rule.moments(n)]
            # other calls in between, at other sizes
            sq.generate_rule(sq.Geronimus(-0.6), 64, 0)
            sq.moments(sq.Geronimus(0.6), 200)
        return out

    first, second = run(), run()
    assert all(np.array_equal(x, y) for x, y in zip(first, second))


# --- near-coincident nodes -------------------------------------------------------

@pytest.mark.parametrize("a, n", [(0.6, 64), (0.6, 128), (0.6, 256), (0.6, 512),
                                  (0.3, 128), (0.3, 256), (0.3, 384), (0.3, 512)])
def test_close_pair_error_names_working_pin(a, n):
    # at eta = 1 two nodes of these rules fall within one ulp of the mass
    # point at phi = 0; a node pinned between them builds the rule
    measure = sq.Geronimus(a)
    with pytest.raises(NodeCountError) as info:
        sq.generate_rule(measure, n, 0)
    found = re.search(r"nodes at (\S+) and (\S+) rad are (\S+) apart .* Christoffel weights "
                      r"(\S+) and (\S+); .* node_at=(\S+)$", str(info.value))
    assert found, str(info.value)
    first, second, gap, *_, pin = (float(v) for v in found.groups())
    assert gap <= rulegen.NODE_GAP and 0.0 <= pin < TWO_PI
    rule = sq.generate_rule(measure, n, 0, node_at=pin)
    assert np.min(np.abs(np.angle(np.exp(1j * (rule.nodes - pin))))) <= 1e-12
    assert np.min(np.diff(rule.nodes)) > rulegen.NODE_GAP
