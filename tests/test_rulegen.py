import warnings

import mpmath
import numpy as np
import pytest

import szquad as sq
from szquad.errors import (
    ArityError,
    ConditioningWarning,
    InvalidCoefficientsError,
    PositivityViolationError,
)
from szquad.opuc_core import moments_from_alphas
from szquad.rulegen import (
    TWO_PI,
    ParaOrthogonalSpec,
    PhaseFunction,
    build_modified_sequence,
    spec_for_rule,
)

from conftest import companion_nodes, random_rule_setup

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
        lhs = sq.nodes_polynomial(spec)
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
    assert np.allclose(sq.nodes_polynomial(spec), [1, 0, 0, 0, 1])
    spec = ParaOrthogonalSpec((), (), -1.0, 1, 0)
    assert np.allclose(sq.nodes_polynomial(spec), [-1, 1])
    spec = ParaOrthogonalSpec([0.5], (), 1.0, 2, 0)
    coeffs = sq.nodes_polynomial(spec)
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


@pytest.mark.parametrize("n", [1, 2, 7, 20, 50])
def test_phase_total_increase(rng, n):
    measure, _, _, _, _ = random_rule_setup(rng, n_max=5)
    base = sq.verblunsky_prefix(measure, 0)
    m = min(2, n - 1)
    tail = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    base = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1))
    spec = ParaOrthogonalSpec(base, tail, np.exp(0.37j), n, m)
    pf = sq.PhaseFunction(spec)
    assert pf.total_increase == pytest.approx(2 * np.pi * n, abs=1e-8)
    # strictly increasing table
    assert np.all(np.diff(pf.thetas) >= 0)


def test_node_at_mode_forces_node():
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 5, 0, node_at=1.1)
    assert np.min(np.abs(rule.nodes - 1.1)) < 1e-10


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
        w_split = sq.weights_qm_formula(spec, nodes)
        c_mod = moments_from_alphas(build_modified_sequence(spec), max(n - 1, 0))
        w_lsq = sq.weights_vandermonde_oracle(nodes, c_mod, n - 1)
        w_chr = sq.christoffel_weights(build_modified_sequence(spec), np.exp(1j * nodes))
        worst = max(worst,
                    np.max(np.abs(w_second - w_split) / w_second),
                    np.max(np.abs(w_second - w_lsq) / w_second),
                    np.max(np.abs(w_second - w_chr) / w_second))
    assert worst < 1e-9


def _mp_christoffel(alphas, nodes, dps=40):
    """1 / sum_{k<n} |phi_k(z_s)|^2 by the orthonormal recurrence in mpmath."""
    with mpmath.workdps(dps):
        out = []
        for p in nodes:
            z = mpmath.expj(mpmath.mpf(float(p)))
            phi = phi_star = mpmath.mpc(1)
            total = mpmath.mpf(1)
            for a in alphas:
                a = mpmath.mpc(complex(a))
                norm = mpmath.sqrt(1 - abs(a) ** 2)
                phi, phi_star = ((z * phi - a * phi_star) / norm,
                                 (phi_star - mpmath.conj(a) * z * phi) / norm)
                total += abs(phi) ** 2
            out.append(float(1 / total))
        return np.array(out)


@pytest.mark.parametrize("a, n", [(-0.4, 128), (0.4j, 64)])
def test_geronimus_weights_off_real_eta(a, n):
    # the second-kind formula returned rounding-level nonpositive weights here
    measure = sq.Geronimus(a)
    rule = sq.generate_rule(measure, n, 0, eta=1j)
    ref = _mp_christoffel(sq.verblunsky_prefix(measure, n - 1), rule.nodes)
    assert np.max(np.abs(rule.weights - ref) / ref) < 1e-12


def test_geronimus_far_from_circle_no_overflow():
    # |Phi_1023| on the circle reaches 6.5e208: the old phase quotient
    # num * conj(den) overflowed, and the table refined without end
    measure = sq.Geronimus(-0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = sq.generate_rule(measure, 1024, 0)
    sample = np.arange(0, 1024, 128)
    ref = _mp_christoffel(sq.verblunsky_prefix(measure, 1023), rule.nodes[sample])
    assert np.max(np.abs(rule.weights[sample] - ref) / ref) < 1e-12


def test_vandermonde_reproduces_own_weights(rng):
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 6, 0)
    c = rule.moments(5)
    w = sq.weights_vandermonde_oracle(rule.nodes, c, 5)
    assert np.max(np.abs(w - rule.weights)) < 1e-12


def test_vandermonde_inconsistent_moments_residual(rng):
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 6, 0)
    c = rule.moments(5)
    c[1:] += 1e-3 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    _, resid = sq.weights_vandermonde_oracle(rule.nodes, c, 5, return_residual=True)
    assert resid > 1e-5


def test_vandermonde_conditioning_warning():
    nodes = np.array([0.5, 0.5 + 1e-13, 2.0])
    with pytest.warns(ConditioningWarning):
        sq.weights_vandermonde_oracle(nodes, np.array([1, 0, 0, 0.0]), 2)


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
    dense = np.linspace(0.0, 2 * np.pi, 2000)
    theta = pf(dense)
    assert np.all(np.diff(theta) > -1e-12)
    assert theta[-1] - theta[0] == pytest.approx(2 * np.pi * 4, abs=1e-8)
    # matches the table at its own breakpoints
    assert np.allclose(pf(pf.phis), pf.thetas, atol=1e-9)
    # scalar call
    assert pf(1.0) == pytest.approx(pf(np.array([1.0]))[0])


def _depth_first_table(pf):
    """Breakpoints and unwrapped phase by the depth-first stack subdivision,
    one scalar probe per refinement: the reference for the level-by-level
    build."""
    seeds = 16 * pf.n
    grid = np.linspace(0.0, TWO_PI, seeds + 1)
    wvals, hvals = pf._probe(grid)
    phis = [grid[0]]
    thetas = [float(wvals[0])]
    stack = [(grid[i], float(wvals[i]), float(hvals[i]),
              grid[i + 1], float(wvals[i + 1]), float(hvals[i + 1]))
             for i in range(seeds - 1, -1, -1)]
    while stack:
        a, wa, ha, b, wb, hb = stack.pop()
        width = b - a
        delta = (wb - wa) % TWO_PI
        resolved = delta < pf.LIFT_MAX and min(ha, hb) >= pf.GAUGE_SAFETY * width
        if resolved or width < pf.MIN_WIDTH:
            phis.append(b)
            thetas.append(thetas[-1] + delta)
        else:
            mid = 0.5 * (a + b)
            wm, hm = pf._probe(np.array([mid]))
            stack.append((mid, float(wm[0]), float(hm[0]), b, wb, hb))
            stack.append((a, wa, ha, mid, float(wm[0]), float(hm[0])))
    return np.array(phis), np.array(thetas)


_LOCALIZED = [
    sq.Geronimus(-0.6),
    sq.Geronimus(0.4j),
    sq.ExplicitVerblunsky(
        [complex(0.7 * np.exp(2j * np.pi * t)) for t in np.random.default_rng(0).random(16)]),
]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", _LOCALIZED)
def test_phase_table_matches_depth_first(measure, n):
    pf = PhaseFunction(spec_for_rule(measure, n, 0))
    ref_phis, ref_thetas = _depth_first_table(pf)
    assert len(pf.phis) > 16 * n + 1   # the table did refine
    assert np.array_equal(pf.phis, ref_phis)
    assert pf.thetas[-1] - pf.thetas[0] == pytest.approx(ref_thetas[-1] - ref_thetas[0], abs=1e-9)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", _LOCALIZED)
def test_phase_table_probe_calls_per_level(measure, n, monkeypatch):
    calls = []
    probe = PhaseFunction._probe

    def spy(self, phi):
        calls.append(np.size(phi))
        return probe(self, phi)

    monkeypatch.setattr(PhaseFunction, "_probe", spy)
    PhaseFunction(spec_for_rule(measure, n, 0))
    levels = int(np.floor(np.log2(TWO_PI / (16 * n * PhaseFunction.MIN_WIDTH))))
    assert len(calls) <= 2 + levels


def test_vandermonde_lebesgue_uniform():
    rule = sq.generate_rule(sq.Lebesgue(), 5, 0)
    c = np.zeros(5, dtype=complex)
    c[0] = 1.0
    w = sq.weights_vandermonde_oracle(rule.nodes, c, 4)
    assert np.allclose(w, 0.2, atol=1e-13)
