import dataclasses

import numpy as np
import pytest

import szquad as sq
from szquad import rulegen, validation
from szquad.errors import LogSingularityError, UnsupportedVariantError
from szquad.rulegen import ParaOrthogonalSpec, spec_for_rule

from conftest import random_rule_setup
from oracles import explicit_weight_orthogonality, halves_from_spec, s_zero_verdict


# --- exactness ---------------------------------------------------------------

def test_exactness_lebesgue_closed_form():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rep = sq.check_exactness(rule, sq.moments(sq.Lebesgue(), 5), 5)
    assert rep.precise_degree == 3
    assert rep.errors[4] == pytest.approx(1.0)   # sum z_s^{-4} = -1 against c_4 = 0
    assert rep.errors[0] <= 1e-13


def test_exactness_single_node():
    rule = sq.generate_rule(sq.Lebesgue(), 1, 0)
    rep = sq.check_exactness(rule, sq.moments(sq.Lebesgue(), 2), 2)
    assert rep.precise_degree == 0


def test_exactness_generic_equality(rng):
    # precise degree equals n-1-m for almost every random tail
    hits = 0
    total = 100
    for _ in range(total):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=12)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        c = sq.moments(measure, n + 1)
        rep = sq.check_exactness(rule, c, n + 1)
        assert rep.precise_degree >= n - 1 - m
        hits += rep.precise_degree == n - 1 - m or m == 0 and rep.precise_degree >= n - 1
    assert hits >= 95


@pytest.mark.parametrize("a", [-0.6, 0.4j])
def test_exactness_full_degree_on_geronimus(a):
    # against the monomial-loop moments these correct rules read 109 and 82
    measure = sq.Geronimus(a)
    rule = sq.generate_rule(measure, 128, 0)
    assert sq.check_exactness(rule, sq.moments(measure, 127), 127).precise_degree == 127


def test_exactness_report_record_fields():
    rule = sq.generate_rule(sq.Lebesgue(), 2, 0)
    rec = sq.check_exactness(rule, sq.moments(sq.Lebesgue(), 3), 3).to_record()
    assert {"k", "error"} <= set(rec["errors"][0])
    assert "precise_degree" in rec


# --- Caratheodory-series matching ---------------------------------------------

def test_caratheodory_lebesgue_golden():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rep = sq.caratheodory_match(rule, sq.moments(sq.Lebesgue(), 4))
    assert rep.max_error < 1e-13
    assert rep.schur_in_disk


def test_caratheodory_spec_route_matches_rule_route(rng):
    # T and N from the nodes and weights against the same two polynomials
    # built from the spec through the inner factor, without nodes
    for _ in range(10):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=12)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        spec = spec_for_rule(measure, n, m, tail, eta)
        t_rule, n_rule = validation._nodes_polys(rule.nodes, rule.weights)
        t_spec, n_spec = halves_from_spec(spec)
        assert len(t_spec) == len(n_spec) == n + 1
        assert np.max(np.abs(t_rule - t_spec)) <= 1e-9
        assert np.max(np.abs(n_rule - n_spec)) <= 1e-9
        rep = sq.caratheodory_match(rule, sq.moments(measure, n))
        assert rep.max_error < 1e-9
        assert rep.schur_in_disk


def test_caratheodory_detects_perturbation(rng):
    rule = sq.generate_rule(sq.BernsteinSzego(0.5), 6, 0)
    w = rule.weights.copy()
    w[0] += 1e-3
    w[1] -= 1e-3
    bad = sq.QuadratureRule(rule.nodes, w, rule.n, rule.m, rule.eta)
    rep = sq.caratheodory_match(bad, sq.moments(sq.BernsteinSzego(0.5), 6))
    assert rep.max_error > 1e-4


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("measure", [sq.Lebesgue(), sq.BernsteinSzego(0.5)],
                         ids=["lebesgue", "bernstein-szego"])
def test_caratheodory_large_rules(rng, measure, n):
    # the nodes polynomial expanded from sorted roots lost every digit here
    rule = sq.generate_rule(measure, n, 0, eta=np.exp(1j * rng.uniform(0, 2 * np.pi)))
    rep = sq.caratheodory_match(rule, sq.moments(measure, n))
    assert rep.max_error < 1e-12
    assert rep.schur_in_disk


# --- S-function ---------------------------------------------------------------

def test_s_function_lebesgue_two_nodes():
    rule = sq.generate_rule(sq.Lebesgue(), 2, 0)
    trace = sq.s_function(rule, sq.moments(sq.Lebesgue(), 2), samples=np.linspace(0.05, 6.2, 64))
    assert trace.max_s_minus_r < 1e-11
    assert trace.weight_residual < 1e-10
    assert trace.interlacing_violations == 0


def test_s_function_random_rules(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        n_half, gamma2 = n // 2, n % 2
        m_hi = n - 1 - (n_half + gamma2)
        if m_hi < 0:
            continue
        m = int(rng.integers(0, m_hi + 1))
        base = 0.45 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1)) \
            * rng.uniform(0.2, 1.0, n - m - 1)
        tail = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.2, 1.0, m)
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        measure = sq.ExplicitVerblunsky(base)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        trace = sq.s_function(rule, sq.moments(measure, n))
        assert trace.max_s_minus_r <= 1e-9 * n
        assert trace.weight_residual <= 1e-10
        assert trace.interlacing_violations == 0
        assert trace.sign_consistent
        assert trace.arc_counts == (1,) * n


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
@pytest.mark.parametrize("measure", [sq.Lebesgue(), sq.BernsteinSzego(0.5)],
                         ids=["lebesgue", "bernstein-szego"])
def test_s_function_large_rules(rng, measure, n):
    rule = sq.generate_rule(measure, n, 0, eta=np.exp(1j * rng.uniform(0, 2 * np.pi)))
    trace = sq.s_function(rule, sq.moments(measure, n))
    assert trace.max_s_minus_r <= 1e-9 * n
    assert trace.interlacing_violations == 0
    assert trace.weight_residual <= 1e-14


@pytest.mark.parametrize("measure", [sq.Lebesgue(), sq.BernsteinSzego(0.5)],
                         ids=["lebesgue", "bernstein-szego"])
def test_s_function_difference_is_relative(measure):
    # relative to max|R|, a weight moved by 1e-4 reads 9e-5 at n = 32, far
    # over the verify bound 3.2e-8, whatever the scale of T and S
    rule = sq.generate_rule(measure, 32, 0, eta=np.exp(0.4j))
    w = rule.weights.copy()
    w[np.argmax(w)] *= 1 + 1e-4
    moved = dataclasses.replace(rule, weights=w / w.sum())
    assert sq.s_function(moved, sq.moments(measure, 32)).max_s_minus_r > 1e-6


def _oracle_rules(rng, count, n_max):
    """Random rules over four measure kinds with exactness at least the
    half-degree class; every third one has m = 0, the others m > 0 where n
    allows it."""
    out = []
    while len(out) < count:
        n = int(rng.integers(2, n_max + 1))
        m_hi = n - 1 - (n // 2 + n % 2)
        m = 0 if len(out) % 3 == 0 or m_hi < 1 else int(rng.integers(1, m_hi + 1))
        kind = len(out) % 4
        if kind == 0:
            measure = sq.ExplicitVerblunsky(0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1))
                                            * rng.uniform(0.1, 1.0, n - m - 1))
        elif kind == 1:
            measure = sq.BernsteinSzego(rng.uniform(-0.7, 0.7))
        elif kind == 2:
            measure = sq.Lebesgue()
        else:
            measure = sq.Geronimus(0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        tail = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.1, 1.0, m)
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        out.append((sq.generate_rule(measure, n, m, tail, eta), sq.moments(measure, n)))
    return out


def test_s_function_sign_count_matches_root_oracle(rng):
    rules = _oracle_rules(rng, 72, 40) + _oracle_rules(rng, 8, 128)
    assert {r.n % 2 for r, _ in rules} == {0, 1} and sum(r.m > 0 for r, _ in rules) >= 40
    for rule, c in rules:
        trace = sq.s_function(rule, c)
        violations, consistent, arc_counts, _ = s_zero_verdict(rule, c)
        assert (trace.interlacing_violations == 0) == (violations == 0)
        if violations == 0:
            assert trace.sign_consistent and consistent
            assert trace.arc_counts == arc_counts == (1,) * rule.n


def test_s_function_pushed_node_matches_root_oracle(rng):
    # move node s past the S-zero in its arc (s, s+1), 95 % of the way to
    # node s+1. S follows the nodes, so the moved set need not violate; the
    # two checks must agree on which sets do. For odd n, S = K/q has a pole
    # at the zero of the half-degree factor q: a set whose K has no zero in
    # that arc changes sign there through the pole, which the sign count
    # reads as separated and the root oracle does not; S then misses R
    # everywhere, and max_s_minus_r fails the set instead.
    both = 0
    for rule, c in _oracle_rules(rng, 40, 40):
        zeros = s_zero_verdict(rule, c)[3]
        s = int(rng.integers(0, rule.n - 1))
        inside = zeros[(zeros > rule.nodes[s]) & (zeros < rule.nodes[s + 1])]
        nodes = rule.nodes.copy()
        nodes[s] = inside[0] + 0.95 * (rule.nodes[s + 1] - inside[0])
        moved = dataclasses.replace(rule, nodes=nodes)
        trace = sq.s_function(moved, c)
        violations = s_zero_verdict(moved, c)[0]
        if rule.n % 2 and violations and not trace.interlacing_violations:
            assert trace.max_s_minus_r > 1e-2
        else:
            assert (trace.interlacing_violations == 0) == (violations == 0)
        both += bool(trace.interlacing_violations and violations)
    assert both >= 20


def test_s_function_requires_half_degree_exactness():
    rule = sq.generate_rule(sq.Lebesgue(), 6, 4, [0.1, 0.1, 0.1, 0.1], 1.0)
    with pytest.raises(ValueError):
        sq.s_function(rule, sq.moments(sq.Lebesgue(), 6))


def test_s_function_needs_half_degree_moments():
    rule = sq.generate_rule(sq.Lebesgue(), 8, 0)
    with pytest.raises(ValueError, match="need moments to k=4"):
        sq.s_function(rule, sq.moments(sq.Lebesgue(), 3))


def test_s_function_skips_samples_near_nodes():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    samples = np.concatenate([[rule.nodes[0] + 1e-12], np.linspace(0.1, 1.0, 5)])
    trace = sq.s_function(rule, sq.moments(sq.Lebesgue(), 4), samples=samples)
    assert len(trace.skipped) == 1
    assert trace.skipped[0][1] == "kernel-singularity"


def test_s_function_record_fields():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rec = sq.s_function(rule, sq.moments(sq.Lebesgue(), 4)).to_record()
    assert "max_s_minus_r" in rec and "interlacing_violations" in rec


# --- orthogonality ---------------------------------------------------------------

def test_orthogonality_lebesgue_szego_rule():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rep = sq.check_orthogonality(rule, sq.moments(sq.Lebesgue(), 4))
    assert rep.max_violation < 1e-12
    assert rep.n_checked > 0


def test_orthogonality_szego_rules_random_bases(rng):
    for _ in range(10):
        n = int(rng.integers(2, 14))
        base = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1)) \
            * rng.uniform(0.1, 1.0, n - 1)
        measure = sq.ExplicitVerblunsky(base)
        rule = sq.generate_rule(measure, n, 0, (), np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rep = sq.check_orthogonality(rule, sq.moments(measure, n))
        assert rep.max_violation < 1e-10


def test_orthogonality_reduced_rules(rng):
    for _ in range(10):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=14)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        rep = sq.check_orthogonality(rule, sq.moments(measure, n))
        if rep.n_checked:
            assert rep.max_violation < 1e-10


def test_orthogonality_explicit_weight_lebesgue():
    tail = [0.3, -0.2 + 0.1j]
    rule = sq.generate_rule(sq.Lebesgue(), 8, 2, tail, np.exp(0.4j))
    rep = sq.check_orthogonality(rule, sq.moments(sq.Lebesgue(), 8))
    assert rep.max_violation < 1e-12
    spec = spec_for_rule(sq.Lebesgue(), 8, 2, tail, np.exp(0.4j))
    assert explicit_weight_orthogonality(spec) < 1e-12


def test_orthogonality_moment_length():
    # c_0..c_n are needed, and longer c is cut to them
    measure = sq.BernsteinSzego(0.5)
    rule = sq.generate_rule(measure, 8, 0, eta=np.exp(0.4j))
    with pytest.raises(ValueError, match="k=8"):
        sq.check_orthogonality(rule, sq.moments(measure, 7))
    exact = sq.check_orthogonality(rule, sq.moments(measure, 8))
    assert sq.check_orthogonality(rule, sq.moments(measure, 40)) == exact


@pytest.mark.parametrize("n", [16, 512])
@pytest.mark.parametrize("measure", [sq.Lebesgue(), sq.BernsteinSzego(0.5)],
                         ids=["lebesgue", "bernstein-szego"])
def test_orthogonality_moved_node_fails(measure, n):
    # relative to sum|co| max|c|: the absolute violation of a node moved by
    # 1e-6 read 1.5e-11 at n = 16 and 7e-161 at n = 512
    rule = sq.generate_rule(measure, n, 0, eta=np.exp(0.4j))
    c = sq.moments(measure, n)
    assert sq.check_orthogonality(rule, c).max_violation < 1e-12
    nodes = rule.nodes.copy()
    nodes[n // 2] += 1e-6
    moved = dataclasses.replace(rule, nodes=nodes)
    assert sq.check_orthogonality(moved, c).max_violation > 1e-8


def test_orthogonality_empty_class():
    rule = sq.generate_rule(sq.Lebesgue(), 3, 2, [0.1, 0.2], 1.0)
    rep = sq.check_orthogonality(rule, sq.moments(sq.Lebesgue(), 3))
    assert rep.n_checked == 0
    assert rep.max_violation == 0.0


# --- interlacing ------------------------------------------------------------------

def test_interlacing_same_level_distinct_eta(rng):
    measure = sq.ExplicitVerblunsky([0.3, -0.2j, 0.15])
    rule = sq.generate_rule(measure, 4, 0, (), 1.0)
    rep = sq.check_interlacing(rule, measure, 0, np.exp(0.9j))
    assert rep.violations == 0
    assert all(cnt == 1 for cnt in rep.arc_counts)


def test_interlacing_lebesgue_explicit():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rep = sq.check_interlacing(rule, sq.Lebesgue(), 1, 1.0)
    # reference zeros are the cube roots of -1: arcs (pi/3, pi), (pi, 5pi/3)
    # and (5pi/3, 7pi/3) hold 3pi/4, 5pi/4 and 7pi/4, pi/4
    assert rep.arc_counts == (1, 1, 2)
    assert rep.violations == 0


def test_interlacing_reference_zero_at_origin():
    # kappa = -1: the reference zeros are the cube roots of 1, one of them at
    # phi = 0, which opens arc 0
    rule = sq.generate_rule(sq.Lebesgue(), 4, 0)
    rep = sq.check_interlacing(rule, sq.Lebesgue(), 1, -1.0)
    assert rep.arc_counts == (1, 2, 1)
    assert rep.violations == 0


def _reference_arc_counts(rule, measure, l, kappa):
    """Rule nodes strictly inside each arc between the level-(n-l) zeros,
    with the zeros found by find_nodes."""
    level = rule.n - l
    spec = ParaOrthogonalSpec(sq.verblunsky_prefix(measure, level - 1), (), kappa, level, 0)
    psi = sq.find_nodes(spec)
    ext = np.append(psi, psi[0] + 2 * np.pi)
    counts = []
    for lo, hi in zip(ext[:-1], ext[1:]):
        lifted = np.where(rule.nodes < lo, rule.nodes + 2 * np.pi, rule.nodes)
        counts.append(int(np.sum((lifted > lo) & (lifted < hi))))
    return tuple(counts)


def test_interlacing_random_ensemble(rng):
    for _ in range(100):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=20)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        l = int(rng.integers(m, n))
        kappa = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rep = sq.check_interlacing(rule, measure, l, kappa)
        expect = _reference_arc_counts(rule, measure, l, kappa)
        assert rep.violations == sum(cnt == 0 for cnt in expect) == 0
        assert rep.arc_counts == expect


def test_interlacing_runs_no_node_finder(monkeypatch):
    def forbidden(spec):
        raise AssertionError("check_interlacing called find_nodes")

    # no check re-runs generation: validation does not hold the node finder
    assert not hasattr(validation, "find_nodes")
    measure = sq.BernsteinSzego(0.5)
    rule = sq.generate_rule(measure, 32, 0, eta=np.exp(0.4j))
    monkeypatch.setattr(rulegen, "find_nodes", forbidden)
    assert sq.check_interlacing(rule, measure, 3, np.exp(0.7j)).violations == 0


def test_interlacing_validates_l_range():
    rule = sq.generate_rule(sq.Lebesgue(), 4, 2, [0.1, 0.1], 1.0)
    with pytest.raises(ValueError):
        sq.check_interlacing(rule, sq.Lebesgue(), 1, 1.0)


# --- asymptotics -------------------------------------------------------------------

def test_asymptotics_lebesgue_identically_zero():
    reports = sq.asymptotic_report(sq.Lebesgue(), [4, 8, 16])
    for rep in reports:
        assert rep.max_deviation < 1e-12


def test_asymptotics_bernstein_szego_decreasing():
    reports = sq.asymptotic_report(sq.BernsteinSzego(0.5), [8, 16, 32, 64])
    devs = [rep.max_deviation for rep in reports]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # halves per doubling within factor 1.5
    for a, b in zip(devs, devs[1:]):
        assert b <= 1.5 * a / 2


def test_asymptotics_with_tail(rng):
    reports = sq.asymptotic_report(
        sq.BernsteinSzego(0.5), [8, 16, 32, 64], m=1, tail=[0.3],
    )
    devs = [rep.max_deviation for rep in reports]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert np.max(np.abs(reports[0].g_values - 1.0)) > 1e-3   # tail factor active


@pytest.mark.parametrize("m", [1, 3, 6])
def test_asymptotics_tail_factor_from_qm_phase(rng, m):
    # g from theta_beta' matches the derivative form 1 - (2/n) Re{z q_m*'/q_m*}
    n = 24
    tail = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.2, 1.0, m)
    eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
    rep = sq.asymptotic_report(sq.BernsteinSzego(0.5), [n], m=m, tail=tail, eta=eta)[0]
    z = np.exp(1j * rep.rule.nodes)
    qb = sq.szego_eval(rulegen.qm_recurrence_coeffs(tail, rep.rule.eta), z, with_derivatives=True)
    g_old = 1.0 - (2.0 / n) * (z * qb.dphi_star / qb.phi_star).real
    assert np.max(np.abs(rep.g_values - g_old)) <= 1e-13
    assert np.max(np.abs(rep.g_values - 1.0)) > 1e-3


def test_asymptotics_need_density():
    with pytest.raises(UnsupportedVariantError):
        sq.asymptotic_report(sq.ExplicitMoments([1, 0.5, 0.25]), [4])


def test_asymptotics_record_field():
    rep = sq.asymptotic_report(sq.Lebesgue(), [4])[0]
    assert "max_asym_dev" in rep.to_record()


# --- Szego function -----------------------------------------------------------------

def test_szego_function_flat():
    assert sq.szego_function(sq.Lebesgue(), 0.3 + 0.2j) == pytest.approx(1.0)


def test_szego_function_recovers_density():
    rep = sq.szego_report(sq.BernsteinSzego(0.5), [1, 2, 8], grid_size=1024)
    assert rep.density_residual < 1e-8


def test_szego_constant_trend_bernstein():
    rep = sq.szego_report(sq.BernsteinSzego(0.5), [1, 2, 5, 9])
    assert np.allclose(rep.kn_half, 0.75)
    assert rep.limit == pytest.approx(0.75, abs=1e-12)
    assert rep.max_trend_gap < 1e-12


def test_szego_constant_trend_infinite_sequence():
    # K_n/2 decreases monotonically toward exp(mean log f) when the
    # coefficient sequence never terminates
    grid = 2 * np.pi * np.arange(4096) / 4096
    spec = sq.DensitySamples(np.exp(0.5 * np.cos(grid)))
    rep = sq.szego_report(spec, [1, 2, 4, 8], grid_size=4096)
    gaps = [k - rep.limit for k in rep.kn_half]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_szego_function_log_singularity():
    vals = np.ones(64)
    vals[10] = 0.0
    with pytest.raises(LogSingularityError):
        sq.szego_function(sq.DensitySamples(vals), 0.0)


def test_s_zero_separation_by_sign_changes(rng):
    # independent oracle: count sign changes of S on a dense grid between
    # consecutive nodes instead of extracting polynomial roots
    measure = sq.ExplicitVerblunsky([0.35, -0.2j, 0.15 + 0.1j])
    rule = sq.generate_rule(measure, 4, 0, (), np.exp(0.8j))
    c = sq.moments(measure, 4)
    trace = sq.s_function(rule, c)
    nodes = rule.nodes
    ext = np.concatenate([nodes, [nodes[0] + 2 * np.pi]])
    assert trace.arc_counts == (1,) * rule.n
    for i in range(rule.n):
        grid = np.linspace(ext[i] + 1e-6, ext[i + 1] - 1e-6, 200)
        dense = sq.s_function(rule, c, samples=grid)
        changes = np.sum(np.diff(np.sign(dense.s_values)) != 0)
        assert changes == 1


def test_real_imag_parts_of_inner_polynomial_alternate(rng):
    # the two halves of the rotated inner polynomial z*p: its real part
    # vanishes at the nodes, its imaginary part at the on-circle zeros of
    # eta*p* - z*p, and the two zero sets strictly alternate
    for _ in range(10):
        measure, n, m, tail, eta = random_rule_setup(rng, n_max=14)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        _, n_poly = validation._nodes_polys(rule.nodes, rule.weights)
        roots = np.roots(n_poly[::-1])
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-7
        imag_zeros = np.sort(np.mod(np.angle(roots), 2 * np.pi))
        ext = np.concatenate([rule.nodes, [rule.nodes[0] + 2 * np.pi]])
        for i in range(n):
            lifted = np.where(imag_zeros < ext[i], imag_zeros + 2 * np.pi, imag_zeros)
            assert np.sum((lifted > ext[i]) & (lifted < ext[i + 1])) == 1


@pytest.mark.parametrize("n", [2200, 4096])
def test_nodes_polys_uniform_nodes_do_not_overflow(n):
    # prod (z - e^{i(a + 2 pi s)/n}) = z^n - e^{ia}; in node order the
    # partial products overflowed at n = 2200
    a = 0.3
    t_poly = validation._nodes_polys((a + 2 * np.pi * np.arange(n)) / n)
    expect = np.zeros(n + 1, dtype=complex)
    expect[0], expect[n] = -np.exp(1j * a), 1.0
    assert np.max(np.abs(t_poly - expect)) < 1e-10


def test_s_function_matches_direct_kernel_integral():
    # literal definition check for an even node count (where the nodes
    # polynomial is periodic and the integral is well defined):
    # S(psi) = (1/2pi) int cot((phi-psi)/2) (T(psi) - T(phi)) f(phi) dphi.
    # The integrand's singularity at phi = psi is removable, so the periodic
    # trapezoid rule converges spectrally and is independent of the moment
    # reduction. For odd node counts the literal formula depends on where
    # the anti-periodic T is cut, and only the half-degree-regularized
    # version used by s_function satisfies the weight identities.
    measure = sq.BernsteinSzego(0.5)
    rule = sq.generate_rule(measure, 6, 1, [0.25], np.exp(0.3j))
    samples = np.array([0.7, 2.1, 4.4])
    trace = sq.s_function(rule, sq.moments(measure, 6), samples=samples)
    grid = 2 * np.pi * np.arange(16384) / 16384
    fvals = sq.density_eval(measure, grid)

    def t_eval(phis):
        # T = 2^n prod sin((phi - phi_s)/2), the scale s_function uses
        out = np.ones_like(phis)
        for p in rule.nodes:
            out = out * 2 * np.sin((phis - p) / 2)
        return out

    t_grid = t_eval(grid)
    for psi, s_val in zip(trace.psi, trace.s_values):
        integrand = 1.0 / np.tan((grid - psi) / 2) * (t_eval(np.array([psi]))[0] - t_grid) * fvals
        s_direct = np.mean(integrand)
        assert abs(s_direct - s_val) < 1e-12
