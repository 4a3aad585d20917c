"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import json
import time

import numpy as np

import szquad as sq
from szquad import cli
from szquad.opuc_core import moments_from_alphas
from szquad.rulegen import build_modified_sequence, spec_for_rule

from conftest import grid_moments
from oracles import nodes_polynomial, weights_qm_formula, weights_vandermonde_oracle


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_1_lebesgue_golden():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (1, 2, 4, 8, 16):
        rule = sq.generate_rule(sq.Lebesgue(), n, 0, (), 1.0)
        expect = (2 * np.arange(n) + 1) * np.pi / n
        node_err = np.max(np.abs(rule.nodes - expect))
        weight_err = np.max(np.abs(rule.weights - 1.0 / n))
        rep = sq.check_exactness(rule, sq.moments(sq.Lebesgue(), n + 1), n + 1)
        ok &= node_err <= 1e-12 and weight_err <= 1e-13 and rep.precise_degree == n - 1
        detail.append(f"n={n}: node_err={node_err:.1e} w_err={weight_err:.1e} "
                      f"deg={rep.precise_degree}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert report(1, "lebesgue-golden", ok, f"{elapsed:.2f}s; " + "; ".join(detail[:2]))


def test_criterion_2_bernstein_szego_golden():
    spec = sq.BernsteinSzego(0.5)
    # moments validated against the 4096-point grid oracle first
    c_grid = grid_moments(lambda p: sq.density_eval(spec, p), 20)
    moment_err = float(np.max(np.abs(c_grid - 0.5 ** np.arange(21))))
    ok = moment_err <= 1e-10
    worst_triple = 0.0
    for n in range(1, 21):
        rule = sq.generate_rule(spec, n, 0, (), 1.0)
        c = sq.moments(spec, n + 1)
        rep = sq.check_exactness(rule, c, n + 1)
        ok &= rep.precise_degree == n - 1 and np.min(rule.weights) > 0
        pspec = spec_for_rule(spec, n, 0, (), 1.0)
        w_split = weights_qm_formula(pspec, rule.nodes)
        c_mod = moments_from_alphas(build_modified_sequence(pspec), max(n - 1, 0))
        w_lsq = weights_vandermonde_oracle(rule.nodes, c_mod, n - 1)
        worst_triple = max(worst_triple,
                           float(np.max(np.abs(rule.weights - w_split) / rule.weights)),
                           float(np.max(np.abs(rule.weights - w_lsq) / rule.weights)))
    ok &= worst_triple <= 1e-9
    assert report(2, "bernstein-szego-golden", ok,
                  f"moment_err={moment_err:.1e} triple={worst_triple:.1e}")


def test_criterion_3_equivalence_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    P = np.polynomial.polynomial
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(0, n))
        base = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1)) \
            * rng.uniform(0.1, 1.0, n - m - 1)
        tail = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.1, 1.0, m)
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        measure = sq.ExplicitVerblunsky(base)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        c = sq.moments(measure, n + 1)

        # (a) positivity plus exactness through n-1-m
        rep = sq.check_exactness(rule, c, n + 1)
        ok &= np.min(rule.weights) > 0 and rep.precise_degree >= n - 1 - m

        # (b) splitting identity at coefficient level
        pspec = spec_for_rule(measure, n, m, tail, eta)
        lhs = nodes_polynomial(pspec)
        q = sq.build_qm(tail, eta)
        qs = sq.reversed_poly(q, m)
        phi, phi_star, _, _ = sq.szego_coeffs(base)
        rhs = np.concatenate(([0], P.polymul(q, phi))) \
            + eta * np.pad(P.polymul(qs, phi_star), (0, 1))
        ok &= float(np.max(np.abs(lhs - rhs))) <= 1e-11

        # (c) inner polynomial in the disk + series match through n-m-1
        cm = sq.caratheodory_match(rule, c)
        ok &= cm.schur_in_disk and cm.max_error <= 1e-9
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert report(3, "equivalence-suite", ok, f"100 specs in {elapsed:.1f}s")


def test_criterion_4_s_function_suite():
    rng = np.random.default_rng(22)
    ok = True
    done = 0
    worst_sr = 0.0
    worst_w = 0.0
    while done < 50:
        n = int(rng.integers(2, 13))
        m_hi = n - 1 - (n // 2 + n % 2)
        if m_hi < 0:
            continue
        m = int(rng.integers(0, m_hi + 1))
        base = 0.45 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1)) \
            * rng.uniform(0.1, 1.0, n - m - 1)
        tail = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.1, 1.0, m)
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        measure = sq.ExplicitVerblunsky(base)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        trace = sq.s_function(rule, sq.moments(measure, n))
        worst_sr = max(worst_sr, trace.max_s_minus_r / n)
        worst_w = max(worst_w, trace.weight_residual)
        ok &= trace.max_s_minus_r <= 1e-9 * n
        ok &= trace.weight_residual <= 1e-10
        ok &= trace.interlacing_violations == 0 and trace.sign_consistent
        done += 1
    assert report(4, "s-function-suite", ok,
                  f"max|S-R|/n={worst_sr:.1e} weight_resid={worst_w:.1e}")


def test_criterion_5_interlacing_suite():
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(0, n))
        base = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, n - m - 1)) \
            * rng.uniform(0.1, 1.0, n - m - 1)
        tail = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.1, 1.0, m)
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        measure = sq.ExplicitVerblunsky(base)
        rule = sq.generate_rule(measure, n, m, tail, eta)
        l = int(rng.integers(m, n))
        kappa = np.exp(1j * rng.uniform(0, 2 * np.pi))
        violations += sq.check_interlacing(rule, measure, l, kappa).violations
    assert report(5, "interlacing-suite", violations == 0,
                  f"violations={violations}")


def test_criterion_6_asymptotics():
    # The weights are Christoffel numbers, mu_s = 1 / sum_{j<n} |phi_j(z_s)|^2.
    # For BS(1/2), phi_0 = 1 and |phi_j|^2 = 1/f on the circle for j >= 1, so
    # 1/(n mu_s) = 1/n + (n-1)/(n f) at every node. The deviation from 1/f is
    # then exactly |cos(phi_s) - 1/2| / (3n/4), which is at most 2/n.
    t0 = time.monotonic()
    reports = sq.asymptotic_report(sq.BernsteinSzego(0.5), [8, 16, 32, 64])
    devs = [rep.max_deviation for rep in reports]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    residual = 0.0
    for rep in reports:
        n = rep.n
        expect = 1.0 / n + (n - 1) / (n * rep.f_values)
        residual = max(residual, float(np.max(np.abs(rep.inv_n_mu - expect))))
    identity_ok = residual <= 1e-12
    scaled = [rep.n * rep.max_deviation for rep in reports]
    bound_ok = all(s <= 2.0 + 1e-12 for s in scaled)
    leb = sq.asymptotic_report(sq.Lebesgue(), [8, 16, 32, 64])
    leb_ok = all(rep.max_deviation < 1e-12 for rep in leb)
    elapsed = time.monotonic() - t0
    ok = decreasing and identity_ok and bound_ok and leb_ok and elapsed < 10.0
    assert report(
        6, "asymptotics", ok,
        f"devs={['%.4f' % d for d in devs]} decreasing={decreasing} "
        f"n*dev={['%.6f' % s for s in scaled]} (<=2: {bound_ok}) "
        f"identity_residual={residual:.1e} (<=1e-12: {identity_ok}) "
        f"lebesgue_zero={leb_ok} {elapsed:.1f}s",
    )


def test_criterion_7_interval_transfer():
    ok = True
    details = []
    for n in (4, 8, 12):
        rule = sq.generate_rule(sq.Lebesgue(), n, 0, (), 1.0)
        ir = sq.circle_to_interval(rule)
        err = sq.check_algebraic_exactness(ir, sq.chebyshev_weight_moments(n), n - 1)
        ok &= err <= 1e-11
        details.append(f"n={n}: err={err:.1e}")
    for n in (2, 6):
        rule = sq.generate_rule(sq.Lebesgue(), n, 0, (), -1.0)
        ir = sq.circle_to_interval(rule)
        ok &= ir.x[0] == 1.0 and ir.x[-1] == -1.0
        ok &= np.min(ir.lam) > 0
        ok &= abs(np.sum(ir.lam) - 1.0) <= 1e-12
    assert report(7, "interval-transfer", ok, "; ".join(details))


def test_criterion_8_determinism_and_exit_codes(tmp_path, capsys):
    args = ["generate", "--measure", "bernstein-szego:0.5", "--n", "7",
            "--m", "1", "--tail", "0.25,-0.1", "--eta", "0.2turns"]
    code1 = cli.main(args)
    out1 = capsys.readouterr().out
    code2 = cli.main(args)
    out2 = capsys.readouterr().out
    deterministic = code1 == 0 and code2 == 0 and out1 == out2

    rule_path = tmp_path / "rule.json"
    assert cli.main(["generate", "--measure", "bernstein-szego:0.5", "--n", "6",
                     "--output", str(rule_path)]) == 0
    capsys.readouterr()
    data = json.loads(rule_path.read_text())
    data["weights"][0] += 1e-3
    rule_path.write_text(json.dumps(data))
    code_bad = cli.main(["verify", "--measure", "bernstein-szego:0.5",
                         "--rule", str(rule_path)])
    capsys.readouterr()
    negative_control = code_bad == 1

    usage = cli.main(["generate", "--measure", "lebesgue", "--n", "4", "--m", "2",
                      "--tail", "0.1,0"])
    capsys.readouterr()
    usage_ok = usage == 2

    ok = deterministic and negative_control and usage_ok
    assert report(8, "determinism-exit-codes", ok,
                  f"deterministic={deterministic} perturbed_exit1={negative_control} "
                  f"usage_exit2={usage_ok}")
