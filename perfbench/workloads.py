"""The four workloads: their seeded inputs, their timed operations, and the
check of each operation's output against the oracles in oracle.py.

Every round of a workload runs the same operations on the same inputs, which
are drawn once from the seed. Sizes are fixed per operation so that the seed
moves what the program computes (coefficients, tails, eta, pinned angles) but
not how much work a round holds.

Set-up imports neither oracle.py nor mpmath: run.py times it in a fresh
interpreter, where they would count as the program's set-up. The checks
import oracle.py when they first run.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import szquad as sq
import szquad.cli

WORKLOADS = ("rule_small", "rule_large", "rule_localized", "cli_check")

PERTURB_STEP = 1e-9     # negative control: node shift in rad, weight scale 1 + step
PERTURBATIONS = ("weight", "weight-renorm", "node")
VERIFY_STEP = 1e-4      # perturbation of the rule files that `szq verify` must FAIL


@dataclass
class Op:
    """One timed call into szquad and the check of its output.

    check(output, perturb) returns (problems, worst relative error or None);
    key(output) identifies an output so a repeat need not be checked again.
    """

    name: str
    run: Callable
    check: Callable
    key: Callable
    nodes: int
    fault: Optional[str] = None


# --- oracle side of each measure ---------------------------------------------

class Reference:
    """Coefficients and moments of one measure from the oracles, computed on
    first use and kept for the run. `kind` and `value` name the measure as in
    oracle.measure_moments. The weights of its rules are checked against
    oracle.WEIGHT_REL_TOL, or WEIGHT_REL_TOL_LOOSE when `loose_weights`."""

    def __init__(self, kind, value, loose_weights=False):
        self.kind = kind
        self.value = value
        self.loose_weights = loose_weights
        self._alphas = []
        self._moments = []

    def alphas(self, count):
        if len(self._alphas) < count:
            import oracle
            self._alphas = oracle.measure_alphas(self.kind, self.value, count)
        return self._alphas[:count]

    def moments(self, count):
        if len(self._moments) < count + 1:
            import oracle
            self._moments = oracle.measure_moments(self.kind, self.value, count)
        return self._moments[: count + 1]


# --- seeded inputs -------------------------------------------------------------

def _disk(rng, count, radius):
    """`count` points uniform in the disk of the given radius."""
    return [complex(v) for v in radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))]


def _unimodular(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def _roots(rng, count, lo=0.1, hi=0.7):
    return [complex(r * np.exp(2j * np.pi * t)) for r, t in zip(rng.uniform(lo, hi, count), rng.random(count))]


def _trig_density(rng, degree=5):
    """A positive density |sum_j d_j e^{ij phi}|^2 + eps, eps = sum|d_j|^2 / 5.
    Returns d, eps and its moments c_0..c_degree in floating point, not
    normalized (zero beyond the degree)."""
    d = [complex(v) for v in rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)]
    eps = 0.2 * sum(abs(v) ** 2 for v in d)
    c = [sum(d[l + k] * d[l].conjugate() for l in range(degree + 1 - k)) for k in range(degree + 1)]
    c[0] += eps
    return d, eps, c


def _density_samples(d, eps, grid):
    phi = 2 * np.pi * np.arange(grid) / grid
    poly = sum(dj * np.exp(1j * j * phi) for j, dj in enumerate(d))
    return np.abs(poly) ** 2 + eps


def _moment_floats(c, count):
    """c_0..c_count as the floats handed to the program (zero beyond the degree)."""
    out = [complex(v) for v in c[: count + 1]]
    return out + [0j] * (count + 1 - len(out))


# --- output handling -------------------------------------------------------------

def perturbed(nodes, weights, how):
    """Copies of a rule with the negative-control change applied: the largest
    weight scaled by 1 + PERTURB_STEP ("weight"), the same with the weights
    renormalized to sum 1 ("weight-renorm"), or the middle node moved by
    PERTURB_STEP ("node")."""
    nodes = np.array(nodes, dtype=float)
    weights = np.array(weights, dtype=float)
    if how in ("weight", "weight-renorm"):
        weights[int(np.argmax(weights))] *= 1 + PERTURB_STEP
        if how == "weight-renorm":
            weights /= weights.sum()
    elif how == "node":
        nodes[len(nodes) // 2] += PERTURB_STEP
    return nodes, weights


def _circular_distance(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def _check_rule(nodes, weights, eta, n, m, ref, tail, perturb, want_eta=None, node_at=None):
    import oracle
    nodes, weights = perturbed(nodes, weights, perturb)
    modified = ref.alphas(n - m - 1) + list(tail)
    problems, err = oracle.check_circle_rule(nodes, weights, n, m, modified, eta,
                                             ref.moments(n - 1 - m),
                                             oracle.WEIGHT_REL_TOL_LOOSE if ref.loose_weights
                                             else oracle.WEIGHT_REL_TOL)
    if abs(abs(eta) - 1) > 1e-14:
        problems.append(f"|eta| = {abs(eta):.17g}")
    if want_eta is not None and abs(eta - want_eta) > 1e-14:
        problems.append(f"eta {eta} differs from the requested {want_eta}")
    if node_at is not None and min(_circular_distance(p, node_at) for p in nodes) > 1e-12:
        problems.append(f"no node at the pinned angle {node_at!r}")
    return problems, err


def rule_op(name, measure, ref, n, m, tail=(), eta=None, node_at=None, fault=None):
    """generate_rule through the public API."""
    tail = list(tail)

    def run():
        return sq.generate_rule(measure, n, m, tail, eta=1.0 if eta is None else eta,
                                node_at=node_at)

    def check(rule, perturb):
        want = None if node_at is not None else (1.0 if eta is None else eta)
        return _check_rule(rule.nodes, rule.weights, complex(rule.eta), n, m, ref, tail,
                           perturb, want_eta=want, node_at=node_at)

    def key(rule):
        return rule.nodes.tobytes() + rule.weights.tobytes() + repr(rule.eta).encode()

    return Op(name, run, check, key, n, fault)


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = szquad.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_op(name, argv, check_text, nodes, fault=None):
    """szquad.cli.main on argv; check_text(code, stdout, perturb) judges the output."""

    def check(output, perturb):
        code, text, err = output
        problems, value = check_text(code, text, perturb)
        if problems and err:
            problems.append("stderr: " + err.strip().splitlines()[-1])
        return problems, value

    return Op(name, lambda: _call_cli(argv), check, lambda output: repr(output).encode(),
              nodes, fault)


def _fmt(x):
    return format(float(x), ".17g")


def _pair(z):
    return f"{_fmt(complex(z).real)},{_fmt(complex(z).imag)}"


# --- rule_small ---------------------------------------------------------------------

SMALL_SIZES = (24, 32, 40, 48, 56, 64)
SMALL_GRID = 512


def setup_rule_small(rng, workdir):
    ops = []
    for n in SMALL_SIZES:
        for kind in ("lebesgue", "bernstein-szego", "moments", "density"):
            if kind == "lebesgue":
                measure, ref = sq.Lebesgue(), Reference("lebesgue", None)
            elif kind == "bernstein-szego":
                roots = _roots(rng, int(rng.integers(1, 4)))
                measure, ref = sq.BernsteinSzego(roots), Reference(kind, roots)
            elif kind == "moments":
                _, _, c = _trig_density(rng)
                given = _moment_floats(c, max(SMALL_SIZES))
                measure, ref = sq.ExplicitMoments(given), Reference("moments", given)
            else:
                d, eps, _ = _trig_density(rng)
                measure = sq.DensitySamples(_density_samples(d, eps, SMALL_GRID))
                ref = Reference("trig", (d, eps))
            m = int(rng.integers(0, n // 4 + 1))
            tail = _disk(rng, m, 0.5)
            eta = _unimodular(rng)
            node_at = float(2 * np.pi * rng.random()) if len(ops) % 5 == 4 else None
            ops.append(rule_op(f"{kind}/n={n}", measure, ref, n, m, tail,
                               eta=None if node_at is not None else eta, node_at=node_at))
    return ops, []


# --- rule_large ------------------------------------------------------------------------

LARGE_N = 1024


def setup_rule_large(rng, workdir):
    real_root = [float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))]
    three = _roots(rng, 3)
    coeffs = _disk(rng, 16, 0.3)
    cases = [
        ("lebesgue", sq.Lebesgue(), Reference("lebesgue", None)),
        ("bernstein-szego-real", sq.BernsteinSzego(real_root), Reference("bernstein-szego", real_root)),
        ("bernstein-szego-3", sq.BernsteinSzego(three), Reference("bernstein-szego", three)),
        ("verblunsky-16", sq.ExplicitVerblunsky(coeffs), Reference("verblunsky", coeffs)),
    ]
    ops = []
    for (label, measure, ref), m in zip(cases, (0, 4, 0, 4)):
        ops.append(rule_op(f"{label}/m={m}", measure, ref, LARGE_N, m,
                           _disk(rng, m, 0.5), eta=_unimodular(rng)))
    return ops, []


# --- rule_localized ------------------------------------------------------------------------

def setup_rule_localized(rng, workdir):
    ops = []
    # eta stays 1 on the Geronimus measures: at other eta the node residual bound
    # and the second-kind weights fail on about half of the unit circle
    for a in (-0.6, -0.4, 0.4j):
        measure, ref = sq.Geronimus(a), Reference("geronimus", a)
        for n in (64, 128):
            ops.append(rule_op(f"geronimus({a})/n={n}", measure, ref, n, 0))
    # the phases come from a fixed generator: the time of these rules swings by
    # more than a factor of two with them, which would move the median by more
    # than the seed-to-seed bound. The seed moves eta at n = 64, a rule that
    # runs faster than the median; at n = 128 eta stays 1, since that rule's
    # time lies next to the median of a round and moves it with eta.
    phases = np.random.default_rng(0).random(16)
    coeffs = [complex(0.7 * np.exp(2j * np.pi * t)) for t in phases]
    measure = sq.ExplicitVerblunsky(coeffs)
    ref = Reference("verblunsky", coeffs, loose_weights=True)
    ops.append(rule_op("verblunsky-16(0.7)/n=64", measure, ref, 64, 0, eta=_unimodular(rng)))
    ops.append(rule_op("verblunsky-16(0.7)/n=128", measure, ref, 128, 0))
    ops.append(rule_op("winding_seam", sq.Geronimus(0.6), Reference("geronimus", 0.6), 32, 0,
                       node_at=0.0, fault="winding_seam"))
    ops.append(rule_op("residual_scale", sq.Geronimus(0.4j), Reference("geronimus", 0.4j), 128, 0,
                       eta=complex(np.exp(0.7j)), fault="residual_scale"))
    return ops, []


# --- cli_check ---------------------------------------------------------------------------

def _write_rule(path, rule_dict):
    with open(path, "w") as fh:
        json.dump(rule_dict, fh)


def _generate_check(ref, n, m, tail, want_eta=None, node_at=None):
    def check(code, text, perturb):
        if code != 0:
            return [f"exit code {code}"], None
        data = json.loads(text)
        eta = complex(*data["eta"])
        problems, err = _check_rule(data["nodes"], data["weights"], eta, n, m, ref, tail, perturb,
                                    want_eta=want_eta, node_at=node_at)
        if data["precise_degree"] < n - 1 - m:
            problems.append(f"precise_degree {data['precise_degree']} for a rule exact "
                            f"through {n - 1 - m}")
        return problems, err
    return check


def _verify_check(expect_pass):
    def check(code, text, perturb):
        verdict = text.strip().splitlines()[-1] if text.strip() else ""
        want = ("PASS", 0) if expect_pass else ("FAIL", 1)
        if (verdict, code) != want:
            detail = " | ".join(text.strip().splitlines()[:-1])
            return [f"verify said {verdict or '(nothing)'} with exit {code}, expected {want[0]}: {detail}"], None
        return [], None
    return check


def _sweep_check(b, n_list, eta):
    def check(code, text, perturb):
        import oracle
        if code != 0:
            return [f"exit code {code}"], None
        lines = text.strip().splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        problems = []
        if [int(r[0]) for r in rows] != list(n_list):
            return [f"sweep rows {[r[0] for r in rows]}, expected {list(n_list)}"], None
        worst = 0.0
        devs = []
        for (_, dev_text, degree_text), n in zip(rows, n_list):
            want = oracle.bernstein_szego_real_asym_dev(b, n, eta)
            rel = abs(float(dev_text) - want) / want
            worst = max(worst, rel)
            devs.append(want)
            if rel > 1e-9:
                problems.append(f"n={n}: max_asym_dev {dev_text}, oracle {want:.17g}")
            if int(degree_text) < n - 1:
                problems.append(f"n={n}: precise_degree {degree_text} below {n - 1}")
        decreasing = all(y < x for x, y in zip(devs, devs[1:]))
        if lines[-1] != f"# trend decreasing={'true' if decreasing else 'false'}":
            problems.append(f"trend line {lines[-1]!r}")
        return problems, worst
    return check


def _transform_check(degree, roots=None):
    """The fold of Lebesgue (roots None) is checked against the Chebyshev
    moments, that of Bernstein-Szegő(roots) against its folded moments."""
    def check(code, text, perturb):
        import oracle
        if code != 0:
            return [f"exit code {code}"], None
        lines = text.strip().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        x, lam = rows[:, 0].copy(), rows[:, 1].copy()
        if perturb in ("weight", "weight-renorm"):
            lam[int(np.argmax(lam))] *= 1 + PERTURB_STEP
            if perturb == "weight-renorm":
                lam /= lam.sum()
        elif perturb == "node":
            i = len(x) // 2
            x[i] = math.cos(math.acos(x[i]) + PERTURB_STEP)
        if roots is None:
            m_ref = oracle.chebyshev_moments(degree)
        else:
            m_ref = oracle.interval_moments(oracle.bernstein_szego_moments(roots, degree), degree)
        problems, err = oracle.check_interval_rule(x, lam, degree, m_ref)
        if lines[-1] != f"# degree={degree}":
            problems.append(f"degree line {lines[-1]!r}, expected degree {degree}")
        return problems, err
    return check


def setup_cli_check(rng, workdir):
    ops, confirm = [], []

    def path(name):
        return os.path.join(workdir, name)

    # generate: two-root Bernstein-Szegő with a tail, moments from a file,
    # Lebesgue with a pinned node, and the Geronimus degree report
    roots = _roots(rng, 2)
    bs_spec = "bernstein-szego:" + ";".join(_pair(b) for b in roots)
    n, m = 96, int(rng.integers(1, 9))
    tail = _disk(rng, m, 0.5)
    angle = float(2 * np.pi * rng.random())
    ops.append(cli_op("generate/bernstein-szego", [
        "generate", "--measure", bs_spec, "--n", str(n), "--m", str(m),
        "--tail=" + ";".join(_pair(t) for t in tail), "--eta", _fmt(angle)],
        _generate_check(Reference("bernstein-szego", roots), n, m, tail,
                        want_eta=complex(math.cos(angle), math.sin(angle))), n))

    _, _, c = _trig_density(rng)
    given = _moment_floats(c, 48)
    with open(path("moments.txt"), "w") as fh:
        fh.write("".join(f"{_fmt(v.real)} {_fmt(v.imag)}\n" for v in given))
    n, m = 40, int(rng.integers(0, 6))
    tail = _disk(rng, m, 0.5)
    angle = float(2 * np.pi * rng.random())
    argv = ["generate", "--measure", "moments:" + path("moments.txt"), "--n", str(n),
            "--m", str(m), "--eta", _fmt(angle)]
    if m:
        argv.append("--tail=" + ";".join(_pair(t) for t in tail))
    ops.append(cli_op("generate/moments-file", argv,
                      _generate_check(Reference("moments", given), n, m, tail,
                                      want_eta=complex(math.cos(angle), math.sin(angle))), n))

    turns = float(rng.random())
    ops.append(cli_op("generate/lebesgue-node-at", [
        "generate", "--measure", "lebesgue", "--n", "128", "--eta", f"node-at:{_fmt(turns)}turns"],
        _generate_check(Reference("lebesgue", None), 128, 0, [],
                        node_at=turns * 2 * math.pi), 128))

    ops.append(cli_op("generate_geronimus_degree", [
        "generate", "--measure", "geronimus:-0.6,0", "--n", "64"],
        _generate_check(Reference("geronimus", -0.6), 64, 0, [], want_eta=1.0), 64,
        fault="generate_geronimus_degree"))

    # verify: correct rules PASS, rules moved by VERIFY_STEP FAIL. The rule
    # files come from generate_rule; the oracles confirm them after timing.
    def rule_file(name, kind, value, n, m, tail, eta):
        measure = sq.Lebesgue() if kind == "lebesgue" else sq.BernsteinSzego(value)
        rule = sq.generate_rule(measure, n, m, tail, eta=eta)
        _write_rule(path(name), rule.to_dict())
        ref = Reference(kind, value)
        confirm.append((name, lambda: _check_rule(rule.nodes, rule.weights, complex(rule.eta),
                                                  n, m, ref, tail, None, want_eta=eta)[0]))
        return rule

    leb = rule_file("leb24.json", "lebesgue", None, 24, 0, [], _unimodular(rng))
    roots2 = _roots(rng, 2)
    spec2 = "bernstein-szego:" + ";".join(_pair(b) for b in roots2)
    m2 = int(rng.integers(1, 9))
    bs2 = rule_file("bs32.json", "bernstein-szego", roots2, 32, m2, _disk(rng, m2, 0.5),
                    _unimodular(rng))
    b1 = float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))
    spec1 = f"bernstein-szego:{_fmt(b1)}"
    rule_file("bs1_32.json", "bernstein-szego", [b1], 32, 0, [], _unimodular(rng))

    moved = leb.to_dict()
    moved["nodes"][12] += VERIFY_STEP
    _write_rule(path("leb24_node.json"), moved)
    scaled = bs2.to_dict()
    w = np.array(scaled["weights"])
    w[int(np.argmax(w))] *= 1 + VERIFY_STEP
    scaled["weights"] = (w / w.sum()).tolist()
    _write_rule(path("bs32_weight.json"), scaled)

    rule_file("node_at_zero.json", "lebesgue", None, 16, 0, [], -1.0)
    rule_file("bs64.json", "bernstein-szego", [0.5], 64, 0, [], 1.0)

    for name, spec, file, n, expect, fault in (
            ("verify/lebesgue", "lebesgue", "leb24.json", 24, True, None),
            ("verify/bernstein-szego-tail", spec2, "bs32.json", 32, True, None),
            ("verify/bernstein-szego-real", spec1, "bs1_32.json", 32, True, None),
            ("verify/moved-node", "lebesgue", "leb24_node.json", 24, False, None),
            ("verify/scaled-weight", spec2, "bs32_weight.json", 32, False, None),
            ("verify_node_at_zero", "lebesgue", "node_at_zero.json", 16, True, "verify_node_at_zero"),
            ("verify_bs64", "bernstein-szego:0.5", "bs64.json", 64, True, "verify_bs64")):
        ops.append(cli_op(name, ["verify", "--measure", spec, "--rule", path(file)],
                          _verify_check(expect), n, fault))

    # sweep: asymptotic deviations of real-root Bernstein-Szegő rules
    n_list = (16, 32, 64)
    for b in (0.5, float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))):
        angle = float(2 * np.pi * rng.random())
        ops.append(cli_op(f"sweep/bernstein-szego({b:.3g})", [
            "sweep", "--measure", f"bernstein-szego:{_fmt(b)}", "--n-list", ",".join(map(str, n_list)),
            "--eta", _fmt(angle)],
            _sweep_check(b, n_list, complex(math.cos(angle), math.sin(angle))), sum(n_list)))

    # transform: symmetric rules (real data, eta = +-1) folded onto [-1, 1]
    rule_file("sym_leb.json", "lebesgue", None, 48, 0, [], float(rng.choice((-1.0, 1.0))))
    ops.append(cli_op("transform/lebesgue", ["transform", "--rule", path("sym_leb.json")],
                      _transform_check(47), 48))
    b = float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))
    rule_file("sym_bs.json", "bernstein-szego", [b], 40, 0, [], float(rng.choice((-1.0, 1.0))))
    ops.append(cli_op("transform/bernstein-szego", ["transform", "--rule", path("sym_bs.json")],
                      _transform_check(39, [b]), 40))

    # two more transform and verify calls each, drawn after the inputs above.
    # The verify calls take 10-22 ms and the next slower operations 24-40 ms;
    # with 15 operations the median of a round sat at the top verify call and
    # jumped to the slower ones from run to run. With these it falls inside
    # the verify calls.
    rule_file("sym_leb23.json", "lebesgue", None, 23, 0, [], float(rng.choice((-1.0, 1.0))))
    ops.append(cli_op("transform/lebesgue-23", ["transform", "--rule", path("sym_leb23.json")],
                      _transform_check(22), 23))
    b = float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))
    rule_file("sym_bs32.json", "bernstein-szego", [b], 32, 0, [], float(rng.choice((-1.0, 1.0))))
    ops.append(cli_op("transform/bernstein-szego-32", ["transform", "--rule", path("sym_bs32.json")],
                      _transform_check(31, [b]), 32))
    rule_file("leb16.json", "lebesgue", None, 16, 0, [], _unimodular(rng))
    ops.append(cli_op("verify/lebesgue-16", ["verify", "--measure", "lebesgue", "--rule", path("leb16.json")],
                      _verify_check(True), 16))
    b = float(rng.uniform(0.2, 0.7) * rng.choice((-1, 1)))
    rule_file("bs1_24.json", "bernstein-szego", [b], 24, 0, [], _unimodular(rng))
    ops.append(cli_op("verify/bernstein-szego-24", ["verify", "--measure", f"bernstein-szego:{_fmt(b)}",
                                                    "--rule", path("bs1_24.json")], _verify_check(True), 24))
    return ops, confirm


SETUP = {
    "rule_small": setup_rule_small,
    "rule_large": setup_rule_large,
    "rule_localized": setup_rule_localized,
    "cli_check": setup_cli_check,
}


def setup(workload, seed, workdir):
    """Build the workload's measures and input files. Returns its operations
    and the (label, check) pairs that confirm its set-up outputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return SETUP[workload](rng, workdir)
