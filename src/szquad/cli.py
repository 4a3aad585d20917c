"""Command-line surface: generate rules, verify them, sweep asymptotics,
transform to [-1, 1].

Exit codes: 0 success, 1 a check ran and failed, 2 usage or validation
error. Angles are accepted in radians or in turns (suffix ``turns``) and
emitted in radians with 17 significant digits; complex literals are
``re,im`` pairs. ``SZQ_TOL`` overrides the default exactness tolerance.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import interval_map, measures, rulegen, validation
from .errors import SymmetryViolationError, SzquadError

CHECK_FAILED = 1
USAGE_ERROR = 2


def parse_angle(text):
    """Angle in radians, or in turns with the suffix 'turns'."""
    text = text.strip()
    if text.endswith("turns"):
        return float(text[: -len("turns")]) * 2.0 * np.pi
    return float(text)


def parse_complex_pair(text):
    """Complex literal 're,im' (or bare real)."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"bad complex literal {text!r}, expected re,im")


def parse_measure(text):
    """Measure spec string: lebesgue | bernstein-szego:<roots ;-separated> |
    geronimus:<re,im> | verblunsky:<file> | moments:<file> | density:<file>."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "lebesgue":
        return measures.Lebesgue()
    if name == "bernstein-szego":
        roots = [parse_complex_pair(tok) for tok in arg.split(";") if tok.strip()]
        if not roots:
            raise ValueError("bernstein-szego needs at least one root")
        return measures.BernsteinSzego(roots)
    if name == "geronimus":
        return measures.Geronimus(parse_complex_pair(arg))
    if name == "verblunsky":
        return measures.ExplicitVerblunsky(measures.load_moments_file(arg))
    if name == "moments":
        return measures.ExplicitMoments(measures.load_moments_file(arg))
    if name == "density":
        return measures.load_density_file(arg)
    raise ValueError(f"unknown measure {text!r}")


def parse_eta(text):
    """Boundary parameter: an angle (radians or turns), or node-at:<angle>."""
    text = text.strip()
    if text.startswith("node-at:"):
        return None, parse_angle(text[len("node-at:"):])
    angle = parse_angle(text)
    return complex(np.cos(angle), np.sin(angle)), None


def fmt(x):
    return format(float(x), ".17g")


def exactness_tol(args, rule, c):
    env = os.environ.get("SZQ_TOL")
    if getattr(args, "tol", None) is not None:
        return args.tol
    if env:
        return float(env)
    return validation.default_exactness_tol(rule.n, c)


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_tail(tokens):
    """Tail entries: repeated args and/or single ';'-joined strings.

    Use the `--tail=...` form for a leading negative real part.
    """
    return [parse_complex_pair(t)
            for token in tokens for t in token.split(";") if t.strip()]


def cmd_generate(args):
    measure = parse_measure(args.measure)
    tail = parse_tail(args.tail)
    if len(tail) != args.m:
        raise SzquadError(f"tail length must equal m: got {len(tail)}, m={args.m}")
    eta, node_at = parse_eta(args.eta)
    rule = rulegen.generate_rule(measure, args.n, args.m, tail,
                                 eta=eta if eta is not None else 1.0,
                                 node_at=node_at)
    k_probe = args.k_probe if args.k_probe is not None else args.n
    c = measures.moments(measure, k_probe)
    report = validation.check_exactness(rule, c, k_probe, tol=exactness_tol(args, rule, c))

    if args.format == "csv":
        lines = ["node_rad,weight"]
        lines += [f"{fmt(p)},{fmt(w)}" for p, w in zip(rule.nodes, rule.weights)]
        lines.append(f"# precise_degree={report.precise_degree}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        payload = rule.to_dict()
        payload["precise_degree"] = report.precise_degree
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_verify(args):
    measure = parse_measure(args.measure)
    with open(args.rule) as fh:
        data = json.load(fh)

    # content problems in the rule are findings of this command, not usage
    # errors: renormalize the mass, report the deviation, and keep checking
    lines = []
    try:
        weights = np.asarray(data["weights"], dtype=float)
        mass = float(np.sum(weights))
        mass_err = abs(mass - 1.0)
        data = dict(data, weights=(weights / mass).tolist())
        rule = rulegen.QuadratureRule.from_dict(data)
    except SzquadError as exc:
        lines.append(f"rule integrity: FAIL ({exc})")
        lines.append("FAIL")
        _emit("\n".join(lines) + "\n", args.output)
        return CHECK_FAILED
    lines.append(f"mass: deviation={fmt(mass_err)}")
    ok = mass_err <= 1e-12

    k_probe = args.k_probe if args.k_probe is not None else rule.n
    c = measures.moments(measure, max(k_probe, rule.n))
    tol = exactness_tol(args, rule, c)
    report = validation.check_exactness(rule, c, k_probe, tol=tol)
    required = rule.n - 1 - rule.m
    lines.append(
        f"exactness: precise_degree={report.precise_degree} required>={required} tol={fmt(tol)}"
    )
    ok = ok and report.precise_degree >= required

    inter = validation.check_interlacing(rule, measure, rule.m, kappa=np.exp(0.7j))
    lines.append(f"interlacing: violations={inter.violations} arcs={len(inter.arc_counts)}")
    ok = ok and inter.violations == 0

    n_half = rule.n // 2
    gamma2 = rule.n % 2
    if required >= n_half + gamma2:
        trace = validation.s_function(rule, measure)
        lines.append(
            f"s-function: max_s_minus_r={fmt(trace.max_s_minus_r)} "
            f"weight_residual={fmt(trace.weight_residual)} "
            f"interlacing_violations={trace.interlacing_violations}"
        )
        ok = ok and trace.max_s_minus_r <= 1e-9 * rule.n
        ok = ok and trace.weight_residual <= 1e-8
        ok = ok and trace.interlacing_violations == 0
    else:
        lines.append("s-function: skipped (exactness below the half-degree class)")

    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else CHECK_FAILED


def cmd_sweep(args):
    measure = parse_measure(args.measure)
    if not measures.has_density(measure):
        raise SzquadError("sweep needs a measure with a pointwise density")
    n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
    tail = parse_tail(args.tail)
    if len(tail) != args.m:
        raise SzquadError(f"tail length must equal m: got {len(tail)}, m={args.m}")
    eta, node_at = parse_eta(args.eta)
    if node_at is not None:
        raise SzquadError("sweep takes an angle for --eta, not node-at")
    reports = validation.asymptotic_report(measure, n_list, m=args.m, tail=tail, eta=eta)
    lines = ["n,max_asym_dev,precise_degree"]
    devs = []
    for rep in reports:
        c = measures.moments(measure, rep.n)
        ex = validation.check_exactness(rep.rule, c, rep.n,
                                        tol=exactness_tol(args, rep.rule, c))
        lines.append(f"{rep.n},{fmt(rep.max_deviation)},{ex.precise_degree}")
        devs.append(rep.max_deviation)
    decreasing = all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))
    lines.append(f"# trend decreasing={'true' if decreasing else 'false'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_transform(args):
    with open(args.rule) as fh:
        rule = rulegen.QuadratureRule.from_dict(json.load(fh))
    try:
        interval_rule = interval_map.circle_to_interval(rule)
    except SymmetryViolationError as exc:
        print(f"symmetry violation: {exc}", file=sys.stderr)
        return CHECK_FAILED
    lines = ["x,lambda"]
    lines += [f"{fmt(x)},{fmt(l)}" for x, l in zip(interval_rule.x, interval_rule.lam)]
    lines.append(f"# degree={interval_rule.degree}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="szq",
        description="Positive quadrature on the unit circle: generate, verify, "
                    "sweep asymptotics, transform to [-1,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON file with option defaults; flags override it")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="exactness tolerance (overrides SZQ_TOL and the default)")

    gen = sub.add_parser("generate", help="construct a rule and print nodes/weights")
    gen.add_argument("--measure", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=0)
    gen.add_argument("--tail", nargs="*", default=[], help="m complex literals re,im")
    gen.add_argument("--eta", default="0.0turns", help="angle, or node-at:<angle>")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--k-probe", type=int, default=None)
    common(gen)

    ver = sub.add_parser("verify", help="re-check a stored rule against its measure")
    ver.add_argument("--measure", required=True)
    ver.add_argument("--rule", required=True, help="JSON rule file from `generate`")
    ver.add_argument("--k-probe", type=int, default=None)
    common(ver)

    sw = sub.add_parser("sweep", help="per-n asymptotic deviations")
    sw.add_argument("--measure", required=True)
    sw.add_argument("--n-list", required=True, help="comma-separated rule sizes")
    sw.add_argument("--m", type=int, default=0)
    sw.add_argument("--tail", nargs="*", default=[])
    sw.add_argument("--eta", default="0.0turns", help="angle (radians or turns)")
    common(sw)

    tr = sub.add_parser("transform", help="fold a symmetric rule onto [-1,1]")
    tr.add_argument("--rule", required=True)
    common(tr)
    return parser


_CONFIG_KEYS = {"measure", "n", "m", "tail", "eta", "format", "k-probe",
                "n-list", "rule", "output", "tol"}


def _apply_config(argv):
    """Expand --config FILE into leading flags so explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SzquadError("--config needs a file path")
    with open(argv[i + 1]) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SzquadError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        name = key.replace("_", "-")
        if name not in _CONFIG_KEYS:
            raise SzquadError(f"unknown config key {key!r}")
        if name == "tail":
            value = ";".join(str(v) for v in value) if isinstance(value, list) else value
        flags.append(f"--{name}={value}")
    # keep the subcommand first; config-derived flags precede explicit ones
    return [argv[0], *flags, *argv[:i][1:], *argv[i + 2:]]


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    handlers = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "transform": cmd_transform,
    }
    try:
        args = parser.parse_args(_apply_config(list(argv)))
        return handlers[args.command](args)
    except SzquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
