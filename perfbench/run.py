"""Benchmark of szquad: one workload per run, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload rule_small --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; szquad is imported from the
checkout's src/ and nowhere else. Each run builds the workload's inputs from
the seed, repeats whole rounds of the workload's operations until their wall
time reaches --seconds, then checks every output against the oracles, and prints
as its last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 wraps the
layers of szquad and reports the per-layer metrics instead. Operation times
are scaled by a speed probe to a reference machine (see REFERENCE_PROBE_MS).
"""

import os

# one thread of work: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench_out"
SETUP_REPEATS = 9       # fresh interpreters timed per run for setup_s
DIGITS_CAP = 1e-17      # an exact match reads as 17 digits

# Operation times are reported at the speed of a reference machine on which
# the speed probe takes REFERENCE_PROBE_MS. On a shared host the interpreter
# runs up to 1.7 times slower for minutes at a time; the probe, timed before
# every operation and in each set-up interpreter, follows much of those
# swings, so the scaled medians of two runs agree better than their wall
# times do (see perfbench/README.md).
PROBE_LOOPS = 30000
REFERENCE_PROBE_MS = 2.5

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "nodes_per_s": "1/s",
                    "peak_rss_mb": "MB", "oracle_digits": "digits"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rule_small", "rule_large", "rule_localized", "cli_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", choices=("weight", "weight-renorm", "node"), default=None,
                        help="negative control: change every rule output by 1e-9 before it is checked")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="time import szquad and the workload's set-up in DIR, print the "
                             "time and the speed probe, and exit")
    return parser.parse_args(argv)


def import_szquad():
    """szquad from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import szquad
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import szquad from {SRC}: {exc}")
    if not Path(szquad.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: szquad was imported from {szquad.__file__}, not from {SRC}")
    return szquad


def setup_child(args):
    """--setup-only: in this fresh interpreter, time `import szquad` plus the
    workload's set-up. Nothing the checks need (oracle.py, mpmath) is loaded.
    The speed probe is timed just before, to scale the time to the reference
    speed."""
    probes = [speed_probe() for _ in range(5)]
    start = time.perf_counter()
    import_szquad()
    import workloads
    workloads.setup(args.workload, args.seed, args.setup_only)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "probe_s": statistics.median(probes)}))
    return 0


def measure_setup(workload, seed):
    """Median over SETUP_REPEATS fresh interpreters (setup_child) of the set-up
    time, each scaled to the reference speed by its own probe."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        workdir.mkdir(parents=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--setup-only", str(workdir)], stdout=subprocess.PIPE, text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up in a fresh interpreter failed with exit {proc.returncode}")
        child = json.loads(proc.stdout)
        times.append(child["setup_s"] * REFERENCE_PROBE_MS / (1000.0 * child["probe_s"]))
    return statistics.median(times)


def speed_probe():
    """Seconds taken by a fixed pure-Python loop: how fast the host runs the
    interpreter at this moment."""
    start = time.perf_counter()
    x = 0.1
    for _ in range(PROBE_LOOPS):
        x = (x * 1.0000001 + 0.3) % 7.0
    return time.perf_counter() - start


def run_rounds(ops, seconds, tracer):
    """Whole rounds of ops until their wall time reaches `seconds`. Outputs are
    kept for check_outputs, not checked here: per operation its distinct
    outcomes (key, output, error), and per attempt which outcome it gave."""
    times, probes, attempts = [], [], []
    outcomes = [[] for _ in ops]
    rounds = 0
    while rounds == 0 or sum(times) < seconds:
        for i, op in enumerate(ops):
            probes.append(speed_probe())
            if tracer:
                tracer.begin_operation()
            start = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:   # a failed operation, counted in check_outputs
                output, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            if tracer:
                tracer.end_operation()
            key = error if error is not None else op.key(output)
            seen = [k for k, _, _ in outcomes[i]]
            if key not in seen:
                outcomes[i].append((key, output, error))
                seen.append(key)
            attempts.append((i, seen.index(key)))
        rounds += 1
    return times, probes, rounds, outcomes, attempts


def check_outputs(ops, outcomes, attempts, perturb):
    """Check each distinct outcome once, then count the attempts."""
    verdicts = []
    for op, op_outcomes in zip(ops, outcomes):
        row = []
        for _, output, error in op_outcomes:
            if error is not None:
                row.append(([error], None))
                continue
            try:
                row.append(op.check(output, perturb))
            except Exception as exc:   # output the checks cannot read
                row.append(([f"unreadable output: {type(exc).__name__}: {exc}"], None))
        verdicts.append(row)
    failures, nodes_ok, worst, failed = {}, 0, 0.0, 0
    for i, j in attempts:
        problems, err = verdicts[i][j]
        if problems:
            failed += 1
            failures.setdefault(ops[i].name, (ops[i].fault, problems))
        else:
            nodes_ok += ops[i].nodes
            if err is not None:
                worst = max(worst, err)
    return failed, failures, nodes_ok, worst


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        return setup_child(args)
    szquad = import_szquad()
    import workloads

    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, confirm = workloads.setup(args.workload, args.seed, str(workdir))
        tracer = None
        if args.trace:
            import layertrace
            tracer = layertrace.install(szquad)
        times, probes, rounds, outcomes, attempts = run_rounds(ops, args.seconds, tracer)
        # read before the checks load oracle.py and mpmath, so that it is the
        # peak of the program's operations on top of the interpreter and numpy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import oracle
        broken = [f"oracle self-test: {msg}" for msg in oracle.self_test()]
        broken += [f"set-up output {label}: {'; '.join(p)}" for label, check in confirm if (p := check())]
        failed, failures, nodes_ok, worst = check_outputs(ops, outcomes, attempts, args.perturb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(attempts)

    unexpected = sorted(name for name, (fault, _) in failures.items() if fault is None)
    correct = not broken and not unexpected
    scale = REFERENCE_PROBE_MS / (1000.0 * statistics.median(probes))
    op_ms_p50 = 1000.0 * statistics.median(times) * scale
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed")
    print(f"  wall time per operation: p50 {1000.0 * statistics.median(times):.6g} ms; "
          f"speed probe {1000.0 * statistics.median(probes):.4g} ms, scale {scale:.4g}")
    if len(times) >= 10:
        print(f"  op_ms p90 = {1000.0 * statistics.quantiles(times, n=10)[8] * scale:.6g} "
              f"over {len(times)} operations")
    for name, (fault, problems) in sorted(failures.items()):
        print(f"  failed {name} ({'known fault' if fault else 'UNEXPECTED'}): {'; '.join(problems)}")
    for msg in broken:
        print(f"  BROKEN {msg}")

    if tracer:
        metrics = tracer.metrics(rounds, sum(times), op_ms_p50)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": setup_s,
            "op_ms_p50": op_ms_p50,
            "nodes_per_s": nodes_ok / (sum(times) * scale),
            "peak_rss_mb": peak_rss_mb,
            "oracle_digits": -math.log10(max(worst, DIGITS_CAP)),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
