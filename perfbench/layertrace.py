"""Per-layer trace of szquad, recorded from outside the program.

install() replaces the public functions of each layer in every szquad module
namespace that holds them, which is where their callers look them up (for
example szquad.rulegen.szego_eval for the node finder). Each replacement
records a span (name, start, end, parent) in memory while an operation runs
and keeps counts at the same boundary. The phase table is traced by a
subclass of PhaseFunction put in its place in szquad.rulegen.
"""

import functools
import json
import time

import numpy as np

# (span name, module attribute): one wrapper serves every namespace holding it
WRAPPED = (
    ("rulegen.generate_rule", "generate_rule"),
    ("rulegen.find_nodes", "find_nodes"),
    ("rulegen.weights", "weights_second_kind"),
    ("opuc_core.szego_eval", "szego_eval"),
    ("opuc_core.verblunsky_from_moments", "verblunsky_from_moments"),
    ("opuc_core.moments_from_alphas", "moments_from_alphas"),
    ("measures.verblunsky_prefix", "verblunsky_prefix"),
    ("measures.moments", "moments"),
    ("validation.check_exactness", "check_exactness"),
    ("validation.check_interlacing", "check_interlacing"),
    ("validation.s_function", "s_function"),
    ("validation.asymptotic_report", "asymptotic_report"),
    ("interval_map.circle_to_interval", "circle_to_interval"),
)

# per-layer metrics: name -> unit. Times are shares of the operations' wall
# time; counts are per round of the workload's operations.
METRICS = {
    "rulegen.generate_rule_pct": "%",
    "rulegen.phase_table_pct": "%",
    "rulegen.phase_table_refinements": "count",
    "rulegen.find_nodes_self_pct": "%",
    "rulegen.weights_pct": "%",
    "rulegen.find_nodes_calls": "count",
    "rulegen.useful_find_ratio": "ratio",
    "rulegen.find_nodes_errors": "count",
    "opuc_core.szego_eval_calls": "count",
    "opuc_core.szego_eval_point_steps": "count",
    "opuc_core.szego_eval_pct": "%",
    "opuc_core.verblunsky_from_moments_pct": "%",
    "opuc_core.moments_from_alphas_pct": "%",
    "measures.verblunsky_prefix_pct": "%",
    "measures.moments_pct": "%",
    "validation.check_exactness_pct": "%",
    "validation.check_interlacing_pct": "%",
    "validation.s_function_pct": "%",
    "validation.asymptotic_report_pct": "%",
    "interval_map.circle_to_interval_pct": "%",
    "cli.self_pct": "%",
    "trace.op_ms_p50": "ms",
}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.stack = []
        self.active = False
        self.counts = {"find_nodes_calls": 0, "find_nodes_errors": 0, "useful_finds": 0,
                       "szego_eval_calls": 0, "szego_eval_point_steps": 0, "refinements": 0}
        self._specs = set()     # specs found by generate_rule in the current operation

    def _enter(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _leave(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def begin_operation(self):
        self.active = True
        self._specs.clear()

    def end_operation(self):
        self.active = False

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._enter(name)
            parent = rec[3]
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if name == "rulegen.find_nodes":
                    tracer.counts["find_nodes_calls"] += 1
                    tracer.counts["find_nodes_errors"] += 1
                raise
            finally:
                tracer._leave(rec)
            if name == "opuc_core.szego_eval":
                tracer.counts["szego_eval_calls"] += 1
                tracer.counts["szego_eval_point_steps"] += int(np.size(args[1])) * int(np.size(args[0]))
            elif name == "rulegen.find_nodes":
                tracer.counts["find_nodes_calls"] += 1
                spec = args[0]
                # useful: the finder ran for a rule generate_rule returns, and
                # no earlier call in this operation found the same rule
                if parent >= 0 and tracer.spans[parent][0] == "rulegen.generate_rule" \
                        and spec not in tracer._specs:
                    tracer._specs.add(spec)
                    tracer.counts["useful_finds"] += 1
            return out

        return traced

    def traced_phase_function(self, base):
        tracer = self

        class TracedPhaseFunction(base):
            def __init__(self, spec):
                if not tracer.active:
                    super().__init__(spec)
                    return
                rec = tracer._enter("rulegen.phase_table")
                try:
                    super().__init__(spec)
                finally:
                    tracer._leave(rec)
                # breakpoints beyond the 16n+1 seed grid
                tracer.counts["refinements"] += len(self.phis) - (16 * spec.n + 1)

        return TracedPhaseFunction

    # --- results -----------------------------------------------------------

    def _inclusive(self, name):
        """Total time in spans of `name`, not counting one nested in another."""
        total = 0.0
        for rec in self.spans:
            if rec[0] == name and not self._has_ancestor(rec, name):
                total += rec[2] - rec[1]
        return total

    def _has_ancestor(self, rec, name):
        parent = rec[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _self_time(self, name, child=None):
        """Time in spans of `name` minus their direct children (all children,
        or only those named `child`)."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            parent = rec[3]
            if parent >= 0 and self.spans[parent][0] == name and child in (None, rec[0]):
                covered[parent] += rec[2] - rec[1]
        return sum(rec[2] - rec[1] - covered[i] for i, rec in enumerate(self.spans) if rec[0] == name)

    def metrics(self, rounds, op_seconds, op_ms_p50):
        """Per-layer metrics for a run of `rounds` rounds whose operations took
        `op_seconds` of wall time in total."""
        def pct(seconds):
            return 100.0 * seconds / op_seconds

        def per_round(count):
            return count / rounds

        calls = self.counts["find_nodes_calls"]
        values = {
            "rulegen.generate_rule_pct": pct(self._inclusive("rulegen.generate_rule")),
            "rulegen.phase_table_pct": pct(self._inclusive("rulegen.phase_table")),
            "rulegen.phase_table_refinements": per_round(self.counts["refinements"]),
            "rulegen.find_nodes_self_pct": pct(self._self_time("rulegen.find_nodes", "rulegen.phase_table")),
            "rulegen.weights_pct": pct(self._inclusive("rulegen.weights")),
            "rulegen.find_nodes_calls": per_round(calls),
            "rulegen.useful_find_ratio": self.counts["useful_finds"] / calls if calls else 0.0,
            "rulegen.find_nodes_errors": per_round(self.counts["find_nodes_errors"]),
            "opuc_core.szego_eval_calls": per_round(self.counts["szego_eval_calls"]),
            "opuc_core.szego_eval_point_steps": per_round(self.counts["szego_eval_point_steps"]),
            "cli.self_pct": pct(self._self_time("cli.main")),
            "trace.op_ms_p50": op_ms_p50,
        }
        for name in ("opuc_core.szego_eval", "opuc_core.verblunsky_from_moments",
                     "opuc_core.moments_from_alphas", "measures.verblunsky_prefix", "measures.moments",
                     "validation.check_exactness", "validation.check_interlacing",
                     "validation.s_function", "validation.asymptotic_report",
                     "interval_map.circle_to_interval"):
            values[name + "_pct"] = pct(self._inclusive(name))
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": self.counts}, fh)


def install(szquad):
    """Put traced wrappers in place of the public functions of every layer."""
    import szquad.cli
    import szquad.interval_map
    import szquad.measures
    import szquad.opuc_core
    import szquad.rulegen
    import szquad.validation

    tracer = Tracer()
    modules = (szquad, szquad.rulegen, szquad.validation, szquad.measures,
               szquad.opuc_core, szquad.interval_map, szquad.cli)
    for span_name, attr in WRAPPED:
        original = getattr(szquad, attr)
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    szquad.rulegen.PhaseFunction = tracer.traced_phase_function(szquad.rulegen.PhaseFunction)
    szquad.cli.main = tracer.wrap("cli.main", szquad.cli.main)
    return tracer
