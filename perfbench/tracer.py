"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public names that each ``rbsdetree`` module
looks up at call time (``cli``'s imports from every layer, ``picard``'s and
``rbsde``'s imports, two ``_kernels`` attributes) with timing wrappers, so
nothing in ``src/`` changes.  Every call becomes a span with name, start,
end, parent span and job id; the spans stay in memory until ``write_spans``.
A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import os
from collections import Counter
from time import perf_counter


def _bytes_written(args, path):
    return {"cli.solution_csv_bytes": os.path.getsize(path)}


def _enumerate_ops(args, values):
    # rules x paths x depth: the number of (rule, path, level) tests of the
    # current kernel, computed from its arguments rather than measured.
    path_nodes, n_interior = args[0], args[4]
    n_paths, depth = path_nodes.shape
    return {"kernels.enumerate_ops": (1 << n_interior) * n_paths * depth}


# (module, attribute, span name, counter hook).  A hook maps (args, result)
# to counter increments; it runs after the span has closed.
SITES = [
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "build_problem", "cli.build_problem", None),
    ("cli", "run_checks", "cli.run_checks", None),
    ("cli", "run_stopping", "cli.run_stopping", None),
    ("cli", "norm_table", "cli.norm_table", None),
    ("cli", "write_summary", "cli.write_summary", None),
    ("cli", "write_solution_csv", "cli.write_solution_csv", _bytes_written),
    ("cli", "write_trace_csv", "cli.write_trace_csv", None),
    ("cli", "affine_generators", "instances.affine_generators", None),
    ("cli", "terminal_payoff", "instances.terminal_payoff", None),
    ("cli", "linear_barrier", "instances.linear_barrier", None),
    ("cli", "build_tree", "lattice.build_tree",
     lambda args, tree: {"lattice.nodes": tree.total_nodes}),
    ("cli", "simulate_path", "mpp.simulate_path", lambda args, path: {"mpp.paths_simulated": 1}),
    ("cli", "counting_process", "mpp.counting_process", None),
    ("cli", "select_contraction_parameters", "picard.select_contraction_parameters", None),
    ("cli", "picard_solve", "picard.picard_solve",
     lambda args, trace: {"picard.iterations": len(trace.distances)}),
    ("cli", "solve_given_generators", "rbsde.solve", None),
    ("cli", "solve_mpp_only", "rbsde.solve", None),
    ("cli", "solve_via_snell", "rbsde.solve_via_snell", None),
    ("cli", "check_skorohod", "rbsde.check_skorohod", None),
    ("cli", "check_equation_residual", "rbsde.check_equation_residual", None),
    ("cli", "a_priori_majorant", "rbsde.a_priori_majorant", None),
    ("cli", "envelope_jump_support", "snell.envelope_jump_support", None),
    ("cli", "brute_force_value", "stopping.brute_force_value",
     lambda args, cert: {"stopping.rules_enumerated": 1 << cert.n_interior}),
    ("cli", "epsilon_optimal_time", "stopping.epsilon_optimal_time", None),
    ("cli", "smallest_optimal_time", "stopping.smallest_optimal_time", None),
    ("cli", "reward_of_rule", "stopping.reward_of_rule", None),
    ("cli", "k_flatness_before_stop", "stopping.k_flatness_before_stop", None),
    ("cli", "norm_sq", "wnorm.norm_sq", None),
    ("cli", "cauchy_weight_bound", "wnorm.cauchy_weight_bound", None),
    ("picard", "solve_given_generators", "rbsde.solve", None),
    ("picard", "solve_mpp_only", "rbsde.solve", None),
    ("picard", "check_skorohod", "rbsde.check_skorohod", None),
    ("picard", "check_equation_residual", "rbsde.check_equation_residual", None),
    ("picard", "composite_distance", "picard.composite_distance", None),
    ("picard", "norm_sq", "wnorm.norm_sq", None),
    ("rbsde", "extract_representation", "lattice.extract_representation", None),
    ("rbsde", "cexp_level", "lattice.cexp_level", None),
    ("rbsde", "snell_envelope", "snell.snell_envelope", None),
    ("rbsde", "doob_meyer", "snell.doob_meyer", None),
    ("rbsde", "reward_process", "rbsde.reward_process", None),
    ("snell", "cexp_level", "lattice.cexp_level", None),
    ("stopping", "running_gains", "stopping.running_gains", None),
    ("_kernels", "enumerate_rules", "kernels.enumerate_rules", _enumerate_ops),
    ("_kernels", "simulate_event_counts", "kernels.simulate_event_counts",
     lambda args, counts: {"mpp.paths_simulated": len(counts)}),
]


class Tracer:
    """Span recorder for one traced run; ``job_id`` tags the spans of one job."""

    def __init__(self):
        self.spans = []  # (span id, parent id or -1, job id, name, start, end, self seconds)
        self.counts = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.job_id = 0
        self._stack = []  # [span id, seconds covered by children]
        self._saved = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Every span started so far is either finished or still open, so
            # this numbers spans in start order without a separate counter.
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                own = duration - frame[1]
                self.spans.append((span_id, parent, self.job_id, name, start, end, own))
                self.self_s[name] += own
                self.total_s[name] += duration
                self.calls[name] += 1
            if hook is not None:
                self.counts.update(hook(args, result))
            return result

        return traced

    def install(self, modules: dict):
        """Wrap every site in ``SITES``; ``modules`` maps short names to modules."""
        for mod_name, attr, span, hook in SITES:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_spans(self, path):
        spans = sorted(self.spans)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "job", "name", "start_s", "end_s", "self_s"])
            t0 = spans[0][4] if spans else 0.0
            for sid, parent, job, name, start, end, own in spans:
                writer.writerow([sid, parent, job, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                                 f"{own:.9f}"])
