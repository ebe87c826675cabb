"""Spans recorded around calls into the dualspike modules, and their
aggregation into per-layer self times and counts.

Tracing wraps module attributes and class methods from outside the package;
nothing in ``src/`` changes.  A name bound with ``from ... import`` is wrapped
in the module that imported it, because that is the name its callers look up.
"""

import functools
import importlib
import time

# (module, attribute, span name).  A dotted attribute is a method on a class.
SPAN_TARGETS = [
    ("dualspike.cli", "load_config", "cli.load_config"),
    ("dualspike.experiments", "run_solve", "experiments.run_solve"),
    ("dualspike.experiments", "run_lambda_t", "experiments.run_lambda_t"),
    ("dualspike.experiments", "run_t_a", "experiments.run_t_a"),
    ("dualspike.experiments", "run_noise", "experiments.run_noise"),
    ("dualspike.experiments", "run_bounds", "experiments.run_bounds"),
    ("dualspike.experiments", "reference_run", "experiments.reference_run"),
    ("dualspike.experiments", "write_csv", "experiments.write_csv"),
    ("dualspike.experiments", "synthesize", "experiments.synthesize"),
    ("dualspike.experiments", "solve", "experiments.solve"),
    ("dualspike.experiments", "refine_location", "experiments.refine_location"),
    ("dualspike.experiments", "recover", "experiments.recover"),
    ("dualspike.experiments", "recover_amplitudes", "experiments.recover_amplitudes"),
    ("dualspike.bounds", "refine_location", "bounds.refine_location"),
    ("dualspike.bounds", "assemble_jacobian", "bounds.assemble_jacobian"),
    ("dualspike.bounds", "full_report", "bounds.full_report"),
    ("dualspike.numerics", "lp_min", "numerics.lp_min"),
    ("dualspike.numerics", "linprog", "numerics.linprog"),
    ("dualspike.numerics", "project_polyhedron", "numerics.project_polyhedron"),
    ("dualspike.certificate", "CertificateGrid.__init__", "CertificateGrid.__init__"),
    ("dualspike.certificate", "CertificateGrid.supremum", "CertificateGrid.supremum"),
    ("dualspike.certificate", "CertificateGrid.maximizers", "CertificateGrid.maximizers"),
]

# Called over a million times per workload: counted, never given a span.
COUNT_TARGETS = [
    ("dualspike.kernel", "Kernel.value", "kernel.calls"),
    ("dualspike.kernel", "Kernel.derivative", "kernel.calls"),
]

# Span name -> the per-layer time metric that receives its self time.
LAYER_TIME = {
    "startup": "startup.import_s",
    "cli.main": "cli.self_s",
    "cli.load_config": "config.load_s",
    "experiments.run_solve": "experiments.self_s",
    "experiments.run_lambda_t": "experiments.self_s",
    "experiments.run_t_a": "experiments.self_s",
    "experiments.run_noise": "experiments.self_s",
    "experiments.run_bounds": "experiments.self_s",
    "experiments.reference_run": "experiments.self_s",
    "experiments.write_csv": "experiments.write_s",
    "experiments.synthesize": "model.synthesize_s",
    "experiments.solve": "solver.self_s",
    "numerics.lp_min": "numerics.lp_min_s",
    "numerics.linprog": "numerics.lp_min_s",
    "numerics.project_polyhedron": "numerics.project_s",
    "CertificateGrid.__init__": "certificate.grid_build_s",
    "CertificateGrid.supremum": "certificate.supremum_s",
    "CertificateGrid.maximizers": "certificate.maximizers_s",
    "experiments.refine_location": "certificate.refine_s",
    "bounds.refine_location": "certificate.refine_s",
    "experiments.recover": "recovery.s",
    "experiments.recover_amplitudes": "recovery.s",
    "bounds.full_report": "bounds.s",
    "bounds.assemble_jacobian": "bounds.s",
}

# Per-layer call counts, as (metric, span names counted).
LAYER_CALLS = [
    ("numerics.lp_min_calls", ("numerics.lp_min",)),
    ("numerics.linprog_attempts", ("numerics.linprog",)),
    ("numerics.project_calls", ("numerics.project_polyhedron",)),
    ("certificate.supremum_calls", ("CertificateGrid.supremum",)),
    ("certificate.refine_calls", ("experiments.refine_location", "bounds.refine_location")),
    ("bounds.refine_calls", ("bounds.refine_location",)),
    ("recovery.calls", ("experiments.recover", "experiments.recover_amplitudes")),
    ("solver.calls", ("experiments.solve",)),
    ("certificate.grid_builds", ("CertificateGrid.__init__",)),
]

# A solve whose caller is one of these is a full-length reference solve.
REFERENCE_CALLERS = ("experiments.reference_run", "experiments.run_bounds")


class Recorder:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counters = {"kernel.calls": 0, "numerics.lp_rows": 0,
                         "numerics.lp_bytes_computed": 0,
                         "numerics.project_fallbacks": 0, "solver.iters": 0}
        self.final_gap = 0.0

    def span(self, name, func, before=None, after=None, raised=None):
        """Wrap ``func`` so that every call records a span named ``name``."""
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except Exception:
                if raised is not None:
                    raised()
                raise
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, key, func):
        counters = self.counters

        @functools.wraps(func)
        def counting(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)

        return counting

    # hooks that read the work passed to or returned by a layer
    def _lp_rows(self, args):
        try:
            rows, width = args[1].shape  # lp_min(offsets, slopes, box_radius)
        except (AttributeError, IndexError, ValueError):
            return
        self.counters["numerics.lp_rows"] += rows
        self.counters["numerics.lp_bytes_computed"] += rows * (width + 1) * 8

    def _project_raised(self):
        self.counters["numerics.project_fallbacks"] += 1

    def _solved(self, state):
        self.counters["solver.iters"] += state.n_iterations
        if state.gap_history:
            self.final_gap = max(self.final_gap, float(state.gap_history[-1]))

    def install(self):
        """Wrap every target the dualspike modules still define.

        Returns the targets that no longer exist; their layers read 0 and
        their time shows as the caller's self time.
        """
        hooks = {
            "numerics.lp_min": {"before": self._lp_rows},
            "numerics.project_polyhedron": {"raised": self._project_raised},
            "experiments.solve": {"after": self._solved},
        }
        missing = []
        for module, attr, name in SPAN_TARGETS:
            if not patch(module, attr, lambda f, n=name: self.span(n, f, **hooks.get(n, {}))):
                missing.append(f"{module}.{attr}")
        for module, attr, key in COUNT_TARGETS:
            if not patch(module, attr, lambda f, k=key: self.counted(k, f)):
                missing.append(f"{module}.{attr}")
        return missing

    def dump(self, missing):
        return {"spans": self.spans, "counters": self.counters,
                "final_gap": self.final_gap, "missing": missing}


def patch(module_name, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)``; False if absent."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if not hasattr(owner, leaf):
        return False
    setattr(owner, leaf, make_wrapper(getattr(owner, leaf)))
    return True


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children.

    Children of one span run one after another, so their durations add up
    to the covered time.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(dumps):
    """Per-layer times, call counts and counters summed over processes, and
    the wrap targets that were missing."""
    metrics = {name: 0.0 for name in sorted(set(LAYER_TIME.values()))}
    counts = {}
    counters = {}
    reference_solves = 0
    final_gap = 0.0
    missing = set()
    for dump in dumps:
        missing.update(dump["missing"])
        spans = dump["spans"]
        for (name, _, _, parent), own in zip(spans, self_times(spans)):
            metrics[LAYER_TIME[name]] += own
            counts[name] = counts.get(name, 0) + 1
            if name == "experiments.solve" and parent >= 0 and spans[parent][0] in REFERENCE_CALLERS:
                reference_solves += 1
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        final_gap = max(final_gap, dump["final_gap"])
    for metric, names in LAYER_CALLS:
        metrics[metric] = sum(counts.get(n, 0) for n in names)
    metrics.update(counters)
    calls = metrics["numerics.lp_min_calls"]
    attempts = metrics["numerics.linprog_attempts"]
    metrics["numerics.lp_rows_per_call"] = metrics["numerics.lp_rows"] / calls if calls else 0.0
    metrics["numerics.lp_useful_ratio"] = calls / attempts if attempts else 0.0
    metrics["solver.final_gap"] = final_gap
    metrics["experiments.reference_solves"] = reference_solves
    return metrics, sorted(missing)
