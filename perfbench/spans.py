"""Spans around the calls into each layer of visco_pt, recorded from outside.

The tracer replaces functions at the names the calling module looks them up
by, so every call into a layer is timed without changing the program. Spans
stay in memory; the benchmark writes them out when its run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid parent thread name start end info")


def _energy_name(args, kwargs):
    factor = args[1] if len(args) > 1 else kwargs.get("factor", "one")
    return "analysis.energy_sharp" if factor == "p_psi" else "analysis.energy_one"


# (module, attribute at which the caller finds it, span name, info from (args, result)).
# A span name may be a function of the call's arguments instead of a string.
TARGETS = [
    ("kernels", "mp_minimize", "kernels.mp_minimize", lambda a, r: (r[4], r[5])),
    ("stepper", "minimize_newton", "minimize.minimize_newton", lambda a, r: r.iterations),
    ("stepper", "run_evolution", "stepper.run_evolution", None),
    ("analysis", "run_evolution", "stepper.run_evolution", None),
    ("cli", "run_evolution", "stepper.run_evolution", None),
    ("stepper", "incremental_step", "stepper.incremental_step", None),
    ("stepper", "phi_tau", "stepper.phi_tau", None),
    ("analysis", "phi_tau", "stepper.phi_tau", None),
    ("analysis", "de_giorgi_integral", "stepper.de_giorgi_integral", None),
    ("stepper.ShearQuadraticOperator", "__init__", "stepper.operator_build", None),
    ("stepper.ShearQuadraticOperator", "solve", "stepper.operator_solve", None),
    ("analysis", "check_energy_inequality", _energy_name, None),
    ("analysis", "semistability_sweep", "analysis.semistability", None),
    ("analysis", "check_monotonicity", "analysis.monotonicity", None),
    ("analysis", "tau_convergence", "analysis.tau_convergence", None),
    ("analysis", "epsilon_study", "analysis.epsilon_study", None),
    ("analysis", "density_convergence", "analysis.density_convergence", None),
    ("stepper", "total_energy", "domain.total_energy", None),
    ("analysis", "total_energy", "domain.total_energy", None),
    ("cli", "total_energy", "domain.total_energy", None),
    ("analysis", "run_lin_evolution", "linearized.run_lin_evolution", None),
    ("cli", "run_lin_evolution", "linearized.run_lin_evolution", None),
    ("cli", "trajectory_csv", "cli.csv_format", None),
    ("cli", "lin_trajectory_csv", "cli.csv_format", None),
    ("cli", "_atomic_write", "cli.write", lambda a, r: len(a[1].encode("utf-8"))),
]

COUNT_UNITS = ("count", "bytes")

# Solver spans that a step's overhead excludes.
SOLVERS = ("kernels.mp_minimize", "minimize.minimize_newton", "stepper.operator_solve")


class Tracer:
    """Records one span per wrapped call: id, parent id, thread, name, start, end."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                extra = info(args, result) if ok and info is not None else None
                self.spans.append(Span(sid, parent, threading.get_ident(), label, start, end, extra))

        return traced

    def _fan_out(self, ordered_map):
        """Hands the caller's span to the sweep pool, so pool work has a parent."""
        def traced_map(fn, items):
            stack = self._stack()
            parent = stack[-1] if stack else 0

            def task(item):
                own = self._stack()
                if own:
                    return fn(item)
                own.append(parent)
                try:
                    return fn(item)
                finally:
                    own.pop()

            return ordered_map(task, items)

        return traced_map

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wraps every target; one missing at this commit is noted as absent."""
        self.absent = []
        for path, attr, name, info in TARGETS + [("analysis", "_ordered_map", None, None)]:
            module, _, cls = path.partition(".")
            try:
                owner = importlib.import_module("visco_pt." + module)
                owner = getattr(owner, cls) if cls else owner
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{path}.{attr}")
                continue
            if name is None:
                self._patch(owner, attr, self._fan_out(original))
            else:
                self._patch(owner, attr, self._wrap(original, name, info))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name):
        """Span around one benchmark operation, parent of everything inside it."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, 0, threading.get_ident(), name, start, end, None))


def _covered(span, children):
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans):
    """Per-layer metrics of one round of spans: {name: (value, unit)}.

    Self time is a span's time minus the time its child spans cover. A child
    is a span started inside it on the same thread, or a pool task started on
    its behalf; overlapping children count once.
    """
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        children[s.parent].append(s)

    def busy(name):
        return sum(s.end - s.start for s in named[name]) / 1e9

    def self_s(name):
        return sum(s.end - s.start - _covered(s, children[s.sid]) for s in named[name]) / 1e9

    kernel = [s.info for s in named["kernels.mp_minimize"] if s.info]
    iters = sum(i for i, _ in kernel)
    steps = named["stepper.incremental_step"]
    overhead = sum(
        s.end - s.start - sum(c.end - c.start for c in children[s.sid] if c.name in SOLVERS)
        for s in steps
    )
    return {
        "kernels.calls": (len(named["kernels.mp_minimize"]), "count"),
        "kernels.iterations": (iters, "count"),
        "kernels.max_iter_exceeded": (sum(1 for _, st in kernel if st == 1), "count"),
        "kernels.line_search_stalled": (sum(1 for _, st in kernel if st == 2), "count"),
        "kernels.busy_s": (busy("kernels.mp_minimize"), "s"),
        "kernels.us_per_iteration": (busy("kernels.mp_minimize") / iters * 1e6 if iters else 0.0, "us"),
        "minimize.newton_calls": (len(named["minimize.minimize_newton"]), "count"),
        "minimize.newton_iterations": (sum(s.info or 0 for s in named["minimize.minimize_newton"]), "count"),
        "minimize.newton_busy_s": (busy("minimize.minimize_newton"), "s"),
        "stepper.run_evolution_calls": (len(named["stepper.run_evolution"]), "count"),
        "stepper.steps": (len(steps), "count"),
        "stepper.step_overhead_us": (overhead / len(steps) / 1e3 if steps else 0.0, "us"),
        "stepper.substep_solves": (len(named["stepper.phi_tau"]), "count"),
        "stepper.de_giorgi_busy_s": (busy("stepper.de_giorgi_integral"), "s"),
        "stepper.operator_builds": (len(named["stepper.operator_build"]), "count"),
        "stepper.operator_build_s": (busy("stepper.operator_build"), "s"),
        "analysis.energy_one_s": (self_s("analysis.energy_one"), "s"),
        "analysis.energy_sharp_s": (self_s("analysis.energy_sharp"), "s"),
        "analysis.semistability_s": (self_s("analysis.semistability"), "s"),
        "analysis.monotonicity_s": (self_s("analysis.monotonicity"), "s"),
        "analysis.tau_convergence_s": (self_s("analysis.tau_convergence"), "s"),
        "analysis.epsilon_study_s": (self_s("analysis.epsilon_study"), "s"),
        "analysis.density_convergence_s": (self_s("analysis.density_convergence"), "s"),
        "domain.total_energy_calls": (len(named["domain.total_energy"]), "count"),
        "linearized.lin_runs": (len(named["linearized.run_lin_evolution"]), "count"),
        "linearized.lin_busy_s": (busy("linearized.run_lin_evolution"), "s"),
        "cli.csv_format_s": (busy("cli.csv_format"), "s"),
        "cli.write_s": (busy("cli.write"), "s"),
        "cli.bytes_written": (sum(s.info or 0 for s in named["cli.write"]), "bytes"),
    }
