"""Benchmark-side span tracer for the surgeshare public functions.

``Tracer.install`` replaces each public function named in
``LAYER_FUNCTIONS`` with a timing wrapper, in its own module and in every
other ``surgeshare`` module that imported the same object (for example
``solver.qos_all`` or ``aimd.binom_pmf_cont``).  ``uninstall`` restores
the originals.  A name a module no longer defines is listed in
``absent`` and otherwise ignored.

Every call updates per-name totals: calls, duration and self time (the
duration minus the time covered by the nested traced calls; nested
calls are synchronous, so the children's intervals are disjoint and
their durations add up to the covered part).  Calls outside the
``HOT`` set are also kept as span records in memory:
``(run_id, name, start, end, parent, self_s)`` where ``parent`` is the
index of the nearest recorded enclosing span or -1.  The hot kernels
run millions of times per pass, so they are counted but not recorded
one by one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_FUNCTIONS = (
    ("qos", "binom_cdf"),
    ("qos", "qos_all"),
    ("qos", "min_items_for_qos"),
    ("qos", "binom_pmf_cont"),
    ("qos", "binom_cdf_cont"),
    ("cost", "cost_eval"),
    ("cost", "fit_smooth_discount"),
    ("solver", "solve_min_cost"),
    ("solver", "feasible"),
    ("solver", "brute_force_design"),
    ("aimd", "run_partition"),
    ("aimd", "scan_oracle"),
    ("aimd", "write_trace_csv"),
    ("scenarios", "load_scenario"),
    ("cli", "cli_dispatch"),
)

HOT = frozenset({
    "qos.binom_cdf", "qos.qos_all", "qos.binom_pmf_cont", "qos.binom_cdf_cont",
    "cost.cost_eval", "solver.feasible",
})

PACKAGE = "surgeshare"


class Tracer:
    """Collects spans and per-name totals from wrapped functions."""

    def __init__(self):
        self.run_id = 0
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.spans = []    # (run_id, name, start, end, parent, self_s)
        self.absent = []
        self._stack = []   # open calls: [child_s, span index]
        self._patches = []

    def wrap(self, name, fn, record=True):
        """Return ``fn`` wrapped so that each call is timed under ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += self_s
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans[index] = (self.run_id, name, start, end, parent, self_s)

        return traced

    def call(self, run_id, name, fn, *args, **kwargs):
        """Run ``fn`` as the root span of operation ``run_id``."""
        self.run_id = run_id
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        homes = {}
        for module_name, _ in LAYER_FUNCTIONS:
            try:
                homes[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                homes[module_name] = None
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr in LAYER_FUNCTIONS:
            name = f"{module_name}.{attr}"
            original = getattr(homes[module_name], attr, None)
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, record=name not in HOT)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, original))

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def merge(self, stats, spans, root):
        """Add the totals and spans of a child process traced under span ``root``.

        The child's top-level spans become children of ``root``, whose
        self time loses the part they cover.  Both processes read the
        same monotonic clock, so the intervals nest.
        """
        for name, (calls, total, self_s) in stats.items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += self_s
        offset = len(self.spans)
        covered = 0.0
        for run_id, name, start, end, parent, self_s in spans:
            if parent < 0:
                covered += end - start
            self.spans.append((run_id, name, start, end,
                               parent + offset if parent >= 0 else root, self_s))
        run_id, name, start, end, parent, self_s = self.spans[root]
        self.spans[root] = (run_id, name, start, end, parent, self_s - covered)
        self.stats[name][2] -= covered

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time_violations(self, tolerance=1e-9):
        """Spans and totals whose self time is negative or exceeds the duration."""
        bad = [span for span in self.spans
               if not (-tolerance <= span[5] <= span[3] - span[2] + tolerance)]
        bad += [(name, stat) for name, stat in self.stats.items()
                if not (-tolerance <= stat[2] <= stat[1] + tolerance)]
        return bad

    def dump(self):
        return {"stats": self.stats, "spans": self.spans, "absent": self.absent}
