"""Spans around the program's public functions, for the traced run.

The wrappers live here, in the benchmark's own files, and are installed by
replacing module attributes; nothing in the program changes.  Each span
records its duration and the part of it its child spans cover, so a
layer's self time is its span minus its children.  The wrappers' own cost
is measured before each traced loop (``calibrate``), at the speed probe's
reference speed, and taken out of every figure once the spans are scaled to
that speed.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from unisearch import bench, cli, core, solvers

import probe

# per-name statistics, by index: calls, span ns, self ns, wrapper ns inside
# its own spans, wrapper ns of its direct children outside their spans,
# wrapper ns of all its descendants
CALLS, SPAN, SELF, OWN, CHILD_OUT, DESC = range(6)


def calibrate(n: int = 50_000, repeats: int = 5) -> dict[bool, tuple[float, float]]:
    """Wrapper cost on an empty function, for plain and for named wrappers:
    ns inside the span and ns outside it, per call, at the Python probe's
    reference speed.  Each repeat is scaled by the probe timed around it;
    median of ``repeats``."""
    def noop():
        return None

    clock, costs = time.perf_counter_ns, {}
    for named in (False, True):
        inside, outside = [], []
        for _ in range(repeats):
            tr = Tracer({False: (0.0, 0.0), True: (0.0, 0.0)})
            wrapped = tr.wrap("noop", noop, (lambda args: "noop") if named else None)
            before = probe.probe("python")
            t0 = clock()
            for _ in range(n):
                noop()
            bare = clock() - t0
            t0 = clock()
            for _ in range(n):
                wrapped()
            full = clock() - t0
            after = probe.probe("python")
            speed = probe.REFERENCE_NS["python"] * 2 / (before + after)
            span = tr.stats["noop"][SPAN] / n
            inside.append(span * speed)
            outside.append(((full - bare) / n - span) * speed)
        costs[named] = (statistics.median(inside), statistics.median(outside))
    return costs


class Tracer:
    def __init__(self, costs: dict[bool, tuple[float, float]]):
        self.costs = costs
        self.stats: dict[str, list[float]] = {}
        self.grid_points = 0
        self._stack = [[0, 0.0, 0.0]]   # per open span: child ns, CHILD_OUT, DESC
        self._restore = []

    def _entry(self, name: str) -> list[float]:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0.0, 0.0, 0.0]
        return st

    def wrap(self, name, fn, namer=None):
        """``fn`` timed as a span called ``name``, or ``namer(args)``."""
        stack, entry, clock = self._stack, self._entry, time.perf_counter_ns
        o_in, o_out = self.costs[namer is not None]
        fixed = entry(name) if namer is None else None

        def span(*args, **kwargs):
            frame = [0, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = fixed or entry(namer(args))
                st[CALLS] += 1
                st[SPAN] += dt
                st[SELF] += dt - frame[0]
                st[OWN] += o_in
                st[CHILD_OUT] += frame[1]
                st[DESC] += frame[2]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += o_out
                parent[2] += frame[2] + o_in + o_out
        return span

    def objective(self, fn):
        """A raw objective: scalar calls are solver evaluations, array
        calls are the oracle's vectorised grid."""
        def namer(args):
            x = args[0]
            if isinstance(x, np.ndarray):
                self.grid_points += x.size
                return "fn.grid"
            return "fn"
        return self.wrap(None, fn, namer)

    def patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public entry points of every layer."""
        def method_name(args):
            return "minimize." + getattr(args[0], "value", args[0])

        minimize = self.wrap(None, solvers.minimize, method_name)
        for module in (solvers, bench, cli):
            self.patch(module, "minimize", minimize)
        self.patch(core.Objective, "evaluate",
                   self.wrap("core.Objective.evaluate", core.Objective.evaluate))
        self.patch(solvers, "TraceEvent", self.wrap("core.TraceEvent", solvers.TraceEvent))
        self.patch(solvers, "Interval", self.wrap("core.Interval", solvers.Interval))
        self.patch(bench, "brute_force_minimum",
                   self.wrap("oracle.brute_force_minimum", bench.brute_force_minimum))
        for fn in ("run_table1", "run_table2", "run_verify", "emit_report"):
            self.patch(cli, fn, self.wrap("bench." + fn, getattr(cli, fn)))
        self.patch(cli, "main",
                   self.wrap(None, cli.main, lambda args: "cli.main." + args[0][0]))
        build_parser = self.wrap("cli.build_parser", cli.build_parser)

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser
        self.patch(cli, "build_parser", traced_build_parser)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats[name][CALLS] if name in self.stats else 0

    def total_ns(self, name: str, scale: float = 1.0) -> float:
        """Time in ``name`` including its children, spans multiplied by
        ``scale`` (reference over measured probe time), without wrapper cost."""
        st = self.stats.get(name)
        return 0.0 if st is None else scale * st[SPAN] - st[OWN] - st[DESC]

    def mean_ns(self, name: str, scale: float = 1.0) -> float:
        """``total_ns`` per call."""
        return self.total_ns(name, scale) / self.calls(name)

    def self_ns(self, name: str, scale: float = 1.0) -> float:
        """Time in ``name`` outside its children, spans multiplied by
        ``scale``, without wrapper cost."""
        st = self.stats.get(name)
        return 0.0 if st is None else scale * st[SELF] - st[OWN] - st[CHILD_OUT]
