"""Traced mode: spans and call counts around the public calls of ``mergebet``.

``Tracer.install`` wraps functions and methods of the ``mergebet`` modules
from outside the package: class methods are replaced on the class, and
functions are replaced under every name that ``harness``, ``strategy`` and
``protocol`` imported them by. Span wrappers record (name, start, end,
parent, operation) in memory; count wrappers only bump a counter. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "scenarios.announce": "scenarios.announce_s",
    "scenarios.draw": "scenarios.draw_s",
    "metrics.report": "metrics.report_s",
    "strategy.step_orders": "strategy.step_orders_s",
    "strategy.settle": "strategy.settle_s",
    "protocol.place": "protocol.place_s",
    "protocol.settle": "protocol.settle_s",
    "protocol.mark": "protocol.mark_s",
    "harness.driver": "harness.driver_self_s",
}

COUNT_METRICS = (
    "scenarios.announce_calls",
    "metrics.hellinger_calls",
    "metrics.profile_builds",
    "metrics.profile_h_calls",
    "protocol.leg_advance_calls",
    "measures.condition_calls",
    "measures.one_step_calls",
    "measures.count_log_probs_calls",
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.op = 0
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, summed child duration]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - self.span_start[idx]
                self.span_end[idx] = end
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> dict:
        """Per-layer metrics accumulated since the last call, then reset."""
        out = {metric: self.self_s.get(span, 0.0)
               for span, metric in SELF_TIME_METRICS.items()}
        out.update({key: self.counts.get(key, 0) for key in COUNT_METRICS})
        self.self_s.clear()
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,op,parent,name,start_s,end_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_op[i]},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f}\n")

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        from mergebet import harness, measures, metrics, protocol, scenarios, \
            strategy

        def on_class(cls, attr, wrap):
            setattr(cls, attr, wrap(cls.__dict__[attr]))

        hell = metrics.hellinger_restricted
        hell_counted = self.counted("metrics.hellinger_calls", hell)
        for mod in (metrics, protocol, strategy):
            mod.hellinger_restricted = hell_counted
        harness.hellinger_restricted = self.spanned("metrics.report",
                                                    hell_counted)
        harness.tv_restricted = self.spanned("metrics.report",
                                             metrics.tv_restricted)
        harness.run_experiment = self.spanned("harness.driver",
                                              harness.run_experiment)

        on_class(metrics.HorizonProfile, "__init__",
                 functools.partial(self.counted, "metrics.profile_builds"))
        on_class(metrics.HorizonProfile, "h",
                 functools.partial(self.counted, "metrics.profile_h_calls"))

        def announce(fn):
            return self.spanned("scenarios.announce",
                                self.counted("scenarios.announce_calls", fn))

        for cls in (scenarios.CoherentForecaster, scenarios.ScriptedForecaster):
            on_class(cls, "announce", announce)
        for cls in (scenarios.SampledReality, scenarios.ScriptedReality,
                    scenarios.SwitchingReality):
            on_class(cls, "next",
                     functools.partial(self.spanned, "scenarios.draw"))

        for cls in (strategy.MixtureSceptic, strategy.LimWrappedSceptic):
            on_class(cls, "step_orders",
                     functools.partial(self.spanned, "strategy.step_orders"))
            on_class(cls, "settle",
                     functools.partial(self.spanned, "strategy.settle"))

        state = protocol.ProtocolState
        on_class(state, "place_order",
                 functools.partial(self.spanned, "protocol.place"))
        on_class(state, "settle_step",
                 functools.partial(self.spanned, "protocol.settle"))
        on_class(state, "capital",
                 functools.partial(self.spanned, "protocol.mark"))
        on_class(protocol.HedgeLeg, "advance",
                 functools.partial(self.counted, "protocol.leg_advance_calls"))

        for cls in (measures.Measure, measures.IID, measures.Markov,
                    measures.BetaLearner, measures.FiniteMixture,
                    measures.Conditioned):
            for attr, key in (("one_step", "measures.one_step_calls"),
                              ("condition", "measures.condition_calls"),
                              ("count_log_probs",
                               "measures.count_log_probs_calls")):
                if attr in cls.__dict__:
                    on_class(cls, attr, functools.partial(self.counted, key))
