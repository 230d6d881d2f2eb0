"""Spans around the public functions of logiq's layers, installed from the
benchmark's side: each function is rebound in the module that calls it, so
nothing under ``src/`` changes.

A call a layer makes into its own module (for example
``des.departures_to_outflow`` calling ``series.trace_to_inflow``) is not
rebound and stays inside the caller's span.
"""

import importlib
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name)
LAYER_FUNCTIONS = (
    ("logiq.pipeline", "validate_scenario", "pipeline.validate"),
    ("logiq.pipeline", "generate_flow_inflows", "pipeline.flow_inflows"),
    ("logiq.pipeline", "dt_scenario", "pipeline.dt"),
    ("logiq.pipeline", "generate_users", "traffic.generate"),
    ("logiq.pipeline", "merge_traces", "series.merge"),
    ("logiq.pipeline", "trace_to_inflow", "series.bin"),
    ("logiq.pipeline", "integrate_queue", "fluid.integrate"),
    ("logiq.network", "integrate_queue", "fluid.integrate"),
    ("logiq.network", "integrate_priority_pair", "fluid.priority"),
    ("logiq.pipeline", "simulate_fifo", "des.simulate"),
    ("logiq.pipeline", "departures_to_outflow", "des.outflow_bin"),
    ("logiq.pipeline", "build_report", "metrics.report"),
    ("logiq.pipeline", "propagate", "network.propagate"),
    ("logiq.pipeline", "inject_priority_flow", "network.priority_inject"),
    ("logiq.pipeline", "latency_series", "network.latency"),
    ("logiq.pipeline", "max_expected_latency", "network.latency"),
)


class Tracer:
    """Rebinds layer functions and sums the self time of their spans.

    With ``timed`` off only the functions in ``observers`` are rebound and no
    clock is read: that mode hands results to the correctness checks without
    tracing the run.  ``observers`` maps a span name to a callable
    ``(args, kwargs, result)`` run after each call returns.
    """

    def __init__(self, observers, timed):
        self.observers = observers
        self.timed = timed
        self.self_s = defaultdict(float)   # span name -> summed self time
        self._stack = []
        self._patched = []

    def install(self):
        for module_name, attr, name in LAYER_FUNCTIONS:
            if self.timed or name in self.observers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span(self, name, func, *args, **kwargs):
        """Run ``func`` inside a span named ``name`` (a no-op when untimed)."""
        if not self.timed:
            return func(*args, **kwargs)
        frame = [time.perf_counter(), 0.0]  # start, time covered by children
        self._stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def _wrap(self, func, name):
        observer = self.observers.get(name)

        def wrapper(*args, **kwargs):
            result = self.span(name, func, *args, **kwargs)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper
