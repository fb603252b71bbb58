"""Outside-in tracer: per-layer spans recorded around qscissor's public functions.

The tracer lives in the benchmark, not in the package.  ``Tracer.install``
replaces each function in ``LAYERS`` with a wrapper that records one span per
call, in *every* loaded ``qscissor`` module that holds the function, because a
module that did ``from .circuit import apply_mode_unitary`` keeps its own
reference and would otherwise call past the span.  Spans stay in memory until
``dump`` writes them once, at the end of the run.

``summarize`` turns a span dump into per-function statistics; it runs in the
benchmark process (run.py) and needs neither numpy nor qscissor.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Traced functions as "<module>.<function>", module relative to ``qscissor``.
LAYERS = (
    "cli.resolve_config",
    "cli.write_results",
    "fock.project_pattern",
    "fock.tensor",
    "circuit.permanent",
    "circuit.fock_amplitude",
    "circuit.fock_transfer_matrix",
    "circuit.compile_circuit",
    "circuit.apply_mode_unitary",
    "scissor.heralded_amplify",
    "scissor.pnr_coincidence_probability",
    "analysis.fringe_scan",
    "sensitivity.lossy_gain_model",
    "sensitivity.saltelli_sample",
    "sensitivity.first_order_indices",
)

#: A fock_transfer_matrix span that contains a permanent span built the
#: matrix (a cache miss); one without any served it from the cache.
MISS_SPAN, MISS_MARKER = "circuit.fock_transfer_matrix", "circuit.permanent"


def _loss_rows(args, kwargs) -> int:
    """Loss vectors handed to one ``lossy_gain_model`` call."""
    import numpy as np

    losses = kwargs["losses"] if "losses" in kwargs else args[2]
    shape = np.shape(losses)
    return shape[0] if len(shape) == 2 else 1


#: Work counted per call, as a function of the call's arguments.
WORK_COUNTERS = {"sensitivity.lossy_gain_model": _loss_rows}


class Tracer:
    """Collects spans ``[name index, start ns, end ns, parent index, work]``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        counter = WORK_COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = counter(args, kwargs) if counter else 0
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = [name_index, start, end, parent, work]

        return traced

    def install(self) -> None:
        """Rebind every function in ``LAYERS`` across all loaded qscissor modules."""
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == "qscissor" or key.startswith("qscissor."))
        ]
        for name in LAYERS:
            module_name, function_name = name.rsplit(".", 1)
            home = sys.modules[f"qscissor.{module_name}"]
            original = getattr(home, function_name)
            traced = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "names": self.names, "spans": self.spans}, fh)


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per traced function: calls, total_s, self_s, work; misses for MISS_SPAN.

    ``self_s`` is a span's duration minus the durations of its direct child
    spans.  ``total_s`` counts only spans with no ancestor of the same name,
    so a recursive call is not counted twice.
    """
    names, spans = dump["names"], dump["spans"]
    stats = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
        for name in names
    }
    child_ns = [0] * len(spans)
    for name_index, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    missed: set[int] = set()
    for span_id, (name_index, start, end, parent, work) in enumerate(spans):
        name = names[name_index]
        entry = stats[name]
        entry["calls"] += 1
        entry["work"] += work
        entry["self_s"] += (end - start - child_ns[span_id]) * 1e-9
        ancestor, nested, nearest_miss = parent, False, None
        while ancestor >= 0:
            ancestor_name = names[spans[ancestor][0]]
            nested = nested or ancestor_name == name
            if nearest_miss is None and ancestor_name == MISS_SPAN:
                nearest_miss = ancestor
            ancestor = spans[ancestor][3]
        if not nested:
            entry["total_s"] += (end - start) * 1e-9
        if name == MISS_MARKER and nearest_miss is not None:
            missed.add(nearest_miss)
    stats[MISS_SPAN]["misses"] = len(missed)
    stats[MISS_SPAN]["miss_s"] = sum((spans[i][2] - spans[i][1]) * 1e-9 for i in missed)
    return stats
