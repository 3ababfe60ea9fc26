"""Spans around the calls one cqcap module makes into the next.

`Tracer.installed()` rebinds, for the duration of a `with` block, the names
through which the CLI, the sweep and the benchmark harness reach the
solver, channel validation and the eigensolver. Each call then records a
span (name, start, end, parent) in memory; `write` stores them as JSON
lines and `layer_totals` turns them into per-layer counts and self times.

The trace sees only the call paths wrapped here. A change that routes work
around these names (for example a batched solve that no longer calls
`solve` per channel) needs a matching change here before the trace can
attribute the new path.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name): each attribute is a name one module looks
# up in its own namespace when it calls into another.
WRAPPED = [
    ("cqcap.cli", "solve", "solver.solve"),
    ("cqcap.bloch", "solve", "solver.solve"),
    ("cqcap.bench", "solve", "solver.solve"),
    ("cqcap.solver", "_eigh", "hermitian.eigh"),
    ("cqcap.qinfo", "_eigh", "hermitian.eigh"),
    ("cqcap.qinfo", "CqChannel.__post_init__", "qinfo.validate"),
    ("cqcap.bloch", "realize_channel", "bloch.realize"),
    ("cqcap.bloch", "approx_p1", "bloch.closed_form"),
    ("cqcap.bloch", "holevo_bloch", "bloch.closed_form"),
    ("cqcap.bench", "random_channel", "bench.generate"),
    ("cqcap.cli", "error_sweep", "bloch.error_sweep"),
    ("cqcap.cli", "run_bench", "bench.run_bench"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name id, t0, t1, parent
        self.iterations = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (nid, t0, clock(), parent)
                stack.pop()

        return traced

    def _count_iterations(self, fn):
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.iterations += report.iterations
            return report
        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name in WRAPPED:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                fn = self.wrap(name, original)
                if name == "solver.solve":
                    fn = self._count_iterations(fn)
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self, excluded) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct children). `excluded(t0, t1)` gives time
        inside [t0, t1] that belongs to no span, such as the host probe."""
        durations = [t1 - t0 - excluded(t0, t1) for _, t0, t1, _ in self.spans]
        child_time = defaultdict(float)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += d
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for sid, ((nid, _, _, _), d) in enumerate(zip(self.spans, durations)):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child_time[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, (nid, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": self.names[nid],
                                    "start": t0, "end": t1,
                                    "parent": parent}) + "\n")

