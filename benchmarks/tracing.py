"""In-memory span recorder for the traced run.

Wrappers live only here.  Each one replaces a function of the package under
test at every place it is looked up: its home module, every ``kstrata``
module that imported it by name (``kstrata.quartic.resultant``, the
package's re-exports) and class attributes for methods.  A span records
(name, start, end, parent span, job id); spans stay in memory until the run
writes them out once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = (
    "signature",
    "classifier",
    "genus_one",
    "framing",
    "prong",
    "degeneration",
    "polynomials",
    "series",
    "quartic",
    "cli",
)

# Operators are the inner loop of elimination and series work, so their
# counts are where an algorithmic change shows first.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}

# Functions whose return value says whether the attempt was useful.
OUTCOMES = {"quartic.smoothness_certificate": lambda result: result.status}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []  # perf_counter_ns
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.outcomes: list[tuple[int, str, str]] = []  # (job, span name, outcome)
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, jobs, stack = (
            self.names, self.starts, self.ends, self.parents, self.jobs, self._stack,
        )
        outcome = OUTCOMES.get(name)

        def span(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if outcome is not None:
                self.outcomes.append((self.job, name, outcome(result)))
            return result

        span.__wrapped__ = fn
        return span

    def per_job(self):
        """{job: {span name: [calls, self seconds]}}.

        Self time is a span's duration minus its children's durations; the
        recorder sees one call stack, so children are disjoint and nested.
        """
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for idx, name in enumerate(self.names):
            cell = out[self.jobs[idx]][name]
            cell[0] += 1
            cell[1] += self.ends[idx] - self.starts[idx] - child[idx]
        for cells in out.values():
            for cell in cells.values():
                cell[1] /= 1e9
        return out

    def write(self, path):
        """Write every span once, as columns: names interned, nanoseconds from the first span."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        columns = {
            "names": names,
            "name": [index[n] for n in self.names],
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
            "parent": self.parents,
            "job": self.jobs,
            "outcomes": self.outcomes,
        }
        # one C-encoded string: json.dump would write the spans chunk by chunk
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(columns))


def _targets():
    """(owner, attribute, raw value, span name) for every traced callable."""
    for modname in MODULES:
        mod = importlib.import_module(f"kstrata.{modname}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield mod, attr, obj, f"{modname}.{attr}"
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_") and meth not in OPERATORS:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                        yield obj, meth, raw, f"{modname}.{obj.__name__}.{meth}"


class Patch:
    """Install wrappers on enter, restore every original on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {}
        for owner, attr, raw, name in _targets():
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.recorder.wrap(name, raw.__func__)))
                self._saved.append((owner, attr, raw))
            elif inspect.isclass(owner):
                setattr(owner, attr, self.recorder.wrap(name, raw))
                self._saved.append((owner, attr, raw))
            else:
                wrappers[id(raw)] = (raw, self.recorder.wrap(name, raw))
        # a function imported by name elsewhere is looked up there, too
        for modname, mod in list(sys.modules.items()):
            if modname != "kstrata" and not modname.startswith("kstrata."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, obj))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False
