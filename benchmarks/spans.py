"""Span recording around the benchmark's calls into the library.

Spans are recorded from the benchmark's side of each call: the library is
never patched, so a span covers one public function call as a caller sees
it.  Span names are ``<module>.<what>``; the module part names the layer.
The benchmark's own glue records ``bench.op`` (one op, the latency the
untraced run measures) and ``bench.probe`` (direct layer calls made on the
op's inputs, excluded from op latency).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """The untraced run: calls straight through, records nothing."""

    enabled = False
    op = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass

    def observe(self, name, value):
        pass


class Tracer:
    """Keeps every span in memory; :meth:`write` dumps them when the run ends.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
    the enclosing span (-1 at the root) and ``op`` the id of the op that
    caused it.  Counts and observations are keyed by metric name.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.observed = defaultdict(list)

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] += k

    def observe(self, name, value):
        self.observed[name].append(value)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is the span's duration minus the part covered by its
        child spans; spans of one thread never overlap, so the covered part
        is the sum of the children's durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - covered[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                )
                fh.write("\n")
