"""In-memory span recorder for the benchmark's traced runs.

A span covers one call from the benchmark into a public function of the
library.  Its name is ``<layer>.<function>``; it records start and end
times, the enclosing span and the request id.  Counters are added per
request at the same call sites.  Nothing is written until :meth:`dump`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        #: id of the current request; counters are added to it
        self.request = -1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing.  An
        exception is tagged with the layer of the innermost span it
        leaves."""
        if not self.enabled:
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                _tag(e, name)
                raise
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                self.request]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            _tag(e, name)
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def begin(self, request: int) -> None:
        """Open the root span of a request."""
        self.request = request
        if self.enabled:
            self._stack.append(len(self.spans))
            self.spans.append(["bench.request", perf_counter(), 0.0, None, request])

    def end(self) -> None:
        if self.enabled:
            self.spans[self._stack.pop()][2] = perf_counter()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[self.request][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per request, the self time of each span name: its duration minus
        the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _, req) in enumerate(self.spans):
            out[req][name] += end - start - child[k]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "request"],
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()},
            }, fh)


def layer_of(error: BaseException) -> str:
    """The layer whose call raised ``error``; "bench" if it came from the
    benchmark's own code."""
    return getattr(error, "bench_layer", "bench")


def _tag(error: Exception, name: str) -> None:
    if not hasattr(error, "bench_layer"):
        try:
            error.bench_layer = name.split(".", 1)[0]
        except AttributeError:
            pass
