"""Spans recorded around calls into sliceblur's public functions.

The benchmark installs its own wrappers for the duration of a traced run;
the program itself is not instrumented.  A wrapper replaces the function
wherever a ``sliceblur`` module binds it (``cli`` imports
``separable_filter_2d`` by name, the package re-exports ``filter_at``), so
every call path reaches it.  Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rid = None

    @contextmanager
    def request(self, rid):
        """Tag every span opened inside the block with request id ``rid``."""
        previous, self._rid = self._rid, rid
        try:
            yield
        finally:
            self._rid = previous

    def _wrap(self, name, fn, describe):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "rid": self._rid,
                "parent": self._stack[-1] if self._stack else None,
                "error": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap ``(module, attribute, span name, describe)`` targets.

        ``describe(args, kwargs, result)`` returns extra span fields, or is
        None.
        """
        replaced = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, describe)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "sliceblur" and not mod_name.startswith("sliceblur."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(replaced):
                setattr(mod, key, original)

    def by_request(self, rids) -> dict:
        """{rid: {span name: [(duration_ns, self_ns, span), ...]}} for ``rids``.

        Self time is a span's duration minus that of its direct children;
        calls are single-threaded, so children never overlap.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        wanted = set(rids)
        out = {rid: defaultdict(list) for rid in wanted}
        for span in self.spans:
            if span["rid"] in wanted:
                dur = span["end_ns"] - span["start_ns"]
                out[span["rid"]][span["name"]].append((dur, dur - child_ns[span["id"]], span))
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
