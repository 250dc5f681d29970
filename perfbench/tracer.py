"""Spans recorded from outside the program, by wrapping public functions.

A function is wrapped at the name where its caller looks it up: code that
did ``from .pipeline import build_dataset`` holds its own reference, so the
wrapper is installed in the importing module as well as in the defining
one.  Each call records a span (name, start, end, parent, run id, thread)
plus optional attributes computed from the arguments and the result.
Spans stay in memory until the run ends.

Spans opened on a worker thread with no open span of their own take the
innermost span open on the thread that started the tracer as their parent,
which is where the pipeline waits for its thread pool.
"""

import functools
import json
import threading
import time
import uuid


class Tracer:
    """Records spans from wrapped functions; ``restore`` unwraps them."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._sites = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name, fn, attrs=None, cpu=False):
        """A wrapper of ``fn`` that records a span called ``name``.

        ``attrs(args, kwargs, result)`` returns extra fields for the span.
        ``cpu`` adds the process CPU time spent inside the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span_id = self._new_id()
            stack.append(span_id)
            cpu0 = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                    "thread": threading.get_ident()}
            if cpu:
                span["cpu_s"] = time.process_time() - cpu0
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced

    def add_site(self, module, attr, name, attrs=None, cpu=False):
        """Prepare a traced wrapper for ``module.attr``; see ``install``."""
        original = getattr(module, attr)
        self._sites.append((module, attr, original,
                            self.wrap(name, original, attrs, cpu)))

    def install(self):
        """Put every prepared wrapper in place of its original."""
        for module, attr, _, traced in self._sites:
            setattr(module, attr, traced)

    def restore(self):
        """Put every original back."""
        for module, attr, original, _ in reversed(self._sites):
            setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """Map span id to its duration minus the union of its children's spans."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        kids = sorted((max(k["start"], span["start"]),
                       min(k["end"], span["end"]))
                      for k in children.get(span["id"], ()))
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in kids:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
