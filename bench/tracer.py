"""Span tracer installed around tracksim's public functions from outside.

``Tracer.install`` replaces every public function defined in tracksim that
the modules cli, config, sim, gp, control, kinematics and terrain3d hold
in their namespaces with a wrapper that records one span per call. A
function is wrapped under the name its caller looks it up by, so the
closed-form inverse called by the controller is ``control.inverse_second_order``
and the GP query called by the learned slot is ``sim.predict``.

Spans are kept in memory as ``(pid, id, parent, name, start, end, error)``
and written out as JSON lines when the traced process ends. Times come
from ``time.monotonic``, which is one clock for every process on the host,
so spans of the CLI child processes line up with the benchmark's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("cli", "config", "sim", "gp", "control", "kinematics", "terrain3d")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._originals: list[tuple] = []

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"tracksim.{short}")
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("tracksim")
                ):
                    continue
                self._originals.append((module, name, obj))
                setattr(module, name, self._wrap(f"{short}.{name}", obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._originals):
            setattr(module, name, obj)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack, pid = self.spans, self._stack, os.getpid()
        is_rollout = name.endswith(".rollout")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if is_rollout:
                learned = kwargs.get("inverse_model", args[7] if len(args) > 7 else None)
                label += ".learned" if learned is not None else ".closed_form"
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            error = None
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append((pid, span_id, parent, label, start, end, error))

        return traced

    def write(self, path: str, meta: dict | None = None) -> None:
        """JSON lines: one line of metadata, then one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(meta or {}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> tuple[dict, list[tuple]]:
    with open(path) as fh:
        meta = json.loads(fh.readline())
        return meta, [tuple(json.loads(line)) for line in fh]


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, errors, total and self seconds.

    Self time is a span's duration minus the part its child spans cover.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for pid, _, parent, _, start, end, _ in spans:
        if parent:
            child_time[(pid, parent)] += end - start
    out: dict[str, dict] = {}
    for pid, span_id, _, name, start, end, error in spans:
        row = out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += error is not None
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[(pid, span_id)]
    return dict(sorted(out.items()))
