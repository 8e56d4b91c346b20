"""In-memory span tracer that wraps spdhgr's layer functions from outside.

Each probe names a module attribute (the name a caller binds at call
time, e.g. ``spdhgr.training.stiefel_step``) and the span name it
records. ``Tracer.install`` swaps every probe's attribute for a timing
wrapper and ``Tracer.remove`` puts the originals back, so nothing under
``src/`` changes. A probe whose attribute no longer exists (a refactor
renamed or batched it away) is listed in ``Tracer.absent`` and skipped;
the run goes on and that layer reads zero calls.

Spans are (name, start, end, parent, count, phase) rows kept in
memory. A span's self time is its duration minus the durations of its
direct children.
Recording happens only between ``start()`` and ``stop()``, so untraced
work (input checks, untraced units) runs through the wrappers without
adding spans.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Probe:
    module: str  # e.g. "spdhgr.training"
    attr: str  # attribute looked up by callers at call time
    span: str  # span name recorded
    # optional: derives the span name from the call's positional arguments
    split: object = None
    # optional: derives a number from (args, result), summed per span
    count: object = None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counted: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    def __init__(self, probes):
        self.probes = list(probes)
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._phase = None  # None: not recording
        # span rows: [name, start, end, parent_index, count, phase]
        self.spans: list[list] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for probe in self.probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError:
                module = None
            original = getattr(module, probe.attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            setattr(module, probe.attr, self._wrap(original, probe))
            self._installed.append((module, probe.attr, original))
        return self

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- recording --------------------------------------------------------

    def start(self, phase: str) -> None:
        """Record spans, tagged with ``phase``, until ``stop()``."""
        self._phase = phase

    def stop(self) -> None:
        self._phase = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None, self._phase])
        stack.append(index)
        return index

    def _close(self, index: int, end: float, count=None) -> None:
        row = self.spans[index]
        row[2] = end
        row[4] = count
        self._stack().pop()

    def _wrap(self, fn, probe: Probe):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._phase is None:
                return fn(*args, **kwargs)
            name = probe.span
            if probe.split is not None:
                suffix = probe.split(args)
                if suffix:
                    name = f"{name}.{suffix}"
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, time.perf_counter())
                raise
            end = time.perf_counter()
            tracer._close(index, end, _safe_count(probe, args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", probe.attr)
        return traced

    # -- aggregation ------------------------------------------------------

    def stats(self, phase: str) -> dict[str, LayerStats]:
        """Per-span-name calls, total and self time, counts and durations."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
        out: dict[str, LayerStats] = {}
        for i, (name, start, end, _, count, span_phase) in enumerate(self.spans):
            if end is None or span_phase != phase:
                continue
            st = out.setdefault(name, LayerStats())
            duration = end - start
            st.calls += 1
            st.total_s += duration
            st.self_s += duration - child_s[i]
            st.durations.append(duration)
            if count is not None:
                st.counted += count
        return out


def _safe_count(probe: Probe, args, result):
    """The probe's count, or None when a refactor changed what it reads."""
    if probe.count is None:
        return None
    try:
        return float(probe.count(args, result))
    except (TypeError, ValueError, IndexError, KeyError, AttributeError, OSError):
        return None
