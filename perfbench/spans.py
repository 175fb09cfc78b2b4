"""The benchmark's own span recorder for the traced run.

It wraps public entry points of the ``repro`` layers from outside (by
replacing the module or class attribute the callers look up) and times
every call.  Nothing inside ``src/`` changes and ``repro.obs`` stays off,
so the program's own spans cost nothing here.

Spans are kept in memory.  At the end the recorder reports, per span
name, the call count, the total time (outermost calls only, so a name
nested in itself is not counted twice) and the self time (duration minus
the time of direct child spans).  Self times of all names plus the time
no span covers add up to the traced wall time by construction.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Nested wall-clock spans around wrapped callables (single thread)."""

    def __init__(self) -> None:
        #: finished spans as (name, start, duration, depth).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: counts taken at span boundaries (iterations, escalations, ...).
        self.counters: Counter = Counter()
        #: time of name B spent while name A was open, keyed (A, B).
        self.nested_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self._stack: List[list] = []
        self._open: Counter = Counter()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["SpanRecorder", Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        opened = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                opened[name] -= 1
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if not opened[name]:
                    self.total_s[name] += duration
                    self.calls[name] += 1
                    for outer, count in opened.items():
                        if count:
                            self.nested_s[(outer, name)] += duration
                self.spans.append((name, frame[1], duration, len(stack)))
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Optional[Callable[["SpanRecorder", Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a traced version of itself."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, on_result))

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- results

    def covered_s(self) -> float:
        """Wall time covered by some span (sum of outermost durations)."""
        return sum(self.self_s.values())

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto loads it),
        one event at a time so large traces need no second copy."""
        pid = os.getpid()
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for position, (name, start, duration, depth) in enumerate(self.spans):
                event = {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {"depth": depth},
                }
                handle.write(("," if position else "") + json.dumps(event))
            handle.write("]}\n")
