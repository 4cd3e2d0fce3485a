"""In-memory spans around the benchmark's calls into affdim.

A span records a name, its start and end on the perf_counter clock, the
span that was open when it started, and the pass it belongs to, so all
spans of one pass share an identifier. Spans stay in memory and are
written once, when the run ends. Untraced runs use NULL_TRACER, whose
span() is a shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.pass_id = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "pass": self.pass_id,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self) -> Dict[str, List[float]]:
        """Durations of the finished spans, grouped by name."""
        out: Dict[str, List[float]] = {}
        for rec in self.spans:
            if "end" in rec:
                out.setdefault(rec["name"], []).append(rec["end"] - rec["start"])
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


class _NullTracer:
    pass_id = None

    def __init__(self) -> None:
        # callers may write attributes into the yielded record; they go here
        self._null = nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


NULL_TRACER = _NullTracer()
