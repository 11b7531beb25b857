"""Span ledger for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it began, and the run id every span of one
run shares.  Spans are kept in memory and written out once, at the end.
The untraced run uses :data:`OFF`, whose ``span`` does nothing, so both
runs execute the same code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Ledger:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def shim(self, owner: object, attr: str, name: str) -> Iterator[None]:
        """Wrap ``owner.attr`` so each call records a span; restore on exit.

        Only for calls that take milliseconds: a per-request shim would
        measure mostly itself.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading the ledger ------------------------------------------------

    def _named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self._named(name))

    def count(self, name: str) -> int:
        return len(self._named(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus what their direct children cover
        (children of one span never overlap: the ledger is single-threaded)."""
        ids = {s["id"] for s in self._named(name)}
        children = sum(
            s["end"] - s["start"] for s in self.spans
            if s["parent"] in ids and s["end"] is not None
        )
        return self.total(name) - children

    def write(self, path: Path, context: Optional[Dict[str, object]] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"run": self.run_id, "context": context or {}, "spans": self.spans},
            indent=1,
        ))


class _Off:
    """The untraced run's ledger: records nothing."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()

    @staticmethod
    def shim(owner: object, attr: str, name: str):
        return contextlib.nullcontext()


OFF = _Off()
