"""The one-row-per-record trace sink: the columnar Tracer's oracle.

:class:`TupleTracer` keeps every admitted record as one
:class:`~repro.sim.TraceEvent` in a list and counts categories as they
arrive.  It is the plainest correct sink, so the golden tests assert
that :class:`~repro.sim.Tracer`'s columnar storage yields the same
rows, counts and ``to_jsonl()`` bytes.
"""

from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.sim import TraceEvent, Tracer


class TupleTracer(Tracer):
    """One :class:`TraceEvent` per record in a list (same arguments
    and validation as :class:`Tracer`)."""

    def __init__(self, categories: Optional[Iterable[str]] = None):
        super().__init__(categories)
        self._events: List[TraceEvent] = []
        self._counts: Counter = Counter()

    def append(self, t: float, category: str,
               fields: Dict[str, Any]) -> None:
        if not self.wants(category):
            return
        self._counts[category] += 1
        self._events.append(TraceEvent(t, category, fields,
                                       len(self._events) + 1))

    def _rows(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def count(self, category: str) -> int:
        return self._counts[category]

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self._events)
