"""A bounded, deterministic flight recorder for structured events.

Long-horizon serving runs cannot afford an unbounded event log, but the
*recent* event history is exactly what debugging an SLO violation needs:
which tenants were admitted, how batches coalesced, where they were
dispatched, and when they completed.  :class:`FlightRecorder` keeps a
ring buffer of the last ``capacity`` structured events — sized in
**events**, never in horizon — appended in event-loop order, so for a
given scenario + seed the retained window is byte-identical across
processes, worker counts, and reruns.

Events are plain dicts carrying a monotonically increasing ``seq``, the
simulated time, a ``kind`` tag, and arbitrary JSON-safe fields;
:meth:`FlightRecorder.to_jsonl` renders them as canonical (sorted-key)
JSON lines for the ``events.jsonl`` telemetry artifact.  The ring holds
``(seq, time, kind, fields)`` tuples and builds the dicts only when
:meth:`FlightRecorder.events` is asked for them — most recorded events
are evicted unread.

``trigger()`` marks a condition worth dumping for (the serving engine
calls it on the first SLO violation); the recorder remembers the first
trigger so a supervisor can decide whether the dump is interesting
without replaying it.
"""

from __future__ import annotations

import json

__all__ = ["DEFAULT_CAPACITY", "FlightRecorder"]

#: Default ring size, in events.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity ring buffer of structured, ordered events."""

    __slots__ = ("capacity", "_ring", "_head", "_seq", "first_trigger")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("FlightRecorder capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring = []
        self._head = 0  # slot the next event overwrites once full
        self._seq = 0
        #: ``(reason, time, seq)`` of the first trigger, or None.
        self.first_trigger = None

    def __len__(self):
        return len(self._ring)

    @property
    def total_recorded(self):
        """Events ever recorded (>= len(self) once the ring wrapped)."""
        return self._seq

    @property
    def dropped(self):
        """Events evicted by the ring bound."""
        return self._seq - len(self._ring)

    def record(self, kind, time, **fields):
        """Append one event and return its ``seq``; evicts the oldest
        when at capacity."""
        seq = self._seq
        event = (seq, time, kind, fields)
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
        self._seq = seq + 1
        return seq

    def trigger(self, reason, time, **fields):
        """Record a trigger event and remember the first one; returns
        its ``seq``."""
        seq = self.record("trigger", time, reason=str(reason), **fields)
        if self.first_trigger is None:
            self.first_trigger = (str(reason), float(time), seq)
        return seq

    def events(self):
        """Retained events in recording (``seq``) order, as dicts."""
        return [{"seq": seq, "time": float(time), "kind": str(kind),
                 **fields}
                for seq, time, kind, fields in
                self._ring[self._head:] + self._ring[:self._head]]

    def to_jsonl(self, extra_fields=None):
        """Canonical JSON-lines dump of the retained window.

        ``extra_fields`` (a dict) is merged into every line — the serve
        CLI stamps the fleet name this way when several recorders share
        one ``events.jsonl``.
        """
        lines = []
        for event in self.events():
            if extra_fields:
                event = {**event, **extra_fields}
            lines.append(json.dumps(event, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
