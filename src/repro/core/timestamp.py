"""Virtual-time stamps with a deterministic total order.

Pia maintains a two-level hierarchy of virtual time (paper section 2.1): a
*subsystem time* plus per-component *local times*.  Every scheduled event
carries a :class:`Timestamp` that orders it totally against every other
event, so simulation runs are bit-for-bit reproducible.

A timestamp is ``(time, priority, seq)``:

``time``
    Virtual time in seconds.
``priority``
    Breaks ties at equal virtual time.  Lower values run first.  The
    framework reserves a few bands (see the ``PRIORITY_*`` constants) so
    that, for example, an interrupt arriving at exactly the instant a
    component synchronises is delivered *before* the component resumes.
``seq``
    A per-scheduler monotone counter breaking any remaining ties in
    scheduling order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Control events (checkpoint marks, run-level switches) preempt everything.
PRIORITY_CONTROL = 0
#: Interrupts outrank ordinary signals so a synchronising CPU sees them.
PRIORITY_INTERRUPT = 5
#: Ordinary signal/message delivery.
PRIORITY_SIGNAL = 10
#: Wake-ups for components blocked on ``WaitUntil``/``Sync`` run after all
#: same-instant deliveries, so the component observes a settled world.
PRIORITY_WAKE = 20


class Timestamp(NamedTuple):
    """A totally ordered point in virtual time."""

    time: float
    priority: int = PRIORITY_SIGNAL
    seq: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"t={self.time:g}/p{self.priority}/#{self.seq}"


#: The beginning of virtual time.
ZERO = Timestamp(0.0, PRIORITY_CONTROL, 0)

#: A timestamp later than any event the simulation can produce.
FOREVER = Timestamp(math.inf, PRIORITY_WAKE, 2**62)
