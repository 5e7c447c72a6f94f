"""Clock abstraction: real time for serving, virtual time for replay.

Everything in the serving stack that needs "now" — enqueue stamps,
deadline-batching flush times, autoscaler hysteresis windows, the soak
harness's event loop — reads it through a :class:`Clock` instead of
calling :func:`time.perf_counter` directly. Production uses
:class:`SystemClock` (monotonic, wall-paced); tests and the soak
harness use :class:`ManualClock`, which only moves when told to, so an
identically-seeded run replays the *exact* same admission, flush, and
scaling decisions — the determinism the overload tests and the soak's
repeatable shed/scale event sequences depend on.
"""

from __future__ import annotations

import time

from ..errors import ConfigError
from .sanitizer import make_lock


class Clock:
    """Monotonic time source: ``now()`` in seconds, plus ``sleep()``."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """The process-wide monotonic clock (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """A clock that advances only when told to — deterministic replay.

    ``sleep`` advances instead of blocking, so code written against
    :class:`Clock` runs unmodified (and instantly) under virtual time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        # a service's worker threads all sleep on (advance) one clock
        self._lock = make_lock("serve.clock.manual")

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ConfigError("cannot advance a clock backwards",
                              seconds=seconds)
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, t: float) -> float:
        """Jump forward to absolute time ``t`` (no-op when in the past)."""
        with self._lock:
            if t > self._now:
                self._now = t
            return self._now


#: Shared default so components constructed without an explicit clock
#: agree on one time source.
SYSTEM_CLOCK = SystemClock()
