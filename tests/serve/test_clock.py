"""Clock abstraction: virtual time for deterministic serving replay."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.serve import ManualClock, SystemClock
from repro.serve.clock import SYSTEM_CLOCK, Clock


class TestManualClock:
    def test_starts_at_given_origin(self):
        assert ManualClock().now() == 0.0
        assert ManualClock(start=5.0).now() == 5.0

    def test_advance_accumulates(self):
        clock = ManualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_advance_to_is_monotone(self):
        clock = ManualClock()
        clock.advance_to(3.0)
        clock.advance_to(1.0)  # going backwards is a no-op
        assert clock.now() == pytest.approx(3.0)

    def test_sleep_advances_virtual_time(self):
        clock = ManualClock()
        start = time.perf_counter()
        clock.sleep(10.0)  # must NOT sleep for real
        assert time.perf_counter() - start < 1.0
        assert clock.now() == pytest.approx(10.0)

    def test_negative_advance_is_diagnosed(self):
        with pytest.raises(ConfigError):
            ManualClock().advance(-0.1)

    def test_concurrent_sleeps_lose_no_time(self):
        # the worker threads of a ManualClock service all sleep on it
        clock = ManualClock()
        start = threading.Barrier(4)

        def sleeper():
            start.wait()
            for _ in range(20_000):
                clock.sleep(1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sleeper) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert clock.now() == 80_000.0


class TestSystemClock:
    def test_tracks_real_time(self):
        clock = SystemClock()
        t0 = clock.now()
        time.sleep(0.01)
        assert clock.now() > t0

    def test_module_singleton_is_a_system_clock(self):
        assert isinstance(SYSTEM_CLOCK, SystemClock)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Clock().now()
