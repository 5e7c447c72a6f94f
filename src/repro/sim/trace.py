"""DRAM-traffic and compute tracing for the simulators.

The accelerator's figure of merit is bytes crossing the chip boundary per
image. Both executors report their traffic through a :class:`TrafficTrace`
so schedules can be compared event-by-event in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..nn.shapes import BYTES_PER_WORD

_MB = 2 ** 20


@dataclass
class TrafficTrace:
    """Accumulates off-chip transfer and on-chip compute events."""

    events: List[Tuple[str, str, int]] = field(default_factory=list)
    dram_read_elements: int = 0
    dram_write_elements: int = 0
    macs: int = 0
    ops: int = 0

    def read(self, label: str, elements: int) -> None:
        """Record ``elements`` words read from DRAM."""
        self.dram_read_elements += elements
        self.events.append(("read", label, elements))

    def write(self, label: str, elements: int) -> None:
        """Record ``elements`` words written to DRAM."""
        self.dram_write_elements += elements
        self.events.append(("write", label, elements))

    def compute(self, label: str, ops: int, macs: int = -1) -> None:
        """Record arithmetic operations (multiplies + adds).

        ``macs`` defaults to ``ops // 2`` — one multiply plus one add per
        multiply-accumulate, the convention the energy model uses.
        """
        self.ops += ops
        self.macs += macs if macs >= 0 else ops // 2
        self.events.append(("compute", label, ops))

    @property
    def dram_read_bytes(self) -> int:
        return self.dram_read_elements * BYTES_PER_WORD

    @property
    def dram_write_bytes(self) -> int:
        return self.dram_write_elements * BYTES_PER_WORD

    @property
    def dram_total_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def dram_read_mb(self) -> float:
        return self.dram_read_bytes / _MB

    @property
    def dram_write_mb(self) -> float:
        return self.dram_write_bytes / _MB

    @property
    def dram_total_mb(self) -> float:
        """Total off-chip traffic in MB (read + write)."""
        return self.dram_total_bytes / _MB

    def reads_for(self, label: str) -> int:
        return sum(n for kind, lbl, n in self.events if kind == "read" and lbl == label)

    def writes_for(self, label: str) -> int:
        return sum(n for kind, lbl, n in self.events if kind == "write" and lbl == label)

    def by_label(self, start: int = 0) -> Dict[str, Tuple[int, int, int]]:
        """Per-label totals: ``{label: (read_bytes, write_bytes, ops)}``,
        over the events from index ``start`` on."""
        totals: Dict[str, List[int]] = {}
        for kind, label, n in itertools.islice(self.events, start, None):
            entry = totals.setdefault(label, [0, 0, 0])
            if kind == "read":
                entry[0] += n * BYTES_PER_WORD
            elif kind == "write":
                entry[1] += n * BYTES_PER_WORD
            else:
                entry[2] += n
        return {label: tuple(entry) for label, entry in totals.items()}

    def summary(self) -> str:
        return (
            f"DRAM read {self.dram_read_mb:.3f} MB, "
            f"write {self.dram_write_mb:.3f} MB "
            f"(total {self.dram_total_mb:.3f} MB), "
            f"compute {self.ops / 1e6:.1f} Mops ({self.macs / 1e6:.1f} MMACs)"
        )
