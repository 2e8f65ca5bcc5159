"""A complete multi-bank synaptic memory at an operating voltage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError, positive_finite
from repro.fault.injector import WeightFaultInjector
from repro.mem.bank import HybridBank


@dataclass(frozen=True)
class SynapticMemoryArchitecture:
    """Named bundle of per-layer banks plus an operating voltage.

    ``banks[i]`` stores the synapses of weight layer ``i`` (fanning out
    of ANN layer ``i``), matching Fig. 3(c) of the paper.  The base and
    Config-1 memories are the degenerate case where every bank shares
    one word layout.
    """

    name: str
    banks: tuple
    vdd: float

    def __init__(self, name: str, banks: Sequence[HybridBank], vdd: float):
        if not banks:
            raise ConfigurationError("an architecture needs at least one bank")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "banks", tuple(banks))
        object.__setattr__(self, "vdd", positive_finite("vdd", vdd))

    # ------------------------------------------------------------------
    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def n_words(self) -> int:
        return sum(b.n_words for b in self.banks)

    @property
    def n_8t_cells(self) -> int:
        return sum(b.n_8t_cells for b in self.banks)

    @property
    def n_6t_cells(self) -> int:
        return sum(b.n_6t_cells for b in self.banks)

    @property
    def area(self) -> float:
        """Total cell area (m^2)."""
        return sum(b.area for b in self.banks)

    @property
    def leakage_power(self) -> float:
        """Total static power at the operating voltage (watts)."""
        return sum(b.leakage_power(self.vdd) for b in self.banks)

    @property
    def sweep_read_energy(self) -> float:
        """Energy to read every synaptic word once (joules)."""
        return sum(
            b.n_words * b.read_energy_per_word(self.vdd) for b in self.banks
        )

    @property
    def access_power(self) -> float:
        """Word-count-weighted average power while streaming all banks.

        Equivalent to reading the full synaptic memory once at one word
        per (voltage-scaled) cycle — the paper's "memory access power".
        """
        cycle = self.banks[0].tables.cycle_time(self.vdd)
        return self.sweep_read_energy / (self.n_words * cycle)

    @property
    def msb_allocation(self) -> tuple:
        """Per-bank protected-MSB counts, e.g. ``(2, 3, 1, 1, 3)``."""
        return tuple(b.word.msb_in_8t for b in self.banks)

    def describe(self) -> str:
        words = ", ".join(
            f"{b.name}:{b.word.label}x{b.n_words}" for b in self.banks
        )
        return f"{self.name} @ {self.vdd:.2f} V [{words}]"

    # ------------------------------------------------------------------
    def fault_injector(
        self,
        include_write_failures: bool = True,
        include_read_disturb: bool = True,
    ) -> WeightFaultInjector:
        """Build the system-level fault injector for this memory."""
        rates = [
            b.bit_error_rates(
                self.vdd,
                include_write_failures=include_write_failures,
                include_read_disturb=include_read_disturb,
            )
            for b in self.banks
        ]
        return WeightFaultInjector(rates)

    def at_voltage(self, vdd: float) -> "SynapticMemoryArchitecture":
        """The same banks operated at a different supply voltage."""
        return SynapticMemoryArchitecture(
            name=self.name, banks=self.banks, vdd=vdd
        )
