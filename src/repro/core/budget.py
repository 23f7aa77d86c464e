"""Hardware budget accounting — paper Table IV and §V-E.

All numbers derive from first principles given the Table I geometries
and 48-bit physical addresses; the CACTI-derived access energies and
latency the paper reports are carried as constants for the §V-E text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BLOCK_BITS, BLOCK_SIZE, PHYS_ADDR_BITS,
                          SystemConfig, cache_block_bits,
                          sdcdir_entry_bits)


@dataclass(frozen=True)
class BudgetRow:
    name: str
    entries: int
    bits_per_entry: int
    breakdown: str

    @property
    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry

    @property
    def total_kb(self) -> float:
        return self.total_bits / 8192.0


# CACTI 22 nm figures quoted in §V-E.
LP_ACCESS_TIME_NS = 0.24
LP_LEAKAGE_MW = 10.0
LP_READ_NJ, LP_WRITE_NJ = 0.010, 0.015
SDCDIR_READ_NJ, SDCDIR_WRITE_NJ = 0.014, 0.019
SDC_READ_NJ, SDC_WRITE_NJ = 0.026, 0.034


def hardware_budget(config: SystemConfig | None = None) -> list[BudgetRow]:
    """Per-core storage of SDC, LP and SDCDir (Table IV), from the
    per-structure formulas the DSE cost axis
    (:func:`repro.config.storage_overhead_bits`) sums."""
    cfg = config or SystemConfig()
    lp, sd = cfg.lp, cfg.sdcdir
    # The paper's Table IV stores the full block address as the SDC tag
    # (48 - 6 = 42 bits), without subtracting set-index bits.
    return [
        BudgetRow("SDC", cfg.sdc.num_blocks, cache_block_bits(),
                  f"{BLOCK_SIZE * 8} data + {PHYS_ADDR_BITS - BLOCK_BITS} "
                  f"tag + 1 valid + 1 dirty"),
        BudgetRow("LP", lp.entries, lp.entry_bits,
                  f"{lp.tag_bits} tag + {lp.addr_bits} address + "
                  f"{lp.stride_bits} stride + 1 valid"),
        BudgetRow("SDCDir", sd.entries_per_core, sdcdir_entry_bits(cfg),
                  f"{sd.tag_bits} tag + {sd.state_bits} state + "
                  f"{max(1, cfg.num_cores)} sharer per core"),
    ]


def total_budget_kb(config: SystemConfig | None = None) -> float:
    return sum(r.total_kb for r in hardware_budget(config))


def table4(config: SystemConfig | None = None) -> str:
    """Render Table IV as text."""
    rows = hardware_budget(config)
    lines = [f"{'':8} {'Entries':>8} {'Bits per entry':<42} {'Total KB':>9}"]
    for r in rows:
        lines.append(f"{r.name:8} {r.entries:>8} {r.breakdown:<42} "
                     f"{r.total_kb:>9.2f}")
    lines.append(f"{'Total':8} {'':8} {'':42} "
                 f"{sum(r.total_kb for r in rows):>9.2f}")
    return "\n".join(lines)


def lp_fits_in_one_cycle(config: SystemConfig | None = None) -> bool:
    """§V-E: LP access time vs the core cycle time."""
    cfg = config or SystemConfig()
    cycle_ns = 1.0 / cfg.core.frequency_ghz
    return LP_ACCESS_TIME_NS <= cycle_ns
