"""System configuration (paper Table I) and scaling support.

The paper evaluates on a ChampSim model of an Intel Cascade Lake server
core. :func:`paper_config` returns that exact configuration.  Because this
reproduction runs scaled-down input graphs (see DESIGN.md, substitution
#2), :func:`scaled_config` divides every *capacity* by a common factor
while keeping associativities and latencies fixed, so that the ratio of
workload footprint to cache capacity — the quantity that drives MPKI —
matches the paper's regime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

BLOCK_SIZE = 64
"""Cache block size in bytes (fixed across the hierarchy, as in ChampSim)."""

BLOCK_BITS = 6
"""log2(BLOCK_SIZE)."""

PHYS_ADDR_BITS = 48
"""Physical address width assumed by the paper's Table IV accounting."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one set-associative cache."""

    name: str
    size_bytes: int
    ways: int
    latency: int          # access latency in core cycles
    mshr_entries: int
    replacement: str = "lru"
    prefetcher: str | None = None
    block_size: int = BLOCK_SIZE

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        sets = self.num_blocks // self.ways
        if sets * self.ways * self.block_size != self.size_bytes:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.block_size}B blocks"
            )
        return sets

    def resized(self, size_bytes: int, ways: int | None = None,
                latency: int | None = None) -> "CacheConfig":
        """Return a copy with a new capacity (and optionally geometry)."""
        return dataclasses.replace(
            self,
            size_bytes=size_bytes,
            ways=self.ways if ways is None else ways,
            latency=self.latency if latency is None else latency,
        )


@dataclass(frozen=True)
class LPConfig:
    """Large Predictor table parameters (paper §III-B, Table I).

    ``tagless=True`` selects the tag-less ablation (the
    ``sdc_lp_tagless`` variant): the table is direct-mapped on the PC
    with no stored tag, so distinct PCs mapping to the same slot alias
    onto one stride accumulator.  The tag bits saved are traded for a
    larger table (see :func:`tagless_lp_config`).
    """

    entries: int = 32
    ways: int = 8
    tau_glob: int = 8
    # Field widths used for Table IV budget accounting.
    tag_bits: int = 65
    addr_bits: int = 58
    stride_bits: int = 14
    tagless: bool = False

    @property
    def num_sets(self) -> int:
        if self.ways <= 0 or self.entries % self.ways:
            raise ValueError(f"LP: {self.entries} entries not divisible by "
                             f"{self.ways} ways")
        return self.entries // self.ways

    @property
    def entry_bits(self) -> int:
        """Table IV: tag + address + stride + valid."""
        return self.tag_bits + self.addr_bits + self.stride_bits + 1

    @property
    def storage_bits(self) -> int:
        return self.entry_bits * self.entries


#: Tag-less table growth factor: the ~47% of the tagged entry spent on
#: the tag buys roughly 4x the entries at iso-ish storage once the
#: per-entry cost drops to addr + stride + valid.
TAGLESS_LP_GROWTH = 4


def tagless_lp_config(lp: LPConfig) -> LPConfig:
    """The tag-less/larger-table LP ablation geometry.

    Drops the tag (``tag_bits=0``), grows the table by
    :data:`TAGLESS_LP_GROWTH` and makes it direct-mapped (``ways=1`` —
    with no tags there is nothing to associate on).  Used by
    ``variant_config`` for the ``sdc_lp_tagless`` variant and by
    :func:`storage_overhead_bits` for its cost accounting.  Idempotent,
    so a config whose LP was already converted (e.g. a DSE candidate
    baked before submission) passes through unchanged.
    """
    if lp.tagless:
        return lp
    return dataclasses.replace(
        lp, tagless=True, tag_bits=0, ways=1,
        entries=lp.entries * TAGLESS_LP_GROWTH)


@dataclass(frozen=True)
class CLPConfig:
    """Cache-level predictor table parameters (``sdc_clp`` variant).

    A PC-indexed, set-associative table in the spirit of Jalili &
    Erez's cache-level prediction ("Reducing Load Latency with Cache
    Level Prediction", PAPERS.md): instead of accumulating address
    strides like the LP, each entry keeps an exponential moving
    average of the *level* that served this PC's accesses (weights in
    :mod:`repro.core.clp`).  A PC whose counter reaches ``tau_clp`` is
    predicted irregular and routed to the SDC.

    Storage accounting follows the Table IV convention (full-width
    tag, no set-index subtraction): tag + counter + valid per entry.
    """

    entries: int = 128
    ways: int = 8
    tau_clp: int = 8
    tag_bits: int = 65
    ctr_bits: int = 5

    @property
    def num_sets(self) -> int:
        if self.ways <= 0 or self.entries % self.ways:
            raise ValueError(f"CLP: {self.entries} entries not divisible "
                             f"by {self.ways} ways")
        return self.entries // self.ways

    @property
    def ctr_max(self) -> int:
        return (1 << self.ctr_bits) - 1

    @property
    def storage_bits(self) -> int:
        return (self.tag_bits + self.ctr_bits + 1) * self.entries


@dataclass(frozen=True)
class SDCDirConfig:
    """SDC directory extension (paper §III-C, Table I)."""

    entries_per_core: int = 128
    ways: int = 8
    latency: int = 1
    tag_bits: int = 42
    state_bits: int = 6


@dataclass(frozen=True)
class DRAMConfig:
    """DDR4 main-memory timing (paper Table I).

    The paper gives tRP = tRCD = tCAS = 24 DRAM-bus cycles at an I/O bus
    frequency of 1466.5 MHz against a 2.166 GHz core.  We convert the
    access components into core cycles once so the simulator works in a
    single clock domain.
    """

    trp: int = 24
    trcd: int = 24
    tcas: int = 24
    io_bus_mhz: float = 1466.5
    core_ghz: float = 2.166
    banks: int = 8
    rows_per_bank: int = 65536
    row_size_bytes: int = 8192
    channels: int = 1

    @property
    def cycles_per_bus_cycle(self) -> float:
        return self.core_ghz * 1000.0 / self.io_bus_mhz

    def _to_core(self, bus_cycles: int) -> int:
        return max(1, round(bus_cycles * self.cycles_per_bus_cycle))

    @property
    def row_hit_latency(self) -> int:
        """Core cycles for a row-buffer hit (CAS only + transfer)."""
        return self._to_core(self.tcas) + 4

    @property
    def row_miss_latency(self) -> int:
        """Core cycles for a closed-row access (RCD + CAS + transfer)."""
        return self._to_core(self.trcd + self.tcas) + 4

    @property
    def row_conflict_latency(self) -> int:
        """Core cycles when the open row must be precharged first."""
        return self._to_core(self.trp + self.trcd + self.tcas) + 4


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core model parameters (paper Table I)."""

    width: int = 4
    rob_entries: int = 224
    frequency_ghz: float = 2.166


@dataclass(frozen=True)
class SystemConfig:
    """Complete single-core system configuration."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1D", 32 * 1024, 8, 4, 10, "lru", "next_line"))
    l2c: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2C", 1024 * 1024, 16, 10, 16, "lru", "spp"))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        "LLC", 1408 * 1024, 11, 56, 64, "lru", None))
    sdc: CacheConfig = field(default_factory=lambda: CacheConfig(
        "SDC", 8 * 1024, 2, 1, 10, "lru", "next_line"))
    lp: LPConfig = field(default_factory=LPConfig)
    clp: CLPConfig = field(default_factory=CLPConfig)
    sdcdir: SDCDirConfig = field(default_factory=SDCDirConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    num_cores: int = 1
    # Extra cycles for the coherence/directory check an SDC miss performs
    # before going to DRAM (paper §III-A: "a lightweight coherence
    # message is sent to the cache directory").
    sdc_miss_dir_latency: int = 1

    def digest(self) -> str:
        """Deterministic fingerprint of the full configuration.

        Two structurally-equal configs produce the same digest; any
        field change (a resized cache, a different tau) produces a
        different one.  Used by the experiment result cache to key
        simulation outputs on the exact system being simulated.
        Computed once per object: the config is frozen, so the digest
        is memoised outside the dataclass fields (``replace`` builds a
        new object; copies and pickles carry an equal config's value).
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                              separators=(",", ":"))
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_digest", digest)
        return digest

    def describe(self) -> str:
        """Human-readable configuration dump (cf. paper Table I)."""
        rows = [
            ("CPU", f"{self.core.frequency_ghz} GHz, {self.core.width}-wide "
                    f"OoO, {self.core.rob_entries}-entry ROB"),
        ]
        for c in (self.l1d, self.sdc, self.l2c, self.llc):
            rows.append((c.name, f"{c.size_bytes // 1024} KiB, {c.ways}-way, "
                                 f"{c.latency}-cycle latency, "
                                 f"{c.mshr_entries}-entry MSHR, "
                                 f"{c.replacement} replacement"
                                 + (f", {c.prefetcher} prefetcher"
                                    if c.prefetcher else "")))
        rows.append(("LP", f"{self.lp.entries} entries, {self.lp.ways}-way, "
                           f"tau_glob={self.lp.tau_glob}, "
                           f"{self.lp.storage_bits / 8192:.2f} KiB"))
        rows.append(("SDCDir", f"{self.sdcdir.entries_per_core} entries/core, "
                               f"{self.sdcdir.ways}-way"))
        rows.append(("DRAM", f"row hit {self.dram.row_hit_latency} cyc, "
                             f"row miss {self.dram.row_miss_latency} cyc, "
                             f"row conflict {self.dram.row_conflict_latency} "
                             f"cyc"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def cache_block_bits() -> int:
    """Bits per cache block under the Table IV convention: data + a
    full-block-address tag (no set-index subtraction) + valid + dirty."""
    return BLOCK_SIZE * 8 + (PHYS_ADDR_BITS - BLOCK_BITS) + 1 + 1


def sdcdir_entry_bits(cfg: SystemConfig) -> int:
    """Bits per SDCDir entry (Table IV): tag + state + one sharer bit
    per core."""
    return (cfg.sdcdir.tag_bits + cfg.sdcdir.state_bits
            + max(1, cfg.num_cores))


def storage_overhead_bits(cfg: SystemConfig,
                          variant: str = "sdc_lp") -> int:
    """Per-core storage a variant adds over the baseline, in bits.

    The Table IV accounting (:func:`cache_block_bits`,
    ``LPConfig.entry_bits``, :func:`sdcdir_entry_bits` — the same
    per-structure formulas :func:`repro.core.budget.hardware_budget`
    tabulates), extended to every design variant so a Pareto search
    can use one cost axis:

    * ``baseline``/``topt``/``distill`` reuse existing structures — 0;
    * ``sdc_lp`` adds SDC + LP + SDCDir (the paper's Table IV total);
    * ``sdc_clp`` swaps the LP for the cache-level predictor
      (:class:`CLPConfig`);
    * ``sdc_lp_tagless`` swaps the LP for its tag-less/larger-table
      geometry (:func:`tagless_lp_config`);
    * ``expert`` adds SDC + SDCDir (routing is compile-time, no LP);
    * ``lp_bypass`` adds only the LP;
    * ``l1iso`` adds 2 L1D ways (+25% capacity), ``llc2x`` doubles the
      LLC, ``victim`` adds an SDC-sized victim cache — all accounted at
      :func:`cache_block_bits` per extra block.

    SRAM for replacement-policy metadata (SRRIP/SHiP counters) is not
    counted: it is common to all LLC variants and orders of magnitude
    below the block storage that dominates this axis.
    """
    sdc = cfg.sdc.num_blocks * cache_block_bits()
    sdcdir = cfg.sdcdir.entries_per_core * sdcdir_entry_bits(cfg)
    if variant in ("baseline", "topt", "distill"):
        return 0
    if variant == "sdc_lp":
        return sdc + cfg.lp.storage_bits + sdcdir
    if variant == "sdc_clp":
        return sdc + cfg.clp.storage_bits + sdcdir
    if variant == "sdc_lp_tagless":
        return sdc + tagless_lp_config(cfg.lp).storage_bits + sdcdir
    if variant == "expert":
        return sdc + sdcdir
    if variant == "lp_bypass":
        return cfg.lp.storage_bits
    if variant == "l1iso":
        # +2 ways on an 8-way L1D: num_blocks * 10//8 - num_blocks.
        extra = cfg.l1d.num_blocks * 10 // 8 - cfg.l1d.num_blocks
        return extra * cache_block_bits()
    if variant == "llc2x":
        return cfg.llc.num_blocks * cache_block_bits()
    if variant == "victim":
        return cfg.sdc.num_blocks * cache_block_bits()
    raise ValueError(f"unknown variant {variant!r} for storage "
                     f"accounting")


def paper_config(num_cores: int = 1) -> SystemConfig:
    """The exact Table I configuration."""
    return SystemConfig(num_cores=num_cores)


def scaled_config(scale: int = 8, num_cores: int = 1) -> SystemConfig:
    """Table I with all capacities divided by ``scale``.

    Associativities and latencies stay fixed; only the number of sets
    shrinks.  The LP and SDCDir are index structures whose size does not
    depend on the data footprint, so they are left unscaled.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    base = paper_config(num_cores)

    def shrink(c: CacheConfig) -> CacheConfig:
        size = c.size_bytes // scale
        ways = c.ways
        # Halve associativity until one set fits; floor at 1 way x 1 block.
        while ways > 1 and size < ways * c.block_size:
            ways //= 2
        size = max(size, ways * c.block_size)
        # Round down to a multiple of ways*block_size so sets are integral.
        size -= size % (ways * c.block_size)
        return c.resized(size, ways=ways)

    return dataclasses.replace(
        base,
        l1d=shrink(base.l1d),
        l2c=shrink(base.l2c),
        llc=shrink(base.llc),
        sdc=shrink(base.sdc),
    )
