"""The paper's tables and figures as data (DESIGN.md §4).

:data:`FIGURES` maps every figure and study command to a :class:`Figure`:
a *plan* that turns (workloads, config, tier, length and the figure's own
parameters) into the grid's :class:`~repro.experiments.parallel.Job`
cells plus a reducer from their results to the figure's result object,
and the :mod:`repro.experiments.report` renderer of that object.
:func:`run_figure` builds the grid, runs it through one ``run_grid``
call and reduces; the CLI, the service's sweep compile and the benches
all go through it.  Three studies need what no cached cell carries
(per-access levels, reordered graphs, mid-run flushes), so their plans
run directly and return the result (``grid=False``).

Absolute numbers come from our substituted substrate; the claims being
reproduced are the *shapes*: orderings, ratios and crossovers (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.config import SystemConfig
from repro.experiments import report
from repro.experiments.parallel import EXPERT_BEST, Job, run_grid
from repro.experiments.runner import (GEOMEAN_CLAMP, default_config,
                                      run_variant, speedup)
from repro.experiments.workloads import (DEFAULT_TIER, DEFAULT_TRACE_LEN,
                                         WINDOW_OVERGEN_FACTOR, WORKLOADS,
                                         Workload, multicore_mixes,
                                         workload_trace)
from repro.mem.hierarchy import DRAM

# A representative one-workload-per-kernel subset for quick runs.
QUICK_WORKLOADS = ("pr.kron", "cc.friendster", "bfs.urand", "sssp.road",
                   "bc.twitter", "tc.web")


def _workload_list(workloads) -> list[Workload]:
    if workloads is None:
        return list(WORKLOADS)
    out = []
    for wl in workloads:
        if isinstance(wl, str):
            kernel, graph = wl.split(".", 1)
            wl = Workload(kernel, graph)
        out.append(wl)
    return out


def geomean(values: list[float]) -> float:
    """Geometric mean of (1 + x) ratios, reported as a fraction."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(GEOMEAN_CLAMP, 1.0 + v))
                        for v in values) / len(values)) - 1.0


def _gmean(bases, results) -> float:
    """Geomean speedup of ``results`` over their paired ``bases``."""
    return geomean([speedup(b, s) for b, s in zip(bases, results)])


def _rows(results, k: int) -> list:
    """``results`` cut into consecutive rows of ``k``."""
    return [results[i:i + k] for i in range(0, len(results), k)]


def _per_workload(wls, variants, cfg, tier, length, reduce):
    """Every variant per workload, workload-major; ``reduce`` gets one
    row of results per workload, in ``variants`` order."""
    grid = [Job(wl, v, cfg, tier, length) for wl in wls for v in variants]
    return grid, lambda results: reduce(_rows(results, len(variants)))


def _sweep(wls, cfg, tier, length, points, reduce):
    """One Baseline per workload on ``cfg``, then each ``(variant,
    config)`` point over the workloads; ``reduce`` gets the baselines and
    one chunk of results per point.  The baseline never instantiates the
    SDC or consults the LP, so one per workload serves every point that
    varies only those."""
    grid = [Job(wl, "baseline", cfg, tier, length) for wl in wls]
    grid += [Job(wl, v, c, tier, length) for v, c in points for wl in wls]
    n = len(wls)
    return grid, lambda results: reduce(results[:n],
                                        _rows(results[n:], n))


def _with_lp(cfg: SystemConfig, **lp) -> SystemConfig:
    return dataclasses.replace(cfg, lp=dataclasses.replace(cfg.lp, **lp))


def _names(wls) -> list[str]:
    return [wl.name for wl in wls]


# ---------------------------------------------------------------------------
# Fig. 2 — baseline MPKI across the hierarchy.
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result:
    workloads: list[str]
    l1d: list[float]
    l2c: list[float]
    llc: list[float]

    @property
    def averages(self) -> tuple[float, float, float]:
        return (float(np.mean(self.l1d)), float(np.mean(self.l2c)),
                float(np.mean(self.llc)))


def fig2_mpki(wls, cfg, tier, length):
    """Baseline L1D/L2C/LLC MPKI per workload (paper Fig. 2)."""
    return _per_workload(wls, ("baseline",), cfg, tier, length,
                         lambda rows: Fig2Result(
                             _names(wls),
                             *([row[0].mpki(c) for row in rows]
                               for c in ("l1d", "l2c", "llc"))))


# ---------------------------------------------------------------------------
# Fig. 3 — P(DRAM) by PC-local stride bucket.
# ---------------------------------------------------------------------------

STRIDE_BUCKETS = ((0, 0), (1, 1), (2, 10), (11, 100), (101, 1000),
                  (1001, 10_000), (10_001, 100_000), (100_001, 1_000_000),
                  (1_000_001, None))

BUCKET_LABELS = ("0", "1", "(10^0,10^1]", "(10^1,10^2]", "(10^2,10^3]",
                 "(10^3,10^4]", "(10^4,10^5]", "(10^5,10^6]", ">10^6")


@dataclass
class Fig3Result:
    workload: str
    labels: list[str]
    dram_probability: list[float]    # NaN for empty buckets
    access_counts: list[int]


def pc_local_strides(trace) -> np.ndarray:
    """|block stride| w.r.t. the previous access by the same PC
    (-1 for the first access of each PC)."""
    pcs = trace.accesses["pc"].astype(np.int64)
    blocks = trace.block_addrs()
    n = len(pcs)
    order = np.lexsort((np.arange(n), pcs))
    sp, sb = pcs[order], blocks[order]
    strides = np.full(n, -1, dtype=np.int64)
    same = sp[1:] == sp[:-1]
    strides[order[1:][same]] = np.abs(sb[1:] - sb[:-1])[same]
    return strides


def fig3_stride_dram(wls, cfg, tier, length) -> Fig3Result:
    """Probability of an access being DRAM-served per stride bucket
    (paper Fig. 3, characterized on one workload, cc.friendster)."""
    [wl] = wls
    trace = workload_trace(wl, tier=tier, length=length)
    stats = run_variant(trace, "baseline", cfg, record_levels=True)
    strides = pc_local_strides(trace)
    is_dram = stats.levels == DRAM

    probs, counts = [], []
    valid = strides >= 0
    for lo, hi in STRIDE_BUCKETS:
        sel = valid & (strides >= lo)
        if hi is not None:
            sel &= strides <= hi
        total = int(sel.sum())
        counts.append(total)
        probs.append(float(is_dram[sel].mean()) if total else float("nan"))
    return Fig3Result(wl.name, list(BUCKET_LABELS), probs, counts)


# ---------------------------------------------------------------------------
# Fig. 7 — single-core speedups of all designs over Baseline.
# ---------------------------------------------------------------------------

SINGLE_CORE_VARIANTS = ("l1iso", "distill", "topt", "llc2x", "sdc_lp")


@dataclass
class Fig7Result:
    workloads: list[str]
    speedups: dict[str, list[float]]          # variant -> per-workload
    baseline_cycles: list[float] = field(default_factory=list)

    def geomean(self, variant: str) -> float:
        return geomean(self.speedups[variant])

    def geomeans(self) -> dict[str, float]:
        return {v: self.geomean(v) for v in self.speedups}


def fig7_speedups(wls, cfg, tier, length, variants=SINGLE_CORE_VARIANTS):
    """Speedup of each design over Baseline, per workload (paper Fig. 7).
    Every workload's first cell is its Baseline, so a ``baseline`` in
    ``variants`` is dropped."""
    variants = tuple(v for v in variants if v != "baseline")
    return _per_workload(
        wls, ("baseline",) + variants, cfg, tier, length,
        lambda rows: Fig7Result(
            _names(wls),
            {v: [speedup(row[0], row[i]) for row in rows]
             for i, v in enumerate(variants, 1)},
            [row[0].cycles for row in rows]))


def fig7_single_core(workloads=None, **kw) -> Fig7Result:
    """``run_figure("fig7", ...)`` under its historical name."""
    return run_figure("fig7", workloads, **kw)


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 — MPKI deltas between Baseline and SDC+LP.
# ---------------------------------------------------------------------------

@dataclass
class MPKICompareResult:
    workloads: list[str]
    baseline: dict[str, list[float]]     # cache -> per-workload MPKI
    sdc_lp: dict[str, list[float]]

    def average(self, design: str, cache: str) -> float:
        vals = getattr(self, design)[cache]
        return float(np.mean(vals)) if vals else 0.0


def mpki_compare(wls, cfg, tier, length, caches=("l2c", "llc")):
    """Per-cache MPKI, Baseline vs SDC+LP: L2C/LLC is paper Fig. 8,
    L1D/SDC is Fig. 9."""
    return _per_workload(
        wls, ("baseline", "sdc_lp"), cfg, tier, length,
        lambda rows: MPKICompareResult(
            _names(wls),
            {c: [base.mpki(c) for base, _ in rows] for c in caches},
            {c: [prop.mpki(c) for _, prop in rows] for c in caches}))


# ---------------------------------------------------------------------------
# Fig. 10 — SDC size sweep.
# ---------------------------------------------------------------------------

# (relative size multiplier, ways, latency) — paper §V-B1.
SDC_SIZE_POINTS = ((1, 2, 1), (2, 4, 3), (4, 8, 4))


@dataclass
class Fig10Result:
    sizes_kib: list[float]
    sdc_mpki: list[float]              # average across workloads
    speedup_geomean: list[float]


def fig10_sdc_size(wls, cfg, tier, length):
    """SDC MPKI and speedup for 8/16/32 KiB-class SDCs (paper Fig. 10)."""
    cfgs = [dataclasses.replace(cfg, sdc=cfg.sdc.resized(
        cfg.sdc.size_bytes * mult, ways=ways, latency=lat))
        for mult, ways, lat in SDC_SIZE_POINTS]
    return _sweep(wls, cfg, tier, length, [("sdc_lp", c) for c in cfgs],
                  lambda bases, chunks: Fig10Result(
                      [c.sdc.size_bytes / 1024 for c in cfgs],
                      [float(np.mean([s.mpki("sdc") for s in chunk]))
                       for chunk in chunks],
                      [_gmean(bases, chunk) for chunk in chunks]))


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 12 — LP geometry sweeps.
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    points: list[int | float]
    speedup_geomean: list[float]
    label: str = ""


def fig11_lp_entries(wls, cfg, tier, length, entries=(8, 16, 32, 64)):
    """Fully-associative LP tables of 8..64 entries (paper Fig. 11)."""
    points = [("sdc_lp", _with_lp(cfg, entries=e, ways=e)) for e in entries]
    return _sweep(wls, cfg, tier, length, points,
                  lambda bases, chunks: SweepResult(
                      list(entries), [_gmean(bases, c) for c in chunks],
                      "LP entries (fully assoc.)"))


def fig12_lp_assoc(wls, cfg, tier, length, ways=(1, 2, 8, 32)):
    """32-entry LP at different associativities (paper Fig. 12)."""
    points = [("sdc_lp", _with_lp(cfg, entries=32, ways=w)) for w in ways]
    return _sweep(wls, cfg, tier, length, points,
                  lambda bases, chunks: SweepResult(
                      list(ways), [_gmean(bases, c) for c in chunks],
                      "LP associativity (32 entries)"))


# ---------------------------------------------------------------------------
# §V-B3 — global threshold sweep (GAP + SPEC surrogate).
# ---------------------------------------------------------------------------

@dataclass
class TauSweepResult:
    taus: list[int]
    gap_speedup: list[float]
    regular_speedup: list[float]


def tau_sweep(wls, cfg, tier, length, taus=(0, 2, 4, 8, 16, 64, 256),
              regular_len: int = 100_000):
    """Speedup vs τ_glob on graph and regular workloads (paper §V-B3)."""
    from repro.trace.synthetic import regular_suite

    # Size the hot set to the simulated SDC so the regular suite is
    # genuinely cache-friendly at this scale (see synthetic.py).
    regular = list(regular_suite(
        regular_len, hot_ws_kib=max(1, cfg.sdc.size_bytes // 2048))
        .values())
    ng = len(wls)
    return _sweep(wls + regular, cfg, tier, length,
                  [("sdc_lp", _with_lp(cfg, tau_glob=t)) for t in taus],
                  lambda bases, chunks: TauSweepResult(
                      list(taus),
                      [_gmean(bases[:ng], c[:ng]) for c in chunks],
                      [_gmean(bases[ng:], c[ng:]) for c in chunks]))


# ---------------------------------------------------------------------------
# Fig. 13 — SDC+LP vs the Expert Programmer.
# ---------------------------------------------------------------------------

@dataclass
class Fig13Result:
    workloads: list[str]
    sdc_lp: list[float]
    expert: list[float]

    def geomeans(self) -> tuple[float, float]:
        return geomean(self.sdc_lp), geomean(self.expert)


def fig13_expert(wls, cfg, tier, length):
    """Speedups of SDC+LP and Expert Programmer over Baseline (Fig. 13).

    The expert cell is the :data:`~repro.experiments.parallel.EXPERT_BEST`
    pseudo-variant: region profiling + the expert run execute (and cache)
    as one unit of work.
    """
    return _per_workload(
        wls, ("baseline", "sdc_lp", EXPERT_BEST), cfg, tier, length,
        lambda rows: Fig13Result(_names(wls),
                                 [speedup(b, s) for b, s, _ in rows],
                                 [speedup(b, e) for b, _, e in rows]))


# ---------------------------------------------------------------------------
# Fig. 14 — multi-core weighted speedup.
# ---------------------------------------------------------------------------

MULTI_CORE_VARIANTS = ("l1iso", "distill", "topt", "llc2x", "sdc_lp")


@dataclass
class Fig14Result:
    mixes: list[str]
    weighted_speedup: dict[str, list[float]]   # variant -> per-mix

    def geomean(self, variant: str) -> float:
        return geomean(self.weighted_speedup[variant])

    def geomeans(self) -> dict[str, float]:
        return {v: self.geomean(v) for v in self.weighted_speedup}


def fig14_multicore(wls, cfg, tier, length, mixes: int = 50,
                    cores: int = 4, variants=MULTI_CORE_VARIANTS,
                    seed: int = 42):
    """Weighted speedup of each design over Baseline on random 4-thread
    mixes (paper Fig. 14, §IV-D methodology).  Mixes draw from the full
    suite whatever ``wls`` is, and every core runs ``length // 2``
    accesses."""
    length //= 2
    cfg = dataclasses.replace(cfg, num_cores=cores)
    mix_list = multicore_mixes(mixes, cores, seed)
    # IPC_single per workload per variant: isolated run on the same
    # system (full shared LLC available to the single thread).
    needed = sorted({wl.name for mix in mix_list for wl in mix})
    single_cfg = dataclasses.replace(
        cfg, llc=cfg.llc.resized(cfg.llc.size_bytes * cores), num_cores=1)
    all_variants = ("baseline",) + tuple(variants)
    singles = [(v, name) for v in all_variants for name in needed]
    grid = [Job(name, v, single_cfg, tier, length) for v, name in singles]
    grid += [Job(tuple(wl.name for wl in mix), v, cfg, tier, length)
             for mix in mix_list for v in all_variants]

    def reduce(results):
        ipc = {s: r.ipc for s, r in zip(singles, results)}
        res = Fig14Result([], {v: [] for v in variants})
        for mix, row in zip(mix_list, _rows(results[len(singles):],
                                            len(all_variants))):
            res.mixes.append("+".join(wl.name for wl in mix))
            per_variant = dict(zip(all_variants, row))
            base_ws = _weighted_ipc(mix, per_variant["baseline"],
                                    "baseline", ipc)
            for v in variants:
                ws = _weighted_ipc(mix, per_variant[v], v, ipc)
                res.weighted_speedup[v].append(ws / base_ws - 1.0
                                               if base_ws else 0.0)
        return res
    return grid, reduce


def _weighted_ipc(mix, result, variant, singles) -> float:
    total = 0.0
    for wl, stats in zip(mix, result.per_core):
        ipc_single = singles[(variant, wl.name)]
        total += stats.ipc / ipc_single if ipc_single else 0.0
    return total


# ---------------------------------------------------------------------------
# Ablations (beyond the paper's comparison set; DESIGN.md design choices).
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = ("victim", "lp_bypass", "sdc_lp")


@dataclass
class AblationResult:
    workloads: list[str]
    speedups: dict[str, list[float]]     # variant/label -> per-workload

    def geomeans(self) -> dict[str, float]:
        return {v: geomean(sp) for v, sp in self.speedups.items()}


def ablation_study(wls, cfg, tier, length):
    """Decompose SDC+LP's benefit into its ingredients:

    * ``victim``      — iso-storage L1 victim cache: is 8 KiB of extra
      near-L1 storage enough by itself?  (No: victims have no reuse.)
    * ``lp_bypass``   — LP routing without the SDC: how much comes from
      skipping the useless L2C/LLC lookups alone?
    * ``sdc_lp``      — the full proposal.
    * ``sdc_lp/nodep`` — the full proposal on a trace with dependency
      links stripped: quantifies how much of the modelled benefit rides
      on pointer-chase serialization (DESIGN.md §5, substitution #1).
    """
    # Nodep cells run on derived in-memory traces (content-hashed by the
    # cache); the rest are plain workload-spec cells.
    grid = []
    for wl in wls:
        grid += [Job(wl, v, cfg, tier, length)
                 for v in ("baseline",) + ABLATION_VARIANTS]
        nodep = Trace_without_deps(workload_trace(wl, tier=tier,
                                                  length=length))
        grid += [Job(nodep, "baseline", cfg), Job(nodep, "sdc_lp", cfg)]

    def reduce(results):
        rows = _rows(results, len(ABLATION_VARIANTS) + 3)
        sp = {v: [speedup(row[0], row[i]) for row in rows]
              for i, v in enumerate(ABLATION_VARIANTS, 1)}
        sp["sdc_lp/nodep"] = [speedup(row[-2], row[-1]) for row in rows]
        return AblationResult(_names(wls), sp)
    return grid, reduce


def Trace_without_deps(trace):
    """Copy of a trace with all dependency links removed."""
    from repro.trace.record import Trace
    acc = trace.accesses.copy()
    acc["dep"] = -1
    return Trace(acc, trace.address_space, trace.name + ".nodep",
                 trace.kernel, trace.graph)


# ---------------------------------------------------------------------------
# Related-work studies (§VI claims, beyond the paper's own figures).
# ---------------------------------------------------------------------------

REPLACEMENT_POLICIES = ("lru", "srrip", "drrip", "ship", "topt")


@dataclass
class PolicyStudyResult:
    policies: list[str]
    speedup_geomean: list[float]     # vs the LRU LLC


def replacement_study(wls, cfg, tier, length,
                      policies=REPLACEMENT_POLICIES):
    """§VI *Replacement Policies*: sophisticated LLC replacement
    (DRRIP, SHiP) barely helps graph workloads, while transpose-driven
    T-OPT does — cache bypassing beats smarter retention."""
    sweep = [p for p in policies if p != "lru"]
    points = [("topt", cfg) if p == "topt" else
              ("baseline", dataclasses.replace(
                  cfg, llc=dataclasses.replace(cfg.llc, replacement=p)))
              for p in sweep]

    def reduce(bases, chunks):
        by = dict(zip(sweep, chunks))
        return PolicyStudyResult(list(policies),
                                 [0.0 if p == "lru" else _gmean(bases, by[p])
                                  for p in policies])
    return _sweep(wls, cfg, tier, length, points, reduce)


PREFETCHER_CONFIGS = ("none", "next_line", "stride", "spp")


@dataclass
class PrefetcherStudyResult:
    l1_prefetchers: list[str]
    speedup_geomean: list[float]         # baseline hierarchy, vs "none"
    sdc_lp_speedup: list[float]          # SDC+LP with that SDC prefetcher


def prefetcher_study(wls, cfg, tier, length, prefetchers=PREFETCHER_CONFIGS):
    """§VI *Hardware Prefetching*: stride-class prefetchers cannot cover
    indirect graph accesses; and the paper's stated future work — SDC+LP
    *combined* with prefetching — implemented here by swapping the
    SDC/L1D prefetcher."""
    # The "none" point's baseline cells dedup against the leading row.
    points = [(v, _with_l1_prefetcher(cfg, None if pf == "none" else pf))
              for pf in prefetchers for v in ("baseline", "sdc_lp")]
    return _sweep(wls, _with_l1_prefetcher(cfg, None), tier, length, points,
                  lambda bases, chunks: PrefetcherStudyResult(
                      list(prefetchers),
                      [_gmean(bases, c) for c in chunks[0::2]],
                      [_gmean(bases, c) for c in chunks[1::2]]))


def _with_l1_prefetcher(cfg: SystemConfig, name: str | None
                        ) -> SystemConfig:
    # The SDC's own prefetcher is next-line per Table I; it is only
    # meaningfully togglable on/off (the L1 prefetcher is what varies).
    sdc_pf = None if name is None else "next_line"
    return dataclasses.replace(
        cfg,
        l1d=dataclasses.replace(cfg.l1d, prefetcher=name),
        sdc=dataclasses.replace(cfg.sdc, prefetcher=sdc_pf))


@dataclass
class PreprocessingStudyResult:
    orderings: list[str]
    speedup: list[float]          # baseline run on reordered graph
    cost_ratio: list[float]       # preprocessing touches / trace length
    sdc_lp_original: float        # SDC+LP on the untouched graph


def preprocessing_study(wls, cfg, tier, length,
                        orderings=("original", "random", "degree", "bfs",
                                   "rcm")) -> PreprocessingStudyResult:
    """§VI *Pre-Processing Algorithms*: locality-improving reordering
    helps the baseline but costs more memory touches than the traversal
    it accelerates, while SDC+LP gets its gains with zero preprocessing.
    Characterized on one workload, pr.kron."""
    from repro.graphs.reorder import ORDERINGS, apply_order, estimated_cost
    from repro.graphs.suite import load_graph
    from repro.kernels.common import KERNEL_TABLE
    from repro.trace.kernels import generate_trace
    [wl] = wls
    weighted = KERNEL_TABLE[wl.kernel].weighted_input
    g0 = load_graph(wl.graph, tier=tier, weighted=weighted)

    res = PreprocessingStudyResult([], [], [], 0.0)
    base_cycles = None
    for name in orderings:
        order = ORDERINGS[name](g0)
        g = g0 if name == "original" else apply_order(g0, order, name)
        trace = generate_trace(
            wl.kernel, g, max_accesses=length * WINDOW_OVERGEN_FACTOR,
            window=length)
        stats = run_variant(trace, "baseline", cfg)
        if name == "original":
            base_cycles = stats.cycles
            sdc_stats = run_variant(trace, "sdc_lp", cfg)
            res.sdc_lp_original = base_cycles / sdc_stats.cycles - 1.0
        res.orderings.append(name)
        res.speedup.append(base_cycles / stats.cycles - 1.0)
        res.cost_ratio.append(estimated_cost(name, g0) / max(1, length))
    return res


# ---------------------------------------------------------------------------
# §III-E — context switches: what the SDC's VIPT property is worth.
# ---------------------------------------------------------------------------

@dataclass
class ContextSwitchResult:
    intervals: list[int]             # accesses between switches (0 = never)
    speedup_geomean: list[float]     # SDC+LP speedup over baseline


def context_switch_study(wls, cfg, tier, length,
                         intervals=(0, 50_000, 10_000, 2_000)
                         ) -> ContextSwitchResult:
    """§III-E: the SDC is VIPT, so context switches need no flush.

    This study runs SDC+LP while force-flushing the SDC + LP every N
    accesses (as a virtually-tagged design would have to).  Interval 0
    (never flush) is the paper's design point.  The measured shape is a
    *robustness* result: the structures are tiny (10 KB) and retrain
    within tens of accesses, so even absurdly frequent flushing leaves
    the speedup intact — flushing LP even helps slightly on workloads
    where τ_glob=8 over-routes to the SDC, because a cleared table
    predicts "regular" until strides re-accumulate.
    """
    from repro.core.system import SingleCoreSystem
    res = ContextSwitchResult(list(intervals), [])
    traces = [workload_trace(wl, tier=tier, length=length) for wl in wls]
    bases = [run_variant(t, "baseline", cfg) for t in traces]
    for interval in intervals:
        sps = []
        for trace, base in zip(traces, bases):
            system = SingleCoreSystem(cfg, "sdc_lp")
            stats = system.run(trace, flush_sdc_every=interval or None)
            sps.append(speedup(base, stats))
        res.speedup_geomean.append(geomean(sps))
    return res


# ---------------------------------------------------------------------------
# Energy comparison (§V-E extended with whole-system accounting).
# ---------------------------------------------------------------------------

@dataclass
class EnergyStudyResult:
    workloads: list[str]
    baseline_epki: list[float]         # µJ per kilo-instruction
    sdc_lp_epki: list[float]
    baseline_onchip_mj: list[float]
    sdc_lp_onchip_mj: list[float]

    def onchip_saving_geomean(self) -> float:
        vals = [b / s - 1.0 for b, s in zip(self.baseline_onchip_mj,
                                            self.sdc_lp_onchip_mj)
                if s > 0]
        return geomean(vals)


def energy_study(wls, cfg, tier, length):
    """Dynamic energy of Baseline vs SDC+LP, from Fig. 8's cells.

    SDC+LP replaces L2C+LLC lookups on cache-averse accesses with one
    1-cycle SDC probe, an LP consult and (on miss) a directory message —
    all of which §V-E shows to be tiny (0.010-0.034 nJ).  The study
    quantifies the resulting on-chip energy saving.
    """
    from repro.core.energy import energy_of, energy_per_kilo_instruction
    grid, _ = mpki_compare(wls, cfg, tier, length)

    def reduce(results):
        base, prop = results[0::2], results[1::2]
        return EnergyStudyResult(
            _names(wls),
            [energy_per_kilo_instruction(s) for s in base],
            [energy_per_kilo_instruction(s) for s in prop],
            [energy_of(s).on_chip for s in base],
            [energy_of(s).on_chip for s in prop])
    return grid, reduce


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One figure or study command.

    ``plan(workloads, config, tier, length, **params)`` returns the grid
    and its reducer, or, for a direct study (``grid=False``), the result
    itself.  ``workloads`` fixes a study's subject: ``--quick`` keeps it.
    """

    plan: Callable
    render: Callable
    grid: bool = True
    workloads: tuple | None = None


FIGURES: dict[str, Figure] = {
    "fig2": Figure(fig2_mpki, report.render_fig2),
    "fig3": Figure(fig3_stride_dram, report.render_fig3, grid=False,
                   workloads=("cc.friendster",)),
    "fig7": Figure(fig7_speedups, report.render_fig7),
    "fig8": Figure(partial(mpki_compare, caches=("l2c", "llc")),
                   partial(report.render_mpki_compare, caches=("l2c", "llc"),
                           title="Fig. 8 — L2C/LLC MPKI, Baseline vs "
                                 "SDC+LP")),
    "fig9": Figure(partial(mpki_compare, caches=("l1d", "sdc")),
                   partial(report.render_mpki_compare, caches=("l1d", "sdc"),
                           title="Fig. 9 — L1D/SDC MPKI, Baseline vs "
                                 "SDC+LP")),
    "fig10": Figure(fig10_sdc_size, report.render_fig10),
    "fig11": Figure(fig11_lp_entries,
                    partial(report.render_sweep, xlabel="entries")),
    "fig12": Figure(fig12_lp_assoc,
                    partial(report.render_sweep, xlabel="ways")),
    "tau": Figure(tau_sweep, report.render_tau_sweep),
    "fig13": Figure(fig13_expert, report.render_fig13),
    "fig14": Figure(fig14_multicore, report.render_fig14),
    "ablation": Figure(ablation_study, report.render_ablation),
    "replacement": Figure(replacement_study, report.render_policy_study),
    "prefetchers": Figure(prefetcher_study,
                          report.render_prefetcher_study),
    "preprocessing": Figure(preprocessing_study,
                            report.render_preprocessing_study, grid=False,
                            workloads=("pr.kron",)),
    "energy": Figure(energy_study, report.render_energy_study),
    "context": Figure(context_switch_study,
                      report.render_context_switch_study, grid=False),
}


def plan_figure(name: str, workloads=None,
                config: SystemConfig | None = None,
                tier: str = DEFAULT_TIER, length: int = DEFAULT_TRACE_LEN,
                **params):
    """Call one entry's plan: ``(grid, reduce)`` for a grid entry, the
    result for a direct study.  ``workloads`` defaults to the entry's
    subject, else all 36; ``config`` to :func:`default_config`."""
    fig = FIGURES[name]
    return fig.plan(_workload_list(workloads or fig.workloads),
                    config or default_config(), tier, length, **params)


def run_figure(name: str, workloads=None,
               config: SystemConfig | None = None,
               tier: str = DEFAULT_TIER, length: int = DEFAULT_TRACE_LEN,
               jobs: int = 1, use_cache: bool = True, progress=None,
               policy=None, run_id=None, **params):
    """Run one :data:`FIGURES` entry and return its result object.

    A grid entry runs its cells through one ``run_grid`` call, which
    takes ``jobs``/``use_cache``/``progress``/``policy``/``run_id``; a
    direct study ignores them.  ``params`` are the figure's own (e.g.
    fig7's ``variants``, fig14's ``mixes``).
    """
    out = plan_figure(name, workloads, config, tier, length, **params)
    if not FIGURES[name].grid:
        return out
    grid, reduce = out
    return reduce(run_grid(grid, jobs=jobs, use_cache=use_cache,
                           progress=progress, policy=policy, run_id=run_id))


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

def table2_kernels() -> list[dict]:
    from repro.kernels.common import KERNEL_TABLE
    return [dataclasses.asdict(info) for info in KERNEL_TABLE.values()]


def table3_graphs(tier: str = DEFAULT_TIER) -> list[dict]:
    from repro.graphs.suite import GRAPH_SUITE, load_graph
    rows = []
    for name, spec in GRAPH_SUITE.items():
        g = load_graph(name, tier=tier)
        rows.append({
            "name": name,
            "kind": spec.kind,
            "vertices": g.num_vertices,
            "edges": g.num_edges,
            "paper_vertices_m": spec.paper_vertices_m,
            "paper_edges_m": spec.paper_edges_m,
        })
    return rows
