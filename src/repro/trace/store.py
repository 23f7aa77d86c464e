"""Zero-copy, memory-mapped on-disk trace store (format v8).

The experiment engine is trace-driven: every sweep re-reads the same
handful of workload traces in every worker process.  A trace store
file is a flat binary file that every process opens through
``np.memmap``: the supervisor and all workers share one page-cache
copy of each trace, opening is O(header) plus a single streaming
checksum pass, and per-worker private memory for traces is ~zero (see
docs/TRACES.md).

The file is a :mod:`repro.store` container of kind :data:`TRACE`
(little-endian throughout)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       8     magic                 b"REPROTRC"
    8       4     version               u32, == STORE_VERSION (8)
    12      4     header_size           u32, == HEADER_SIZE (104)
    16      8     meta_len              u64, metadata block length
    24      8     num_records           u64, ACCESS_DTYPE record count
    32      4     record_itemsize       u32, == ACCESS_DTYPE.itemsize
    36      4     reserved              u32, zero
    40      32    payload_sha           sha256(meta block ‖ record block)
    72      32    header_sha            sha256(header bytes [0:72])
    104     ...   metadata block        UTF-8 JSON (name, kernel, graph,
                                        AddressSpace region table)
    104+m   ...   record block          raw ACCESS_DTYPE array bytes

:func:`open_trace` raises :class:`TraceStoreError` on any validation
failure; :func:`repro.experiments.workloads.workload_trace` then
applies the container's stale-vs-corrupt rule and regenerates the
trace once.  Store activity is counted in :data:`COUNTERS`
(``opens``/``maps``/``writes``/``stale``/``corrupt``/``regenerated``).
"""

from __future__ import annotations

import os

from repro import store as artifact
from repro.trace.layout import AddressSpace, Region
from repro.trace.record import ACCESS_DTYPE, Trace

#: On-disk format version.  Kept in lockstep with
#: ``repro.experiments.workloads.TRACE_FORMAT_VERSION`` (the cache-key
#: half of the same contract) by a regression test.
STORE_VERSION = 8

MAGIC = b"REPROTRC"


class TraceStoreError(artifact.ArtifactError):
    """A store file failed validation (corrupt, truncated, or wrong
    version).  The file is *not* trusted; callers should discard it
    and regenerate."""


def _sections(num_records: int, itemsize: int, _reserved: int) -> list:
    if itemsize != ACCESS_DTYPE.itemsize:
        raise TraceStoreError(f"record itemsize {itemsize} != "
                              f"ACCESS_DTYPE itemsize "
                              f"{ACCESS_DTYPE.itemsize}")
    return [(ACCESS_DTYPE, num_records)]


#: num_records, record_itemsize, reserved.
TRACE = artifact.Kind(MAGIC, STORE_VERSION, "QII", "trace_store",
                      _sections, TraceStoreError, ("regenerated",))
HEADER_SIZE = TRACE.header.size                 # 104
COUNTERS = TRACE.counters
counters_snapshot = TRACE.counters_snapshot
reset_counters = TRACE.reset_counters


# -- metadata ---------------------------------------------------------------

def _meta(trace: Trace) -> dict:
    regions = trace.address_space.regions
    return {
        "name": trace.name,
        "kernel": trace.kernel,
        "graph": trace.graph,
        "regions": [
            {"name": r.name, "base": r.base, "elem_size": r.elem_size,
             "num_elems": r.num_elems, "irregular_hint": r.irregular_hint}
            for r in (regions[n] for n in regions)
        ],
    }


def _space_from_meta(meta: dict) -> AddressSpace:
    space = AddressSpace()
    for entry in meta["regions"]:
        region = Region(str(entry["name"]), int(entry["base"]),
                        int(entry["elem_size"]), int(entry["num_elems"]),
                        bool(entry["irregular_hint"]))
        space.regions[region.name] = region
        space._starts.append(region.base)
        space._names.append(region.name)
    return space


# -- write / read -----------------------------------------------------------

def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Serialize a trace to ``path`` atomically in the v8 store format.

    The record block is the raw bytes of the ``ACCESS_DTYPE`` array, so
    a subsequent :func:`open_trace` maps exactly the bytes written here.
    """
    acc = trace.accesses
    artifact.write(TRACE, path, _meta(trace),
                   (len(acc), ACCESS_DTYPE.itemsize, 0), [acc])


def read_header(path: str | os.PathLike) -> dict:
    """Validate and return the header of a store file.

    Returns ``{"meta_len", "num_records", "payload_sha"}``; raises
    :class:`TraceStoreError` on any header-level problem (including a
    file-size/record-count mismatch, i.e. truncation).
    """
    meta_len, (num_records, _, _), payload_sha = artifact.read_header(
        TRACE, path)
    return {"meta_len": meta_len, "num_records": num_records,
            "payload_sha": payload_sha.hex()}


def open_trace(path: str | os.PathLike, mapped: bool = True) -> Trace:
    """Open a v8 store file as a :class:`repro.trace.record.Trace`.

    With ``mapped=True`` (the default) the record block is a *read-only*
    ``np.memmap`` view of the file: no copy is made, and every process
    mapping the same file shares one page-cache instance of the data.
    ``mapped=False`` materializes a private in-RAM copy (used by tests
    and benchmarks comparing the two paths).  Both checksums are
    verified first; any validation failure raises
    :class:`TraceStoreError`.
    """
    meta, _, (accesses,) = artifact.read(TRACE, path, mapped)
    try:
        space = _space_from_meta(meta)
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceStoreError(f"bad metadata block: {exc}") from None
    return Trace(accesses, space, str(meta.get("name", "trace")),
                 str(meta.get("kernel", "")), str(meta.get("graph", "")))


def is_store_file(path: str | os.PathLike) -> bool:
    """Cheap sniff: does ``path`` start with the store magic?"""
    return artifact.sniff(TRACE, path)
