"""One checksummed on-disk artifact container.

Every file the repository caches has this layout: trace stores
(:mod:`repro.trace.store`), ingested graph stores
(:mod:`repro.graphs.ingest`) and results-cache entries
(:mod:`repro.experiments.results_cache`).  Little-endian throughout::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       8     magic                 per kind (b"REPROTRC", ...)
    8       4     version               u32, the kind's format version
    12      4     header_size           u32, H
    16      8     meta_len              u64, metadata block length m
    24      ...   fixed fields          per kind (``Kind`` ``fields``)
    H-64    32    payload_sha           sha256(metadata ‖ sections)
    H-32    32    header_sha            sha256(header bytes [0:H-32])
    H       m     metadata block        canonical UTF-8 JSON object
    H+m     ...   array sections        raw arrays whose dtypes and
                                        lengths the kind derives from
                                        the fixed fields

The file size must equal ``H + m +`` the section bytes (the size
equation).  :func:`read` checks magic, both checksums, version and size
before handing out read-only ``np.memmap`` views, so every process
mapping a file shares one page-cache copy; :func:`write` is atomic.

One rule sorts the files :func:`read` rejects: a file whose header
authenticates but whose version is *older* than the kind's is
**stale** (written by older code, not damaged) and :func:`discard`
deletes it; anything else is **corrupt** and :func:`discard`
quarantines it.  Either way the caller regenerates the artifact under
its own recovery policy.  See docs/TRACES.md.

>>> import tempfile
>>> DEMO = Kind(b"REPRODEM", 1, "Q", "demo", lambda n: [(np.int32, n)])
>>> path = Path(tempfile.mkdtemp()) / "demo.bin"
>>> write(DEMO, path, {"name": "demo"}, (3,), [np.arange(3, dtype=np.int32)])
>>> meta, fields, (arr,) = read(DEMO, path)
>>> meta, fields, arr.tolist()
({'name': 'demo'}, (3,), [0, 1, 2])
>>> path.stat().st_size == DEMO.header.size + len(b'{"name":"demo"}') + 12
True
>>> shutil.rmtree(path.parent)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from repro import faults
from repro.telemetry.metrics import Counter

#: magic, version, header_size, meta_len — the prefix every version of
#: every kind shares, so a reader can authenticate an older header.
_PREFIX = struct.Struct("<8sIIQ")

#: Largest header a reader accepts before trusting ``header_size``.
_MAX_HEADER = 4096

_CHUNK = 1 << 20                        # checksum/copy block size


class ArtifactError(ValueError):
    """A file failed validation and is not trusted.  ``stale`` marks an
    intact file from an older format version (see :func:`discard`)."""

    def __init__(self, message: str, stale: bool = False):
        super().__init__(message)
        self.stale = stale


class Kind:
    """One artifact family.

    ``fields`` are the struct codes of the fixed header fields and
    ``sections(*fields)`` lists the ``(dtype, length)`` of each array
    section in file order.  ``error`` is raised on validation failures.
    Activity is counted in telemetry counters ``<name>_<counter>``:
    ``opens``/``maps``/``writes``/``stale``/``corrupt`` plus the
    caller's ``extra_counters``.
    """

    def __init__(self, magic: bytes, version: int, fields: str, name: str,
                 sections=lambda: [], error=ArtifactError,
                 extra_counters: tuple[str, ...] = ()):
        self.magic = magic
        self.version = version
        self.header = struct.Struct(f"<8sIIQ{fields}32s32s")
        self.sections = sections
        self.error = error
        self.counters = {
            c: Counter(f"{name}_{c}") for c in
            ("opens", "maps", "writes", "stale", "corrupt") + extra_counters}

    def counters_snapshot(self) -> dict[str, int]:
        """Current value of every counter (name -> count)."""
        return {name: c.value for name, c in self.counters.items()}

    def reset_counters(self) -> None:
        for c in self.counters.values():
            c.value = 0


def encode_meta(meta: dict) -> bytes:
    """Canonical JSON of a metadata block — what :func:`write` stores
    and ``payload_sha`` covers."""
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# -- write ------------------------------------------------------------------

@contextmanager
def atomic_write(path):
    """Open a binary file that atomically replaces ``path`` on exit.

    The data goes to a process-unique ``<name>.tmp.<pid>`` file that
    ``os.replace`` renames over ``path``, or that is removed if the
    block raises: readers see the old file or the new one, never a torn
    one.  No fsync — a crash may lose these files, never corrupt them.
    """
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write(kind: Kind, path, meta: dict, fields: tuple = (),
          arrays=()) -> None:
    """Write one artifact atomically.

    ``arrays`` must match ``kind.sections(*fields)``.  They are hashed
    and copied in bounded chunks, so memmap-backed sections never load
    into RAM whole.
    """
    meta_raw = encode_meta(meta)
    want = kind.sections(*fields)
    arrays = [np.ascontiguousarray(a) for a in arrays]
    if [(a.dtype, a.shape) for a in arrays] != \
            [(np.dtype(dt), (n,)) for dt, n in want]:
        raise ValueError(f"{Path(path).name}: arrays do not match the "
                         f"sections {want} of the header fields")
    with atomic_write(path) as fh:
        fh.write(bytes(kind.header.size))
        sha = hashlib.sha256(meta_raw)
        fh.write(meta_raw)
        for arr in arrays:
            raw = arr.view(np.uint8)
            for i in range(0, len(raw), _CHUNK):
                sha.update(raw[i:i + _CHUNK])
                fh.write(raw[i:i + _CHUNK])
        head = kind.header.pack(kind.magic, kind.version, kind.header.size,
                                len(meta_raw), *fields, sha.digest(),
                                bytes(32))[:-32]
        fh.seek(0)
        fh.write(head + hashlib.sha256(head).digest())
    kind.counters["writes"].inc()


# -- read -------------------------------------------------------------------

def _authentic_header(kind: Kind, fh) -> tuple[int, int, bytes]:
    """``(version, meta_len, header bytes)`` of a header whose magic and
    checksum hold, whatever its version."""
    prefix = fh.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise kind.error(f"truncated header ({len(prefix)} bytes)")
    magic, version, size, meta_len = _PREFIX.unpack(prefix)
    if magic != kind.magic:
        raise kind.error(f"bad magic {magic!r}")
    if not _PREFIX.size + 64 <= size <= _MAX_HEADER:
        raise kind.error(f"bad header size {size}")
    head = prefix + fh.read(size - _PREFIX.size)
    if len(head) < size:
        raise kind.error(f"truncated header ({len(head)} of {size} "
                         f"bytes)")
    if hashlib.sha256(head[:-32]).digest() != head[-32:]:
        raise kind.error("header checksum mismatch")
    return version, meta_len, head


def _header(kind: Kind, fh) -> tuple[int, tuple, bytes, list]:
    """Check a header against the kind's version and the size equation;
    returns ``(meta_len, fields, payload_sha, sections)``."""
    version, meta_len, head = _authentic_header(kind, fh)
    if version < kind.version:
        raise kind.error(f"stale version {version} (this build writes "
                         f"v{kind.version})", stale=True)
    if version != kind.version or len(head) != kind.header.size:
        raise kind.error(f"unsupported version {version} (this build "
                         f"reads v{kind.version})")
    fields = kind.header.unpack(head)[4:-2]
    sections = [(np.dtype(dt), n) for dt, n in kind.sections(*fields)]
    expected = len(head) + meta_len + sum(dt.itemsize * n
                                          for dt, n in sections)
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise kind.error(f"file size {actual} != expected {expected} "
                         f"(truncated or padded)")
    return meta_len, fields, head[-64:-32], sections


def _meta(kind: Kind, raw: bytes) -> dict:
    try:
        meta = json.loads(raw)
    except ValueError as exc:
        raise kind.error(f"bad metadata block: {exc}") from None
    if not isinstance(meta, dict):
        raise kind.error("bad metadata block: not a JSON object")
    return meta


def read_header(kind: Kind, path) -> tuple[int, tuple, bytes]:
    """Check only the header and the size equation of ``path``;
    returns ``(meta_len, fields, payload_sha)``."""
    with open(path, "rb") as fh:
        return _header(kind, fh)[:3]


def read(kind: Kind, path, mapped: bool = True
         ) -> tuple[dict, tuple, list[np.ndarray]]:
    """Validate ``path`` and return ``(meta, fields, arrays)``.

    The metadata and sections stream through sha256 once, a sequential
    read that doubles as page-cache warming; the size equation has
    already shown that nothing follows them, so a file without sections
    is read no further than its metadata.  With ``mapped=True`` each
    non-empty section is a read-only ``np.memmap`` view, otherwise a
    private in-RAM copy.  Any validation failure raises ``kind.error``.
    """
    with open(path, "rb") as fh:
        meta_len, fields, payload_sha, sections = _header(kind, fh)
        raw = fh.read(meta_len)
        sha = hashlib.sha256(raw)
        if sections:
            for chunk in iter(lambda: fh.read(_CHUNK), b""):
                sha.update(chunk)
    if sha.digest() != payload_sha:
        raise kind.error("payload checksum mismatch")
    meta = _meta(kind, raw)
    arrays = []
    offset = kind.header.size + meta_len
    for dtype, n in sections:
        if mapped and n:
            arrays.append(np.memmap(path, dtype=dtype, mode="r",
                                    offset=offset, shape=(n,)))
        else:
            arrays.append(np.fromfile(path, dtype=dtype, count=n,
                                      offset=offset))
        offset += n * dtype.itemsize
    if mapped:
        kind.counters["maps"].inc()
    kind.counters["opens"].inc()
    return meta, fields, arrays


def read_meta(kind: Kind, path) -> dict | None:
    """Best-effort metadata of a possibly damaged file: the header must
    authenticate, nothing after the metadata is checked.  Damage usually
    lands in the large sections or cuts the tail, so what a rebuild
    needs (a graph's source path) generally survives; ``None`` when
    even that is gone."""
    try:
        with open(path, "rb") as fh:
            _, meta_len, _ = _authentic_header(kind, fh)
            return _meta(kind, fh.read(meta_len))
    except (OSError, ArtifactError):
        return None


def sniff(kind: Kind, path) -> bool:
    """Cheap check: does ``path`` start with the kind's magic?"""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(kind.magic)) == kind.magic
    except OSError:
        return False


# -- recovery ---------------------------------------------------------------

def discard(kind: Kind, path: Path, exc: Exception,
            quarantine_dir: Path) -> bool:
    """Apply the stale-vs-corrupt rule to a file :func:`read` rejected
    with ``exc``: delete a stale file, move anything else to
    ``quarantine_dir`` (the ``.bad`` suffix keeps it out of entry
    globs).  Returns whether the file was stale."""
    stale = getattr(exc, "stale", False)
    kind.counters["stale" if stale else "corrupt"].inc()
    try:
        if not stale:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            dest = quarantine_dir / f"{path.name}.bad"
            if dest.exists():
                dest = quarantine_dir / f"{path.name}.{os.getpid()}.bad"
            shutil.move(str(path), str(dest))
            return False
    except OSError:
        pass        # quarantine unwritable: never leave the file live
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass        # raced with a concurrent reader's unlink
    return stale


def fault_hook(path, site: str, write_seqs: dict) -> None:
    """Apply an armed ``corrupt``/``truncate`` fault plan to a
    just-written artifact.

    ``site`` names the file (``trace:<file>``, ``graph:<file>`` or a
    cache key); ``write_seqs`` is the caller's per-site write count, in
    the caller's scope.  The count plays the part of the attempt
    number: with the default ``max_attempt=1`` only the first write of
    a file is damaged, so the regeneration lands clean.
    """
    if faults.active_plan() is None:
        return
    seq = write_seqs[site] = write_seqs.get(site, 0) + 1
    faults.mangle_artifact(Path(path), site, seq)
