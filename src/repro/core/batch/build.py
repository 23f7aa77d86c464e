"""Compile and load the batch simulation kernel (kernel.c).

The kernel is plain C99 compiled on demand with the system ``cc`` into
a shared object cached under ``cache_dir()/batch-kernel/<source-sha>/``,
then loaded through :mod:`ctypes` (stdlib only — no build-system or
packaging dependency).  Everything degrades gracefully: when no
compiler is available, compilation fails, or the ABI version does not
match, :func:`load_kernel` returns ``None`` and the caller falls back
to the reference Python backend.

``-ffp-contract=off`` is mandatory: the interval timer's float math
must not be fused into FMA, or completion times drift off the CPython
results by an ULP and the bit-identity contract breaks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

ABI_VERSION = 4

_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_cached_kernel = None
_load_attempted = False


def _kernel_cache_dir() -> str:
    # Late import: repro.experiments.workloads pulls numpy; keep the
    # import graph of this module minimal for tooling.
    from repro.experiments.workloads import cache_dir
    return os.path.join(cache_dir(), "batch-kernel")


def source_digest() -> str:
    """Content hash of kernel.c (keys the compiled-object cache)."""
    with open(_KERNEL_SOURCE, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _find_compiler() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def compile_kernel(verbose: bool = False) -> str | None:
    """Compile kernel.c into the cache; returns the .so path or None.

    Compilation is atomic (build into a temp file, ``os.replace`` into
    place) so concurrent workers cannot observe a half-written object.
    """
    digest = source_digest()
    out_dir = os.path.join(_kernel_cache_dir(), digest)
    so_path = os.path.join(out_dir, "libreprobatch.so")
    if os.path.exists(so_path):
        return so_path
    cc = _find_compiler()
    if cc is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=out_dir)
    os.close(fd)
    cmd = [cc, *_CFLAGS, "-o", tmp, _KERNEL_SOURCE]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    if proc.returncode != 0:
        if verbose:
            print(proc.stderr)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    os.replace(tmp, so_path)
    return so_path


def load_kernel():
    """Load (compiling if needed) the batch kernel; None if unavailable.

    The handle is cached for the process; a failed attempt is cached
    too, so the hot path never retries compilation per run.
    """
    global _cached_kernel, _load_attempted
    if _load_attempted:
        return _cached_kernel
    _load_attempted = True
    if os.environ.get("REPRO_NO_BATCH_KERNEL"):
        return None
    so_path = compile_kernel()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        lib.repro_batch_abi.restype = ctypes.c_int64
        lib.repro_batch_abi.argtypes = []
        lib.repro_batch_run.restype = ctypes.c_int64
        lib.repro_batch_run.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_void_p),
        ]
        if lib.repro_batch_abi() != ABI_VERSION:
            return None
    except OSError:
        return None
    _cached_kernel = lib
    return lib


def kernel_available() -> bool:
    return load_kernel() is not None
