"""Batched structure-of-arrays simulation backend.

The public seam is small on purpose:

* :func:`resolve_backend` — name resolution (``arg`` > ``REPRO_BACKEND``
  env var > ``"batch"``; ``"ref"`` pins the reference loop, the spec);
* :func:`try_run_batch` — run a trace through the compiled SoA kernel,
  or return ``None`` to signal "fall back to the reference loop"
  (a kernel error raises :class:`KernelError`);
* :func:`fallback_counts` — this process's refusals so far, keyed by
  :func:`unsupported_reason`;
* :func:`kernel_available` — can this host compile/load the kernel?

See docs/PERFORMANCE.md ("Backends") for the design and A/B recipe.
"""

from __future__ import annotations

import os

from repro.core.batch.backend import (KernelError, fallback_counts,
                                      record_fallback,
                                      reset_fallback_counts, try_run_batch,
                                      unsupported_reason)
from repro.core.batch.build import (compile_kernel, kernel_available,
                                    load_kernel, source_digest)

BACKENDS = ("ref", "batch")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument or ``REPRO_BACKEND``."""
    name = backend or os.environ.get("REPRO_BACKEND") or "batch"
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; "
                         f"choose from {BACKENDS}")
    return name


__all__ = ["BACKENDS", "resolve_backend", "try_run_batch",
           "unsupported_reason", "KernelError", "fallback_counts",
           "record_fallback", "reset_fallback_counts", "kernel_available",
           "compile_kernel", "load_kernel", "source_digest"]
