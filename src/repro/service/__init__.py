"""Simulation-as-a-service: crash-tolerant sweep orchestration.

``repro.service`` runs ``run_grid``'s supervisor — the lease queue and
worker processes of :mod:`repro.experiments.supervisor` — as a
long-running orchestrator accepting sweep jobs over a typed HTTP/JSON
API (stdlib only).  Cells are granted to workers under TTL'd,
fencing-token leases; all state is journaled under
``$REPRO_CACHE_DIR/service/`` so a killed orchestrator restarts into
the exact same sweep with zero redundant simulation — and, because
cells are keyed with the engine's content-addressed scheme, results
are byte-identical to the same sweep run via the CLI.

Layers (docs/SERVICE.md):

* :mod:`repro.service.queue` — the durable journal;
* :mod:`repro.service.schemas` — typed API request/response schemas;
* :mod:`repro.service.orchestrator` — jobs, recovery, drain;
* :mod:`repro.service.api` — stdlib HTTP server;
* :mod:`repro.service.client` — urllib client (CLI ``repro submit``
  etc. wrap it).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.orchestrator import (Draining, Orchestrator,
                                        QueueFull, ServiceConfig,
                                        UnknownJob)
from repro.service.schemas import (JobRequest, JobStatus,
                                   SubmitResponse)

__all__ = [
    "Draining", "JobRequest", "JobStatus", "Orchestrator",
    "QueueFull", "ServiceClient", "ServiceConfig", "ServiceError",
    "SubmitResponse", "UnknownJob",
]
