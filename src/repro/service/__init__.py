"""The campaign service: content-addressed compute behind a queue.

``python -m repro serve --store DIR`` turns the execution layer built by
the engine/store/campaign stack into a **long-running, multi-client
daemon**: one shared process pool, one concurrent-safe
:class:`~repro.core.store.DiskStore`, and a small HTTP/JSON API where

* every submission is decomposed to point granularity and checked
  against the store first — any answer ever computed is served back in
  microseconds,
* identical in-flight submissions from different clients **coalesce**
  into one computation,
* interactive requests **preempt** bulk campaign sweeps at point
  granularity, and
* adaptive-precision submissions **upgrade** cached tallies instead of
  recomputing them.

Layers:

* :mod:`repro.service.daemon` — :class:`CampaignService`, the scheduler
  (priority queue, coalescing, recording, graceful shutdown); fully
  usable in-process.
* :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer`` JSON
  surface plus :func:`serve`.
* :mod:`repro.service.client` — :class:`ServiceClient`, the urllib
  client behind ``python -m repro submit/status/fetch``.
* :mod:`repro.service.jobs` — the job data model and request validation.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (MAX_FINISHED_JOBS, CampaignService,
                                  JobEvicted, ServiceUnavailable,
                                  StoreFailure)
from repro.service.http import DEFAULT_PORT, ServiceHTTPServer, serve
from repro.service.jobs import Job, parse_request

__all__ = [
    "CampaignService",
    "DEFAULT_PORT",
    "Job",
    "JobEvicted",
    "MAX_FINISHED_JOBS",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceUnavailable",
    "StoreFailure",
    "parse_request",
    "serve",
]
