"""``repro.serve`` — a production-style cardinality-estimation service.

The paper's pitch for learned estimators is operational: cheap, fast
estimates inside a running system.  This package closes that loop by
putting a fitted estimator behind a service boundary:

* :mod:`repro.serve.registry` — versioned on-disk model registry with
  manifests, checksums, and ``latest`` resolution.
* :mod:`repro.serve.batcher` — micro-batching executor that amortises
  the pipeline's execute stage across concurrent single requests.
* :mod:`repro.serve.cache` — thread-safe LRU caches: exact-match
  estimates keyed on the request's SQL text, and prepared statements
  (compiled plan, or rejection) keyed on the literal-masked SQL
  fingerprint.
* :mod:`repro.serve.fused` — the one serving pipeline: resolve SQL to
  prepared statements (a statement the featurizer rejects raises its
  error here, once parsed, for every instance), then execute them
  through one stitched encode and one compiled predict.  It serves
  estimators with a single-table featurizer and ``estimate_features``
  and refuses any other with a ``TypeError``.
* :mod:`repro.serve.server` — threaded HTTP JSON API with admission
  control, ``/metrics`` export, and graceful drain.
* :mod:`repro.serve.client` — minimal stdlib client with bounded
  ``Retry-After`` retries on saturation.

Everything is stdlib + numpy; ``repro serve`` on the CLI boots a server,
and the repository benchmark (``perfbench/run.py``) measures it end to
end over HTTP (medians committed as ``BENCH_serve.json``).
"""

from repro.serve.batcher import BatcherClosedError, MicroBatcher
from repro.serve.cache import EstimateCache, ParseCache
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.fused import EstimatePipeline
from repro.serve.registry import ModelRegistry, ModelVersion, RegistryError
from repro.serve.server import (
    EstimationServer,
    EstimationService,
    ServiceUnavailableError,
)

__all__ = [
    "MicroBatcher", "BatcherClosedError",
    "EstimateCache", "ParseCache",
    "EstimatePipeline",
    "ServeClient", "ServeClientError",
    "ModelRegistry", "ModelVersion", "RegistryError",
    "EstimationService", "EstimationServer", "ServiceUnavailableError",
]
