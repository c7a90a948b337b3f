"""``repro.serve`` — planning-as-a-service.

The single-process :class:`~repro.api.Session` turned into a long-lived
planning server: JSON-RPC over stdio or a stdlib HTTP server
(:mod:`repro.serve.server`), every request priced through one
process-wide :class:`PersistentEvaluationStore`
(:mod:`repro.serve.store`) — an
:class:`~repro.autotune.cache.EvaluationCache` (interned cell keys,
request-level single flight so concurrent identical requests price each
candidate exactly once) extended with LRU bounds and an atomic
JSON-lines disk snapshot for warm-starts.

::

    repro serve --store /var/tmp/evals.jsonl            # stdio JSON-RPC
    repro serve --http 8787 --store /var/tmp/evals.jsonl

See ``docs/serving.md`` for the wire protocol, persistence format,
eviction policy, and warm-start semantics.
"""

from .server import (PlanningServer, decode_response, encode_response,
                     make_http_server, serve_http, serve_stdio)
from .store import (
    STORE_FORMAT,
    STORE_VERSION,
    Flight,
    PersistentEvaluationStore,
    decode_key,
    encode_key,
)

__all__ = [
    "PlanningServer",
    "encode_response",
    "decode_response",
    "serve_stdio",
    "serve_http",
    "make_http_server",
    "PersistentEvaluationStore",
    "Flight",
    "encode_key",
    "decode_key",
    "STORE_FORMAT",
    "STORE_VERSION",
]
