"""``repro serve`` — the sweep-as-a-service HTTP front end.

A long-lived asyncio server (stdlib only) that keeps one warm
:class:`~repro.engine.sweep.ExperimentEngine` — persistent worker pool,
in-memory + SQLite-WAL result cache — behind ``POST /sweep``,
``POST /points``, ``POST /validate``, ``GET /healthz`` and
``GET /stats``, answering with per-request run manifests (schema v9).
See DESIGN.md §15 for the architecture and
:mod:`repro.serve.protocol` for the wire format.
"""

from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    evaluation_payload,
    execute_request,
    identity_payload,
    parse_request,
    serial_reference,
)
from repro.serve.queue import QueueFullError, RequestTicket, ServeStats
from repro.serve.server import ReproServer, request_json

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "ProtocolError",
    "QueueFullError",
    "ReproServer",
    "RequestTicket",
    "ServeStats",
    "evaluation_payload",
    "execute_request",
    "identity_payload",
    "parse_request",
    "request_json",
    "serial_reference",
]
