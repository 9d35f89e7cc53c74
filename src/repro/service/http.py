"""HTTP/JSON surface of the campaign service (stdlib ``http.server``).

Routes (all JSON in, JSON out):

=======  ============================  =====================================
POST     ``/v1/scenarios``             submit a scenario spec; 202 + job
POST     ``/v1/shutdown``              graceful drain-and-stop
GET      ``/v1/jobs/<id>``             job status, completed points so far
GET      ``/v1/jobs/<id>/result``      deterministic ScenarioResult JSON
                                       (byte-identical to a local run)
GET      ``/v1/results/<key>``         any cached point, straight from the
                                       store
GET      ``/v1/health``                liveness (status, version, uptime)
GET      ``/v1/stats``                 queue depth, hit rates, utilization
=======  ============================  =====================================

The server is a :class:`ThreadingHTTPServer` — requests are handled on
their own threads and only ever touch the
:class:`~repro.service.daemon.CampaignService` through its locked public
methods, so many clients can submit, poll and fetch concurrently while
the dispatcher threads compute.

``serve()`` wires store + service + server together; the CLI adds signal
handling on top (see ``python -m repro serve``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.core.store import DiskStore, RunStore
from repro.service.daemon import CampaignService, ServiceUnavailable
from repro.utils.serialization import jsonify

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 8765
#: Largest request body the service reads (a scenario request is under
#: 1 KB); a request declaring more is answered 413 and its body discarded.
MAX_BODY_BYTES = 1 << 20
#: Longest time a refused request's unread body is drained before the
#: connection closes, so that a client still sending it reads the answer.
LINGER_S = 2.0


class _UnreadBody(Exception):
    """A request body refused before any of it is read, as
    ``(status, message)``."""


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server owning one :class:`CampaignService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: CampaignService, quiet: bool = True) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Drain the service, then stop accepting HTTP connections."""
        report = self.service.shutdown(timeout=timeout)
        # shutdown() must run off the serve_forever thread; it is safe
        # (and a no-op) when serve_forever was never entered.
        shutdown_thread = threading.Thread(target=self.shutdown)
        shutdown_thread.start()
        shutdown_thread.join(timeout=timeout)
        return report


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def service(self) -> CampaignService:
        return self.server.service

    def _send_json(self, status: int, payload: Any,
                   raw: Optional[bytes] = None) -> None:
        body = raw if raw is not None else json.dumps(
            jsonify(payload), sort_keys=True, allow_nan=False,
            separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _linger(self) -> None:
        """Close after a refused body without resetting the connection.

        The answer is complete, so the write side is shut (the client
        reads the answer to its end); what the client still sends is
        discarded until it stops or :data:`LINGER_S` passes.  Closing
        with that input unread would reset the connection, and a client
        still sending its body would see a broken pipe, not the answer.
        """
        connection = self.connection
        try:
            connection.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + LINGER_S
            while (remaining := deadline - time.monotonic()) > 0:
                connection.settimeout(remaining)
                if not connection.recv(1 << 16):
                    break
        except OSError:  # timed out, or the client went away
            pass

    def _read_payload(self) -> Any:
        declared = (self.headers.get("Content-Length") or "0").strip()
        # Digits only: a negative length would read to end of stream,
        # past any cap.
        if not declared.isdecimal():
            raise _UnreadBody(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _UnreadBody(413, f"request body of {length} bytes "
                                   f"exceeds the {MAX_BODY_BYTES}-byte limit")
        body = self.rfile.read(length) if length else b""
        if not body:
            return {}
        return json.loads(body.decode("utf-8"))

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_get()
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _route_get(self) -> None:
        path = self.path.rstrip("/")
        if path == "/v1/health":
            self._send_json(200, self.service.health())
            return
        if path == "/v1/stats":
            self._send_json(200, self.service.stats())
            return
        if path.startswith("/v1/jobs/"):
            remainder = path[len("/v1/jobs/"):]
            job_id, _, tail = remainder.partition("/")
            try:
                if tail == "result":
                    self._send_json(200, None, raw=self.service.result_json(
                        job_id).encode("utf-8"))
                elif tail == "":
                    self._send_json(200, self.service.job(job_id))
                else:
                    self._send_error_json(404, f"unknown path {self.path!r}")
            except KeyError:
                self._send_error_json(404, f"unknown job {job_id!r}")
            except RuntimeError as error:
                # result requested before the job is done (or after a
                # failure): a state conflict, not a missing resource.
                self._send_error_json(409, str(error))
            return
        if path.startswith("/v1/results/"):
            key = path[len("/v1/results/"):]
            try:
                self._send_json(200, self.service.fetch(key))
            except (KeyError, ValueError):
                self._send_error_json(404, f"no cached result under "
                                           f"key {key!r}")
            return
        self._send_error_json(404, f"unknown path {self.path!r}")

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_post()
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _route_post(self) -> None:
        path = self.path.rstrip("/")
        if path == "/v1/scenarios":
            try:
                payload = self._read_payload()
            except _UnreadBody as error:
                # The body is never parsed: answer, drain what the client
                # still sends, and close rather than read it as the next
                # request on this connection.
                self.close_connection = True
                self._send_error_json(*error.args)
                self._linger()
                return
            except ValueError:
                self._send_error_json(400, "request body is not valid JSON")
                return
            try:
                descriptor = self.service.submit(payload)
            except ServiceUnavailable as error:
                self._send_error_json(503, str(error))
            except (KeyError, ValueError) as error:
                self._send_error_json(400, str(error))
            else:
                self._send_json(202, descriptor)
            return
        if path == "/v1/shutdown":
            # Acknowledge first, then drain: the draining service would
            # otherwise hold this very response open forever.
            self._send_json(200, {"status": "draining"})
            threading.Thread(target=self.server.stop, daemon=True).start()
            return
        self._send_error_json(404, f"unknown path {self.path!r}")


def serve(store_dir: Optional[str] = None, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT, n_workers: int = 2,
          processes: bool = True, store: Optional[RunStore] = None,
          quiet: bool = True) -> ServiceHTTPServer:
    """Build a ready-to-run service server (does not block).

    ``store_dir`` opens a :class:`~repro.core.store.DiskStore` (the
    daemon's durable memory); pass ``store`` to inject any other
    :class:`~repro.core.store.RunStore` (tests use a
    :class:`~repro.core.store.MemoryStore`).  ``port=0`` binds an
    ephemeral port — read it back from ``server.url``.  Call
    ``server.serve_forever()`` to block, ``server.stop()`` to drain.
    """
    if store is None:
        store = DiskStore(store_dir) if store_dir else None
    service = CampaignService(store=store, n_workers=n_workers,
                              processes=processes)
    return ServiceHTTPServer((host, port), service, quiet=quiet)
