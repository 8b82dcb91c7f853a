"""``repro serve`` — the long-lived HTTP query front-end.

Zero-dependency (stdlib :mod:`http.server`).  The listener starts one
thread per connection, and that thread runs its requests' queries itself,
through the session scheduler, as ``Session.query`` on one shared
:class:`~repro.api.Connection` — all clients contend for one buffer
pool, exactly like sessions of a real database server.

Wire protocol (JSON over HTTP):

``POST /v1/query``
    Body ``{"query": "...", "timeout"?, "workers"?, "lint"?, "mode"?,
    "optimize"?, "scope"?, "session"?}``.  200 with the
    :meth:`repro.api.Result.to_dict` document plus wall-clock
    ``queue_ms`` / ``exec_ms``; 408 on deadline expiry; 429 when
    ``queue_depth`` requests already wait; 503 while draining; 400 on
    parse/plan errors and on a ``timeout`` (finite, > 0), ``workers``
    (integer >= 1), ``optimize`` (boolean) or ``lint`` mode out of range;
    404 for a ``session`` that is not an open id.
``POST /v1/sessions`` / ``DELETE /v1/sessions/<id>``
    Explicit session lifecycle (optional — anonymous queries share the
    scheduler's session).  Sessions carry defaults: body may set
    ``{"timeout": seconds, "lint": mode}`` (validated here: 400).
``GET /v1/stats``
    Scheduler + store counters as JSON.
``GET /metrics``
    The scheduler's series, the plan-cache figures and the process-wide
    counters (:mod:`repro.observe.counters`) in Prometheus text
    exposition format.
``GET /healthz``
    Liveness.

A request body is read only when ``Content-Length`` is an integer in
``[0, MAX_BODY_BYTES]`` and no ``Transfer-Encoding`` is set (else 400,
413 or 411), and must arrive whole (else 400) without stalling for
``BODY_TIMEOUT_S`` (else 408).  Each refusal closes the connection.

Graceful shutdown (SIGINT/SIGTERM or :meth:`QueryServer.close`) stops
admission first and drains admitted queries before the listener exits.
"""

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.plan_lint import validate_lint_mode
from repro.errors import (
    QueryTimeout,
    ReproError,
    ServerOverloaded,
    SessionClosed,
)
from repro.observe import counters
from repro.observe.export import metrics_to_prometheus
from repro.observe.history import collect_counters
from repro.observe.log import get_logger
from repro.server.scheduler import (
    SchedulerConfig,
    SessionScheduler,
    validate_timeout,
)

log = get_logger("server.http")

#: Largest request body read.  The largest legitimate one — the 222-branch
#: ``generate_vertical_sql`` text — is under 16 KB.
MAX_BODY_BYTES = 1 << 20

#: Longest wait for the next byte of a request body; a stalled body is
#: answered 408 and its connection closed.
BODY_TIMEOUT_S = 10.0


class QueryServer:
    """The serving stack: connection + scheduler + HTTP listener."""

    def __init__(self, connection, host="127.0.0.1", port=8737,
                 workers=4, queue_depth=64, default_timeout=None,
                 max_dop=None):
        self.connection = connection
        self.scheduler = SessionScheduler(
            connection,
            SchedulerConfig(
                workers=workers,
                queue_depth=queue_depth,
                default_timeout=default_timeout,
                max_dop=max_dop,
            ),
        )
        self._sessions = {}   # id -> {"timeout": ..., "lint": ...}
        self._session_lock = threading.Lock()
        self._session_counter = 0
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer(
            (host, port), handler, bind_and_activate=False,
        )
        # The listen backlog holds a burst as large as admission does
        # (running plus waiting), not socketserver's 5: a connect the
        # kernel drops is never answered, not even with a 429.
        config = self.scheduler.config
        self.httpd.request_queue_size = config.workers + config.queue_depth
        try:
            self.httpd.server_bind()
            self.httpd.server_activate()
        except OSError:
            self.httpd.server_close()
            raise
        self.httpd.daemon_threads = True
        self._serve_thread = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        """Serve in a background thread; returns immediately."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        self._serve_thread.start()
        log.info("serving on %s (%d workers, queue depth %d)",
                 self.address, self.scheduler.config.workers,
                 self.scheduler.config.queue_depth)
        return self

    def serve_forever(self):
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        # A process backgrounded by a non-interactive shell (`repro
        # serve ... &` in CI) inherits SIGINT as ignored, and SIGTERM's
        # default disposition would kill us without draining — route
        # both through the KeyboardInterrupt path so shutdown always
        # drains in-flight queries.  signal.signal only works on the
        # main thread; elsewhere fall back to plain Ctrl-C handling.
        try:
            def _interrupt(signum, frame):
                raise KeyboardInterrupt
            signal.signal(signal.SIGINT, _interrupt)
            signal.signal(signal.SIGTERM, _interrupt)
        except ValueError:
            pass
        log.info("serving on %s (%d workers, queue depth %d)",
                 self.address, self.scheduler.config.workers,
                 self.scheduler.config.queue_depth)
        try:
            self.httpd.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self):
        """Graceful shutdown: stop admission, drain in-flight queries,
        then stop the listener."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.shutdown(drain=True)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        log.info("server stopped")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- session bookkeeping -------------------------------------------

    def create_session(self, defaults):
        """Open a session carrying *defaults*; a ``timeout`` or ``lint``
        default the query path would refuse raises :class:`ReproError`
        here, not on the session's first query."""
        timeout, lint = defaults.get("timeout"), defaults.get("lint")
        if timeout is not None:
            validate_timeout(timeout)
        if lint is not None:
            validate_lint_mode(lint)
        with self._session_lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
            self._sessions[session_id] = {"timeout": timeout, "lint": lint}
        return session_id

    def drop_session(self, session_id):
        with self._session_lock:
            return self._sessions.pop(session_id, None) is not None

    def session_defaults(self, session_id):
        defaults = None
        if isinstance(session_id, str):  # ids are strings; JSON may not be
            with self._session_lock:
                defaults = self._sessions.get(session_id)
        if defaults is None:
            raise SessionClosed(f"no such session {session_id!r}")
        return defaults

    # -- request handling (transport-independent) -----------------------

    def handle_query(self, body):
        """Run one query request dict; returns ``(status, document)``."""
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            return 400, {"error": "body must carry a non-empty 'query'"}
        kwargs = {}
        session_id = body.get("session")
        if session_id is not None:
            try:
                defaults = self.session_defaults(session_id)
            except SessionClosed as exc:
                return 404, {"error": str(exc)}
            kwargs.update(
                {k: v for k, v in defaults.items() if v is not None}
            )
        for key in ("timeout", "lint", "mode", "scope", "workers",
                    "optimize"):
            if body.get(key) is not None:
                kwargs[key] = body[key]
        try:
            result, error, queue_ms, exec_ms = self.scheduler.run(
                text, **kwargs
            )
        except ReproError as exc:  # refused at admission
            return self._error_response(exc)
        if error is not None:
            status, document = self._error_response(error)
        else:
            status, document = 200, result.to_dict()
            if session_id is not None:
                document["session"] = session_id
        document["queue_ms"] = round(queue_ms, 3)
        document["exec_ms"] = round(exec_ms, 3)
        return status, document

    @staticmethod
    def _error_response(error):
        if isinstance(error, QueryTimeout):
            status = 408
        elif isinstance(error, ServerOverloaded):
            status = 429
        elif isinstance(error, SessionClosed):
            status = 503
        else:
            status = 400
        return status, {
            "error": str(error), "error_type": type(error).__name__,
        }

    def stats_document(self):
        store = self.connection.store
        document = self.scheduler.stats()
        document["store"] = {
            "engine": store.engine_kind,
            "scheme": store.scheme,
            "n_triples": store.n_triples,
            "database_bytes": store.database_bytes(),
            "buffer_pool": store.engine.pool.stats(),
            "buffer_hit_ratio": store.engine.pool.hit_ratio(),
        }
        document["plan_cache"] = self.connection.plan_cache_stats()
        context = store.engine.parallelism()
        document["parallel"] = {
            "engine_workers": store.engine.workers,
            "morsel_rows": None if context is None else context.morsel_rows,
            "max_dop": self.scheduler.config.max_dop,
            **counters.snapshot("parallel"),
        }
        with self._session_lock:
            document["sessions"] = {"open": len(self._sessions)}
        from repro.observe.race import race_check_enabled, race_report

        if race_check_enabled():
            document["race"] = race_report()
        return document

    def metrics_text(self):
        """The ``/metrics`` body: the scheduler's samples, the connection's
        plan-cache figures and the process counters, each read now."""
        samples = self.scheduler.samples()
        for key, value in self.connection.plan_cache_stats().items():
            samples.append(("gauge", f"server.plan_cache_{key}", {}, value))
        for group, values in collect_counters().items():
            for name, value in values.items():
                if value is None:  # a ratio with no observations yet
                    continue
                kind = "gauge" if name.endswith("_ratio") else "counter"
                samples.append((kind, f"{group}.{name}", {}, value))
        return metrics_to_prometheus(samples)


def _make_handler(server):
    """A BaseHTTPRequestHandler bound to *server* (stdlib handlers are
    classes, not closures — bind via subclass attribute)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        query_server = server

        # -- plumbing ---------------------------------------------------

        def log_message(self, fmt, *args):
            log.debug("%s - %s", self.address_string(), fmt % args)

        def _send(self, status, content_type, payload):
            """Headers and body in one write.  Written separately (as
            ``end_headers()`` then ``wfile.write`` do), the body of a
            small response is held back until the client acknowledges
            the headers — the delayed-ACK timer, ~40 ms per request on a
            kept-alive connection that does not set ``TCP_QUICKACK``."""
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            # What end_headers() appends, plus the body; flush_headers()
            # writes the buffer out as one piece.
            self._headers_buffer.append(b"\r\n" + payload)
            self.flush_headers()

        def _send_json(self, status, document):
            payload = json.dumps(document, sort_keys=True).encode("utf-8")
            self._send(status, "application/json", payload)

        def _refuse(self, status, error):
            """Answer *error* and close the connection, whose body is not
            fully read; returns ``None`` as :meth:`_read_body` does."""
            self.close_connection = True
            self._send_json(status, {"error": error})

        def _read_body(self):
            """The request's JSON object; ``None`` once an error has been
            answered instead."""
            if "Transfer-Encoding" in self.headers:
                return self._refuse(411, "Transfer-Encoding is not accepted; "
                                         "send a Content-Length")
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            # Refused before reading: a negative read would block until
            # the client hangs up.
            if length < 0:
                return self._refuse(400, "Content-Length must be an "
                                         "integer >= 0")
            if length > MAX_BODY_BYTES:
                return self._refuse(413, "request body over "
                                         f"{MAX_BODY_BYTES} bytes")
            idle_timeout = self.connection.gettimeout()
            self.connection.settimeout(BODY_TIMEOUT_S)
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                return self._refuse(408, "request body stalled for "
                                         f"{BODY_TIMEOUT_S}s")
            finally:
                self.connection.settimeout(idle_timeout)
            if len(raw) < length:
                return self._refuse(400, "request body ended after "
                                         f"{len(raw)} of {length} bytes")
            if not raw:
                return {}
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                self._send_json(400, {"error": f"malformed JSON body: {exc}"})
                return None
            if not isinstance(body, dict):
                self._send_json(400, {"error": "JSON body must be an object"})
                return None
            return body

        # -- routes -----------------------------------------------------

        def do_GET(self):
            if self.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif self.path == "/v1/stats":
                self._send_json(200, self.query_server.stats_document())
            elif self.path == "/metrics":
                text = self.query_server.metrics_text()
                self._send(
                    200, "text/plain; version=0.0.4", text.encode("utf-8")
                )
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})

        def do_POST(self):
            body = self._read_body()
            if body is None:
                return
            if self.path == "/v1/query":
                status, document = self.query_server.handle_query(body)
                self._send_json(status, document)
            elif self.path == "/v1/sessions":
                try:
                    session_id = self.query_server.create_session(body)
                except ReproError as exc:
                    self._send_json(400, {
                        "error": str(exc), "error_type": type(exc).__name__,
                    })
                else:
                    self._send_json(201, {"session": session_id})
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})

        def do_DELETE(self):
            prefix = "/v1/sessions/"
            if self.path.startswith(prefix):
                session_id = self.path[len(prefix):]
                if self.query_server.drop_session(session_id):
                    self._send_json(200, {"session": session_id,
                                          "closed": True})
                else:
                    self._send_json(404, {
                        "error": f"no such session {session_id!r}"
                    })
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})

    return Handler


def serve(connection, host="127.0.0.1", port=8737, workers=4,
          queue_depth=64, default_timeout=None, background=False,
          max_dop=None):
    """Stand up a :class:`QueryServer` over *connection*.

    With ``background=True`` the listener runs on a daemon thread and the
    started server is returned (use as a context manager or call
    :meth:`QueryServer.close`); otherwise this call serves until
    interrupted.  ``port=0`` picks a free ephemeral port — read
    :attr:`QueryServer.address` for the bound URL.
    """
    server = QueryServer(
        connection, host=host, port=port, workers=workers,
        queue_depth=queue_depth, default_timeout=default_timeout,
        max_dop=max_dop,
    )
    if background:
        return server.start()
    server.serve_forever()
    return server
