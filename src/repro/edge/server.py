"""Threaded stdlib HTTP transport over :class:`~repro.edge.app.EdgeApp`.

A thin ``http.server`` adapter — no framework, no new dependency: one
:class:`ThreadingHTTPServer` whose handler reads the request, hands it
to :meth:`EdgeApp.handle`, and writes the complete response back.  All
policy (auth, limits, errors, logging, metrics) lives in the app; the
transport only enforces the *read cap*: it never reads more than one
byte past the largest registered body limit, so an oversized upload
costs bounded memory and the app can still answer a typed 413 from
the declared ``Content-Length``.

The default handler access log is disabled — the app's structured,
redacted request log (:mod:`repro.edge.reqlog`) is the log of record.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.edge.app import EdgeApp

__all__ = ["EdgeServer"]


class _EdgeHandler(BaseHTTPRequestHandler):
    """Per-connection adapter; all behavior delegates to the app."""

    server_version = "repro-edge"
    sys_version = ""
    protocol_version = "HTTP/1.1"
    #: Socket timeout (seconds) applied to every connection.  A client
    #: that declares Content-Length N and then stalls mid-body would
    #: otherwise block rfile.read() forever and pin a handler thread
    #: (slowloris); on timeout http.server drops the connection.
    timeout = 30.0
    #: Buffered wfile: handle_one_request flushes it once per request,
    #: so headers and body of a typical response leave in one send.
    wbufsize = -1
    #: TCP_NODELAY on each accepted socket: a response larger than the
    #: write buffer still leaves in two sends, and without it Nagle
    #: holds the second until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def _dispatch(self) -> None:
        app: EdgeApp = self.server.app  # type: ignore[attr-defined]
        try:
            declared = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            declared = 0
        declared = max(0, declared)
        cap = app.read_cap_bytes
        body = self.rfile.read(min(declared, cap)) if declared else b""
        resp = app.handle(self.command, self.path,
                          dict(self.headers.items()), body,
                          declared_length=declared)
        truncated = declared > len(body)
        self.send_response(resp.status)
        for name, value in resp.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(resp.body)))
        if truncated:
            # Unread body bytes would desync keep-alive framing; drop
            # the connection after answering (the 413 path).
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(resp.body)

    def do_GET(self) -> None:    # noqa: N802 — http.server contract
        self._dispatch()

    def do_POST(self) -> None:   # noqa: N802 — http.server contract
        self._dispatch()

    def do_PUT(self) -> None:    # noqa: N802 — http.server contract
        self._dispatch()

    def do_DELETE(self) -> None:  # noqa: N802 — http.server contract
        self._dispatch()

    def log_message(self, format: str, *args: object) -> None:
        """Silenced: the structured request log is the log of record."""


class EdgeServer:
    """Owns the listening socket and its acceptor thread.

    ``port=0`` binds an ephemeral port (the default for tests); the
    bound address is available as :attr:`address` after construction.
    Context-manager use closes the socket and joins the thread.
    """

    def __init__(self, app: EdgeApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), _EdgeHandler)
        self._httpd.daemon_threads = True
        self._httpd.app = app  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "EdgeServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="edge.http", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "EdgeServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
