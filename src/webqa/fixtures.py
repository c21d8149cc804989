"""Canned search engine, web pages and LM served over loopback.

Points the retrieval stack at a directory instead of the live web: a
``search.json`` file maps each query string to an ordered list of page
paths, and the pages themselves live beside it as files.  The LM routes
serve a ``MockBackend``, so one URL is both ``--search-endpoint`` and
``--backend``; they answer 413 to a request that would overflow the mock's
context, as a real server does.  It speaks HTTP/1.1, so a client can send
many requests over one connection.  Run standalone with
``python -m webqa.fixtures --root DIR`` or embed :class:`FixtureServer` in a test.
"""
from __future__ import annotations

import argparse
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .lmbackend import GenerationParams, LMBackend, MockBackend, PromptTooLong

logger = logging.getLogger(__name__)

SEARCH_FILE = "search.json"

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".htm": "text/html; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
    ".json": "application/json",
    ".pdf": "application/pdf",
}


def _check_context(backend: LMBackend, prompt: str, reserved_tokens: int) -> None:
    """Raise :class:`PromptTooLong` unless ``prompt`` and ``reserved_tokens`` fit the context."""
    context = backend.describe().context_tokens
    if backend.count_tokens(prompt) + reserved_tokens > context:
        raise PromptTooLong(f"prompt plus {reserved_tokens} tokens exceeds the context of {context}")


def _complete(backend: LMBackend, r: dict) -> dict:
    _check_context(backend, r["prompt"], r["max_new_tokens"])
    params = GenerationParams(r["nucleus_p"], r["temperature"], r["max_new_tokens"], tuple(r["stop"]), r["n"])
    return backend.sample(r["prompt"], params, r["seed"]).to_json()


def _score(backend: LMBackend, r: dict) -> dict:
    _check_context(backend, r["prompt"], backend.count_tokens(r["continuation"]))
    return backend.score(r["prompt"], r["continuation"]).to_json()


# each raises PromptTooLong for a request the backend's context cannot hold
_LM_POSTS = {
    "/v1/complete": _complete,
    "/v1/score": _score,
    "/v1/count_tokens": lambda backend, r: {"tokens": backend.count_tokens(r["text"])},
}


class _FixtureHandler(BaseHTTPRequestHandler):
    # keep-alive, as a live server does; every response sends Content-Length.  Nagle's
    # algorithm would hold the body back behind the headers until the client's delayed ACK
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    root: Path
    index: dict[str, list[str]]
    backend: LMBackend = MockBackend()  # stateless, so servers can share it

    def log_message(self, format, *args):
        logger.debug("fixture server: " + format, *args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, obj) -> None:
        self._send(200, "application/json", json.dumps(obj).encode("utf-8"))

    def do_GET(self):
        parsed = urlparse(self.path)
        if parsed.path == "/search":
            query = parse_qs(parsed.query)
            q = query.get("q", [""])[0]
            num = int(query.get("num", ["10"])[0])
            host = self.headers.get("Host", "127.0.0.1")
            paths = self.index.get(q, [])[:num]
            self._send_json({"results": [f"http://{host}/{p.lstrip('/')}" for p in paths]})
            return
        if parsed.path == "/v1/model":
            self._send_json(self.backend.describe().to_json())
            return
        relative = parsed.path.lstrip("/")
        target = (self.root / relative).resolve()
        if not target.is_relative_to(self.root.resolve()) or not target.is_file():
            self._send(404, "text/plain; charset=utf-8", b"not found")
            return
        content_type = _CONTENT_TYPES.get(target.suffix.lower(), "application/octet-stream")
        self._send(200, content_type, target.read_bytes())

    def do_POST(self):
        route = _LM_POSTS.get(urlparse(self.path).path)
        if route is None:
            self._send(404, "text/plain; charset=utf-8", b"not found")
            return
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        try:
            response = route(self.backend, request)
        except PromptTooLong as exc:
            self._send(413, "text/plain; charset=utf-8", str(exc).encode("utf-8"))
            return
        self._send_json(response)


class _Server(ThreadingHTTPServer):
    # the default listen backlog of 5 makes the 6th of many concurrent connections
    # wait about a second for a SYN retry; runs with --max-workers 8 open more
    request_queue_size = 128


class FixtureServer:
    """Loopback HTTP server over a fixture directory and a mock LM; a context manager."""

    def __init__(self, root: str | Path, port: int = 0):
        self.root = Path(root)
        index_path = self.root / SEARCH_FILE
        if not index_path.is_file():
            raise FileNotFoundError(f"fixture root {self.root} has no {SEARCH_FILE}")
        index = json.loads(index_path.read_text(encoding="utf-8"))
        handler = type("Handler", (_FixtureHandler,), {"root": self.root, "index": index})
        self._server = _Server(("127.0.0.1", port), handler)
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FixtureServer":
        # serve_forever polls for shutdown every 0.5 s by default; 0.05 s keeps stop() prompt.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "FixtureServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve a fixture web corpus over loopback.")
    parser.add_argument("--root", required=True, help="directory with search.json and page files")
    parser.add_argument("--port", type=int, default=0, help="port to bind (default: ephemeral)")
    args = parser.parse_args(argv)
    server = FixtureServer(args.root, port=args.port)
    print(server.base_url, flush=True)
    try:
        server._server.serve_forever()
    except KeyboardInterrupt:
        server._server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
