"""Canned search engine, web pages and LM served over loopback.

Points the retrieval stack at a directory instead of the live web: a
``search.json`` file maps each query string to an ordered list of page
paths, and the pages themselves live beside it as files.  The LM routes
serve a ``MockBackend``, so one URL is both ``--search-endpoint`` and
``--backend``.  Run standalone with ``python -m webqa.fixtures --root DIR``
or embed :class:`FixtureServer` in a test.
"""
from __future__ import annotations

import argparse
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .lmbackend import GenerationParams, LMBackend, MockBackend

logger = logging.getLogger(__name__)

SEARCH_FILE = "search.json"

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".htm": "text/html; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
    ".json": "application/json",
    ".pdf": "application/pdf",
}


def _complete(backend: LMBackend, r: dict) -> dict:
    params = GenerationParams(r["nucleus_p"], r["temperature"], r["max_new_tokens"], tuple(r["stop"]), r["n"])
    samples = backend.sample(r["prompt"], params, r["seed"])
    return {"samples": [{"text": s.text, "logprob": s.logprob} for s in samples]}


_LM_POSTS = {
    "/v1/complete": _complete,
    "/v1/score": lambda backend, r: {"logprob": backend.score(r["prompt"], r["continuation"])},
    "/v1/count_tokens": lambda backend, r: {"tokens": backend.count_tokens(r["text"])},
}


class _FixtureHandler(BaseHTTPRequestHandler):
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
        if not str(target).startswith(str(self.root.resolve())) or not target.is_file():
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
        self._send_json(route(self.backend, request))


class FixtureServer:
    """Loopback HTTP server over a fixture directory and a mock LM; a context manager."""

    def __init__(self, root: str | Path, port: int = 0):
        self.root = Path(root)
        index_path = self.root / SEARCH_FILE
        if not index_path.is_file():
            raise FileNotFoundError(f"fixture root {self.root} has no {SEARCH_FILE}")
        index = json.loads(index_path.read_text(encoding="utf-8"))
        handler = type("Handler", (_FixtureHandler,), {"root": self.root, "index": index})
        self._server = ThreadingHTTPServer(("127.0.0.1", port), handler)
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
