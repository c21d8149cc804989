import pathlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from webqa import net
from webqa.cache import RequestCache
from webqa.lmbackend import CachedBackend

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def cached_backend(inner, workdir, offline: bool = False) -> CachedBackend:
    """``inner`` behind a request cache at ``<workdir>/cache``, keyed as
    ``webqa run --backend mock`` keys it; a pipeline over it uses that cache."""
    return CachedBackend(inner, RequestCache(pathlib.Path(workdir) / "cache", offline=offline))


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return GOLDEN


@pytest.fixture(scope="session")
def qa_dataset_path() -> pathlib.Path:
    return FIXTURES / "fixtureqa.jsonl"


@pytest.fixture(scope="session")
def cls_dataset_path() -> pathlib.Path:
    return FIXTURES / "fixturecls.jsonl"


@pytest.fixture(scope="session")
def banks_dir() -> pathlib.Path:
    return FIXTURES / "banks"


@pytest.fixture(scope="session")
def web_root() -> pathlib.Path:
    return FIXTURES / "web"


class _LocalHandler(BaseHTTPRequestHandler):
    respond = None  # set per server: respond(handler) answers one request

    def do_GET(self):
        self.respond(self)

    do_POST = do_GET

    def log_message(self, format, *args):
        pass

    def reply(self, status: int, body: bytes = b"", content_type: str = "text/plain",
              length: int | None = None, headers: dict | None = None) -> None:
        """Send ``body`` after ``headers``; a ``length`` above ``len(body)`` makes a truncated response."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body) if length is None else length))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def serve():
    """``serve(respond)`` starts a loopback server that answers each request
    with ``respond(handler)`` and returns its base URL; ``protocol="HTTP/1.1"``
    keeps each connection open for the client's next request."""
    servers = []

    def start(respond, protocol: str = "HTTP/1.0") -> str:
        handler = type("Handler", (_LocalHandler,), {"respond": staticmethod(respond),
                                                     "protocol_version": protocol})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry without sleeping between attempts."""
    monkeypatch.setattr(net, "BACKOFF_SECONDS", 0.0)
