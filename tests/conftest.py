import pathlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from webqa import net

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
              length: int | None = None) -> None:
        """Send ``body``; a ``length`` above ``len(body)`` makes a truncated response."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def serve():
    """``serve(respond)`` starts a loopback server that answers each request
    with ``respond(handler)`` and returns its base URL."""
    servers = []

    def start(respond) -> str:
        handler = type("Handler", (_LocalHandler,), {"respond": staticmethod(respond)})
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
