"""Standard-library HTTP for searches, page fetches and the LM client.

One policy for every call: connection errors, broken responses (a truncated
body, a bad status line) and 5xx statuses are retried with backoff; other
statuses go back to the caller.  The last failure raises :class:`NetError`.

Importing this module loads only its light parts: the errors, :func:`quote_url`
and the retry policy.  The HTTP stack (``urllib.request``, ``http.client`` and
through them ``socket``, ``ssl`` and ``email``) is imported by
:func:`import_http_stack`, which a client that can go online calls when it is
built, so the import falls in a run's setup; :func:`request` imports it too,
on the first request of a client that did not.  An offline run builds no such
client and sends no request, so it never loads the stack.
"""
from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING
from urllib.parse import quote, urlsplit

if TYPE_CHECKING:
    from http.client import HTTPMessage

ATTEMPTS = 3
BACKOFF_SECONDS = 0.5  # first sleep between attempts; doubles after each retry
WEB_TIMEOUT_SECONDS = 20.0
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"  # left as is in a path or query, as requests does


class NetError(OSError):
    """A request failed on every attempt, its URL is not http(s), or a JSON call got an error status."""


class HTTPStatusError(NetError):
    """A JSON call got a status other than 200."""

    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} from {url}")
        self.status = status


def quote_url(url: str) -> str:
    """Percent-encode spaces and non-ASCII in the path and query as UTF-8; escapes and host stay."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):  # urllib would also open file: and ftp: URLs
        raise NetError(f"not an http(s) URL: {url!r}")
    return parts._replace(path=quote(parts.path, _URL_SAFE), query=quote(parts.query, _URL_SAFE)).geturl()


def import_http_stack() -> None:
    """Import the modules :func:`request` sends with, if not yet loaded."""
    import http.client  # noqa: F401
    import urllib.error  # noqa: F401
    import urllib.request  # noqa: F401


def request(url: str, payload=None, timeout: float = WEB_TIMEOUT_SECONDS) -> tuple[int, HTTPMessage, bytes]:
    """GET ``url``, or POST ``payload`` as JSON; returns (status, headers, body)."""
    import urllib.error
    import urllib.request
    from http.client import HTTPException

    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(quote_url(url), data, {"Content-Type": "application/json"} if data else {})
    error = None
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
        try:
            try:
                resp = urllib.request.urlopen(req, timeout=timeout)
            except urllib.error.HTTPError as exc:  # any status but 2xx, after redirects
                resp = exc
            with resp:
                status, headers, body = resp.status, resp.headers, resp.read()
        except (OSError, HTTPException) as exc:
            error = exc
            continue
        if status < 500:
            return status, headers, body
        error = f"HTTP {status}"
    raise NetError(f"{req.get_method()} {url} failed after {ATTEMPTS} attempts: {error}")


def request_json(url: str, payload=None, timeout: float = WEB_TIMEOUT_SECONDS):
    """Like :func:`request`, but returns the parsed body of a 200 response."""
    status, _, body = request(url, payload, timeout)
    if status != 200:
        raise HTTPStatusError(status, url)
    return json.loads(body)
