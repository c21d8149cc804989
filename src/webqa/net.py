"""Standard-library HTTP for searches, page fetches and the LM client.

One policy for every call: connection errors, broken responses (a truncated
body, a bad status line), 5xx statuses and the transient 408 and 429 are
retried with backoff, or after the wait a ``Retry-After`` header asks for, up
to :data:`RETRY_AFTER_CAP_SECONDS`; other statuses go back to the caller.  The
last failure raises :class:`NetError`.  Redirects are followed as urllib
follows them: 301, 302, 303, 307 and 308 for a GET, 301, 302 and 303 turning
a POST into a GET, to http(s) URLs only, and at most :data:`MAX_REDIRECTS`
hops, past which the request is a :class:`NetError`.  Requests carry urllib's
``User-Agent`` and ``Accept-Encoding: identity``, and go through the proxy
that the environment (``http_proxy``, ``https_proxy``, ``no_proxy``) names.

Every request runs in a :func:`session`, in which a thread keeps one
``http.client`` connection per (scheme, host, port) open and sends each of
its requests to that host over it, until the block exits.  A request made
inside a caller's session, such as a question's pass, shares that session's
connections; one made outside any is a session of its own, which its
redirects share and which closes when it returns.  A response that asks to
close its connection, or an HTTP/1.0 one, drops it.  A kept connection that
the server closed while it sat idle is reopened once, at once: that is not
an attempt and sleeps no backoff.

Importing this module loads only its light parts: the errors, :func:`quote_url`,
the retry policy and :func:`session`, which imports and opens nothing until
a request is sent.  The HTTP stack (``http.client``, ``urllib.request`` for
the proxy settings, and through them ``socket``, ``ssl`` and ``email``) is
imported by :func:`import_http_stack`, which a client that can go online
calls when it is built, so the import falls in a run's setup; :func:`request`
imports it too, on the first request of a client that did not.  An offline
run builds no such client and sends no request, so it never loads the stack.
"""
from __future__ import annotations

import base64
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING
from urllib.parse import quote, unquote, urljoin, urlsplit

if TYPE_CHECKING:
    from http.client import HTTPMessage

ATTEMPTS = 3
BACKOFF_SECONDS = 0.5  # first sleep between attempts; doubles after each retry
RETRY_AFTER_CAP_SECONDS = 10.0  # the longest sleep a Retry-After header gets
WEB_TIMEOUT_SECONDS = 20.0
MAX_REDIRECTS = 10  # urllib's limit
_TRANSIENT = (408, 429)  # retried like a 5xx
_REDIRECTS = (301, 302, 303, 307, 308)
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]  # the one urllib sends
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"  # left as is in a path or query, as requests does

_local = threading.local()  # .pool: this thread's session, {(scheme, host, port): _Connection}


class NetError(OSError):
    """A request failed on every attempt, was redirected too often, its URL is
    not http(s), or an LM server answered with an error status."""


def quote_url(url: str) -> str:
    """Percent-encode spaces and non-ASCII in the path and query as UTF-8; escapes and host stay.
    A URL that is not http(s), or names no host or a bad port, is a :class:`NetError`."""
    parts = urlsplit(url)
    try:
        host, _ = parts.hostname, parts.port
    except ValueError:  # a port that is not a number from 0 to 65535
        host = None
    if parts.scheme not in ("http", "https") or not host:  # urllib would also open file: and ftp: URLs
        raise NetError(f"not an http(s) URL: {url!r}")
    return parts._replace(path=quote(parts.path, _URL_SAFE), query=quote(parts.query, _URL_SAFE)).geturl()


def import_http_stack() -> None:
    """Import the modules :func:`request` sends with, if not yet loaded."""
    import http.client  # noqa: F401
    import urllib.request  # noqa: F401


@contextmanager
def session():
    """Keep one connection per (scheme, host, port) open on this thread for the
    requests the block sends, and close them all when it exits.  A block
    nested in another shares the outer one's connections."""
    if getattr(_local, "pool", None) is not None:
        yield
        return
    pool = _local.pool = {}
    try:
        yield
    finally:
        _local.pool = None
        for conn in pool.values():
            conn.http.close()


class _Connection:
    """An ``http.client`` connection, and how a request through it is sent:
    with the whole URL as its target (to an http proxy) and which extra headers."""

    def __init__(self, scheme: str, host: str, port: int | None, timeout: float):
        import http.client
        import urllib.request

        netloc = host if port is None else f"{host}:{port}"
        proxy = None if urllib.request.proxy_bypass(netloc) else urllib.request.getproxies().get(scheme)
        https = scheme == "https"
        http_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self.absolute = False
        self.headers = {}
        if proxy is None:
            self.http = http_class(host, port, timeout=timeout)
            return
        where = urlsplit(proxy if "://" in proxy else f"//{proxy}")
        auth = {}
        if where.username and where.password:
            user_pass = f"{unquote(where.username)}:{unquote(where.password)}".encode()
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass).decode("ascii")
        if https:  # a CONNECT tunnel through the proxy, then TLS with the host
            self.http = http_class(where.hostname, where.port, timeout=timeout)
            self.http.set_tunnel(host, port, auth)
        else:
            self.http = http.client.HTTPConnection(where.hostname, where.port, timeout=timeout)
            self.absolute, self.headers = True, auth

    def exchange(self, method: str, url: str, body: bytes | None, timeout: float):
        """Send one request and read its whole response; returns (status,
        headers, body, whether the connection stays usable).  Any error closes it."""
        parts = urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if self.absolute:
            target = f"{parts.scheme}://{parts.netloc}{target}"
        headers = {"User-Agent": _USER_AGENT, **self.headers}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.http.timeout = timeout
        if self.http.sock is not None:
            self.http.sock.settimeout(timeout)
        try:
            self.http.request(method, target, body, headers)
            resp = self.http.getresponse()
            data = resp.read()
        except BaseException:
            self.http.close()
            raise
        return resp.status, resp.headers, data, not resp.will_close


def _exchange(method: str, url: str, body: bytes | None, timeout: float):
    """One request and response over the session's kept connection to the
    host, else a new one; returns (status, headers, body)."""
    parts = urlsplit(url)
    key = (parts.scheme, parts.hostname, parts.port)
    conn = _local.pool.pop(key, None)
    if conn is not None:
        try:
            status, headers, data, kept = conn.exchange(method, url, body, timeout)
        except ConnectionError:  # closed by the server while idle: reopen once, at once
            conn = None
    if conn is None:
        conn = _Connection(parts.scheme, parts.hostname, parts.port, timeout)
        status, headers, data, kept = conn.exchange(method, url, body, timeout)
    if kept:
        _local.pool[key] = conn
    else:
        conn.http.close()
    return status, headers, data


def _retry_after(headers: HTTPMessage, backoff: float) -> float:
    """The wait ``Retry-After`` asks for (seconds or an HTTP-date), at most
    :data:`RETRY_AFTER_CAP_SECONDS`; ``backoff`` without a readable one."""
    value = headers.get("Retry-After")
    if value is None:
        return backoff
    if value.strip().isdigit():
        seconds = float(value)
    else:
        from email.utils import parsedate_to_datetime

        try:
            seconds = parsedate_to_datetime(value).timestamp() - time.time()
        except (TypeError, ValueError):
            return backoff
    return min(max(seconds, 0.0), RETRY_AFTER_CAP_SECONDS)


def _with_retries(method: str, url: str, body: bytes | None, timeout: float, shown: str):
    """(status, headers, body) of the first attempt that got neither an error
    nor a retried status; :class:`NetError` after :data:`ATTEMPTS` of them."""
    from http.client import HTTPException

    error, wait = None, BACKOFF_SECONDS
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(wait)
            wait = BACKOFF_SECONDS * 2 ** attempt
        try:
            status, headers, data = _exchange(method, url, body, timeout)
        except (OSError, HTTPException) as exc:
            error = exc
            continue
        if status < 500 and status not in _TRANSIENT:
            return status, headers, data
        error = f"HTTP {status}"
        wait = _retry_after(headers, wait)
    raise NetError(f"{method} {shown} failed after {ATTEMPTS} attempts: {error}")


def request(url: str, payload=None, timeout: float = WEB_TIMEOUT_SECONDS) -> tuple[int, HTTPMessage, bytes]:
    """GET ``url``, or POST ``payload`` as JSON, in this thread's session or
    one of its own; returns (status, headers, body) of the response that ends
    its redirects."""
    method = "GET" if payload is None else "POST"
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    target = quote_url(url)
    with session():
        for _ in range(MAX_REDIRECTS + 1):
            status, headers, data = _with_retries(method, target, body, timeout, url)
            location = headers.get("Location") if status in _REDIRECTS else None
            if location is None or (method == "POST" and status > 303):
                return status, headers, data
            following = urljoin(target, location)
            if urlsplit(following).scheme not in ("http", "https"):
                return status, headers, data  # urllib does not follow it either
            target = quote_url(following)
            method, body = "GET", None  # a GET stays one; a 301, 302 or 303 turns a POST into one
    raise NetError(f"{url} redirected more than {MAX_REDIRECTS} times")
