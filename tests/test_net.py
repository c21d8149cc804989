import email.utils
import sys

import pytest

from webqa import net, websearch
from webqa.cache import RequestCache
from webqa.fixtures import FixtureServer


@pytest.mark.parametrize("url,quoted", [
    ("http://h/Müller page.html?q=a b", "http://h/M%C3%BCller%20page.html?q=a%20b"),
    ("http://h/a%20b/c?x=1&y=%C3%BC", "http://h/a%20b/c?x=1&y=%C3%BC"),
    ("http://h:8080/plain/path?k=v", "http://h:8080/plain/path?k=v"),
])
def test_quote_url_encodes_path_and_query(url, quoted):
    assert net.quote_url(url) == quoted


@pytest.mark.parametrize("url", ["file:///etc/hostname", "ftp://h/x", "pages/relative.html"])
def test_only_http_urls_are_opened(url):
    with pytest.raises(net.NetError, match="not an http"):
        net.request(url)


def test_non_ascii_and_space_arrive_percent_encoded(serve):
    paths = []

    def respond(handler):
        paths.append(handler.path)
        handler.reply(200, b"ok")

    base = serve(respond)
    status, _, body = net.request(f"{base}/pages/Müller page.html")
    assert (status, body) == (200, b"ok")
    assert paths == ["/pages/M%C3%BCller%20page.html"]


def _flaky(first_reply, count):
    """Answer the first request with ``first_reply(handler)``, later ones with 200 "ok"."""
    def respond(handler):
        count.append(handler.path)
        if len(count) == 1:
            first_reply(handler)
        else:
            handler.reply(200, b"ok")
    return respond


@pytest.mark.parametrize("first_reply", [
    lambda h: h.reply(503, b"busy"),
    lambda h: h.reply(408, b"request timeout"),
    lambda h: h.reply(429, b"slow down"),
    lambda h: h.reply(200, b"cut short", length=100),
], ids=["503", "408", "429", "truncated-body"])
def test_one_transient_failure_is_retried(serve, no_backoff, first_reply):
    count = []
    base = serve(_flaky(first_reply, count))
    status, _, body = net.request(f"{base}/x")
    assert (status, body) == (200, b"ok")
    assert len(count) == 2


def test_client_errors_are_returned_without_retry(serve, no_backoff):
    count = []

    def respond(handler):
        count.append(handler.path)
        handler.reply(404, b"not found")

    status, _, body = net.request(f"{serve(respond)}/missing")
    assert (status, body) == (404, b"not found")
    assert len(count) == 1


@pytest.mark.parametrize("status", [500, 429])
def test_persistent_failure_raises_an_oserror(serve, no_backoff, status):
    count = []

    def respond(handler):
        count.append(handler.path)
        handler.reply(status, b"down")

    with pytest.raises(net.NetError, match=f"failed after 3 attempts: HTTP {status}") as info:
        net.request(f"{serve(respond)}/x")
    assert isinstance(info.value, OSError)
    assert len(count) == net.ATTEMPTS


def test_connection_refused_raises_net_error(no_backoff):
    with pytest.raises(net.NetError):
        net.request("http://127.0.0.1:1/x")


def test_requests_carry_the_headers_urllib_sent(serve):
    seen = []

    def respond(handler):
        seen.append(handler.headers)
        handler.reply(200, b"ok")

    base = serve(respond)
    net.request(f"{base}/x")
    net.request(f"{base}/y", {"a": 1})
    for headers in seen:
        assert headers["User-Agent"] == "Python-urllib/%d.%d" % sys.version_info[:2]
        assert headers["Accept-Encoding"] == "identity"
        assert "Connection" not in headers  # a connection stays open until its session ends
    assert seen[1]["Content-Type"] == "application/json"


def _counting_peers(peers, close_after_reply=False):
    """Reply 200 "ok", noting each request's client address (one per connection)."""
    def respond(handler):
        peers.append(handler.client_address)
        handler.rfile.read(int(handler.headers.get("Content-Length", 0)))
        handler.reply(200, b"ok")
        if close_after_reply:  # closed without saying so, as an idle timeout closes it
            handler.close_connection = True
    return respond


def test_a_session_keeps_one_connection_per_host(serve):
    """Inside a session the requests to one host share a connection; outside
    one, each request opens its own."""
    peers = []
    base = serve(_counting_peers(peers), protocol="HTTP/1.1")
    with net.session():
        for path in ("/a", "/b", "/c"):
            assert net.request(f"{base}{path}")[2] == b"ok"
        assert net.request(f"{base}/d", {"x": 1})[2] == b"ok"
    assert len(set(peers)) == 1
    net.request(f"{base}/e")
    net.request(f"{base}/f")
    assert len(set(peers)) == 3


@pytest.mark.parametrize("protocol, headers", [
    ("HTTP/1.0", None), ("HTTP/1.1", {"Connection": "close"}),
], ids=["http-1.0", "connection-close"])
def test_a_response_that_closes_drops_the_connection(serve, protocol, headers):
    peers = []

    def respond(handler):
        peers.append(handler.client_address)
        handler.reply(200, b"ok", headers=headers)

    base = serve(respond, protocol=protocol)
    with net.session():
        net.request(f"{base}/a")
        net.request(f"{base}/b")
    assert len(set(peers)) == 2


def test_a_connection_the_server_closed_while_idle_is_reopened_at_once(serve, monkeypatch):
    """The reopen is not an attempt: it sleeps no backoff and the request succeeds."""
    peers, sleeps = [], []
    monkeypatch.setattr(net.time, "sleep", sleeps.append)
    base = serve(_counting_peers(peers, close_after_reply=True), protocol="HTTP/1.1")
    with net.session():
        assert net.request(f"{base}/a")[2] == b"ok"
        assert net.request(f"{base}/b")[2] == b"ok"
    assert len(set(peers)) == 2
    assert sleeps == []


def _redirecting(seen):
    def respond(handler):
        body = handler.rfile.read(int(handler.headers.get("Content-Length", 0)))
        seen.append((handler.command, handler.path, body))
        targets = {"/pages/old": (301, "new?x=1"), "/submit": (303, "/result"),
                   "/keep": (307, "/result"), "/loop": (302, "/loop"), "/ftp": (302, "ftp://h/x")}
        if handler.path in targets:
            status, location = targets[handler.path]
            handler.reply(status, headers={"Location": location})
        else:
            handler.reply(200, b"landed")
    return respond


@pytest.mark.parametrize("path, payload, status, followed", [
    ("/pages/old", None, 200, [("GET", "/pages/new?x=1", b"")]),  # a relative Location
    ("/submit", {"a": 1}, 200, [("GET", "/result", b"")]),  # a 303 turns a POST into a GET
    ("/keep", {"a": 1}, 307, []),  # a 307 keeps the method, which urllib does not redirect for a POST
    ("/ftp", None, 302, []),  # only to http(s)
], ids=["relative-301", "303-post-to-get", "307-post-returned", "ftp-returned"])
def test_redirects_are_followed_as_urllib_follows_them(serve, path, payload, status, followed):
    seen = []
    got, _, _ = net.request(f"{serve(_redirecting(seen))}{path}", payload)
    assert got == status
    assert seen[1:] == followed


def test_a_same_host_redirect_outside_a_session_shares_one_connection(serve):
    """A request outside any session is a session of its own: its redirect
    to the same host goes over the connection it opened, which it closes."""
    seen, peers = [], []
    redirecting = _redirecting(seen)

    def respond(handler):
        peers.append(handler.client_address)
        redirecting(handler)

    assert net.request(f"{serve(respond, protocol='HTTP/1.1')}/pages/old")[2] == b"landed"
    assert [path for _, path, _ in seen] == ["/pages/old", "/pages/new?x=1"]
    assert len(set(peers)) == 1
    assert net._local.pool is None


def test_a_redirect_loop_raises_net_error(serve):
    seen = []
    with pytest.raises(net.NetError, match="redirected more than 10 times"):
        net.request(f"{serve(_redirecting(seen))}/loop")
    assert len(seen) == net.MAX_REDIRECTS + 1


def test_an_http_proxy_from_the_environment_carries_requests(web_root, monkeypatch, no_backoff):
    """With ``http_proxy`` pointed at a fixture server, a search and a page
    fetch for an address where nothing listens are answered by the proxy,
    which sees the address as the request's host."""
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with FixtureServer(web_root) as proxy:
        monkeypatch.setenv("http_proxy", proxy.base_url)
        client = websearch.FixtureSearchClient("http://127.0.0.2:9")
        with net.session():
            [first, *_] = client.search("aurora falls is the shortest waterfall in meridia", 3)
            assert first.url == "http://127.0.0.2:9/pages/q01a.html"
            page = websearch.fetch_page(first.url)
    assert page["status"] == 200 and "Aurora" in page["body"]


@pytest.mark.parametrize("retry_after, sleep", [
    (None, 0.5),
    ("2", 2.0),
    ("3600", net.RETRY_AFTER_CAP_SECONDS),
    (email.utils.formatdate(0, usegmt=True), 0.0),  # an HTTP-date long past
    ("soon", 0.5),  # unreadable: the backoff
])
def test_429_then_200_is_fetched_on_the_first_run(serve, tmp_path, monkeypatch, retry_after, sleep):
    """A 429 is retried after the wait its ``Retry-After`` asks for, capped,
    so the page comes back and is cached as a 200."""
    sleeps, count = [], []
    monkeypatch.setattr(net.time, "sleep", sleeps.append)

    def respond(handler):
        count.append(handler.path)
        if len(count) == 1:
            handler.reply(429, b"slow down", headers=retry_after and {"Retry-After": retry_after})
        else:
            handler.reply(200, b"<p>the page</p>", "text/html")

    cache = RequestCache(tmp_path)
    url = f"{serve(respond)}/page.html"
    page = websearch.cached_fetch(cache, url)
    assert (page["status"], page["body"]) == (200, "<p>the page</p>")
    assert sleeps == [sleep]
    assert websearch.cached_fetch(cache, url) == page and len(count) == 2


def test_a_429_that_outlasts_every_attempt_is_never_cached(serve, tmp_path, no_backoff):
    count = []

    def respond(handler):
        count.append(handler.path)
        handler.reply(429 if len(count) <= net.ATTEMPTS else 200, b"<p>the page</p>", "text/html")

    cache = RequestCache(tmp_path)
    url = f"{serve(respond)}/page.html"
    with pytest.raises(net.NetError, match="HTTP 429"):
        websearch.cached_fetch(cache, url)
    assert websearch.cached_fetch(cache, url)["status"] == 200  # asked again, not read back
