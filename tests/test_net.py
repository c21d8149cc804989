import json

import pytest

from webqa import net


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
    lambda h: h.reply(200, b"cut short", length=100),
], ids=["503", "truncated-body"])
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


def test_persistent_failure_raises_an_oserror(serve, no_backoff):
    count = []

    def respond(handler):
        count.append(handler.path)
        handler.reply(500, b"down")

    with pytest.raises(net.NetError, match="failed after 3 attempts: HTTP 500") as info:
        net.request(f"{serve(respond)}/x")
    assert isinstance(info.value, OSError)
    assert len(count) == net.ATTEMPTS


def test_connection_refused_raises_net_error(no_backoff):
    with pytest.raises(net.NetError):
        net.request("http://127.0.0.1:1/x")


def test_request_json_posts_and_parses(serve):
    def respond(handler):
        payload = json.loads(handler.rfile.read(int(handler.headers["Content-Length"])))
        if handler.path == "/echo":
            handler.reply(200, json.dumps({"got": payload}).encode(), "application/json")
        else:
            handler.reply(400, b"bad request")

    base = serve(respond)
    assert net.request_json(f"{base}/echo", {"text": "ü"}) == {"got": {"text": "ü"}}
    with pytest.raises(net.NetError, match="HTTP 400"):
        net.request_json(f"{base}/other", {})
