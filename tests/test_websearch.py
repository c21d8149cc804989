import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, urlsplit

import pytest

from webqa import net, websearch
from webqa.cache import OfflineCacheMiss, RequestCache
from webqa.fixtures import FixtureServer
from webqa.net import NetError
from webqa.websearch import (
    FixtureSearchClient,
    GoogleCustomSearchClient,
    SearchError,
    cached_fetch,
    cached_search,
    extract_text,
    fetch_page,
    retrieve_documents,
)


class TestExtractText:
    def test_drops_scripts_styles_and_chrome(self):
        html = """
        <html><head><title>t</title><style>p {color: red}</style></head>
        <body>
          <nav>Home | About</nav>
          <script>var x = "not text";</script>
          <p>Kept paragraph one.</p>
          <footer>copyright notice</footer>
          <p>Kept paragraph two.</p>
        </body></html>
        """
        text = extract_text(html)
        assert "Kept paragraph one." in text
        assert "Kept paragraph two." in text
        assert "not text" not in text
        assert "color" not in text
        assert "Home" not in text
        assert "copyright" not in text

    def test_block_tags_become_newlines(self):
        text = extract_text("<div>alpha</div><div>beta</div>")
        assert text == "alpha\nbeta"

    def test_inline_markup_flows_into_one_line(self):
        text = extract_text("<p>one <b>two</b> three</p>")
        assert text == "one two three"

    def test_whitespace_collapsed_per_line(self):
        # newlines in the source stay line boundaries; spaces collapse
        text = extract_text("<p>a\n   b\t\tc</p>")
        assert text == "a\nb c"

    def test_entities_decoded(self):
        assert extract_text("<p>Tom &amp; Jerry</p>") == "Tom & Jerry"

    def test_nested_skip_tags(self):
        html = "<nav><div><p>menu stuff</p></div></nav><p>real</p>"
        assert extract_text(html) == "real"


@pytest.fixture(scope="module")
def server(web_root_module):
    with FixtureServer(web_root_module) as srv:
        yield srv


@pytest.fixture(scope="module")
def web_root_module():
    import pathlib
    return pathlib.Path(__file__).resolve().parent / "fixtures" / "web"


class TestFixtureServer:
    def test_stop_returns_promptly(self, web_root_module):
        server = FixtureServer(web_root_module).start()
        try:
            assert fetch_page(f"{server.base_url}/search.json")["status"] == 200
        finally:
            started = time.monotonic()
            server.stop()
        assert time.monotonic() - started < 0.25

    def test_many_concurrent_requests_finish_promptly(self, server):
        """32 requests at once all finish within 0.5 s: none waits about a
        second for a connection retry behind a full listen backlog."""
        url = f"{server.base_url}/search.json"
        barrier = threading.Barrier(32)

        def get(_):
            barrier.wait()
            return net.request(url)[0]

        for _ in range(3):
            started = time.monotonic()
            with ThreadPoolExecutor(max_workers=32) as pool:
                statuses = list(pool.map(get, range(32)))
            assert time.monotonic() - started < 0.5
            assert statuses == [200] * 32

    def test_search_returns_indexed_urls(self, server):
        client = FixtureSearchClient(server.base_url)
        results = client.search("what is the tallest waterfall in meridia", 10)
        assert len(results) == 3
        assert [r.rank for r in results] == [1, 2, 3]
        assert all(r.url.startswith("http://127.0.0.1:") for r in results)

    def test_unknown_query_is_empty(self, server):
        client = FixtureSearchClient(server.base_url)
        assert client.search("no such question", 10) == []

    def test_num_caps_results(self, server):
        client = FixtureSearchClient(server.base_url)
        results = client.search("what is the tallest waterfall in meridia", 2)
        assert len(results) == 2

    def test_fetch_page_returns_raw_body(self, server):
        client = FixtureSearchClient(server.base_url)
        url = client.search("what is the tallest waterfall in meridia", 1)[0].url
        doc = fetch_page(url)
        assert doc["status"] == 200
        assert "Aurora Falls" in doc["body"]
        # extraction strips the chrome the fixture pages carry
        clean = extract_text(doc["body"])
        assert "Aurora Falls" in clean
        assert "Site header" not in clean
        assert "Copyright" not in clean

    def test_missing_page_is_404(self, server):
        doc = fetch_page(f"{server.base_url}/pages/nope.html")
        assert doc["status"] == 404

    def test_non_html_content_yields_empty_body(self, server, web_root_module):
        doc = fetch_page(f"{server.base_url}/search.json")
        assert doc["status"] == 200
        assert doc["body"] == ""


class TestFetchPageDecoding:
    """Charset from Content-Type, else ISO-8859-1 for text/* and UTF-8
    otherwise; unknown labels fall back to UTF-8; bad bytes are replaced."""

    @pytest.mark.parametrize("content_type,body,text", [
        ("text/html; charset=utf-8", "Müller".encode("utf-8"), "Müller"),
        ('text/html; charset="windows-1252"', b"\x93hi\x94", "\u201chi\u201d"),
        ("text/html", "Müller".encode("utf-8"), "MÃ¼ller"),
        ("application/xhtml+xml", "Müller".encode("utf-8"), "Müller"),
        ("text/html; charset=no-such-charset", "Müller".encode("utf-8"), "Müller"),
        ("text/html; charset=utf-8", b"a\xffb", "a\ufffdb"),
    ], ids=["declared", "declared-quoted", "text-default", "non-text-default",
            "unknown-label", "invalid-bytes"])
    def test_decoding(self, serve, content_type, body, text):
        base = serve(lambda handler: handler.reply(200, body, content_type))
        page = fetch_page(f"{base}/p")
        assert page == {"status": 200, "content_type": content_type, "body": text}


class TestGoogleCustomSearchClient:
    @staticmethod
    def _client(serve, monkeypatch, pages):
        """Serve ``pages(start, num)`` as the search response; returns the
        client and the list of (start, num) requests made."""
        seen = []

        def respond(handler):
            query = parse_qs(urlsplit(handler.path).query)
            assert (query["key"], query["cx"], query["q"]) == (["k"], ["cx"], ["a query"])
            start, num = int(query["start"][0]), int(query["num"][0])
            seen.append((start, num))
            status, obj = pages(start, num)
            handler.reply(status, json.dumps(obj).encode(), "application/json")

        monkeypatch.setattr(websearch, "GOOGLE_CSE_ENDPOINT", serve(respond) + "/customsearch/v1")
        return GoogleCustomSearchClient("k", "cx"), seen

    @staticmethod
    def _items(start, num):
        return [{"link": f"http://e/{i}", "title": f"t{i}"} for i in range(start, start + num)]

    def test_pages_ten_at_a_time(self, serve, monkeypatch):
        client, seen = self._client(serve, monkeypatch,
                                    lambda start, num: (200, {"items": self._items(start, num)}))
        results = client.search("a query", 15)
        assert seen == [(1, 10), (11, 5)]
        assert [r.url for r in results] == [f"http://e/{i}" for i in range(1, 16)]
        assert [r.rank for r in results] == list(range(1, 16))
        assert results[0].title == "t1"

    def test_empty_items_stop_paging(self, serve, monkeypatch):
        client, seen = self._client(
            serve, monkeypatch,
            lambda start, num: (200, {"items": self._items(start, num)} if start == 1 else {}))
        assert len(client.search("a query", 25)) == 10
        assert seen == [(1, 10), (11, 10)]

    def test_error_status_raises_search_error(self, serve, monkeypatch):
        client, seen = self._client(serve, monkeypatch,
                                    lambda start, num: (403, {"error": "forbidden"}))
        with pytest.raises(SearchError, match="HTTP 403"):
            client.search("a query", 5)
        assert seen == [(1, 5)]


class TestCachedAccess:
    QUERY = "what is the tallest waterfall in meridia"

    def test_search_cached(self, server, tmp_path):
        cache = RequestCache(tmp_path)
        client = FixtureSearchClient(server.base_url)
        first = cached_search(cache, client, self.QUERY, 3)
        second = cached_search(cache, client, self.QUERY, 3)
        assert first == second
        assert len(first) == 3

    def test_search_offline_miss(self, tmp_path):
        cache = RequestCache(tmp_path, offline=True)
        client = FixtureSearchClient("http://127.0.0.1:1")  # nothing listens
        with pytest.raises(OfflineCacheMiss):
            cached_search(cache, client, "q", 3)

    def test_fetch_cached_and_offline(self, server, tmp_path):
        cache = RequestCache(tmp_path)
        url = f"{server.base_url}/pages/q01a.html"
        warm = cached_fetch(cache, url)
        offline = RequestCache(tmp_path, offline=True)
        again = cached_fetch(offline, url)
        assert warm == again
        with pytest.raises(OfflineCacheMiss):
            cached_fetch(offline, f"{server.base_url}/pages/q01b.html")

    def test_network_errors_not_cached(self, tmp_path, no_backoff):
        cache = RequestCache(tmp_path)
        url = "http://127.0.0.1:1/page.html"
        with pytest.raises(NetError):
            cached_fetch(cache, url)
        # nothing poisoned: the fetch namespace stays empty
        assert not list((tmp_path / "fetch").glob("*"))


class TestRetrieveDocuments:
    QUERY = "what is the tallest waterfall in meridia"

    def test_returns_ranked_documents(self, server, tmp_path):
        cache = RequestCache(tmp_path)
        client = FixtureSearchClient(server.base_url)
        docs = retrieve_documents(self.QUERY, client, cache, num_urls=3)
        assert [d.rank for d in docs] == [1, 2, 3]
        assert any("Aurora Falls" in d.clean_text for d in docs)

    def test_unfetchable_url_becomes_empty_document(self, server, tmp_path):
        """One dead URL must not sink the question."""
        cache = RequestCache(tmp_path)

        class OneBadUrl:
            def search(self, query, num):
                client = FixtureSearchClient(server.base_url)
                results = client.search(query, 2)
                from webqa.websearch import SearchResult
                return [results[0],
                        SearchResult(url="http://127.0.0.1:1/x", rank=2)]

        docs = retrieve_documents(self.QUERY, OneBadUrl(), cache, num_urls=2)
        assert len(docs) == 2
        assert docs[0].clean_text
        assert docs[1].clean_text == ""

    def test_no_results_is_empty(self, server, tmp_path):
        cache = RequestCache(tmp_path)
        client = FixtureSearchClient(server.base_url)
        assert retrieve_documents("unknown q", client, cache, num_urls=5) == []

    def test_offline_round(self, server, tmp_path):
        cache = RequestCache(tmp_path)
        client = FixtureSearchClient(server.base_url)
        warm = retrieve_documents(self.QUERY, client, cache, num_urls=3)
        cold = retrieve_documents(self.QUERY, None, RequestCache(tmp_path, offline=True),
                                  num_urls=3)
        assert warm == cold


def test_search_index_covers_every_qa_fixture_question(web_root_module,
                                                        qa_dataset_path):
    # the classification fixtures run in gold-evidence mode and need no index
    from webqa.corpus import load_dataset
    index = json.loads((web_root_module / "search.json").read_text())
    for record in load_dataset(qa_dataset_path):
        assert record.question in index, record.id
        assert len(index[record.question]) >= 1
