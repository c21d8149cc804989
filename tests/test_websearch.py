import hashlib
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


# (name, html, text): each text was recorded from the html.parser-based
# extractor this scanner replaced, and CPython 3.10.13, 3.11.7, 3.12.1 and
# 3.13.0 all give it.  Later patch releases changed html.parser's comment and
# raw-text rules, so these are literals, not a comparison with the stdlib.
EXTRACT_CASES = [
    ("charrefs-per-run", "a&amp<b>x</b>lt;c", "a&xlt;c"),
    ("block-inside-skip", "<p>a<nav><li>x</li></nav>b</p>", "a\nb"),
    ("stray-skip-end", "<nav>a</nav></nav>b<nav>c", "b"),
    ("br-forms", "x<br/>y<BR>z<br />w<br/ >v", "x\ny\nz\nw\nv"),
    ("uppercase-tags", "<P CLASS=a>one</P><DIV>two</DIV>", "one\ntwo"),
    ("quoted-gt-double", '<a title="1 > 0">t</a>x', "tx"),
    ("quoted-gt-single", "<a title='a>b' href=x>t</a>", "t"),
    ("attribute-forms", """<a b='x' c="y" d=z>t</a>""", "t"),
    ("comment", "a<!-- hidden <p> -->b", "ab"),
    ("comment-spaced-close", "a<!-- x -- >b", "ab"),
    ("doctype", "<!DOCTYPE html>a", "a"),
    ("processing-instruction", '<?xml version="1.0"?>a', "a"),
    ("declaration", "<!weird decl>a", "a"),
    ("cdata", "a<![CDATA[hidden]]>b", "ab"),
    ("conditional-comment", "a<![if !IE]>b<![endif]>c", "abc"),
    ("script-holds-end-tag", "<script>if (a</div>b) {}</script>c", "c"),
    ("script-end-newline", "<script>x</script\n>y", "y"),
    ("script-end-spaced", "<script>a</ script >b", "b"),
    ("script-uppercase", "<SCRIPT>a</Script>b", "b"),
    ("script-end-lookalike", "<script>a</\u017fcript>b</script>c", "c"),
    ("style", "<style>p { color: red }</style>x", "x"),
    ("unclosed-script", "a<script>b<p>c", "a"),
    ("unclosed-comment", "a<!-- b <p> c", "a<!-- b <p> c"),
    ("bare-lt", "a < b", "a < b"),
    ("bare-lt-at-end", "a<", "a<"),
    ("lt-digit", "a<1>b", "a<1>b"),
    ("charrefs", "Tom &amp; Jerry &lt;3 &#x41;&#66;", "Tom & Jerry <3 AB"),
    ("nbsp-collapses", "a&nbsp;b&#160;c", "a b c"),
    ("charref-at-end", "x &#65", "x A"),
    ("whitespace", "<p>a\n   b\t\tc</p>", "a\nb c"),
    ("nested-skip", "<nav><div><p>menu</p></div></nav><p>real</p>", "real"),
    ("self-closing-skip", "<nav/>x", "x"),
    ("slash-in-bare-value", "<nav class=x/>y", ""),
    ("end-tag-attributes", '</div class="x">a', "a"),
    ("empty-end-tags", "</>a</ >b", "ab"),
    ("table-cells", "<td>a</td><td>b</td>", "a\nb"),
    ("textarea-not-raw", "<textarea><p>x</p></textarea>", "x"),
    ("unfinished-start-tag", 'a<div class="x', 'a<div class="x'),
    ("unknown-tag", "<custom-el>a</custom-el>", "a"),
    ("blank-block", "<div> </div><div>x</div>", "x"),
    ("attribute-after-quote", '<p a="b"c=d>x', "x"),
    ("slash-between-attributes", "<a / b>x</a>", "x"),
    ("empty-bare-value", "<a b=>x", "x"),
    ("nul-in-tag-kept-raw", "<p&amp;\x00>x", "<p&amp;\x00>x"),
]

# SHA-256 of extract_text(page) for every fixture page, recorded like EXTRACT_CASES
PAGE_TEXT_SHA256 = {
    "q01a.html": "d6adaf1af8591567912b27736e1ecbef0d08a6b71674376aa49bed18016e6f10",
    "q01b.html": "ba781f4513ff76b17a9f525ef3db0a8818f12bf19b943368aa1df7fca432aee4",
    "q01c.html": "5f41b208866d812c63402ed5c74ba50fd2a9c6da4a2b386f229c3dd0c3b779a9",
    "q02a.html": "ad6a8aef5a5f79840fcd59d37890357c2fde4b3898a36f25682d022c065387f8",
    "q02b.html": "6c19f3ed171ad92b880330b9bb5f3dd240d53db3bb2fe4bd88520f3dba0905b1",
    "q02c.html": "9284003fc8ffc909ce3a5d6da40fc6fe469ed2378e70959a28ab52951043b0fc",
    "q03a.html": "ec53be8aa4005b4e4dd661142923a83cc5056c4fe62c1140296e03181f30ac8f",
    "q03b.html": "90cda06e5969fec2ce9c47b04525b36c3e0681ebfc150154d3ea717a6b743060",
    "q03c.html": "984f050856ac46a9df9ff753069cfd77cb727bd9e24ad4e0b6b228ebbf46b4fe",
    "q04a.html": "d4d6fcfd90dc8d8c4f8e964440c3b6cd78a3e7e1cce7d2978aa4c3c864d199cc",
    "q04b.html": "15593b51bc8069d4ea6f20a8e13ea5efb2d9006d63dac6a2a4a66c0a5074d68a",
    "q04c.html": "86cdd035b35c6c93207641488f75fe08a14dfe7318f819e6c051f2d6f6a19122",
    "q05a.html": "13a1b38b5658395fd6d88179a68a9801b3fba33fc1ee5f2b7840623a5cbe2f0e",
    "q05b.html": "a951f54cda0ae4fa205f258566b42ff20d5654c0f53e91dad2e04c1766d1dfd1",
    "q05c.html": "ddaffaef420bdcb631f6bbfe178ae1faa502b418b2e9b04bcff0655c37dc07af",
    "q06a.html": "d38b083b13d466c01f8918351131ddb536645158ae57431f8eaed1cbb35a5814",
    "q06b.html": "404f7e6bf79763aa003ec61154fadc3685e82c06ab096944f8178825e1ba121f",
    "q06c.html": "e8a8420102238ffc061d0b57d0c07acaab6643c6614d3e4163eff4dcc4ec85a9",
    "q07a.html": "16c2308f9aa4e10f37079070127f89c97841d2f532a6b0741de2ee942e704f53",
    "q07b.html": "efc2d2a2705d024999ef474eb37f0a051ea20bcb5cfc4bcb46969bdb18ecb7b0",
    "q07c.html": "304c417d98be5dcf59921fada3a561e63e41c7348792a5bddc007cba6f5c70ed",
    "q08a.html": "74036bd2baf5b0c2d8bd7ca9b221035acea421129eddba4dd47b0d9cc804e62a",
    "q08b.html": "affce3a5d3e5c6f14a9db68ec56c103f9ce0e0922ac3b9cc902e79c962c69c15",
    "q08c.html": "5bf55b2f543e55670cc9f87dfb0d77838d42fc37034326cd75bb75b352846e54",
    "q09a.html": "0234c6f4b4d97de793c9a6aaf519d49c24db7530b7d523fb0bfa10767302d085",
    "q09b.html": "e6f92ac0a1a97e71f140336cbf638aeb2f3b26c2693d84c0bb7a80e498e6f47d",
    "q09c.html": "cf47a4bcac449ed6de4ce11ca4d9e17078ad6bd4469013250fcb1c3e28efe002",
    "q10a.html": "b786aac6cda57e7b950101499d0681bad81ea7752432c707dc073c077ef6b4b8",
    "q10b.html": "5f34284c4b524209a20d6be18ffa3aeb5eac8ab82d65cb80e4b8ff7c49dbb3c5",
    "q10c.html": "cd54a05ec5f13c48707092ae97ef6c53c63bcf41619b0068ed6d557f13a7bc91",
}


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

    @pytest.mark.parametrize("html, text", [case[1:] for case in EXTRACT_CASES],
                             ids=[case[0] for case in EXTRACT_CASES])
    def test_pinned_rules(self, html, text):
        assert extract_text(html) == text

    @pytest.mark.parametrize("html", ["<a x " * 20_000, "<!-- " * 20_000, "<!--x>" * 20_000],
                             ids=["start-tag", "comment", "comment-before-gt"])
    def test_unfinished_markup_is_read_in_linear_time(self, html):
        # 100 KB of markup that never closes; searching to the end of the page
        # for the close of each took seconds to minutes on this much
        started = time.perf_counter()
        text = extract_text(html)
        assert time.perf_counter() - started < 2
        assert text == " ".join(html.split())

    @pytest.mark.parametrize("html", ["a<![foo[x]]>b", "a<![ x>b"])
    def test_unknown_marked_section_reads_as_a_bogus_comment(self, html):
        # html.parser raised AssertionError on these
        assert extract_text(html) == "ab"

    def test_fixture_pages_give_the_pinned_text(self, web_root_module):
        pages = sorted((web_root_module / "pages").glob("*.html"))
        assert {page.name for page in pages} == set(PAGE_TEXT_SHA256)
        for page in pages:
            text = extract_text(page.read_text(encoding="utf-8"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PAGE_TEXT_SHA256[page.name], page.name


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

    def test_sibling_directory_is_404(self, tmp_path):
        """A path that climbs out of the root is refused even when the
        directory it reaches starts with the root's name."""
        (tmp_path / "web").mkdir()
        (tmp_path / "web" / "search.json").write_text("{}", encoding="utf-8")
        (tmp_path / "web2").mkdir()
        (tmp_path / "web2" / "secret.html").write_text("<p>secret</p>", encoding="utf-8")
        with FixtureServer(tmp_path / "web") as server:
            assert fetch_page(f"{server.base_url}/../web2/secret.html")["status"] == 404
            assert fetch_page(f"{server.base_url}/search.json")["status"] == 200

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


class TestMalformedSearchBody:
    """A search body the client cannot read is a SearchError naming the
    endpoint and the query, which fails that one question."""

    @staticmethod
    def _answer(monkeypatch, body: bytes) -> list:
        """Make every request answer 200 with ``body``; returns the URLs requested."""
        urls = []
        monkeypatch.setattr(net, "request", lambda url, *args, **kwargs: urls.append(url) or (200, {}, body))
        return urls

    @pytest.mark.parametrize("body", [b"{}", b"[]", b'{"results": "http://x/a"}', b'{"results": [7]}',
                                      b'{"results": null}', b"not json", b'{"results": ["\x80"]}'])
    def test_fixture_client(self, monkeypatch, body):
        urls = self._answer(monkeypatch, body)
        with pytest.raises(SearchError, match=r"^http://x:1/search returned no list of results for 'a query'$"):
            FixtureSearchClient("http://x:1/").search("a query", 5)
        assert len(urls) == 1

    @pytest.mark.parametrize("body", [b"[]", b'{"items": {}}', b'{"items": [{"title": "t"}]}',
                                      b'{"items": ["http://x/a"]}', b'{"items": [{"link": 7}]}',
                                      b'{"items": [{"link": "http://x/a", "title": null}]}', b"not json"])
    def test_google_client(self, monkeypatch, body):
        self._answer(monkeypatch, body)
        with pytest.raises(SearchError) as raised:
            GoogleCustomSearchClient("secret-key", "cx").search("a query", 5)
        assert str(raised.value) == f"{websearch.GOOGLE_CSE_ENDPOINT} returned no list of items for 'a query'"

    def test_google_body_without_items_is_no_results(self, monkeypatch):
        self._answer(monkeypatch, b'{"searchInformation": {}}')
        assert GoogleCustomSearchClient("k", "cx").search("a query", 5) == []


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

    def test_unfetchable_url_becomes_empty_document(self, server, tmp_path, no_backoff):
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
