"""Web retrieval: search for a question, fetch result pages, extract text.

A search client returns ranked URLs for a query; each URL is fetched and
reduced to plain text with a tag-stripping HTML parser.  Both the search
response and every fetched page go through the request cache, so a warm run
never touches the network and an offline run fails loudly on a miss.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from html.parser import HTMLParser
from urllib.parse import urlencode

from . import net
from .cache import RequestCache

logger = logging.getLogger(__name__)

DEFAULT_TOP_URLS = 20

GOOGLE_CSE_ENDPOINT = "https://www.googleapis.com/customsearch/v1"


@dataclass(frozen=True)
class SearchResult:
    url: str
    rank: int
    title: str = ""


@dataclass(frozen=True)
class WebDocument:
    """One fetched search result reduced to plain text (may be empty)."""

    url: str
    rank: int
    clean_text: str


class SearchError(RuntimeError):
    """The search provider failed or returned an unusable response."""


_SKIP_TAGS = {
    "script", "style", "noscript", "template", "iframe", "svg", "canvas",
    "nav", "header", "footer", "aside", "form", "button", "select", "option",
}
_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "dl", "dt", "dd", "table", "tr",
    "td", "th", "h1", "h2", "h3", "h4", "h5", "h6", "section", "article",
    "main", "blockquote", "pre", "hr", "figure", "figcaption", "title",
}


class _TextExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._pieces: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self._pieces.append("\n")

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            if self._skip_depth > 0:
                self._skip_depth -= 1
        elif tag in _BLOCK_TAGS:
            self._pieces.append("\n")

    def handle_data(self, data):
        if self._skip_depth == 0:
            self._pieces.append(data)

    def text(self) -> str:
        lines = "".join(self._pieces).split("\n")
        cleaned = [" ".join(line.split()) for line in lines]
        return "\n".join(line for line in cleaned if line)


def extract_text(html: str) -> str:
    """Visible text of an HTML page: one line per block, whitespace collapsed."""
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return parser.text()


class GoogleCustomSearchClient:
    """Programmable Search Engine JSON API client (10 results per request)."""

    def __init__(self, api_key: str, cse_id: str):
        if not api_key or not cse_id:
            raise SearchError("search needs both an API key and an engine id")
        self.api_key = api_key
        self.cse_id = cse_id

    def search(self, query: str, num: int) -> list[SearchResult]:
        results: list[SearchResult] = []
        start = 1
        while len(results) < num:
            page_size = min(10, num - len(results))
            status, _, body = net.request(GOOGLE_CSE_ENDPOINT + "?" + urlencode({
                "key": self.api_key, "cx": self.cse_id,
                "q": query, "num": page_size, "start": start,
            }))
            if status != 200:
                raise SearchError(f"search returned HTTP {status} for {query!r}")
            items = json.loads(body).get("items", [])
            if not items:
                break
            for item in items:
                results.append(SearchResult(item["link"], len(results) + 1, item.get("title", "")))
                if len(results) == num:
                    break
            start += page_size
        return results


class FixtureSearchClient:
    """Client for the bundled fixture server: GET {base}/search?q=...&num=..."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def search(self, query: str, num: int) -> list[SearchResult]:
        status, _, body = net.request(f"{self.base_url}/search?" + urlencode({"q": query, "num": num}))
        if status != 200:
            raise SearchError(f"fixture search returned HTTP {status} for {query!r}")
        urls = json.loads(body)["results"]
        return [SearchResult(url=u, rank=i + 1) for i, u in enumerate(urls[:num])]


def cached_search(cache: RequestCache, client, query: str, num: int) -> list[SearchResult]:
    request = {"op": "search", "query": query, "num": num}

    def fetch():
        return [{"url": r.url, "rank": r.rank, "title": r.title} for r in client.search(query, num)]

    response = cache.get_or_fetch("search", request, fetch)
    return [SearchResult(url=r["url"], rank=int(r["rank"]), title=r.get("title", "")) for r in response]


def fetch_page(url: str) -> dict:
    """Fetch one URL; returns {status, content_type, body}.

    Responses that are not HTML (images, PDFs, ...) come back with an empty
    body so they drop out of the evidence pool downstream.  HTML is decoded by
    its charset (UTF-8 if unknown), else as ISO-8859-1 if ``text/*``, else UTF-8.
    """
    status, headers, body = net.request(url)
    content_type = headers.get("Content-Type", "")
    text = ""
    if "html" in content_type.lower():
        charset = headers.get_content_charset() or (
            "iso-8859-1" if headers.get_content_maintype() == "text" else "utf-8")
        try:
            text = body.decode(charset, errors="replace")
        except LookupError:
            text = body.decode("utf-8", errors="replace")
    return {"status": status, "content_type": content_type, "body": text}


def cached_fetch(cache: RequestCache, url: str) -> dict:
    """Like :func:`fetch_page` but cached; network errors are never cached."""
    return cache.get_or_fetch("fetch", {"op": "fetch", "url": url}, lambda: fetch_page(url))


def retrieve_documents(
    question: str,
    client,
    cache: RequestCache,
    num_urls: int = DEFAULT_TOP_URLS,
) -> list[WebDocument]:
    """Search for ``question`` and fetch every hit into a :class:`WebDocument`.

    Unfetchable pages become empty documents (with a logged warning) rather
    than failing the question; order follows search rank.
    """
    documents = []
    for result in cached_search(cache, client, question, num_urls):
        text = ""
        try:
            page = cached_fetch(cache, result.url)
        except net.NetError as exc:
            logger.warning("dropping %s: %s", result.url, exc)
        else:
            if int(page["status"]) == 200:
                text = extract_text(page["body"])
            else:
                logger.warning("dropping %s: HTTP %d", result.url, int(page["status"]))
        documents.append(WebDocument(url=result.url, rank=result.rank, clean_text=text))
    return documents
