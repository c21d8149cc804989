"""Web retrieval: search for a question, fetch result pages, extract text.

A search client returns ranked URLs for a query; each URL is fetched and
reduced to plain text with a tag-stripping HTML parser.  Both the search
response and every fetched page go through the request cache, so a warm run
never touches the network and an offline run fails loudly on a miss.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from html.parser import HTMLParser
from urllib.parse import urlencode

import requests

from .cache import RequestCache

logger = logging.getLogger(__name__)

DEFAULT_TOP_URLS = 20
FETCH_RETRIES = 3
FETCH_BACKOFF_SECONDS = 0.5
FETCH_TIMEOUT_SECONDS = 20.0

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

    def __init__(self, api_key: str, cse_id: str, session: requests.Session | None = None,
                 timeout: float = FETCH_TIMEOUT_SECONDS):
        if not api_key or not cse_id:
            raise SearchError("search needs both an API key and an engine id")
        self.api_key = api_key
        self.cse_id = cse_id
        self.session = session or requests.Session()
        self.timeout = timeout

    def search(self, query: str, num: int) -> list[SearchResult]:
        results: list[SearchResult] = []
        start = 1
        while len(results) < num:
            page_size = min(10, num - len(results))
            resp = self.session.get(GOOGLE_CSE_ENDPOINT, params={
                "key": self.api_key, "cx": self.cse_id,
                "q": query, "num": page_size, "start": start,
            }, timeout=self.timeout)
            if resp.status_code != 200:
                raise SearchError(f"search returned HTTP {resp.status_code} for {query!r}")
            items = resp.json().get("items", [])
            if not items:
                break
            for item in items:
                results.append(SearchResult(
                    url=item["link"], rank=len(results) + 1, title=item.get("title", ""),
                ))
                if len(results) == num:
                    break
            start += page_size
        return results


class FixtureSearchClient:
    """Client for the bundled fixture server: GET {base}/search?q=...&num=..."""

    def __init__(self, base_url: str, session: requests.Session | None = None,
                 timeout: float = FETCH_TIMEOUT_SECONDS):
        self.base_url = base_url.rstrip("/")
        self.session = session or requests.Session()
        self.timeout = timeout

    def search(self, query: str, num: int) -> list[SearchResult]:
        url = f"{self.base_url}/search?" + urlencode({"q": query, "num": num})
        resp = self.session.get(url, timeout=self.timeout)
        if resp.status_code != 200:
            raise SearchError(f"fixture search returned HTTP {resp.status_code} for {query!r}")
        urls = resp.json()["results"]
        return [SearchResult(url=u, rank=i + 1) for i, u in enumerate(urls[:num])]


def cached_search(cache: RequestCache, client, query: str, num: int,
                  offline: bool = False) -> list[SearchResult]:
    request = {"op": "search", "query": query, "num": num}

    def fetch():
        return [{"url": r.url, "rank": r.rank, "title": r.title} for r in client.search(query, num)]

    response = cache.get_or_fetch("search", request, fetch, offline=offline)
    return [SearchResult(url=r["url"], rank=int(r["rank"]), title=r.get("title", "")) for r in response]


def fetch_page(session: requests.Session, url: str,
               retries: int = FETCH_RETRIES, timeout: float = FETCH_TIMEOUT_SECONDS) -> dict:
    """Fetch one URL with exponential backoff; returns {status, content_type, body}.

    Responses that are not HTML (images, PDFs, ...) come back with an empty
    body so they drop out of the evidence pool downstream.
    """
    last_error: Exception | None = None
    for attempt in range(retries):
        if attempt:
            time.sleep(FETCH_BACKOFF_SECONDS * 2 ** (attempt - 1))
        try:
            resp = session.get(url, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code >= 500:
            last_error = SearchError(f"HTTP {resp.status_code} from {url}")
            continue
        content_type = resp.headers.get("Content-Type", "")
        body = resp.text if "html" in content_type.lower() else ""
        return {"status": resp.status_code, "content_type": content_type, "body": body}
    raise SearchError(f"failed to fetch {url} after {retries} attempts: {last_error}")


def cached_fetch(cache: RequestCache, session: requests.Session, url: str,
                 offline: bool = False, retries: int = FETCH_RETRIES) -> dict:
    """Like :func:`fetch_page` but cached; network errors are never cached."""
    return cache.get_or_fetch(
        "fetch", {"op": "fetch", "url": url},
        lambda: fetch_page(session, url, retries=retries), offline=offline,
    )


def retrieve_documents(
    question: str,
    client,
    cache: RequestCache,
    num_urls: int = DEFAULT_TOP_URLS,
    offline: bool = False,
    session: requests.Session | None = None,
) -> list[WebDocument]:
    """Search for ``question`` and fetch every hit into a :class:`WebDocument`.

    Unfetchable pages become empty documents (with a logged warning) rather
    than failing the question; order follows search rank.
    """
    session = session or requests.Session()
    results = cached_search(cache, client, question, num_urls, offline=offline)
    documents = []
    for result in results:
        try:
            page = cached_fetch(cache, session, result.url, offline=offline)
        except SearchError as exc:
            logger.warning("dropping %s: %s", result.url, exc)
            documents.append(WebDocument(url=result.url, rank=result.rank, clean_text=""))
            continue
        status = int(page["status"])
        if status != 200:
            logger.warning("dropping %s: HTTP %d", result.url, status)
            documents.append(WebDocument(url=result.url, rank=result.rank, clean_text=""))
            continue
        documents.append(WebDocument(
            url=result.url, rank=result.rank, clean_text=extract_text(page["body"]),
        ))
    return documents
