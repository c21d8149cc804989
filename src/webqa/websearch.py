"""Web retrieval: search for a question, fetch result pages, extract text.

A search client returns ranked URLs for a query; each URL is fetched and
reduced to plain text by :func:`extract_text`.  Both the search response and
every fetched page go through the request cache, so a warm run never touches
the network and an offline run fails loudly on a miss.

:func:`extract_text` scans the page with compiled regexes, one match per
tag.  It drops the text inside skip tags (nested ones counted; a stray skip
end tag is ignored), breaks the line at every block tag (inside skipped
regions too), treats ``script`` and ``style`` as raw text that ends only at
their own end tag, drops comments, declarations, CDATA sections and
processing instructions, and unescapes character references in each run of
text between two tags on its own.  These are the rules of the
``html.parser``-based extractor it replaced, as CPython 3.10 to 3.13.0 ship
that parser, so the result no longer depends on the interpreter's
``html.parser``.  The one departure: a ``<![`` section with an unknown
keyword, on which ``html.parser`` raised ``AssertionError``, is dropped up
to its first ``>``.  Past the page's last ``>`` no markup can close, so there
each ``<`` reads as text up to the next ``<`` without a search for its close;
before it, a comment or marked-section close that one search found missing
is not searched for again.
"""
from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass
from html import unescape
from typing import NamedTuple
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
# What a tag does to the text: a skip tag hides everything up to its end tag
# (nested ones counted), a block tag ends the line, and a raw-text tag is a
# skip tag whose content ends only at its own end tag.
_SKIP, _BLOCK, _RAW = 1, 2, 3
_TAG_KINDS = {**dict.fromkeys(_SKIP_TAGS, _SKIP), **dict.fromkeys(_BLOCK_TAGS, _BLOCK),
              "script": _RAW, "style": _RAW}

# The tags nearly every page is made of: a start tag whose attributes each
# follow whitespace and are a name, name=value, name="value" or name='value',
# or an end tag with nothing but whitespace around its name.  Any other
# markup goes through :func:`_markup`.
_TAG = re.compile(r"""
    <(?:([a-zA-Z][^\t\n\r\f />\x00]*)(?![^\t\n\r\f />\x00])  # start tag name, all of it
        (?:\s+[^\s/>="'<]+(?:\s*=\s*(?:"[^"]*"|'[^']*'|[^\s>"'=][^\s>]*))?)*
        \s*(/?)>                                         # the "/" of <br/>
      | /\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>)              # end tag name
    """, re.VERBOSE)
# ASCII letters of either case only: an end tag spelled with a lookalike such
# as U+017F (long s) does not end the raw text
_RAW_TEXT_END = {tag: re.compile(r"</\s*%s\s*>" % "".join(f"[{c}{c.upper()}]" for c in tag))
                 for tag in ("script", "style")}

# The tolerant grammar html.parser uses for odd markup (CPython 3.10 to 3.13.0).
_LOCATE_START_TAG_END = re.compile(r"""
    <[a-zA-Z][^\t\n\r\f />\x00]*
    (?:[\s/]*(?:(?<=['"\s/])[^\s/>][^\s/=>]*
        (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?(?:\s|/(?!>))*)*)?
    \s*""", re.VERBOSE)
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_TAG_NAME_END = re.compile(r"[\t\n\r\f />\x00]")
_ATTRIBUTE_MAY_START = re.compile(r"""(?<=['"\s/])""")  # _ATTRIBUTE's lookbehind
_ATTRIBUTE = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
# where html.parser's located start tag stops short of ">" because it is unfinished
_INCOMPLETE_AT = frozenset(string.ascii_letters + "=")
_COMMENT_END = re.compile(r"--\s*>")
_SECTION_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*")
_SECTION_END = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}


class _Markup(NamedTuple):
    """What the markup at a ``<`` is: a start tag, an end tag, text, or, with
    none of them set, markup to drop; ``end`` is the index just past it."""

    end: int
    start: str | None = None
    slash: str = ""  # "/" when the start tag closes itself
    end_tag: str | None = None
    text: str | None = None


def _incomplete(html: str, i: int) -> _Markup:
    """Unfinished markup at ``i`` reads as text up to its first ``>``, which
    :func:`extract_text` makes sure follows it."""
    end = html.find(">", i + 1) + 1
    return _Markup(end, text=unescape(html[i:end]))


def _start_tag(html: str, i: int) -> _Markup:
    """A start tag read by html.parser's tolerant grammar; one it finds
    malformed is kept as text, one it finds unfinished reads as text."""
    located = _LOCATE_START_TAG_END.match(html, i).end()
    after = html[located:located + 1]
    if after == ">":
        end = located + 1
    elif after == "/":
        if not html.startswith("/>", located):
            return _incomplete(html, i)
        end = located + 2
    elif not after or after in _INCOMPLETE_AT:
        return _incomplete(html, i)
    else:
        end = located
    name = _TAG_NAME.match(html, i + 1)
    k = name.end()
    while k < end:
        attribute = _ATTRIBUTE.match(html, k)
        if attribute is None:
            break
        k = attribute.end()
    rest = html[k:end].strip()
    if rest == ">" or rest == "/>":
        return _Markup(end, start=name.group(1), slash=rest[:-1])
    return _Markup(end, text=html[i:end])  # kept as text, character references and all


def _close(pattern: re.Pattern, html: str, i: int, unclosed: set[re.Pattern]) -> re.Match | None:
    """``pattern.search(html, i)``; a pattern in ``unclosed`` was found nowhere
    past an earlier ``i``, so it is not searched for again."""
    if pattern in unclosed:
        return None
    close = pattern.search(html, i)
    if close is None:
        unclosed.add(pattern)
    return close


def _markup(html: str, i: int, unclosed: set[re.Pattern]) -> _Markup:
    """The markup at ``html[i] == "<"`` that :data:`_TAG` does not match;
    ``unclosed`` holds the close patterns already found missing on the page."""
    after = html[i + 1:i + 2]
    if after.isascii() and after.isalpha():
        return _start_tag(html, i)
    if html.startswith("<!--", i):
        close = _close(_COMMENT_END, html, i + 4, unclosed)
        return _Markup(close.end()) if close else _incomplete(html, i)
    if html.startswith("<![", i):
        name = _SECTION_NAME.match(html, i + 3)
        section_end = name and _SECTION_END.get(name.group().lower())
        if section_end:
            close = _close(section_end, html, i + 3, unclosed)
            return _Markup(close.end()) if close else _incomplete(html, i)
        # html.parser raises AssertionError here; this reads it as a bogus comment
    if after in ("/", "!", "?"):
        end = html.find(">", i + 2) + 1
        if not end:
            return _incomplete(html, i)
        name = _TAG_NAME.match(html, i + 2) if after == "/" else None
        return _Markup(end, end_tag=name and name.group(1))
    return _Markup(i + 1, text="<")


def _unclosed_text(html: str, i: int) -> str:
    """The text of ``html[i:]``, which starts with ``<`` and holds no ``>``.

    No markup can close there, so each ``<`` reads as text up to the next,
    character references unescaped, but for one rule of html.parser's: a tag
    name that a NUL ends is kept as it is, unless an attribute may start at
    the NUL, as it may after a quote or whitespace.
    """
    pieces: list[str] = []
    n = len(html)
    name_end = i  # where the tag name found last ends
    while i < n:
        after = html[i + 1:i + 2]
        if html[i] == "<" and after.isascii() and after.isalpha():
            if name_end <= i:
                delimiter = _TAG_NAME_END.search(html, i + 1)
                name_end = delimiter.start() if delimiter else n
            if html.startswith("\x00", name_end) and not _ATTRIBUTE_MAY_START.match(html, name_end):
                pieces.append(html[i:name_end])
                i = name_end
                continue
        end = html.find("<", i + 1)
        if end < 0:
            end = n
        pieces.append(unescape(html[i:end]))
        i = end
    return "".join(pieces)


def extract_text(html: str) -> str:
    """Visible text of an HTML page: one line per block, whitespace collapsed;
    the module docstring gives the rules."""
    pieces: list[str] = []
    emit = pieces.append
    depth = 0  # open skip tags
    n = len(html)
    pos = 0
    last_gt = html.rfind(">")  # past it no markup can close
    unclosed: set[re.Pattern] = set()
    while pos < n:
        lt = html.find("<", pos)
        if lt < 0:
            lt = n
        if not depth and pos < lt:
            run = html[pos:lt]
            emit(unescape(run) if "&" in run else run)
        if lt == n:
            break
        if lt > last_gt:
            if not depth:  # no end tag can close a skipped region here
                emit(_unclosed_text(html, lt))
            break
        match = _TAG.match(html, lt)
        if match is not None:
            pos = match.end()
            start, slash, end = match.groups()
        else:
            pos, start, slash, end, text = _markup(html, lt, unclosed)
            if text is not None:
                if not depth:
                    emit(text)
                continue
        if start is not None:
            tag = start.lower()
            kind = _TAG_KINDS.get(tag)
            if kind == _BLOCK:
                emit("\n")
            elif kind == _SKIP and not slash:
                depth += 1
            elif kind == _RAW and not slash:
                close = _RAW_TEXT_END[tag].search(html, pos)
                if close is None:
                    break  # an unclosed script or style hides the rest of the page
                pos = close.end()
        elif end is not None:
            kind = _TAG_KINDS.get(end.lower())
            if kind == _BLOCK:
                emit("\n")
            elif kind is not None and depth:
                depth -= 1
    lines = "".join(pieces).split("\n")
    return "\n".join(filter(None, [" ".join(line.split()) for line in lines]))


def _search_list(body: bytes, endpoint: str, query: str, field: str, valid, default=None) -> list:
    """The list ``field`` of the JSON object ``body`` (``default`` if absent),
    each of whose entries passes ``valid``; any other body is a
    :class:`SearchError` naming ``endpoint`` and ``query``."""
    try:
        obj = json.loads(body)
    except ValueError:
        obj = None
    entries = obj.get(field, default) if type(obj) is dict else None
    if type(entries) is not list or not all(map(valid, entries)):
        raise SearchError(f"{endpoint} returned no list of {field} for {query!r}")
    return entries


def _is_item(item) -> bool:
    """A search API result: an object with a string ``link`` and, if any, a string ``title``."""
    return type(item) is dict and type(item.get("link")) is str and type(item.get("title", "")) is str


class GoogleCustomSearchClient:
    """Programmable Search Engine JSON API client (10 results per request)."""

    def __init__(self, api_key: str, cse_id: str):
        if not api_key or not cse_id:
            raise SearchError("search needs both an API key and an engine id")
        self.api_key = api_key
        self.cse_id = cse_id
        net.import_http_stack()  # in the run's setup, not in its first search

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
            items = _search_list(body, GOOGLE_CSE_ENDPOINT, query, "items", _is_item, default=[])
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
        net.import_http_stack()  # in the run's setup, not in its first search

    def search(self, query: str, num: int) -> list[SearchResult]:
        status, _, body = net.request(f"{self.base_url}/search?" + urlencode({"q": query, "num": num}))
        if status != 200:
            raise SearchError(f"fixture search returned HTTP {status} for {query!r}")
        urls = _search_list(body, f"{self.base_url}/search", query, "results", lambda url: type(url) is str)
        return [SearchResult(url=u, rank=i + 1) for i, u in enumerate(urls[:num])]


def cached_search(cache: RequestCache, client, query: str, num: int) -> list[SearchResult]:
    request = {"op": "search", "query": query, "num": num}

    def fetch():
        return [{"url": r.url, "rank": r.rank, "title": r.title} for r in client.search(query, num)]

    response = cache.get_or_fetch("search", request, fetch)
    if type(response) is not list or not all(map(_is_row, response)):
        raise SearchError(f"unreadable search results for {query!r}")
    return [SearchResult(r["url"], r["rank"], r["title"]) for r in response]


def _is_row(row) -> bool:
    """A stored search result: a string ``url``, an ``int`` ``rank`` of at least 1 and a string ``title``."""
    return (type(row) is dict and type(row.get("url")) is str and type(row.get("title")) is str
            and type(row.get("rank")) is int and row["rank"] >= 1)


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
    """Like :func:`fetch_page` but cached; network errors are never cached.  A
    page without an ``int`` status and a string content type and body is a
    ``ValueError`` naming ``url``."""
    page = cache.get_or_fetch("fetch", {"op": "fetch", "url": url}, lambda: fetch_page(url))
    if (type(page) is not dict or type(page.get("status")) is not int
            or type(page.get("content_type")) is not str or type(page.get("body")) is not str):
        raise ValueError(f"unreadable page for {url}")
    return page


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
            if page["status"] == 200:
                text = extract_text(page["body"])
            else:
                logger.warning("dropping %s: HTTP %d", result.url, page["status"])
        documents.append(WebDocument(url=result.url, rank=result.rank, clean_text=text))
    return documents
