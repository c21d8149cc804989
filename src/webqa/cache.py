"""Content-addressed request/response cache backing all network-facing stages.

Every cacheable request (search query, page fetch, LM call) is canonicalized
to JSON and hashed into a digest.  Responses are stored gzip-compressed in
immutable packs ``<namespace>/<directory>/<name>.pack2.gz``, never with
their request, one directory per namespace (``search``, ``fetch``, ``lm``).
Each pack holds one ``<digest> <response>`` line per request that missed
when it was written, and is named by the SHA-256 of those lines.

A :class:`RequestCache` is one scope over one directory per namespace.  It
loads a namespace's packs on its first request there, so a pass that makes
only LM requests never reads page bodies, and a request goes to the scope
it is made on, from any thread.  The directory is either

- ``<sha256(question id)>`` for the scope :meth:`RequestCache.question_scope`
  yields (``with cache.question_scope(qid) as scope: backend.scoped(scope)``),
  which writes all its misses of a namespace as one pack when it closes; or
- ``shared`` for the cache a run builds (the backend's ``describe`` request
  and direct calls such as :func:`webqa.websearch.cached_fetch`), which
  reads it once, holds its responses for the object's life, and writes each
  miss at once as a one-line pack.

A question never reads ``shared``, nor another question's packs.  A pack
that cannot be decompressed is a ``ValueError`` naming its file.

A run builds one cache, and its LM backend, search and page fetches all go
through it.  A warm cache makes every pipeline stage replayable offline and
byte-identical across runs.  Whether a miss may fetch is a property of the
cache: one built with ``offline=True`` raises :class:`OfflineCacheMiss` on
every miss, in every namespace, and never writes.  Entries of older layouts
(other file names or pack suffixes) are never read.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

NAMESPACES = ("search", "fetch", "lm")
PACK_SUFFIX = ".pack2.gz"
# the pack directory of requests made outside any question
SHARED = "shared"
# zlib level 1 compresses page bodies in under a third of level 9's time, for 18% more bytes
GZIP_LEVEL = 1
# a gzip header with no file name, mtime 0, no extra flags and OS "unknown"
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"


class CacheMiss(KeyError):
    """Requested entry is not in the cache."""


class OfflineCacheMiss(CacheMiss):
    """Cache miss while networking is forbidden (``--offline``)."""


_SCALARS = frozenset((str, int, float, bool, type(None)))
_DECODER = json.JSONDecoder()


def _make_encoder(item_separator: str, key_separator: str):
    """``encode(obj)``: ``obj`` as JSON with sorted keys, non-ASCII kept and
    these separators.  ``json.dumps`` and ``JSONEncoder.encode`` build a new
    encoder on every call; CPython's C encoder is built here once."""
    encoder = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                               separators=(item_separator, key_separator))
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    # no markers: canonical data holds no reference cycle to detect
    iterencode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring, None,
        key_separator, item_separator, True, False, True)
    return lambda obj: "".join(iterencode(obj, 0))


# the stable serialization used both for cache keys and cache payloads
canonical_json = _make_encoder(",", ":")


def request_digest(request: dict) -> str:
    return hashlib.sha256(canonical_json(request).encode("utf-8")).hexdigest()


def _write_gzip(fp, chunks) -> None:
    """Write the concatenated ``chunks`` to ``fp`` as one gzip member whose
    header never varies, compressing each chunk as it comes.

    The standard ``gzip`` module writes a different OS byte on different
    Python versions; this header is fixed, so only the deflate stream
    depends on the zlib build.
    """
    compressor = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    crc = size = 0
    fp.write(_GZIP_HEADER)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
        fp.write(compressor.compress(chunk))
    fp.write(compressor.flush())
    fp.write(struct.pack("<II", crc, size & 0xFFFFFFFF))


def gunzip_bytes(data: bytes) -> bytes:
    return zlib.decompress(data, 16 + zlib.MAX_WBITS)


def _read_gzip_text(path: Path) -> str:
    """The UTF-8 text of the gzip file at ``path``; ``ValueError`` naming the
    file if it cannot be decompressed (``FileNotFoundError`` if absent)."""
    try:
        return gunzip_bytes(path.read_bytes()).decode("utf-8")
    except (zlib.error, UnicodeDecodeError) as exc:
        raise ValueError(f"unreadable cache file {path}: {exc}") from None


@dataclass(frozen=True)
class CacheKey:
    namespace: str
    digest: str

    def __post_init__(self):
        if self.namespace not in NAMESPACES:
            raise ValueError(f"unknown cache namespace: {self.namespace!r}")

    @classmethod
    def for_request(cls, namespace: str, request: dict) -> "CacheKey":
        return cls(namespace, request_digest(request))


class _Packs:
    """The responses of one pack directory: every pack already on disk, plus
    the misses of a question scope not yet saved."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.responses: dict[str, str] = {}
        for path in sorted(directory.glob(f"*{PACK_SUFFIX}")):
            # split on "\n" only: canonical JSON escapes it, but not U+2028 and the like
            for line in _read_gzip_text(path).split("\n")[:-1]:
                digest, _, response = line.partition(" ")
                self.responses[digest] = response
        self.misses: list[str] = []

    def get(self, key: CacheKey):
        try:
            response = self.responses[key.digest]
        except KeyError:
            raise CacheMiss(f"{self.directory.name}/{key.digest}") from None
        # canonical JSON has no whitespace around it to skip, as json.loads would
        value, end = _DECODER.raw_decode(response)
        if end != len(response):
            raise ValueError(f"unreadable cache entry {self.directory.name}/{key.digest}")
        return value

    def save(self, digests: list[str]) -> None:
        """Write the responses of ``digests``, each once, as one pack, one line at
        a time: a question's page bodies are never joined into one more copy."""
        if not digests:
            return
        name = hashlib.sha256()

        def lines():
            for digest in sorted(set(digests)):
                line = f"{digest} {self.responses[digest]}\n".encode("utf-8")
                name.update(line)
                yield line

        def write(fp) -> Path:
            _write_gzip(fp, lines())
            return self.directory / f"{name.hexdigest()}{PACK_SUFFIX}"

        _write_then_rename(self.directory, write)


class RequestCache:
    """One cache scope, the shared packs or a question's, with atomic writes
    and concurrent readers.

    Writers stage content in a temp file and ``os.replace`` it into place,
    so a pack or artifact is either absent or complete; duplicate concurrent
    misses are safe (identical content, last write wins).
    """

    def __init__(self, root: str | os.PathLike, offline: bool = False, *, _directory: str = SHARED):
        self.root = Path(root)
        self.offline = offline
        self._directory = _directory
        self._packs: dict[str, _Packs] = {}

    def get(self, key: CacheKey):
        """The cached response for ``key`` in this scope's packs."""
        return self._load(key.namespace).get(key)

    def put(self, key: CacheKey, response) -> None:
        """Store ``response``: in a question scope in the pack it writes when
        it closes, in the shared scope now as a one-line pack."""
        packs = self._load(key.namespace)
        packs.responses[key.digest] = canonical_json(response)
        if self._directory == SHARED:
            packs.save([key.digest])
        else:
            packs.misses.append(key.digest)

    @contextmanager
    def question_scope(self, question_id: str):
        """The scope of ``question_id``'s packs, over the same root.

        A request made through it, from any thread, is looked up only in
        this question's packs of its namespace.  When the scope closes, also
        by an exception, each namespace's misses are written as one new
        pack; a scope without misses writes nothing.  A question never reads
        another question's packs, so its packs' bytes depend only on its own
        requests.
        """
        question = hashlib.sha256(question_id.encode("utf-8")).hexdigest()
        scope = RequestCache(self.root, self.offline, _directory=question)
        try:
            yield scope
        finally:
            for packs in scope._packs.values():
                packs.save(packs.misses)

    def _load(self, namespace: str) -> _Packs:
        """This scope's packs of ``namespace``, read on its first request
        there; concurrent first requests all get the one ``setdefault`` keeps."""
        return self._packs.get(namespace) or self._packs.setdefault(
            namespace, _Packs(self.root / namespace / self._directory))

    def get_or_fetch(self, namespace: str, request: dict, fetch):
        """Return the cached response for ``request``, calling ``fetch()`` on a
        miss; an offline cache raises :class:`OfflineCacheMiss` instead."""
        key = CacheKey.for_request(namespace, request)
        try:
            return self.get(key)
        except CacheMiss:
            if self.offline:
                raise OfflineCacheMiss(
                    f"offline mode: no cached response for {namespace} request "
                    f"{canonical_json(request)[:200]}"
                ) from None
        response = fetch()
        self.put(key, response)
        return response


def _write_then_rename(directory: Path, write) -> None:
    """Call ``write(fp)`` on a new temp file in ``directory``, then rename the
    file to the path ``write`` returns (which must be in ``directory``).

    The directory is created on first use.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fp:
            path = write(fp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and rename,
    unless the file already holds exactly its bytes: then it is left as it
    is, so a re-run that reproduces an artifact replaces no file."""
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fp:
            if fp.read(len(data) + 1) == data:
                return
    except OSError:
        pass

    def write(fp) -> Path:
        fp.write(data)
        return path

    _write_then_rename(path.parent, write)


@functools.lru_cache(maxsize=None)  # one per nesting depth of an artifact
def _indented_encoder(pad: str):
    """Encodes a container of scalars as ``json.dumps(indent=1)`` would at
    depth ``len(pad)``, less the line breaks after its opening bracket and
    before its closing one."""
    return _make_encoder(",\n" + pad + " ", ": ")


def _indented(obj, pad: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(obj, sort_keys=True, ensure_ascii=False,
    indent=1)`` at depth ``len(pad)`` to ``out``: a container of scalars in
    one call of the C encoder, not one Python step per token.

    ``obj`` must be plain JSON: a ``dict`` with ``str`` keys, a ``list`` or
    ``tuple``, a ``str``, ``int``, ``float``, ``bool`` or None, each of exactly
    that type.  Anything else, such as a dict or str subclass, is a ``TypeError``
    (a dict of scalars with non-string keys is written with them as
    ``json.dumps`` writes them)."""
    kind = type(obj)
    if kind in _SCALARS:
        out.append(canonical_json(obj))
    elif kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"not plain JSON: {kind.__name__} {obj!r:.80}")
    elif not obj:
        out.append("{}" if kind is dict else "[]")
    elif _SCALARS.issuperset(map(type, obj.values() if kind is dict else obj)):
        text = _indented_encoder(pad)(obj)
        out.append(f"{text[0]}\n{pad} {text[1:-1]}\n{pad}{text[-1]}")
    else:
        inner = pad + " "
        separator = "\n" + inner
        if kind is dict:
            out.append("{")
            for key in sorted(obj):
                if type(key) is not str:
                    raise TypeError(f"not plain JSON: {type(key).__name__} key {key!r:.80}")
                out.append(f"{separator}{canonical_json(key)}: ")
                _indented(obj[key], inner, out)
                separator = ",\n" + inner
            out.append("\n" + pad + "}")
        else:
            out.append("[")
            for value in obj:
                out.append(separator)
                _indented(value, inner, out)
                separator = ",\n" + inner
            out.append("\n" + pad + "]")


def write_json_record(path: Path, obj) -> None:
    """Persist a stage artifact as pretty, key-sorted JSON (stable bytes): the
    bytes of ``json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)``
    and a newline.  ``obj`` must be plain JSON (see :func:`_indented`); any
    other value is a ``TypeError`` and writes nothing."""
    out: list[str] = []
    _indented(obj, "", out)
    atomic_write_text(path, "".join(out) + "\n")


def read_json_record(path: Path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)
