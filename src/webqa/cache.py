"""Content-addressed request/response cache backing all network-facing stages.

Every cacheable request (search query, page fetch, LM call) is canonicalized
to JSON and hashed; its response is stored as one file under
``<root>/<namespace>/`` named by that digest.  A warm cache makes every
pipeline stage replayable offline and byte-identical across runs.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

NAMESPACES = ("search", "fetch", "lm")


class CacheMiss(KeyError):
    """Requested entry is not in the cache."""


class OfflineCacheMiss(CacheMiss):
    """Cache miss while networking is forbidden (``--offline``)."""


def canonical_json(obj) -> str:
    """Stable serialization used both for cache keys and cache payloads."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def request_digest(request: dict) -> str:
    return hashlib.sha256(canonical_json(request).encode("utf-8")).hexdigest()


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


class RequestCache:
    """File-per-request cache with atomic writes and concurrent readers.

    An entry ``<namespace>/<digest>.response.json`` holds only the canonical
    JSON of the response, never the request.  Writers stage content in a temp
    file and ``os.replace`` it into place, so a key is either absent or
    complete; duplicate concurrent misses are safe (identical content, last
    write wins).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _path(self, key: CacheKey) -> Path:
        return self.root / key.namespace / f"{key.digest}.response.json"

    def get(self, key: CacheKey):
        try:
            with open(self._path(key), encoding="utf-8") as fp:
                return json.load(fp)
        except FileNotFoundError:
            raise CacheMiss(f"{key.namespace}/{key.digest}") from None

    def put(self, key: CacheKey, response) -> None:
        atomic_write_text(self._path(key), canonical_json(response) + "\n")

    def get_or_fetch(self, namespace: str, request: dict, fetch, offline: bool = False):
        """Return the cached response for ``request``, calling ``fetch()`` on a miss.

        On a miss with ``offline=True`` no fetch is attempted and
        :class:`OfflineCacheMiss` is raised instead.
        """
        key = CacheKey.for_request(namespace, request)
        try:
            return self.get(key)
        except CacheMiss:
            if offline:
                raise OfflineCacheMiss(
                    f"offline mode: no cached response for {namespace} request "
                    f"{canonical_json(request)[:200]}"
                ) from None
        response = fetch()
        self.put(key, response)
        return response


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and rename.

    The parent directory is created on first use.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            fp.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_record(path: Path, obj) -> None:
    """Persist a stage artifact as pretty, key-sorted JSON (stable bytes)."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n")


def read_json_record(path: Path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)
