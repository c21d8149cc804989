import json
import threading

import pytest

from webqa.cache import (
    CacheKey,
    CacheMiss,
    OfflineCacheMiss,
    RequestCache,
    atomic_write_text,
    canonical_json,
    read_json_record,
    request_digest,
    write_json_record,
)


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'


def test_canonical_json_keeps_unicode():
    assert canonical_json({"q": "café"}) == '{"q":"café"}'


def test_request_digest_is_stable_and_distinct():
    r = {"op": "search", "query": "hello", "num": 20}
    assert request_digest(r) == request_digest(dict(reversed(list(r.items()))))
    assert request_digest(r) != request_digest({**r, "num": 10})
    assert len(request_digest(r)) == 64
    assert set(request_digest(r)) <= set("0123456789abcdef")


def test_cache_roundtrip(tmp_path):
    cache = RequestCache(tmp_path / "cache")
    req = {"op": "fetch", "url": "http://x/a"}
    key = CacheKey.for_request("fetch", req)
    with pytest.raises(CacheMiss):
        cache.get(key)
    cache.put(key, req, {"status": 200, "body": "hi"})
    assert cache.get(key) == {"status": 200, "body": "hi"}


def test_unknown_namespace_rejected():
    with pytest.raises(ValueError):
        CacheKey.for_request("bogus", {"op": "x"})


def test_get_or_fetch_fetches_once(tmp_path):
    cache = RequestCache(tmp_path)
    calls = []

    def fetch():
        calls.append(1)
        return {"n": len(calls)}

    req = {"op": "search", "query": "q", "num": 3}
    first = cache.get_or_fetch("search", req, fetch)
    second = cache.get_or_fetch("search", req, fetch)
    assert first == second == {"n": 1}
    assert len(calls) == 1


def test_offline_miss_names_the_request(tmp_path):
    cache = RequestCache(tmp_path)

    def fetch():
        raise AssertionError("offline mode must not call fetch")

    with pytest.raises(OfflineCacheMiss) as err:
        cache.get_or_fetch("lm", {"op": "score", "prompt": "p"}, fetch, offline=True)
    assert "offline" in str(err.value)
    assert '"op":"score"' in str(err.value)


def test_offline_hit_serves_from_cache(tmp_path):
    cache = RequestCache(tmp_path)
    req = {"op": "fetch", "url": "http://x"}
    cache.put(CacheKey.for_request("fetch", req), req, {"body": "cached"})
    out = cache.get_or_fetch(
        "fetch", req, lambda: pytest.fail("should not fetch"), offline=True)
    assert out == {"body": "cached"}


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "sub" / "file.txt"
    atomic_write_text(path, "one")
    atomic_write_text(path, "two")
    assert path.read_text(encoding="utf-8") == "two"
    # no stray temp files left behind
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_json_record_roundtrip_and_layout(tmp_path):
    path = tmp_path / "r.json"
    write_json_record(path, {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json_record(path) == {"a": 1, "b": 2}


def test_concurrent_put_same_key(tmp_path):
    """Parallel writers of the same key must not corrupt the entry."""
    cache = RequestCache(tmp_path)
    req = {"op": "fetch", "url": "http://x"}
    key = CacheKey.for_request("fetch", req)

    def work():
        for _ in range(20):
            cache.put(key, req, {"body": "same"})

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.get(key) == {"body": "same"}
