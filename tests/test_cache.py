import json
import shutil
import threading

import pytest

from webqa import cli
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
from webqa.fixtures import FixtureServer


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
    cache.put(key, {"status": 200, "body": "hi"})
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
    cache.put(CacheKey.for_request("fetch", req), {"body": "cached"})
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
            cache.put(key, {"body": "same"})

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.get(key) == {"body": "same"}


def test_first_puts_create_missing_namespace_directory(tmp_path):
    """Concurrent first writes into a namespace with no directory yet all land."""
    cache = RequestCache(tmp_path)
    cache.put(CacheKey.for_request("fetch", {"url": "http://x"}), {"body": "x"})
    keys = [CacheKey.for_request("lm", {"op": "score", "i": i}) for i in range(8)]
    assert not (tmp_path / "lm").exists()
    start = threading.Barrier(len(keys))

    def work(key):
        start.wait(timeout=10)
        cache.put(key, {"i": key.digest})

    threads = [threading.Thread(target=work, args=(key,)) for key in keys]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert [cache.get(key) for key in keys] == [{"i": key.digest} for key in keys]
    assert len(list((tmp_path / "lm").iterdir())) == len(keys)


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory, qa_dataset_path, banks_dir, web_root):
    """One fixture run with every (namespace, request, response) that passed
    through the cache recorded; the fixture web stays served for the module."""
    workdir = tmp_path_factory.mktemp("recorded") / "w"
    seen = []
    original = RequestCache.get_or_fetch

    def recording(self, namespace, request, fetch, offline=False):
        response = original(self, namespace, request, fetch, offline)
        seen.append((namespace, request, response))
        return response

    with FixtureServer(web_root) as server:
        def flags(workdir, *extra):
            return ["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                    "--search-endpoint", server.base_url, "--banks-dir", str(banks_dir),
                    "--top-urls", "3", "--paragraphs", "2", "--samples-per-paragraph", "2",
                    "--closed-book-samples", "4", "--max-new-tokens", "16",
                    "--cost-points", "0,1", *extra]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RequestCache, "get_or_fetch", recording)
            assert cli.main(flags(workdir)) == 0
        yield {"workdir": workdir, "seen": seen, "flags": flags}


def test_cache_files_hold_only_canonical_responses(recorded_run):
    cache_root = recorded_run["workdir"] / "cache"
    files = {p for p in cache_root.rglob("*") if p.is_file()}
    expected = {}
    for namespace, request, response in recorded_run["seen"]:
        key = CacheKey.for_request(namespace, request)
        expected[cache_root / namespace / f"{key.digest}.response.json"] = response
    assert {ns for ns, _, _ in recorded_run["seen"]} == {"search", "fetch", "lm"}
    assert files == set(expected)
    for path, response in expected.items():
        assert path.read_bytes() == (canonical_json(response) + "\n").encode("utf-8")


def test_lm_entries_hold_no_prompt(recorded_run):
    cache_root = recorded_run["workdir"] / "cache"
    prompts = [(CacheKey.for_request("lm", request), request["prompt"])
               for namespace, request, _ in recorded_run["seen"]
               if namespace == "lm" and "prompt" in request]
    assert prompts
    for key, prompt in prompts:
        text = (cache_root / "lm" / f"{key.digest}.response.json").read_text(encoding="utf-8")
        assert canonical_json(prompt)[1:-1] not in text


def _write_old_entry(cache_root, namespace, request, response):
    """An entry of the older layout: request and response at ``<digest>.json``."""
    key = CacheKey.for_request(namespace, request)
    path = cache_root / namespace / f"{key.digest}.json"
    atomic_write_text(path, canonical_json({"request": request, "response": response}) + "\n")
    return path


def test_old_layout_entry_is_fetched_again(tmp_path):
    cache = RequestCache(tmp_path)
    req = {"op": "fetch", "url": "http://x"}
    old = _write_old_entry(tmp_path, "fetch", req, {"body": "old"})
    calls = []

    def fetch():
        calls.append(1)
        return {"body": "new"}

    assert cache.get_or_fetch("fetch", req, fetch) == {"body": "new"}
    assert cache.get_or_fetch("fetch", req, fetch) == {"body": "new"}
    assert len(calls) == 1
    assert json.loads(old.read_text(encoding="utf-8"))["response"] == {"body": "old"}


def test_offline_run_over_old_layout_cache_exits_3(recorded_run, tmp_path, capsys):
    workdir = tmp_path / "w"
    shutil.copytree(recorded_run["workdir"], workdir)
    offline = recorded_run["flags"](workdir, "--offline")
    assert cli.main(offline) == 0
    cache_root = workdir / "cache"
    shutil.rmtree(cache_root)
    for namespace, request, response in recorded_run["seen"]:
        _write_old_entry(cache_root, namespace, request, response)
    assert cli.main(offline) == 3
    assert "offline cache miss" in capsys.readouterr().err
