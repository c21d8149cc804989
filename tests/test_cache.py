import collections
import gzip
import hashlib
import json
import random
import re
import shutil
import sys
import threading

import pytest
from conftest import cached_backend

from webqa import cli, websearch
from webqa import cache as cache_module
from webqa import pipeline as pipeline_module
from webqa.cache import (
    PACK_SUFFIX,
    SHARED,
    CacheKey,
    CacheMiss,
    OfflineCacheMiss,
    RequestCache,
    atomic_write_text,
    canonical_json,
    gunzip_bytes,
    read_json_record,
    request_digest,
    write_json_record,
)
from webqa.corpus import load_dataset
from webqa.fixtures import FixtureServer
from webqa.lmbackend import CachedBackend, GenerationParams, MockBackend
from webqa.pipeline import GOLD, Pipeline, PipelineConfig
from webqa.websearch import FixtureSearchClient


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
    cache = RequestCache(tmp_path, offline=True)

    def fetch():
        raise AssertionError("offline mode must not call fetch")

    with pytest.raises(OfflineCacheMiss) as err:
        cache.get_or_fetch("lm", {"op": "score", "prompt": "p"}, fetch)
    assert "offline" in str(err.value)
    assert '"op":"score"' in str(err.value)


def test_offline_hit_serves_from_cache(tmp_path):
    req = {"op": "fetch", "url": "http://x"}
    RequestCache(tmp_path).put(CacheKey.for_request("fetch", req), {"body": "cached"})
    out = RequestCache(tmp_path, offline=True).get_or_fetch(
        "fetch", req, lambda: pytest.fail("should not fetch"))
    assert out == {"body": "cached"}


def test_offline_cache_over_empty_root_raises_and_writes_nothing(tmp_path):
    cache = RequestCache(tmp_path, offline=True)
    with pytest.raises(OfflineCacheMiss):
        cache.get_or_fetch("fetch", {"op": "fetch", "url": "http://x"}, lambda: {"body": "x"})
    with pytest.raises(OfflineCacheMiss), cache.question_scope("q1") as scope:
        scope.get_or_fetch("lm", {"op": "score"}, lambda: -1.0)
    assert list(tmp_path.iterdir()) == []


def test_offline_scope_that_only_hits_writes_nothing(tmp_path):
    warm = RequestCache(tmp_path)
    with warm.question_scope("q1") as scope:
        scope.get_or_fetch("fetch", {"op": "fetch", "url": "http://x"}, lambda: {"body": "x"})
        scope.get_or_fetch("lm", {"op": "score"}, lambda: -1.0)
    packs = sorted(tmp_path.rglob(f"*{PACK_SUFFIX}"))
    assert [p.relative_to(tmp_path).parts[0] for p in packs] == ["fetch", "lm"]
    before = sorted(tmp_path.rglob("*")), _tree(tmp_path)
    offline = RequestCache(tmp_path, offline=True)
    with offline.question_scope("q1") as scope:
        assert scope.get_or_fetch("lm", {"op": "score"}, lambda: pytest.fail("fetched")) == -1.0
        assert scope.get_or_fetch("fetch", {"op": "fetch", "url": "http://x"},
                                  lambda: pytest.fail("fetched")) == {"body": "x"}
    assert (sorted(tmp_path.rglob("*")), _tree(tmp_path)) == before


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "sub" / "file.txt"
    atomic_write_text(path, "one")
    atomic_write_text(path, "two")
    assert path.read_text(encoding="utf-8") == "two"
    # no stray temp files left behind
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_atomic_write_leaves_a_file_with_equal_bytes_untouched(tmp_path, monkeypatch):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "café\n")
    before = path.stat()
    monkeypatch.setattr(cache_module, "_write_then_rename", lambda *a: pytest.fail("rewrote"))
    atomic_write_text(path, "café\n")
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("old", ["cafe\n", "caf", "café", "café\n\n", ""])
def test_atomic_write_replaces_a_file_whose_bytes_differ(tmp_path, old):
    """Other bytes, a prefix and an extension of the new bytes all differ."""
    path = tmp_path / "file.txt"
    path.write_bytes(old.encode("utf-8"))
    inode = path.stat().st_ino
    atomic_write_text(path, "café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")
    assert path.stat().st_ino != inode


def test_atomic_write_writes_when_the_old_file_cannot_be_read(tmp_path, monkeypatch):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "same")
    inode = path.stat().st_ino

    def unreadable(*args, **kwargs):
        raise PermissionError("unreadable")

    monkeypatch.setattr(cache_module, "open", unreadable, raising=False)
    atomic_write_text(path, "same")
    assert path.read_bytes() == b"same"
    assert path.stat().st_ino != inode


def test_json_record_roundtrip_and_layout(tmp_path):
    path = tmp_path / "r.json"
    write_json_record(path, {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json_record(path) == {"a": 1, "b": 2}


def _random_json(rng, depth=0):
    if depth > 3 or rng.random() < 0.5:
        return rng.choice([0, -1, 2 ** 70, 1.5, -0.0, 1e300, 5e-324, float("nan"), float("inf"),
                           -float("inf"), True, False, None, "", "x", 'a"b\\c\n\u2028é\x00\x1c'])
    if rng.random() < 0.4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if rng.random() < 0.3:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randrange(3)))
    return {rng.choice(["a", "b", "é", "", "zz", "\n", '"']): _random_json(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_json_encoders_write_what_json_dumps_writes(tmp_path):
    """canonical_json and write_json_record build their encoders once, and the
    record writer encodes each container of scalars in one call, yet their bytes
    are json.dumps's for every plain JSON value.  Any other value is a TypeError
    from the record writer, which then writes nothing."""
    rng = random.Random(7)
    values = [_random_json(rng) for _ in range(3000)]
    values += [{1: "a", 2: None}, {"a": {1: "x", True: 2}}, {"a": [1, {None: 3}]}, {1.5: 2},
               {"rows": [{"b": 1, "a": 2.5}] * 3, "id": "q"}, [], {}, [[]], {"a": {}}]
    path = tmp_path / "r.json"
    for value in values:
        assert canonical_json(value) == json.dumps(value, sort_keys=True, ensure_ascii=False,
                                                   separators=(",", ":")), value
        write_json_record(path, value)
        assert path.read_text(encoding="utf-8") == json.dumps(
            value, sort_keys=True, ensure_ascii=False, indent=1) + "\n", value
    not_plain = [collections.OrderedDict(b=1, a=2), {"k": collections.OrderedDict(b=1, a=2)},
                 _Text("subclass"), {"k": _Text("subclass")}, [1, _Text("x")], {_Text("k"): [1]},
                 {1: [2]}, {"a": {None: {}}}, {"a": [{2: [3]}]}, {"k": b"x"}, [{1, 2}], object()]
    for value in not_plain:
        with pytest.raises(TypeError, match="^not plain JSON: "):
            write_json_record(tmp_path / "not_plain.json", value)
    assert sorted(tmp_path.iterdir()) == [path]


class _Text(str):
    """A str subclass, which json.dumps writes as a string but an artifact may not hold."""


def test_pack_line_with_more_than_one_value_is_unreadable(tmp_path):
    cache = RequestCache(tmp_path)
    key = CacheKey.for_request("lm", {"op": "x"})
    cache.put(key, {"a": 1})
    packs = cache._load("lm")
    packs.responses[key.digest] += " 2"
    with pytest.raises(ValueError, match="unreadable cache entry"):
        cache.get(key)
    packs.responses[key.digest] = " " + canonical_json({"a": 1})
    with pytest.raises(ValueError):
        cache.get(key)


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
    """Concurrent first writes into a namespace with no directory yet all
    land, each as its own shared pack."""
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
    assert [p.name for p in (tmp_path / "lm").iterdir()] == [SHARED]
    assert len(list((tmp_path / "lm" / SHARED).iterdir())) == len(keys)


def test_cache_reads_each_shared_pack_once(tmp_path, monkeypatch):
    """The shared scope reads its packs on its first request, not on each:
    50 distinct misses read no pack, and 50 hits through a fresh cache read
    each of the 50 one-line packs once."""
    reads = []
    read_gzip_text = cache_module._read_gzip_text
    monkeypatch.setattr(cache_module, "_read_gzip_text",
                        lambda path: reads.append(path) or read_gzip_text(path))
    requests = [{"op": "fetch", "url": f"http://x/{i}"} for i in range(50)]
    cache = RequestCache(tmp_path)
    for request in requests:
        cache.get_or_fetch("fetch", request, lambda: {"body": "x"})
    assert reads == []
    assert len(list((tmp_path / "fetch" / SHARED).iterdir())) == 50
    fresh = RequestCache(tmp_path)
    for request in requests:
        assert fresh.get_or_fetch("fetch", request, lambda: pytest.fail("fetched")) == {"body": "x"}
    assert len(reads) == len(set(reads)) == 50


def test_requests_from_helper_threads_land_in_their_questions_pack(tmp_path):
    """Requests made at once through a question's scope on threads other than
    the one that opened it are all stored in that question's one pack, none
    in shared and none lost; 20 questions give the first requests' race 20
    chances."""
    cache = RequestCache(tmp_path)
    requests = [{"op": "fetch", "url": f"http://x/{i}"} for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first requests interleave
    try:
        for question in range(20):
            start = threading.Barrier(len(requests))
            with cache.question_scope(f"q{question}") as scope:
                def work(request):
                    start.wait(timeout=10)
                    scope.get_or_fetch("fetch", request, lambda: {"body": request["url"]})

                helpers = [threading.Thread(target=work, args=(request,)) for request in requests]
                for t in helpers:
                    t.start()
                for t in helpers:
                    t.join(timeout=10)
                    assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not (tmp_path / "fetch" / SHARED).exists()
    lines = sorted(f"{request_digest(r)} {canonical_json({'body': r['url']})}" for r in requests)
    for question in range(20):
        [pack] = _question_dir(tmp_path, f"q{question}", "fetch").iterdir()
        assert _pack_lines(pack) == lines


def test_one_request_missed_by_two_threads_at_once_is_packed_once(tmp_path):
    """Two threads that miss one request of a question at once both fetch and
    store it; the question's pack still holds its line once, and has the name
    and bytes of the pack one thread alone writes."""
    request = {"op": "fetch", "url": "http://x/1"}
    both_missed = threading.Barrier(2)

    def fetch():
        both_missed.wait(timeout=10)  # neither thread stores until both have missed
        return {"body": "page"}

    racing = RequestCache(tmp_path / "racing")
    with racing.question_scope("q1") as scope:
        helpers = [threading.Thread(target=scope.get_or_fetch, args=("fetch", request, fetch))
                   for _ in range(2)]
        for t in helpers:
            t.start()
        for t in helpers:
            t.join(timeout=10)
            assert not t.is_alive()
    alone = RequestCache(tmp_path / "alone")
    with alone.question_scope("q1") as scope:
        scope.get_or_fetch("fetch", request, lambda: {"body": "page"})
    [pack] = _question_dir(tmp_path / "racing", "q1", "fetch").iterdir()
    [single] = _question_dir(tmp_path / "alone", "q1", "fetch").iterdir()
    assert _pack_lines(pack) == [f"{request_digest(request)} {canonical_json({'body': 'page'})}"]
    assert (pack.name, pack.read_bytes()) == (single.name, single.read_bytes())


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory, qa_dataset_path, banks_dir, web_root):
    """One fixture run with every (namespace, request, response) that passed
    through the cache and every prompt the backend was sent recorded; the
    fixture web stays served for the module."""
    workdir = tmp_path_factory.mktemp("recorded") / "w"
    seen = []
    prompts = []
    original = RequestCache.get_or_fetch
    sample, score = MockBackend.sample, MockBackend.score

    def recording(self, namespace, request, fetch):
        response = original(self, namespace, request, fetch)
        seen.append((namespace, request, response))
        return response

    def recording_sample(self, prompt, params, seed):
        prompts.append(prompt)
        return sample(self, prompt, params, seed)

    def recording_score(self, prompt, continuation):
        prompts.append(prompt)
        return score(self, prompt, continuation)

    with FixtureServer(web_root) as server:
        def flags(workdir, *extra):
            return ["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                    "--search-endpoint", server.base_url, "--banks-dir", str(banks_dir),
                    "--top-urls", "3", "--paragraphs", "2", "--samples-per-paragraph", "2",
                    "--closed-book-samples", "4", "--max-new-tokens", "16",
                    "--cost-points", "0,1", *extra]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RequestCache, "get_or_fetch", recording)
            mp.setattr(MockBackend, "sample", recording_sample)
            mp.setattr(MockBackend, "score", recording_score)
            assert cli.main(flags(workdir)) == 0
        yield {"workdir": workdir, "seen": seen, "prompts": prompts, "flags": flags}


def _question_dir(cache_root, qid, namespace="lm"):
    return cache_root / namespace / hashlib.sha256(qid.encode("utf-8")).hexdigest()


def _pack_lines(path) -> list[str]:
    return gunzip_bytes(path.read_bytes()).decode("utf-8").split("\n")[:-1]


def test_cache_files_hold_only_canonical_responses(recorded_run):
    """Every cache file is a pack of canonical responses of requests that went
    through the cache: a one-line shared pack for the describe request, made
    outside any question, and question packs for every search, fetch and LM
    request made inside questions."""
    cache_root = recorded_run["workdir"] / "cache"
    expected = {}
    for namespace, request, response in recorded_run["seen"]:
        where = SHARED if request["op"] == "describe" else "question"
        expected.setdefault((namespace, where), {})[request_digest(request)] = response
    assert set(expected) == {("lm", SHARED), *((ns, "question") for ns in ("search", "fetch", "lm"))}
    assert len(expected["lm", SHARED]) == 1
    stored = {}
    for path in (p for p in cache_root.rglob("*") if p.is_file()):
        namespace, directory, name = path.relative_to(cache_root).parts
        content = gunzip_bytes(path.read_bytes())
        assert name == f"{hashlib.sha256(content).hexdigest()}{PACK_SUFFIX}"
        lines = _pack_lines(path)
        assert lines == sorted(lines)
        where = SHARED if directory == SHARED else "question"
        for line in lines:
            digest, response = line.split(" ", 1)
            assert response == canonical_json(expected[namespace, where][digest])
            stored.setdefault((namespace, where), set()).add(digest)
    # a request two questions both made is in both questions' packs
    assert stored == {place: set(responses) for place, responses in expected.items()}
    assert len(list((cache_root / "lm" / SHARED).iterdir())) == 1


# --- per-question search and fetch packs -----------------------------------

def test_retrieve_writes_one_search_and_one_fetch_pack_per_question(recorded_run, qa_dataset_path):
    cache_root = recorded_run["workdir"] / "cache"
    records = load_dataset(qa_dataset_path)
    for namespace in ("search", "fetch"):
        assert sorted((cache_root / namespace).iterdir()) == sorted(
            _question_dir(cache_root, record.id, namespace) for record in records)
        for record in records:
            assert len(list(_question_dir(cache_root, record.id, namespace).iterdir())) == 1


def test_warm_and_offline_reruns_leave_the_cache_as_it_was(recorded_run, tmp_path):
    workdir = tmp_path / "w"
    shutil.copytree(recorded_run["workdir"], workdir)
    before = _tree(workdir)
    assert cli.main(recorded_run["flags"](workdir)) == 0
    assert _tree(workdir) == before
    assert cli.main(recorded_run["flags"](workdir, "--offline")) == 0
    assert _tree(workdir) == before


def test_url_listed_twice_for_a_question_is_fetched_once(tmp_path, qa_dataset_path, serve):
    gets = []

    def respond(handler):
        gets.append(handler.path)
        if handler.path.startswith("/search?"):
            host = handler.headers["Host"]
            body = json.dumps({"results": [f"http://{host}/page.html"] * 2})
            handler.reply(200, body.encode("utf-8"), "application/json")
        else:
            handler.reply(200, b"<p>Aurora Falls drops 214 meters.</p>", "text/html")

    base_url = serve(respond)
    config = PipelineConfig(dataset_path=str(qa_dataset_path), dataset_id="fixtureqa",
                            workdir=str(tmp_path), max_workers=1)
    pipeline = Pipeline(config, cached_backend(MockBackend(), tmp_path), FixtureSearchClient(base_url))
    pipeline.stage_retrieve()
    assert not pipeline.failed
    assert gets.count("/page.html") == len(pipeline.records)
    for record in pipeline.records:
        index = read_json_record(tmp_path / "index" / "questions" / f"{record.id}.json")
        assert index["urls"] == [f"{base_url}/page.html"] * 2
        [pack] = _question_dir(tmp_path / "cache", record.id, "fetch").iterdir()
        assert len(_pack_lines(pack)) == 1


def test_failed_retrieval_keeps_the_pages_it_fetched(tmp_path, qa_dataset_path, web_root,
                                                      monkeypatch):
    extracted = []
    extract_text = websearch.extract_text

    def failing_third(html):
        extracted.append(html)
        if len(extracted) == 3:
            raise ValueError("unparseable page")
        return extract_text(html)

    monkeypatch.setattr(websearch, "extract_text", failing_third)
    config = PipelineConfig(dataset_path=str(qa_dataset_path), dataset_id="fixtureqa",
                            workdir=str(tmp_path), max_workers=1)
    with FixtureServer(web_root) as server:
        pipeline = Pipeline(config, cached_backend(MockBackend(), tmp_path),
                            FixtureSearchClient(server.base_url))
        pipeline.stage_retrieve()
    first = pipeline.records[0].id
    assert pipeline.failed == {first: "retrieve: unparseable page"}
    assert not (tmp_path / "index" / "questions" / f"{first}.json").exists()
    [pack] = _question_dir(tmp_path / "cache", first, "fetch").iterdir()
    assert len(_pack_lines(pack)) == 3
    assert len(list(_question_dir(tmp_path / "cache", first, "search").iterdir())) == 1


def test_answer_pass_never_reads_fetch_packs(recorded_run, tmp_path, qa_dataset_path):
    """A fetch pack that cannot be decompressed fails every question of a
    retrieve pass, naming the pack, but not the answer pass that follows it."""
    workdir = tmp_path / "w"
    shutil.copytree(recorded_run["workdir"], workdir)
    for question_dir in (workdir / "cache" / "fetch").iterdir():
        (question_dir / f"{'0' * 64}{PACK_SUFFIX}").write_bytes(b"not gzip")
    offline = recorded_run["flags"](workdir, "--offline")[1:]
    before = _tree(workdir)
    assert cli.main(["answer", *offline]) == 0
    assert _tree(workdir) == before
    assert cli.main(["retrieve", *offline]) == 2
    failures = read_json_record(workdir / "failures.json")
    assert set(failures) == {record.id for record in load_dataset(qa_dataset_path)}
    for qid, reason in failures.items():
        corrupt = _question_dir(workdir / "cache", qid, "fetch") / f"{'0' * 64}{PACK_SUFFIX}"
        assert reason.startswith("retrieve: unreadable cache file") and str(corrupt) in reason


def test_unreadable_pack_or_entry_is_a_value_error_naming_its_file(tmp_path):
    """A shared or question pack that cannot be decompressed is a
    ``ValueError`` naming its file, on the first read of its directory."""
    key = CacheKey.for_request("fetch", {"op": "fetch", "url": "http://x"})
    RequestCache(tmp_path).put(key, {"body": "x"})
    [shared] = (tmp_path / "fetch" / SHARED).iterdir()
    shared.write_bytes(shared.read_bytes()[:-4])
    pack = _question_dir(tmp_path, "q1", "fetch") / f"{'0' * 64}{PACK_SUFFIX}"
    pack.parent.mkdir(parents=True)
    pack.write_bytes(gzip.compress(b"\xff\n"))
    cache = RequestCache(tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(shared))):
        cache.get(key)
    with pytest.raises(ValueError, match=re.escape(str(pack))), cache.question_scope("q1") as scope:
        scope.get(key)


def test_lm_entries_hold_no_prompt(recorded_run):
    cache_root = recorded_run["workdir"] / "cache"
    prompts = {canonical_json(prompt)[1:-1] for prompt in recorded_run["prompts"]}
    assert prompts
    lines = [line for path in (cache_root / "lm").rglob(f"*{PACK_SUFFIX}") for line in _pack_lines(path)]
    assert len(lines) >= len(prompts)
    for line in lines:
        assert not any(prompt in line for prompt in prompts)


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
    capsys.readouterr()
    assert cli.main(offline) == 3
    assert "offline cache miss" in capsys.readouterr().err


def test_run_over_old_packs_asks_again_and_offline_exits_3(recorded_run, tmp_path, capsys):
    """Packs with the older suffix are never read, even when their lines
    would match: online every LM request is asked for again, and offline
    the first LM miss, the model description, exits 3."""
    workdir = tmp_path / "w"
    shutil.copytree(recorded_run["workdir"], workdir)
    packs = list((workdir / "cache" / "lm").rglob(f"*{PACK_SUFFIX}"))
    assert packs and any(path.parent.name == SHARED for path in packs)
    old_packs = [path.with_name(path.name[:-len(PACK_SUFFIX)] + ".pack.gz") for path in packs]
    for path, old in zip(packs, old_packs):
        path.rename(old)
    capsys.readouterr()
    assert cli.main(recorded_run["flags"](workdir, "--offline")) == 3
    err = capsys.readouterr().err
    assert '"op":"describe"' in err  # a run's first LM request describes the model

    fetched = []
    original = RequestCache.get_or_fetch

    def recording(self, namespace, request, fetch):
        def recorded_fetch():
            fetched.append(request_digest(request))
            return fetch()
        return original(self, namespace, request, recorded_fetch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RequestCache, "get_or_fetch", recording)
        assert cli.main(recorded_run["flags"](workdir)) == 0
    assert set(fetched) == {request_digest(request) for namespace, request, _ in recorded_run["seen"]
                            if namespace == "lm"}
    assert all(old.exists() for old in old_packs)


# --- LM request keys -------------------------------------------------------

# A change to any of these digests makes every existing LM cache unreadable.
# They are keyed by the bare identity "mock", which _bare() puts on a backend.
PINNED_LM_DIGESTS = {
    "describe": "5f9d6ac35e84761b3e11c8ee68d6e17536a5dcf64b13958eb82a9ff583e63723",
    "score": "48cf8991ca942f1b86684952c2bdf0dadb2e23e8257e315979723995271a8d4b",
    "sample": "4e1d60d91cc8b787987405024e84d605ee45fbea38f0359a9b7b93b097bc221a",
    "count_tokens": "df9ce11bf8016bb1960d23a021686e6c4e68942f9efe62294af9f29247f9b3e2",
}


def _bare(inner):
    """``inner`` with the cache identity ``mock``."""
    inner.identity = "mock"
    return inner


@pytest.mark.parametrize("op", sorted(PINNED_LM_DIGESTS))
def test_lm_request_digests_are_pinned(tmp_path, op):
    cached = CachedBackend(_bare(MockBackend()), RequestCache(tmp_path))
    call = {
        "describe": cached.describe,
        "score": lambda: cached.score("Question: Who wrote Hamlet?\nAnswer:", " Shakespeare"),
        "sample": lambda: cached.sample("Question: Who wrote Hamlet?\nAnswer:",
                                        GenerationParams(n_samples=2), seed=7),
        "count_tokens": lambda: cached.count_tokens("Question: Who wrote Hamlet?"),
    }[op]
    call()
    [directory] = (tmp_path / "lm").iterdir()
    [pack] = directory.iterdir()
    assert directory.name == SHARED
    assert [line.split(" ")[0] for line in _pack_lines(pack)] == [PINNED_LM_DIGESTS[op]]


def test_sample_and_score_entries_without_token_counts_are_not_read(tmp_path):
    """Entries stored under the keys that samples and scores had before their
    responses carried token counts are never read as the new responses."""
    cache = RequestCache(tmp_path)
    prompt = "Question: Who wrote Hamlet?\nAnswer:"
    params = GenerationParams(n_samples=2)
    prompt_sha256 = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    cache.put(CacheKey.for_request("lm", {"op": "score", "backend": "mock", "prompt_sha256": prompt_sha256,
                                          "continuation": " Shakespeare"}), -1.0)
    cache.put(CacheKey.for_request("lm", {"op": "sample", "backend": "mock", "prompt_sha256": prompt_sha256,
                                          "params": params.to_json(), "seed": 7}),
              [{"text": "old", "logprob": -1.0}])
    inner = _bare(_RecordingMock())
    cached = CachedBackend(inner, cache)
    assert cached.score(prompt, " Shakespeare") == MockBackend().score(prompt, " Shakespeare")
    assert cached.sample(prompt, params, seed=7) == MockBackend().sample(prompt, params, seed=7)
    assert [request[0] for request in inner.requests] == ["score", "sample"]


def test_offline_replay_never_encodes_a_prompt(tmp_path, qa_dataset_path, banks_dir, monkeypatch):
    """A cache key holds a prompt's hash, never the prompt: no canonical JSON
    made during an offline replay is as long as the shortest prompt sent."""
    inner = _RecordingMock()
    _gold_run(qa_dataset_path, tmp_path, banks_dir, inner, max_workers=1)
    shortest = min(len(request[1]) for request in inner.requests if request[0] in ("sample", "score"))
    longest = 0
    original = cache_module.canonical_json

    def measuring(obj):
        nonlocal longest
        text = original(obj)
        longest = max(longest, len(text))
        return text

    monkeypatch.setattr(cache_module, "canonical_json", measuring)
    replay = CachedBackend(_bare(MockBackend()), RequestCache(tmp_path / "cache", offline=True))
    Pipeline(_gold_config(qa_dataset_path, tmp_path, banks_dir, max_workers=1), replay).run()
    assert 0 < longest < shortest


def test_warm_replay_hashes_no_prompt_text_and_renders_a_given_p_once_per_paragraph(
        tmp_path, qa_dataset_path, banks_dir, monkeypatch):
    """A prompt's digest comes with its rendering, from its bank prefix's hash
    state: a warm replay runs SHA-256 over no whole prompt text, and renders
    the a|p prompt, which every answer of a paragraph is scored against, once
    per paragraph."""
    _gold_run(qa_dataset_path, tmp_path, banks_dir, MockBackend(), max_workers=1)
    hashed, prompts, a_p_renders = [], set(), []
    sha256 = hashlib.sha256

    def recording_sha256(*args, **kwargs):
        hashed.append(bytes(args[0]) if args else b"")
        return sha256(*args, **kwargs)

    def recording(render):
        def rendering(*args, **kwargs):
            prompt = render(*args, **kwargs)
            prompts.add(prompt.text)
            if prompt.kind == "a_given_p":
                a_p_renders.append(prompt.evidence)
            return prompt
        return rendering

    for name in ("render_prompt", "render_qa_prompt", "render_closed_book_prompt", "fit_to_context"):
        monkeypatch.setattr(pipeline_module, name, recording(getattr(pipeline_module, name)))
    monkeypatch.setattr(hashlib, "sha256", recording_sha256)
    replay = CachedBackend(_bare(MockBackend()), RequestCache(tmp_path / "cache", offline=True))
    Pipeline(_gold_config(qa_dataset_path, tmp_path, banks_dir, max_workers=1), replay).run()
    monkeypatch.undo()

    assert prompts and hashed
    assert [data for data in hashed if data.decode("utf-8", "replace") in prompts] == []
    paragraphs = {(path.stem, row["paragraph_index"])
                  for path in (tmp_path / "candidates" / GOLD).glob("*.json")
                  for row in read_json_record(path)["pool"]}
    assert len(a_p_renders) == len(paragraphs) > 0


def test_warm_replay_fits_prompts_without_hashing_their_text(
        tmp_path, qa_dataset_path, banks_dir, monkeypatch):
    """A count made while fitting a prompt is keyed by the rendering's digest:
    a warm replay at a 60-token context fits prompts and runs SHA-256 over the
    text of none of the renderings it counts."""
    _gold_run(qa_dataset_path, tmp_path, banks_dir, MockBackend(), max_workers=1, context_tokens=60)
    hashed, counted = [], set()
    sha256 = hashlib.sha256

    def recording_sha256(*args, **kwargs):
        hashed.append(bytes(args[0]) if args else b"")
        return sha256(*args, **kwargs)

    def recording_fit(fit):
        def fitting(prompt, count_tokens, **kwargs):
            def counting(rendering):
                counted.add(rendering.text)
                return count_tokens(rendering)
            return fit(prompt, counting, **kwargs)
        return fitting

    monkeypatch.setattr(pipeline_module, "fit_to_context", recording_fit(pipeline_module.fit_to_context))
    monkeypatch.setattr(hashlib, "sha256", recording_sha256)
    replay = CachedBackend(_bare(MockBackend()), RequestCache(tmp_path / "cache", offline=True))
    Pipeline(_gold_config(qa_dataset_path, tmp_path, banks_dir, max_workers=1, context_tokens=60), replay).run()
    monkeypatch.undo()

    assert counted and hashed
    assert [data for data in hashed if data.decode("utf-8", "replace") in counted] == []


def test_pipeline_is_offline_exactly_when_its_backend_is(tmp_path, qa_dataset_path):
    """A pipeline has one cache, its backend's: over an offline backend whose
    cache holds only the describe entry, retrieval misses on the first search
    and never asks the search client."""
    cached_backend(MockBackend(), tmp_path).describe()
    before = _tree(tmp_path)

    class NoSearch:
        def search(self, query, num):
            pytest.fail("an offline pipeline called its search client")

    config = PipelineConfig(dataset_path=str(qa_dataset_path), dataset_id="fixtureqa",
                            workdir=str(tmp_path), max_workers=1)
    offline = cached_backend(MockBackend(), tmp_path, offline=True)
    pipeline = Pipeline(config, offline, NoSearch())
    with pytest.raises(OfflineCacheMiss, match="search request"):
        pipeline.stage_retrieve()
    assert _tree(tmp_path) == before
    assert pipeline.cache is offline.cache

    flags = ["run", "--dataset", str(qa_dataset_path), "--workdir", str(tmp_path),
             "--evidence", "gold", "--offline"]
    built = cli.make_pipeline(cli.effective_config(cli.build_parser().parse_args(flags)))
    assert built.cache is built.backend.cache and built.cache.offline


# --- per-question packs ----------------------------------------------------

class _RecordingMock(MockBackend):
    """MockBackend that records each request it answers and can raise
    ``OSError`` on its ``fail_at``-th request."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.requests = []
        self.calls = 0
        self.fail_at = fail_at
        self._lock = threading.Lock()

    def _record(self, request):
        with self._lock:
            self.calls += 1
            if self.calls == self.fail_at:
                raise OSError("injected backend failure")
            self.requests.append(request)

    def describe(self):
        self._record(("describe",))
        return super().describe()

    def sample(self, prompt, params, seed):
        self._record(("sample", prompt, params.n_samples, seed))
        return super().sample(prompt, params, seed)

    def score(self, prompt, continuation):
        self._record(("score", prompt, continuation))
        return super().score(prompt, continuation)

    def count_tokens(self, text):
        self._record(("count_tokens", text))
        return super().count_tokens(text)


def test_scope_writes_its_misses_once_as_one_pack(tmp_path):
    inner = _RecordingMock()
    cache = RequestCache(tmp_path)
    cached = CachedBackend(inner, cache)
    with cache.question_scope("q1") as scope:
        scoped = cached.scoped(scope)
        first = scoped.score("p", " c")
        assert scoped.score("p", " c") == first
        assert scoped.count_tokens("a b") == 2
        assert not (tmp_path / "lm").exists()
    assert len(inner.requests) == 2
    [pack] = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert pack.parent == _question_dir(tmp_path, "q1")
    lines = _pack_lines(pack)
    digests = [request_digest({"op": "score_with_tokens", "backend": inner.identity,
                               "prompt_sha256": hashlib.sha256(b"p").hexdigest(),
                               "continuation": " c"}),
               request_digest({"op": "count_tokens", "backend": inner.identity,
                               "text_sha256": hashlib.sha256(b"a b").hexdigest()})]
    assert sorted(lines) == lines
    assert sorted(lines) == sorted([f"{digests[0]} {canonical_json(first.to_json())}", f"{digests[1]} 2"])

    with cache.question_scope("q1") as scope:
        assert cached.scoped(scope).score("p", " c") == first
        assert cached.scoped(scope).count_tokens("a b") == 2
    assert len(inner.requests) == 2
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [pack]


def test_question_reads_only_its_own_packs(tmp_path):
    """A question reads neither the shared packs nor another question's;
    outside any question the shared packs still answer."""
    inner = _RecordingMock()
    cache = RequestCache(tmp_path)
    cached = CachedBackend(inner, cache)
    cached.score("p", " c")
    with cache.question_scope("q1") as scope:
        cached.scoped(scope).score("p", " c")
    with cache.question_scope("q2") as scope:
        cached.scoped(scope).score("p", " c")
    assert len(inner.requests) == 3
    q1 = [p.read_bytes() for p in _question_dir(tmp_path, "q1").iterdir()]
    q2 = [p.read_bytes() for p in _question_dir(tmp_path, "q2").iterdir()]
    shared = [p.read_bytes() for p in (tmp_path / "lm" / SHARED).iterdir()]
    assert q1 == q2 == shared and len(q1) == 1
    cached.score("p", " c")
    assert len(inner.requests) == 3


def test_offline_scope_serves_its_pack_and_writes_nothing(tmp_path):
    cache = RequestCache(tmp_path)
    with cache.question_scope("q1") as scope:
        value = CachedBackend(MockBackend(), scope).score("p", " c")
    before = sorted(p for p in tmp_path.rglob("*"))
    offline_cache = RequestCache(tmp_path, offline=True)
    offline = CachedBackend(MockBackend(), offline_cache)
    with offline_cache.question_scope("q1") as scope:
        assert offline.scoped(scope).score("p", " c") == value
        with pytest.raises(OfflineCacheMiss):
            offline.scoped(scope).score("p", " other")
    with offline_cache.question_scope("q2") as scope, pytest.raises(OfflineCacheMiss):
        offline.scoped(scope).score("p", " c")
    assert sorted(p for p in tmp_path.rglob("*")) == before


def test_pack_keeps_responses_with_unicode_line_separators(tmp_path):
    cache = RequestCache(tmp_path)
    response = {"text": "a\u2028b\x85c\x1cd\re"}
    with cache.question_scope("q1") as scope:
        scope.get_or_fetch("lm", {"op": "x"}, lambda: response)
    with cache.question_scope("q1") as scope:
        assert scope.get_or_fetch("lm", {"op": "x"}, lambda: pytest.fail("refetched")) == response


def test_failing_scope_still_saves_what_it_fetched(tmp_path):
    inner = _RecordingMock(fail_at=3)
    cache = RequestCache(tmp_path)
    cached = CachedBackend(inner, cache)
    with pytest.raises(OSError), cache.question_scope("q1") as scope:
        for i in range(5):
            cached.scoped(scope).score("p", f" {i}")
    assert len(list(_question_dir(tmp_path, "q1").iterdir())) == 1
    again = _RecordingMock()
    resumed_cache = RequestCache(tmp_path)
    resumed = CachedBackend(again, resumed_cache)
    with resumed_cache.question_scope("q1") as scope:
        for i in range(5):
            resumed.scoped(scope).score("p", f" {i}")
    assert again.requests == [("score", "p", f" {i}") for i in (2, 3, 4)]
    assert len(list(_question_dir(tmp_path, "q1").iterdir())) == 2


def _gold_config(dataset_path, workdir, banks_dir, **kwargs):
    return PipelineConfig(
        dataset_path=str(dataset_path), dataset_id="fixtureqa", workdir=str(workdir),
        evidence=GOLD, banks_dir=str(banks_dir), top_paragraphs=4, samples_per_paragraph=2,
        closed_book_samples=4, max_new_tokens=16, cost_points=(0, 1, 2), **kwargs)


def _gold_run(dataset_path, workdir, banks_dir, inner, **kwargs) -> Pipeline:
    config = _gold_config(dataset_path, workdir, banks_dir, **kwargs)
    backend = CachedBackend(_bare(inner), RequestCache(workdir / "cache"))
    pipeline = Pipeline(config, backend)
    pipeline.run()
    return pipeline


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pack_bytes_depend_only_on_the_question(tmp_path, qa_dataset_path, banks_dir):
    """Same packs with 1 or 8 workers, and whether or not other questions
    ran in the workdir before or after."""
    lines = qa_dataset_path.read_text(encoding="utf-8").splitlines(keepends=True)
    first_id = json.loads(lines[0])["id"]
    others = tmp_path / "others.jsonl"
    others.write_text("".join(lines[1:]), encoding="utf-8")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so scopes of 8 workers interleave
    try:
        _gold_run(qa_dataset_path, tmp_path / "a", banks_dir, MockBackend(), max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    _gold_run(others, tmp_path / "b", banks_dir, MockBackend(), max_workers=1)
    full = _tree(tmp_path / "a" / "cache" / "lm")
    first_dir = _question_dir(tmp_path / "a" / "cache", first_id).name
    assert any(name.startswith(first_dir) for name in full)
    assert _tree(tmp_path / "b" / "cache" / "lm") == {
        name: data for name, data in full.items() if not name.startswith(first_dir)}

    # the first question joins a workdir where the others already ran; they hit and write nothing
    inner = _RecordingMock()
    _gold_run(qa_dataset_path, tmp_path / "b", banks_dir, inner, max_workers=1)
    assert inner.requests
    assert _tree(tmp_path / "b" / "cache" / "lm") == full


def test_failed_question_keeps_its_pack_and_resumes(tmp_path, qa_dataset_path, banks_dir):
    reference = _RecordingMock()
    _gold_run(qa_dataset_path, tmp_path / "ref", banks_dir, reference, max_workers=1)

    workdir = tmp_path / "w"
    failing = _RecordingMock(fail_at=40)
    pipeline = _gold_run(qa_dataset_path, workdir, banks_dir, failing, max_workers=1)
    [(qid, reason)] = pipeline.failed.items()
    assert reason == "answer: injected backend failure"
    assert read_json_record(workdir / "failures.json") == {qid: reason}
    assert len(list(_question_dir(workdir / "cache", qid).iterdir())) == 1

    resumed = _RecordingMock()
    _gold_run(qa_dataset_path, workdir, banks_dir, resumed, max_workers=1)
    assert resumed.requests
    # the two runs together sent exactly the requests of one clean run
    assert sorted(resumed.requests + failing.requests) == sorted(reference.requests)
