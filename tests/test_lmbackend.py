import hashlib
import json
import re
import math
import random
from dataclasses import replace

import pytest

from webqa import fixtures, lmbackend, net
from webqa.cache import CacheKey, RequestCache
from webqa.fixtures import FixtureServer
from webqa.lmbackend import (
    CachedBackend,
    Completion,
    GenerationParams,
    HTTPBackend,
    MockBackend,
    PromptTooLong,
    Sample,
    Score,
    extractive_completion,
    flops_for_tokens,
    hash_score,
    softmax_scores,
)
from webqa.cache import OfflineCacheMiss


class TestGenerationParams:
    def test_defaults(self):
        p = GenerationParams()
        assert p.nucleus_p == 0.8
        assert p.temperature == 1.0
        assert p.max_new_tokens == 64
        assert p.stop == ("\n",)

    @pytest.mark.parametrize("kwargs", [
        {"nucleus_p": 0.0}, {"nucleus_p": 1.5}, {"temperature": 0.0},
        {"temperature": -1.0}, {"max_new_tokens": 0}, {"n_samples": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GenerationParams(**kwargs)

    def test_json_roundtrip_is_canonical(self):
        p = GenerationParams(n_samples=4)
        assert p.to_json() == {"nucleus_p": 0.8, "temperature": 1.0,
                               "max_new_tokens": 64, "stop": ["\n"],
                               "n_samples": 4}


def test_softmax_hand_values():
    # scores {a: 1, b: 0}: p(a) = e/(e+1), p(b) = 1/(e+1)
    probs = softmax_scores({"a": 1.0, "b": 0.0})
    e = math.e
    assert probs["a"] == pytest.approx(e / (e + 1), abs=1e-12)
    assert probs["b"] == pytest.approx(1 / (e + 1), abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_softmax_shift_invariance():
    a = softmax_scores({"x": -1000.0, "y": -1001.0})
    b = softmax_scores({"x": 0.0, "y": -1.0})
    assert a["x"] == pytest.approx(b["x"], abs=1e-12)
    assert math.isfinite(a["x"])


def test_flops_is_two_params_tokens_exact_int():
    assert flops_for_tokens(280_000_000_000, 1024) == 2 * 280_000_000_000 * 1024
    assert isinstance(flops_for_tokens(7, 3), int)
    assert flops_for_tokens(1_000_000, 0) == 0


def _generator_to_alphabet(text):
    """Reference normalisation: one character at a time."""
    return "".join(ch if ch in lmbackend.HASHLM_ALPHABET else " " for ch in text.lower())


_ALPHABET_PIECES = ["a", "Z", "q", "0", "9", ".", " ", "\n", "\t", "\r\n", ",", "?", "~",
                    "İ", "ß", "Σ", "ς", "é", "\u00a0", "\u2014", "\U0001F600", "\ud800", "Straße"]

# About 6 KB, the size of a paper-setting prompt.
_LONG_PROMPT = "".join(
    f"Evidence: Bridge {i} over the Ørsund bay opened in {1900 + i}; it is {i * 7} m long.\n"
    f"Question: when did bridge {i} open?\nAnswer: {1900 + i}\n\n"
    for i in range(50)
) + "Evidence: The bridge opened in 1932.\nQuestion: when did the bridge open?\nAnswer:"

# float.hex() of each score, recorded with the per-character reference
# implementation under Python 3.11; sum() would change some of them on 3.12+.
_PINNED_SCORES = [
    ("evidence. the answer is", " 42 ok", "-0x1.3f6d36c0428f1p+5"),
    ("Question: q\nAnswer:", " forty two", "-0x1.0188ed3bcedc3p+6"),
    ("", "a", "-0x1.086658c4373cap+2"),
    ("İstanbul Straße ΣΑΣ\U0001F600\tx\r\n", " Ünïcode ß\r\n", "-0x1.1637e66233f5ep+6"),
    (_LONG_PROMPT, " 1932", "-0x1.c86be815c6eb6p+4"),
]


class TestHashLM:
    """The hash-driven scorer behind MockBackend."""

    def test_to_alphabet_matches_generator_reference(self):
        rng = random.Random(7)
        texts = _ALPHABET_PIECES + ["".join(rng.choice(_ALPHABET_PIECES) for _ in range(rng.randrange(0, 40)))
                                    for _ in range(3000)]
        for text in texts:
            assert lmbackend._to_alphabet(text) == _generator_to_alphabet(text), repr(text)
        assert lmbackend._to_alphabet("İ") == "i "

    @pytest.mark.parametrize("prompt,continuation,expected", _PINNED_SCORES)
    def test_pinned_scores(self, prompt, continuation, expected):
        assert hash_score(prompt, continuation).hex() == expected

    def test_chain_rule_exact(self):
        """log p(c1 c2 | prompt) must equal log p(c1|prompt) +
        log p(c2|prompt c1) to float precision."""
        lm = MockBackend()
        prompt = "evidence. the answer is"
        cont = " 42 ok"
        whole = lm.score(prompt, cont).logprob
        split = sum(lm.score(prompt + cont[:i], cont[i]).logprob
                    for i in range(len(cont)))
        assert whole == pytest.approx(split, abs=1e-12)

    def test_score_is_negative_and_finite(self):
        lm = MockBackend()
        lp = lm.score("a prompt", " continuation").logprob
        assert math.isfinite(lp) and lp < 0.0

    def test_count_tokens_is_whitespace_words(self):
        lm = MockBackend()
        assert lm.count_tokens("a b  c\nd") == 4
        assert lm.count_tokens("") == 0


class TestMockBackend:
    def test_describe(self):
        d = MockBackend().describe()
        assert d.name == "mock"
        assert d.param_count == 1_000_000
        assert d.context_tokens == 2048
        assert d.can_score

    def test_completions_are_extractive_from_evidence(self):
        prompt = ("Evidence: the bridge opened in 1932 over the bay\n"
                  "Question: when did the bridge open\n"
                  "Answer:")
        backend = MockBackend()
        params = GenerationParams(n_samples=4)
        evidence_words = set("the bridge opened in 1932 over the bay".split())
        for s in backend.sample(prompt, params, seed=0):
            assert s.text
            assert set(s.text.split()) <= evidence_words

    def test_sample_deterministic_and_seed_sensitive(self):
        backend = MockBackend()
        params = GenerationParams(n_samples=3)
        prompt = "Evidence: alpha beta gamma delta\nQuestion: q\nAnswer:"
        assert backend.sample(prompt, params, seed=1) == \
            backend.sample(prompt, params, seed=1)
        assert backend.sample(prompt, params, seed=1) != \
            backend.sample(prompt, params, seed=2)

    def test_score_chain_rule(self):
        backend = MockBackend()
        prompt = "Question: q\nAnswer:"
        cont = " forty two"
        whole = backend.score(prompt, cont).logprob
        split = backend.score(prompt, " forty").logprob + \
            backend.score(prompt + " forty", " two").logprob
        assert whole == pytest.approx(split, abs=1e-12)

    def test_repeated_samples_keep_pinned_logprobs(self):
        prompt = ("Evidence: the bridge opened in 1932 over the bay\n"
                  "Question: when did the bridge open\nAnswer:")
        samples = MockBackend().sample(prompt, GenerationParams(n_samples=8), seed=0)
        assert [(s.text, s.logprob.hex()) for s in samples] == [
            ("1932", "-0x1.accd6b782c295p+4"),
            ("in 1932", "-0x1.bfebb02d8c364p+5"),
            ("bay", "-0x1.6925877acaa23p+4"),
            ("in 1932", "-0x1.bfebb02d8c364p+5"),
            ("opened in", "-0x1.0e036eaaacb65p+6"),
            ("opened in", "-0x1.0e036eaaacb65p+6"),
            ("opened", "-0x1.ba8d92a86e3f3p+5"),
            ("in", "-0x1.5453ed08ceac0p+4"),
        ]

    def test_scoring_unsupported(self):
        backend = MockBackend(can_score=False)
        assert not backend.describe().can_score


def test_extractive_completion_spans_evidence():
    prompt = "Evidence: one two three four five\nQuestion: q\nAnswer:"
    texts = {extractive_completion(prompt, seed, index)
             for seed in range(3) for index in range(4)}
    words = "one two three four five".split()
    for text in texts:
        got = text.split()
        assert 1 <= len(got) <= 3
        # contiguous span of the evidence
        joined = " ".join(words)
        assert " ".join(got) in joined
    assert len(texts) > 1


def test_extractive_completion_without_evidence_uses_question():
    prompt = "Question: where is the tall tower\nAnswer:"
    text = extractive_completion(prompt, 0, 0)
    assert set(text.split()) <= set("where is the tall tower".split())


class _RecordingMock(MockBackend):
    """Records the name of every sample and score request it serves."""

    def __init__(self):
        super().__init__()
        self.methods = []

    def sample(self, prompt, params, seed):
        self.methods.append("sample")
        return super().sample(prompt, params, seed)

    def score(self, prompt, continuation):
        self.methods.append("score")
        return super().score(prompt, continuation)


class TestCachedBackend:
    def test_sample_cached_once(self, tmp_path):
        inner = _RecordingMock()
        cached = CachedBackend(inner, RequestCache(tmp_path))
        params = GenerationParams(n_samples=2)
        prompt = "Evidence: a b c\nQuestion: q\nAnswer:"
        first = cached.sample(prompt, params, seed=3)
        second = cached.sample(prompt, params, seed=3)
        assert first == second
        assert inner.methods == ["sample"]

    def test_score_cached_once(self, tmp_path):
        inner = _RecordingMock()
        cached = CachedBackend(inner, RequestCache(tmp_path))
        a = cached.score("p", " c")
        b = cached.score("p", " c")
        assert a == b
        assert inner.methods == ["score"]

    def test_offline_serves_hits_and_raises_on_miss(self, tmp_path):
        cache = RequestCache(tmp_path)
        warm = CachedBackend(MockBackend(), cache)
        warm.score("p", " c")
        offline = CachedBackend(MockBackend(), RequestCache(tmp_path, offline=True))
        assert offline.score("p", " c") == warm.score("p", " c")
        with pytest.raises(OfflineCacheMiss):
            offline.score("p", " other")

    def test_identity_partitions_cache(self, tmp_path):
        """Two different model identities must not share cached scores."""
        class FixedScore(MockBackend):
            def __init__(self, value, identity):
                super().__init__()
                self.value = value
                self.identity = identity

            def score(self, prompt, continuation):
                return Score(self.value, 1, 1)

        cache = RequestCache(tmp_path)
        a = CachedBackend(FixedScore(-1.0, "model-a"), cache)
        b = CachedBackend(FixedScore(-2.0, "model-b"), cache)
        assert a.score("p", " c").logprob == -1.0
        assert b.score("p", " c").logprob == -2.0

    def test_identity_is_read_once_from_the_backend_it_is_built_on(self, tmp_path):
        """A backend without an identity cannot be cached, but may replace the
        ``inner`` of a cached backend, whose keys stay as they were."""
        class Anonymous(MockBackend):
            def __init__(self):
                super().__init__()
                del self.identity

        with pytest.raises(AttributeError, match="identity"):
            CachedBackend(Anonymous(), RequestCache(tmp_path))
        cached = CachedBackend(MockBackend(), RequestCache(tmp_path))
        cached.inner = Anonymous()
        assert cached.identity == "mock(param_count=1000000)"
        assert cached.score("p", " c") == MockBackend().score("p", " c")

    @pytest.mark.parametrize("op, response, message", [
        ("score_with_tokens", {"logprob": "x"}, "/v1/score returned logprob 'x', not a finite number"),
        ("sample_with_tokens", {"samples": [], "prompt_tokens": -1},
         "/v1/complete returned prompt_tokens -1, not a non-negative integer"),
        ("describe", {"name": "mock"}, "/v1/model returned no 'param_count'"),
        *[("count_tokens", bad, f"/v1/count_tokens returned tokens {bad!r}, not a non-negative integer")
          for bad in ("7", 7.5, True, -1)],
    ])
    def test_malformed_cached_response_is_a_value_error(self, tmp_path, op, response, message):
        prompt_sha256 = hashlib.sha256(b"p").hexdigest()
        request = {
            "score_with_tokens": {"prompt_sha256": prompt_sha256, "continuation": " c"},
            "sample_with_tokens": {"prompt_sha256": prompt_sha256,
                                   "params": GenerationParams().to_json(), "seed": 7},
            "describe": {},
            "count_tokens": {"text_sha256": prompt_sha256},
        }[op]
        cache = RequestCache(tmp_path)
        cache.put(CacheKey.for_request("lm", {"op": op, "backend": "mock", **request}), response)
        inner = MockBackend()
        inner.identity = "mock"
        cached = CachedBackend(inner, cache)
        call = {"score_with_tokens": lambda: cached.score("p", " c"),
                "sample_with_tokens": lambda: cached.sample("p", GenerationParams(), 7),
                "describe": cached.describe, "count_tokens": lambda: cached.count_tokens("p")}[op]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_description_that_cannot_be_read_is_never_stored(self, tmp_path):
        with pytest.raises(ValueError, match="^/v1/model returned context_tokens 0"):
            CachedBackend(MockBackend(context_tokens=0), RequestCache(tmp_path)).describe()
        assert not (tmp_path / "lm" / "shared").exists()
        same_identity = CachedBackend(MockBackend(), RequestCache(tmp_path))
        assert same_identity.describe() == MockBackend().describe()

    @pytest.mark.parametrize("op, message", [
        ("score", "/v1/score returned logprob nan, not a finite number"),
        ("sample", "/v1/complete returned tokens -1, not a non-negative integer"),
        ("count_tokens", "/v1/count_tokens returned tokens -1, not a non-negative integer"),
    ])
    def test_fresh_response_that_cannot_be_read_is_never_stored(self, tmp_path, op, message):
        """An in-process backend's response fails the checks a cached one
        goes through, so it is refused before it is stored, and a readable
        backend of the same identity is then asked."""
        class Unreadable(MockBackend):
            def score(self, prompt, continuation):
                return Score(math.nan, 1, 1)

            def sample(self, prompt, params, seed):
                return Completion((Sample("a", -1.0, -1),), 1)

            def count_tokens(self, text):
                return -1

        calls = {"score": lambda backend: backend.score("p", " c"),
                 "sample": lambda backend: backend.sample("p", GenerationParams(), 7),
                 "count_tokens": lambda backend: backend.count_tokens("p")}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[op](CachedBackend(Unreadable(), RequestCache(tmp_path)))
        assert not (tmp_path / "lm").exists()
        assert calls[op](CachedBackend(MockBackend(), RequestCache(tmp_path))) == calls[op](MockBackend())
        assert len(list((tmp_path / "lm" / "shared").iterdir())) == 1

    def test_count_tokens_cached(self, tmp_path):
        inner = MockBackend()
        cached = CachedBackend(inner, RequestCache(tmp_path))
        assert cached.count_tokens("a b c") == 3
        assert cached.count_tokens("a b c") == 3

    def test_a_given_digest_writes_the_packs_the_text_does(self, tmp_path):
        """A caller's ``prompt_sha256`` keys a sample or score as hashing the
        prompt would, so both write the same pack bytes and read each other's."""
        prompt = "Evidence: Café — 東京\nQuestion: where\nAnswer:"
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        params = GenerationParams(n_samples=3)
        trees = []
        for name, given in (("hashed", {}), ("given", {"prompt_sha256": digest})):
            inner = _RecordingMock()
            cache = RequestCache(tmp_path / name)
            with cache.question_scope("q1") as scope:
                cached = CachedBackend(inner, cache).scoped(scope)
                cached.score(prompt, " Zürich", **given)
                cached.sample(prompt, params, 5, **given)
            with cache.question_scope("q1") as scope:
                cached = CachedBackend(inner, cache).scoped(scope)
                assert cached.score(prompt, " Zürich") == cached.score(prompt, " Zürich", prompt_sha256=digest)
                assert cached.sample(prompt, params, 5) == cached.sample(prompt, params, 5, prompt_sha256=digest)
            assert inner.methods == ["score", "sample"]
            trees.append({path.relative_to(tmp_path / name): path.read_bytes()
                          for path in (tmp_path / name).rglob("*") if path.is_file()})
        assert trees[0] == trees[1] and len(trees[0]) == 1


# a well-formed response on each LM route
_GOOD_BODIES = {
    "/v1/count_tokens": {"tokens": 7},
    "/v1/complete": {"samples": [{"text": "Aurora Falls", "logprob": -1.5, "tokens": 2}],
                     "prompt_tokens": 9},
    "/v1/score": {"logprob": -1.5, "prompt_tokens": 9, "continuation_tokens": 2},
}


def _with_field(route: str, field: str, value, in_sample: bool) -> bytes:
    """The good ``route`` body with ``field`` (of its one sample) set to
    ``value``, or removed when ``value`` is ``...``."""
    body = json.loads(json.dumps(_GOOD_BODIES[route]))
    target = body["samples"][0] if in_sample else body
    if value is ...:
        del target[field]
    else:
        target[field] = value
    return json.dumps(body).encode("utf-8")


def _model_with(field: str, value) -> bytes:
    """The mock's ``/v1/model`` body with ``field`` set to ``value``."""
    return json.dumps({**MockBackend().describe().to_json(), field: value}).encode("utf-8")


def _answering(status: int, body: bytes, posts: list | None = None):
    """``respond`` for ``serve``: the mock's description to a GET, ``status``
    and ``body`` to each POST, whose path goes to ``posts``."""
    model = json.dumps(MockBackend().describe().to_json()).encode("utf-8")

    def respond(handler):
        if handler.command == "GET":
            handler.reply(200, model, "application/json")
            return
        if posts is not None:
            posts.append(handler.path)
        handler.rfile.read(int(handler.headers["Content-Length"]))
        handler.reply(status, body, "application/json")

    return respond


_COUNT_FIELDS = [("/v1/complete", "prompt_tokens", False), ("/v1/complete", "tokens", True),
                 ("/v1/score", "prompt_tokens", False), ("/v1/score", "continuation_tokens", False)]
# (route, body, message) for a token count that is missing, negative, a bool, a float or a string
_MALFORMED_TOKEN_COUNTS = [
    (route, _with_field(route, field, value, in_sample), message)
    for route, field, in_sample in _COUNT_FIELDS
    for value, message in [(..., f"no {field!r}"),
                           *[(bad, f"{field} {bad!r}, not a non-negative integer")
                             for bad in (-1, True, 1.5, "7")]]
]


class TestHTTPBackend:
    """HTTPBackend against the fixture server, whose LM routes wrap a MockBackend."""

    PROMPT = "Evidence: Aurora Falls drops 214 meters.\nQuestion: which falls\nAnswer:"

    @pytest.fixture(scope="class")
    def server(self, web_root):
        with FixtureServer(web_root) as srv:
            yield srv

    def test_matches_mock(self, server):
        http, mock = HTTPBackend(server.base_url), MockBackend()
        params = GenerationParams(n_samples=3)
        assert http.describe() == mock.describe()
        assert http.sample(self.PROMPT, params, 7) == mock.sample(self.PROMPT, params, 7)
        assert http.score(self.PROMPT, " Aurora Falls") == mock.score(self.PROMPT, " Aurora Falls")
        assert http.count_tokens(self.PROMPT) == mock.count_tokens(self.PROMPT)

    def test_responses_carry_the_token_counts(self):
        mock = MockBackend()
        completion = mock.sample(self.PROMPT, GenerationParams(n_samples=3), 7)
        assert completion.prompt_tokens == mock.count_tokens(self.PROMPT)
        assert [s.tokens for s in completion] == [mock.count_tokens(s.text) for s in completion]
        score = mock.score(self.PROMPT, " Aurora Falls")
        assert (score.prompt_tokens, score.continuation_tokens) == (mock.count_tokens(self.PROMPT), 2)

    def test_one_503_is_retried_to_the_same_score(self, server, monkeypatch, no_backoff):
        posts = []
        answer = fixtures._FixtureHandler.do_POST

        def flaky(handler):
            posts.append(handler.path)
            if len(posts) == 1:
                handler.rfile.read(int(handler.headers["Content-Length"]))
                handler._send(503, "text/plain", b"busy")
            else:
                answer(handler)

        monkeypatch.setattr(fixtures._FixtureHandler, "do_POST", flaky)
        score = HTTPBackend(server.base_url).score(self.PROMPT, " Aurora Falls")
        assert score == MockBackend().score(self.PROMPT, " Aurora Falls")
        assert posts == ["/v1/score", "/v1/score"]

    @pytest.mark.parametrize("body", [
        b'{"logprob": -Infinity}', b'{"logprob": NaN}', b'{}', b'{"logprob": "-1.5"}', b'[]',
        b'{"logprob": -1' + b"0" * 400 + b"}",
    ])
    def test_bad_score_is_a_value_error_and_never_cached(self, serve, tmp_path, body):
        cached = CachedBackend(HTTPBackend(serve(_answering(200, body))), RequestCache(tmp_path))
        with pytest.raises(ValueError, match="^/v1/score returned logprob .*, not a finite number$"):
            cached.score(self.PROMPT, " Aurora Falls")
        assert list(tmp_path.iterdir()) == []

    def test_sample_without_logprob_is_a_value_error(self, serve):
        def respond(handler):
            handler.rfile.read(int(handler.headers["Content-Length"]))
            handler.reply(200, b'{"samples": [{"text": "Aurora Falls"}]}', "application/json")

        with pytest.raises(ValueError, match="^/v1/complete returned logprob None"):
            HTTPBackend(serve(respond)).sample(self.PROMPT, GenerationParams(), 7)

    @pytest.mark.parametrize("route, body, message", [
        ("/v1/count_tokens", b'{}', "no 'tokens'"),
        ("/v1/count_tokens", b'[7]', "no 'tokens'"),
        ("/v1/count_tokens", b'{"tokens": 1.5}', "tokens 1.5, not a non-negative integer"),
        ("/v1/count_tokens", b'{"tokens": true}', "tokens True, not a non-negative integer"),
        ("/v1/count_tokens", b'{"tokens": "7"}', "tokens '7', not a non-negative integer"),
        ("/v1/count_tokens", b'{"tokens": -1}', "tokens -1, not a non-negative integer"),
        ("/v1/complete", b'{}', "no 'samples'"),
        ("/v1/complete", b'{"samples": {}}', "samples {}, not a list"),
        ("/v1/complete", b'{"samples": [{"logprob": -1.5}]}', "no 'text'"),
        ("/v1/complete", b'{"samples": ["x"]}', "no 'text'"),
        ("/v1/complete", b'{"samples": [{"text": 7, "logprob": -1.5}]}', "text 7, not a string"),
        *_MALFORMED_TOKEN_COUNTS,
    ])
    def test_malformed_response_is_a_value_error_and_never_cached(self, serve, tmp_path,
                                                                   route, body, message):
        cached = CachedBackend(HTTPBackend(serve(_answering(200, body))), RequestCache(tmp_path))
        call = {
            "/v1/count_tokens": lambda: cached.count_tokens(self.PROMPT),
            "/v1/complete": lambda: cached.sample(self.PROMPT, GenerationParams(), 7),
            "/v1/score": lambda: cached.score(self.PROMPT, " Aurora Falls"),
        }[route]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{route} returned {message}')}$"):
            call()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body, message", [
        (b"{}", "no 'name'"),
        (b"[]", "no 'name'"),
        (_model_with("name", 7), "name 7, not a string"),
        (_model_with("param_count", "7"), "param_count '7', not a non-negative integer"),
        (_model_with("context_tokens", 1.5), "context_tokens 1.5, not a non-negative integer"),
        (_model_with("context_tokens", 0), "context_tokens 0, not a positive integer"),
        (_model_with("can_score", "false"), "can_score 'false', not true or false"),
    ])
    def test_malformed_model_description_is_a_value_error_and_never_cached(
            self, serve, tmp_path, body, message):
        backend = serve(lambda handler: handler.reply(200, body, "application/json"))
        cached = CachedBackend(HTTPBackend(backend), RequestCache(tmp_path))
        with pytest.raises(ValueError, match=f"^{re.escape(f'/v1/model returned {message}')}$"):
            cached.describe()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("route", sorted(_GOOD_BODIES))
    def test_well_formed_response_is_read(self, serve, route):
        http = HTTPBackend(serve(_answering(200, json.dumps(_GOOD_BODIES[route]).encode("utf-8"))))
        got = {
            "/v1/count_tokens": lambda: {"tokens": http.count_tokens(self.PROMPT)},
            "/v1/complete": lambda: http.sample(self.PROMPT, GenerationParams(), 7).to_json(),
            "/v1/score": lambda: http.score(self.PROMPT, " Aurora Falls").to_json(),
        }[route]()
        assert got == _GOOD_BODIES[route]

    def test_413_is_prompt_too_long_and_cached_as_a_refusal(self, serve, tmp_path, no_backoff):
        """A 413 is not retried; its refusal is stored, so the same request
        raises the same :class:`PromptTooLong` again, also offline, unsent."""
        posts = []
        url = serve(_answering(413, b"too long", posts))
        requests = {"/v1/score": lambda backend: backend.score(self.PROMPT, " Aurora Falls"),
                    "/v1/complete": lambda backend: backend.sample(self.PROMPT, GenerationParams(), 7)}
        for cache in (RequestCache(tmp_path), RequestCache(tmp_path), RequestCache(tmp_path, offline=True)):
            cached = CachedBackend(HTTPBackend(url), cache)
            for route, send in requests.items():
                with pytest.raises(PromptTooLong, match=f"^{route} refused the prompt as longer"):
                    send(cached)
        assert posts == ["/v1/score", "/v1/complete"]
        assert len(list((tmp_path / "lm" / "shared").iterdir())) == 2

    def test_posts_json_and_reads_the_status(self, serve):
        """A POST body arrives as JSON; a 413 is :class:`PromptTooLong`, and any
        other status but 200 is a :class:`webqa.net.NetError` naming it and the URL."""
        posts = []

        def respond(handler):
            posts.append((handler.headers["Content-Type"],
                          json.loads(handler.rfile.read(int(handler.headers["Content-Length"])))))
            status = {"/v1/count_tokens": 200, "/v1/score": 413}.get(handler.path, 400)
            handler.reply(status, b'{"tokens": 3}', "application/json")

        url = serve(respond)
        http = HTTPBackend(url)
        assert http.count_tokens("Müller page") == 3
        with pytest.raises(PromptTooLong, match="^/v1/score refused the prompt"):
            http.score(self.PROMPT, " Aurora Falls")
        with pytest.raises(net.NetError, match=f"^HTTP 400 from {re.escape(url)}/v1/complete$"):
            http.sample(self.PROMPT, GenerationParams(), 7)
        assert [body for _, body in posts[:2]] == [
            {"text": "Müller page"}, {"prompt": self.PROMPT, "continuation": " Aurora Falls"}]
        assert posts[2][1]["prompt"] == self.PROMPT
        assert {content_type for content_type, _ in posts} == {"application/json"}

    @pytest.mark.parametrize("body", [b"not json", b"", b'{"logprob": -1.5', b'{"logprob": "\x80"}'])
    def test_body_that_is_not_json_is_a_value_error_naming_route_and_url(self, serve, tmp_path, body):
        url = serve(_answering(200, body))
        cached = CachedBackend(HTTPBackend(url), RequestCache(tmp_path))
        with pytest.raises(ValueError, match=f"^/v1/score returned a body that is not JSON "
                                             f"from {re.escape(url)}/v1/score: "):
            cached.score(self.PROMPT, " Aurora Falls")
        assert list(tmp_path.iterdir()) == []

    def test_two_servers_never_share_cached_responses(self, serve, tmp_path):
        """Each server's score is read back through one cache, also offline."""
        urls = [serve(_answering(200, json.dumps(_GOOD_BODIES["/v1/score"] | {"logprob": value})
                                 .encode("utf-8"))) for value in (-1.0, -2.0)]
        for cache in (RequestCache(tmp_path), RequestCache(tmp_path, offline=True)):
            assert [CachedBackend(HTTPBackend(url), cache).score(self.PROMPT, " Aurora Falls").logprob
                    for url in urls] == [-1.0, -2.0]

    def test_fixture_server_answers_413_past_the_mock_context(self, server):
        http = HTTPBackend(server.base_url)
        context = MockBackend().describe().context_tokens
        fits = " ".join(["w"] * (context - 2))
        assert http.score(fits, " a b").prompt_tokens == context - 2
        with pytest.raises(PromptTooLong):
            http.score(fits, " a b c")
        params = GenerationParams(max_new_tokens=2)
        assert http.sample(fits, params, 7).prompt_tokens == context - 2
        with pytest.raises(PromptTooLong):
            http.sample(fits, replace(params, max_new_tokens=3), 7)

    def test_zero_tokens_is_a_count(self, serve):
        def respond(handler):
            handler.rfile.read(int(handler.headers["Content-Length"]))
            handler.reply(200, b'{"tokens": 0}', "application/json")

        assert HTTPBackend(serve(respond)).count_tokens("") == 0
