import math
import random

import pytest

from webqa import fixtures, lmbackend
from webqa.cache import RequestCache
from webqa.fixtures import FixtureServer
from webqa.lmbackend import (
    CachedBackend,
    GenerationParams,
    HTTPBackend,
    MockBackend,
    ScoringUnsupported,
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
        whole = lm.score(prompt, cont)
        split = sum(lm.score(prompt + cont[:i], cont[i])
                    for i in range(len(cont)))
        assert whole == pytest.approx(split, abs=1e-12)

    def test_score_is_negative_and_finite(self):
        lm = MockBackend()
        lp = lm.score("a prompt", " continuation")
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
        whole = backend.score(prompt, cont)
        split = backend.score(prompt, " forty") + \
            backend.score(prompt + " forty", " two")
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
        with pytest.raises(ScoringUnsupported):
            backend.score("p", " c")


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
        offline = CachedBackend(MockBackend(), cache, offline=True)
        assert offline.score("p", " c") == warm.score("p", " c")
        with pytest.raises(OfflineCacheMiss):
            offline.score("p", " other")

    def test_identity_partitions_cache(self, tmp_path):
        """Two different model identities must not share cached scores."""
        class FixedScore(MockBackend):
            def __init__(self, value):
                super().__init__()
                self.value = value

            def score(self, prompt, continuation):
                return self.value

        cache = RequestCache(tmp_path)
        a = CachedBackend(FixedScore(-1.0), cache, identity="model-a")
        b = CachedBackend(FixedScore(-2.0), cache, identity="model-b")
        assert a.score("p", " c") == -1.0
        assert b.score("p", " c") == -2.0

    def test_count_tokens_cached(self, tmp_path):
        inner = MockBackend()
        cached = CachedBackend(inner, RequestCache(tmp_path))
        assert cached.count_tokens("a b c") == 3
        assert cached.count_tokens("a b c") == 3


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
