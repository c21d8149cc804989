"""Language model backends: sampling, scoring, token counting.

The pipeline talks to one interface: sample completions for a prompt, score
an exact continuation string, count tokens.  Samples and scores come back
with the token counts of what was sent and generated, so a caller needs no
separate count to log or budget them.  Besides the HTTP client for a real
completion server, the module ships a deterministic mock backend with a
hash-driven scorer for offline runs and tests.  Continuations are scored
verbatim; callers are responsible for any leading separator they want
included.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

from . import net
from .cache import RequestCache
from .numeric import left_sum

DEFAULT_NUCLEUS_P = 0.8
DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_NEW_TOKENS = 64
DEFAULT_STOP = ("\n",)
DEFAULT_MOCK_PARAM_COUNT = 1_000_000
LM_TIMEOUT_SECONDS = 60.0


@dataclass(frozen=True)
class GenerationParams:
    nucleus_p: float = DEFAULT_NUCLEUS_P
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    stop: tuple[str, ...] = DEFAULT_STOP
    n_samples: int = 1

    def __post_init__(self):
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError(f"nucleus_p must be in (0, 1], got {self.nucleus_p}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    def to_json(self) -> dict:
        return {
            "nucleus_p": self.nucleus_p,
            "temperature": self.temperature,
            "max_new_tokens": self.max_new_tokens,
            "stop": list(self.stop),
            "n_samples": self.n_samples,
        }


def _field(obj, name: str, route: str):
    """``obj[name]``; a server response that is not an object or lacks the field is a ``ValueError``."""
    if type(obj) is not dict or name not in obj:
        raise ValueError(f"{route} returned no {name!r}")
    return obj[name]


# Each checker below reads one field of a decoded response, fresh from a server or
# read back from the cache, and raises a ValueError naming the route unless it holds
# exactly what json.loads gives for a valid value.

def _tokens(obj, name: str, route: str) -> int:
    """``obj[name]`` as a token count: an ``int`` (not a ``bool``) of at least 0."""
    value = _field(obj, name, route)
    if type(value) is int and value >= 0:
        return value
    raise ValueError(f"{route} returned {name} {value!r}, not a non-negative integer")


def _logprob(obj, route: str) -> float:
    """``obj["logprob"]``: a finite ``float``, or an ``int`` that one can hold made
    one; a missing one shows as None."""
    value = obj.get("logprob") if type(obj) is dict else None
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:  # float() of a larger one overflows
        return float(value)
    raise ValueError(f"{route} returned logprob {value!r}, not a finite number")


def _text(obj, name: str, route: str) -> str:
    """``obj[name]``: a ``str``."""
    value = _field(obj, name, route)
    if type(value) is str:
        return value
    raise ValueError(f"{route} returned {name} {value!r}, not a string")


@dataclass(frozen=True)
class Sample:
    """One completion; ``logprob`` is the model log-probability of ``text``
    and ``tokens`` its length in tokens."""

    text: str
    logprob: float
    tokens: int


def _sample_from_json(obj) -> Sample:
    """One sample of a ``/v1/complete`` body; a malformed one is a ``ValueError``."""
    route = "/v1/complete"
    return Sample(_text(obj, "text", route), _logprob(obj, route), _tokens(obj, "tokens", route))


@dataclass(frozen=True)
class Completion:
    """What ``sample`` returns: the samples in order (iterating a completion
    yields them) and the length of the prompt in tokens."""

    samples: tuple[Sample, ...]
    prompt_tokens: int

    def __iter__(self):
        return iter(self.samples)

    def to_json(self) -> dict:
        """The ``/v1/complete`` response body."""
        return {
            "samples": [{"text": s.text, "logprob": s.logprob, "tokens": s.tokens} for s in self.samples],
            "prompt_tokens": self.prompt_tokens,
        }

    @classmethod
    def from_json(cls, obj) -> "Completion":
        """Decode a ``/v1/complete`` body; a malformed one is a ``ValueError`` naming the route."""
        route = "/v1/complete"
        samples = _field(obj, "samples", route)
        if not isinstance(samples, list):
            raise ValueError(f"{route} returned samples {samples!r}, not a list")
        return cls(tuple(map(_sample_from_json, samples)), _tokens(obj, "prompt_tokens", route))


@dataclass(frozen=True)
class Score:
    """What ``score`` returns: log p(continuation | prompt) and the lengths
    of prompt and continuation in tokens."""

    logprob: float
    prompt_tokens: int
    continuation_tokens: int

    def to_json(self) -> dict:
        """The ``/v1/score`` response body."""
        return {"logprob": self.logprob, "prompt_tokens": self.prompt_tokens,
                "continuation_tokens": self.continuation_tokens}

    @classmethod
    def from_json(cls, obj) -> "Score":
        """Decode a ``/v1/score`` body; a malformed one is a ``ValueError`` naming the route."""
        route = "/v1/score"
        return cls(_logprob(obj, route), _tokens(obj, "prompt_tokens", route),
                   _tokens(obj, "continuation_tokens", route))


@dataclass(frozen=True)
class BackendDescriptor:
    name: str
    param_count: int
    context_tokens: int
    can_score: bool = True

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "param_count": self.param_count,
            "context_tokens": self.context_tokens,
            "can_score": self.can_score,
        }

    @classmethod
    def from_json(cls, obj) -> "BackendDescriptor":
        """Decode a ``/v1/model`` body; a malformed one is a ``ValueError`` naming the route."""
        route = "/v1/model"
        can_score = obj.get("can_score", True) if type(obj) is dict else True
        if not isinstance(can_score, bool):
            raise ValueError(f"{route} returned can_score {can_score!r}, not true or false")
        name, param_count = _text(obj, "name", route), _tokens(obj, "param_count", route)
        context_tokens = _tokens(obj, "context_tokens", route)
        if context_tokens == 0:  # no prompt could be sent
            raise ValueError(f"{route} returned context_tokens 0, not a positive integer")
        return cls(name, param_count, context_tokens, can_score)


class PromptTooLong(ValueError):
    """The server refused a request whose prompt overflows its context (HTTP 413)."""


class LMBackend(ABC):
    """A model behind one interface.  A backend that may be cached sets
    ``identity``, a stable name of its model such as the server URL."""

    @abstractmethod
    def describe(self) -> BackendDescriptor:
        ...

    @abstractmethod
    def sample(self, prompt: str, params: GenerationParams, seed: int) -> Completion:
        ...

    @abstractmethod
    def score(self, prompt: str, continuation: str) -> Score:
        """log p(continuation | prompt), continuation taken verbatim."""

    @abstractmethod
    def count_tokens(self, text: str) -> int:
        ...


def softmax_scores(scores: dict[str, float]) -> dict[str, float]:
    """Normalize log scores into a probability distribution over the keys."""
    if not scores:
        raise ValueError("softmax over an empty score dict")
    peak = max(scores.values())
    exp = {k: math.exp(v - peak) for k, v in scores.items()}
    total = left_sum(exp.values())
    return {k: v / total for k, v in exp.items()}


def flops_for_tokens(param_count: int, n_tokens: int) -> int:
    """Forward-pass cost: two floating point operations per parameter per token."""
    return 2 * param_count * n_tokens


# --- deterministic hash-driven scorer --------------------------------------

HASHLM_ALPHABET = "abcdefghijklmnopqrstuvwxyz 0123456789.\n"
# bytes.translate table: alphabet bytes map to themselves, every other byte to a space.
_ALPHABET_BYTES = bytes(b if chr(b) in HASHLM_ALPHABET else ord(" ") for b in range(256))
_ALPHABET_INDEX = {ch: i for i, ch in enumerate(HASHLM_ALPHABET)}


def _to_alphabet(text: str) -> str:
    # lower() first: it can lengthen a string ("İ".lower() is two characters).  The
    # "replace" handler then turns each non-ASCII character into one "?", a non-alphabet byte.
    return text.lower().encode("ascii", "replace").translate(_ALPHABET_BYTES).decode("ascii")


def hash_score(prompt: str, continuation: str) -> float:
    """log p(continuation | prompt) under a fake character-level model.

    Text is lower-cased and every character outside ``HASHLM_ALPHABET``
    becomes a space.  The next-character distribution is derived from the
    SHA-256 state of the full preceding text, and the per-character
    normalization commutes with concatenation, so the score obeys the chain
    rule exactly: hash_score(p, xy) == hash_score(p, x) + hash_score(p + x, y).
    Scores are bit-identical across supported Python versions.
    """
    h = hashlib.sha256(_to_alphabet(prompt).encode("utf-8"))
    rng = random.Random()
    logprob = 0.0
    for ch in _to_alphabet(continuation):
        rng.seed(h.digest())
        weights = [rng.random() ** 4 + 1e-9 for _ in HASHLM_ALPHABET]
        logprob += math.log(weights[_ALPHABET_INDEX[ch]] / left_sum(weights))
        h.update(ch.encode("utf-8"))
    return logprob


# --- configurable test double ----------------------------------------------

def _whitespace_tokens(text: str) -> int:
    """The mock's tokenizer: one token per whitespace-separated word."""
    return len(text.split())


def extractive_completion(prompt: str, seed: int, index: int) -> str:
    """Pick a short word span from the prompt's final evidence line.

    Falls back to the final question line for closed-book prompts.  The span
    choice is a pure function of (prompt, seed, index), so runs are
    repeatable and different paragraphs yield different answers.
    """
    source = ""
    for line in reversed(prompt.split("\n")):
        if line.startswith("Evidence: "):
            source = line[len("Evidence: "):]
            break
        if not source and line.startswith("Question: "):
            source = line[len("Question: "):]
    words = source.split()
    if not words:
        return "unknown"
    digest = hashlib.sha256(f"{seed}:{index}:{prompt}".encode("utf-8")).digest()
    start = digest[0] % len(words)
    length = 1 + digest[1] % min(3, len(words) - start)
    return " ".join(words[start:start + length])


class MockBackend(LMBackend):
    """Deterministic backend for tests and offline pipeline runs.

    Generation produces extractive-looking spans via ``completion_fn`` while
    scores, including each sample's log-probability, come from
    :func:`hash_score` (chain-rule consistent), so reranking math behaves
    like it would against a real model.
    """

    def __init__(
        self,
        param_count: int = DEFAULT_MOCK_PARAM_COUNT,
        context_tokens: int = 2048,
        completion_fn=extractive_completion,
        can_score: bool = True,
    ):
        self.identity = f"mock(param_count={param_count})"
        self._descriptor = BackendDescriptor(
            name="mock", param_count=param_count,
            context_tokens=context_tokens, can_score=can_score,
        )
        self.completion_fn = completion_fn

    def describe(self) -> BackendDescriptor:
        return self._descriptor

    def count_tokens(self, text: str) -> int:
        return _whitespace_tokens(text)

    def sample(self, prompt: str, params: GenerationParams, seed: int) -> Completion:
        texts = [self.completion_fn(prompt, seed, i) for i in range(params.n_samples)]
        logprobs = {text: hash_score(prompt, text) for text in set(texts)}
        return Completion(
            tuple(Sample(text, logprobs[text], _whitespace_tokens(text)) for text in texts),
            _whitespace_tokens(prompt),
        )

    def score(self, prompt: str, continuation: str) -> Score:
        return Score(hash_score(prompt, continuation), _whitespace_tokens(prompt),
                     _whitespace_tokens(continuation))


class HTTPBackend(LMBackend):
    """Client for a completion server.

    Endpoints: POST /v1/complete, /v1/score, /v1/count_tokens; GET /v1/model.
    Each request goes through :func:`webqa.net.request`, so it shares the
    connection of the question's pass that sends it, or opens one for itself.
    A 413 status, the server refusing a prompt longer than its context, is
    :class:`PromptTooLong`; any other status but 200 is a
    :class:`webqa.net.NetError`, and a 200 body that is not JSON a
    ``ValueError`` naming the route and URL.  Its ``identity`` is the URL as given.
    """

    def __init__(self, base_url: str):
        self.identity = base_url
        self.base_url = base_url.rstrip("/")

    def _request(self, path: str, payload: dict | None = None):
        url = f"{self.base_url}{path}"
        status, _, body = net.request(url, payload, timeout=LM_TIMEOUT_SECONDS)
        if status == 413:
            raise PromptTooLong(f"{path} refused the prompt as longer than the model context")
        if status != 200:
            raise net.NetError(f"HTTP {status} from {url}")
        try:
            return json.loads(body)
        except ValueError as exc:  # also a body that is not UTF-8
            raise ValueError(f"{path} returned a body that is not JSON from {url}: {exc}") from None

    def describe(self) -> BackendDescriptor:
        return BackendDescriptor.from_json(self._request("/v1/model"))

    def sample(self, prompt: str, params: GenerationParams, seed: int) -> Completion:
        return Completion.from_json(self._request("/v1/complete", {
            "prompt": prompt,
            "n": params.n_samples,
            "nucleus_p": params.nucleus_p,
            "temperature": params.temperature,
            "max_new_tokens": params.max_new_tokens,
            "stop": list(params.stop),
            "seed": seed,
        }))

    def score(self, prompt: str, continuation: str) -> Score:
        return Score.from_json(self._request("/v1/score", {"prompt": prompt, "continuation": continuation}))

    def count_tokens(self, text: str) -> int:
        return _tokens(self._request("/v1/count_tokens", {"text": text}), "tokens", "/v1/count_tokens")


_REFUSED = "prompt_too_long"  # the key of a cached refusal, which holds its message


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CachedBackend(LMBackend):
    """Content-addressed cache in front of any backend (namespace ``lm``).

    Each request (operation, ``identity`` and arguments) is hashed into the
    cache key.  ``identity`` is ``inner``'s, read once when this backend is
    built, so two models never share a response, and a backend without one
    cannot be cached.  Only the response is stored: a completion or score with
    its token counts, a token count or the model descriptor.  A response fresh
    from ``inner`` goes through the checks of one read back before it is
    stored, so one that fails them is never stored.  A request the backend
    refused as too long is stored as that refusal and raises
    :class:`PromptTooLong` again on each read, so an offline replay fits the
    prompt as the run that drew it did.  A prompt or counted text enters the
    key as the SHA-256 of its UTF-8 bytes, so a lookup never JSON-encodes a
    whole prompt.  ``sample`` and ``score`` take that digest as
    ``prompt_sha256``, and ``count_tokens`` as ``text_sha256``, from a caller
    that has it, such as the pipeline with a rendered prompt's, and hash the
    text only without it.  Samples and scores are keyed as
    ``sample_with_tokens`` and ``score_with_tokens``: entries stored before
    their responses carried token counts are never read.
    """

    def __init__(self, inner: LMBackend, cache: RequestCache):
        self.inner = inner
        self.cache = cache
        self.identity = inner.identity

    def scoped(self, cache: RequestCache) -> CachedBackend:
        """A shallow copy of this backend whose requests go through ``cache``
        (such as a question's scope); ``inner`` and ``identity`` are shared."""
        backend = copy.copy(self)
        backend.cache = cache
        return backend

    def _cached(self, request: dict, fetch, read):
        """``read(response)`` for ``request``, fetched by ``fetch()`` on a miss and
        read before it is stored; a refusal as too long is stored unread and
        raised as :class:`PromptTooLong` on each read."""
        fresh = []

        def fetch_read():
            try:
                response = fetch()
            except PromptTooLong as exc:
                return {_REFUSED: str(exc)}
            fresh.append(read(response))
            return response

        response = self.cache.get_or_fetch("lm", request, fetch_read)
        if type(response) is dict and _REFUSED in response:
            raise PromptTooLong(response[_REFUSED])
        return fresh[0] if fresh else read(response)

    def describe(self) -> BackendDescriptor:
        return self._cached({"op": "describe", "backend": self.identity},
                            lambda: self.inner.describe().to_json(), BackendDescriptor.from_json)

    def sample(self, prompt: str, params: GenerationParams, seed: int, *,
               prompt_sha256: str | None = None) -> Completion:
        """``inner``'s samples for ``prompt``, whose hex SHA-256 a caller that
        already has it passes as ``prompt_sha256`` (it is not checked)."""
        request = {
            "op": "sample_with_tokens", "backend": self.identity,
            "prompt_sha256": prompt_sha256 or _sha256(prompt), "params": params.to_json(), "seed": seed,
        }
        return self._cached(request, lambda: self.inner.sample(prompt, params, seed).to_json(),
                            Completion.from_json)

    def score(self, prompt: str, continuation: str, *, prompt_sha256: str | None = None) -> Score:
        """``inner``'s score of ``continuation`` after ``prompt``, whose hex
        SHA-256 a caller that already has it passes as ``prompt_sha256`` (it
        is not checked)."""
        request = {
            "op": "score_with_tokens", "backend": self.identity,
            "prompt_sha256": prompt_sha256 or _sha256(prompt), "continuation": continuation,
        }
        return self._cached(request, lambda: self.inner.score(prompt, continuation).to_json(), Score.from_json)

    def count_tokens(self, text: str, *, text_sha256: str | None = None) -> int:
        """``inner``'s token count of ``text``, whose hex SHA-256 a caller that
        already has it passes as ``text_sha256`` (it is not checked)."""
        request = {"op": "count_tokens", "backend": self.identity, "text_sha256": text_sha256 or _sha256(text)}
        return self._cached(request, lambda: self.inner.count_tokens(text),
                            lambda tokens: _tokens({"tokens": tokens}, "tokens", "/v1/count_tokens"))
