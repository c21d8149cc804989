"""Language model backends: sampling, scoring, token counting.

The pipeline talks to one interface: sample completions for a prompt, score
an exact continuation string, count tokens.  Besides the HTTP client for a
real completion server, the module ships a deterministic mock backend with
a hash-driven scorer for offline runs and tests.  Continuations are scored
verbatim; callers are responsible for any leading separator they want
included.
"""
from __future__ import annotations

import hashlib
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from . import net
from .cache import RequestCache
from .numeric import left_sum

DEFAULT_NUCLEUS_P = 0.8
DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_NEW_TOKENS = 64
DEFAULT_STOP = ("\n",)
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


@dataclass(frozen=True)
class Sample:
    """One completion; ``logprob`` is the model log-probability of ``text``."""

    text: str
    logprob: float


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
    def from_json(cls, obj: dict) -> "BackendDescriptor":
        return cls(name=obj["name"], param_count=int(obj["param_count"]),
                   context_tokens=int(obj["context_tokens"]), can_score=bool(obj.get("can_score", True)))


class ScoringUnsupported(RuntimeError):
    """The configured backend cannot score continuations."""


class LMBackend(ABC):
    @abstractmethod
    def describe(self) -> BackendDescriptor:
        ...

    @abstractmethod
    def sample(self, prompt: str, params: GenerationParams, seed: int) -> list[Sample]:
        ...

    @abstractmethod
    def score(self, prompt: str, continuation: str) -> float:
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
        name: str = "mock",
        param_count: int = 1_000_000,
        context_tokens: int = 2048,
        completion_fn=extractive_completion,
        can_score: bool = True,
    ):
        self._descriptor = BackendDescriptor(
            name=name, param_count=param_count,
            context_tokens=context_tokens, can_score=can_score,
        )
        self.completion_fn = completion_fn

    def describe(self) -> BackendDescriptor:
        return self._descriptor

    def count_tokens(self, text: str) -> int:
        return len(text.split())

    def sample(self, prompt: str, params: GenerationParams, seed: int) -> list[Sample]:
        texts = [self.completion_fn(prompt, seed, i) for i in range(params.n_samples)]
        logprobs = {text: hash_score(prompt, text) for text in set(texts)}
        return [Sample(text=text, logprob=logprobs[text]) for text in texts]

    def score(self, prompt: str, continuation: str) -> float:
        if not self._descriptor.can_score:
            raise ScoringUnsupported(f"backend {self._descriptor.name!r} cannot score")
        return hash_score(prompt, continuation)


class HTTPBackend(LMBackend):
    """Client for a completion server.

    Endpoints: POST /v1/complete, /v1/score, /v1/count_tokens; GET /v1/model.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self._descriptor: BackendDescriptor | None = None

    def _request(self, path: str, payload: dict | None = None):
        return net.request_json(f"{self.base_url}{path}", payload, timeout=LM_TIMEOUT_SECONDS)

    def describe(self) -> BackendDescriptor:
        if self._descriptor is None:
            self._descriptor = BackendDescriptor.from_json(self._request("/v1/model"))
        return self._descriptor

    def sample(self, prompt: str, params: GenerationParams, seed: int) -> list[Sample]:
        obj = self._request("/v1/complete", {
            "prompt": prompt,
            "n": params.n_samples,
            "nucleus_p": params.nucleus_p,
            "temperature": params.temperature,
            "max_new_tokens": params.max_new_tokens,
            "stop": list(params.stop),
            "seed": seed,
        })
        return [Sample(text=s["text"], logprob=float(s["logprob"])) for s in obj["samples"]]

    def score(self, prompt: str, continuation: str) -> float:
        if not self.describe().can_score:
            raise ScoringUnsupported(f"backend {self.describe().name!r} cannot score")
        obj = self._request("/v1/score", {"prompt": prompt, "continuation": continuation})
        return float(obj["logprob"])

    def count_tokens(self, text: str) -> int:
        obj = self._request("/v1/count_tokens", {"text": text})
        return int(obj["tokens"])


class CachedBackend(LMBackend):
    """Content-addressed cache in front of any backend (namespace ``lm``).

    Each request (operation, ``identity`` and arguments) is hashed into the
    cache key, and only the response is stored: a sample list, a score, a
    token count or the model descriptor.

    ``identity`` distinguishes cache entries of different models behind the
    same client class; pass something stable like the server URL or model
    name.
    """

    def __init__(self, inner: LMBackend, cache: RequestCache, offline: bool = False,
                 identity: str | None = None):
        self.inner = inner
        self.cache = cache
        self.offline = offline
        self.identity = identity if identity is not None else type(inner).__name__

    def describe(self) -> BackendDescriptor:
        request = {"op": "describe", "backend": self.identity}
        response = self.cache.get_or_fetch(
            "lm", request, lambda: self.inner.describe().to_json(), offline=self.offline
        )
        return BackendDescriptor.from_json(response)

    def sample(self, prompt: str, params: GenerationParams, seed: int) -> list[Sample]:
        request = {
            "op": "sample", "backend": self.identity,
            "prompt": prompt, "params": params.to_json(), "seed": seed,
        }
        response = self.cache.get_or_fetch(
            "lm", request,
            lambda: [{"text": s.text, "logprob": s.logprob} for s in self.inner.sample(prompt, params, seed)],
            offline=self.offline,
        )
        return [Sample(text=s["text"], logprob=float(s["logprob"])) for s in response]

    def score(self, prompt: str, continuation: str) -> float:
        request = {
            "op": "score", "backend": self.identity,
            "prompt": prompt, "continuation": continuation,
        }
        response = self.cache.get_or_fetch(
            "lm", request, lambda: self.inner.score(prompt, continuation), offline=self.offline
        )
        return float(response)

    def count_tokens(self, text: str) -> int:
        request = {"op": "count_tokens", "backend": self.identity, "text": text}
        response = self.cache.get_or_fetch(
            "lm", request, lambda: self.inner.count_tokens(text), offline=self.offline
        )
        return int(response)
