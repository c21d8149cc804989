"""Candidate answer selection over probabilistic factorizations.

A candidate pool holds (answer, paragraph) pairs with the log scores
produced by the prompted model plus the retrieval prior.  Four scorers rank
the pool: the direct answer probability, a retrieval-weighted mixture that
sums evidence over paragraphs per answer, a noisy-channel factorization,
and a weighted product of experts whose weights can be tuned on held-out
questions by coordinate descent.  Everything here is pure math over
finished score bundles; no model calls happen in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .numeric import left_sum

ANSWER_PROB = "answer_prob"
RAG = "rag"
NOISY_CHANNEL = "noisy_channel"
POE = "poe"
SCORERS = (ANSWER_PROB, RAG, NOISY_CHANNEL, POE)

WEIGHT_NAMES = ("w_a_qp", "w_q_ap", "w_a_p", "w_q_p", "w_prior")
DEFAULT_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 1.0)
DEFAULT_WEIGHT_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
DEFAULT_TUNING_SWEEPS = 3

PRIOR_FLOOR = 1e-12


@dataclass(frozen=True)
class CandidateAnswer:
    """An answer string tied to the paragraph it was generated from."""

    text: str
    paragraph_index: int

    @cached_property
    def canon_text(self) -> str:
        return " ".join(self.text.split())


@dataclass(frozen=True)
class ScoreBundle:
    """All log scores attached to one (answer, paragraph) pair.

    ``lp_a_qp``: log p(answer | question, paragraph)
    ``lp_q_ap``: log p(question | answer, paragraph)
    ``lp_a_p``:  log p(answer | paragraph)
    ``lp_q_p``:  log p(question | paragraph)
    ``lp_prior``: log of the retrieval prior of the paragraph
    """

    lp_a_qp: float
    lp_q_ap: float
    lp_a_p: float
    lp_q_p: float
    lp_prior: float

    def __post_init__(self):
        for name in ("lp_a_qp", "lp_q_ap", "lp_a_p", "lp_q_p", "lp_prior"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


Pool = list[tuple[CandidateAnswer, ScoreBundle]]


@dataclass(frozen=True)
class RerankConfig:
    scorer: str = POE
    poe_weights: tuple[float, float, float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if self.scorer not in SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}, expected one of {SCORERS}")
        if len(self.poe_weights) != len(WEIGHT_NAMES):
            raise ValueError(f"poe_weights needs {len(WEIGHT_NAMES)} entries")
        if self.scorer == POE and all(w == 0.0 for w in self.poe_weights):
            raise ValueError("poe_weights must not be all zero")


@dataclass(frozen=True)
class SelectionResult:
    answer: CandidateAnswer
    score: float
    scorer: str
    n_pairs: int
    n_answers: int


def log_prior(prior: float) -> float:
    """Log of a retrieval prior, floored to stay finite for zero mass."""
    return math.log(max(prior, PRIOR_FLOOR))


def logsumexp(values: list[float]) -> float:
    peak = max(values)
    return peak + math.log(left_sum(math.exp(v - peak) for v in values))


def poe_scores(weights, rows) -> list[float]:
    """The product-of-experts score ``w0*a + w1*b + w2*c + w3*d + w4*e`` of
    each row of five log scores, added left to right."""
    w0, w1, w2, w3, w4 = weights
    return [w0 * a + w1 * b + w2 * c + w3 * d + w4 * e for a, b, c, d, e in rows]


def _experts(bundle: ScoreBundle) -> tuple[float, float, float, float, float]:
    """The five log scores of ``bundle`` in :data:`WEIGHT_NAMES` order."""
    return (bundle.lp_a_qp, bundle.lp_q_ap, bundle.lp_a_p, bundle.lp_q_p, bundle.lp_prior)


def pair_score(bundle: ScoreBundle, config: RerankConfig) -> float:
    """Per-pair score for the scorers that rank pairs directly."""
    if config.scorer == ANSWER_PROB:
        return bundle.lp_a_qp
    if config.scorer == NOISY_CHANNEL:
        return bundle.lp_q_ap + bundle.lp_a_p - bundle.lp_q_p
    if config.scorer == POE:
        return poe_scores(config.poe_weights, (_experts(bundle),))[0]
    raise ValueError(f"{config.scorer!r} does not score single pairs")


def _pair_key(answer: CandidateAnswer, bundle: ScoreBundle):
    return (-bundle.lp_a_qp, answer.paragraph_index, answer.canon_text)


def _best_index(scores: list[float], key) -> int:
    """Index of the highest of ``scores``; a tie goes to the smallest
    ``key(index)``, then to the first index."""
    top = max(scores)
    tied = [i for i, score in enumerate(scores) if score == top]
    return tied[0] if len(tied) == 1 else min(tied, key=key)


def rag_answer_scores(pool: Pool) -> dict[str, float]:
    """log p(a | q) = log sum over produced pairs of prior * p(a | q, p).

    Paragraphs that never produced a given answer contribute zero mass.
    """
    groups: dict[str, list[float]] = {}
    for answer, bundle in pool:
        groups.setdefault(answer.canon_text, []).append(bundle.lp_prior + bundle.lp_a_qp)
    return {canon: logsumexp(values) for canon, values in groups.items()}


def select_answer(pool: Pool, config: RerankConfig) -> SelectionResult:
    """Pick the best answer in ``pool`` under ``config``.

    Ties break deterministically: higher direct answer probability first,
    then lower paragraph index, then answer text.
    """
    if not pool:
        raise ValueError("cannot select from an empty pool")
    n_answers = len({a.canon_text for a, _ in pool})

    if config.scorer == RAG:
        scores = rag_answer_scores(pool)
        reps: dict[str, tuple[CandidateAnswer, ScoreBundle]] = {}
        for answer, bundle in pool:
            canon = answer.canon_text
            if canon not in reps or _pair_key(answer, bundle) < _pair_key(*reps[canon]):
                reps[canon] = (answer, bundle)
        best_canon = min(scores, key=lambda c: (-scores[c],) + _pair_key(*reps[c]))
        return SelectionResult(
            answer=reps[best_canon][0],
            score=scores[best_canon],
            scorer=config.scorer,
            n_pairs=len(pool),
            n_answers=n_answers,
        )

    scores = [pair_score(bundle, config) for _, bundle in pool]
    best = _best_index(scores, lambda i: _pair_key(*pool[i]))
    return SelectionResult(
        answer=pool[best][0],
        score=scores[best],
        scorer=config.scorer,
        n_pairs=len(pool),
        n_answers=n_answers,
    )


@dataclass(frozen=True)
class TuneResult:
    weights: tuple[float, float, float, float, float]
    objective: float
    trace: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights),
            "weight_names": list(WEIGHT_NAMES),
            "objective": self.objective,
            "trace": [dict(t) for t in self.trace],
        }


def tune_weights(
    instances: list[tuple[Pool, "callable"]],
    grid: tuple[float, ...] = DEFAULT_WEIGHT_GRID,
    sweeps: int = DEFAULT_TUNING_SWEEPS,
) -> TuneResult:
    """Coordinate-descent search for product-of-experts weights.

    ``instances`` pairs each candidate pool with a reward function mapping
    the selected :class:`CandidateAnswer` to a score in [0, 1] (task
    correctness on a held-out split); it is called once on each pair's
    answer, so it must depend on nothing else.  Starting from all-ones, each
    sweep walks the five weights in order and tries every grid value,
    keeping a change only on strict improvement of the mean reward, so the
    procedure and its trace are fully deterministic.  All-zero vectors are
    skipped.
    """
    if not instances:
        raise ValueError("tune_weights needs at least one instance")
    # what selection reads of each pool, taken once: every pair's experts, its
    # tie-break key and its reward
    columns = []
    for pool, reward in instances:
        if not pool:
            raise ValueError("cannot select from an empty pool")
        rewards = [reward(answer) for answer, _ in pool]
        if rewards.count(rewards[0]) == len(rewards):
            # whichever pair wins, the pool adds this reward: one pair stands for all
            pool, rewards = pool[:1], rewards[:1]
        keys = [_pair_key(answer, bundle) for answer, bundle in pool]
        columns.append(([_experts(bundle) for _, bundle in pool], keys.__getitem__, rewards))

    def objective(weights) -> float:
        total = 0.0
        for experts, key, rewards in columns:
            total += rewards[_best_index(poe_scores(weights, experts), key)]
        return total / len(instances)

    best = DEFAULT_WEIGHTS
    best_objective = objective(best)
    trace = [{"weights": list(best), "objective": best_objective, "improved": True}]
    for _ in range(sweeps):
        for coord in range(len(WEIGHT_NAMES)):
            for value in grid:
                candidate = best[:coord] + (value,) + best[coord + 1:]
                if candidate == best:
                    continue
                if all(w == 0.0 for w in candidate):
                    continue
                score = objective(candidate)
                improved = score > best_objective
                trace.append({"weights": list(candidate), "objective": score, "improved": improved})
                if improved:
                    best, best_objective = candidate, score
    return TuneResult(weights=best, objective=best_objective, trace=tuple(trace))
