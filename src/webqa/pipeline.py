"""End-to-end stages: retrieve, answer, tune, rerank, evaluate, cost.

Every stage reads and writes plain JSON artifacts under a working directory
and routes all model and network traffic through the request cache, so a
re-run over a warm cache reproduces every artifact byte for byte and an
offline run works entirely from cache.  Stage outputs:

    cache/                      content-addressed request/response store
    index/<qid>.json            question and the URLs retrieved for it
    paragraphs/<evidence>/      ranked conditioning paragraphs per question
    candidates/<evidence>/      scored (answer, paragraph) pools per question
    calls/<evidence>/           one JSONL row per model request (token counts)
    weights.json                tuned product-of-experts weights and trace
    predictions/<name>.json     selected answer per question
    reports/<name>.json         metrics
    cost/<name>.json            compute/accuracy sweep over paragraph counts
    failures.json               questions that failed a stage, with the reason
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import chunkrank, rerank, websearch
from .cache import (
    RequestCache,
    atomic_write_text,
    canonical_json,
    read_json_record,
    write_json_record,
)
from .corpus import (
    CLASSIFICATION,
    GENERATION,
    PromptBank,
    QuestionRecord,
    derive_scorer_bank,
    load_bundled_bank,
    load_dataset,
    load_prompt_bank,
    split_heldout,
)
from .evaluation import (
    DEFAULT_RECALL_KS,
    EvalReport,
    evaluate_predictions,
    exact_match,
    label_match,
    load_stopwords,
)
from .lmbackend import (
    DEFAULT_MAX_NEW_TOKENS,
    DEFAULT_NUCLEUS_P,
    DEFAULT_STOP,
    DEFAULT_TEMPERATURE,
    GenerationParams,
    LMBackend,
    flops_for_tokens,
    softmax_scores,
)
from .numeric import left_sum
from .prompting import RenderedPrompt, fit_to_context, render_closed_book_prompt, render_prompt, render_qa_prompt

logger = logging.getLogger(__name__)

SEARCH = "search"
GOLD = "gold"
CLOSED = "closed"
EVIDENCE_MODES = (SEARCH, GOLD, CLOSED)

DEFAULT_COST_POINTS = (0, 1, 5, 10, 20, 50)
CLOSED_PARAGRAPH_INDEX = -1
# closed-book pools carry only lp_a_qp, so they are always ranked by it
CLOSED_RERANK = rerank.RerankConfig(scorer=rerank.ANSWER_PROB)


class ConfigError(ValueError):
    """Bad run configuration: unusable dataset, flags, or banks."""


class PartialFailure(RuntimeError):
    """More than the tolerated share of questions failed a stage."""

    def __init__(self, failed: dict[str, str], total: int):
        self.failed = failed
        self.total = total
        super().__init__(f"{len(failed)}/{total} questions failed")


@dataclass(frozen=True)
class PipelineConfig:
    dataset_path: str
    dataset_id: str
    workdir: str
    evidence: str = SEARCH
    scorer: str = rerank.POE
    poe_weights: tuple[float, float, float, float, float] | None = None
    num_urls: int = websearch.DEFAULT_TOP_URLS
    chunk_sentences: int = chunkrank.DEFAULT_CHUNK_SENTENCES
    top_paragraphs: int = chunkrank.DEFAULT_TOP_PARAGRAPHS
    samples_per_paragraph: int = 4
    closed_book_samples: int = 200
    nucleus_p: float = DEFAULT_NUCLEUS_P
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    stop: tuple[str, ...] = DEFAULT_STOP
    heldout_fraction: float = 0.1
    seed: int = 0
    offline: bool = False
    max_workers: int = 8
    cost_points: tuple[int, ...] = DEFAULT_COST_POINTS
    context_tokens: int | None = None
    recall_ks: tuple[int, ...] = DEFAULT_RECALL_KS
    banks_dir: str | None = None

    def __post_init__(self):
        if self.evidence not in EVIDENCE_MODES:
            raise ConfigError(f"unknown evidence mode {self.evidence!r}")
        if self.scorer not in rerank.SCORERS:
            raise ConfigError(f"unknown scorer {self.scorer!r}")
        for name in ("num_urls", "chunk_sentences", "top_paragraphs",
                     "samples_per_paragraph", "closed_book_samples", "max_workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.context_tokens is not None and self.context_tokens < 1:
            raise ConfigError("context_tokens must be >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must be in (0, 1)")
        if self.poe_weights is not None:
            try:
                rerank.RerankConfig(scorer=self.scorer, poe_weights=self.poe_weights)
            except ValueError as exc:
                raise ConfigError(f"weights: {exc}") from None


def _pool_row(text: str, paragraph_index: int, lp_a_qp: float, lp_q_ap: float = 0.0,
              lp_a_p: float = 0.0, lp_q_p: float = 0.0, lp_prior: float = 0.0) -> dict:
    """One candidates/ entry; closed-book rows score only lp_a_qp."""
    return {
        "text": text,
        "paragraph_index": paragraph_index,
        "lp_a_qp": lp_a_qp,
        "lp_q_ap": lp_q_ap,
        "lp_a_p": lp_a_p,
        "lp_q_p": lp_q_p,
        "lp_prior": lp_prior,
    }


def stable_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class Pipeline:
    def __init__(self, config: PipelineConfig, backend: LMBackend, search_client=None):
        self.config = config
        try:
            self.params = GenerationParams(
                nucleus_p=config.nucleus_p,
                temperature=config.temperature,
                max_new_tokens=config.max_new_tokens,
                stop=config.stop,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.backend = backend
        self.search_client = search_client
        self.workdir = Path(config.workdir)
        self.cache = RequestCache(self.workdir / "cache")
        try:
            self.records = load_dataset(config.dataset_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load dataset: {exc}") from None
        if not self.records:
            raise ConfigError(f"dataset {config.dataset_path} is empty")
        if config.evidence == GOLD:
            missing = [r.id for r in self.records if not r.gold_evidence]
            if missing:
                raise ConfigError(
                    f"gold evidence mode needs gold_evidence on every record; "
                    f"{len(missing)} records lack it, first: {missing[0]}"
                )
        self.failed: dict[str, str] = {}
        self._banks: dict[str, PromptBank] = {}
        self.stopwords = load_stopwords()
        descriptor = backend.describe()
        needs_scores = config.evidence != CLOSED or any(
            r.task == CLASSIFICATION for r in self.records)
        if not descriptor.can_score and needs_scores:
            raise ConfigError(
                f"backend {descriptor.name!r} cannot score continuations; only closed "
                "evidence mode on generation records works without scoring"
            )
        self.context_tokens = config.context_tokens or descriptor.context_tokens
        self.param_count = descriptor.param_count
        main, heldout = split_heldout(self.records, config.heldout_fraction, config.seed)
        self.main_records = main
        self.heldout_records = heldout

    # --- banks --------------------------------------------------------------

    def bank(self, kind: str) -> PromptBank:
        if kind in self._banks:
            return self._banks[kind]
        dataset_id = self.config.dataset_id
        bank = None
        if self.config.banks_dir:
            path = Path(self.config.banks_dir) / f"{dataset_id}_{kind}.txt"
            if path.is_file():
                bank = load_prompt_bank(path)
        if bank is None:
            bank = load_bundled_bank(dataset_id, kind)
        if bank is None:
            if kind == "qa":
                raise ConfigError(
                    f"no qa prompt bank for dataset {dataset_id!r}; "
                    f"ship one or pass a banks directory"
                )
            bank = derive_scorer_bank(self.bank("qa"), kind)
        if bank.kind != kind:
            raise ConfigError(f"bank for {kind!r} declares kind {bank.kind!r}")
        self._banks[kind] = bank
        return bank

    # --- paths --------------------------------------------------------------

    def _qpath(self, stage: str, sub: str, qid: str, ext: str = "json") -> Path:
        return self.workdir / stage / sub / f"{qid}.{ext}"

    def prediction_name(self) -> str:
        if self.config.evidence == CLOSED:
            return f"closed_{rerank.ANSWER_PROB}"
        return f"{self.config.evidence}_{self.config.scorer}"

    # --- bookkeeping --------------------------------------------------------

    def _active(self, records: list[QuestionRecord]) -> list[QuestionRecord]:
        return [r for r in records if r.id not in self.failed]

    def _map_questions(self, records: list[QuestionRecord], worker, stage: str) -> None:
        # only I/O (net.NetError is an OSError), bad input (ConfigError, CorpusError,
        # PromptBudgetError, bad JSON) and search errors fail one question; bugs propagate
        def guarded(record):
            try:
                worker(record)
            except (OSError, ValueError, websearch.SearchError) as exc:
                logger.warning("%s failed for %s: %s", stage, record.id, exc)
                return record.id, f"{stage}: {exc}"
            return None

        with ThreadPoolExecutor(max_workers=self.config.max_workers) as pool:
            for outcome in pool.map(guarded, records):
                if outcome is not None:
                    qid, message = outcome
                    self.failed[qid] = message

    def check_failures(self) -> None:
        """Write ``failures.json``, then raise :class:`PartialFailure` above 10%."""
        write_json_record(self.workdir / "failures.json", self.failed)
        if not self.failed:
            return
        rate = len(self.failed) / len(self.records)
        if rate > 0.1:
            raise PartialFailure(self.failed, len(self.records))
        logger.warning("continuing despite %d/%d failed questions", len(self.failed), len(self.records))

    # --- model call helpers -------------------------------------------------

    def _log_call(self, log: list, qid: str, purpose: str, paragraph_index: int | None,
                  prompt_tokens: int, generated_tokens: int) -> None:
        """Append one calls/ row; cost and FLOPs are recomputed from these rows."""
        log.append({
            "question_id": qid,
            "purpose": purpose,
            "paragraph_index": paragraph_index,
            "prompt_tokens": prompt_tokens,
            "generated_tokens": generated_tokens,
        })

    def _fit(self, prompt: RenderedPrompt, count, reserved_tokens: int) -> RenderedPrompt:
        return fit_to_context(
            prompt, count, context_tokens=self.context_tokens, reserved_tokens=reserved_tokens,
        )

    def _score(self, log: list, count, qid: str, purpose: str, paragraph_index: int | None,
               prompt: RenderedPrompt, continuation: str) -> float:
        """log p(continuation | prompt), with the prompt fitted around the continuation."""
        continuation_tokens = count(continuation)
        fitted = self._fit(prompt, count, continuation_tokens)
        value = self.backend.score(fitted.text, continuation)
        self._log_call(log, qid, purpose, paragraph_index, count(fitted.text), continuation_tokens)
        return value

    def _label_log_probs(self, log: list, count, record: QuestionRecord, purpose: str,
                         paragraph_index: int | None,
                         prompt: RenderedPrompt) -> list[tuple[str, float]]:
        """(label, log p(label)) with p the softmax over the label set's scores,
        all made against one fit of ``prompt``."""
        fitted = self._fit(prompt, count, self.config.max_new_tokens)
        scores = {}
        for label in record.label_set:
            continuation = " " + label
            scores[label] = self.backend.score(fitted.text, continuation)
            self._log_call(log, record.id, purpose, paragraph_index, count(fitted.text),
                           count(continuation))
        dist = softmax_scores(scores)
        return [(label, rerank.log_prior(dist[label])) for label in record.label_set]

    def _candidates(self, record: QuestionRecord, log: list, count, kind: str,
                    paragraph_index: int | None, prompt: RenderedPrompt, n_samples: int,
                    seed: int) -> list[tuple[str, float]]:
        """(answer, log p(answer | prompt)) pairs answering ``prompt``.

        Generation records sample ``n_samples`` answers and keep, per
        whitespace-normalized answer, the most probable non-empty one;
        classification records take the label softmax.  ``kind`` names the
        call-log purposes: ``sample_<kind>`` or ``label_<kind>``.
        """
        if record.task == CLASSIFICATION:
            return self._label_log_probs(log, count, record, f"label_{kind}", paragraph_index,
                                         prompt)
        fitted = self._fit(prompt, count, self.config.max_new_tokens)
        samples = self.backend.sample(fitted.text, replace(self.params, n_samples=n_samples), seed)
        self._log_call(log, record.id, f"sample_{kind}", paragraph_index, count(fitted.text),
                       sum(count(s.text) for s in samples))
        by_canon: dict[str, tuple[str, float]] = {}
        for s in samples:
            stripped = s.text.strip()
            if not stripped:
                continue
            canon = " ".join(stripped.split())
            if canon not in by_canon or s.logprob > by_canon[canon][1]:
                by_canon[canon] = (stripped, s.logprob)
        return list(by_canon.values())

    # --- retrieve -----------------------------------------------------------

    def stage_retrieve(self) -> None:
        """Build ranked conditioning paragraphs for every question."""
        if self.config.evidence == CLOSED:
            return
        if self.config.evidence == SEARCH and self.search_client is None:
            raise ConfigError("search evidence mode needs a search client")

        def worker(record: QuestionRecord) -> None:
            if self.config.evidence == GOLD:
                paragraphs = [
                    chunkrank.EvidenceParagraph(source_url=f"gold:{record.id}", ordinal=i,
                                                sentences=(text,))
                    for i, text in enumerate(record.gold_evidence)
                ]
            else:
                documents = websearch.retrieve_documents(
                    record.question, self.search_client, self.cache,
                    num_urls=self.config.num_urls, offline=self.config.offline,
                )
                write_json_record(self._qpath("index", "questions", record.id), {
                    "question_id": record.id,
                    "question": record.question,
                    "urls": [d.url for d in documents],
                })
                paragraphs = []
                for doc in documents:
                    paragraphs.extend(chunkrank.chunk(
                        doc.clean_text, source_url=doc.url, size=self.config.chunk_sentences,
                    ))
            ranked = chunkrank.rank_paragraphs(
                record.question, paragraphs, n=self.config.top_paragraphs,
            ) if paragraphs else []
            write_json_record(self._qpath("paragraphs", self.config.evidence, record.id), {
                "question_id": record.id,
                "paragraphs": [
                    {
                        "url": r.paragraph.source_url,
                        "ordinal": r.paragraph.ordinal,
                        "text": r.paragraph.text,
                        "cosine": r.cosine,
                        "prior": r.prior,
                    }
                    for r in ranked
                ],
            })

        self._map_questions(self._active(self.records), worker, "retrieve")

    def load_paragraphs(self, qid: str) -> list[dict]:
        path = self._qpath("paragraphs", self.config.evidence, qid)
        if not path.exists():
            raise ConfigError(f"no paragraphs artifact for {qid}; run retrieve first")
        return read_json_record(path)["paragraphs"]

    # --- answer (candidate generation and scoring) --------------------------

    def _open_pool_for(self, record: QuestionRecord, log: list) -> list[dict]:
        """Sample candidates per paragraph and attach all rerank scores."""
        paragraphs = self.load_paragraphs(record.id)
        question = record.question
        qa_bank = self.bank("qa")
        q_ap_bank = self.bank("q_given_ap")
        q_p_bank = self.bank("q_given_p")
        a_p_bank = self.bank("a_given_p")
        q_cont = " " + question
        pool: list[dict] = []
        for i, para in enumerate(paragraphs):
            # a paragraph's requests share most texts; a memo per question would
            # hold every distinct prompt until the question ends
            count = functools.cache(self.backend.count_tokens)
            text = para["text"]
            candidates = self._candidates(
                record, log, count, "answer", i, render_qa_prompt(qa_bank, question, text),
                self.config.samples_per_paragraph,
                stable_seed(self.config.seed, record.id, "answer", i),
            )
            if not candidates:
                continue

            lp_q_p = self._score(log, count, record.id, "score_q_given_p", i,
                                 render_prompt(q_p_bank, evidence=text), q_cont)

            label_lp_a_p = None
            if record.task == CLASSIFICATION:
                label_lp_a_p = dict(self._label_log_probs(
                    log, count, record, "label_a_given_p", i, render_prompt(a_p_bank, evidence=text)
                ))

            for answer_text, lp_a_qp in candidates:
                lp_q_ap = self._score(
                    log, count, record.id, "score_q_given_ap", i,
                    render_prompt(q_ap_bank, evidence=text, answer=answer_text), q_cont,
                )
                if label_lp_a_p is not None:
                    lp_a_p = label_lp_a_p[answer_text]
                else:
                    lp_a_p = self._score(log, count, record.id, "score_a_given_p", i,
                                         render_prompt(a_p_bank, evidence=text), " " + answer_text)
                pool.append(_pool_row(
                    answer_text, i, lp_a_qp, lp_q_ap, lp_a_p, lp_q_p, rerank.log_prior(para["prior"])
                ))
        return pool

    def _closed_pool_for(self, record: QuestionRecord, log: list) -> list[dict]:
        prompt = render_closed_book_prompt(self.bank("qa"), record.question)
        candidates = self._candidates(
            record, log, functools.cache(self.backend.count_tokens), "closed", None, prompt,
            self.config.closed_book_samples,
            stable_seed(self.config.seed, record.id, "closed"),
        )
        return [_pool_row(answer_text, CLOSED_PARAGRAPH_INDEX, lp) for answer_text, lp in candidates]

    def _write_pool(self, source: str, record: QuestionRecord, build) -> None:
        log: list[dict] = []
        pool = build(record, log)
        write_json_record(self._qpath("candidates", source, record.id), {
            "question_id": record.id, "pool": pool,
        })
        atomic_write_text(
            self._qpath("calls", source, record.id, ext="jsonl"),
            "".join(canonical_json(entry) + "\n" for entry in log),
        )

    def stage_answer(self) -> None:
        """Open-book candidate pools for the configured evidence mode."""
        if self.config.evidence == CLOSED:
            return
        source = self.config.evidence
        self._map_questions(
            self._active(self.records),
            lambda record: self._write_pool(source, record, self._open_pool_for),
            "answer",
        )

    def stage_closed(self) -> None:
        """Closed-book pools; also the zero-paragraph row of the cost sweep."""
        self._map_questions(
            self._active(self.records),
            lambda record: self._write_pool(CLOSED, record, self._closed_pool_for),
            "closed",
        )

    # --- pools and selection ------------------------------------------------

    def load_pool(self, source: str, qid: str) -> rerank.Pool:
        path = self._qpath("candidates", source, qid)
        if not path.exists():
            raise ConfigError(f"no candidate pool for {qid} under {source!r}; run answer first")
        entries = read_json_record(path)["pool"]
        return [
            (
                rerank.CandidateAnswer(text=e["text"], paragraph_index=int(e["paragraph_index"])),
                rerank.ScoreBundle(
                    lp_a_qp=float(e["lp_a_qp"]),
                    lp_q_ap=float(e["lp_q_ap"]),
                    lp_a_p=float(e["lp_a_p"]),
                    lp_q_p=float(e["lp_q_p"]),
                    lp_prior=float(e["lp_prior"]),
                ),
            )
            for e in entries
        ]

    def _reward_fn(self, record: QuestionRecord):
        if record.task == GENERATION:
            return lambda answer: exact_match(answer.text, record.answers)
        return lambda answer: label_match(answer.text, record.gold_label)

    def stage_tune(self) -> rerank.TuneResult | None:
        """Tune product-of-experts weights on the held-out split."""
        if self.config.evidence == CLOSED or self.config.scorer != rerank.POE:
            return None
        if self.config.poe_weights is not None:
            return None
        instances = []
        for record in self._active(self.heldout_records):
            pool = self.load_pool(self.config.evidence, record.id)
            if pool:
                instances.append((pool, self._reward_fn(record)))
        if not instances:
            logger.warning("no held-out pools to tune on; keeping default weights")
            return None
        result = rerank.tune_weights(instances)
        write_json_record(self.workdir / "weights.json", {
            "evidence": self.config.evidence,
            "heldout_ids": [r.id for r in self.heldout_records],
            **result.to_json(),
        })
        return result

    def resolve_weights(self) -> tuple[float, float, float, float, float]:
        if self.config.poe_weights is not None:
            return tuple(self.config.poe_weights)
        path = self.workdir / "weights.json"
        if path.exists():
            stored = read_json_record(path)
            if stored["evidence"] != self.config.evidence:
                raise ConfigError(
                    f"{path} holds weights tuned under {stored['evidence']!r} evidence, "
                    f"not {self.config.evidence!r}; re-run tune-weights or pass --weights"
                )
            return tuple(float(w) for w in stored["weights"])
        return rerank.DEFAULT_WEIGHTS

    def _rerank_config(self) -> rerank.RerankConfig:
        if self.config.evidence == CLOSED:
            return CLOSED_RERANK
        scorer = self.config.scorer
        return rerank.RerankConfig(
            scorer=scorer,
            poe_weights=self.resolve_weights() if scorer == rerank.POE else rerank.DEFAULT_WEIGHTS,
        )

    def _select(self, record: QuestionRecord, config: rerank.RerankConfig,
                max_paragraphs: int | None) -> rerank.SelectionResult:
        """Best answer from the first ``max_paragraphs`` paragraphs (all if None).

        Questions whose open-book pairs are out of reach (closed evidence, no
        usable evidence, or ``max_paragraphs == 0``) get the closed-book answer.
        """
        pool: rerank.Pool = []
        if self.config.evidence != CLOSED and max_paragraphs != 0:
            pool = [
                (answer, bundle) for answer, bundle in self.load_pool(self.config.evidence, record.id)
                if max_paragraphs is None or answer.paragraph_index < max_paragraphs
            ]
        if pool:
            return rerank.select_answer(pool, config)
        pool = self.load_pool(CLOSED, record.id)
        if not pool:
            raise ConfigError(
                f"no candidate answers for {record.id}: its closed-book samples were all empty"
            )
        return rerank.select_answer(pool, CLOSED_RERANK)

    def stage_rerank(self) -> Path:
        """Select one answer per question and write the predictions artifact."""
        config = self._rerank_config()
        predictions: dict[str, dict] = {}
        for record in self._active(self.records):
            selection = self._select(record, config, None)
            paragraph_index = selection.answer.paragraph_index
            predictions[record.id] = {
                "answer": selection.answer.text,
                "paragraph_index": paragraph_index,
                "paragraph_text": None if paragraph_index == CLOSED_PARAGRAPH_INDEX
                else self.load_paragraphs(record.id)[paragraph_index]["text"],
                "score": selection.score,
                "n_pairs": selection.n_pairs,
                "n_answers": selection.n_answers,
            }
        path = self.workdir / "predictions" / f"{self.prediction_name()}.json"
        write_json_record(path, {
            "dataset_id": self.config.dataset_id,
            "evidence": self.config.evidence,
            "scorer": config.scorer,
            "poe_weights": list(config.poe_weights) if config.scorer == rerank.POE else None,
            "predictions": predictions,
        })
        return path

    # --- evaluation ---------------------------------------------------------

    def stage_eval(self) -> EvalReport:
        """Score predictions over the non-held-out split and write the report."""
        name = self.prediction_name()
        path = self.workdir / "predictions" / f"{name}.json"
        if not path.exists():
            raise ConfigError(f"no predictions at {path}; run rerank first")
        stored = read_json_record(path)
        predictions = stored["predictions"]
        records = [r for r in self._active(self.main_records) if r.id in predictions]
        if not records:
            raise ConfigError("no evaluable questions (all failed or held out)")
        paragraphs = None
        if stored["evidence"] != CLOSED:
            paragraphs = {}
            for record in records:
                paragraphs[record.id] = [p["text"] for p in self.load_paragraphs(record.id)]
        report = evaluate_predictions(
            self.config.dataset_id, records, predictions, paragraphs,
            self.stopwords, recall_ks=self.config.recall_ks,
        )
        write_json_record(self.workdir / "reports" / f"{name}.json", report.to_json())
        return report

    # --- cost ---------------------------------------------------------------

    def _tokens_for(self, source: str, qid: str, max_paragraphs: int | None) -> tuple[int, int]:
        """(prompt, generated) tokens logged for ``qid`` under ``source``,
        counting only paragraphs below ``max_paragraphs`` unless it is None."""
        path = self._qpath("calls", source, qid, ext="jsonl")
        if not path.exists():
            raise ConfigError(f"no call log for {qid} under {source!r}; run answer first")
        prompt = 0
        generated = 0
        with open(path, encoding="utf-8") as fp:
            for line in fp:
                if not line.strip():
                    continue
                entry = json.loads(line)
                idx = entry["paragraph_index"]
                if max_paragraphs is not None and (idx is None or idx >= max_paragraphs):
                    continue
                prompt += int(entry["prompt_tokens"])
                generated += int(entry["generated_tokens"])
        return prompt, generated

    def stage_cost(self) -> list[dict]:
        """Accuracy versus compute as the number of conditioning paragraphs grows.

        Row 0 is the closed-book model; row m reranks only candidates from the
        first m paragraphs and counts only the model calls those required.
        """
        eval_records = self._active(self.main_records)
        if not eval_records:
            raise ConfigError("no questions left for the cost sweep")
        config = self._rerank_config()
        if self.config.evidence == CLOSED:
            points = [0]
        else:
            points = sorted({m for m in self.config.cost_points if 0 <= m <= self.config.top_paragraphs})
        rows = []
        for m in points:
            correct = []
            prompt_tokens = 0
            generated_tokens = 0
            for record in eval_records:
                selection = self._select(record, config, m)
                correct.append(self._reward_fn(record)(selection.answer))
                source = CLOSED if m == 0 else self.config.evidence
                p_tok, g_tok = self._tokens_for(source, record.id, m or None)
                prompt_tokens += p_tok
                generated_tokens += g_tok
            total = prompt_tokens + generated_tokens
            rows.append({
                "paragraphs": m,
                "prompt_tokens": prompt_tokens,
                "generated_tokens": generated_tokens,
                "total_tokens": total,
                "flops": flops_for_tokens(self.param_count, total),
                "metric": left_sum(correct) / len(correct),
            })
        write_json_record(self.workdir / "cost" / f"{self.prediction_name()}.json", {
            "dataset_id": self.config.dataset_id,
            "evidence": self.config.evidence,
            "scorer": config.scorer,
            "param_count": self.param_count,
            "n_questions": len(eval_records),
            "rows": rows,
        })
        return rows

    # --- orchestration ------------------------------------------------------

    def run(self) -> EvalReport:
        """All stages in order; raises :class:`PartialFailure` at >10% failures."""
        self.stage_retrieve()
        self.stage_answer()
        self.stage_closed()
        self.stage_tune()
        self.stage_rerank()
        report = self.stage_eval()
        self.stage_cost()
        self.check_failures()
        return report
