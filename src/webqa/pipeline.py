"""End-to-end stages: retrieve, answer, tune, rerank, evaluate, cost.

``run`` takes each question through retrieve and answer in one pass, then runs
the later stages over all questions.  Every stage reads and writes plain JSON
artifacts under a working directory and routes all model and network traffic
through one request cache, its backend's (``Pipeline.cache`` is ``backend.cache``),
a question's requests through that question's scope, so a re-run over a warm cache
reproduces every artifact byte for byte and an offline run works entirely from cache.

    cache/                      the backend's request cache, packs per question
    index/<qid>.json            question and the URLs retrieved for it
    paragraphs/<evidence>/      ranked conditioning paragraphs per question
    candidates/<evidence>/      rerank pools per question: per (answer, paragraph)
                                pair, its CandidateAnswer and ScoreBundle fields
    calls/<evidence>/           one JSONL row per model response used (token counts)
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
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, TypeVar

from . import chunkrank, net, rerank, websearch
from .cache import RequestCache, atomic_write_text, read_json_record, write_json_record
from .corpus import (
    CLASSIFICATION,
    GENERATION,
    PromptBank,
    QuestionRecord,
    bundled_bank_path,
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
    CachedBackend,
    GenerationParams,
    PromptTooLong,
    Score,
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
# the prompt banks an open-book pool renders, in the order _open_pool_for unpacks them
OPEN_BANK_KINDS = ("qa", "q_given_ap", "q_given_p", "a_given_p")
# closed-book pools carry only lp_a_qp, so they are always ranked by it
CLOSED_RERANK = rerank.RerankConfig(scorer=rerank.ANSWER_PROB)

_Response = TypeVar("_Response")  # a backend's Score or Completion


class ConfigError(ValueError):
    """Bad run configuration: unusable dataset, flags, or banks."""


# only I/O (net.NetError is an OSError), bad input (ConfigError, CorpusError,
# PromptBudgetError, bad JSON) and search errors fail one question; bugs propagate
_QUESTION_ERRORS = (OSError, ValueError, websearch.SearchError)


class _PassFailed(Exception):
    """``(stage, error)``: a question error in ``stage``, one step of a
    worker that runs several."""


def _in_step(stage: str, fn, *args):
    """``fn(*args)``, a question error in it a failure of ``stage``."""
    try:
        return fn(*args)
    except _QUESTION_ERRORS as exc:
        raise _PassFailed(stage, exc) from exc


@dataclass(frozen=True)
class _Pass:
    """One question's pool build: its record, the backend scoped to its cache
    scope, and the calls/ lines it logs."""

    record: QuestionRecord
    backend: CachedBackend
    log: list[str]


class PartialFailure(RuntimeError):
    """More than the tolerated share of questions failed a stage."""

    def __init__(self, failed: dict[str, str], total: int):
        self.failed = failed
        self.total = total
        super().__init__(f"{len(failed)}/{total} questions failed")


def setting(default=MISSING, help: str = "", **metadata):
    """A settings field with its flag's help.  ``metadata`` may add a config-file
    ``key`` other than the field name, a ``flag`` other than ``--<key>`` (None:
    config file only), ``choices``, and a ``cli_default`` for a field without a
    default whose command-line value is derived when left out; ``webqa.cli``
    derives the rest from the type."""
    return field(default=default, metadata={"help": help, **metadata})


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline setting: its type, default and command-line help."""

    dataset_path: str = setting(help="line-delimited JSON dataset", key="dataset")
    dataset_id: str = setting(help="bank lookup key (default: dataset file stem)", cli_default=None)
    workdir: str = setting(help="directory for cache and artifacts")
    evidence: str = setting(SEARCH, "conditioning evidence: search, gold, or closed", choices=EVIDENCE_MODES)
    scorer: str = setting(rerank.POE, "answer selection scorer", choices=rerank.SCORERS)
    poe_weights: tuple[float, float, float, float, float] | None = setting(
        None, f"comma-separated fixed weights for poe ({','.join(rerank.WEIGHT_NAMES)})", key="weights")
    num_urls: int = setting(websearch.DEFAULT_TOP_URLS, "search results fetched per question",
                            flag="--top-urls")
    chunk_sentences: int = setting(chunkrank.DEFAULT_CHUNK_SENTENCES, "sentences per evidence paragraph")
    top_paragraphs: int = setting(chunkrank.DEFAULT_TOP_PARAGRAPHS, "paragraphs kept after ranking",
                                  flag="--paragraphs")
    samples_per_paragraph: int = setting(4, "answers sampled from each paragraph")
    closed_book_samples: int = setting(200, "answers sampled without evidence")
    nucleus_p: float = setting(DEFAULT_NUCLEUS_P, "nucleus sampling probability cut-off")
    temperature: float = setting(DEFAULT_TEMPERATURE, "sampling temperature")
    max_new_tokens: int = setting(DEFAULT_MAX_NEW_TOKENS, "generation budget per sample")
    stop: tuple[str, ...] = setting(DEFAULT_STOP, flag=None)
    heldout_fraction: float = setting(0.1, "share of questions held out for weight tuning")
    seed: int = setting(0, "base seed for sampling and splits")
    max_workers: int = setting(8, "questions processed concurrently; 1 runs each pass on the "
                                  "calling thread and starts no thread")
    cost_points: tuple[int, ...] = setting(
        DEFAULT_COST_POINTS,
        "comma-separated paragraph counts for the cost sweep; counts above --paragraphs are left out, "
        "and a sweep left with none is refused")
    context_tokens: int | None = setting(None, "prompt budget override (default: backend context size)")
    recall_ks: tuple[int, ...] = setting(DEFAULT_RECALL_KS, "comma-separated cut-offs for answer recall")
    banks_dir: str | None = setting(None, "directory with <dataset_id>_<kind>.txt prompt banks")

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
        if any(k < 1 for k in self.recall_ks):
            raise ConfigError("recall_ks entries must be >= 1")
        if any(m < 0 for m in self.cost_points):
            raise ConfigError("cost_points entries must be >= 0")
        if self.evidence != CLOSED and not any(m <= self.top_paragraphs for m in self.cost_points):
            raise ConfigError(f"cost_points has no entry of at most {self.top_paragraphs} paragraphs")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must be in (0, 1)")
        if self.poe_weights is not None:
            try:
                rerank.RerankConfig(scorer=self.scorer, poe_weights=self.poe_weights)
            except ValueError as exc:
                raise ConfigError(f"weights: {exc}") from None


# a candidates/ row holds the fields of one pool pair: its answer's and its scores'
_ROW_FIELDS = {cls: tuple(f.name for f in fields(cls))
               for cls in (rerank.CandidateAnswer, rerank.ScoreBundle)}
_ANSWER_VALUES, _SCORE_VALUES = (operator.itemgetter(*names) for names in _ROW_FIELDS.values())


def _to_row(pair: tuple[rerank.CandidateAnswer, rerank.ScoreBundle]) -> dict:
    return {name: getattr(obj, name) for obj in pair for name in _ROW_FIELDS[type(obj)]}


def _from_row(row: dict) -> tuple[rerank.CandidateAnswer, rerank.ScoreBundle]:
    return rerank.CandidateAnswer(*_ANSWER_VALUES(row)), rerank.ScoreBundle(*_SCORE_VALUES(row))


# canonical_json of a string, with no encoder call around it
_json_string = json.encoder.encode_basestring


def _call_line(question_id: str, purpose: str, paragraph_index: int | None,
               prompt_tokens: int, generated_tokens: int) -> str:
    """One calls/ line: the canonical JSON of its row, keys in sorted order,
    written out field by field since it is made for every model response."""
    index = "null" if paragraph_index is None else paragraph_index
    return (f'{{"generated_tokens":{generated_tokens},"paragraph_index":{index},'
            f'"prompt_tokens":{prompt_tokens},"purpose":{_json_string(purpose)},'
            f'"question_id":{_json_string(question_id)}}}\n')


def stable_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class Pipeline:
    def __init__(self, config: PipelineConfig, backend: CachedBackend, search_client=None):
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
        self.cache = backend.cache
        self.workdir = Path(config.workdir)
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
        self._thread_pool = None
        if config.max_workers > 1:
            # imported here, not with the module: a one-worker run never starts a pool
            from concurrent.futures import ThreadPoolExecutor
            self._thread_pool = ThreadPoolExecutor
        self._banks: dict[str, PromptBank] = {}
        self.stopwords = load_stopwords()
        try:
            descriptor = backend.describe()
        except ValueError as exc:
            raise ConfigError(f"cannot describe the backend: {exc}") from None
        needs_scores = config.evidence != CLOSED or any(
            r.task == CLASSIFICATION for r in self.records)
        if not descriptor.can_score and needs_scores:
            raise ConfigError(
                f"backend {descriptor.name!r} cannot score continuations; only closed "
                "evidence mode on generation records works without scoring"
            )
        self.context_tokens = config.context_tokens or descriptor.context_tokens
        if self.context_tokens <= config.max_new_tokens:  # every sample and label score reserves it
            raise ConfigError(f"context_tokens {self.context_tokens} must exceed max_new_tokens")
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
            where = Path(self.config.banks_dir) / f"{dataset_id}_{kind}.txt"
            if where.is_file():
                bank = load_prompt_bank(where)
        if bank is None:
            where = bundled_bank_path(dataset_id, kind)
            bank = load_bundled_bank(dataset_id, kind)
        if bank is None:
            if kind == "qa":
                raise ConfigError(
                    f"no qa prompt bank for dataset {dataset_id!r}; "
                    f"ship one or pass a banks directory"
                )
            bank = derive_scorer_bank(self.bank("qa"), kind)
        if bank.kind != kind:
            raise ConfigError(f"{where}: bank for {kind!r} declares kind {bank.kind!r}")
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
        """``worker(record)`` for every record.  With one worker the records run
        in order on the calling thread, so no pool thread (and no malloc arena
        of its own) is started; otherwise on a thread pool.  A question error
        fails its record under ``stage``, or under the stage a
        :class:`_PassFailed` names."""
        def guarded(record):
            try:
                worker(record)
            except _PassFailed as exc:
                failed_stage, error = exc.args
            except _QUESTION_ERRORS as exc:
                failed_stage, error = stage, exc
            else:
                return None
            logger.warning("%s failed for %s: %s", failed_stage, record.id, error)
            return record.id, f"{failed_stage}: {error}"

        if self._thread_pool is None:
            self.failed.update(filter(None, map(guarded, records)))
            return
        with self._thread_pool(max_workers=self.config.max_workers) as pool:
            self.failed.update(filter(None, pool.map(guarded, records)))

    def load_failures(self) -> None:
        """Skip the questions ``failures.json`` lists, as :meth:`run` skips those its pass failed."""
        path = self.workdir / "failures.json"
        self.failed = read_json_record(path) if path.exists() else {}

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

    def _request(self, pass_: _Pass, purpose: str, paragraph_index: int | None,
                 prompt: RenderedPrompt, sends: list[Callable[[RenderedPrompt], _Response]],
                 reserve: Callable[[_Response | None], int]) -> list[_Response]:
        """``[send(fitted) for send in sends]`` for the rendering of ``prompt``
        that fits the context, each response logged as one calls/ line.

        ``prompt`` is sent as rendered through ``sends[0]``, and its response's
        ``prompt_tokens`` decide whether it fitted ``context_tokens - reserve(response)``.
        Only when it did not, or the server refused it as too long (then
        ``reserve(None)``), is it fitted with ``count_tokens`` and sent again.
        The other ``sends`` get the rendering the first one kept.  A send
        passes the rendering's ``sha256`` on as the backend's ``prompt_sha256``,
        and a count as its ``text_sha256``, so no prompt text is hashed again
        for its cache key.  Cost and FLOPs are recomputed from the rows, which
        log only the responses kept.
        """
        first, *rest = sends
        response = None
        try:
            response = first(prompt)
        except PromptTooLong:
            pass
        if response is None or response.prompt_tokens > self.context_tokens - reserve(response):
            prompt = fit_to_context(prompt, lambda p: pass_.backend.count_tokens(p.text, text_sha256=p.sha256),
                                    context_tokens=self.context_tokens, reserved_tokens=reserve(response))
            response = first(prompt)
        responses = [response] + [send(prompt) for send in rest]
        for r in responses:
            generated = r.continuation_tokens if isinstance(r, Score) else sum(s.tokens for s in r)
            pass_.log.append(_call_line(pass_.record.id, purpose, paragraph_index, r.prompt_tokens, generated))
        return responses

    def _score(self, pass_: _Pass, purpose: str, paragraph_index: int | None,
               prompt: RenderedPrompt, continuation: str) -> float:
        """log p(continuation | prompt), with the prompt fitted around the continuation."""
        [score] = self._request(
            pass_, purpose, paragraph_index, prompt,
            [lambda p: pass_.backend.score(p.text, continuation, prompt_sha256=p.sha256)],
            lambda score: pass_.backend.count_tokens(continuation) if score is None
            else score.continuation_tokens,
        )
        return score.logprob

    def _label_log_probs(self, pass_: _Pass, purpose: str, paragraph_index: int | None,
                         prompt: RenderedPrompt) -> list[tuple[str, float]]:
        """(label, log p(label)) with p the softmax over the label set's scores,
        all made against one fit of ``prompt``."""
        labels = pass_.record.label_set
        scores = self._request(
            pass_, purpose, paragraph_index, prompt,
            [lambda p, label=label: pass_.backend.score(p.text, " " + label, prompt_sha256=p.sha256)
             for label in labels],
            lambda _: self.config.max_new_tokens,
        )
        dist = softmax_scores({label: score.logprob for label, score in zip(labels, scores)})
        return [(label, rerank.log_prior(dist[label])) for label in labels]

    def _candidates(self, pass_: _Pass, kind: str, paragraph_index: int | None,
                    prompt: RenderedPrompt, n_samples: int, seed: int) -> list[tuple[str, float]]:
        """(answer, log p(answer | prompt)) pairs answering ``prompt``.

        Generation records sample ``n_samples`` answers and keep, per
        whitespace-normalized answer, the most probable non-empty one;
        classification records take the label softmax.  ``kind`` names the
        call-log purposes: ``sample_<kind>`` or ``label_<kind>``.
        """
        if pass_.record.task == CLASSIFICATION:
            return self._label_log_probs(pass_, f"label_{kind}", paragraph_index, prompt)
        params = replace(self.params, n_samples=n_samples)
        [samples] = self._request(pass_, f"sample_{kind}", paragraph_index, prompt,
                                  [lambda p: pass_.backend.sample(p.text, params, seed, prompt_sha256=p.sha256)],
                                  lambda _: self.config.max_new_tokens)
        by_canon: dict[str, tuple[str, float]] = {}
        for s in samples:
            stripped = s.text.strip()
            if not stripped:
                continue
            canon = " ".join(stripped.split())
            if canon not in by_canon or s.logprob > by_canon[canon][1]:
                by_canon[canon] = (stripped, s.logprob)
        return list(by_canon.values())

    # --- the per-question pass ---------------------------------------------

    def _map_scoped(self, work, stage: str, retrieve: bool) -> None:
        """``work(record, scope)`` for each active question in its cache scope;
        ``retrieve`` under search evidence needs a search client or an offline cache."""
        if retrieve and self.config.evidence == SEARCH and self.search_client is None and not self.cache.offline:
            raise ConfigError("search evidence mode needs a search client")

        def worker(record: QuestionRecord) -> None:
            # the question's search, fetches and LM requests share one connection per host
            with net.session(), self.cache.question_scope(record.id) as scope:
                work(record, scope)

        self._map_questions(self._active(self.records), worker, stage)

    def _retrieve_for(self, record: QuestionRecord, scope: RequestCache) -> list[dict]:
        """Rank ``record``'s paragraphs, searching and fetching through ``scope``
        under search evidence; writes index/ and paragraphs/ and returns the
        paragraphs/ rows."""
        if self.config.evidence == GOLD:
            paragraphs = [
                chunkrank.EvidenceParagraph(source_url=f"gold:{record.id}", ordinal=i,
                                            sentences=(text,))
                for i, text in enumerate(record.gold_evidence)
            ]
        else:
            documents = websearch.retrieve_documents(
                record.question, self.search_client, scope, num_urls=self.config.num_urls)
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
        rows = [{"url": r.paragraph.source_url, "ordinal": r.paragraph.ordinal, "text": r.paragraph.text,
                 "cosine": r.cosine, "prior": r.prior} for r in ranked]
        write_json_record(self._qpath("paragraphs", self.config.evidence, record.id),
                          {"question_id": record.id, "paragraphs": rows})
        return rows

    def stage_retrieve(self) -> None:
        """Build ranked conditioning paragraphs for every question."""
        if self.config.evidence != CLOSED:
            self._map_scoped(self._retrieve_for, "retrieve", retrieve=True)

    def load_paragraphs(self, qid: str) -> list[dict]:
        path = self._qpath("paragraphs", self.config.evidence, qid)
        if not path.exists():
            raise ConfigError(f"no paragraphs artifact for {qid}; run retrieve first")
        return read_json_record(path)["paragraphs"]

    def _open_pool_for(self, pass_: _Pass, paragraphs: list[dict],
                       banks: tuple[PromptBank, ...]) -> rerank.Pool:
        """Sample candidates per paragraphs/ row and attach all rerank scores."""
        record = pass_.record
        question = record.question
        qa_bank, q_ap_bank, q_p_bank, a_p_bank = banks
        q_cont = " " + question
        pool: rerank.Pool = []
        for i, para in enumerate(paragraphs):
            text = para["text"]
            candidates = self._candidates(
                pass_, "answer", i, render_qa_prompt(qa_bank, question, text),
                self.config.samples_per_paragraph,
                stable_seed(self.config.seed, record.id, "answer", i),
            )
            if not candidates:
                continue

            lp_q_p = self._score(pass_, "score_q_given_p", i,
                                 render_prompt(q_p_bank, evidence=text), q_cont)

            a_p_prompt = render_prompt(a_p_bank, evidence=text)
            label_lp_a_p = None
            if record.task == CLASSIFICATION:
                label_lp_a_p = dict(self._label_log_probs(pass_, "label_a_given_p", i, a_p_prompt))

            for answer_text, lp_a_qp in candidates:
                lp_q_ap = self._score(
                    pass_, "score_q_given_ap", i,
                    render_prompt(q_ap_bank, evidence=text, answer=answer_text), q_cont,
                )
                if label_lp_a_p is not None:
                    lp_a_p = label_lp_a_p[answer_text]
                else:
                    lp_a_p = self._score(pass_, "score_a_given_p", i, a_p_prompt, " " + answer_text)
                pool.append((rerank.CandidateAnswer(answer_text, i), rerank.ScoreBundle(
                    lp_a_qp, lp_q_ap, lp_a_p, lp_q_p, rerank.log_prior(para["prior"]))))
        return pool

    def _closed_pool_for(self, pass_: _Pass, qa_bank: PromptBank) -> rerank.Pool:
        """Closed-book pairs; they score only lp_a_qp, so the other four are 0."""
        prompt = render_closed_book_prompt(qa_bank, pass_.record.question)
        candidates = self._candidates(
            pass_, "closed", None, prompt, self.config.closed_book_samples,
            stable_seed(self.config.seed, pass_.record.id, "closed"),
        )
        return [(rerank.CandidateAnswer(answer_text, CLOSED_PARAGRAPH_INDEX),
                 rerank.ScoreBundle(lp, 0.0, 0.0, 0.0, 0.0)) for answer_text, lp in candidates]

    def _write_pool(self, source: str, record: QuestionRecord, backend: CachedBackend,
                    build) -> None:
        """Write the pool ``build(_Pass(record, backend, log))`` returns to
        candidates/ and the lines it logs to calls/."""
        log: list[str] = []
        pool = build(_Pass(record, backend, log))
        write_json_record(self._qpath("candidates", source, record.id), {
            "question_id": record.id,
            "pool": [_to_row(pair) for pair in pool],
        })
        atomic_write_text(
            self._qpath("calls", source, record.id, ext="jsonl"),
            "".join(log),
        )

    def stage_answer(self, *, retrieve: bool = False) -> None:
        """Each question's one pass in one cache scope: its paragraphs (ranked
        with ``retrieve``, else read from paragraphs/), its open-book pool from
        them, then its closed-book pool (only that under closed evidence).  A
        failure names its step: ``retrieve``, ``answer`` or ``closed``."""
        # banks load, and paragraphs/ is looked for, before the first question, so
        # an unusable bank or a missing retrieve stops the run here instead of
        # failing every question
        open_banks = () if self.config.evidence == CLOSED else tuple(map(self.bank, OPEN_BANK_KINDS))
        paragraphs = self.workdir / "paragraphs" / self.config.evidence
        if not (retrieve or self.config.evidence == CLOSED or paragraphs.is_dir()):
            raise ConfigError(f"no paragraphs/{self.config.evidence}/ in the workdir; run retrieve first")
        closed_build = functools.partial(self._closed_pool_for, qa_bank=self.bank("qa"))

        def work(record: QuestionRecord, scope: RequestCache) -> None:
            backend = self.backend.scoped(scope)
            if self.config.evidence != CLOSED:
                rows = (_in_step("retrieve", self._retrieve_for, record, scope) if retrieve
                        else self.load_paragraphs(record.id))
                self._write_pool(self.config.evidence, record, backend, functools.partial(
                    self._open_pool_for, paragraphs=rows, banks=open_banks))
            _in_step("closed", self._write_pool, CLOSED, record, backend, closed_build)

        self._map_scoped(work, "answer", retrieve)

    def stage_closed(self) -> None:
        """Nothing: :meth:`stage_answer` builds every closed-book pool.  Kept for
        callers of ``stage_answer(); stage_closed()`` and tools that wrap each stage."""

    # --- pools and selection ------------------------------------------------

    def load_pool(self, source: str, qid: str) -> rerank.Pool:
        path = self._qpath("candidates", source, qid)
        if not path.exists():
            raise ConfigError(f"no candidate pool for {qid} under {source!r}; run answer first")
        return [_from_row(row) for row in read_json_record(path)["pool"]]

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
                max_paragraphs: int | None, load_pool) -> rerank.SelectionResult:
        """Best answer from the first ``max_paragraphs`` paragraphs (all if None),
        reading pools through ``load_pool`` (:meth:`load_pool` or a memo of it).

        Questions whose open-book pairs are out of reach (closed evidence, no
        usable evidence, or ``max_paragraphs == 0``) get the closed-book answer.
        """
        pool: rerank.Pool = []
        if self.config.evidence != CLOSED and max_paragraphs != 0:
            pool = [
                (answer, bundle) for answer, bundle in load_pool(self.config.evidence, record.id)
                if max_paragraphs is None or answer.paragraph_index < max_paragraphs
            ]
        if pool:
            return rerank.select_answer(pool, config)
        pool = load_pool(CLOSED, record.id)
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
            selection = self._select(record, config, None, self.load_pool)
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

    def _logged_tokens(self, source: str, qid: str) -> dict[int | None, list[int]]:
        """[prompt, generated] tokens logged for ``qid`` under ``source``, summed
        per paragraph index (None for closed book)."""
        path = self._qpath("calls", source, qid, ext="jsonl")
        if not path.exists():
            raise ConfigError(f"no call log for {qid} under {source!r}; run answer first")
        sums: dict[int | None, list[int]] = {}
        with open(path, encoding="utf-8") as fp:
            lines = [line for line in fp if line.strip()]
        # the rows decoded as one JSON array, in one call; a line that holds
        # other than one value shows as a count that differs
        entries = json.loads(f"[{','.join(lines)}]")
        if len(entries) != len(lines):
            raise ValueError(f"{path}: a line holds other than one row")
        for entry in entries:
            tokens = sums.setdefault(entry["paragraph_index"], [0, 0])
            tokens[0] += int(entry["prompt_tokens"])
            tokens[1] += int(entry["generated_tokens"])
        return sums

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
            points = sorted({m for m in self.config.cost_points if m <= self.config.top_paragraphs})
        correct: dict[int, list[float]] = {m: [] for m in points}
        tokens = {m: [0, 0] for m in points}  # [prompt, generated]
        for record in eval_records:
            # read each of the question's pools and call logs once for all points
            load_pool = functools.cache(self.load_pool)
            logged_tokens = functools.cache(self._logged_tokens)
            for m in points:
                selection = self._select(record, config, m, load_pool)
                correct[m].append(self._reward_fn(record)(selection.answer))
                source = CLOSED if m == 0 else self.config.evidence
                for idx, (p_tok, g_tok) in logged_tokens(source, record.id).items():
                    if m == 0 or (idx is not None and idx < m):
                        tokens[m][0] += p_tok
                        tokens[m][1] += g_tok
        rows = []
        for m in points:
            prompt_tokens, generated_tokens = tokens[m]
            total = prompt_tokens + generated_tokens
            rows.append({
                "paragraphs": m,
                "prompt_tokens": prompt_tokens,
                "generated_tokens": generated_tokens,
                "total_tokens": total,
                "flops": flops_for_tokens(self.param_count, total),
                "metric": left_sum(correct[m]) / len(correct[m]),
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
        """Each question's one pass, then the stages over all questions; above 10%
        failed questions, raises :class:`PartialFailure` before ``rerank`` writes anything."""
        self.stage_answer(retrieve=True)
        self.check_failures()
        self.stage_tune()
        self.stage_rerank()
        report = self.stage_eval()
        self.stage_cost()
        return report
