import hashlib
import json
import re
import threading
from collections import Counter

import pytest
from conftest import cached_backend

from webqa import pipeline as pipeline_module
from webqa.cache import RequestCache, canonical_json
from webqa.corpus import load_dataset
from webqa.fixtures import FixtureServer
from webqa.lmbackend import CachedBackend, MockBackend, extractive_completion
from webqa.pipeline import (
    CLOSED,
    GOLD,
    SEARCH,
    ConfigError,
    Pipeline,
    PipelineConfig,
    stable_seed,
)
from webqa.rerank import DEFAULT_WEIGHTS
from webqa.websearch import FixtureSearchClient


def _config(dataset_path, workdir, **kwargs):
    base = dict(
        dataset_path=str(dataset_path),
        dataset_id="fixtureqa",
        workdir=str(workdir),
        evidence=GOLD,
        top_paragraphs=4,
        samples_per_paragraph=2,
        closed_book_samples=4,
        max_new_tokens=16,
        cost_points=(0, 1, 2),
        max_workers=2,
    )
    base.update(kwargs)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def gold_run(tmp_path_factory, qa_dataset_path_module, banks_dir_module):
    """One full gold-evidence run shared by the read-only assertions."""
    workdir = tmp_path_factory.mktemp("gold")
    config = _config(qa_dataset_path_module, workdir,
                     banks_dir=str(banks_dir_module))
    pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
    report = pipeline.run()
    return pipeline, report, workdir


@pytest.fixture(scope="module")
def qa_dataset_path_module():
    import pathlib
    return pathlib.Path(__file__).resolve().parent / "fixtures" / "fixtureqa.jsonl"


@pytest.fixture(scope="module")
def banks_dir_module():
    import pathlib
    return pathlib.Path(__file__).resolve().parent / "fixtures" / "banks"


def test_stable_seed_is_deterministic_and_distinct():
    assert stable_seed(0, "q01", "answer", 3) == stable_seed(0, "q01", "answer", 3)
    assert stable_seed(0, "q01", "answer", 3) != stable_seed(0, "q01", "answer", 4)
    assert stable_seed(1, "q01") != stable_seed(2, "q01")
    assert 0 <= stable_seed("anything") < 2 ** 32


class TestConfigValidation:
    def test_unknown_evidence_mode(self, qa_dataset_path, tmp_path):
        with pytest.raises(ConfigError):
            _config(qa_dataset_path, tmp_path, evidence="oracle")

    def test_unknown_scorer(self, qa_dataset_path, tmp_path):
        with pytest.raises(ConfigError):
            _config(qa_dataset_path, tmp_path, scorer="best_guess")

    def test_bad_fraction(self, qa_dataset_path, tmp_path):
        with pytest.raises(ConfigError):
            _config(qa_dataset_path, tmp_path, heldout_fraction=1.0)

    def test_cost_sweep_with_no_point_in_range(self, qa_dataset_path, tmp_path):
        """Counts above ``top_paragraphs`` are left out; with none left under
        open-book evidence the sweep is refused, closed book sweeps only 0."""
        assert _config(qa_dataset_path, tmp_path, cost_points=(1, 9)).cost_points == (1, 9)
        for evidence in (GOLD, SEARCH):
            with pytest.raises(ConfigError, match="^cost_points has no entry of at most 4 paragraphs$"):
                _config(qa_dataset_path, tmp_path, evidence=evidence, cost_points=(7, 9))
        _config(qa_dataset_path, tmp_path, evidence=CLOSED, scorer="answer_prob", cost_points=(7, 9))

    def test_missing_dataset_file(self, tmp_path):
        config = _config(tmp_path / "absent.jsonl", tmp_path)
        with pytest.raises(ConfigError):
            Pipeline(config, cached_backend(MockBackend(), config.workdir))

    def test_gold_mode_requires_gold_evidence(self, tmp_path, banks_dir):
        path = tmp_path / "nogold.jsonl"
        path.write_text(json.dumps({
            "id": "a", "question": "q", "task": "generation",
            "answers": ["x"], "gold_evidence": [],
        }) + "\n", encoding="utf-8")
        config = _config(path, tmp_path / "w", dataset_id="nogold",
                         banks_dir=str(banks_dir))
        with pytest.raises(ConfigError) as err:
            Pipeline(config, cached_backend(MockBackend(), config.workdir))
        assert "gold_evidence" in str(err.value)

    def test_scoring_backend_required_for_open_book(self, qa_dataset_path,
                                                    tmp_path, banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
        with pytest.raises(ConfigError):
            Pipeline(config, cached_backend(MockBackend(can_score=False), config.workdir))

    def test_closed_book_tolerates_no_scoring(self, qa_dataset_path,
                                              tmp_path, banks_dir):
        config = _config(qa_dataset_path, tmp_path, evidence=CLOSED,
                         scorer="answer_prob", banks_dir=str(banks_dir))
        Pipeline(config, cached_backend(MockBackend(can_score=False), config.workdir))

    def test_closed_book_labels_need_scoring(self, cls_dataset_path, tmp_path, banks_dir):
        config = _config(cls_dataset_path, tmp_path, dataset_id="fixturecls", evidence=CLOSED,
                         scorer="answer_prob", banks_dir=str(banks_dir))
        with pytest.raises(ConfigError, match="cannot score"):
            Pipeline(config, cached_backend(MockBackend(can_score=False), config.workdir))


class TestBanks:
    def test_banks_dir_takes_precedence(self, qa_dataset_path, tmp_path,
                                        banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        assert pipeline.bank("qa").dataset_id == "fixtureqa"
        assert pipeline.bank("qa").k == 3

    def test_scorer_banks_derive_from_qa(self, qa_dataset_path, tmp_path,
                                         banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        derived = pipeline.bank("q_given_ap")
        assert derived.kind == "q_given_ap"
        assert derived.k == pipeline.bank("qa").k

    def test_unknown_dataset_without_banks_fails(self, qa_dataset_path,
                                                 tmp_path):
        config = _config(qa_dataset_path, tmp_path, dataset_id="mystery")
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        with pytest.raises(ConfigError):
            pipeline.bank("qa")

    def test_mislabeled_bundled_bank_names_its_asset(self, qa_dataset_path, tmp_path,
                                                     monkeypatch):
        bundled = pipeline_module.load_bundled_bank
        monkeypatch.setattr(pipeline_module, "load_bundled_bank",
                            lambda dataset_id, kind: bundled(dataset_id, "qa"))
        config = _config(qa_dataset_path, tmp_path, dataset_id="nq")
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        with pytest.raises(ConfigError, match=re.escape(
                "assets/prompts/nq_q_given_p.txt: bank for 'q_given_p' declares kind 'qa'")):
            pipeline.bank("q_given_p")


class _ThreadRecordingMock(MockBackend):
    """MockBackend that records the thread of every sample and score request."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def sample(self, prompt, params, seed):
        self.threads.add(threading.current_thread())
        return super().sample(prompt, params, seed)

    def score(self, prompt, continuation):
        self.threads.add(threading.current_thread())
        return super().score(prompt, continuation)


class TestWorkerThreads:
    def _run(self, tmp_path, qa_dataset_path, banks_dir, monkeypatch, max_workers):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        inner = _ThreadRecordingMock()
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir),
                         max_workers=max_workers)
        Pipeline(config, cached_backend(inner, config.workdir)).run()
        assert inner.threads
        return inner.threads, started

    def test_one_worker_runs_on_the_calling_thread(self, tmp_path, qa_dataset_path, banks_dir,
                                                   monkeypatch):
        threads, started = self._run(tmp_path, qa_dataset_path, banks_dir, monkeypatch, 1)
        assert threads == {threading.current_thread()}
        assert started == []

    def test_more_workers_run_on_pool_threads(self, tmp_path, qa_dataset_path, banks_dir,
                                              monkeypatch):
        threads, started = self._run(tmp_path, qa_dataset_path, banks_dir, monkeypatch, 2)
        assert threading.current_thread() not in threads
        assert threads <= set(started)


class TestGoldRun:
    def test_report_covers_main_split(self, gold_run):
        pipeline, report, _ = gold_run
        assert report.n_questions == len(pipeline.main_records)
        assert report.n_questions == 9  # 10 records minus 10% heldout
        assert report.metric_name == "exact_match"

    def test_artifact_tree(self, gold_run):
        _, _, workdir = gold_run
        assert (workdir / "paragraphs" / "gold").is_dir()
        assert (workdir / "candidates" / "gold").is_dir()
        assert (workdir / "candidates" / "closed").is_dir()
        assert (workdir / "calls" / "gold").is_dir()
        assert (workdir / "weights.json").is_file()
        preds = list((workdir / "predictions").glob("*.json"))
        reports = list((workdir / "reports").glob("*.json"))
        assert [p.name for p in preds] == ["gold_poe.json"]
        assert [p.name for p in reports] == ["gold_poe.json"]
        assert (workdir / "cost" / "gold_poe.json").is_file()

    def test_paragraphs_carry_priors_on_simplex(self, gold_run):
        pipeline, _, workdir = gold_run
        for record in pipeline.main_records:
            rows = pipeline.load_paragraphs(record.id)
            assert rows, record.id
            total = sum(r["prior"] for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(r["url"].startswith("gold:") for r in rows)

    def test_pools_reference_real_paragraphs(self, gold_run):
        pipeline, _, _ = gold_run
        for record in pipeline.main_records:
            pool = pipeline.load_pool("gold", record.id)
            n_paras = len(pipeline.load_paragraphs(record.id))
            assert pool
            for answer, bundle in pool:
                assert 0 <= answer.paragraph_index < n_paras
                assert bundle.lp_a_qp <= 0.0

    def test_call_log_entries_have_token_counts(self, gold_run):
        pipeline, _, workdir = gold_run
        record = pipeline.main_records[0]
        path = workdir / "calls" / "gold" / f"{record.id}.jsonl"
        entries = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()]
        assert entries
        purposes = {e["purpose"] for e in entries}
        assert "sample_answer" in purposes
        assert "score_q_given_p" in purposes
        for e in entries:
            assert e["prompt_tokens"] > 0
            assert e["generated_tokens"] >= 0

    def test_predictions_shape(self, gold_run):
        pipeline, _, workdir = gold_run
        doc = json.loads((workdir / "predictions" / "gold_poe.json")
                         .read_text(encoding="utf-8"))
        assert doc["dataset_id"] == "fixtureqa"
        assert doc["scorer"] == "poe"
        assert doc["evidence"] == "gold"
        assert len(doc["poe_weights"]) == 5
        for qid, row in doc["predictions"].items():
            assert isinstance(row["answer"], str)
            assert row["paragraph_text"]

    def test_weights_file_lists_heldout(self, gold_run):
        pipeline, _, workdir = gold_run
        doc = json.loads((workdir / "weights.json").read_text(encoding="utf-8"))
        assert doc["heldout_ids"] == [r.id for r in pipeline.heldout_records]
        assert len(doc["weights"]) == 5
        assert doc["trace"]

    def test_cost_rows_monotone(self, gold_run):
        _, _, workdir = gold_run
        doc = json.loads((workdir / "cost" / "gold_poe.json")
                         .read_text(encoding="utf-8"))
        rows = doc["rows"]
        assert [r["paragraphs"] for r in rows] == [0, 1, 2]
        flops = [r["flops"] for r in rows]
        assert all(isinstance(f, int) for f in flops)
        assert flops == sorted(flops) and len(set(flops)) == len(flops)

    def test_stage_rerank_other_scorer_reuses_pools(self, gold_run):
        pipeline, _, workdir = gold_run
        config = _config(pipeline.config.dataset_path, workdir,
                         banks_dir=pipeline.config.banks_dir,
                         scorer="answer_prob")
        again = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        path = again.stage_rerank()
        assert path.name == "gold_answer_prob.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["poe_weights"] is None


class TestClosedRun:
    def test_closed_book_run(self, tmp_path, qa_dataset_path, banks_dir):
        config = _config(qa_dataset_path, tmp_path, evidence=CLOSED,
                         scorer="answer_prob", banks_dir=str(banks_dir),
                         closed_book_samples=6)
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        report = pipeline.run()
        assert report.recall_at is None
        assert report.extractiveness is None
        doc = json.loads((tmp_path / "predictions" / "closed_answer_prob.json")
                         .read_text(encoding="utf-8"))
        for row in doc["predictions"].values():
            assert row["paragraph_index"] == -1
            assert row["paragraph_text"] is None
        # cost sweep collapses to the zero-paragraph row
        cost = json.loads((tmp_path / "cost" / "closed_answer_prob.json")
                          .read_text(encoding="utf-8"))
        assert [r["paragraphs"] for r in cost["rows"]] == [0]


class TestClassificationGoldRun:
    def test_accuracy_and_label_pools(self, tmp_path, cls_dataset_path,
                                      banks_dir):
        config = _config(cls_dataset_path, tmp_path, dataset_id="fixturecls",
                         banks_dir=str(banks_dir), heldout_fraction=0.25)
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        report = pipeline.run()
        assert report.metric_name == "accuracy"
        assert report.n_questions == 3
        # every pool pairs each label with each paragraph
        record = pipeline.main_records[0]
        pool = pipeline.load_pool("gold", record.id)
        labels = {answer.text for answer, _ in pool}
        assert labels == {"true", "false"}


class TestResolveWeights:
    def test_explicit_weights_win(self, qa_dataset_path, tmp_path, banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir),
                         poe_weights=(2.0, 1.0, 1.0, 1.0, 0.5))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        assert pipeline.resolve_weights() == (2.0, 1.0, 1.0, 1.0, 0.5)

    def test_default_without_tuning(self, qa_dataset_path, tmp_path,
                                    banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        assert pipeline.resolve_weights() == DEFAULT_WEIGHTS

    def test_weights_tuned_under_other_evidence_refused(self, gold_run,
                                                        qa_dataset_path, banks_dir):
        _, _, workdir = gold_run
        weights = json.loads((workdir / "weights.json").read_text(encoding="utf-8"))
        assert weights["evidence"] == GOLD
        config = _config(qa_dataset_path, workdir, evidence=SEARCH, banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        with pytest.raises(ConfigError, match="'gold'.*'search'"):
            pipeline.resolve_weights()


def _call_rows(workdir, source, qid):
    path = workdir / "calls" / source / f"{qid}.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert {r["question_id"] for r in rows} == {qid}
    return [(r["purpose"], r["paragraph_index"]) for r in rows]


def _build_pools(pipeline):
    pipeline.stage_retrieve()
    pipeline.stage_answer()
    assert not pipeline.failed


@pytest.mark.parametrize("retrieve", [False, True], ids=["staged", "run"])
def test_closed_book_failure_in_the_answer_pass_is_a_closed_failure(tmp_path, qa_dataset_path,
                                                                     banks_dir, retrieve):
    """The answer pass builds a question's closed-book pool after its open-book
    pool, after a separate retrieve stage or with retrieval as its first step;
    an error in the closed-book half fails the question as ``closed``, and the
    open-book half's pool and cache misses are kept."""
    failing = load_dataset(qa_dataset_path)[0]

    def completion(prompt, seed, index):
        # closed-book prompts carry no Evidence line anywhere
        if "Evidence:" not in prompt and failing.question in prompt:
            raise ValueError("model refused")
        return extractive_completion(prompt, seed, index)

    config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
    pipeline = Pipeline(config, cached_backend(MockBackend(completion_fn=completion), config.workdir))
    if not retrieve:
        pipeline.stage_retrieve()
    pipeline.stage_answer(retrieve=retrieve)
    pipeline.check_failures()
    failures = json.loads((tmp_path / "failures.json").read_text(encoding="utf-8"))
    assert failures == {failing.id: "closed: model refused"}
    assert (tmp_path / "candidates" / GOLD / f"{failing.id}.json").exists()
    assert not (tmp_path / "candidates" / CLOSED / f"{failing.id}.json").exists()
    [_] = (tmp_path / "cache" / "lm" / hashlib.sha256(failing.id.encode("utf-8")).hexdigest()).iterdir()


class TestCallLogSequence:
    """calls/ rows follow the order in which the pools are built."""

    def test_generation_record(self, tmp_path, qa_dataset_path, banks_dir):
        samples = ["alpha", " alpha ", "", "beta  gamma"]
        backend = MockBackend(completion_fn=lambda prompt, seed, index: samples[index])
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir),
                         samples_per_paragraph=len(samples),
                         closed_book_samples=len(samples))
        pipeline = Pipeline(config, cached_backend(backend, config.workdir))
        _build_pools(pipeline)
        # empty samples are dropped and "alpha"/" alpha " share one answer
        distinct_answers = 2
        for record in pipeline.records:
            n_paragraphs = len(pipeline.load_paragraphs(record.id))
            assert n_paragraphs
            expected = []
            for i in range(n_paragraphs):
                expected += [("sample_answer", i), ("score_q_given_p", i)]
                expected += [("score_q_given_ap", i), ("score_a_given_p", i)] * distinct_answers
            assert _call_rows(tmp_path, GOLD, record.id) == expected
            assert _call_rows(tmp_path, CLOSED, record.id) == [("sample_closed", None)]

    def test_classification_record(self, tmp_path, cls_dataset_path, banks_dir):
        config = _config(cls_dataset_path, tmp_path, dataset_id="fixturecls",
                         banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
        _build_pools(pipeline)
        for record in pipeline.records:
            n_labels = len(record.label_set)
            n_paragraphs = len(pipeline.load_paragraphs(record.id))
            assert n_paragraphs
            expected = []
            for i in range(n_paragraphs):
                expected += [("label_answer", i)] * n_labels + [("score_q_given_p", i)]
                expected += [("label_a_given_p", i)] * n_labels
                expected += [("score_q_given_ap", i)] * n_labels
            assert _call_rows(tmp_path, GOLD, record.id) == expected
            assert _call_rows(tmp_path, CLOSED, record.id) == [("label_closed", None)] * n_labels


class _CountingBackend(CachedBackend):
    """Counts every request the pipeline makes of its backend by operation,
    cache hits included."""

    def __init__(self, workdir):
        inner = MockBackend()
        inner.identity = "mock"
        super().__init__(inner, RequestCache(workdir / "cache"))
        self.requests = Counter()
        self._lock = threading.Lock()

    def _count(self, op):
        with self._lock:
            self.requests[op] += 1

    def count_tokens(self, text, **digest):
        self._count("count_tokens")
        return super().count_tokens(text, **digest)

    def sample(self, prompt, params, seed, **digest):
        self._count("sample")
        return super().sample(prompt, params, seed, **digest)

    def score(self, prompt, continuation, **digest):
        self._count("score")
        return super().score(prompt, continuation, **digest)


def _artifact_digest(workdir, tops=("candidates", "calls", "predictions"), base_url=None) -> str:
    """SHA-256 over the paths and bytes of the ``tops`` directories, with
    ``base_url`` (a fixture server's, whose port varies) written as {base}."""
    h = hashlib.sha256()
    for top in tops:
        for path in sorted((workdir / top).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if base_url is not None:
                    data = data.replace(base_url.encode("utf-8"), b"{base}")
                h.update(path.relative_to(workdir).as_posix().encode("utf-8") + b"\0")
                h.update(data + b"\0")
    return h.hexdigest()


# index/ and paragraphs/ of a search-evidence retrieve on fixtureqa, as written
# when pages were extracted with html.parser and the ranking built a weight dict
# per paragraph: page text, paragraph order, cosines and priors alike
PINNED_RETRIEVAL = "2d728330bd716b7665170d06439b3fa0ee79af990ed699dfeda40b6e0a578d04"


def test_search_retrieve_writes_the_pinned_index_and_paragraphs(tmp_path, qa_dataset_path,
                                                                banks_dir, web_root):
    config = _config(qa_dataset_path, tmp_path, evidence=SEARCH, banks_dir=str(banks_dir),
                     top_paragraphs=50)
    with FixtureServer(web_root) as server:
        pipeline = Pipeline(config, cached_backend(MockBackend(), tmp_path),
                            FixtureSearchClient(server.base_url))
        pipeline.stage_retrieve()
    assert not pipeline.failed
    assert _artifact_digest(tmp_path, ("index", "paragraphs"), server.base_url) == PINNED_RETRIEVAL


def test_search_evidence_needs_a_client_only_to_retrieve(tmp_path, qa_dataset_path, banks_dir,
                                                         web_root):
    """Over an online cache without a search client, retrieval, alone or in
    ``run``, is refused before any question; the answer pass without
    retrieval reads paragraphs/ and needs no client."""
    config = _config(qa_dataset_path, tmp_path, evidence=SEARCH, banks_dir=str(banks_dir))
    clientless = Pipeline(config, cached_backend(MockBackend(), tmp_path))
    for stage in (clientless.stage_retrieve, clientless.run):
        with pytest.raises(ConfigError, match="search evidence mode needs a search client"):
            stage()
    # only the backend's describe entry, in the shared scope
    assert {p.relative_to(tmp_path).parts[:3] for p in tmp_path.rglob("*") if p.is_file()} == {
        ("cache", "lm", "shared")}
    with FixtureServer(web_root) as server:
        Pipeline(config, cached_backend(MockBackend(), tmp_path),
                 FixtureSearchClient(server.base_url)).stage_retrieve()
    clientless.stage_answer()
    assert not clientless.failed
    assert len(list((tmp_path / "candidates" / SEARCH).iterdir())) == len(clientless.records)


def test_a_search_run_opens_one_cache_scope_per_question(tmp_path, qa_dataset_path, banks_dir,
                                                         web_root, monkeypatch):
    """``run`` sends a question's search, fetches and both pools' LM requests
    through one cache scope."""
    opened = []
    question_scope = RequestCache.question_scope

    def counting(cache, question_id):
        opened.append(question_id)
        return question_scope(cache, question_id)

    monkeypatch.setattr(RequestCache, "question_scope", counting)
    config = _config(qa_dataset_path, tmp_path, evidence=SEARCH, banks_dir=str(banks_dir))
    with FixtureServer(web_root) as server:
        pipeline = Pipeline(config, cached_backend(MockBackend(), tmp_path),
                            FixtureSearchClient(server.base_url))
        pipeline.run()
    assert not pipeline.failed
    assert Counter(opened) == Counter(r.id for r in pipeline.records)


class TestLMTraffic:
    """Token counts come from the score and sample responses: a prompt that
    fits is sent once and never counted on its own."""

    @pytest.mark.parametrize("dataset_id, evidence", [
        ("fixtureqa", GOLD), ("fixturecls", GOLD), ("fixtureqa", SEARCH),
    ])
    def test_fitting_run_sends_one_request_per_call_row_and_no_count(
            self, tmp_path, fixtures_dir, banks_dir, web_root, dataset_id, evidence):
        backend = _CountingBackend(tmp_path)
        config = _config(fixtures_dir / f"{dataset_id}.jsonl", tmp_path, dataset_id=dataset_id,
                         evidence=evidence, banks_dir=str(banks_dir))
        with FixtureServer(web_root) as server:
            pipeline = Pipeline(config, backend, FixtureSearchClient(server.base_url))
            _build_pools(pipeline)
        rows = sum(len(path.read_text(encoding="utf-8").splitlines())
                   for path in (tmp_path / "calls").rglob("*.jsonl"))
        assert {path.name for path in (tmp_path / "calls").iterdir()} == {evidence, CLOSED}
        assert backend.requests["count_tokens"] == 0
        assert backend.requests["score"] > 0
        assert backend.requests["sample"] + backend.requests["score"] == rows

    # candidates/, calls/ and predictions/ as written before responses carried token counts
    PINNED_TRUNCATED = {
        "fixtureqa": "c2f5cfa8d2da5003b75c1f9b875a17c29e7f86472726d24c9458731a741750cb",
        "fixturecls": "2de9fe2ab241cdb4374aa1a89d905a9cd15c9e495ad5832befe32198fb57641b",
    }

    @pytest.mark.parametrize("dataset_id", sorted(PINNED_TRUNCATED))
    def test_truncating_run_writes_the_pinned_artifacts(self, tmp_path, fixtures_dir, banks_dir,
                                                        dataset_id):
        backend = _CountingBackend(tmp_path)
        config = _config(fixtures_dir / f"{dataset_id}.jsonl", tmp_path, dataset_id=dataset_id,
                         banks_dir=str(banks_dir), context_tokens=60, max_new_tokens=8)
        Pipeline(config, backend).run()
        assert backend.requests["count_tokens"] > 0  # prompts that overflow are fitted
        for path in (tmp_path / "calls").rglob("*.jsonl"):
            for line in path.read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                assert row["prompt_tokens"] + row["generated_tokens"] <= 60
        assert _artifact_digest(tmp_path) == self.PINNED_TRUNCATED[dataset_id]


class TestEmptyClosedPool:
    """A model that answers nothing without evidence leaves closed pools empty."""

    @staticmethod
    def _backend():
        def completion(prompt, seed, index):
            # closed-book prompts carry no Evidence line anywhere
            return extractive_completion(prompt, seed, index) if "Evidence:" in prompt else ""
        return MockBackend(completion_fn=completion)

    def test_open_book_cost_names_question(self, tmp_path, qa_dataset_path, banks_dir):
        config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(self._backend(), config.workdir))
        _build_pools(pipeline)
        pipeline.stage_rerank()
        with pytest.raises(ConfigError, match=pipeline.main_records[0].id):
            pipeline.stage_cost()

    def test_closed_book_rerank_and_cost_name_question(self, tmp_path, qa_dataset_path,
                                                       banks_dir):
        config = _config(qa_dataset_path, tmp_path, evidence=CLOSED,
                         scorer="answer_prob", banks_dir=str(banks_dir))
        pipeline = Pipeline(config, cached_backend(self._backend(), config.workdir))
        _build_pools(pipeline)
        with pytest.raises(ConfigError, match=pipeline.records[0].id):
            pipeline.stage_rerank()
        with pytest.raises(ConfigError, match=pipeline.main_records[0].id):
            pipeline.stage_cost()


def test_cost_loads_each_pool_once(gold_run, monkeypatch):
    """The cost sweep reads each question's pool under each source at most
    once, however many cost points it has, and writes the same bytes."""
    pipeline, _, workdir = gold_run
    [cost_path] = (workdir / "cost").iterdir()
    before = cost_path.read_bytes()
    loads = []
    original = pipeline.load_pool

    def counting(source, qid):
        loads.append((source, qid))
        return original(source, qid)

    monkeypatch.setattr(pipeline, "load_pool", counting)
    pipeline.stage_cost()
    assert len(pipeline.config.cost_points) > 2
    assert {qid for source, qid in loads if source == GOLD} == {r.id for r in pipeline.main_records}
    assert len(loads) == len(set(loads))
    assert cost_path.read_bytes() == before


@pytest.mark.parametrize("question_id", ["q01", 'q"\\\n\u2028é', ""])
@pytest.mark.parametrize("paragraph_index", [None, 0, 12])
def test_call_line_is_the_canonical_json_of_its_row(question_id, paragraph_index):
    row = {"question_id": question_id, "purpose": "score_q_given_ap", "paragraph_index": paragraph_index,
           "prompt_tokens": 1734, "generated_tokens": 0}
    assert pipeline_module._call_line(question_id, "score_q_given_ap", paragraph_index, 1734, 0) == \
        canonical_json(row) + "\n"


def test_cost_refuses_a_call_line_with_two_rows(gold_run):
    pipeline, _, workdir = gold_run
    path = workdir / "calls" / GOLD / f"{pipeline.main_records[0].id}.jsonl"
    before = path.read_text(encoding="utf-8")
    lines = before.splitlines()
    try:
        path.write_text("\n".join([f"{lines[0]},{lines[1]}", *lines[2:]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="a line holds other than one row"):
            pipeline.stage_cost()
    finally:
        path.write_text(before, encoding="utf-8")


def test_cost_without_call_log_is_refused(tmp_path, qa_dataset_path, banks_dir):
    config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
    pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
    _build_pools(pipeline)
    pipeline.stage_rerank()
    qid = pipeline.main_records[0].id
    (tmp_path / "calls" / GOLD / f"{qid}.jsonl").unlink()
    with pytest.raises(ConfigError, match=f"{qid}.*run answer first"):
        pipeline.stage_cost()
