import json

import pytest
from conftest import cached_backend

from webqa.cache import RequestCache
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
from webqa.prompting import render_closed_book_prompt, render_qa_prompt
from webqa.rerank import DEFAULT_WEIGHTS


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
    pipeline.stage_closed()
    assert not pipeline.failed


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
    """Records every request the pipeline makes of its backend, cache hits
    included: ("count", text), ("sample", prompt, texts), ("score", prompt,
    continuation)."""

    def __init__(self, workdir):
        super().__init__(MockBackend(), RequestCache(workdir / "cache"))
        self.requests = []

    def count_tokens(self, text):
        self.requests.append(("count", text))
        return super().count_tokens(text)

    def sample(self, prompt, params, seed):
        samples = super().sample(prompt, params, seed)
        self.requests.append(("sample", prompt, [s.text for s in samples]))
        return samples

    def score(self, prompt, continuation):
        self.requests.append(("score", prompt, continuation))
        return super().score(prompt, continuation)


class TestTokenCountTraffic:
    """Within one pool, each continuation and sampled text is counted once;
    within one paragraph's requests, and within one closed-book request, each
    prompt is counted once; every text a pool sends is among its counted texts."""

    @staticmethod
    def _segments(pipeline, requests, whole_pools: bool):
        """The request stream split where a paragraph's (``whole_pools``: an
        open-book pool's) or a closed-book pool's requests begin: fitting first
        counts the answering prompt as rendered."""
        qa = pipeline.bank("qa")
        starts = set()
        for record in pipeline.records:
            starts.add(render_closed_book_prompt(qa, record.question).text)
            paragraphs = pipeline.load_paragraphs(record.id)
            starts.update(render_qa_prompt(qa, record.question, p["text"]).text
                          for p in (paragraphs[:1] if whole_pools else paragraphs))
        segments = []
        for request in requests:
            if request[0] == "count" and request[1] in starts:
                segments.append([])
            segments[-1].append(request)
        return segments

    @staticmethod
    def _counted_and_sent(segment):
        """Counted texts in order, sent prompts, and sent short texts."""
        counted = [r[1] for r in segment if r[0] == "count"]
        prompts, short = set(), set()
        for request in segment:
            if request[0] == "sample":
                prompts.add(request[1])
                short.update(request[2])
            elif request[0] == "score":
                prompts.add(request[1])
                short.add(request[2])
        return counted, prompts, short

    def _run(self, tmp_path, dataset_path, banks_dir, **kwargs):
        backend = _CountingBackend(tmp_path)
        config = _config(dataset_path, tmp_path, banks_dir=str(banks_dir), max_workers=1, **kwargs)
        pipeline = Pipeline(config, backend)
        _build_pools(pipeline)
        assert any(r[0] == "score" for r in backend.requests)
        return (self._segments(pipeline, backend.requests, whole_pools=True),
                self._segments(pipeline, backend.requests, whole_pools=False))

    @pytest.mark.parametrize("dataset, dataset_id", [
        ("fixtureqa.jsonl", "fixtureqa"), ("fixturecls.jsonl", "fixturecls"),
    ])
    def test_each_text_counted_once_per_request(self, tmp_path, fixtures_dir, banks_dir,
                                                dataset, dataset_id):
        pools, _ = self._run(tmp_path, fixtures_dir / dataset, banks_dir, dataset_id=dataset_id)
        for pool in pools:
            counted, prompts, short = self._counted_and_sent(pool)
            assert len(counted) == len(set(counted))
            # the fixture prompts fit untruncated, so fitting counts only what is sent
            assert set(counted) == prompts | short

    def test_truncating_fits_count_each_text_once(self, tmp_path, qa_dataset_path, banks_dir):
        pools, paragraphs = self._run(tmp_path, qa_dataset_path, banks_dir,
                                      context_tokens=60, max_new_tokens=8)
        truncated = False
        for pool in pools:
            counted, prompts, short = self._counted_and_sent(pool)
            assert prompts | short <= set(counted)
            assert all(counted.count(text) == 1 for text in short)
            truncated = truncated or len(set(counted)) > len(prompts | short)
        assert truncated
        for segment in paragraphs:
            counted, _, _ = self._counted_and_sent(segment)
            assert len(counted) == len(set(counted))


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


def test_cost_without_call_log_is_refused(tmp_path, qa_dataset_path, banks_dir):
    config = _config(qa_dataset_path, tmp_path, banks_dir=str(banks_dir))
    pipeline = Pipeline(config, cached_backend(MockBackend(), config.workdir))
    _build_pools(pipeline)
    pipeline.stage_rerank()
    qid = pipeline.main_records[0].id
    (tmp_path / "calls" / GOLD / f"{qid}.jsonl").unlink()
    with pytest.raises(ConfigError, match=f"{qid}.*run answer first"):
        pipeline.stage_cost()
