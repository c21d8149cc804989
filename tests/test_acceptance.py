"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test is self-contained (its oracle is recomputed here from first
principles rather than imported from the unit suites) and prints a one-line
verdict; run with ``pytest -v`` to see one pass/fail line per criterion.
"""

import json
import math
import pathlib
import random
import time

import pytest

from webqa import cli
from webqa.chunkrank import chunk, rank_paragraphs, split_sentences
from webqa.corpus import FewShotExample, PromptBank, load_bundled_bank
from webqa.evaluation import answer_recall, exact_match
from webqa.fixtures import FixtureServer
from webqa.lmbackend import MockBackend
from webqa.prompting import (
    render_closed_book_prompt,
    render_prompt,
    render_qa_prompt,
)
from webqa.rerank import (
    ANSWER_PROB,
    DEFAULT_WEIGHTS,
    NOISY_CHANNEL,
    POE,
    RAG,
    SCORERS,
    CandidateAnswer,
    RerankConfig,
    ScoreBundle,
    log_prior,
    select_answer,
    tune_weights,
)

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


# --- shared pool generator for the rerank criteria --------------------------

def _random_pool(rng, max_paras=5, max_answers=4):
    n_paras = rng.randrange(1, max_paras + 1)
    n_answers = rng.randrange(1, max_answers + 1)
    raw = [rng.random() for _ in range(n_paras)]
    priors = [r / sum(raw) for r in raw]
    pool = []
    for p in range(n_paras):
        for a in range(n_answers):
            if pool and rng.random() < 0.35:
                continue
            pool.append((
                CandidateAnswer(text=f"candidate {a}", paragraph_index=p),
                ScoreBundle(
                    lp_a_qp=-6.0 * rng.random(),
                    lp_q_ap=-6.0 * rng.random(),
                    lp_a_p=-6.0 * rng.random(),
                    lp_q_p=-6.0 * rng.random(),
                    lp_prior=log_prior(priors[p]),
                ),
            ))
    return pool


def _exhaustive_best(pool, config):
    """Literal re-derivation of every factorization, then argmax with the
    documented tie-break (higher p(a|q,p), lower paragraph index, text)."""
    def canon(text):
        return " ".join(text.split())

    def tie(answer, bundle):
        return (-bundle.lp_a_qp, answer.paragraph_index, canon(answer.text))

    if config.scorer == RAG:
        groups: dict[str, list] = {}
        for answer, bundle in pool:
            groups.setdefault(canon(answer.text), []).append((answer, bundle))
        scored = []
        for text, members in groups.items():
            mass = math.log(math.fsum(
                math.exp(b.lp_prior + b.lp_a_qp) for _, b in members))
            rep = min(members, key=lambda ab: tie(*ab))
            scored.append(((-mass,) + tie(*rep), rep[0], mass))
        _, answer, score = min(scored)
        return answer, score

    scored = []
    for answer, bundle in pool:
        if config.scorer == ANSWER_PROB:
            s = bundle.lp_a_qp
        elif config.scorer == NOISY_CHANNEL:
            s = bundle.lp_q_ap + bundle.lp_a_p - bundle.lp_q_p
        else:
            w = config.poe_weights
            s = (w[0] * bundle.lp_a_qp + w[1] * bundle.lp_q_ap +
                 w[2] * bundle.lp_a_p + w[3] * bundle.lp_q_p +
                 w[4] * bundle.lp_prior)
        scored.append(((-s,) + tie(answer, bundle), answer, s))
    _, answer, score = min(scored)
    return answer, score


def test_criterion_01_rerank_matches_exhaustive_oracle():
    """All four factorizations agree with a brute-force oracle on 500
    random pools (<=5 paragraphs, <=4 candidates) to 1e-12 in log space,
    in under ten seconds."""
    started = time.monotonic()
    rng = random.Random(1_2026)
    checked = 0
    for trial in range(500):
        pool = _random_pool(rng)
        for scorer in SCORERS:
            if scorer == POE:
                weights = tuple(rng.choice((0.0, 0.25, 0.5, 1.0, 2.0))
                                for _ in range(5))
                if not any(weights):
                    weights = DEFAULT_WEIGHTS
                config = RerankConfig(scorer=POE, poe_weights=weights)
            else:
                config = RerankConfig(scorer=scorer)
            got = select_answer(pool, config)
            want_answer, want_score = _exhaustive_best(pool, config)
            assert got.answer == want_answer, (scorer, trial)
            assert abs(got.score - want_score) <= 1e-12, (scorer, trial)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"[criterion 01] PASS: {checked} selections matched the "
          f"exhaustive oracle to 1e-12 in {elapsed:.2f}s")


def test_criterion_02_factorization_reduction_laws():
    """On 200 random pools each: one-hot PoE equals p(a|q,p) ranking; RAG
    over a single paragraph equals p(a|q,p); the noisy-channel argmax is
    invariant to a uniform shift of log p(q|p) within a paragraph."""
    rng = random.Random(2_2026)
    one_hot = RerankConfig(scorer=POE, poe_weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    plain = RerankConfig(scorer=ANSWER_PROB)
    for _ in range(200):
        pool = _random_pool(rng)
        a = select_answer(pool, one_hot)
        b = select_answer(pool, plain)
        assert a.answer == b.answer
        assert abs(a.score - b.score) <= 1e-12

    for _ in range(200):
        pool = _random_pool(rng, max_paras=1)
        a = select_answer(pool, RerankConfig(scorer=RAG))
        b = select_answer(pool, plain)
        assert a.answer == b.answer
        assert abs(a.score - b.score) <= 1e-12

    noisy = RerankConfig(scorer=NOISY_CHANNEL)
    for _ in range(200):
        pool = _random_pool(rng, max_paras=1)
        shift = rng.uniform(-4.0, 4.0)
        shifted = [(ans, ScoreBundle(lp_a_qp=b.lp_a_qp, lp_q_ap=b.lp_q_ap,
                                     lp_a_p=b.lp_a_p, lp_q_p=b.lp_q_p + shift,
                                     lp_prior=b.lp_prior))
                   for ans, b in pool]
        assert select_answer(pool, noisy).answer == \
            select_answer(shifted, noisy).answer
    print("[criterion 02] PASS: one-hot PoE, single-paragraph RAG, and "
          "shift-invariant noisy channel reductions hold on 200 pools each")


def test_criterion_03_tfidf_hand_oracle_and_prior_simplex():
    """Cosines and priors match a hand-computed 3-document oracle to 1e-9,
    and priors over a 10k-paragraph pool form a probability simplex."""
    from webqa.chunkrank import EvidenceParagraph

    question = "red apples in the orchard"
    paragraphs = [
        EvidenceParagraph(source_url="u", ordinal=i, sentences=(text,))
        for i, text in enumerate([
            "The orchard grows red apples.",
            "Green pears grow by the river.",
            "Apples and apples again; the orchard is full of apples.",
        ])
    ]
    # frozen from an independent computation of
    # cos(tfidf(q), tfidf(p)) with idf = ln((1+N)/(1+df)) + 1, N = 4
    want_cosines = [0.6308235617494147, 0.07205985252996153,
                    0.37800336035209914]
    want_priors = [0.5836166900686631, 0.06666734594336218,
                   0.34971596398797467]
    ranked = rank_paragraphs(question, paragraphs, n=3)
    assert [r.paragraph.ordinal for r in ranked] == [0, 2, 1]
    by_ord = {r.paragraph.ordinal: r for r in ranked}
    for i in range(3):
        assert abs(by_ord[i].cosine - want_cosines[i]) <= 1e-9
        assert abs(by_ord[i].prior - want_priors[i]) <= 1e-9

    rng = random.Random(3_2026)
    vocab = [f"term{i}" for i in range(400)]
    big = [EvidenceParagraph(
        source_url="u", ordinal=i,
        sentences=(" ".join(rng.choice(vocab)
                            for _ in range(rng.randrange(4, 30))),))
        for i in range(10_000)]
    big_q = " ".join(rng.choice(vocab) for _ in range(10))
    ranked = rank_paragraphs(big_q, big, n=10_000)
    total = sum(r.prior for r in ranked)
    assert abs(total - 1.0) <= 1e-9
    assert all(r.prior >= 0.0 for r in ranked)
    assert all(ranked[i].cosine >= ranked[i + 1].cosine
               for i in range(len(ranked) - 1))
    print("[criterion 03] PASS: 3-document oracle matched to 1e-9; 10k "
          "priors sum to 1 within 1e-9")


def test_criterion_04_chunker_reconstruction_and_window():
    """Chunks are windows of at most six sentences; 13 sentences chunk as
    [6, 6, 1]; joining the split sentences preserves the source text."""
    thirteen = " ".join(f"Sentence number {i} ends here." for i in range(13))
    paras = chunk(thirteen, source_url="u", size=6)
    assert [len(p.sentences) for p in paras] == [6, 6, 1]

    texts = [
        "Dr. Smith measured the falls. The data, c. 1900, were sparse! "
        "Did anyone check? Yes. See fig. 4.",
        'He said "stop." Then he left. The U.S. team won 3.5 points. '
        "Nos. 3 and 4 stayed open.",
        "No terminator at the tail means one trailing sentence",
    ]
    # plus every fixture page, extracted the way the pipeline does it
    from webqa.websearch import extract_text
    for page in sorted((FIXTURES / "web" / "pages").glob("*.html")):
        texts.append(extract_text(page.read_text(encoding="utf-8")))

    for text in texts:
        sentences = split_sentences(text)
        compact = "".join(text.split())
        assert "".join("".join(s.split()) for s in sentences) == compact
        for paragraph in chunk(text, size=6):
            assert 1 <= len(paragraph.sentences) <= 6
    print(f"[criterion 04] PASS: [6, 6, 1] windowing and lossless "
          f"segmentation over {len(texts)} texts")


def test_criterion_05_exact_match_table_and_recall_monotonicity():
    """Twenty hand-labelled exact-match cases score correctly and
    answer recall@k never decreases with k."""
    table = [
        ("The Eiffel Tower", ["eiffel tower"], 1.0),
        ("an apple", ["apple"], 1.0),
        ("apple!", ["apple"], 1.0),
        ("  apple  pie ", ["apple pie"], 1.0),
        ("apple pie", ["apple tart"], 0.0),
        ("42", ["42"], 1.0),
        ("forty two", ["42"], 0.0),
        ("U.S.A.", ["usa"], 1.0),
        ("the the", ["the"], 1.0),
        ("Homer", ["Homer", "Hesiod"], 1.0),
        ("hesiod", ["Homer", "Hesiod"], 1.0),
        ("virgil", ["Homer", "Hesiod"], 0.0),
        ("it's blue", ["its blue"], 1.0),
        ("colour", ["color"], 0.0),
        ("New York City", ["new  york   city"], 1.0),
        ("a", ["b"], 0.0),
        ("1927", ["the year 1927"], 0.0),
        ("June 1992", ["june 1992"], 1.0),
        ("Mr. Smith", ["mr smith"], 1.0),
        ("didn't", ["didnt"], 1.0),
    ]
    assert len(table) == 20
    for prediction, answers, want in table:
        assert exact_match(prediction, answers) == want, (prediction, answers)

    rng = random.Random(5_2026)
    answers = ["aurora falls"]
    for _ in range(50):
        n = rng.randrange(1, 12)
        texts = [rng.choice(["filler text only",
                             "the aurora falls drop is famous",
                             "unrelated paragraph"]) for _ in range(n)]
        series = [answer_recall(answers, texts[:k])
                  for k in range(1, n + 1)]
        assert series == sorted(series), texts
    print("[criterion 05] PASS: 20/20 exact-match cases and recall@k "
          "monotone over 50 random rankings")


def test_criterion_06_prompt_goldens_byte_for_byte():
    """Rendered prompts equal the committed goldens byte for byte, for
    every bundled bank; the closed-book prompt carries no evidence."""
    question = "who wrote the iliad"
    evidence = "The Iliad is an ancient Greek epic poem attributed to Homer."
    claim = "The Iliad was written by Homer."

    rendered = {
        "qa_nq.txt": render_qa_prompt(
            load_bundled_bank("nq", "qa"), question, evidence).text,
        "qa_hotpotqa.txt": render_qa_prompt(
            load_bundled_bank("hotpotqa", "qa"), question, evidence).text,
        "qa_strategyqa.txt": render_qa_prompt(
            load_bundled_bank("strategyqa", "qa"), question, evidence).text,
        "qa_fever.txt": render_qa_prompt(
            load_bundled_bank("fever", "qa"), claim, evidence).text,
        "closed_nq.txt": render_closed_book_prompt(
            load_bundled_bank("nq", "qa"), question).text,
        "scorer_nq_q_given_ap.txt": render_prompt(
            load_bundled_bank("nq", "q_given_ap"),
            evidence=evidence, answer="Homer").text,
        "scorer_nq_q_given_p.txt": render_prompt(
            load_bundled_bank("nq", "q_given_p"), evidence=evidence).text,
        "scorer_nq_p_given_q.txt": render_prompt(
            load_bundled_bank("nq", "p_given_q"), question=question).text,
    }
    for name, text in rendered.items():
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert text == want, f"{name} drifted from its golden"
    assert "Evidence:" not in rendered["closed_nq.txt"]
    assert rendered["closed_nq.txt"].endswith("Answer:")
    print(f"[criterion 06] PASS: {len(rendered)} goldens matched byte for "
          f"byte; closed-book prompt is evidence-free")


def _run_flags(workdir, server_url, offline=False):
    flags = ["run",
             "--dataset", str(FIXTURES / "fixtureqa.jsonl"),
             "--workdir", str(workdir),
             "--search-endpoint", server_url,
             "--backend", "mock",
             "--banks-dir", str(FIXTURES / "banks"),
             "--top-urls", "3",
             "--paragraphs", "5",
             "--samples-per-paragraph", "2",
             "--closed-book-samples", "8",
             "--cost-points", "0,1,3,5",
             "--max-new-tokens", "24"]
    if offline:
        flags.append("--offline")
    return flags


def _tree(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def e2e_workdirs(tmp_path_factory):
    """Two fresh end-to-end runs against the fixture web plus an offline
    re-run of the first; shared by criteria 7 and 9."""
    base = tmp_path_factory.mktemp("e2e")
    w1, w2 = base / "run1", base / "run2"
    started = time.monotonic()
    with FixtureServer(FIXTURES / "web") as server:
        rc1 = cli.main(_run_flags(w1, server.base_url))
        rc2 = cli.main(_run_flags(w2, server.base_url))
        before = _tree(w1)
        rc3 = cli.main(_run_flags(w1, server.base_url, offline=True))
        after = _tree(w1)
        elapsed = time.monotonic() - started
    return {"w1": w1, "w2": w2, "rcs": (rc1, rc2, rc3),
            "before": before, "after": after, "elapsed": elapsed}


def test_criterion_07_end_to_end_determinism_and_offline(e2e_workdirs):
    """`run` over the ten-question fixture corpus succeeds, two fresh
    executions produce byte-identical artifact trees, an offline re-run on
    the warm workdir changes nothing, and the whole check stays under 60s."""
    assert e2e_workdirs["rcs"] == (0, 0, 0)

    t1, t2 = _tree(e2e_workdirs["w1"]), _tree(e2e_workdirs["w2"])
    assert set(t1) == set(t2)
    differing = [name for name in t1 if t1[name] != t2[name]]
    assert differing == [], f"non-deterministic artifacts: {differing[:5]}"

    changed = [name for name in e2e_workdirs["before"]
               if e2e_workdirs["after"].get(name) != e2e_workdirs["before"][name]]
    assert changed == [], f"offline re-run rewrote: {changed[:5]}"
    assert set(e2e_workdirs["after"]) == set(e2e_workdirs["before"])

    report = json.loads((e2e_workdirs["w1"] / "reports" / "search_poe.json")
                        .read_text(encoding="utf-8"))
    assert report["n_questions"] == 9
    # every fixture question plants its answer in the top-ranked page
    assert report["recall_at"]["1"] == 1.0
    assert report["extractiveness"] == 1.0

    assert e2e_workdirs["elapsed"] < 60.0
    print(f"[criterion 07] PASS: {len(t1)} artifacts byte-identical across "
          f"runs, offline re-run clean, {e2e_workdirs['elapsed']:.1f}s total")


def test_criterion_08_weight_tuning_beats_single_experts():
    """On a synthetic task where one expert is systematically misleading,
    coordinate descent finds PoE weights at least as good as every
    single-factorization baseline, deterministically."""
    rng = random.Random(8_2026)
    instances = []
    for _ in range(16):
        right = rng.randrange(3)
        pool = []
        for a in range(3):
            good = a == right
            pool.append((
                CandidateAnswer(text=f"option {a}", paragraph_index=0),
                ScoreBundle(
                    lp_a_qp=-6.0 if good else -0.1,
                    lp_q_ap=-1.0 - 0.1 * a,
                    lp_a_p=-0.1 if good else -4.0,
                    lp_q_p=-1.0,
                    lp_prior=log_prior(1.0),
                ),
            ))
        gold = f"option {right}"
        instances.append((pool, lambda ans, g=gold: float(ans.text == g)))

    def mean_reward(config):
        return sum(reward(select_answer(pool, config).answer)
                   for pool, reward in instances) / len(instances)

    result = tune_weights(instances)
    again = tune_weights(instances)
    assert result.weights == again.weights
    assert result.trace == again.trace

    tuned = mean_reward(RerankConfig(scorer=POE, poe_weights=result.weights))
    assert tuned == result.objective
    baselines = {
        ANSWER_PROB: mean_reward(RerankConfig(scorer=ANSWER_PROB)),
        RAG: mean_reward(RerankConfig(scorer=RAG)),
        NOISY_CHANNEL: mean_reward(RerankConfig(scorer=NOISY_CHANNEL)),
        "poe_default": mean_reward(RerankConfig(scorer=POE,
                                                poe_weights=DEFAULT_WEIGHTS)),
    }
    for name, score in baselines.items():
        assert tuned >= score, (name, score, tuned)
    assert tuned > baselines["poe_default"]
    print(f"[criterion 08] PASS: tuned objective {tuned:.3f} >= baselines "
          f"{ {k: round(v, 3) for k, v in baselines.items()} }, trace "
          f"deterministic over {len(result.trace)} steps")


def test_criterion_09_cost_rows_increase_and_flops_recompute(e2e_workdirs):
    """Cost sweep rows grow strictly in FLOPs, and every FLOPs figure
    equals 2 * params * tokens recomputed from the raw call logs as exact
    integers."""
    workdir = e2e_workdirs["w1"]
    cost = json.loads((workdir / "cost" / "search_poe.json")
                      .read_text(encoding="utf-8"))
    rows = cost["rows"]
    assert [r["paragraphs"] for r in rows] == [0, 1, 3, 5]
    flops = [r["flops"] for r in rows]
    assert all(isinstance(f, int) for f in flops)
    assert all(a < b for a, b in zip(flops, flops[1:]))

    heldout = set(json.loads((workdir / "weights.json")
                             .read_text(encoding="utf-8"))["heldout_ids"])
    dataset_ids = []
    with open(FIXTURES / "fixtureqa.jsonl", encoding="utf-8") as fp:
        for line in fp:
            dataset_ids.append(json.loads(line)["id"])
    eval_ids = [qid for qid in dataset_ids if qid not in heldout]
    assert len(eval_ids) == cost["n_questions"]

    def log_tokens(source, qid, cutoff):
        total = 0
        path = workdir / "calls" / source / f"{qid}.jsonl"
        for line in path.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            idx = entry["paragraph_index"]
            if cutoff is not None and (idx is None or idx >= cutoff):
                continue
            total += int(entry["prompt_tokens"]) + int(entry["generated_tokens"])
        return total

    for row in rows:
        m = row["paragraphs"]
        if m == 0:
            tokens = sum(log_tokens("closed", qid, None) for qid in eval_ids)
        else:
            tokens = sum(log_tokens("search", qid, m) for qid in eval_ids)
        assert row["total_tokens"] == tokens
        assert row["flops"] == 2 * cost["param_count"] * tokens
    print(f"[criterion 09] PASS: {len(rows)} cost rows strictly increasing; "
          f"FLOPs recomputed exactly from the call logs")


def test_criterion_10_default_settings_audit():
    """Every user-facing default equals the documented operating point."""
    from webqa import chunkrank, evaluation, lmbackend, pipeline
    from webqa import websearch

    audit = {
        "num_urls": (cli.DEFAULTS["num_urls"], websearch.DEFAULT_TOP_URLS, 20),
        "chunk_sentences": (cli.DEFAULTS["chunk_sentences"],
                            chunkrank.DEFAULT_CHUNK_SENTENCES, 6),
        "top_paragraphs": (cli.DEFAULTS["top_paragraphs"],
                           chunkrank.DEFAULT_TOP_PARAGRAPHS, 50),
        "samples_per_paragraph": (cli.DEFAULTS["samples_per_paragraph"], 4, 4),
        "closed_book_samples": (cli.DEFAULTS["closed_book_samples"], 200, 200),
        "nucleus_p": (cli.DEFAULTS["nucleus_p"],
                      lmbackend.DEFAULT_NUCLEUS_P, 0.8),
        "temperature": (cli.DEFAULTS["temperature"],
                        lmbackend.DEFAULT_TEMPERATURE, 1.0),
        "heldout_fraction": (cli.DEFAULTS["heldout_fraction"], 0.1, 0.1),
    }
    for name, (got_cli, got_module, want) in audit.items():
        assert got_cli == want, f"{name}: cli default {got_cli} != {want}"
        assert got_module == want, f"{name}: module default {got_module}"

    assert cli.DEFAULTS["evidence"] == "search"
    assert cli.DEFAULTS["scorer"] == POE
    assert tuple(cli.DEFAULTS["stop"]) == ("\n",)
    assert tuple(cli.DEFAULTS["cost_points"]) == (0, 1, 5, 10, 20, 50)
    assert tuple(cli.DEFAULTS["recall_ks"]) == (1, 5, 10, 20, 50)
    assert evaluation.DEFAULT_RECALL_KS == (1, 5, 10, 20, 50)
    assert lmbackend.DEFAULT_STOP == ("\n",)
    assert lmbackend.DEFAULT_MAX_NEW_TOKENS == 64
    assert pipeline.DEFAULT_COST_POINTS == (0, 1, 5, 10, 20, 50)
    assert DEFAULT_WEIGHTS == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert MockBackend().describe().context_tokens == 2048

    for dataset_id, kind in [("nq", "qa"), ("hotpotqa", "qa"),
                             ("strategyqa", "qa"), ("fever", "qa"),
                             ("nq", "q_given_ap"), ("nq", "q_given_p"),
                             ("nq", "p_given_q"), ("nq", "a_given_p")]:
        bank = load_bundled_bank(dataset_id, kind)
        assert bank is not None and bank.k == 15, (dataset_id, kind)

    fever = load_bundled_bank("fever", "qa")
    fever_answers = {ex.answer for ex in fever.examples}
    assert fever_answers == {"true", "false", "error"}

    assert lmbackend.flops_for_tokens(280_000_000_000, 1024) == \
        2 * 280_000_000_000 * 1024
    print("[criterion 10] PASS: defaults audit (retrieval 20 URLs, "
          "6-sentence chunks, top 50, 4 samples, 200 closed-book, "
          "nucleus 0.8 at temperature 1, 10% held out, k=15 banks)")
