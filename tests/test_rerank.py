import math
import random

import pytest

from webqa.rerank import (
    ANSWER_PROB,
    DEFAULT_TUNING_SWEEPS,
    DEFAULT_WEIGHT_GRID,
    DEFAULT_WEIGHTS,
    NOISY_CHANNEL,
    POE,
    RAG,
    SCORERS,
    CandidateAnswer,
    RerankConfig,
    ScoreBundle,
    TuneResult,
    log_prior,
    logsumexp,
    pair_score,
    rag_answer_scores,
    select_answer,
    tune_weights,
)


def _pair(text, para, lp_a_qp=-1.0, lp_q_ap=-1.0, lp_a_p=-1.0,
          lp_q_p=-1.0, prior=0.5):
    return (CandidateAnswer(text=text, paragraph_index=para),
            ScoreBundle(lp_a_qp=lp_a_qp, lp_q_ap=lp_q_ap, lp_a_p=lp_a_p,
                        lp_q_p=lp_q_p, lp_prior=log_prior(prior)))


def _random_pool(rng, max_paras=5, max_answers=4):
    """Pool over <= max_paras paragraphs and <= max_answers distinct answers,
    with random subsets of (answer, paragraph) pairs present."""
    n_paras = rng.randrange(1, max_paras + 1)
    n_answers = rng.randrange(1, max_answers + 1)
    raw = [rng.random() for _ in range(n_paras)]
    total = sum(raw)
    priors = [r / total for r in raw]
    pool = []
    for p in range(n_paras):
        for a in range(n_answers):
            if pool and rng.random() < 0.35:
                continue
            pool.append((
                CandidateAnswer(text=f"ans {a}", paragraph_index=p),
                ScoreBundle(
                    lp_a_qp=-5.0 * rng.random(),
                    lp_q_ap=-5.0 * rng.random(),
                    lp_a_p=-5.0 * rng.random(),
                    lp_q_p=-5.0 * rng.random(),
                    lp_prior=log_prior(priors[p]),
                ),
            ))
    return pool


def _oracle_select(pool, config):
    """Exhaustive reference: recompute every score in the most literal way
    and take the maximum with the package's own tie-break key."""
    def key(answer, bundle, score):
        return (-score, -bundle.lp_a_qp, answer.paragraph_index,
                " ".join(answer.text.split()))

    if config.scorer == RAG:
        groups = {}
        for answer, bundle in pool:
            canon = " ".join(answer.text.split())
            groups.setdefault(canon, []).append((answer, bundle))
        best = None
        for canon, members in groups.items():
            mass = math.log(math.fsum(
                math.exp(b.lp_prior) * math.exp(b.lp_a_qp)
                for _, b in members))
            rep = min(members,
                      key=lambda ab: (-ab[1].lp_a_qp, ab[0].paragraph_index,
                                      " ".join(ab[0].text.split())))
            item = ((-mass, -rep[1].lp_a_qp, rep[0].paragraph_index, canon),
                    rep[0], mass)
            if best is None or item[0] < best[0]:
                best = item
        return best[1], best[2]

    best = None
    for answer, bundle in pool:
        if config.scorer == ANSWER_PROB:
            score = bundle.lp_a_qp
        elif config.scorer == NOISY_CHANNEL:
            score = bundle.lp_q_ap + bundle.lp_a_p - bundle.lp_q_p
        else:
            w = config.poe_weights
            score = (w[0] * bundle.lp_a_qp + w[1] * bundle.lp_q_ap +
                     w[2] * bundle.lp_a_p + w[3] * bundle.lp_q_p +
                     w[4] * bundle.lp_prior)
        item = (key(answer, bundle, score), answer, score)
        if best is None or item[0] < best[0]:
            best = item
    return best[1], best[2]


class TestSelectAgainstOracle:
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_500_random_pools(self, scorer):
        rng = random.Random(20240814)
        for trial in range(500):
            pool = _random_pool(rng)
            if scorer == POE:
                weights = tuple(rng.choice([0.0, 0.25, 0.5, 1.0, 2.0])
                                for _ in range(5))
                if not any(weights):
                    weights = DEFAULT_WEIGHTS
                config = RerankConfig(scorer=POE, poe_weights=weights)
            else:
                config = RerankConfig(scorer=scorer)
            got = select_answer(pool, config)
            want_answer, want_score = _oracle_select(pool, config)
            assert got.answer == want_answer, (scorer, trial)
            assert got.score == pytest.approx(want_score, abs=1e-12), \
                (scorer, trial)

    def test_result_metadata(self):
        pool = [_pair("x", 0), _pair("y", 1), _pair("x ", 0)]
        res = select_answer(pool, RerankConfig(scorer=ANSWER_PROB))
        assert res.n_pairs == 3
        assert res.n_answers == 2  # "x" and "x " collapse
        assert res.scorer == ANSWER_PROB


class TestReductions:
    def test_poe_one_hot_reduces_to_answer_prob(self):
        rng = random.Random(7)
        one_hot = RerankConfig(scorer=POE, poe_weights=(1.0, 0, 0, 0, 0))
        plain = RerankConfig(scorer=ANSWER_PROB)
        for _ in range(200):
            pool = _random_pool(rng)
            a = select_answer(pool, one_hot)
            b = select_answer(pool, plain)
            assert a.answer == b.answer
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_rag_on_single_paragraph_reduces_to_answer_prob(self):
        """With one paragraph the prior is 1, so the marginal equals
        p(a|q,p) for every distinct answer."""
        rng = random.Random(8)
        for _ in range(200):
            pool = _random_pool(rng, max_paras=1)
            a = select_answer(pool, RerankConfig(scorer=RAG))
            b = select_answer(pool, RerankConfig(scorer=ANSWER_PROB))
            assert a.answer == b.answer
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_noisy_channel_invariant_to_question_prob_shift(self):
        """lp_q_p is constant within a paragraph, so shifting it uniformly
        must not change the within-paragraph ranking."""
        rng = random.Random(9)
        for _ in range(200):
            pool = _random_pool(rng, max_paras=1, max_answers=4)
            shift = rng.uniform(-3.0, 3.0)
            shifted = [
                (ans, ScoreBundle(lp_a_qp=b.lp_a_qp, lp_q_ap=b.lp_q_ap,
                                  lp_a_p=b.lp_a_p, lp_q_p=b.lp_q_p + shift,
                                  lp_prior=b.lp_prior))
                for ans, b in pool
            ]
            a = select_answer(pool, RerankConfig(scorer=NOISY_CHANNEL))
            b = select_answer(shifted, RerankConfig(scorer=NOISY_CHANNEL))
            assert a.answer == b.answer


class TestPairScore:
    def test_noisy_channel_hand_case(self):
        # p(q|a,p) * p(a|p) / p(q|p) in logs: -1 + -2 - (-3) = 0
        _, bundle = _pair("x", 0, lp_q_ap=-1.0, lp_a_p=-2.0, lp_q_p=-3.0)
        got = pair_score(bundle, RerankConfig(scorer=NOISY_CHANNEL))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_answer_prob_is_identity(self):
        _, bundle = _pair("x", 0, lp_a_qp=-0.75)
        assert pair_score(bundle, RerankConfig(scorer=ANSWER_PROB)) == -0.75

    def test_poe_weighted_sum_hand_case(self):
        _, bundle = _pair("x", 0, lp_a_qp=-1.0, lp_q_ap=-2.0, lp_a_p=-4.0,
                          lp_q_p=-8.0, prior=math.exp(-16.0))
        config = RerankConfig(scorer=POE,
                              poe_weights=(1.0, 0.5, 0.25, 0.125, 0.0625))
        want = -1.0 - 1.0 - 1.0 - 1.0 - 1.0
        assert pair_score(bundle, config) == pytest.approx(want, abs=1e-12)

    def test_rag_has_no_pair_score(self):
        _, bundle = _pair("x", 0)
        with pytest.raises(ValueError):
            pair_score(bundle, RerankConfig(scorer=RAG))


class TestRagMarginal:
    def test_hand_marginalization(self):
        # same answer from two paragraphs: mass adds in probability space
        pool = [
            _pair("rome", 0, lp_a_qp=math.log(0.5), prior=0.6),
            _pair("rome", 1, lp_a_qp=math.log(0.25), prior=0.4),
            _pair("paris", 0, lp_a_qp=math.log(0.9), prior=0.6),
        ]
        scores = rag_answer_scores(pool)
        assert scores["rome"] == pytest.approx(
            math.log(0.6 * 0.5 + 0.4 * 0.25), abs=1e-12)
        assert scores["paris"] == pytest.approx(
            math.log(0.6 * 0.9), abs=1e-12)

    def test_whitespace_variants_group(self):
        pool = [_pair("new  york", 0, prior=1.0),
                _pair("new york ", 0, prior=1.0)]
        assert set(rag_answer_scores(pool)) == {"new york"}


class TestTieBreaks:
    def test_equal_scores_prefer_higher_answer_prob(self):
        pool = [_pair("a", 0, lp_a_qp=-2.0), _pair("b", 1, lp_a_qp=-1.0)]
        config = RerankConfig(scorer=POE, poe_weights=(0, 0, 0, 0, 1.0))
        res = select_answer(pool, config)
        assert res.answer.text == "b"

    def test_then_lower_paragraph_index(self):
        pool = [_pair("b", 3), _pair("a", 1)]
        res = select_answer(pool, RerankConfig(scorer=ANSWER_PROB))
        assert res.answer.paragraph_index == 1

    def test_then_lexicographic_text(self):
        pool = [_pair("zebra", 0), _pair("aardvark", 0)]
        res = select_answer(pool, RerankConfig(scorer=ANSWER_PROB))
        assert res.answer.text == "aardvark"

    def test_fully_deterministic_under_shuffle(self):
        rng = random.Random(0)
        pool = _random_pool(rng)
        config = RerankConfig(scorer=NOISY_CHANNEL)
        want = select_answer(pool, config)
        for _ in range(10):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            assert select_answer(shuffled, config) == want


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_answer([], RerankConfig(scorer=ANSWER_PROB))

    def test_unknown_scorer_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(scorer="mean_pool")

    def test_poe_needs_five_weights(self):
        with pytest.raises(ValueError):
            RerankConfig(scorer=POE, poe_weights=(1.0, 1.0))

    def test_all_zero_poe_weights_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(scorer=POE, poe_weights=(0.0, 0.0, 0.0, 0.0, 0.0))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ScoreBundle(lp_a_qp=float("-inf"), lp_q_ap=0.0, lp_a_p=0.0,
                        lp_q_p=0.0, lp_prior=0.0)

    def test_log_prior_floors_zero(self):
        assert log_prior(0.0) == math.log(1e-12)
        assert log_prior(0.5) == pytest.approx(math.log(0.5), abs=1e-15)


def test_canon_text_is_computed_once_and_stays_out_of_equality():
    answer = CandidateAnswer(text="  Aurora \n Falls ", paragraph_index=2)
    assert answer.canon_text == "Aurora Falls"
    assert answer.canon_text is answer.canon_text
    assert answer == CandidateAnswer(text="  Aurora \n Falls ", paragraph_index=2)
    assert hash(answer) == hash(CandidateAnswer(text="  Aurora \n Falls ", paragraph_index=2))


def test_logsumexp_hand_case():
    assert logsumexp([math.log(0.25), math.log(0.75)]) == \
        pytest.approx(0.0, abs=1e-12)
    assert logsumexp([-1000.0, -1000.0]) == \
        pytest.approx(-1000.0 + math.log(2), abs=1e-9)


class TestTuneWeights:
    def _instances(self):
        """Pools engineered so only the lp_a_p expert identifies the right
        answer; reward is exact match against it."""
        rng = random.Random(123)
        instances = []
        for _ in range(12):
            right = rng.randrange(3)
            pool = []
            for a in range(3):
                good = a == right
                pool.append((
                    CandidateAnswer(text=f"ans {a}", paragraph_index=0),
                    ScoreBundle(
                        # misleading expert: wrong answers look far likelier
                        # here, strongly enough that all-ones weights fail
                        lp_a_qp=-0.1 if not good else -6.0,
                        lp_q_ap=-1.0,
                        lp_a_p=-0.1 if good else -4.0,
                        lp_q_p=-1.0,
                        lp_prior=log_prior(1.0),
                    ),
                ))
            gold = f"ans {right}"
            instances.append(
                (pool, lambda ans, gold=gold: float(ans.text == gold)))
        return instances

    def test_finds_better_weights_than_start(self):
        instances = self._instances()
        result = tune_weights(instances)

        def objective(weights):
            config = RerankConfig(scorer=POE, poe_weights=weights)
            return sum(reward(select_answer(pool, config).answer)
                       for pool, reward in instances) / len(instances)

        assert result.objective == pytest.approx(objective(result.weights))
        assert result.objective > objective(DEFAULT_WEIGHTS)
        assert result.objective == 1.0  # the a_p expert nails every instance

    def test_trace_starts_at_ones_and_improves_monotonically(self):
        result = tune_weights(self._instances())
        assert result.trace[0]["weights"] == [1.0] * 5
        best = -1.0
        for entry in result.trace:
            if entry["improved"]:
                assert entry["objective"] > best
                best = entry["objective"]
        assert result.trace[-1]["objective"] <= result.objective

    def test_deterministic(self):
        a = tune_weights(self._instances())
        b = tune_weights(self._instances())
        assert a.weights == b.weights
        assert a.trace == b.trace

    def test_rejects_empty_instances(self):
        with pytest.raises(ValueError):
            tune_weights([])

    def test_never_tries_all_zero(self):
        result = tune_weights(self._instances(), grid=(0.0, 1.0), sweeps=1)
        for entry in result.trace:
            assert any(entry["weights"])

    def test_json_shape(self):
        result = tune_weights(self._instances(), sweeps=1)
        out = result.to_json()
        assert set(out) == {"weights", "weight_names", "objective", "trace"}
        assert len(out["weights"]) == 5
        assert out["weight_names"] == ["w_a_qp", "w_q_ap", "w_a_p",
                                       "w_q_p", "w_prior"]


def _reference_tune(instances, grid=DEFAULT_WEIGHT_GRID, sweeps=DEFAULT_TUNING_SWEEPS):
    """Coordinate descent with the most literal objective: one
    ``select_answer`` per pool and weight vector, each reward in turn."""
    def objective(weights):
        config = RerankConfig(scorer=POE, poe_weights=weights)
        total = 0.0
        for pool, reward in instances:
            total += reward(select_answer(pool, config).answer)
        return total / len(instances)

    best = DEFAULT_WEIGHTS
    best_objective = objective(best)
    trace = [{"weights": list(best), "objective": best_objective, "improved": True}]
    for _ in range(sweeps):
        for coord in range(5):
            for value in grid:
                candidate = best[:coord] + (value,) + best[coord + 1:]
                if candidate == best or not any(candidate):
                    continue
                score = objective(candidate)
                trace.append({"weights": list(candidate), "objective": score,
                              "improved": score > best_objective})
                if score > best_objective:
                    best, best_objective = candidate, score
    return TuneResult(weights=best, objective=best_objective, trace=tuple(trace))


def _coarse(rng, pool):
    """``pool`` with every score drawn from a few halves, so PoE sums tie exactly."""
    def value():
        return rng.choice((0.0, -0.0, -0.5, -1.0, -2.0))
    return [(answer, ScoreBundle(value(), value(), value(), value(), value()))
            for answer, _ in pool]


def _instances(pools, rewards):
    """Each pool with a reward that reads ``rewards`` by raw answer text."""
    return [(pool, lambda answer, table=table: table.get(answer.text, 0.0))
            for pool, table in zip(pools, rewards)]


class TestTuneMatchesReference:
    def test_300_random_instance_sets(self):
        rng = random.Random(20261019)
        for trial in range(300):
            pools = [_random_pool(rng) for _ in range(rng.randrange(1, 6))]
            if trial % 2:
                pools = [_coarse(rng, pool) for pool in pools]
            rewards = [{f"ans {a}": rng.choice((0.0, 0.5, 1.0)) for a in range(4)}
                       for _ in pools]
            instances = _instances(pools, rewards)
            assert tune_weights(instances) == _reference_tune(instances), trial

    def test_exact_ties_go_to_the_higher_answer_prob_then_the_lower_paragraph(self):
        # every weight vector scores all three pairs alike unless it weighs lp_a_qp
        pools = [[_pair("a", 2, lp_a_qp=-2.0, lp_q_ap=-1.0),
                  _pair("b", 1, lp_a_qp=-1.0, lp_q_ap=-2.0),
                  _pair("c", 0, lp_a_qp=-1.0, lp_q_ap=-2.0)]]
        instances = _instances(pools, [{"a": 1.0, "b": 0.5}])
        result = tune_weights(instances)
        assert result == _reference_tune(instances)
        assert result.trace[0]["objective"] == 0.0  # "c": paragraph 0 wins the tie

    def test_poe_sums_of_zero_and_negative_zero_tie(self):
        zero = ScoreBundle(0.0, 0.0, 0.0, 0.0, 0.0)
        negative_zero = ScoreBundle(-0.0, -0.0, -0.0, -0.0, -0.0)
        pool = [(CandidateAnswer("later", 1), zero), (CandidateAnswer("first", 0), negative_zero)]
        assert select_answer(pool, RerankConfig(scorer=POE)).answer.text == "first"
        instances = _instances([pool, pool[::-1]], [{"later": 1.0}, {"first": 1.0}])
        result = tune_weights(instances)
        assert result == _reference_tune(instances)
        assert result.objective == 0.5

    def test_one_canon_text_repeated_across_paragraphs(self):
        pool = [_pair("new york ", 3), _pair("new  york", 1), _pair("new york", 1),
                _pair("boston", 2, lp_q_ap=-0.5)]
        # "new  york" and "new york" share every score and key: pool order decides
        assert select_answer(pool, RerankConfig(scorer=POE)).answer.text == "boston"
        assert select_answer(pool, RerankConfig(scorer=POE, poe_weights=(1.0, 0, 0, 0, 0))
                             ).answer.text == "new  york"
        instances = _instances([pool, pool[::-1]], [{"new  york": 1.0}, {"new york": 1.0}])
        result = tune_weights(instances)
        assert result == _reference_tune(instances)
        # without lp_q_ap each pool's first "new york" in pool order wins
        assert result.weights[1] == 0.0 and result.objective == 1.0
