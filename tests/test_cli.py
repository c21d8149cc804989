import argparse
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from urllib.parse import urlencode

import pytest

import webqa
from webqa import cli, fixtures, net
from webqa.cache import PACK_SUFFIX, CacheKey, RequestCache, gunzip_bytes
from webqa.corpus import load_dataset
from webqa.fixtures import FixtureServer
from webqa.lmbackend import CachedBackend, HTTPBackend, MockBackend, PromptTooLong
from webqa.pipeline import ConfigError, PipelineConfig
from webqa.websearch import FixtureSearchClient, GoogleCustomSearchClient, SearchError


def _args(*argv):
    return cli.build_parser().parse_args(list(argv))


BASE = ("run", "--dataset", "d.jsonl", "--workdir", "w")


class TestEffectiveConfig:
    def test_defaults_applied(self):
        config = cli.effective_config(_args(*BASE))
        assert config["evidence"] == "search"
        assert config["scorer"] == "poe"
        assert config["num_urls"] == 20
        assert config["chunk_sentences"] == 6
        assert config["top_paragraphs"] == 50
        assert config["samples_per_paragraph"] == 4
        assert config["closed_book_samples"] == 200
        assert config["nucleus_p"] == 0.8
        assert config["temperature"] == 1.0
        assert config["heldout_fraction"] == 0.1
        assert config["backend"] == "mock"

    def test_dataset_id_defaults_to_basename(self):
        config = cli.effective_config(
            _args("run", "--dataset", "/tmp/nq.open.jsonl", "--workdir", "w"))
        assert config["dataset_id"] == "nq"

    def test_flag_overrides_default(self):
        config = cli.effective_config(_args(*BASE, "--paragraphs", "7"))
        assert config["top_paragraphs"] == 7

    def test_config_file_between_defaults_and_flags(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"top_paragraphs": 9, "seed": 4}),
                        encoding="utf-8")
        config = cli.effective_config(
            _args(*BASE, "--config", str(path), "--paragraphs", "7"))
        assert config["top_paragraphs"] == 7  # flag wins
        assert config["seed"] == 4            # file beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"paragraphz": 9}), encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.effective_config(_args(*BASE, "--config", str(path)))

    @pytest.mark.parametrize("values, message", [
        ({"top_paragraphs": "50"}, "'top_paragraphs' must be an integer, got '50'"),
        ({"stop": "Q:"}, "'stop' must be a list of strings, got 'Q:'"),
        ({"stop": ["Q:", 1]}, "'stop' must be a list of strings, got ['Q:', 1]"),
        ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
        ({"max_workers": True}, "'max_workers' must be an integer, got True"),
        ({"nucleus_p": "0.9"}, "'nucleus_p' must be a number, got '0.9'"),
        ({"offline": 1}, "'offline' must be true or false, got 1"),
        ({"evidence": None}, "'evidence' must be a string, got None"),
        ({"context_tokens": "60"}, "'context_tokens' must be an integer or null, got '60'"),
        ({"cost_points": [0, "1"]},
         "'cost_points' must be a list of integers or a comma-separated string, got [0, '1']"),
        ({"weights": {"w": 1}},
         "'weights' must be a list of numbers or a comma-separated string, got {'w': 1}"),
    ])
    def test_config_file_value_of_the_wrong_type_is_refused(self, tmp_path, values, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^config key {re.escape(message)}$"):
            cli.effective_config(_args(*BASE, "--config", str(path)))

    @pytest.mark.parametrize("values, key", [({"top_paragraphs": "50"}, "top_paragraphs"),
                                             ({"stop": "Q:"}, "stop")])
    def test_config_file_type_error_exits_1_naming_the_key(self, tmp_path, capsys, values, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        assert cli.main([*BASE[:3], "--workdir", str(tmp_path / "w"), "--config", str(path)]) == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_config_file_values_of_the_right_type_are_taken(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "stop": ["Q:", "\n"], "nucleus_p": 1, "temperature": 0.5, "cost_points": "0,1",
            "recall_ks": [1, 2], "weights": [1, 0.5, 0, 2, 1], "context_tokens": None,
            "banks_dir": "b", "offline": True,
        }), encoding="utf-8")
        config = cli.effective_config(_args(*BASE, "--config", str(path)))
        assert config["stop"] == ("Q:", "\n")
        assert config["nucleus_p"] == 1
        assert config["cost_points"] == (0, 1)
        assert config["recall_ks"] == (1, 2)
        assert config["weights"] == (1.0, 0.5, 0.0, 2.0, 1.0)
        assert config["context_tokens"] is None
        assert config["offline"] is True

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(["top_paragraphs"]), encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            cli.effective_config(_args(*BASE, "--config", str(path)))

    def test_weights_parse(self):
        config = cli.effective_config(
            _args(*BASE, "--weights", "1,0.5,0,2,1"))
        assert config["weights"] == (1.0, 0.5, 0.0, 2.0, 1.0)

    def test_weights_need_five(self):
        with pytest.raises(ConfigError):
            cli.effective_config(_args(*BASE, "--weights", "1,2,3"))

    def test_cost_points_parse(self):
        config = cli.effective_config(
            _args(*BASE, "--cost-points", "0,1,3"))
        assert config["cost_points"] == (0, 1, 3)

    def test_stop_is_newline(self):
        config = cli.effective_config(_args(*BASE))
        assert config["stop"] == ("\n",)


def _other_value(setting):
    """A valid value for ``setting`` other than its default."""
    default = setting.default
    if setting.many:
        if setting.size is not None:
            return tuple(setting.kind(i + 1) for i in range(setting.size))
        return ("Q:",) if setting.kind is str else (1, 2)
    if "choices" in setting.field.metadata:
        return next(c for c in setting.field.metadata["choices"] if c != default)
    if setting.kind is str:
        return "elsewhere"
    if default is None:
        return setting.kind(60)
    return default / 2 if setting.kind is float else default + 1


@pytest.mark.parametrize("field", [f for f in dataclasses.fields(PipelineConfig)
                                   if f.default is not dataclasses.MISSING],
                         ids=lambda f: f.name)
def test_every_setting_is_wired_from_flag_and_config_file(tmp_path, monkeypatch, field):
    """Each PipelineConfig field with a default has one config-file key and,
    except ``stop``, one flag, and a value set through either reaches the
    PipelineConfig that make_pipeline builds."""
    [key] = [key for key, s in cli.SETTINGS.items() if s.field is field]
    assert key in cli.DEFAULTS
    run = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)).choices["run"]
    flags = [action.option_strings for action in run._actions if action.dest == key]
    assert len(flags) == (field.name != "stop")

    value = _other_value(cli.SETTINGS[key])
    assert value != field.default
    monkeypatch.setattr(cli, "Pipeline", lambda config, backend, search_client: config)
    monkeypatch.setenv(cli.GOOGLE_API_KEY_VAR, "k")
    monkeypatch.setenv(cli.GOOGLE_CSE_ID_VAR, "c")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    routes = [["--config", str(path)]]
    if flags:
        [[flag]] = flags
        routes.append([flag, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)])
    for route in routes:
        config = cli.make_pipeline(cli.effective_config(
            _args("run", "--dataset", "d.jsonl", "--workdir", str(tmp_path / "w"), *route)))
        assert getattr(config, field.name) == value, route


class TestMakeBackend:
    def test_mock_is_cached(self, tmp_path):
        config = cli.effective_config(
            _args("run", "--dataset", "d", "--workdir", str(tmp_path)))
        backend = cli.make_backend(config)
        assert isinstance(backend, CachedBackend)
        assert isinstance(backend.inner, MockBackend)

    def test_http_backend_from_url(self, tmp_path):
        config = cli.effective_config(
            _args("run", "--dataset", "d", "--workdir", str(tmp_path),
                  "--backend", "http://127.0.0.1:9"))
        backend = cli.make_backend(config)
        assert isinstance(backend.inner, HTTPBackend)

    def test_identities_are_the_keys_runs_wrote(self, tmp_path):
        """The mock is keyed by its parameter count and an HTTP backend by its
        URL as given, trailing slash included, as every earlier run keyed them."""
        def identity(*flags):
            config = cli.effective_config(_args("run", "--dataset", "d", "--workdir", str(tmp_path), *flags))
            return cli.make_backend(config).identity

        assert identity() == "mock(param_count=1000000)"
        assert identity("--param-count", "7000") == "mock(param_count=7000)"
        assert identity("--backend", "http://127.0.0.1:9/") == "http://127.0.0.1:9/"

    def test_param_count_reaches_mock(self, tmp_path):
        config = cli.effective_config(
            _args("run", "--dataset", "d", "--workdir", str(tmp_path),
                  "--param-count", "7000000000"))
        backend = cli.make_backend(config)
        assert backend.describe().param_count == 7_000_000_000

    def test_new_param_count_reaches_cost(self, tmp_path, qa_dataset_path, banks_dir):
        """The mock's cache identity names its parameter count, so a later
        command with another count asks for the description again."""
        common = ["--dataset", str(qa_dataset_path), "--workdir", str(tmp_path),
                  "--evidence", "gold", "--banks-dir", str(banks_dir), "--paragraphs", "2",
                  "--samples-per-paragraph", "2", "--closed-book-samples", "4",
                  "--max-new-tokens", "16", "--cost-points", "0,1"]
        assert cli.main(["run", *common]) == 0
        assert cli.main(["cost", *common, "--param-count", "7000"]) == 0
        cost = json.loads((tmp_path / "cost" / "gold_poe.json").read_text(encoding="utf-8"))
        assert cost["param_count"] == 7000


class TestMakeSearchClient:
    def test_none_for_gold_and_closed(self):
        for mode in ("gold", "closed"):
            config = cli.effective_config(_args(*BASE, "--evidence", mode))
            assert cli.make_search_client(config) is None

    def test_fixture_endpoint(self):
        config = cli.effective_config(
            _args(*BASE, "--search-endpoint", "http://127.0.0.1:8123"))
        client = cli.make_search_client(config)
        assert isinstance(client, FixtureSearchClient)

    def test_google_needs_credentials(self, monkeypatch):
        monkeypatch.delenv(cli.GOOGLE_API_KEY_VAR, raising=False)
        monkeypatch.delenv(cli.GOOGLE_CSE_ID_VAR, raising=False)
        config = cli.effective_config(_args(*BASE))
        with pytest.raises(ConfigError):
            cli.make_search_client(config)

    def test_google_with_credentials(self, monkeypatch):
        monkeypatch.setenv(cli.GOOGLE_API_KEY_VAR, "k")
        monkeypatch.setenv(cli.GOOGLE_CSE_ID_VAR, "c")
        config = cli.effective_config(_args(*BASE))
        assert isinstance(cli.make_search_client(config),
                          GoogleCustomSearchClient)

    @pytest.mark.parametrize("endpoint", ["google", "http://127.0.0.1:8123"])
    def test_none_offline(self, monkeypatch, endpoint):
        monkeypatch.setenv(cli.GOOGLE_API_KEY_VAR, "k")
        monkeypatch.setenv(cli.GOOGLE_CSE_ID_VAR, "c")
        config = cli.effective_config(_args(*BASE, "--search-endpoint", endpoint, "--offline"))
        assert cli.make_search_client(config) is None

    def test_offline_google_needs_a_warm_cache_not_credentials(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, capsys):
        """An offline run with the default endpoint and no credentials replays a
        cache warmed through the fixture server, and exits 3 over an empty one."""
        monkeypatch.delenv(cli.GOOGLE_API_KEY_VAR, raising=False)
        monkeypatch.delenv(cli.GOOGLE_CSE_ID_VAR, raising=False)
        workdir = tmp_path / "w"
        common = ["run", "--dataset", str(qa_dataset_path), "--banks-dir", str(banks_dir),
                  "--top-urls", "3", "--paragraphs", "2", "--samples-per-paragraph", "2",
                  "--closed-book-samples", "4", "--max-new-tokens", "16", "--cost-points", "0,1"]
        with FixtureServer(web_root) as server:
            assert cli.main(common + ["--workdir", str(workdir),
                                      "--search-endpoint", server.base_url]) == 0
        before = {p: p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
        assert cli.main(common + ["--workdir", str(workdir), "--offline"]) == 0
        assert {p: p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()} == before

        empty = tmp_path / "empty"
        capsys.readouterr()
        assert cli.main(common + ["--workdir", str(empty), "--offline"]) == 3
        assert "offline cache miss" in capsys.readouterr().err
        assert not (empty / "cache").exists()


class TestMainExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        rc = cli.main(["run", "--dataset", str(tmp_path / "absent.jsonl"),
                       "--workdir", str(tmp_path / "w"),
                       "--evidence", "gold"])
        assert rc == 1
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--temperature", "0", "temperature"),
        ("--nucleus-p", "1.5", "nucleus_p"),
        ("--max-new-tokens", "0", "max_new_tokens"),
        ("--weights", "0,0,0,0,0", "weights"),
        ("--context-tokens", "0", "context_tokens"),
    ])
    def test_bad_setting_is_1_before_any_work(self, tmp_path, qa_dataset_path, banks_dir,
                                              capsys, flag, value, setting):
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), flag, value])
        assert rc == 1
        assert setting in capsys.readouterr().err
        assert not (workdir / "paragraphs").exists()

    @pytest.mark.parametrize("value", ["0,-1", "1,0"])
    def test_recall_k_below_1_is_1_before_any_work(self, tmp_path, qa_dataset_path, banks_dir,
                                                   capsys, value):
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), f"--recall-ks={value}"])
        assert rc == 1
        assert "recall_ks entries must be >= 1" in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("value", ["0,-1", "-5"])
    def test_cost_point_below_0_is_1_before_any_work(self, tmp_path, qa_dataset_path, banks_dir,
                                                     capsys, value):
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), f"--cost-points={value}"])
        assert rc == 1
        assert "cost_points entries must be >= 0" in capsys.readouterr().err
        assert not workdir.exists()

    def test_cost_sweep_with_no_point_in_range_is_1_before_any_work(self, tmp_path, qa_dataset_path,
                                                                    banks_dir, capsys):
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), "--paragraphs", "2",
                       "--cost-points", "7,9"])
        assert rc == 1
        assert "cost_points has no entry of at most 2 paragraphs" in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("command", ["run", "answer"])
    @pytest.mark.parametrize("flags, context", [
        (["--context-tokens", "16", "--max-new-tokens", "16"], 16),
        (["--max-new-tokens", "2048"], 2048),
    ], ids=["flag", "backend"])
    def test_context_with_no_room_to_generate_is_1_before_any_stage(
            self, tmp_path, qa_dataset_path, banks_dir, capsys, command, flags, context):
        """Every sample and label score reserves --max-new-tokens, so a context
        no larger than that fails no question one by one: only the backend's
        description is asked for and cached."""
        workdir = tmp_path / "w"
        rc = cli.main([command, "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), *flags])
        assert rc == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err == f"error: context_tokens {context} must exceed max_new_tokens"
        assert [p.relative_to(workdir).parts[:3] for p in workdir.rglob("*") if p.is_file()] == [
            ("cache", "lm", "shared")]

    def test_offline_cache_miss_is_3(self, tmp_path, qa_dataset_path,
                                     banks_dir, capsys):
        rc = cli.main(["run", "--dataset", str(qa_dataset_path),
                       "--workdir", str(tmp_path / "w"),
                       "--search-endpoint", "http://127.0.0.1:9",
                       "--banks-dir", str(banks_dir),
                       "--offline"])
        assert rc == 3

    def test_offline_miss_inside_a_question_is_3(self, tmp_path, qa_dataset_path,
                                                 banks_dir, web_root, capsys):
        """A miss raised inside one question's worker aborts the run; it is
        not counted among the tolerated per-question failures."""
        workdir = tmp_path / "w"
        with FixtureServer(web_root) as server:
            common = ["run", "--dataset", str(qa_dataset_path),
                      "--workdir", str(workdir),
                      "--search-endpoint", server.base_url,
                      "--banks-dir", str(banks_dir),
                      "--top-urls", "3",
                      "--paragraphs", "3",
                      "--samples-per-paragraph", "2",
                      "--closed-book-samples", "4",
                      "--max-new-tokens", "16",
                      "--cost-points", "0,1"]
            assert cli.main(common) == 0
            for entry in workdir.iterdir():
                if entry.name != "cache":
                    shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
            [pack] = min((workdir / "cache" / "fetch").iterdir()).iterdir()
            pack.unlink()
            capsys.readouterr()
            rc = cli.main(common + ["--offline"])
        assert rc == 3
        assert "offline cache miss" in capsys.readouterr().err

    @pytest.mark.parametrize("evidence, bank, edit, message", [
        ("gold", "fixtureqa_q_given_p.txt", lambda text: text,
         "bank for 'q_given_p' declares kind 'qa'"),
        ("closed", "fixtureqa_qa.txt", lambda text: text.replace("k: 3", "k: x"),
         "header k 'x' is not an integer"),
    ], ids=["mislabeled", "bad-k"])
    def test_unusable_bank_is_1_before_any_pool(self, tmp_path, qa_dataset_path, banks_dir,
                                                capsys, evidence, bank, edit, message):
        """A bank that cannot be used stops the run, naming the file it read; it
        does not fail every question one by one."""
        bad_banks = tmp_path / "banks"
        bad_banks.mkdir()
        qa_text = (banks_dir / "fixtureqa_qa.txt").read_text(encoding="utf-8")
        (bad_banks / "fixtureqa_qa.txt").write_text(qa_text, encoding="utf-8")
        (bad_banks / bank).write_text(edit(qa_text), encoding="utf-8")
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", evidence, "--banks-dir", str(bad_banks)])
        assert rc == 1
        assert f"error: {bad_banks / bank}: {message}" in capsys.readouterr().err
        assert not (workdir / "candidates").exists()
        assert not (workdir / "failures.json").exists()

    def test_answer_before_retrieve_is_1_before_any_question(self, tmp_path, qa_dataset_path,
                                                             banks_dir, capsys):
        """``answer`` in a workdir with no paragraphs/ for its evidence stops
        before its first question; closed evidence reads no paragraphs."""
        workdir = tmp_path / "w"
        flags = ["--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                 "--banks-dir", str(banks_dir), "--closed-book-samples", "4", "--max-new-tokens", "16"]
        assert cli.main(["answer", "--evidence", "gold", *flags]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err == "error: no paragraphs/gold/ in the workdir; run retrieve first"
        assert not (workdir / "candidates").exists()
        assert not (workdir / "failures.json").exists()
        assert cli.main(["answer", "--evidence", "closed", *flags]) == 0
        assert json.loads((workdir / "failures.json").read_text(encoding="utf-8")) == {}

    def test_unreachable_backend_is_1(self, tmp_path, qa_dataset_path, banks_dir,
                                      no_backoff, capsys):
        rc = cli.main(["run", "--dataset", str(qa_dataset_path),
                       "--workdir", str(tmp_path / "w"),
                       "--evidence", "gold",
                       "--banks-dir", str(banks_dir),
                       "--backend", "http://127.0.0.1:9"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: GET http://127.0.0.1:9/v1/model failed after 3 attempts")

    @pytest.mark.parametrize("body", [
        b"{}", b'{"name": "m", "param_count": "7", "context_tokens": 2048, "can_score": true}',
        b'{"name": "m", "param_count": 7, "context_tokens": 0, "can_score": true}',
    ])
    def test_malformed_model_description_is_1_and_never_stored(
            self, tmp_path, qa_dataset_path, banks_dir, serve, capsys, body):
        backend = serve(lambda handler: handler.reply(200, body, "application/json"))
        workdir = tmp_path / "w"
        rc = cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                       "--evidence", "gold", "--banks-dir", str(banks_dir), "--backend", backend])
        assert rc == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: cannot describe the backend: /v1/model returned ")
        assert not (workdir / "cache").exists()

    def test_gold_run_exits_0(self, tmp_path, qa_dataset_path, banks_dir,
                              capsys):
        rc = cli.main(["run", "--dataset", str(qa_dataset_path),
                       "--workdir", str(tmp_path / "w"),
                       "--evidence", "gold",
                       "--banks-dir", str(banks_dir),
                       "--paragraphs", "3",
                       "--samples-per-paragraph", "2",
                       "--closed-book-samples", "4",
                       "--max-new-tokens", "16",
                       "--cost-points", "0,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact_match" in out

    def test_staged_commands_compose(self, tmp_path, qa_dataset_path,
                                     banks_dir, web_root):
        """retrieve / answer / rerank / eval / cost run as separate invocations
        against one workdir (test_workdir_matrix checks that the staged
        commands write the bytes `run` writes)."""
        workdir = tmp_path / "w"
        with FixtureServer(web_root) as server:
            common = ["--dataset", str(qa_dataset_path),
                      "--workdir", str(workdir),
                      "--search-endpoint", server.base_url,
                      "--banks-dir", str(banks_dir),
                      "--top-urls", "3",
                      "--paragraphs", "3",
                      "--samples-per-paragraph", "2",
                      "--closed-book-samples", "4",
                      "--max-new-tokens", "16",
                      "--scorer", "answer_prob",
                      "--cost-points", "0,1"]
            for command in ("retrieve", "answer", "rerank", "eval", "cost"):
                assert cli.main([command] + common) == 0, command
        report = json.loads(
            (workdir / "reports" / "search_answer_prob.json").read_text(
                encoding="utf-8"))
        assert report["n_questions"] == 9


# a loopback URL that no server listens on
_CLOSED_URL = "http://127.0.0.1:1/x"


class TestFailureTolerance:
    """Up to 10% of the questions may fail with an expected per-question
    error; more exits 2, and any other exception is a bug that propagates."""

    @staticmethod
    def _flags(qa_dataset_path, banks_dir, workdir, base_url):
        return ["--dataset", str(qa_dataset_path),
                "--workdir", str(workdir),
                "--search-endpoint", base_url,
                "--banks-dir", str(banks_dir),
                "--top-urls", "3",
                "--paragraphs", "2",
                "--samples-per-paragraph", "2",
                "--closed-book-samples", "4",
                "--max-new-tokens", "16",
                "--cost-points", "0,1"]

    @classmethod
    def _run(cls, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
             n_failing, error, failing_ids=()):
        """``run`` whose search raises ``error`` for the first ``n_failing``
        questions and for those in ``failing_ids``."""
        failing = {r.question for i, r in enumerate(load_dataset(qa_dataset_path))
                   if i < n_failing or r.id in failing_ids}
        with FixtureServer(web_root) as server:
            class FailingSearch(FixtureSearchClient):
                def search(self, query, num):
                    if query in failing:
                        raise error
                    return super().search(query, num)

            monkeypatch.setattr(cli, "make_search_client",
                                lambda config: FailingSearch(server.base_url))
            return cli.main(["run", *cls._flags(qa_dataset_path, banks_dir, tmp_path / "w",
                                                server.base_url)])

    @staticmethod
    def _failures(tmp_path):
        return json.loads((tmp_path / "w" / "failures.json").read_text(encoding="utf-8"))

    def test_one_search_error_in_ten_exits_0(self, tmp_path, qa_dataset_path, banks_dir,
                                             web_root, monkeypatch, caplog):
        rc = self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                       1, SearchError("provider down"))
        assert rc == 0
        assert "continuing despite 1/10 failed questions" in caplog.text
        assert self._failures(tmp_path) == {
            r.id: "retrieve: provider down" for r in load_dataset(qa_dataset_path)[:1]}
        # a clean re-run in the same workdir leaves no stale list behind
        assert self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                         0, SearchError("unused")) == 0
        assert self._failures(tmp_path) == {}

    def test_two_search_errors_in_ten_exit_2(self, tmp_path, qa_dataset_path, banks_dir,
                                             web_root, monkeypatch, capsys):
        rc = self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                       2, SearchError("provider down"))
        assert rc == 2
        assert "2/10 questions failed" in capsys.readouterr().err
        assert self._failures(tmp_path) == {
            r.id: "retrieve: provider down" for r in load_dataset(qa_dataset_path)[:2]}

    def test_every_question_failing_exits_2_before_rerank(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, capsys):
        rc = self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                       10, SearchError("provider down"))
        assert rc == 2
        assert "10/10 questions failed" in capsys.readouterr().err
        assert self._failures(tmp_path) == {
            r.id: "retrieve: provider down" for r in load_dataset(qa_dataset_path)}
        assert not (tmp_path / "w" / "predictions").exists()

    @pytest.mark.parametrize("qid", ["q03", "q08"], ids=["main", "heldout"])
    def test_later_staged_commands_skip_the_questions_failures_json_lists(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, qid):
        """With one question's paragraphs/ file gone, ``answer`` fails it and
        ``tune-weights``, ``rerank``, ``eval`` and ``cost`` skip it: each exits 0
        and they write what a ``run`` whose search failed it writes."""
        staged = tmp_path / "staged"
        with FixtureServer(web_root) as server:
            flags = self._flags(qa_dataset_path, banks_dir, staged, server.base_url)
            assert cli.main(["retrieve", *flags]) == 0
        (staged / "paragraphs" / "search" / f"{qid}.json").unlink()
        for command in ("answer", "tune-weights", "rerank", "eval", "cost"):
            assert cli.main([command, *flags]) == 0, command
        assert set(json.loads((staged / "failures.json").read_text(encoding="utf-8"))) == {qid}
        assert self._run(tmp_path / "run", qa_dataset_path, banks_dir, web_root, monkeypatch,
                         0, SearchError("provider down"), failing_ids=(qid,)) == 0
        for artifact in ("predictions", "reports", "cost"):
            assert _files(staged / artifact) == _files(tmp_path / "run" / "w" / artifact), artifact

    def test_malformed_search_body_fails_one_question(self, tmp_path, qa_dataset_path, banks_dir,
                                                      web_root, monkeypatch):
        """A search body without a list of results fails its question, not the run."""
        first = load_dataset(qa_dataset_path)[0]
        request = net.request

        def answering(url, *args, **kwargs):
            if urlencode({"q": first.question}) + "&" in url:
                return 200, {}, b"{}"
            return request(url, *args, **kwargs)

        monkeypatch.setattr(net, "request", answering)
        assert self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                         0, SearchError("unused")) == 0
        [(qid, message)] = self._failures(tmp_path).items()
        assert qid == first.id
        assert re.fullmatch(rf"retrieve: http://127\.0\.0\.1:\d+/search returned no list of results "
                            rf"for {re.escape(repr(first.question))}", message)

    @pytest.mark.parametrize("rows, page, message", [
        ([{"url": 7, "rank": "3", "title": None}], None, "unreadable search results for {question!r}"),
        ([{"url": _CLOSED_URL, "rank": True, "title": ""}], None, "unreadable search results for {question!r}"),
        ([{"url": _CLOSED_URL, "rank": 1, "title": ""}],
         {"status": "200", "content_type": "text/html", "body": 7}, f"unreadable page for {_CLOSED_URL}"),
    ], ids=["rows", "rank", "page"])
    def test_malformed_cached_search_or_page_fails_one_question(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, rows, page, message):
        """Search rows or a page read back from a question's packs that this
        program could not have stored fail that question under ``retrieve``."""
        first = load_dataset(qa_dataset_path)[0]
        with RequestCache(tmp_path / "w" / "cache").question_scope(first.id) as scope:
            scope.put(CacheKey.for_request("search", {"op": "search", "query": first.question, "num": 3}), rows)
            if page is not None:
                scope.put(CacheKey.for_request("fetch", {"op": "fetch", "url": _CLOSED_URL}), page)
        assert self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                         0, SearchError("unused")) == 0
        assert self._failures(tmp_path) == {first.id: "retrieve: " + message.format(question=first.question)}

    def test_worker_type_error_is_raised(self, tmp_path, qa_dataset_path, banks_dir,
                                         web_root, monkeypatch):
        with pytest.raises(TypeError, match="a bug"):
            self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                      1, TypeError("a bug"))


def _files(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("dataset", ["fixtureqa", "fixturecls"])
def test_search_workdir_does_not_depend_on_the_worker_count(tmp_path, fixtures_dir, banks_dir,
                                                            web_root, dataset):
    """A search-evidence run gives the same workdir, cache/ included, on the
    calling thread (one worker) and on a pool of four, and an offline re-run
    of either changes nothing."""
    trees = {}
    with FixtureServer(web_root) as server:
        for workers in ("1", "4"):
            workdir = tmp_path / workers
            flags = ["run", "--dataset", str(fixtures_dir / f"{dataset}.jsonl"),
                     "--workdir", str(workdir), "--search-endpoint", server.base_url,
                     "--banks-dir", str(banks_dir), "--max-workers", workers,
                     "--top-urls", "3", "--paragraphs", "3", "--samples-per-paragraph", "2",
                     "--closed-book-samples", "4", "--max-new-tokens", "16"]
            assert cli.main(flags) == 0
            trees[workers] = _files(workdir)
            assert cli.main(flags + ["--offline"]) == 0
            assert _files(workdir) == trees[workers]
    assert any(name.startswith("cache/search/") for name in trees["1"])
    assert trees["1"] == trees["4"]


def _lm_question_dirs(workdir, dataset_path) -> list[pathlib.Path]:
    """The LM pack directory of every question, after checking that the LM
    cache holds those and the shared one only."""
    lm = workdir / "cache" / "lm"
    names = sorted(hashlib.sha256(r.id.encode("utf-8")).hexdigest() for r in load_dataset(dataset_path))
    assert sorted(d.name for d in lm.iterdir()) == sorted(names + ["shared"])
    return [lm / name for name in names]


def _pack_digests(pack) -> set[str]:
    return {line.partition(" ")[0] for line in gunzip_bytes(pack.read_bytes()).decode("utf-8").splitlines()}


def test_search_run_writes_one_lm_pack_per_question(tmp_path, qa_dataset_path, banks_dir, web_root):
    """The answer pass builds a question's open-book and closed-book pools in
    one cache scope, so each question gets exactly one LM pack, with the same
    bytes on the calling thread and on a pool of four."""
    packs = {}
    with FixtureServer(web_root) as server:
        for workers in ("1", "4"):
            workdir = tmp_path / workers
            assert cli.main(["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
                             "--search-endpoint", server.base_url, "--banks-dir", str(banks_dir),
                             "--max-workers", workers, "--top-urls", "3", "--paragraphs", "3",
                             "--samples-per-paragraph", "2", "--closed-book-samples", "4",
                             "--max-new-tokens", "16"]) == 0
            packs[workers] = {}
            for question in _lm_question_dirs(workdir, qa_dataset_path):
                [pack] = question.iterdir()
                packs[workers][f"{question.name}/{pack.name}"] = pack.read_bytes()
    assert packs["1"] == packs["4"]


def test_offline_replay_reads_packs_written_by_closed_and_open_runs(tmp_path, qa_dataset_path,
                                                                    banks_dir):
    """A closed-evidence run writes closed-book packs; a later gold run finds
    its closed-book requests there and adds one pack of its open-book misses
    only; an offline gold replay reads both packs and changes no file."""
    workdir = tmp_path / "w"
    common = ["run", "--dataset", str(qa_dataset_path), "--workdir", str(workdir),
              "--banks-dir", str(banks_dir), "--paragraphs", "3", "--samples-per-paragraph", "2",
              "--closed-book-samples", "4", "--max-new-tokens", "16", "--cost-points", "0,1"]
    assert cli.main(common + ["--evidence", "closed"]) == 0
    closed_packs = {}
    for question in _lm_question_dirs(workdir, qa_dataset_path):
        [closed_packs[question]] = question.iterdir()
    assert cli.main(common + ["--evidence", "gold"]) == 0
    for question, closed_pack in closed_packs.items():
        [open_pack] = set(question.iterdir()) - {closed_pack}
        assert _pack_digests(open_pack).isdisjoint(_pack_digests(closed_pack))
    before = _files(workdir)
    assert cli.main(common + ["--evidence", "gold", "--offline"]) == 0
    assert _files(workdir) == before


class TestHTTPBackendRun:
    """One fixture server is both the search endpoint and the LM backend."""

    @staticmethod
    def _run(workdir, qa_dataset_path, banks_dir, server, backend, *extra):
        return cli.main(["run", *extra, "--dataset", str(qa_dataset_path),
                         "--workdir", str(workdir),
                         "--search-endpoint", server.base_url,
                         "--backend", backend,
                         "--banks-dir", str(banks_dir),
                         "--top-urls", "3",
                         "--paragraphs", "2",
                         "--samples-per-paragraph", "2",
                         "--closed-book-samples", "4",
                         "--max-new-tokens", "16",
                         "--cost-points", "0,1"])

    @staticmethod
    def _artifacts(workdir):
        return {p.relative_to(workdir).as_posix(): p.read_bytes()
                for p in sorted(workdir.rglob("*"))
                if p.is_file() and p.relative_to(workdir).parts[0] != "cache"}

    def test_matches_mock_byte_for_byte(self, tmp_path, qa_dataset_path, banks_dir, web_root):
        with FixtureServer(web_root) as server:
            assert self._run(tmp_path / "mock", qa_dataset_path, banks_dir, server, "mock") == 0
            assert self._run(tmp_path / "http", qa_dataset_path, banks_dir, server,
                             server.base_url) == 0
            written = _files(tmp_path / "http")
            assert self._run(tmp_path / "http", qa_dataset_path, banks_dir, server,
                             server.base_url, "--offline") == 0
            assert _files(tmp_path / "http") == written
        mock = self._artifacts(tmp_path / "mock")
        assert "predictions/search_poe.json" in mock
        assert self._artifacts(tmp_path / "http") == mock
        for workdir in (tmp_path / "mock", tmp_path / "http"):
            cache_files = [p for p in (workdir / "cache").rglob("*") if p.is_file()]
            assert cache_files and all(p.name.endswith(PACK_SUFFIX) for p in cache_files)

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_one_connection_per_question_pass(self, tmp_path, qa_dataset_path, banks_dir, web_root,
                                              monkeypatch, workers):
        """Each question's search, page fetches and LM requests to the one
        server share a connection; ``describe`` at setup opens one more."""
        accepted = []
        accept = fixtures._Server.get_request

        def counting_accept(server):
            accepted.append(None)
            return accept(server)

        monkeypatch.setattr(fixtures._Server, "get_request", counting_accept)
        with FixtureServer(web_root) as server:
            assert self._run(tmp_path / "w", qa_dataset_path, banks_dir, server, server.base_url,
                             "--max-workers", workers) == 0
        assert len(accepted) == len(load_dataset(qa_dataset_path)) + 1

    def test_server_never_answering_one_question_is_tolerated(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, no_backoff):
        record = load_dataset(qa_dataset_path)[0]
        answer = fixtures._FixtureHandler.do_POST

        def silent_for_one_question(handler):
            body = handler.rfile.read(int(handler.headers["Content-Length"]))
            if record.question in body.decode("utf-8"):
                handler.close_connection = True  # close the connection without a response
                return
            rfile, handler.rfile = handler.rfile, io.BytesIO(body)
            answer(handler)
            handler.rfile = rfile  # where the connection's next request arrives

        monkeypatch.setattr(fixtures._FixtureHandler, "do_POST", silent_for_one_question)
        with FixtureServer(web_root) as server:
            assert self._run(tmp_path / "w", qa_dataset_path, banks_dir, server,
                             server.base_url) == 0
        failures = json.loads((tmp_path / "w" / "failures.json").read_text(encoding="utf-8"))
        assert list(failures) == [record.id]
        assert failures[record.id].startswith("answer: POST ")
        assert "failed after 3 attempts" in failures[record.id]

    def test_non_finite_score_fails_one_question_and_is_never_stored(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch):
        record = load_dataset(qa_dataset_path)[0]
        answer = fixtures._FixtureHandler.do_POST

        def infinite_for_one_question(handler):
            body = handler.rfile.read(int(handler.headers["Content-Length"]))
            if handler.path == "/v1/score" and record.question in body.decode("utf-8"):
                handler._send(200, "application/json", b'{"logprob": -Infinity}')
                return
            rfile, handler.rfile = handler.rfile, io.BytesIO(body)
            answer(handler)
            handler.rfile = rfile  # where the connection's next request arrives

        monkeypatch.setattr(fixtures._FixtureHandler, "do_POST", infinite_for_one_question)
        workdir = tmp_path / "w"
        with FixtureServer(web_root) as server:
            assert self._run(workdir, qa_dataset_path, banks_dir, server, server.base_url) == 0
        failures = json.loads((workdir / "failures.json").read_text(encoding="utf-8"))
        assert failures == {
            record.id: "answer: /v1/score returned logprob -inf, not a finite number"}
        for path in workdir.rglob("*"):
            if path.is_file():
                data = gunzip_bytes(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
                assert b"Infinity" not in data, path


    @staticmethod
    def _gold_flags(dataset_path, workdir, banks_dir, backend, *extra):
        return ["run", "--dataset", str(dataset_path), "--workdir", str(workdir),
                "--evidence", "gold", "--backend", backend,
                "--banks-dir", str(banks_dir), "--paragraphs", "2",
                "--samples-per-paragraph", "2", "--closed-book-samples", "4",
                "--max-new-tokens", "16", "--cost-points", "0,1", *extra]

    @pytest.mark.parametrize("route, body, message", [
        ("/v1/score", b'{"logprob": -1.5, "continuation_tokens": 1}', "returned no 'prompt_tokens'"),
        ("/v1/complete", b'{}', "returned no 'samples'"),
    ])
    def test_malformed_response_fails_one_question_and_is_never_stored(
            self, tmp_path, qa_dataset_path, banks_dir, serve, route, body, message):
        """A server answering ``body`` to one question's first request on
        ``route`` fails that question alone; once the server is mended, the
        request is asked again, so nothing of the bad answer was stored."""
        record = load_dataset(qa_dataset_path)[0]
        mock = MockBackend()
        state = {"mended": False, "broken": [], "posts": []}

        def respond(handler):
            if handler.command == "GET":
                handler.reply(200, json.dumps(mock.describe().to_json()).encode("utf-8"),
                              "application/json")
                return
            raw = handler.rfile.read(int(handler.headers["Content-Length"]))
            state["posts"].append(raw)
            request = json.loads(raw)
            # a score request carries the question as its continuation, not in its prompt
            text = request.get("prompt", "") + request.get("continuation", "")
            if not state["mended"] and handler.path == route and record.question in text:
                state["broken"].append(raw)
                handler.reply(200, body, "application/json")
                return
            answer = fixtures._LM_POSTS[handler.path](mock, request)
            handler.reply(200, json.dumps(answer).encode("utf-8"), "application/json")

        workdir = tmp_path / "w"
        flags = self._gold_flags(qa_dataset_path, workdir, banks_dir, serve(respond))
        assert cli.main(flags) == 0
        failures = json.loads((workdir / "failures.json").read_text(encoding="utf-8"))
        assert failures == {record.id: f"answer: {route} {message}"}
        [broken] = state["broken"]

        state["mended"] = True
        state["posts"].clear()
        assert cli.main(flags) == 0
        assert json.loads((workdir / "failures.json").read_text(encoding="utf-8")) == {}
        assert broken in state["posts"]

    @staticmethod
    def _small_context_server(serve, described: MockBackend, posts: list) -> str:
        """A server whose LM routes answer as a mock with a 60-token context
        (413 past it), describing itself as ``described``; ``posts`` gets
        each LM request's (path, status)."""
        small = MockBackend(context_tokens=60)

        def respond(handler):
            if handler.command == "GET":
                handler.reply(200, json.dumps(described.describe().to_json()).encode("utf-8"),
                              "application/json")
                return
            request = json.loads(handler.rfile.read(int(handler.headers["Content-Length"])))
            try:
                answer = fixtures._LM_POSTS[handler.path](small, request)
            except PromptTooLong:
                posts.append((handler.path, 413))
                handler.reply(413, b"prompt too long")
                return
            posts.append((handler.path, 200))
            handler.reply(200, json.dumps(answer).encode("utf-8"), "application/json")

        return serve(respond)

    @pytest.mark.parametrize("dataset", ["fixtureqa.jsonl", "fixturecls.jsonl"])
    def test_server_refusing_long_prompts_writes_the_mock_artifacts(
            self, tmp_path, fixtures_dir, banks_dir, serve, dataset):
        """A server with a 60-token context answers 413 to each request that
        overflows it; the run fits those prompts, sends them again, and writes
        what ``--backend mock`` writes at ``--context-tokens 60``.  The
        refusals are cached, so an ``--offline`` re-run fits the same prompts
        from the cache alone and leaves the workdir as it was."""
        posts = []
        url = self._small_context_server(serve, MockBackend(context_tokens=60), posts)
        small_context = ("--context-tokens", "60", "--max-new-tokens", "8")
        dataset_path = fixtures_dir / dataset
        assert cli.main(self._gold_flags(dataset_path, tmp_path / "mock", banks_dir, "mock",
                                         *small_context)) == 0
        assert cli.main(self._gold_flags(dataset_path, tmp_path / "http", banks_dir, url,
                                         *small_context)) == 0
        assert ("/v1/count_tokens", 200) in posts
        refused = {path for path, status in posts if status == 413}
        assert refused == ({"/v1/score"} if dataset == "fixturecls.jsonl"
                           else {"/v1/complete", "/v1/score"})
        mock = self._artifacts(tmp_path / "mock")
        assert "predictions/gold_poe.json" in mock
        assert self._artifacts(tmp_path / "http") == mock

        written, sent = _files(tmp_path / "http"), len(posts)
        assert cli.main(self._gold_flags(dataset_path, tmp_path / "http", banks_dir, url,
                                         *small_context, "--offline")) == 0
        assert len(posts) == sent
        assert _files(tmp_path / "http") == written

    def test_prompt_still_refused_after_fitting_fails_its_question(
            self, tmp_path, qa_dataset_path, banks_dir, serve, capsys):
        """A server that claims a 2048-token context but refuses past 60
        tokens: fitting to 2048 changes nothing, the second 413 fails every
        question, and ``answer`` exits 2 naming the refusal."""
        posts = []
        url = self._small_context_server(serve, MockBackend(), posts)
        workdir = tmp_path / "w"
        _, *flags = self._gold_flags(qa_dataset_path, workdir, banks_dir, url)
        assert cli.main(["retrieve", *flags]) == 0
        assert cli.main(["answer", *flags]) == 2
        failures = json.loads((workdir / "failures.json").read_text(encoding="utf-8"))
        assert set(failures) == {r.id for r in load_dataset(qa_dataset_path)}
        assert all(reason.startswith("answer: /v1/complete refused the prompt")
                   for reason in failures.values())
        assert {status for path, status in posts if path != "/v1/count_tokens"} == {413}
        assert "10/10 questions failed" in capsys.readouterr().err


def _fresh_python(code: str):
    """Run ``code`` in a fresh interpreter with this ``webqa`` on its path,
    after ``import json, sys``; returns its last line of output as JSON."""
    src = str(pathlib.Path(webqa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_imports_only_the_standard_library():
    """``import webqa.cli`` loads no third-party module.  Modules already
    loaded at start-up (site hooks may preload some) do not count."""
    added = {name.split(".")[0] for name in _fresh_python(
        "before = set(sys.modules); import webqa.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))")}
    assert "webqa" in added
    assert added - set(sys.stdlib_module_names) - {"webqa"} == set()


_HTTP_STACK = ("socket", "ssl", "http.client", "urllib.request", "email.parser")


def test_offline_run_never_loads_the_http_stack(tmp_path, qa_dataset_path, banks_dir, web_root):
    """An ``--offline`` replay of a search-evidence run builds no search
    client, sends nothing, and so never imports the modules that could."""
    flags = ["run", "--dataset", str(qa_dataset_path), "--workdir", str(tmp_path / "w"),
             "--banks-dir", str(banks_dir), "--top-urls", "3", "--paragraphs", "2",
             "--samples-per-paragraph", "2", "--closed-book-samples", "4",
             "--max-new-tokens", "16", "--cost-points", "0,1"]
    with FixtureServer(web_root) as server:
        flags += ["--search-endpoint", server.base_url]
        assert cli.main(flags) == 0
    got = _fresh_python(f"from webqa import cli\nrc = cli.main({flags + ['--offline']!r})\n"
                        f"print(json.dumps([rc, [m for m in {_HTTP_STACK!r} if m in sys.modules]]))")
    assert got == [0, []]


@pytest.mark.parametrize("workers", [1, 2])
def test_thread_pool_module_loads_only_for_more_than_one_worker(tmp_path, qa_dataset_path, banks_dir,
                                                                workers):
    """A one-worker run starts no pool, so it never imports the thread pool
    module; with more workers it is imported while the pipeline is built."""
    flags = ["run", "--dataset", str(qa_dataset_path), "--dataset-id", "fixtureqa",
             "--workdir", str(tmp_path / "w"), "--evidence", "gold", "--banks-dir", str(banks_dir),
             "--max-workers", str(workers)]
    got = _fresh_python("from webqa import cli\n"
                        f"config = cli.effective_config(cli.build_parser().parse_args({flags!r}))\n"
                        "pipeline = cli.make_pipeline(config)\n"
                        "built = 'concurrent.futures' in sys.modules\n"
                        "pipeline.run()\n"
                        "print(json.dumps([built, 'concurrent.futures' in sys.modules]))")
    assert got == [workers > 1] * 2


def test_online_search_client_loads_the_http_stack_in_setup(tmp_path, qa_dataset_path):
    """A run that can search imports the HTTP stack while its pipeline is
    built, so the import counts as setup, not as its first search."""
    flags = ["run", "--dataset", str(qa_dataset_path), "--workdir", str(tmp_path / "w"),
             "--search-endpoint", "http://127.0.0.1:8123"]
    got = _fresh_python("from webqa import cli\n"
                        f"config = cli.effective_config(cli.build_parser().parse_args({flags!r}))\n"
                        "before = 'http.client' in sys.modules\n"
                        "cli.make_pipeline(config)\n"
                        "print(json.dumps([before, 'http.client' in sys.modules]))")
    assert got == [False, True]
