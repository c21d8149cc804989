import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import webqa
from webqa import cli, fixtures
from webqa.corpus import load_dataset
from webqa.fixtures import FixtureServer
from webqa.lmbackend import CachedBackend, HTTPBackend, MockBackend
from webqa.pipeline import ConfigError
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

    def test_param_count_reaches_mock(self, tmp_path):
        config = cli.effective_config(
            _args("run", "--dataset", "d", "--workdir", str(tmp_path),
                  "--param-count", "7000000000"))
        backend = cli.make_backend(config)
        assert backend.describe().param_count == 7_000_000_000


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

    def test_offline_allows_unconfigured_google(self, monkeypatch):
        monkeypatch.delenv(cli.GOOGLE_API_KEY_VAR, raising=False)
        monkeypatch.delenv(cli.GOOGLE_CSE_ID_VAR, raising=False)
        config = cli.effective_config(_args(*BASE, "--offline"))
        client = cli.make_search_client(config)
        assert client is not None  # placeholder that fails only on cache miss


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
            min((workdir / "cache" / "fetch").glob("*.json")).unlink()
            capsys.readouterr()
            rc = cli.main(common + ["--offline"])
        assert rc == 3
        assert "offline cache miss" in capsys.readouterr().err

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
        """retrieve / answer / rerank / eval run as separate invocations
        against one workdir, matching what `run` produces."""
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


class TestFailureTolerance:
    """Up to 10% of the questions may fail with an expected per-question
    error; more exits 2, and any other exception is a bug that propagates."""

    @staticmethod
    def _run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
             n_failing, error):
        failing = {r.question for r in load_dataset(qa_dataset_path)[:n_failing]}
        with FixtureServer(web_root) as server:
            class FailingSearch(FixtureSearchClient):
                def search(self, query, num):
                    if query in failing:
                        raise error
                    return super().search(query, num)

            monkeypatch.setattr(cli, "make_search_client",
                                lambda config: FailingSearch(server.base_url))
            return cli.main(["run", "--dataset", str(qa_dataset_path),
                             "--workdir", str(tmp_path / "w"),
                             "--search-endpoint", server.base_url,
                             "--banks-dir", str(banks_dir),
                             "--top-urls", "3",
                             "--paragraphs", "2",
                             "--samples-per-paragraph", "2",
                             "--closed-book-samples", "4",
                             "--max-new-tokens", "16",
                             "--cost-points", "0,1"])

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

    def test_worker_type_error_is_raised(self, tmp_path, qa_dataset_path, banks_dir,
                                         web_root, monkeypatch):
        with pytest.raises(TypeError, match="a bug"):
            self._run(tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch,
                      1, TypeError("a bug"))


class TestHTTPBackendRun:
    """One fixture server is both the search endpoint and the LM backend."""

    @staticmethod
    def _run(workdir, qa_dataset_path, banks_dir, server, backend):
        return cli.main(["run", "--dataset", str(qa_dataset_path),
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
        mock = self._artifacts(tmp_path / "mock")
        assert "predictions/search_poe.json" in mock
        assert self._artifacts(tmp_path / "http") == mock

    def test_server_never_answering_one_question_is_tolerated(
            self, tmp_path, qa_dataset_path, banks_dir, web_root, monkeypatch, no_backoff):
        record = load_dataset(qa_dataset_path)[0]
        answer = fixtures._FixtureHandler.do_POST

        def silent_for_one_question(handler):
            body = handler.rfile.read(int(handler.headers["Content-Length"]))
            if record.question in body.decode("utf-8"):
                return  # close the connection without a response
            handler.rfile = io.BytesIO(body)
            answer(handler)

        monkeypatch.setattr(fixtures._FixtureHandler, "do_POST", silent_for_one_question)
        with FixtureServer(web_root) as server:
            assert self._run(tmp_path / "w", qa_dataset_path, banks_dir, server,
                             server.base_url) == 0
        failures = json.loads((tmp_path / "w" / "failures.json").read_text(encoding="utf-8"))
        assert list(failures) == [record.id]
        assert failures[record.id].startswith("answer: POST ")
        assert "failed after 3 attempts" in failures[record.id]


def test_cli_imports_only_the_standard_library():
    """``import webqa.cli`` loads no third-party module.  Modules already
    loaded at start-up (site hooks may preload some) do not count."""
    code = ("import json, sys; before = set(sys.modules); import webqa.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(pathlib.Path(webqa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = {name.split(".")[0] for name in json.loads(out)}
    assert "webqa" in added
    assert added - set(sys.stdlib_module_names) - {"webqa"} == set()
