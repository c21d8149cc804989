"""Whole fixture workdirs, cache/ included, match the digests pinned in
tests/golden/workdir_digests.json, whether one ``run`` or the staged
commands wrote them, and an ``--offline`` re-run of each changes no byte and
replaces no file: every file keeps its ``st_ino`` and ``st_mtime_ns``.  The
staged ``rerank``, ``eval`` and ``cost`` of each scorer variant write the
artifacts pinned in tests/golden/scorer_digests.json (see ``workdir_matrix``
for the configs and variants)."""
import json
import os

import pytest
import workdir_matrix

DIGESTS = json.loads(workdir_matrix.DIGESTS_PATH.read_text(encoding="utf-8"))
SCORER_DIGESTS = json.loads(workdir_matrix.SCORER_DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def matrix_servers():
    with workdir_matrix.servers():
        yield


def test_pinned_table_covers_the_matrix_and_not_the_worker_count():
    assert sorted(DIGESTS) == sorted(workdir_matrix.CONFIGS)
    for name in DIGESTS:
        assert DIGESTS[name] == DIGESTS[name[:-len("w1")] + "w1"], name


@pytest.mark.parametrize("name", sorted(workdir_matrix.CONFIGS))
def test_workdir_matches_its_pinned_digest(matrix_servers, tmp_path, name):
    assert workdir_matrix.run_config(name, tmp_path / "w") == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(workdir_matrix.CONFIGS))
def test_staged_commands_write_the_pinned_workdir(matrix_servers, tmp_path, name):
    """``retrieve``, ``answer``, ``tune-weights``, ``rerank``, ``eval`` and
    ``cost``, each its own invocation, leave the workdir, ``cache/``
    included, that one ``run`` of the config leaves."""
    workdir = tmp_path / "w"
    for command in ("retrieve", "answer", "tune-weights", "rerank", "eval", "cost"):
        assert workdir_matrix.cli.main(workdir_matrix.flags(name, workdir, command)) == 0, command
    assert workdir_matrix.workdir_digest(workdir) == DIGESTS[name]


@pytest.mark.parametrize("dataset", workdir_matrix.DATASETS)
def test_staged_scorers_write_the_pinned_artifacts(tmp_path, dataset):
    """``--scorer answer_prob``, ``rag`` and ``noisy_channel`` and fixed
    ``--weights``, each on its own copy of the gold mock workdir."""
    pinned = {f"{dataset}-{variant}": SCORER_DIGESTS[f"{dataset}-{variant}"]
              for variant in workdir_matrix.SCORER_VARIANTS}
    assert workdir_matrix.scorer_digests(dataset, tmp_path) == pinned


def test_scorer_table_covers_every_dataset_and_variant():
    assert sorted(SCORER_DIGESTS) == sorted(f"{dataset}-{variant}" for dataset in workdir_matrix.DATASETS
                                            for variant in workdir_matrix.SCORER_VARIANTS)
    assert len(set(SCORER_DIGESTS.values())) == len(SCORER_DIGESTS)


def test_a_file_the_offline_rerun_replaces_with_equal_bytes_fails(matrix_servers, tmp_path,
                                                                   monkeypatch):
    main = workdir_matrix.cli.main

    def rewriting_main(args):
        code = main(args)
        if "--offline" in args:
            [weights] = (tmp_path / "w").glob("weights.json")
            copy = weights.with_name("copy")
            copy.write_bytes(weights.read_bytes())
            os.replace(copy, weights)
        return code

    monkeypatch.setattr(workdir_matrix.cli, "main", rewriting_main)
    with pytest.raises(AssertionError, match="replaced a file"):
        workdir_matrix.run_config("fixtureqa-gold-mock-w1", tmp_path / "w")
