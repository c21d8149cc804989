"""Whole fixture workdirs, cache/ included, match the digests pinned in
tests/golden/workdir_digests.json, and an ``--offline`` re-run of each
changes nothing (see ``workdir_matrix`` for the configs)."""
import json

import pytest
import workdir_matrix

DIGESTS = json.loads(workdir_matrix.DIGESTS_PATH.read_text(encoding="utf-8"))


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
