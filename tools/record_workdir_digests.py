"""Regenerate tests/golden/workdir_digests.json and scorer_digests.json, the
byte-identity matrix's pins.

Runs every config of tests/workdir_matrix.py in a temporary directory, each
followed by its --offline re-run, and writes one SHA-256 per workdir; then
the staged rerank, eval and cost of each scorer variant on each dataset's
gold mock workdir, and writes one SHA-256 per variant.  The tables pin what
a run writes, cache/ included, so re-run this only when a change means to
alter those bytes, and name that change in CHANGES.md.

Usage: python tools/record_workdir_digests.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workdir_matrix  # noqa: E402


def main() -> None:
    digests, scorers = {}, {}
    # each run prints its report; only the tables are this tool's output
    with (tempfile.TemporaryDirectory() as scratch, workdir_matrix.servers(),
          contextlib.redirect_stdout(io.StringIO())):
        for name in sorted(workdir_matrix.CONFIGS):
            digests[name] = workdir_matrix.run_config(name, pathlib.Path(scratch) / name)
        for dataset in workdir_matrix.DATASETS:
            scorers.update(workdir_matrix.scorer_digests(dataset, pathlib.Path(scratch) / f"scorers-{dataset}"))
    for path, table in ((workdir_matrix.DIGESTS_PATH, digests), (workdir_matrix.SCORER_DIGESTS_PATH, scorers)):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(table)} configs)")


if __name__ == "__main__":
    main()
