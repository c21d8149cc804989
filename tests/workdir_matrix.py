"""The byte-identity matrix: fixture runs whose whole workdirs are pinned.

Each config is one ``webqa run`` over a fixture dataset, followed by an
``--offline`` re-run that must exit 0, change no byte and replace no file
(every file keeps its inode number and modification time).  A workdir is
pinned as one SHA-256 over every file's path and bytes, ``cache/``
included, with packs decompressed so that the digest does not depend on
the zlib build.  The axes:

- dataset: ``fixtureqa`` and ``fixturecls``;
- evidence: ``gold``, ``search`` and ``closed``;
- backend: ``mock`` in process, ``http`` (a :class:`FixtureServer`), and on
  ``fixtureqa`` only ``http413``, a server whose mock has a 60-token context
  and answers 413 to each prompt that overflows it;
- ``--max-workers`` 1 and 4.

A second table pins the scorers that a ``run`` does not reach: on a copy of
each dataset's gold mock workdir (one worker), the staged ``rerank``,
``eval`` and ``cost`` under each of :data:`SCORER_VARIANTS`, pinned as one
SHA-256 over ``predictions/``, ``reports/`` and ``cost/``.

The HTTP backend's cache identity, each fetched URL and the search results
hold the server's base URL, so the port changes digests, pack names and
pack lines alike.  The servers therefore listen on fixed loopback ports.
"""
from __future__ import annotations

import hashlib
import pathlib
import shutil
from contextlib import contextmanager

from webqa import cli
from webqa.cache import PACK_SUFFIX, gunzip_bytes
from webqa.fixtures import FixtureServer
from webqa.lmbackend import MockBackend

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
DIGESTS_PATH = pathlib.Path(__file__).resolve().parent / "golden" / "workdir_digests.json"
SCORER_DIGESTS_PATH = DIGESTS_PATH.with_name("scorer_digests.json")

HOST = "127.0.0.1"
PORT = 47931  # the fixture web, search and LM
SMALL_PORT = 47932  # the same, with a 60-token LM context
BASE_URL = f"http://{HOST}:{PORT}"
SMALL_URL = f"http://{HOST}:{SMALL_PORT}"
SMALL_CONTEXT = 60

DATASETS = ("fixtureqa", "fixturecls")
BACKENDS = {"mock": "mock", "http": BASE_URL, "http413": SMALL_URL}
CONFIGS = {
    f"{dataset}-{evidence}-{backend}-w{workers}": (dataset, evidence, backend, workers)
    for dataset in DATASETS
    for evidence in ("gold", "search", "closed")
    for backend in BACKENDS
    if backend != "http413" or dataset == "fixtureqa"
    for workers in ("1", "4")
}


# the flags a scorer pin's staged commands add to its gold mock config's
SCORER_VARIANTS = {
    "answer_prob": ["--scorer", "answer_prob"],
    "rag": ["--scorer", "rag"],
    "noisy_channel": ["--scorer", "noisy_channel"],
    "weights": ["--weights", "1,0.5,0,2,1"],
}
SCORER_ARTIFACTS = ("predictions", "reports", "cost")


@contextmanager
def servers():
    """Serve the fixture web on :data:`PORT` and :data:`SMALL_PORT`; the
    second's LM routes answer as a mock with a 60-token context."""
    small = FixtureServer(FIXTURES / "web", port=SMALL_PORT)
    small._server.RequestHandlerClass.backend = MockBackend(context_tokens=SMALL_CONTEXT)
    with FixtureServer(FIXTURES / "web", port=PORT), small:
        yield


def flags(name: str, workdir: pathlib.Path, command: str = "run") -> list[str]:
    dataset, evidence, backend, workers = CONFIGS[name]
    return [command, "--dataset", str(FIXTURES / f"{dataset}.jsonl"), "--workdir", str(workdir),
            "--evidence", evidence, "--backend", BACKENDS[backend],
            "--search-endpoint", BASE_URL, "--banks-dir", str(FIXTURES / "banks"),
            "--max-workers", workers, "--top-urls", "3", "--paragraphs", "3",
            "--samples-per-paragraph", "2", "--closed-book-samples", "4",
            "--max-new-tokens", "8" if backend == "http413" else "16"]


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _inodes(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    """Each file's inode number and modification time: a file replaced or
    written again, even with the same bytes, changes at least one."""
    return {p.relative_to(root).as_posix(): (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


def workdir_digest(root: pathlib.Path, only: tuple[str, ...] | None = None) -> str:
    """SHA-256 over each file's relative path, length and bytes, in path
    order, with every cache pack decompressed; with ``only``, over the files
    under those top-level directories."""
    digest = hashlib.sha256()
    for name, data in sorted(_files(root).items()):
        if only is not None and name.split("/", 1)[0] not in only:
            continue
        if name.endswith(PACK_SUFFIX):
            data = gunzip_bytes(data)
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def run_config(name: str, workdir: pathlib.Path) -> str:
    """Run config ``name`` into ``workdir`` and re-run it ``--offline``
    (inside :func:`servers`), which must replace no file; the workdir's digest."""
    args = flags(name, workdir)
    code = cli.main(args)
    if code != 0:
        raise AssertionError(f"{name}: run exited {code}")
    written, inodes = _files(workdir), _inodes(workdir)
    code = cli.main(args + ["--offline"])
    if code != 0:
        raise AssertionError(f"{name}: --offline re-run exited {code}")
    if _files(workdir) != written:
        raise AssertionError(f"{name}: --offline re-run changed the workdir")
    if _inodes(workdir) != inodes:
        raise AssertionError(f"{name}: --offline re-run replaced a file")
    return workdir_digest(workdir)


def scorer_digests(dataset: str, scratch: pathlib.Path) -> dict[str, str]:
    """``{"<dataset>-<variant>": digest}``: the gold mock run of ``dataset``
    (one worker) into ``scratch``, then for each of :data:`SCORER_VARIANTS`,
    on a fresh copy of that workdir, the staged ``rerank``, ``eval`` and
    ``cost`` with its flags, each of which must exit 0."""
    base = scratch / "gold"
    if cli.main(flags(f"{dataset}-gold-mock-w1", base)) != 0:
        raise AssertionError(f"{dataset}: gold run failed")
    digests = {}
    for variant, extra in SCORER_VARIANTS.items():
        workdir = scratch / variant
        shutil.copytree(base, workdir)
        for command in ("rerank", "eval", "cost"):
            if cli.main(flags(f"{dataset}-gold-mock-w1", workdir, command) + extra) != 0:
                raise AssertionError(f"{dataset}-{variant}: {command} failed")
        digests[f"{dataset}-{variant}"] = workdir_digest(workdir, SCORER_ARTIFACTS)
    return digests
