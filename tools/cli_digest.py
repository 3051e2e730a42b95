"""One digest of the CLI's bytes on the benchmark corpora.

Runs, in process through ``voltage_tower.cli.main``, every job of the
three benchmark workloads at seeds 1 and 97:

- ``climb``: each job's ``verify --json`` call, then the same call without
  ``--json`` (the table);
- ``charpoly``: each ``invariants`` call;
- ``derive-io``: each ``derive -o`` call, then the same call without
  ``-o`` (the document on stdout), then its ``export-dot``.

It prints the number of CLI runs and one SHA-256 over every run's exit
code, stdout, stderr and output files, in order.  Two trees that print the
same line gave the same bytes on every run.  Stdlib only::

    python3 tools/cli_digest.py [TREE]

TREE (default: the checkout holding this script) supplies both the library,
from its ``src/``, and the corpora, from its ``perfbench/corpus.py``, which
is imported and not changed.  Run it once per tree, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 97)
WORKLOADS = ("climb", "charpoly", "derive-io")


def _feed(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def _runs(job, workload):
    """The argvs to run for ``job``: the benchmark's own, for a climb job
    also its table, and for a derive-io job also its ``derive`` to stdout."""
    if workload == "climb":
        (argv,) = job.argvs
        return [argv, tuple(a for a in argv if a != "--json")]
    if workload == "derive-io":
        derive, export_dot = job.argvs
        o = derive.index("-o")
        return [derive, derive[:o] + derive[o + 2 :], export_dot]
    return list(job.argvs)


def _run(cli, argv, outputs, h) -> None:
    """One in-process CLI call, fed to ``h`` with the outputs it left."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    _feed(h, str(code).encode())
    _feed(h, out.getvalue().encode())
    _feed(h, err.getvalue().encode())
    for path in outputs:
        _feed(h, path.read_bytes() if path.exists() else b"")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", nargs="?", default=Path(__file__).resolve().parent.parent
    )
    tree = Path(parser.parse_args(argv).tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import corpus
    from voltage_tower import cli

    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for job in corpus.build(workload, seed, Path(work) / workload):
                    for path in job.outputs:
                        path.unlink(missing_ok=True)
                    for run in _runs(job, workload):
                        _run(cli, run, job.outputs, h)
                        count += 1
    print(f"{count} runs {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
