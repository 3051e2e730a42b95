#!/usr/bin/env python3
"""Compare benchmark records of a base commit and a change.

    python3 perfbench/compare.py --base a1.json a2.json ... --change b1.json ...

Each file is a record that run.py wrote to ``.perfbench_run/results/``, or
a saved stdout of run.py (the record is the line before the last).  All
records must come from the same workload, trace mode, kernel backend and
corpus digest; otherwise the comparison is refused with exit code 2,
because a different kernel build or corpus moves the numbers by itself.
Prints, per metric, each side's median and quartiles and the ratio of the
medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        lines = text.strip().splitlines()
        if len(lines) < 2:
            raise
        return json.loads(lines[-2])


def identity(record: dict) -> tuple:
    prov = record["provenance"]
    return (
        record["workload"],
        record["trace"],
        prov["kernel_backend"],
        prov["corpus_digest"],
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    ids = {identity(r) for r in base + change}
    if len(ids) != 1:
        print(
            "error: refusing to compare records of different "
            "(workload, trace, kernel_backend, corpus_digest):",
            file=sys.stderr,
        )
        for i in sorted(ids, key=str):
            print(f"  {i}", file=sys.stderr)
        return 2
    print(f"{'metric':>42} {'base q1/med/q3':>32} {'change q1/med/q3':>32} ratio")
    for name, meta in base[0]["metrics"].items():
        b = quartiles([r["metrics"][name]["value"] for r in base])
        c = quartiles([r["metrics"][name]["value"] for r in change])
        ratio = c[1] / b[1] if b[1] else float("nan")
        print(
            f"{name:>42} {b[0]:>10.4g} {b[1]:>10.4g} {b[2]:>10.4g} "
            f"{c[0]:>10.4g} {c[1]:>10.4g} {c[2]:>10.4g} {ratio:.3f} {meta['unit']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
