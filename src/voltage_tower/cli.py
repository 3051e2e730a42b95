"""Command-line interface.

Subcommands: gen, derive, invariants, verify, export-dot, oracle.  The
parser is built once per process and shared; each call looks up its
handler, ``cmd_<subcommand>``, by name.  Data goes to stdout or the -o
path; diagnostics go to stderr.  Exit codes:
0 success; 1 internal error (an identity the theory guarantees failed:
a bug); 2 invalid parameters or malformed input (InvalidPrimeError,
InvalidSpecError, DocumentError, EmptyGraphError, NotConnectedError, and
any ValueError or OSError); 3 non-unit parameter (NotAUnitError);
4 no tower exists (NoTowerError); 5 growth-law mismatch; 6 size cap
exceeded (TooLargeError: the oracle's edge cap, the derived-vertex cap on
a tower level, on an input graph's vertex count or on a gen family, the
derived-edge cap of derive or of a gen family, the vertex cap of the
characteristic polynomial behind invariants and verify, or a p above
2^32).  A library error's code is the ``exit_code`` of its class.

``main`` runs the handler with the cyclic garbage collector paused and
puts back the state it found.  A command's success path makes no
reference cycle in proportion to its input: gen, derive, export-dot and
oracle make none, and a JSON report leaves only the encoder's fixed few
and one per ``decimal_str`` call past its leaf size, freed by the next
collection after the command.  So a collection during a command only
scans: on a derived level of 10k-20k vertices, one every ~700 edge tuples.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Optional, Sequence

from . import documents
from .errors import NotAUnitError, VoltageTowerError
from .generators import (
    CraterSpec,
    VolcanoSpec,
    bouquet,
    directed_cycle,
    doubled,
    volcano,
)
from .iwasawa import invariants, verify_growth
from .linalg import brute_force_spanning_trees
from .tower import ConstantVoltage, derive

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_GROWTH_MISMATCH = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "cycle":
        g = directed_cycle(args.length)
    elif args.family == "bouquet":
        g = bouquet(args.loops)
    else:
        spec = VolcanoSpec(args.l, args.depth, CraterSpec.from_token(args.crater))
        g = volcano(spec)
        if args.family == "doubled-volcano":
            g = doubled(g)
    _emit(documents.graph_to_json(g), args.output)
    return EXIT_OK


def cmd_derive(args: argparse.Namespace) -> int:
    g = documents.read_graph(args.input)
    voltage = ConstantVoltage(args.p, args.param)
    if not voltage.is_unit and not args.allow_non_unit:
        raise NotAUnitError(
            f"parameter {args.param} is divisible by {args.p}; "
            "pass --allow-non-unit to derive anyway"
        )
    d = derive(g, voltage, args.level)
    _emit(documents.graph_to_json(d.graph), args.output)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    g = documents.read_graph(args.input)
    doc = documents.invariants_to_document(invariants(g, args.p))
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def _report_table(report) -> str:
    inv = report.invariants
    lines = [
        f"p={inv.p} n0={inv.n0} mu={inv.mu} lambda={inv.lam} "
        f"nu={report.fitted_nu}",
        f"{'n':>3} {'components':>10} {'kappa':>24} {'ord_p':>6} {'predicted':>9}",
    ]
    for lvl in report.levels:
        kappa = documents.decimal_str(lvl.kappa_per_component)
        lines.append(
            f"{lvl.n:>3} {lvl.component_count:>10} "
            f"{kappa:>24} {lvl.ord_p:>6} {lvl.predicted_ord_p:>9}"
        )
    if report.exact_from_level is not None:
        lines.append(f"growth law exact from level {report.exact_from_level}")
    else:
        lines.append("growth law did not match at the top level")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    g = documents.read_graph(args.input)
    report = verify_growth(g, args.p, args.n_max)
    if args.json:
        doc = documents.tower_report_to_document(report)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _report_table(report)
    _emit(text, args.output)
    if report.exact_from_level is None:
        top = report.levels[-1]
        return _fail(
            EXIT_GROWTH_MISMATCH,
            f"observed ord_p {top.ord_p} at level {top.n} does not match "
            f"the fitted prediction {top.predicted_ord_p}",
        )
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = documents.read_graph(args.input)
    _emit(documents.graph_to_dot(g), args.output)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = documents.read_graph(args.input)
    count = brute_force_spanning_trees(g)
    _emit(f"{count}\n", args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every later call.  It binds no
    handler: ``main`` finds one by ``args.command`` at call time."""
    parser = argparse.ArgumentParser(
        prog="voltage-tower",
        description=(
            "Constant Z_p-towers of graph coverings: derived graphs, "
            "Iwasawa invariants and spanning-tree growth verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a standard graph family")
    p_gen.add_argument(
        "family", choices=["cycle", "bouquet", "volcano", "doubled-volcano"]
    )
    p_gen.add_argument("--length", type=int, default=3, help="cycle length")
    p_gen.add_argument("--loops", type=int, default=1, help="bouquet loops")
    p_gen.add_argument("--l", type=int, default=2, help="volcano branching")
    p_gen.add_argument("--depth", type=int, default=0, help="volcano depth")
    p_gen.add_argument(
        "--crater",
        default="cycle:3",
        help="volcano crater: cycle:K, one-loop, two-loops or bare",
    )
    p_gen.add_argument("-o", "--output", help="output path (default stdout)")

    p_derive = sub.add_parser("derive", help="derived graph modulo p^level")
    p_derive.add_argument("-i", "--input", required=True)
    p_derive.add_argument("--p", type=int, required=True)
    p_derive.add_argument("--level", type=int, required=True)
    p_derive.add_argument("--param", type=int, default=1)
    p_derive.add_argument("--allow-non-unit", action="store_true")
    p_derive.add_argument("-o", "--output")

    p_inv = sub.add_parser("invariants", help="Iwasawa invariants of the tower")
    p_inv.add_argument("-i", "--input", required=True)
    p_inv.add_argument("--p", type=int, required=True)
    p_inv.add_argument("-o", "--output")

    p_verify = sub.add_parser(
        "verify", help="verify the spanning-tree growth law against tower data"
    )
    p_verify.add_argument("-i", "--input", required=True)
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("-o", "--output")

    p_dot = sub.add_parser("export-dot", help="export a graph as DOT")
    p_dot.add_argument("-i", "--input", required=True)
    p_dot.add_argument("-o", "--output")

    p_oracle = sub.add_parser(
        "oracle", help="brute-force spanning-tree count (16-edge cap)"
    )
    p_oracle.add_argument("-i", "--input", required=True)
    p_oracle.add_argument("-o", "--output")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except VoltageTowerError as exc:
        prefix = "internal: " if exc.exit_code == EXIT_INTERNAL else ""
        return _fail(exc.exit_code, f"{prefix}{exc}")
    except (ValueError, OSError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
