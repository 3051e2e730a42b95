"""JSON interchange formats and DOT export.

Graphs travel as ``voltage-tower/graph-v1`` documents and invariant
reports as ``voltage-tower/invariants-v1``; spanning-tree counts and
polynomial coefficients are serialized as decimal strings because they
outgrow 64-bit consumers quickly.  Unknown fields are rejected.

Graph documents are written by :func:`graph_to_json` in the byte layout of
``json.dumps(graph_to_document(g), indent=2)``.  It renders them itself
because ``json`` encodes in pure Python, element by element, whenever an
indent is given, and on a derived graph that was most of the time the
``derive`` command took.  :func:`graph_to_dot` escapes the name and all
labels in two ``str.replace`` passes, then renders all vertex lines with
one ``%``-format and all edge lines with another.  The name goes in through
an f-string and each label as a format argument, so a ``%`` in either is
only ever text.
"""

from __future__ import annotations

import decimal
import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any

from .arith import check_cap
from .errors import DocumentError
from .graph import DirectedMultigraph
from .iwasawa import IwasawaInvariants, TowerReport
from .tower import DERIVED_VERTEX_CAP

GRAPH_SCHEMA = "voltage-tower/graph-v1"
INVARIANTS_SCHEMA = "voltage-tower/invariants-v1"
TOWER_REPORT_SCHEMA = "voltage-tower/tower-report-v1"


def graph_to_document(g: DirectedMultigraph) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema": GRAPH_SCHEMA,
        "name": g.name,
        "directed": True,
        "vertex_count": g.vertex_count,
        "edges": [[s, t] for s, t in g.edges],
    }
    if g.vertex_labels is not None:
        doc["labels"] = list(g.vertex_labels)
    return doc


def _json_array(items: list[str]) -> str:
    """A JSON array of rendered items, laid out as a top-level field's value
    in an indent-2 document."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def graph_to_json(g: DirectedMultigraph) -> str:
    """``json.dumps(graph_to_document(g), indent=2) + "\\n"``, rendered
    directly: strings through json's own ASCII escaper, one fixed-indent
    block per edge."""
    fields = [
        ("schema", encode_basestring_ascii(GRAPH_SCHEMA)),
        ("name", encode_basestring_ascii(g.name)),
        ("directed", "true"),
        ("vertex_count", json.dumps(g.vertex_count)),
        (
            "edges",
            _json_array(
                [f"[\n      {s},\n      {t}\n    ]" for s, t in g.edges]
            ),
        ),
    ]
    if g.vertex_labels is not None:
        labels = [encode_basestring_ascii(x) for x in g.vertex_labels]
        fields.append(("labels", _json_array(labels)))
    body = ",\n".join(f'  "{key}": {value}' for key, value in fields)
    return "{\n" + body + "\n}\n"


# JSON's \u escapes can spell a lone surrogate, which no output encodes.
NOT_UTF8 = "name and labels must encode as UTF-8: a lone surrogate does not"


def graph_from_document(doc: Any) -> DirectedMultigraph:
    """The graph of a graph-v1 document.  The reader checks the document:
    fields, schema, ``"directed": true``, lists, the vertex cap
    (TooLargeError) and a name and labels that encode as UTF-8; the
    DirectedMultigraph constructor checks the graph, and its ValueError
    becomes DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError("graph document must be a JSON object")
    allowed = {"schema", "name", "directed", "vertex_count", "labels", "edges"}
    unknown = set(doc) - allowed
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    if doc.get("schema") != GRAPH_SCHEMA:
        raise DocumentError(f"expected schema {GRAPH_SCHEMA!r}")
    for key in ("name", "directed", "vertex_count", "edges"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    if doc["directed"] is not True:
        raise DocumentError(
            "directed must be true: a constant voltage assignment needs "
            "an orientation"
        )
    edges, labels = doc["edges"], doc.get("labels")
    if type(edges) is not list or {*map(type, edges)} - {list}:
        raise DocumentError("edges must be a list of [src, dst] lists")
    if type(labels) is list:
        labels = tuple(labels)
    try:
        g = DirectedMultigraph(
            doc["vertex_count"], tuple(map(tuple, edges)), labels, doc["name"]
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    check_cap(
        "vertex_count {count} exceeds the cap of {cap}",
        g.vertex_count,
        DERIVED_VERTEX_CAP,
    )
    try:
        "".join((g.name, *(g.vertex_labels or ()))).encode()
    except UnicodeEncodeError:
        raise DocumentError(NOT_UTF8) from None
    return g


def write_graph(g: DirectedMultigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g))


def read_graph(path: str) -> DirectedMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    return graph_from_document(doc)


# Integers up to this many bits become a Decimal in one conversion.
DECIMAL_LEAF_BITS = 1024
# Integer products and sums in it are exact: any rounding would trap.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)


def decimal_str(n: int) -> str:
    """Decimal digits of an integer of any size.

    ``str(int)`` refuses more than ``sys.get_int_max_str_digits()`` digits,
    and ``str(Decimal(n))``, which has no limit, takes time quadratic in
    the size of n on Python 3.11 (4.7 s at 1.6 Mbit).  Past
    DECIMAL_LEAF_BITS, n is split by a bit shift into high and low halves,
    each converted in turn, and recombined as high * 2^k + low in
    ``Decimal``, whose large products are subquadratic; each 2^k is
    computed once per call.
    """
    if n.bit_length() <= DECIMAL_LEAF_BITS:
        return str(decimal.Decimal(n))
    powers: dict[int, decimal.Decimal] = {}  # k -> 2^k

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        k = bits >> 1
        if k not in powers:
            powers[k] = _EXACT.power(2, k)
        high = m >> k
        low = m - (high << k)
        return _EXACT.add(
            _EXACT.multiply(convert(high, bits - k), powers[k]),
            convert(low, k),
        )

    digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def tower_report_to_document(report: TowerReport) -> dict[str, Any]:
    inv = report.invariants
    return {
        "schema": TOWER_REPORT_SCHEMA,
        "p": inv.p,
        "levels": [
            {
                "n": lvl.n,
                "component_count": lvl.component_count,
                "kappa_per_component": decimal_str(lvl.kappa_per_component),
                "ord_p": lvl.ord_p,
                "predicted_ord_p": lvl.predicted_ord_p,
            }
            for lvl in report.levels
        ],
        "fitted_nu": report.fitted_nu,
        "exact_from_level": report.exact_from_level,
        "n0": inv.n0,
        "mu": inv.mu,
        "lambda": inv.lam,
    }


def invariants_to_document(inv: IwasawaInvariants) -> dict[str, Any]:
    return {
        "schema": INVARIANTS_SCHEMA,
        "p": inv.p,
        "n0": inv.n0,
        "mu": inv.mu,
        "lambda": inv.lam,
        "mu_total": inv.mu_total,
        "lambda_total": inv.lam_total,
        "charpoly": [decimal_str(c) for c in inv.charpoly],
    }


def graph_to_dot(g: DirectedMultigraph) -> str:
    n = g.vertex_count
    labels = g.vertex_labels or [f"v{v}" for v in range(n)]
    # a DOT string escapes its backslashes, then its double quotes
    texts = map(str.replace, (g.name, *labels), repeat("\\"), repeat("\\\\"))
    name, *labels = map(str.replace, texts, repeat('"'), repeat('\\"'))
    vertices = chain.from_iterable(zip(range(n), labels))
    edges = chain.from_iterable(g.edges)
    return (
        f'digraph "{name}" {{\n'
        + '  n%d [label="%s"];\n' * n % tuple(vertices)
        + "  n%d -> n%d;\n" * len(g.edges) % tuple(edges)
        + "}\n"
    )
