import argparse
import gc
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltage_tower import (
    ConstantVoltage,
    CraterSpec,
    DirectedMultigraph,
    InvalidPrimeError,
    IwasawaInvariants,
    NoTowerError,
    StructureViolationError,
    TooLargeError,
    TowerLevel,
    TowerReport,
    VolcanoSpec,
    VoltageTowerError,
    bouquet,
    derive,
    directed_cycle,
    doubled,
    volcano,
)
from voltage_tower import cli, documents, iwasawa, tower
from voltage_tower.cli import _report_table, main
from voltage_tower.documents import (
    DECIMAL_LEAF_BITS,
    JSON_CHUNK,
    NOT_UTF8,
    DocumentError,
    decimal_str,
    graph_from_document,
    graph_json_chunks,
    graph_to_document,
    graph_to_dot,
    invariants_to_document,
    read_graph,
    tower_report_to_document,
    write_graph,
)
from voltage_tower.tower import DERIVED_EDGE_CAP, DERIVED_VERTEX_CAP

from oracles import line_by_line_dot, one_conversion_decimal_str


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_document_round_trip(tmp_path):
    g = directed_cycle(3)
    path = tmp_path / "g.json"
    write_graph(g, str(path))
    assert read_graph(str(path)) == g


def dumped(g):
    """The graph-v1 bytes as ``json`` lays them out: the renderer's oracle."""
    return json.dumps(graph_to_document(g), indent=2) + "\n"


def graph_to_json(g):
    """The rendered document as one string."""
    return "".join(graph_json_chunks(g))


# Quotes, backslashes, control characters, DEL, non-ASCII text, a character
# outside the BMP (escaped as a surrogate pair) and a lone surrogate.
_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\u00e9", "\u2603",
     "\U0001d11e", "\ud800"]
)
_TEXT = st.lists(st.characters() | _TRICKY, max_size=6).map("".join)


@st.composite
def documented_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    edges = ()
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    labels = draw(
        st.none() | st.lists(_TEXT, min_size=n, max_size=n).map(tuple)
    )
    return DirectedMultigraph(n, tuple(edges), labels, draw(_TEXT))


@settings(max_examples=200, deadline=None)
@given(g=documented_graphs())
def test_graph_to_json_is_the_indent_2_dump(g):
    assert graph_to_json(g) == dumped(g)
    doc = json.loads(graph_to_json(g))
    text = g.name + "".join(g.vertex_labels or ())
    if any("\ud800" <= c <= "\udfff" for c in text):
        with pytest.raises(DocumentError, match=NOT_UTF8):
            graph_from_document(doc)
    else:
        assert graph_from_document(doc) == g


# Format directives, braces, quotes, a backslash and a newline in a name or
# a label are only ever text in the DOT output.
_FORMAT_TEXT = '%s %d {} %(x)s "q" \\ %\n'


@settings(max_examples=200, deadline=None)
@given(g=documented_graphs())
@example(g=DirectedMultigraph(0, (), (), "empty"))
@example(g=DirectedMultigraph(0, (), None, ""))
@example(g=DirectedMultigraph(3, ((0, 1), (1, 1), (0, 1)), None, "unlabelled"))
@example(
    g=DirectedMultigraph(
        3, ((0, 2), (2, 0)), ("%", "%d%s", _FORMAT_TEXT), _FORMAT_TEXT
    )
)
@example(g=derive(directed_cycle(3), ConstantVoltage(3), 2))
@example(g=derive(bouquet(2), ConstantVoltage(5, -1), 2))
def test_graph_to_dot_keeps_the_line_by_line_bytes(g):
    assert graph_to_dot(g) == line_by_line_dot(g)


def test_graph_to_dot_layout():
    g = DirectedMultigraph(2, ((1, 0), (1, 1)), ('a"%d', "\\%s"), "g%s{}")
    assert graph_to_dot(g) == (
        'digraph "g%s{}" {\n'
        '  n0 [label="a\\"%d"];\n'
        '  n1 [label="\\\\%s"];\n'
        "  n1 -> n0;\n"
        "  n1 -> n1;\n"
        "}\n"
    )


def test_graph_documents_keep_the_dump_layout(tmp_path):
    for g in (
        DirectedMultigraph(0, (), (), "empty"),
        DirectedMultigraph(3, (), None, "no edges"),
        derive(directed_cycle(3), ConstantVoltage(3), 2),
    ):
        path = tmp_path / "g.json"
        write_graph(g, str(path))
        assert path.read_bytes() == dumped(g).encode("ascii")


_CHUNK_COUNTS = (
    0, 1, JSON_CHUNK - 1, JSON_CHUNK, JSON_CHUNK + 1, 2 * JSON_CHUNK + 1
)


def _chunked_graphs():
    """k edges and k labels on k vertices for each count k around the chunk
    boundaries, and a graph with edges and no labels."""
    for k in _CHUNK_COUNTS:
        edges = tuple((v, (v * 7 + 1) % k) for v in range(k))
        labels = tuple(f'\u00e9"{v}' for v in range(k))
        yield DirectedMultigraph(k, edges, labels, f"chunks({k})")
    k = 2 * JSON_CHUNK + 1
    yield DirectedMultigraph(2, ((0, 1),) * k, None, "no labels")


def test_graph_documents_keep_the_dump_layout_across_chunks(tmp_path, capsys):
    # level 0 of derive writes its input back out, so any graph reaches
    # the stdout path
    src = tmp_path / "g.json"
    for g in _chunked_graphs():
        expected = dumped(g)
        write_graph(g, str(src))
        assert src.read_bytes() == expected.encode("ascii"), g.name
        code, stdout, _ = run(
            ["derive", "-i", str(src), "--p", "2", "--level", "0"], capsys
        )
        assert code == 0
        assert stdout == expected, g.name


def test_graph_document_rejects_garbage():
    with pytest.raises(DocumentError):
        graph_from_document({"schema": "nope"})
    for directed in (False, 1, None, "true"):
        with pytest.raises(DocumentError, match=NEEDS_AN_ORIENTATION):
            graph_from_document(_graph_doc(directed=directed))
    with pytest.raises(DocumentError):
        graph_from_document(
            {
                "schema": "voltage-tower/graph-v1",
                "name": "x",
                "directed": True,
                "vertex_count": 1,
                "edges": [],
                "bogus": 1,
            }
        )
    with pytest.raises(DocumentError):
        graph_from_document(
            {
                "schema": "voltage-tower/graph-v1",
                "name": "x",
                "directed": True,
                "vertex_count": 1,
                "edges": [[0, 5]],
            }
        )


def test_directed_graph_with_an_undirected_looking_name():
    g = DirectedMultigraph(2, ((0, 1),), name="undirected(x)")
    doc = graph_to_document(g)
    assert doc["directed"] is True
    assert graph_to_dot(g).startswith("digraph")
    assert graph_from_document(doc) == g


NEEDS_AN_ORIENTATION = (
    "directed must be true: a constant voltage assignment needs an orientation"
)


def _graph_doc(**overrides):
    doc = {
        "schema": "voltage-tower/graph-v1",
        "name": "x",
        "directed": True,
        "vertex_count": 2,
        "edges": [[0, 1]],
    }
    doc.update(overrides)
    return doc


def test_graph_document_rejects_booleans_as_integers(tmp_path, capsys):
    for doc in (
        _graph_doc(vertex_count=True, edges=[]),
        _graph_doc(edges=[[False, 1]]),
        _graph_doc(edges=[[0, True]]),
    ):
        with pytest.raises(DocumentError):
            graph_from_document(doc)
    src = tmp_path / "b.json"
    src.write_text(json.dumps(_graph_doc(vertex_count=True, edges=[])))
    code, _, err = run(["oracle", "-i", str(src)], capsys)
    assert code == 2
    assert "vertex_count" in err


_NOT_AN_INT = st.floats() | st.text(max_size=3) | st.booleans() | st.none()


@settings(max_examples=100, deadline=None)
@given(bad=_NOT_AN_INT, where=st.sampled_from(["vertex_count", 0, 1]))
def test_only_ints_count_vertices_and_name_endpoints(bad, where):
    vertex_count, edge = 2, [0, 1]
    if where == "vertex_count":
        vertex_count = bad
    else:
        edge[where] = bad
    with pytest.raises(ValueError):
        DirectedMultigraph(vertex_count, (tuple(edge),))
    with pytest.raises(DocumentError):
        graph_from_document(_graph_doc(vertex_count=vertex_count, edges=[edge]))


def test_gen_matches_in_memory_constructions(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(["gen", "cycle", "--length", "3", "-o", str(out)], capsys)
    assert code == 0
    assert read_graph(str(out)) == directed_cycle(3)

    code, stdout, _ = run(["gen", "bouquet", "--loops", "2"], capsys)
    assert code == 0
    assert graph_from_document(json.loads(stdout)) == bouquet(2)

    code, stdout, _ = run(
        ["gen", "volcano", "--l", "2", "--depth", "2", "--crater", "cycle:4"],
        capsys,
    )
    assert code == 0
    g = graph_from_document(json.loads(stdout))
    assert g.vertex_count == 16

    code, stdout, _ = run(
        ["gen", "doubled-volcano", "--l", "2", "--depth", "1", "--crater", "cycle:3"],
        capsys,
    )
    assert code == 0
    g = graph_from_document(json.loads(stdout))
    assert g.vertex_count == 6
    assert len(g.edges) == 12


def test_gen_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    spec = VolcanoSpec(2, 2, CraterSpec.cycle(4))
    cases = [
        (["cycle", "--length", "4"], directed_cycle(4)),
        (["bouquet", "--loops", "3"], bouquet(3)),
        (
            ["volcano", "--l", "2", "--depth", "2", "--crater", "cycle:4"],
            volcano(spec),
        ),
        (
            ["doubled-volcano", "--l", "2", "--depth", "2", "--crater", "cycle:4"],
            doubled(volcano(spec)),
        ),
    ]
    out = tmp_path / "g.json"
    for args, g in cases:
        code, stdout, _ = run(["gen", *args], capsys)
        assert code == 0
        code, _, _ = run(["gen", *args, "-o", str(out)], capsys)
        assert code == 0
        assert stdout == dumped(g)
        assert out.read_bytes() == dumped(g).encode("ascii")


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(["gen", "volcano", "--l", "1"], capsys)
    assert code == 2
    assert "l >= 2" in err
    code, _, err = run(["gen", "volcano", "--crater", "pyramid"], capsys)
    assert code == 2
    for token in ("cycle:+3", "cycle: 3", "cycle:1_0", "cycle:\u0663", "cycle:03"):
        code, stdout, err = run(["gen", "volcano", "--crater", token], capsys)
        assert code == 2, token
        assert stdout == ""
        assert err == f"error: bad crater token {token!r}\n"


def test_gen_refuses_graphs_past_the_caps(capsys):
    over = DERIVED_VERTEX_CAP + 1
    for args in (
        ["cycle", "--length", str(over)],
        ["cycle", "--length", str(10**9)],
        ["bouquet", "--loops", str(DERIVED_EDGE_CAP + 1)],
        ["bouquet", "--loops", str(10**9)],
        # 1 + (l + 1) vertices at depth 1 on a bare crater
        ["volcano", "--l", str(over - 2), "--depth", "1", "--crater", "bare"],
        ["volcano", "--depth", "0", "--crater", f"cycle:{over}"],
        ["volcano", "--depth", "40"],
        ["volcano", "--depth", str(10**9)],
        ["doubled-volcano", "--l", str(over - 2), "--depth", "1", "--crater", "bare"],
        ["doubled-volcano", "--depth", "40"],
    ):
        code, stdout, err = run(["gen", *args], capsys)
        assert code == 6, args
        assert stdout == ""
        assert "exceeds the cap" in err


def test_derive_command(tmp_path, capsys):
    src = tmp_path / "c.json"
    write_graph(directed_cycle(3), str(src))
    code, stdout, _ = run(
        ["derive", "-i", str(src), "--p", "3", "--level", "1"], capsys
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["vertex_count"] == 9
    assert doc["labels"][0] == "v0@0"

    # level 0 gives back the byte-identical document
    code, stdout, _ = run(
        ["derive", "-i", str(src), "--p", "3", "--level", "0"], capsys
    )
    assert code == 0
    assert json.loads(stdout) == graph_to_document(directed_cycle(3))


def test_derive_writes_the_same_bytes_to_stdout_and_to_a_file(
    tmp_path, capsys
):
    base = doubled(volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3))))
    src = tmp_path / "b.json"
    out = tmp_path / "d.json"
    write_graph(base, str(src))
    # (2, 10): 12,288 edges and 6,144 labels, across chunk boundaries
    for p, level in ((3, 2), (2, 0), (2, 10)):
        argv = ["derive", "-i", str(src), "--p", str(p), "--level", str(level)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        code, _, _ = run([*argv, "-o", str(out)], capsys)
        assert code == 0
        expected = dumped(derive(base, ConstantVoltage(p), level))
        assert stdout == expected
        assert out.read_bytes() == expected.encode("ascii")


def test_derive_peaks_at_its_graph_plus_less_than_its_document(tmp_path):
    # the largest level of the derive-io corpus, 50,421 edges: the written
    # document goes out in chunks, so only a chunk sits beside the graph
    base, p, level = bouquet(3), 7, 5
    src, out = tmp_path / "b.json", tmp_path / "d.json"
    write_graph(base, str(src))
    argv = ["derive", "-i", str(src), "--p", str(p), "--level", str(level)]
    argv += ["-o", str(out)]
    assert main(argv) == 0  # the parser is built outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        derived = derive(base, ConstantVoltage(p), level)
        graph = tracemalloc.get_traced_memory()[0] - before
        assert len(derived.edges) == 50_421
        del derived
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - graph < out.stat().st_size


def test_derive_non_unit_param(tmp_path, capsys):
    src = tmp_path / "c.json"
    write_graph(directed_cycle(3), str(src))
    code, _, err = run(
        ["derive", "-i", str(src), "--p", "3", "--level", "1", "--param", "3"],
        capsys,
    )
    assert code == 3
    assert "--allow-non-unit" in err
    code, stdout, _ = run(
        [
            "derive",
            "-i",
            str(src),
            "--p",
            "3",
            "--level",
            "1",
            "--param",
            "3",
            "--allow-non-unit",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["vertex_count"] == 9


def test_invariants_command(tmp_path, capsys):
    src = tmp_path / "v.json"
    code, _, _ = run(
        [
            "gen", "volcano", "--l", "2", "--depth", "2",
            "--crater", "cycle:4", "-o", str(src),
        ],
        capsys,
    )
    assert code == 0
    code, stdout, _ = run(["invariants", "-i", str(src), "--p", "3"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema"] == "voltage-tower/invariants-v1"
    assert (doc["mu"], doc["lambda"], doc["n0"]) == (0, 1, 0)
    assert doc["charpoly"][0] == "0"
    assert set(doc) == {
        "schema", "p", "n0", "mu", "lambda", "mu_total", "lambda_total",
        "charpoly",
    }

    # the tower's levels come from verify, which agrees on n0, mu and lambda
    code, stdout, _ = run(
        ["verify", "-i", str(src), "--p", "3", "--n-max", "2", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(stdout)
    kappas = [lvl["kappa_per_component"] for lvl in report["levels"]]
    assert kappas == ["4", "12", "36"]
    assert [report[k] for k in ("mu", "lambda", "n0")] == [
        doc[k] for k in ("mu", "lambda", "n0")
    ]


def test_invariants_bouquet_and_tree(tmp_path, capsys):
    src = tmp_path / "b.json"
    write_graph(bouquet(2), str(src))
    code, stdout, _ = run(["invariants", "-i", str(src), "--p", "2"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert (doc["mu"], doc["lambda"]) == (1, 1)

    tree = tmp_path / "t.json"
    write_graph(DirectedMultigraph(2, ((0, 1),), name="edge"), str(tree))
    code, _, err = run(["invariants", "-i", str(tree), "--p", "2"], capsys)
    assert code == 4
    assert "forest" in err

    flat = tmp_path / "flat.json"
    write_graph(
        DirectedMultigraph(2, ((0, 1), (0, 1)), name="pp"), str(flat)
    )
    code, _, err = run(["invariants", "-i", str(flat), "--p", "2"], capsys)
    assert code == 4
    assert "weight" in err


def test_invariants_rejects_composite_p(tmp_path, capsys):
    src = tmp_path / "b.json"
    write_graph(bouquet(2), str(src))
    for argv in (
        ["invariants", "-i", str(src), "--p", "4"],
        ["verify", "-i", str(src), "--p", "4", "--n-max", "2"],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert "4 is not prime" in err


def test_a_prime_over_its_cap_exits_6_at_once(tmp_path, capsys):
    # 2^61 - 1 is prime, and trial division would take minutes to say so
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    p = str(2**61 - 1)
    for argv in (
        ["invariants", "-i", str(src), "--p", p],
        ["verify", "-i", str(src), "--p", p, "--n-max", "2"],
        ["derive", "-i", str(src), "--p", p, "--level", "1"],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 6, argv
        assert stdout == ""
        assert "exceeds the cap of 4294967296" in err


def graph_reading_commands(src):
    """One argv per subcommand that reads a graph document from ``src``."""
    src = str(src)
    return (
        ["derive", "-i", src, "--p", "3", "--level", "1"],
        ["invariants", "-i", src, "--p", "3"],
        ["verify", "-i", src, "--p", "3", "--n-max", "3"],
        ["export-dot", "-i", src],
        ["oracle", "-i", src],
    )


def test_tower_commands_refuse_an_undirected_image(tmp_path, capsys):
    # an edge with no orientation gets no value from a constant voltage
    # assignment, so no subcommand reads a graph marked undirected
    src = tmp_path / "u.json"
    edges = [[0, 1], [1, 2], [0, 2]]
    doc = _graph_doc(directed=False, vertex_count=3, edges=edges)
    src.write_text(json.dumps(doc))
    for argv in graph_reading_commands(src):
        code, stdout, err = run(argv, capsys)
        assert code == 2, argv
        assert stdout == ""
        assert err == f"error: {NEEDS_AN_ORIENTATION}\n"


def test_a_lone_surrogate_in_a_name_or_label_exits_2(tmp_path, capsys):
    # no command reads a document that it could not write out again
    src = tmp_path / "s.json"
    out = tmp_path / "out"
    for doc in (_graph_doc(name="s\ud800"), _graph_doc(labels=["a", "x\udfff"])):
        src.write_text(json.dumps(doc))
        for argv in graph_reading_commands(src):
            code, stdout, err = run([*argv, "-o", str(out)], capsys)
            assert code == 2, argv
            assert stdout == ""
            assert err == f"error: {NOT_UTF8}\n"
            assert not out.exists(), argv


def test_a_deeply_nested_document_exits_2(tmp_path, capsys):
    # json.load recurses once per bracket
    src = tmp_path / "deep.json"
    src.write_text("[" * 200_000)
    for argv in graph_reading_commands(src):
        code, stdout, err = run(argv, capsys)
        assert code == 2, argv
        assert stdout == ""
        assert err.startswith("error: invalid JSON: maximum recursion depth")


@pytest.mark.parametrize(
    "text",
    [
        # an integer past the interpreter's int <- str digit limit
        json.dumps(graph_to_document(directed_cycle(3))).replace(
            '"vertex_count": 3', '"vertex_count": 1' + "0" * 4999
        ).encode(),
        b"\xff\xfe",  # not UTF-8
    ],
    ids=["5000-digit-integer", "not-utf-8"],
)
def test_a_value_error_from_the_json_reader_exits_2(text, tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_bytes(text)
    with pytest.raises(DocumentError, match="^invalid JSON: "):
        read_graph(str(src))
    for argv in graph_reading_commands(src):
        code, stdout, err = run(argv, capsys)
        assert code == 2, argv
        assert stdout == ""
        assert err.startswith("error: invalid JSON: "), argv


def test_verify_command(tmp_path, capsys):
    src = tmp_path / "v.json"
    run(
        [
            "gen", "volcano", "--l", "2", "--depth", "2",
            "--crater", "cycle:4", "-o", str(src),
        ],
        capsys,
    )
    code, stdout, _ = run(
        ["verify", "-i", str(src), "--p", "3", "--n-max", "3"], capsys
    )
    assert code == 0
    assert "exact from level 0" in stdout
    for kappa in ("4", "12", "36", "108"):
        assert kappa in stdout
    # the README's example is this output, byte for byte
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = readme.read_text(encoding="utf-8").split(
        "Example `verify` output:\n\n```\n", 1
    )[1]
    assert stdout == example.split("```", 1)[0]

    code, stdout, _ = run(
        ["verify", "-i", str(src), "--p", "3", "--n-max", "3", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema"] == "voltage-tower/tower-report-v1"
    assert [lvl["kappa_per_component"] for lvl in doc["levels"]] == [
        "4",
        "12",
        "36",
        "108",
    ]
    assert doc["exact_from_level"] == 0
    assert doc["fitted_nu"] == 0


def test_every_readme_command_line_parses():
    # an option the parser no longer has must not stay advertised
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI\n\n```sh\n", 1)[1]
    lines = [
        line for line in block.split("```", 1)[0].splitlines()
        if line.startswith("voltage-tower ")
    ]
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            commands.add(cli.build_parser().parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"the README line does not parse: {line}")
    assert commands == {
        "gen", "derive", "invariants", "verify", "export-dot", "oracle"
    }


def test_verify_and_invariants_compute_the_charpoly_once(
    tmp_path, capsys, monkeypatch
):
    src = tmp_path / "b.json"
    write_graph(bouquet(2), str(src))
    calls = []
    real = iwasawa._char_poly

    def counting(g, schedule):
        calls.append(g)
        return real(g, schedule)

    monkeypatch.setattr(iwasawa, "_char_poly", counting)
    base = ["-i", str(src), "--p", "2"]
    for argv in (
        ["verify", *base, "--n-max", "3"],
        ["verify", *base, "--n-max", "3", "--json"],
        ["invariants", *base],
    ):
        calls.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert len(calls) == 1, argv


def test_verify_builds_one_level_whatever_n_max(tmp_path, capsys, monkeypatch):
    # n0 = 1 for the 3-cycle at p = 3: level n0 is one Kirchhoff count on
    # the base graph, no derived graph is built, and every higher level
    # comes from a resultant
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    derived_levels = []
    kirchhoff_calls = []
    real_derive = tower.derive
    real_kappa = iwasawa._kappa

    def counting_derive(base, voltage, n):
        derived_levels.append(n)
        return real_derive(base, voltage, n)

    def counting_kappa(g, schedule):
        kirchhoff_calls.append(g)
        return real_kappa(g, schedule)

    monkeypatch.setattr(tower, "derive", counting_derive)
    monkeypatch.setattr(iwasawa, "_kappa", counting_kappa)
    for n_max in (3, 4, 6):
        derived_levels.clear()
        kirchhoff_calls.clear()
        argv = ["verify", "-i", str(src), "--p", "3", "--n-max", str(n_max)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert derived_levels == [], n_max
        assert [g.vertex_count for g in kirchhoff_calls] == [3], n_max


def test_size_cap_exits_6_at_once(tmp_path, capsys):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    for argv in (
        ["derive", "-i", str(src), "--p", "2", "--level", "40"],
        ["derive", "-i", str(src), "--p", "3", "--level", "1000000000"],
        ["verify", "-i", str(src), "--p", "1000003", "--n-max", "2"],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 6, argv
        assert stdout == ""
        assert "exceed the cap" in err


def test_a_claimed_vertex_count_over_the_cap_exits_6_at_once(
    tmp_path, capsys, monkeypatch
):
    # a few bytes of JSON must not make any command allocate 10^12 vertices
    src = tmp_path / "huge.json"
    doc = graph_to_document(directed_cycle(3))
    doc["vertex_count"] = 10**12
    src.write_text(json.dumps(doc))
    for argv in (
        ["invariants", "-i", str(src), "--p", "2"],
        ["verify", "-i", str(src), "--p", "2", "--n-max", "2"],
        ["derive", "-i", str(src), "--p", "2", "--level", "1"],
        ["export-dot", "-i", str(src)],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 6, argv
        assert stdout == ""
        assert "exceeds the cap" in err

    # nor may a list of edges longer than any document the CLI writes
    # reach the graph constructor
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(documents, "DirectedMultigraph", no_graph)
    doc = graph_to_document(DirectedMultigraph(2, ((0, 1),), name="wide"))
    doc["edges"] = [[0, 1]] * (DERIVED_EDGE_CAP + 1)
    src.write_text(json.dumps(doc))
    for argv in (
        ["invariants", "-i", str(src), "--p", "2"],
        ["verify", "-i", str(src), "--p", "2", "--n-max", "2"],
        ["derive", "-i", str(src), "--p", "2", "--level", "0"],
        ["export-dot", "-i", str(src)],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 6, argv
        assert stdout == ""
        assert err == (
            f"error: edge count {DERIVED_EDGE_CAP + 1} exceeds the cap of "
            f"{DERIVED_EDGE_CAP}\n"
        )


def test_a_charpoly_over_its_cap_exits_6_at_once(tmp_path, capsys, monkeypatch):
    # r - c + 1 replayed r x r determinants: a 50,000-vertex cycle is within
    # the document cap but must not reach the planner or a matrix
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(iwasawa, "elimination_schedule", no_matrix)
    monkeypatch.setattr(iwasawa, "_cleared_matrix", no_matrix)
    monkeypatch.setattr(iwasawa, "_kappa", no_matrix)
    big = tmp_path / "c50000.json"
    write_graph(directed_cycle(50_000), str(big))
    small = tmp_path / "c65.json"
    write_graph(directed_cycle(tower.CHARPOLY_VERTEX_CAP + 1), str(small))
    for argv in (
        ["invariants", "-i", str(big), "--p", "2"],
        ["verify", "-i", str(small), "--p", "2", "--n-max", "2"],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 6, argv
        assert stdout == ""
        assert "exceed the characteristic-polynomial cap" in err


def test_derived_edges_over_the_cap_exit_6_at_once(tmp_path, capsys):
    # 1 vertex and 1,000 loops: 2^16 derived vertices are within their cap,
    # but 1,000 * 2^16 derived edges are not
    src = tmp_path / "b1000.json"
    write_graph(bouquet(1000), str(src))
    code, stdout, err = run(
        ["derive", "-i", str(src), "--p", "2", "--level", "16"], capsys
    )
    assert code == 6
    assert stdout == ""
    assert "derived edges exceed the cap" in err


def test_integers_past_the_int_str_digit_limit_serialise():
    kappa = 10**5000
    coeff = -(10**4999 + 7)
    with pytest.raises(ValueError):
        str(kappa)  # the interpreter's default int -> str limit
    inv = IwasawaInvariants(2, 0, 0, 1, 0, 2, (0, 0, coeff))
    report = TowerReport(
        (TowerLevel(0, 1, kappa, 0, 0),), 0, 0, invariants=inv
    )
    kappa_digits = "1" + "0" * 5000
    coeff_digits = "-1" + "0" * 4998 + "7"

    doc = tower_report_to_document(report)
    assert doc["levels"][0]["kappa_per_component"] == kappa_digits
    json.dumps(doc)
    doc = invariants_to_document(inv)
    assert doc["charpoly"] == ["0", "0", coeff_digits]
    json.dumps(doc)
    assert kappa_digits in _report_table(report)


def test_decimal_str_leaves_no_reference_cycle():
    # its recursion past DECIMAL_LEAF_BITS holds the call's powers of two;
    # a closure that referred to itself would keep them in a cycle
    n = -(7**120_000)  # 101,412 digits
    gc.collect()
    digits = decimal_str(n)
    assert gc.collect() == 0
    assert len(digits) > 10**5 and digits.startswith("-")


def test_small_integers_keep_their_decimal_bytes():
    for n in (0, 1, -1, 7, -12, 10**30, -(2**200), 10**4299):
        assert decimal_str(n) == str(n)


@st.composite
def integers_around_the_leaf(draw):
    bits = draw(st.integers(min_value=0, max_value=4 * DECIMAL_LEAF_BITS))
    n = draw(st.integers(min_value=1 << bits >> 1, max_value=(1 << bits) - 1))
    return draw(st.sampled_from((n, -n)))


@settings(max_examples=200, deadline=None)
@given(n=integers_around_the_leaf())
@example(n=2**DECIMAL_LEAF_BITS - 1)
@example(n=2**DECIMAL_LEAF_BITS)
@example(n=-(2**DECIMAL_LEAF_BITS) - 1)
@example(n=-(10**5000))
def test_decimal_str_matches_one_decimal_conversion(n):
    assert decimal_str(n) == one_conversion_decimal_str(n)


def test_verify_single_loop_bouquet(tmp_path, capsys):
    src = tmp_path / "b1.json"
    write_graph(bouquet(1), str(src))
    code, stdout, _ = run(
        ["verify", "-i", str(src), "--p", "5", "--n-max", "2", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert [lvl["kappa_per_component"] for lvl in doc["levels"]] == [
        "1",
        "5",
        "25",
    ]


def test_verify_a_tall_tower_with_a_huge_valuation(tmp_path, capsys):
    # a 2 KB document under every cap: 64 loops at p = 2 give a top kappa
    # with ord_2 = 393,226, which a valuation taken one factor of p at a
    # time needs about a minute to read
    src = tmp_path / "b64.json"
    write_graph(bouquet(64), str(src))
    code, stdout, _ = run(
        ["verify", "-i", str(src), "--p", "2", "--n-max", "16", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert (doc["mu"], doc["lambda"], doc["fitted_nu"]) == (6, 1, -6)
    assert [lvl["ord_p"] for lvl in doc["levels"]] == [
        6 * 2**n + n - 6 for n in range(17)
    ]


def test_verify_rejects_small_n_max(tmp_path, capsys, monkeypatch):
    # cycle(3) at p = 3 has n0 = 1, so n_max = 2 is one level short, and
    # that is known before the graph is planned for its characteristic
    # polynomial
    def no_plan(g):
        raise AssertionError("the graph was planned")

    monkeypatch.setattr(iwasawa, "elimination_schedule", no_plan)
    with pytest.raises(ValueError, match=r"n0 \+ 2 = 3"):
        iwasawa.verify_growth(directed_cycle(3), 3, 2)
    src = tmp_path / "c.json"
    write_graph(directed_cycle(3), str(src))
    code, stdout, err = run(
        ["verify", "-i", str(src), "--p", "3", "--n-max", "2"], capsys
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: n_max must be at least n0 + 2 = 3\n"


def test_export_dot(tmp_path, capsys):
    src = tmp_path / "c.json"
    write_graph(directed_cycle(3), str(src))
    code, stdout, _ = run(["export-dot", "-i", str(src)], capsys)
    assert code == 0
    assert stdout.startswith("digraph")
    assert stdout.count("->") == 3


def test_oracle_command(tmp_path, capsys):
    src = tmp_path / "c.json"
    write_graph(directed_cycle(3), str(src))
    code, stdout, _ = run(["oracle", "-i", str(src)], capsys)
    assert code == 0
    assert stdout.strip() == "3"

    big = tmp_path / "big.json"
    write_graph(
        DirectedMultigraph(2, tuple((0, 1) for _ in range(17)), name="fat"),
        str(big),
    )
    code, _, err = run(["oracle", "-i", str(big)], capsys)
    assert code == 6

    dc = tmp_path / "dc.json"
    write_graph(
        DirectedMultigraph(
            3, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)), name="dc3"
        ),
        str(dc),
    )
    code, stdout, _ = run(["oracle", "-i", str(dc)], capsys)
    assert code == 0
    assert stdout.strip() == "12"


def test_missing_input_file(capsys):
    code, _, err = run(["oracle", "-i", "/nonexistent/x.json"], capsys)
    assert code == 2


def test_dot_output_file(tmp_path, capsys):
    src = tmp_path / "c.json"
    out = tmp_path / "c.dot"
    write_graph(directed_cycle(3), str(src))
    code, _, _ = run(["export-dot", "-i", str(src), "-o", str(out)], capsys)
    assert code == 0
    assert out.read_text().startswith("digraph")


@pytest.mark.parametrize(
    "g, message",
    [
        (DirectedMultigraph(0, (), name="empty"), "graph has no vertices"),
        (
            DirectedMultigraph(3, ((0, 0), (1, 2), (2, 1)), name="apart"),
            "apart is not connected: its undirected image has 2 components",
        ),
    ],
    ids=["empty", "two-components"],
)
def test_an_empty_or_disconnected_graph_exits_2(g, message, tmp_path, capsys):
    # one connectivity rule, so one stderr line whichever command meets it
    src = tmp_path / "g.json"
    write_graph(g, str(src))
    for argv in (
        ["invariants", "-i", str(src), "--p", "2"],
        ["verify", "-i", str(src), "--p", "2", "--n-max", "2"],
        ["oracle", "-i", str(src)],
    ):
        code, stdout, err = run(argv, capsys)
        assert code == 2, argv
        assert stdout == ""
        assert err == f"error: {message}\n"


def test_derive_on_an_empty_base_builds_nothing(tmp_path, capsys):
    # p^n sheets of no vertex: p^n is never formed, so level 10^9 returns
    # as level 1 does, and level 1 keeps its bytes
    src = tmp_path / "empty.json"
    write_graph(DirectedMultigraph(0, (), name="empty"), str(src))
    for p, level in ((2, 1), (3, 10**9)):
        argv = ["derive", "-i", str(src), "--p", str(p), "--level", str(level)]
        code, stdout, err = run(argv, capsys)
        assert code == 0, argv
        assert err == ""
        assert stdout == (
            '{\n  "schema": "voltage-tower/graph-v1",\n'
            f'  "name": "derive(empty,p={p},n={level})",\n'
            '  "directed": true,\n  "vertex_count": 0,\n  "edges": [],\n'
            '  "labels": []\n}\n'
        )


def test_a_failed_identity_exits_1_as_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    # a wrong determinant breaks the charpoly's integrality checks
    real = iwasawa.replay_determinant
    monkeypatch.setattr(
        iwasawa,
        "replay_determinant",
        lambda schedule, rows: real(schedule, rows) ** 3,
    )
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    code, stdout, err = run(["invariants", "-i", str(src), "--p", "3"], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: internal: ")
    assert err.count("\n") == 1


def _concrete_errors(cls=VoltageTowerError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


def test_every_library_error_maps_to_a_documented_exit_code(
    tmp_path, capsys, monkeypatch
):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    errors = list(_concrete_errors())
    assert len(errors) >= 12
    for error in errors:

        def fail(args, error=error):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_oracle", fail)
        code, stdout, err = run(["oracle", "-i", str(src)], capsys)
        assert code in {1, 2, 3, 4, 5, 6}, error.__name__
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1, error.__name__
        assert lines[0].startswith("error: ") and "boom" in lines[0]
        assert "Traceback" not in err


@pytest.fixture(params=[True, False], ids=["collecting", "paused-by-caller"])
def collector(request):
    """The collector's state as the caller of ``main`` left it; the test's
    own state is put back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "raised, status",
    [
        (None, 0),
        (InvalidPrimeError("boom"), 2),
        (NoTowerError("boom"), 4),
        (TooLargeError("boom"), 6),
        (ValueError("boom"), 2),
        (OSError("boom"), 2),
        (StructureViolationError("boom"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v),
)
def test_main_leaves_the_collector_as_it_found_it(
    raised, status, collector, tmp_path, capsys, monkeypatch
):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    during = []
    real = cli.cmd_oracle

    def oracle(args):
        during.append(gc.isenabled())
        if raised is not None:
            raise raised
        return real(args)

    monkeypatch.setattr(cli, "cmd_oracle", oracle)
    code, _, _ = run(["oracle", "-i", str(src)], capsys)
    assert code == status
    assert during == [False]
    assert gc.isenabled() is collector


def test_an_unexpected_error_propagates_and_restores_the_collector(
    collector, tmp_path, capsys, monkeypatch
):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_oracle", crash)
    with pytest.raises(RuntimeError, match="boom"):
        main(["oracle", "-i", str(tmp_path / "c3.json")])
    assert gc.isenabled() is collector


def test_an_argparse_exit_leaves_the_collector_alone(collector, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--n-max", "2"])
    assert exited.value.code == 2
    capsys.readouterr()
    assert gc.isenabled() is collector


def _garbage_after(argv, capsys):
    """Exit code of one ``main`` call and the objects that ``gc.collect``
    then finds unreachable."""
    cli.build_parser()
    gc.collect()
    code = main(argv)
    found = gc.collect()
    capsys.readouterr()
    return code, found


def test_a_command_leaves_no_reference_cycles(tmp_path, capsys):
    # the premise of pausing the collector during a command
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    for argv in (
        ["gen", "doubled-volcano", "--depth", "2"],
        ["derive", "-i", str(src), "--p", "2", "--level", "3"],
        ["derive", "-i", str(src), "--p", "2", "--level", "10"],
        ["export-dot", "-i", str(src)],
        ["oracle", "-i", str(src)],
    ):
        assert _garbage_after(argv, capsys) == (0, 0), argv


def test_a_json_report_leaves_garbage_that_does_not_grow_with_the_graph(
    tmp_path, capsys
):
    # json's indent encoder builds its nested functions as closure cycles,
    # a fixed count per call
    graphs = {
        "small": directed_cycle(3),
        "large": doubled(volcano(VolcanoSpec(2, 3, CraterSpec.cycle(3)))),
    }
    for name, g in graphs.items():
        write_graph(g, str(tmp_path / f"{name}.json"))
    commands = {
        "invariants": ["invariants", "--p", "2"],
        "verify": ["verify", "--p", "2", "--n-max", "5", "--json"],
    }
    for command, argv in commands.items():
        fixed = set()
        for name in graphs:
            src = str(tmp_path / f"{name}.json")
            code, found = _garbage_after(argv + ["-i", src], capsys)
            assert code == 0, (command, name)
            fixed.add(found)
        assert len(fixed) == 1, command


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_later_calls_construct_no_parser(tmp_path, capsys, monkeypatch):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    run(["gen", "cycle"], capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (
        ["gen", "bouquet", "--loops", "2"],
        ["invariants", "-i", str(src), "--p", "3"],
        ["verify", "-i", str(src), "--p", "2", "--n-max", "2", "--json"],
        ["oracle", "-i", str(src)],
    ):
        code, _, _ = run(argv, capsys)
        assert code == 0, argv
    assert built == []


def test_invariants_takes_no_n_max(tmp_path, capsys):
    # verify is the one command that climbs a tower
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    with pytest.raises(SystemExit) as exited:
        main(["invariants", "-i", str(src), "--p", "3", "--n-max", "3"])
    assert exited.value.code == 2
    _, err = capsys.readouterr()
    assert err.endswith("error: unrecognized arguments: --n-max 3\n")


def test_no_option_carries_over_to_the_next_call(tmp_path, capsys):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    verify = ["verify", "-i", str(src), "--p", "2", "--n-max", "2"]
    assert json.loads(run(verify + ["--json"], capsys)[1])["levels"]
    code, stdout, _ = run(verify, capsys)
    assert code == 0
    assert stdout == _report_table(iwasawa.verify_growth(directed_cycle(3), 2, 2))


@pytest.mark.parametrize(
    "bad, status",
    [(["verify", "--n-max", "2"], 2), (["verify", "--help"], 0)],
    ids=["usage-error", "help"],
)
def test_a_call_after_argparse_exits_prints_the_same_bytes(
    bad, status, tmp_path, capsys
):
    src = tmp_path / "c3.json"
    write_graph(directed_cycle(3), str(src))
    good = ["verify", "-i", str(src), "--p", "2", "--n-max", "2"]
    first = run(good, capsys)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exited:
        main(bad + ["-i", str(src)])
    assert exited.value.code == status
    capsys.readouterr()
    assert run(good, capsys) == first


def _console(*argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "voltage_tower.cli", *argv],
        capture_output=True,
        env=env,
    )


def test_the_console_entry_point_runs_as_a_program(capsys):
    helped = _console("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith(b"usage: voltage-tower")

    argv = ["gen", "cycle", "--length", "3"]
    started = _console(*argv)
    assert started.returncode == 0
    assert started.stdout.decode() == run(argv, capsys)[1]
