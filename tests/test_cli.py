from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_w5, record_calls
import wordrep
from wordrep import cli, decomposition, recognition
from wordrep.cli import main
from wordrep.errors import InputError
from wordrep.formats import encode_graph6, parse_graph
from wordrep.graphs import (
    Graph,
    Orientation,
    complete_graph,
    cycle_graph,
    extremal8,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import lex_product
from wordrep.recognition import find_word, word_represents

H8 = "G|fJH{"
C5 = "Dhc"
W5 = "Ehfw"
SPLIT_C5 = json.dumps([[[0, 1], [1, 2]], [[2, 3], [3, 4], [0, 4]]])


def run(argv: list[str], stdin: str | None = None) -> tuple[int, str, str]:
    """Drive main() in-process, capturing the standard streams."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def doc(out: str) -> dict:
    return json.loads(out)


def reverify(out: str) -> int:
    code, text, _ = run(["verify", "-"], stdin=out)
    assert doc(text)["valid"] == (code == 0)
    return code


def test_check_wr_cycle():
    code, out, _ = run(["check", "--wr", "DUW"])
    assert code == 0
    d = doc(out)
    assert d["schema_version"] == "1"
    assert d["host"] == "DUW"
    assert d["result"]["wr"] is True
    kinds = [c["kind"] for c in d["certificates"]]
    assert "semi-transitive-orientation" in kinds
    assert "word" in kinds
    assert reverify(out) == 0


def test_check_wr_carries_a_word_for_every_representable_corpus_graph():
    corpus = Path(__file__).parent / "data" / "graphs6.g6"
    representable = 0
    for line in corpus.read_text().split():
        code, out, _ = run(["check", "--wr", line])
        assert code == 0
        d = doc(out)
        if not d["result"]["wr"]:
            continue
        representable += 1
        words = [c["letters"] for c in d["certificates"] if c["kind"] == "word"]
        assert words == [d["result"]["word"]]
        assert word_represents(words[0], parse_graph(line))
    assert representable == 155


def test_check_wr_extremal_false_with_witness():
    assert encode_graph6(extremal8()) == H8
    code, out, _ = run(["check", "--wr", H8])
    assert code == 0
    d = doc(out)
    assert d["result"]["wr"] is False
    assert len(d["result"]["witness"]) == 6
    assert d["certificates"][0]["kind"] == "non-representable-witness"
    assert reverify(out) == 0


def test_check_comparability_path():
    code, out, _ = run(["check", "--comparability", "Ch"])
    assert code == 0
    d = doc(out)
    assert d["result"]["comparability"] is True
    assert d["certificates"][0]["kind"] == "transitive-orientation"
    assert reverify(out) == 0


def test_check_comparability_deep_search(matching):
    code, out, _ = run(["check", "--comparability", encode_graph6(matching)])
    assert code == 0
    assert doc(out)["result"]["comparability"] is True
    assert reverify(out) == 0


def test_check_comparability_cycle_false():
    code, out, _ = run(["check", "--comparability", C5])
    assert code == 0
    d = doc(out)
    assert d["result"]["comparability"] is False
    assert d["certificates"][0]["kind"] == "non-comparability-witness"
    assert reverify(out) == 0


def test_check_comparability_refuses_without_backtracking():
    # a 20-edge matching indexed before a 5-cycle: a search that backtracked
    # would try every orientation of the matching before refusing the cycle
    edges = [(2 * i, 2 * i + 1) for i in range(20)] + [(40 + i, 40 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(45, edges)
    proc = child(["check", "--comparability", encode_graph6(g)])
    assert proc.returncode == 0, proc.stderr
    d = doc(proc.stdout)
    assert d["result"]["comparability"] is False
    assert d["result"]["witness"] == [40, 41, 42, 43, 44]
    assert child(["verify", "-"], stdin=proc.stdout).returncode == 0
    # a hub over all of it has that graph as its neighbourhood
    hub = Graph.from_edges(46, edges + [(v, 45) for v in range(45)])
    assert not recognition.is_wr(hub)


def test_check_minimal_wheel():
    code, out, _ = run(["check", "--minimal", W5])
    assert code == 0
    d = doc(out)
    assert d["result"]["minimal_non_wr"] is True
    # one witness for the host plus one orientation per deletion
    assert len(d["certificates"]) == 7
    assert d["certificates"][0]["kind"] == "non-representable-witness"
    assert all(c["kind"] == "semi-transitive-orientation" and len(c["scope"]) == 5
               for c in d["certificates"][1:])
    assert reverify(out) == 0


def test_check_minimal_false_cases():
    # representable, so trivially not minimal: certificate is an orientation
    code, out, _ = run(["check", "--minimal", C5])
    assert code == 0
    d = doc(out)
    assert d["result"]["minimal_non_wr"] is False
    assert d["certificates"][0]["kind"] == "semi-transitive-orientation"
    assert reverify(out) == 0
    # non-representable but some deletion still is: witness names that core
    code, out, _ = run(["check", "--minimal", H8])
    assert code == 0
    d = doc(out)
    assert d["result"]["minimal_non_wr"] is False
    assert d["certificates"][0]["kind"] == "non-representable-witness"
    assert reverify(out) == 0


def test_mu_exact_and_trivial():
    code, out, _ = run(["mu", W5])
    assert code == 0
    d = doc(out)
    assert d["result"] == {"mu": 2, "status": "exact", "parts": 2}
    rec = d["certificates"][0]
    assert rec["kind"] == "decomposition"
    assert rec["lower_bound"] == 2 and rec["lower_bound_witness"]
    assert reverify(out) == 0

    code, out, _ = run(["mu", "Ch"])
    assert doc(out)["result"]["mu"] == 1


def test_mu_answers_on_any_budget_below_ten_colours():
    # W5 takes 4 greedy colours, so its colouring cover has 2 parts and no
    # part count is searched: a budget of 0 or 1 still answers exactly
    for budget in ("0", "1"):
        code, out, _ = run(["mu", W5, "--budget", budget])
        assert code == 0
        assert doc(out)["result"] == {"mu": 2, "status": "exact", "parts": 2}
        assert reverify(out) == 0


def test_factor_covers_answer_on_any_budget():
    # the wheel factor's colouring cover needs no search either
    for form in (["product-general"], ["product-tight", "--split", SPLIT_C5]):
        code, out, err = run(["mu", W5, C5, "--constructive", *form, "--budget", "1"])
        assert code == 0, (form, err)
        assert reverify(out) == 0, form


def test_negative_budget_is_an_input_error():
    # malformed input, not a budget that ran out; a budget of 0 answers
    # (test_mu_answers_on_any_budget_below_ten_colours)
    for argv in (["mu", W5], ["mu", C5], ["mu", W5, C5, "--constructive", "product-general"]):
        code, out, err = run([*argv, "--budget", "-3"])
        assert (code, out) == (2, "") and "budget must not be negative" in err, argv


def test_mu_constructive_power():
    code, out, _ = run(["mu", C5, "--constructive", "power", "--k", "2"])
    assert code == 0
    d = doc(out)
    assert d["result"]["parts"] == 2 and d["result"]["mu"] == 2
    assert parse_graph(d["host"]).n == 25
    assert reverify(out) == 0
    # at k = 3 this construction alone certifies only the interval
    code, out, _ = run(["mu", C5, "--constructive", "power", "--k", "3"])
    d = doc(out)
    assert d["result"]["parts"] == 3 and d["result"]["mu"] is None
    assert d["result"]["mu_interval"] == [2, 3]


def test_mu_constructive_power_comparability():
    code, out, _ = run(["mu", C5, "--constructive", "power-comparability",
                        "--k", "3", "--split", SPLIT_C5])
    assert code == 0
    d = doc(out)
    assert d["result"]["parts"] == 2 and d["result"]["mu"] == 2
    rec = d["certificates"][0]
    assert all(p["certificate"]["kind"] == "transitive-orientation" for p in rec["parts"])


def test_mu_constructive_products():
    code, out, _ = run(["mu", "Bg", C5, "--constructive", "product-two"])
    assert code == 0
    assert doc(out)["result"]["mu"] == 2
    assert reverify(out) == 0

    code, out, _ = run(["mu", W5, W5, "--constructive", "product-general"])
    assert code == 0
    d = doc(out)
    assert d["result"]["parts"] == 4 and d["result"]["mu_interval"] == [2, 4]

    code, out, _ = run(["mu", W5, C5, "--constructive", "product-tight",
                        "--split", SPLIT_C5])
    assert code == 0
    assert doc(out)["result"]["mu"] == 2
    assert reverify(out) == 0


def test_mu_constructive_min_product():
    code, out, _ = run(["mu", W5, W5, "--constructive", "min-product"])
    assert code == 0
    d = doc(out)
    assert d["result"]["parts"] == 3
    assert d["result"]["mu"] is None and d["result"]["mu_interval"] == [2, 3]
    assert reverify(out) == 0
    code2, out2, _ = run(["mu", W5, W5, "--constructive", "min-product", "--root", "3"])
    assert code2 == 0 and doc(out2)["result"]["parts"] == 3


def test_lex_product_complete():
    code, out, _ = run(["lex", "product", "A_", "A_", "--format", "g6"])
    assert code == 0
    assert out.strip() == "C~"


def test_lex_power_extremal():
    for host, k, structure in [
        (H8, 2, {"outer_n": 8, "inner_n": 8, "chain": [8, 8]}),
        (C5, 1, {"outer_n": 5, "inner_n": 1, "chain": [5]}),
        (C5, 3, {"outer_n": 5, "inner_n": 25, "chain": [5, 5, 5]}),
    ]:
        code, out, _ = run(["lex", "power", host, "--k", str(k)])
        assert code == 0
        d = doc(out)
        assert parse_graph(d["result"]["graph6"]).n == structure["outer_n"] ** k
        assert d["result"]["structure"] == structure


def test_lex_options_may_come_before_the_graphs():
    for argv, inputs in [
        (["lex", "power", "--k", "3"], [C5]),
        (["lex", "map", "--edges", "[]"], ["A_", "A_"]),
    ]:
        results = [run(argv + inputs + ["--format", "g6"]),
                   run(argv[:2] + inputs + argv[2:] + ["--format", "g6"])]
        assert results[0] == results[1] and results[0][0] == 0, argv


def test_lex_map_empty_and_sidecar(tmp_path):
    side = tmp_path / "structure.json"
    code, out, _ = run(["lex", "map", "A_", "A_", "--edges", "[]",
                        "--format", "g6", "--sidecar", str(side)])
    assert code == 0
    g = parse_graph(out.strip())
    assert g.n == 4 and g.edge_count() == 0
    st = json.loads(side.read_text())
    assert st == {"outer_n": 2, "inner_n": 2, "chain": [2, 2], "outer_edges": []}


def test_lex_sidecar_that_cannot_be_written_is_an_input_error(tmp_path):
    side = tmp_path / "missing" / "s.json"
    code, out, err = run(["lex", "product", "A_", "A_", "--sidecar", str(side)])
    assert code == 2 and out == ""
    assert "Traceback" not in err and "--sidecar" in err


def test_lex_special_structure():
    fills = json.dumps([[[0, 1]], [[1, 2]], [], [], []])
    code, out, _ = run(["lex", "special", C5, "Ch",
                        "--edges", "[[0,1],[1,2]]", "--fills", fills])
    assert code == 0
    st = doc(out)["result"]["structure"]
    assert st["outer_edges"] == [[0, 1], [1, 2]]
    assert st["fills"][0] == [[0, 1]] and st["fills"][2] == []


def test_lex_dot_output():
    code, out, _ = run(["lex", "product", "A_", "A_", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph G {") and "0 -- 1;" in out


def test_eta_values():
    for g6, value in [(W5, 5), ("E~~w", 6), (H8, 6)]:
        code, out, _ = run(["eta", g6])
        assert code == 0
        assert doc(out)["result"]["eta"] == value
    code, out, _ = run(["eta", H8])
    assert doc(out)["result"]["witness"] == [0, 1, 2, 3, 4, 6]


def test_eta_blockers_roundtrip():
    code, out, _ = run(["eta", H8, "--blockers"])
    assert code == 0
    d = doc(out)
    assert len(d["result"]["blockers"]) == 8
    witness_records = [c for c in d["certificates"]
                       if c["kind"] == "non-representable-witness"]
    assert len(witness_records) == 8
    assert reverify(out) == 0


def test_bound_command_and_seeding():
    code, out, _ = run(["bound", H8, "--k", "2", "--cap", "6"])
    assert code == 0
    d = doc(out)
    assert d["result"] == {
        "k": 2, "cap": 6, "bound": 36, "eta_base": None, "supervertices_checked": 8,
    }
    code2, out2, _ = run(["bound", H8, "--k", "2", "--cap", "6"])
    a, b = doc(out), doc(out2)
    a.pop("timing"), b.pop("timing")
    assert a == b
    # the block check covers every selection, so nothing is left to seed
    code3, _, _ = run(["bound", H8, "--k", "2", "--cap", "6", "--seed", "7"])
    assert code3 == 2


def test_each_option_belongs_to_the_command_that_reads_it():
    _, document, _ = run(["check", "--wr", C5])
    commands = {
        "check": ["check", "--wr", C5],
        "mu": ["mu", W5],
        "lex": ["lex", "product", "A_", "A_"],
        "eta": ["eta", C5],
        "bound": ["bound", H8, "--k", "2", "--cap", "6"],
        "verify": ["verify", document],
    }
    for name, argv in commands.items():
        foreign = [["--seed", "5"], ["--samples", "5"]]
        if name != "mu":
            foreign.append(["--budget", "3"])
        if name != "lex":
            foreign.append(["--format", "json"])
        for flags in foreign:
            code, _, err = run(argv + flags)
            assert code == 2 and "unrecognized arguments" in err, (argv, flags)
    # within mu and lex, each mode refuses the options it never reads; the
    # values are cheap to reject where the mode does read them
    values = {"--k": "0", "--split": "x", "--root": "99", "--budget": "0", "--edges": "x", "--fills": "x"}
    modes = {
        ("mu", C5): {"--budget"},
        ("mu", C5, C5, "--constructive", "product-two"): set(),
        ("mu", C5, "--constructive", "power"): {"--k"},
        ("mu", C5, "--constructive", "power-comparability"): {"--k", "--split"},
        ("mu", C5, C5, "--constructive", "product-general"): {"--budget"},
        ("mu", C5, C5, "--constructive", "product-tight"): {"--split", "--budget"},
        ("mu", C5, C5, "--constructive", "min-product"): {"--root"},
        ("lex", "product", "A_", "A_"): set(),
        ("lex", "power", "A_"): {"--k"},
        ("lex", "map", "A_", "A_"): {"--edges"},
        ("lex", "special", "A_", "A_"): {"--edges", "--fills"},
    }
    options = {"mu": ("--k", "--split", "--root", "--budget"), "lex": ("--k", "--edges", "--fills")}
    for argv, reads in modes.items():
        for flag in options[argv[0]]:
            code, out, err = run(list(argv) + [flag, values[flag]])
            assert ("does not apply" in err) == (flag not in reads), (argv, flag, err)
            if flag not in reads:
                assert code == 2 and out == "", (argv, flag)
    # the defaults still stand in for an option not given
    assert doc(run(["mu", C5, "--constructive", "power"])[1])["result"]["parts"] == 2
    assert run(["lex", "power", "A_", "--format", "g6"])[1].strip() == encode_graph6(complete_graph(4))


def test_each_mode_takes_its_number_of_graphs():
    counts = {
        ("mu",): 1,
        ("mu", "--constructive", "product-two"): 2,
        ("mu", "--constructive", "power"): 1,
        ("mu", "--constructive", "power-comparability"): 1,
        ("mu", "--constructive", "product-general"): 2,
        ("mu", "--constructive", "product-tight"): 2,
        ("mu", "--constructive", "min-product"): 2,
        ("lex", "product"): 2,
        ("lex", "power"): 1,
        ("lex", "map"): 2,
        ("lex", "special"): 2,
    }
    assert {m[-1] for m in counts if m[0] == "mu" and len(m) > 1} == set(cli._MU_READS) - {None}
    assert {m[1] for m in counts if m[0] == "lex"} == set(cli._LEX_READS)
    for mode, count in counts.items():
        # mu's mode flag goes after the inputs, lex's operation before them
        head, tail = (mode[:1], mode[1:]) if mode[0] == "mu" else (mode, ())
        # the extra input is `-` on an empty stdin, which would fail as an
        # empty graph if it were read, so the count is checked first
        for inputs in ([C5] * (count - 1), [C5] * count + ["-"]):
            code, out, err = run([*head, *inputs, *tail], stdin="")
            assert code == 2 and out == "", (mode, inputs)
            if inputs or mode[0] == "mu":  # argparse itself refuses a lex op with no graph
                assert f"takes {count} graph" in err and f"not {len(inputs)}" in err, (mode, err)
    code, out, err = run(["mu", C5, C5])
    assert code == 2 and out == "" and "--constructive" in err
    code, out, err = run(["mu"])
    assert code == 2 and out == "" and "--constructive" not in err


def test_verify_rejects_broken_orientation():
    _, out, _ = run(["check", "--comparability", "Bw"])
    tampered = doc(out)
    arcs = tampered["certificates"][0]["arcs"]
    # reversing the transitive closure arc leaves 2 -> 0 -> 1 with no 2 -> 1
    idx = arcs.index([0, 2])
    arcs[idx] = [2, 0]
    code, text, err = run(["verify", json.dumps(tampered)])
    assert code == 1
    assert "not transitive" in err
    assert doc(text)["valid"] is False


def test_verify_names_uncovered_edge():
    _, out, _ = run(["mu", W5])
    tampered = doc(out)
    part = tampered["certificates"][0]["parts"][0]
    lost = part["edges"].pop()
    part["certificate"]["arcs"] = [a for a in part["certificate"]["arcs"]
                                   if sorted(a) != sorted(lost)]
    code, _, err = run(["verify", json.dumps(tampered)])
    assert code == 1
    assert "covered by no part" in err and str(tuple(lost)) in err


def test_verify_refuses_a_part_certified_by_a_word():
    # a valid word for the part's edges is still no orientation of them
    _, out, _ = run(["mu", W5])
    tampered = doc(out)
    rec = tampered["certificates"][0]
    part = rec["parts"][0]
    g = Graph.from_edges(6, [tuple(e) for e in part["edges"]])
    part["certificate"] = {"kind": "word", "letters": list(find_word(g))}
    assert word_represents(part["certificate"]["letters"], g)
    code, text, err = run(["verify", json.dumps(tampered)])
    assert code == 1
    assert doc(text)["failures"][0] == "certificate 0: part 0: a part needs an orientation certificate"


def test_verify_rejects_false_witness():
    bogus = {
        "schema_version": "1",
        "host": C5,
        "command": "check --wr",
        "result": {"wr": False},
        "certificates": [{"kind": "non-representable-witness",
                          "vertices": [0, 1, 2, 3, 4]}],
        "timing": 0,
    }
    code, _, err = run(["verify", json.dumps(bogus)])
    assert code == 1
    assert "representable subgraph" in err


def test_verify_rejects_scrambled_word():
    _, out, _ = run(["check", "--wr", "DUW"])
    tampered = doc(out)
    for rec in tampered["certificates"]:
        if rec["kind"] == "word":
            rec["letters"] = rec["letters"][::-1][:3]
    code, _, err = run(["verify", json.dumps(tampered)])
    assert code == 1
    assert "word" in err


def test_input_errors_exit_two():
    assert run(["check", "--wr", "!!bad"])[0] == 2
    assert run(["verify", "{not json"])[0] == 2
    assert run(["lex", "power", C5, "--k", "0"])[0] == 2
    assert run(["check", "--wr", C5, "--format", "g6"])[0] == 2
    assert run(["mu", C5, W5])[0] == 2
    assert run(["mu", C5, "--constructive", "power-comparability", "--k", "2"])[0] == 2
    assert run(["frobnicate"])[0] == 2


TAMPERED_COVERS = (
    ["mu", W5, C5, "--constructive", "product-tight", "--split", SPLIT_C5],
    ["mu", W5, W5, "--constructive", "min-product"],
    ["mu", C5, "--constructive", "power", "--k", "2"],
)


@functools.lru_cache(maxsize=None)
def cover_document(i: int) -> str:
    code, out, _ = run(TAMPERED_COVERS[i])
    assert code == 0
    return out


@settings(database=None, deadline=None)
@given(data=st.data())
def test_verify_rejects_any_single_deleted_arc_or_edge(data):
    # reversing an arc is not tested: the result can still be a valid
    # semi-transitive orientation of the part
    tampered = doc(cover_document(data.draw(st.integers(0, len(TAMPERED_COVERS) - 1))))
    rec = next(r for r in tampered["certificates"] if r["kind"] == "decomposition")
    part = data.draw(st.sampled_from(rec["parts"]))
    items = data.draw(st.sampled_from([part["edges"], part["certificate"]["arcs"]]))
    del items[data.draw(st.integers(0, len(items) - 1))]
    assert run(["verify", json.dumps(tampered)])[0] == 1


def test_verify_caps_the_lower_bound_search(monkeypatch):
    # a bound above 2 re-runs the cover search on a witness the document
    # picks, so that search has a step budget, and a spent budget exits 3,
    # not 1
    tampered = doc(cover_document(1))
    rec = next(r for r in tampered["certificates"] if r["kind"] == "decomposition")
    rec["lower_bound"] = 3
    # the first supervertex, a wheel, plus four or five more: two parts
    # cover it, at any witness size
    for size in (10, 11):
        rec["lower_bound_witness"] = list(range(size))
        code, _, err = run(["verify", json.dumps(tampered)])
        assert code == 1 and "needs only 2 parts" in err
    monkeypatch.setattr(decomposition, "_VERIFY_BUDGET", 1)
    code, _, err = run(["verify", json.dumps(tampered)])
    assert code == 3 and "budget exhausted" in err and "all 1 steps" in err


def test_verify_caps_witness_records():
    # a witness record names the subgraph verify decides, which is decided
    # under a step budget at any size, like a lower-bound witness
    bogus = {
        "schema_version": "1",
        "host": encode_graph6(path_graph(12)),
        "command": "check --wr",
        "result": {"wr": False},
        "certificates": [{"kind": "non-representable-witness", "vertices": list(range(11))}],
        "timing": 0,
    }
    for size in (11, 5):
        bogus["certificates"][0]["vertices"] = list(range(size))
        code, _, err = run(["verify", json.dumps(bogus)])
        assert code == 1 and "representable subgraph" in err
    # comparability is re-decided in polynomial time at any size: C11 is a
    # minimal non-comparability graph, so its witness is all 11 vertices
    code, out, _ = run(["check", "--comparability", encode_graph6(cycle_graph(11))])
    assert code == 0 and len(doc(out)["result"]["witness"]) == 11
    code, _, err = run(["verify", "-"], stdin=out)
    assert code == 0


def claim(host: Graph, certificates: list[dict]) -> str:
    """A hand-written document naming `certificates` about `host`."""
    return json.dumps({"schema_version": "1", "host": encode_graph6(host), "command": "check",
                       "result": {}, "certificates": certificates, "timing": 0})


def mycielskian(g: Graph) -> Graph:
    """g plus a shadow n + i of every vertex i, joined to i's neighbours,
    plus one vertex joined to every shadow: triangle-free when g is, with
    one more colour."""
    n, es = g.n, g.edges()
    shadows = [(i, n + j) for i, j in es] + [(j, n + i) for i, j in es]
    return Graph.from_edges(2 * n + 1, es + shadows + [(n + i, 2 * n) for i in range(n)])


def mycielskian_m6() -> Graph:
    """M6, the third Mycielskian of C5: 47 vertices, triangle-free, six
    colours."""
    g = cycle_graph(5)
    for _ in range(3):
        g = mycielskian(g)
    return g


def test_verify_decides_no_large_triangle_free_witness():
    # M7, the fourth Mycielskian of C5: 95 vertices, triangle-free, so no
    # vertex has an edge in its neighbourhood and none refuses it. Deciding
    # the witness would be an orientation search the document picked.
    m6 = mycielskian_m6()
    m7 = mycielskian(m6)
    assert (m6.n, m7.n) == (47, 95)
    bound = {"kind": "decomposition", "provenance": "search", "parts": [],
             "lower_bound": 2, "lower_bound_witness": list(range(95))}
    # with no parts, the uncovered edges are a definite failure
    proc = child(["verify", "-"], stdin=claim(m7, [bound]), timeout=10)
    assert proc.returncode == 1 and "covered by no part" in proc.stderr

    def colour_parts(g: Graph) -> list[dict]:
        return [{"edges": [list(e) for e in o.host.edges()],
                 "certificate": {"kind": "semi-transitive-orientation", "arcs": [list(a) for a in o.arcs()]}}
                for o in recognition._colour_cover(g)]

    # with a verified cover, only the bound is left, and its search runs out
    # of steps
    bound["parts"] = colour_parts(m7)
    proc = child(["verify", "-"], stdin=claim(m7, [bound]), timeout=10)
    assert proc.returncode == 3 and "all 50000 steps of its budget" in proc.stderr
    # M6's search ends within the budget, so its bound verifies
    bound.update(parts=colour_parts(m6), lower_bound_witness=list(range(47)))
    proc = child(["verify", "-"], stdin=claim(m6, [bound]), timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_mu_covers_the_mycielskian_of_six_colours_with_no_search():
    # M6 is not representable, and its greedy colouring has at most 9
    # colours, so its base-3 colouring cover settles μ = 2 exactly
    m6 = mycielskian_m6()
    r = recognition.mu_exact(m6)
    assert (r.value, r.status) == (2, "exact")
    assert not recognition.verify_decomposition(m6, r)


def test_product_covers_over_the_mycielskian_answer_at_once():
    # a product construction reads only its factors' parts, so M6, whose
    # triangle-free witness would be a shrink over all 47 vertices, is
    # covered by its colouring parts alone; C5's cone bounds the product
    m6 = encode_graph6(mycielskian_m6())
    for form, interval in ((["product-tight", "--split", SPLIT_C5], [2, 2]),
                           (["product-general"], [2, 3])):
        made = child(["mu", m6, C5, "--constructive", *form], timeout=30)
        assert made.returncode == 0, made.stderr
        assert json.loads(made.stdout)["result"]["mu_interval"] == interval
        checked = child(["verify", "-"], stdin=made.stdout, timeout=30)
        assert checked.returncode == 0, checked.stderr


def test_product_general_builds_no_factor_witness(monkeypatch):
    # W5 is not representable, but the construction never asks why
    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_COMP_MEMO", recognition._Memo())
    witnessed = record_calls(monkeypatch, recognition, "_wr_witness")
    code, out, _ = run(["mu", W5, C5, "--constructive", "product-general"])
    assert code == 0 and doc(out)["result"]["mu_interval"] == [2, 3]
    assert witnessed == []


def test_one_witness_verifies_alike_in_every_document():
    # the Grötzsch graph is minimal non-representable on 11 vertices and
    # triangle-free; `check --wr` and `mu` name it whole, and `verify`
    # re-decides the witness record and the lower bound alike, by a search
    # well within its budget
    grotzsch = "JhdLA_gc?N_"
    code, checked, _ = run(["check", "--wr", grotzsch])
    assert code == 0
    code, covered, _ = run(["mu", grotzsch])
    assert code == 0
    witness = doc(checked)["result"]["witness"]
    assert doc(covered)["certificates"][0]["lower_bound_witness"] == witness == list(range(11))
    assert run(["verify", "-"], stdin=checked)[0] == run(["verify", "-"], stdin=covered)[0] == 0


def test_min_product_of_grotzsch_graphs_verifies():
    # the paper's three-part cover of two minimal non-representable
    # factors, whose bound-2 witness is a whole Grötzsch supervertex
    grotzsch = "JhdLA_gc?N_"
    code, out, err = run(["mu", grotzsch, grotzsch, "--constructive", "min-product"])
    assert code == 0, err
    assert doc(out)["result"]["mu_interval"] == [2, 3]
    assert reverify(out) == 0


def test_product_two_cone_verifies_without_a_large_decision(monkeypatch):
    # K2 over C11: the lower-bound witness is one 11-cycle plus a vertex of
    # the other supervertex, which sees all of it and so refuses the set
    # before any search
    code, out, _ = run(["mu", encode_graph6(complete_graph(2)), encode_graph6(cycle_graph(11)),
                        "--constructive", "product-two"])
    assert code == 0
    rec = doc(out)["certificates"][0]
    assert rec["lower_bound"] == 2 and len(rec["lower_bound_witness"]) == 12
    searched = record_calls(monkeypatch, recognition, "_semi_transitive_search")
    assert reverify(out) == 0
    assert searched == []


def test_product_over_a_large_minimal_factor_verifies_by_its_cone():
    # the Grötzsch graph's own witness is all 11 vertices, and none of them
    # refuses it; a cross neighbour over its supervertex does
    code, out, err = run(["mu", encode_graph6(complete_graph(2)), "JhdLA_gc?N_",
                          "--constructive", "product-general"])
    assert code == 0, err
    assert doc(out)["certificates"][0]["lower_bound_witness"] == list(range(12))
    assert reverify(out) == 0


def test_verify_reports_a_failure_past_a_hit_cap(monkeypatch):
    # with a 10-step budget verify cannot decide the triangle-free Grötzsch
    # graph, which no vertex refuses; a definitely broken record elsewhere
    # still exits 1
    monkeypatch.setattr(recognition, "_VERIFY_BUDGET", 10)
    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    capped = {"kind": "non-representable-witness", "vertices": list(range(11))}
    broken = {"kind": "semi-transitive-orientation", "arcs": [[0, 2]]}
    grotzsch = parse_graph("JhdLA_gc?N_")
    assert not grotzsch.has_edge(0, 2)
    code, out, err = run(["verify", claim(grotzsch, [capped, broken])])
    assert code == 1 and "certificate 1" in err
    assert doc(out)["failures"] == ["certificate 1: malformed record: arc (0, 2) is not an edge of the host"]
    code, _, err = run(["verify", claim(grotzsch, [capped])])
    assert code == 3 and "all 10 steps" in err
    # a cover with no parts fails whatever its bound-3 witness would give
    bound = {"kind": "decomposition", "provenance": "search", "parts": [],
             "lower_bound": 3, "lower_bound_witness": list(range(11))}
    code, _, err = run(["verify", claim(grotzsch, [bound])])
    assert code == 1 and "covered by no part" in err


def test_check_minimal_names_a_proper_core():
    # a planted wheel is not minimal, so the inclusion-minimal witness
    # `wr_decide` finds is a proper subset of the host
    rng = random.Random(20261019)
    for n in range(7, 13):
        g = planted_w5(rng, n)
        code, out, _ = run(["check", "--minimal", encode_graph6(g)])
        assert code == 0
        d = doc(out)
        assert d["result"]["minimal_non_wr"] is False
        [rec] = d["certificates"]
        assert rec == {"kind": "non-representable-witness",
                       "vertices": list(recognition.wr_decide(g)[1].payload)}
        assert set(rec["vertices"]) < set(range(n))
        assert reverify(out) == 0


WORD_HOSTS = ("DUW", C5, "C~", "HAjvABL")


@functools.lru_cache(maxsize=None)
def word_document(i: int) -> str:
    code, out, _ = run(["check", "--wr", WORD_HOSTS[i]])
    assert code == 0
    return out


@settings(database=None, deadline=None)
@given(data=st.data())
def test_verify_accepts_a_tampered_word_exactly_when_it_represents(data):
    # some single-letter edits still represent the host, so the expected
    # verdict comes from the trusted checker
    tampered = doc(word_document(data.draw(st.integers(0, len(WORD_HOSTS) - 1))))
    host = parse_graph(tampered["host"])
    letters = next(r for r in tampered["certificates"] if r["kind"] == "word")["letters"]
    edit = data.draw(st.sampled_from(["change", "insert", "delete"]))
    at = data.draw(st.integers(0, len(letters) - (edit != "insert")))
    if edit == "delete":
        del letters[at]
    else:
        letter = data.draw(st.integers(0, host.n - 1))
        if edit == "change":
            letters[at] = letter
        else:
            letters.insert(at, letter)
    try:
        valid = word_represents(letters, host)
    except InputError:  # a deleted letter's last copy
        valid = False
    assert run(["verify", json.dumps(tampered)])[0] == (0 if valid else 1)


def test_internal_fault_exits_four(monkeypatch):
    # a search returning an orientation its own checker rejects is an
    # internal fault, not a failed verification of the input
    p4 = path_graph(4)
    broken = Orientation.from_arcs(p4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(recognition, "_COMP_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_find_transitive", lambda g: broken)
    code, out, err = run(["check", "--comparability", encode_graph6(p4)])
    assert code == 4 and out == ""
    assert err.startswith("internal error:")


def test_file_and_stdin_input(tmp_path):
    path = tmp_path / "graph.g6"
    path.write_text(W5 + "\n")
    code, out, _ = run(["eta", str(path)])
    assert code == 0 and doc(out)["result"]["eta"] == 5
    code, out, _ = run(["eta", "-"], stdin=W5 + "\n")
    assert code == 0 and doc(out)["result"]["eta"] == 5


def readme_commands() -> list[list[list[str]]]:
    """The commands in the README's CLI block, each as the argument lists of
    its pipeline stages with the leading `wordrep` dropped."""
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        stages: list[list[str]] = [[]]
        for w in words:
            if w == "|":
                stages.append([])
            else:
                stages[-1].append(w)
        assert all(stage[0] == "wordrep" for stage in stages), line
        commands.append([stage[1:] for stage in stages])
    return commands


def test_readme_cli_commands_succeed():
    commands = readme_commands()
    assert commands
    for stages in commands:
        out = None
        for argv in stages:
            code, out, err = run(argv, stdin=out)
            assert code == 0, (argv, err)


def test_documents_are_deterministic():
    _, a, _ = run(["eta", H8, "--blockers"])
    _, b, _ = run(["eta", H8, "--blockers"])
    da, db = doc(a), doc(b)
    da.pop("timing"), db.pop("timing")
    assert da == db


def child_env() -> dict:
    """An environment in which a fresh interpreter finds the package where
    this process found it, installed or not."""
    path = [str(Path(wordrep.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def child(argv: list[str], stdin: str | None = None, timeout: float = 30) -> subprocess.CompletedProcess:
    """Run `python -m wordrep` in a fresh interpreter, capturing its text."""
    return subprocess.run([sys.executable, "-m", "wordrep", *argv], input=stdin, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_module_entry_point():
    proc = child(["check", "--wr", "DUW"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["wr"] is True


def test_check_wr_decides_the_64_vertex_power(monkeypatch):
    # vertex 0 refuses the power: its neighbourhood holds a 5-vertex
    # non-comparability set, which with 0 is the witness, so the greedy
    # shrink never runs on the 64-vertex graph
    code, power, _ = run(["lex", "power", H8, "--k", "2", "--format", "g6"])
    assert code == 0
    host = parse_graph(power.strip())
    assert host.n == 64
    shrunk = record_calls(monkeypatch, recognition, "_shrink_witness")
    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_COMP_MEMO", recognition._Memo())
    code, out, _ = run(["check", "--wr", "-"], stdin=power)
    assert code == 0
    d = doc(out)
    assert d["host"] == power.strip()
    assert d["result"] == {"wr": False, "witness": [0, 42, 43, 44, 45, 46]}
    assert host not in shrunk
    assert reverify(out) == 0


def test_long_path_round_trip_stays_small():
    # a path is a comparability graph, so its word is a few linear
    # extensions; apart from the graph6 host (n(n-1)/12 bytes), the
    # document stays under 100 kB and `verify` reads it in one scan
    host = encode_graph6(path_graph(1100))
    made = child(["check", "--wr", "-"], stdin=host, timeout=30)
    assert made.returncode == 0, made.stderr
    assert len(made.stdout) - len(host) < 100_000
    d = json.loads(made.stdout)
    assert d["result"]["wr"] is True and len(d["result"]["word"]) <= 4 * 1100
    checked = child(["verify", "-"], stdin=made.stdout, timeout=30)
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout == '{"valid":true}\n'


def test_documents_are_one_line(tmp_path):
    sidecar = tmp_path / "structure.json"
    for argv in (["check", "--wr", "DUW"], ["mu", W5],
                 ["lex", "product", C5, "Bw", "--sidecar", str(sidecar)]):
        code, out, _ = run(argv)
        assert code == 0 and out.count("\n") == 1 and ", " not in out
        code, text, _ = run(["verify", "-"], stdin=out)
        assert code == 0 and text == '{"valid":true}\n'
    assert sidecar.read_text() == '{"outer_n":5,"inner_n":3,"chain":[5,3]}\n'


def test_tight_product_over_a_large_outer_factor_verifies_by_its_cone():
    # the Grötzsch graph needs 2 parts and its own witness is all 11
    # vertices, which no vertex refuses; C5 is not a comparability graph, so
    # a supervertex plus a cross neighbour is the product's witness
    code, out, err = run(["mu", "JhdLA_gc?N_", C5, "--constructive", "product-tight",
                          "--split", SPLIT_C5])
    assert code == 0, err
    rec = doc(out)["certificates"][0]
    assert (rec["lower_bound"], rec["lower_bound_witness"]) == (2, list(range(6)))
    assert doc(out)["result"]["mu"] == 2
    assert reverify(out) == 0


def test_check_wr_witness_fits_the_verify_cap(monkeypatch):
    # W11 with its hub indexed first, plus a disjoint W5: the first refusing
    # vertex is W11's hub, so the witness is its cone, all 12 vertices of
    # W11, and the hub refuses it again in `verify` with no search
    w11 = [(0, i) for i in range(1, 12)] + [(i, i % 11 + 1) for i in range(1, 12)]
    w5 = [(u + 12, v + 12) for u, v in wheel_graph(5).edges()]
    host = encode_graph6(Graph.from_edges(18, w11 + w5))
    code, out, _ = run(["check", "--wr", host])
    assert code == 0
    d = doc(out)
    assert d["result"]["wr"] is False
    assert d["result"]["witness"] == list(range(12))
    searched = record_calls(monkeypatch, recognition, "_semi_transitive_search")
    assert reverify(out) == 0
    assert searched == []


def test_closed_stdout_exits_141_without_traceback():
    # the reader is gone before the child writes, like `... | head -c 0`
    proc = subprocess.Popen([sys.executable, "-m", "wordrep", "mu", C5, "--constructive", "power", "--k", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == ""


def test_budgeted_mu_stops_at_the_colouring_bound():
    # W5 over W5 has 36 vertices and greedily takes 16 colours, so
    # ⌈log₃ 16⌉ = 3 parts cover it; a budgeted search tries only 2 parts,
    # is cut short, and the colouring cover answers as an upper bound
    host = encode_graph6(lex_product(wheel_graph(5), wheel_graph(5)).graph)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "wordrep", "mu", host, "--budget", "500"],
                          env=child_env(), capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert doc(proc.stdout)["result"] == {"mu": 3, "status": "upper-bound", "parts": 3}
    assert reverify(proc.stdout) == 0
