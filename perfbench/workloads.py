"""Seeded instances with known answers, and the calls that solve and check them.

Every generator yields *rounds*: lists of instances, one per stratum of the
workload. A run solves whole rounds, so every run sees the same mix of
instance kinds and sizes and only the random graphs change with the seed.
Each instance carries the answer it must get, known by construction:

* a graph with an induced W5 (the 6-vertex wheel) is neither representable
  nor a comparability graph, because both properties are hereditary;
* the graph of a word is represented by that word;
* permutation graphs, paths and trees are comparability graphs, and hence
  representable.

This module imports `wordrep`, so only the worker process loads it; the
orchestrator in run.py never does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from wordrep import (
    SEMI_TRANSITIVE,
    WORD,
    Graph,
    Orientation,
    check_semi_transitive,
    comparability_decide,
    encode_graph6,
    eta,
    extremal8,
    graph_of_word,
    induced_subgraph,
    is_minimal_non_wr,
    lex_power,
    mu_exact,
    parse_graph,
    path_graph,
    verify_certificate,
    verify_decomposition,
    wheel_graph,
    word_represents,
    wr_decide,
)

C5 = "Dhc"
W5 = "Ehfw"
H8 = "G|fJH{"  # extremal8()
SPLIT_C5 = "[[[0,1],[1,2]],[[2,3],[3,4],[0,4]]]"

# The first representable draw of G(9, 1/2) from random.Random(9) (edges
# drawn in (i, j), i < j order) whose shortest uniform word needs three
# copies of each letter. `check --wr` spends seconds in the word search on
# it; a seeded 9-vertex draw would cost anywhere from 0.03 s to 15 s
# depending on the draw and its labeling, too wide to measure in one run.
WORD_SEARCH_ANCHOR = "HAjvABL"

DECIDE_SIZES = {
    "planted-w5": (10, 11, 12, 13),
    "word2": (16, 17, 18, 19),
    "word3": (19, 20, 21, 22),
    "permutation": (16, 20, 25, 30),
    "tree": (200,),
}
PATH_SIZES = (150, 250)  # inclusive range; see _decide_round
# Cover costs per draw vary with a coefficient of variation near 0.6; at
# n = 11 a draw takes 0.5-2.6 s, too few of which fit in a run to average
# out. n = 11 is therefore a pinned anchor (the first draw from
# random.Random(11)), and the seeded draws stay at n = 8-10. n = 9 comes
# twice per round so that the median instance falls inside one size class.
COVER_SIZES = (8, 9, 9, 10)
COVER_ANCHOR_SEED, COVER_ANCHOR_N = 11, 11

TINY_DECIDE_SIZES = {
    "planted-w5": (7, 8),
    "word2": (8,),
    "word3": (9,),
    "permutation": (8,),
    "tree": (20,),
}
TINY_PATH_SIZES = (20, 30)
TINY_COVER_SIZES = (7,)


class WrongAnswer(Exception):
    """A verdict differs from the known answer, or a certificate fails its
    trusted checker. Either one makes the benchmark exit non-zero."""


@dataclass
class Instance:
    kind: str
    size: int
    expected: dict  # result field -> exact value, or (low, high) range
    graph: Optional[Graph] = None
    calls: tuple = ()  # library calls, for in-process workloads
    argv: list = field(default_factory=list)  # CLI arguments, for roundtrip
    stdin: Optional[str] = None
    cap_s: Optional[float] = None  # per-command time limit
    known_hard: bool = False  # missing the cap is an expected, counted miss


def check_expected(inst: Instance, got: dict) -> None:
    for key, want in inst.expected.items():
        have = got.get(key)
        if isinstance(want, tuple):
            ok = isinstance(have, int) and want[0] <= have <= want[1]
        else:
            ok = have == want
        if not ok:
            raise WrongAnswer(f"{inst.kind} n={inst.size}: {key} = {have!r}, expected {want!r}")


def inject_wrong_verdict(inst: Instance) -> None:
    """Corrupt the first expected field so that a correct program fails the
    gate; the smoke test uses it to prove the gate fires."""
    key, want = next(iter(inst.expected.items()))
    if isinstance(want, bool):
        inst.expected[key] = not want
    elif isinstance(want, tuple):
        inst.expected[key] = (want[1] + 1, want[1] + 1)
    else:
        inst.expected[key] = want + 1


def _require(diags: list, what: str) -> None:
    if diags:
        raise WrongAnswer(f"{what}: {diags[0]}")


# ── generators ────────────────────────────────────────────────────────────


def _gnp(rng: random.Random, n: int) -> set:
    return {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}


def planted_w5(rng: random.Random, n: int) -> Graph:
    """W5 on six random vertices, and random edges elsewhere up to exactly
    half of all pairs (the G(n, M) model). The search cost grows steeply
    with the edge count, so fixing it removes the largest source of
    run-to-run spread that G(n, 1/2) would add."""
    spots = rng.sample(range(n), 6)
    wheel = {tuple(sorted((spots[a], spots[b]))) for a, b in wheel_graph(5).edges()}
    inside = set(spots)
    outside = [(i, j) for i in range(n) for j in range(i + 1, n)
               if not (i in inside and j in inside)]
    extra = rng.sample(outside, n * (n - 1) // 4 - len(wheel))
    return Graph.from_edges(n, sorted(wheel | set(extra)))


def word_graph(rng: random.Random, n: int, copies: int) -> Graph:
    word = [v for v in range(n) for _ in range(copies)]
    rng.shuffle(word)
    return graph_of_word(word, n)


def permutation_graph(rng: random.Random, n: int) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]]
    )


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def representable_gnp(rng: random.Random, n: int) -> Graph:
    """A G(n, 1/2) draw conditioned on representability. The condition is
    established by a semi-transitive orientation that passes the trusted
    checker, so the known answer rests on a certificate, not on trust."""
    while True:
        g = Graph.from_edges(n, sorted(_gnp(rng, n)))
        ok, cert = wr_decide(g)
        if ok:
            _require(verify_certificate(g, cert), "generator certificate")
            return g


# ── decide ────────────────────────────────────────────────────────────────


def _decide_round(rng: random.Random, r: int, path_offset: int, tiny: bool) -> list:
    sizes = TINY_DECIDE_SIZES if tiny else DECIDE_SIZES
    lo, hi = TINY_PATH_SIZES if tiny else PATH_SIZES

    def pick(kind: str) -> int:
        return sizes[kind][r % len(sizes[kind])]

    both = ("wr", "comparability")
    out = []
    n = pick("planted-w5")
    out.append(Instance("planted-w5", n, {"wr": False, "comparability": False},
                        planted_w5(rng, n), both))
    n = pick("word2")
    out.append(Instance("word2", n, {"wr": True}, word_graph(rng, n, 2), ("wr",)))
    n = pick("word3")
    out.append(Instance("word3", n, {"wr": True}, word_graph(rng, n, 3), ("wr",)))
    n = pick("permutation")
    out.append(Instance("permutation", n, {"wr": True, "comparability": True},
                        permutation_graph(rng, n), both))
    # Two paths per round, with natural labels, the slow case for the
    # orientation search. A stride coprime to the range length visits every
    # size once before repeating, so no path repeats (and hits the memo)
    # within a run, and every run covers the size range evenly whatever its
    # seed. The paths are the costliest quarter of the instances, which puts
    # the tail percentile on them; the two trees of one size hold the median.
    span = hi - lo + 1
    for half in (0, span // 2):
        n = lo + (path_offset + half + 37 * r) % span
        out.append(Instance("path", n, {"wr": True, "comparability": True},
                            path_graph(n), both))
    for _ in range(2):
        n = pick("tree")
        out.append(Instance("tree", n, {"wr": True, "comparability": True},
                            random_tree(rng, n), both))
    return out


def decide_rounds(seed: int, tiny: bool) -> Iterator[list]:
    rng = random.Random(seed)
    path_offset = rng.randrange(1 << 16)
    r = 0
    while True:
        yield _decide_round(rng, r, path_offset, tiny)
        r += 1


def solve_decide(inst: Instance) -> None:
    g = inst.graph
    got = {}
    if "wr" in inst.calls:
        ok, cert = wr_decide(g)
        got["wr"] = ok
        _require(verify_certificate(g, cert), f"{inst.kind} wr certificate")
    if "comparability" in inst.calls:
        ok, cert = comparability_decide(g)
        got["comparability"] = ok
        _require(verify_certificate(g, cert), f"{inst.kind} comparability certificate")
    check_expected(inst, got)


# ── cover ─────────────────────────────────────────────────────────────────


def cover_rounds(seed: int, tiny: bool) -> Iterator[list]:
    """Round 0 starts with the fixed anchors; every round then holds one
    planted-W5 graph per size."""
    rng = random.Random(seed)

    def planted(g: Graph) -> Instance:
        # mu >= 2 and eta < n because the graph is not representable,
        # eta >= 5 because every 5-vertex graph is, and the graph is not
        # minimal because deleting a vertex outside the wheel keeps it.
        n = g.n
        return Instance("planted-w5", n, {"mu": (2, n * n), "minimal": False, "eta": (5, n - 1)},
                        g, ("mu", "minimal", "eta"))

    anchors = [
        Instance("w5", 6, {"mu": 2, "minimal": True, "eta": 5}, wheel_graph(5),
                 ("mu", "minimal", "eta")),
        Instance("extremal8", 8, {"eta": 6}, extremal8(), ("eta",)),
    ]
    if not tiny:
        anchors.append(planted(planted_w5(random.Random(COVER_ANCHOR_SEED), COVER_ANCHOR_N)))
    sizes = TINY_COVER_SIZES if tiny else COVER_SIZES
    out = anchors
    while True:
        out += [planted(planted_w5(rng, n)) for n in sizes]
        yield out
        out = []


def solve_cover(inst: Instance) -> None:
    g = inst.graph
    got = {}
    if "mu" in inst.calls:
        r = mu_exact(g)
        if not r.exact:
            raise WrongAnswer(f"{inst.kind}: mu search did not finish exactly ({r.status})")
        got["mu"] = r.value
        _require(verify_decomposition(g, r), f"{inst.kind} mu cover")
    if "minimal" in inst.calls:
        got["minimal"] = is_minimal_non_wr(g)
    if "eta" in inst.calls:
        e = eta(g)
        got["eta"] = e.value
        if len(set(e.witness)) != e.value:
            raise WrongAnswer(f"{inst.kind}: eta witness has the wrong size")
        _require(verify_certificate(induced_subgraph(g, e.witness), e.certificate),
                 f"{inst.kind} eta witness")
    check_expected(inst, got)


# ── roundtrip ─────────────────────────────────────────────────────────────


COMMAND_LIMIT_S = 60.0
KNOWN_HARD_CAP_S = 2.0


def _cmd(kind: str, argv: list, expected: dict, stdin: Optional[str] = None,
         cap_s: float = COMMAND_LIMIT_S, known_hard: bool = False, size: int = 0) -> Instance:
    return Instance(kind, size, expected, argv=argv, stdin=stdin, cap_s=cap_s,
                    known_hard=known_hard)


def roundtrip_rounds(seed: int, tiny: bool) -> Iterator[list]:
    """The README's command-line flow, one child process per command.

    The fixed commands are the same in every round; each round draws fresh
    seeded graphs for `check --wr` and `check --comparability`. The two
    known-hard inputs run under KNOWN_HARD_CAP_S and are expected to miss it
    until the recognition defects they stand for are fixed.
    """
    rng = random.Random(seed)
    path_n = 60 if tiny else 1100
    powers = (2,) if tiny else (2, 3, 4)
    hard_cap = 1.0 if tiny else KNOWN_HARD_CAP_S
    square = encode_graph6(lex_power(extremal8(), 2).graph)
    long_path = encode_graph6(path_graph(path_n))
    while True:
        out = []
        for _ in range(2):
            g = representable_gnp(rng, 8)
            out.append(_cmd("check-wr-gnp", ["check", "--wr", encode_graph6(g)],
                            {"wr": True}, size=8))
        n = rng.choice((8, 9))
        out.append(_cmd("check-comparability-perm",
                        ["check", "--comparability", encode_graph6(permutation_graph(rng, n))],
                        {"comparability": True}, size=n))
        if not tiny:
            out.append(_cmd("check-wr-word-anchor", ["check", "--wr", WORD_SEARCH_ANCHOR],
                            {"wr": True}, size=9))
        out += [
            _cmd("check-comparability-w5", ["check", "--comparability", W5],
                 {"comparability": False}, size=6),
            _cmd("check-minimal-w5", ["check", "--minimal", W5], {"minimal_non_wr": True}, size=6),
            _cmd("mu-w5", ["mu", W5], {"mu": 2}, size=6),
        ]
        for k in powers:
            out.append(_cmd(f"mu-power-c5-k{k}", ["mu", C5, "--constructive", "power", "--k", str(k)],
                            {"parts": k, "lower_bound": 2, "verified": True}, size=5 ** k))
        out += [
            _cmd("mu-product-two", ["mu", C5, C5, "--constructive", "product-two"],
                 {"mu": 2, "verified": True}, size=25),
            _cmd("mu-product-tight",
                 ["mu", W5, C5, "--constructive", "product-tight", "--split", SPLIT_C5],
                 {"mu": 2, "verified": True}, size=30),
            _cmd("mu-min-product", ["mu", W5, W5, "--constructive", "min-product"],
                 {"parts": 3, "lower_bound": 2, "verified": True}, size=36),
            _cmd("lex-power", ["lex", "power", H8, "--k", "2"], {"graph6": square}, size=64),
            _cmd("eta-blockers", ["eta", H8, "--blockers"], {"eta": 6}, size=8),
            _cmd("bound", ["bound", H8, "--k", "2", "--cap", "6"], {"bound": 36}, size=8),
            # ROADMAP item 3: the 64-vertex power is not representable, but
            # the backtracking search does not finish on it.
            _cmd("known-hard-power64", ["check", "--wr", "-"], {"wr": False}, stdin=square,
                 cap_s=hard_cap, known_hard=True, size=64),
            # ROADMAP item 2: the recursive search on a long path is slow
            # and ends in a RecursionError.
            _cmd("known-hard-path", ["check", "--wr", "-"], {"wr": True}, stdin=long_path,
                 cap_s=hard_cap, known_hard=True, size=path_n),
        ]
        yield out


def check_document(inst: Instance, doc: dict) -> None:
    """Known-answer check of one CLI document, plus an in-process re-check
    of the orientation and word a `check --wr` document carries."""
    got = dict(doc.get("result", {}))
    check_expected(inst, got)
    if inst.argv[:2] != ["check", "--wr"] or not got.get("wr"):
        return
    host = parse_graph(doc["host"])
    for rec in doc.get("certificates", []):
        if rec.get("kind") == SEMI_TRANSITIVE:
            o = Orientation.from_arcs(host, [tuple(a) for a in rec["arcs"]])
            if not check_semi_transitive(o):
                raise WrongAnswer(f"{inst.kind}: orientation is not semi-transitive")
        elif rec.get("kind") == WORD:
            if not word_represents(rec["letters"], host):
                raise WrongAnswer(f"{inst.kind}: word does not represent the host")


WORKLOADS = {
    "decide": (decide_rounds, solve_decide),
    "cover": (cover_rounds, solve_cover),
    "roundtrip": (roundtrip_rounds, None),
}
