"""Command-line front end: graph ingestion, command dispatch, and JSON
certificate documents.

Every decision command prints one document, as one line of compact JSON
(shown spread out here)::

    {
      "schema_version": "1",
      "host": "<graph6>",
      "command": "check --wr",
      "result": {...},
      "certificates": [...],
      "timing": <milliseconds>
    }

Certificate records are self-contained claims about the host. Orientation
records carry "arcs" as [from, to] pairs sorted lexicographically; an
optional "scope" (an ascending list of host vertices) says the claim is
about the induced subgraph on those vertices, with arcs written in the
induced graph's positional labels. Witness records carry "vertices" in
host labels. A "decomposition" record bundles edge-cover parts plus the
certified lower bound and its witness set. Each part lists its "edges" and
carries an orientation certificate whose arcs cover exactly those edges;
a part certified any other way fails.

A `check --wr` word for a comparability graph is a concatenation of linear
extensions of its transitive orientation, with at most n copies per letter;
other representable graphs get up to 2n.

`verify` re-checks every record against the embedded host: orientations in
polynomial time, words in one scan of bitmask operations, witness sets by
deciding only the induced subgraph they name. A non-comparability witness
is decided in polynomial time. A non-representable witness, and the cover
search behind a lower bound above 2, are decided by the usual search
within 50,000 steps each, and exit 3 when those run out. It never
re-derives the host-level answer. Every record is checked, and a budget
that runs out in one exits 3 only when no record failed.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 a check's
search budget ran out before the claim was confirmed or refuted (plain `mu`
always answers), 4 internal error (a broken invariant or an exhausted
interpreter limit, never a verdict on the input), 141 (128 + SIGPIPE) the
reader closed standard output before the document was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .certificates import (
    SEMI_TRANSITIVE,
    TRANSITIVE,
    WITNESS,
    WORD,
    Certificate,
    Decomposition,
)
from .decomposition import (
    as_decomposition,
    decompose_min_nonwr_product,
    decompose_power_k,
    decompose_power_two_comparability,
    decompose_product_general,
    decompose_product_tight,
    decompose_product_two,
    decomposition_diagnostics,
)
from .errors import BudgetExceeded, InputError
from .extremal import eta, verify_power_bound
from .formats import encode_graph6, parse_graph, to_dot
from .graphs import Graph, Orientation, induced_subgraph
from .lexops import lex_map, lex_power, lex_product, special_subgraph
from .recognition import (
    comparability_decide,
    find_word,
    is_minimal_non_wr,
    mu_exact,
    verify_certificate,
    wr_decide,
)

_ORIENTATION_KINDS = (SEMI_TRANSITIVE, TRANSITIVE)
# Each mode of plain `mu` (None), each construction, and each `lex` operation:
# the number of graphs it reads and the options it reads. Any other of those
# options given is refused rather than ignored, and so is any other count.
_MU_READS = {
    None: (1, ("budget",)),
    "product-two": (2, ()),
    "power": (1, ("k",)),
    "power-comparability": (1, ("k", "split")),
    "product-general": (2, ("budget",)),
    "product-tight": (2, ("split", "budget")),
    "min-product": (2, ("root",)),
}
_LEX_READS = {
    "product": (2, ()),
    "power": (1, ("k",)),
    "map": (2, ("edges",)),
    "special": (2, ("edges", "fills")),
}


# ── input handling ────────────────────────────────────────────────────────


def _read_text(src: str) -> str:
    """stdin for '-', file contents for an existing path, else the literal."""
    if src == "-":
        return sys.stdin.read()
    try:
        p = Path(src)
        if p.is_file():
            return p.read_text()
    except (OSError, ValueError):
        pass
    return src


def _read_graph(src: str) -> Graph:
    text = _read_text(src)
    for line in text.splitlines():
        line = line.strip()
        if line:
            return parse_graph(line)
    raise InputError("empty graph input")


def _parse_edge_list(text: Optional[str], flag: str) -> list[tuple[int, int]]:
    if text is None:
        raise InputError(f"{flag} is required for this operation")
    try:
        raw = json.loads(text)
        return [(int(u), int(v)) for u, v in raw]
    except (ValueError, TypeError) as e:
        raise InputError(f"{flag} must be a JSON list of [u, v] pairs: {e}")


def _parse_edge_classes(
    text: Optional[str], flag: str, want: Optional[int] = None
) -> list[list[tuple[int, int]]]:
    if text is None:
        raise InputError(f"{flag} is required for this operation")
    try:
        raw = json.loads(text)
        classes = [[(int(u), int(v)) for u, v in cls] for cls in raw]
    except (ValueError, TypeError) as e:
        raise InputError(f"{flag} must be a JSON list of edge lists: {e}")
    if want is not None and len(classes) != want:
        raise InputError(f"{flag} needs exactly {want} edge lists, got {len(classes)}")
    return classes


# ── document emission ─────────────────────────────────────────────────────


def _sorted_arcs(o: Orientation) -> list[list[int]]:
    return sorted([u, v] for u, v in o.arcs())


def _sorted_edges(edges) -> list[list[int]]:
    return sorted([u, v] if u < v else [v, u] for u, v in edges)


def _cert_record(cert: Certificate, scope: Optional[Sequence[int]] = None) -> dict:
    rec: dict = {"kind": cert.kind}
    if scope is not None:
        rec["scope"] = [int(v) for v in scope]
    if cert.kind in _ORIENTATION_KINDS:
        rec["arcs"] = _sorted_arcs(cert.payload)
    elif cert.kind == WORD:
        rec["letters"] = [int(x) for x in cert.payload]
    else:
        rec["vertices"] = [int(v) for v in cert.payload]
    return rec


def _decomposition_record(d: Decomposition) -> dict:
    wit = None if d.lower_bound_witness is None else [int(v) for v in d.lower_bound_witness]
    return {
        "kind": "decomposition",
        "provenance": d.provenance,
        "parts": [
            {"edges": [list(e) for e in c.payload.host.edges()], "certificate": _cert_record(c)}
            for c in d.parts
        ],
        "lower_bound": d.lower_bound,
        "lower_bound_witness": wit,
    }


def _document(host: Graph, command: str, result: dict, certificates: list, t0: float) -> dict:
    return {
        "schema_version": "1",
        "host": encode_graph6(host),
        "command": command,
        "result": result,
        "certificates": certificates,
        "timing": int((time.perf_counter() - t0) * 1000),
    }


def _json(obj) -> str:
    """One line of compact JSON; the C encoder writes it, where indentation
    would fall back to the pure-Python one."""
    return json.dumps(obj, separators=(",", ":"))


def _emit(doc: dict) -> None:
    print(_json(doc))


# ── document re-verification ──────────────────────────────────────────────


def _scope_graph(host: Graph, rec: dict) -> Graph:
    scope = rec.get("scope")
    if scope is None:
        return host
    try:
        vs = tuple(int(v) for v in scope)
    except (ValueError, TypeError):
        raise InputError("scope must be a list of vertex ids")
    if any(not 0 <= v < host.n for v in vs) or list(vs) != sorted(set(vs)):
        raise InputError("scope must be an ascending list of distinct host vertices")
    return induced_subgraph(host, vs)


def _record_certificate(target: Graph, rec: dict) -> Certificate:
    kind = rec.get("kind")
    if kind in _ORIENTATION_KINDS:
        arcs = [(int(u), int(v)) for u, v in rec["arcs"]]
        return Certificate(kind, Orientation.from_arcs(target, arcs))
    if kind == WORD:
        return Certificate(WORD, tuple(int(x) for x in rec["letters"]))
    return Certificate(kind, tuple(int(v) for v in rec["vertices"]))


def _record_decomposition(host: Graph, rec: dict) -> Decomposition:
    """The cover a decomposition record claims. Each part's certificate is
    read against the graph of its "edges", built once; an orientation's
    arcs must direct exactly those edges."""
    parts = tuple(
        _record_certificate(
            Graph.from_edges(host.n, [(int(u), int(v)) for u, v in p["edges"]]), p["certificate"]
        )
        for p in rec["parts"]
    )
    wit = rec.get("lower_bound_witness")
    return Decomposition(
        host,
        parts,
        str(rec.get("provenance", "document")),
        int(rec.get("lower_bound", 1)),
        None if wit is None else tuple(int(v) for v in wit),
    )


def _check_record(host: Graph, rec: dict) -> list[str]:
    try:
        if rec.get("kind") == "decomposition":
            return decomposition_diagnostics(_record_decomposition(host, rec))
        target = _scope_graph(host, rec)
        cert = _record_certificate(target, rec)
    except InputError as e:
        return [f"malformed record: {e}"]
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed record: {e!r}"]
    return verify_certificate(target, cert)


# ── commands ──────────────────────────────────────────────────────────────


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    t0 = time.perf_counter()
    recs: list[dict] = []
    if args.comparability:
        label = "check --comparability"
        ok, cert = comparability_decide(g)
        result: dict = {"comparability": ok}
        if not ok:
            result["witness"] = list(cert.payload)
        recs.append(_cert_record(cert))
    elif args.minimal:
        label = "check --minimal"
        ok = is_minimal_non_wr(g)
        result = {"minimal_non_wr": ok}
        # an orientation, or an inclusion-minimal witness: the whole host
        # when it is minimal, and a proper subset when it is not
        recs.append(_cert_record(wr_decide(g)[1]))
        if ok:  # then every one-vertex deletion is representable
            for v in range(g.n):
                rest = tuple(u for u in range(g.n) if u != v)
                _, sub_cert = wr_decide(induced_subgraph(g, rest))
                recs.append(_cert_record(sub_cert, scope=rest))
    else:
        label = "check --wr"
        ok, cert = wr_decide(g)
        result = {"wr": ok}
        recs.append(_cert_record(cert))
        if ok:
            w = list(find_word(g))
            result["word"] = w
            recs.append({"kind": WORD, "letters": w})
        else:
            result["witness"] = list(cert.payload)
    _emit(_document(g, label, result, recs, t0))
    return 0


def _mode_graphs(
    args: argparse.Namespace, label: str, reads: dict, mode: Optional[str]
) -> list[Graph]:
    """Read `mode`'s input graphs, after refusing each option of `reads`
    that `mode` does not read and any other number of inputs."""
    count, options = reads[mode]
    for name in dict.fromkeys(o for _, names in reads.values() for o in names):
        if getattr(args, name) is not None and name not in options:
            raise InputError(f"--{name} does not apply to {label}")
    given = len(args.inputs)
    if given != count:
        hint = "; two factors need --constructive" if mode is None and given == 2 else ""
        raise InputError(f"{label} takes {count} graph{'s' * (count > 1)}, not {given}{hint}")
    return [_read_graph(s) for s in args.inputs]


def cmd_mu(args: argparse.Namespace) -> int:
    label = "mu" if args.constructive is None else f"mu --constructive {args.constructive}"
    graphs = _mode_graphs(args, label, _MU_READS, args.constructive)
    t0 = time.perf_counter()
    if args.constructive:
        return _mu_constructive(args, graphs, t0)
    g = graphs[0]
    r = mu_exact(g, budget=args.budget)
    result = {"mu": r.value, "status": r.status, "parts": len(r.parts)}
    _emit(_document(g, "mu", result, [_decomposition_record(as_decomposition(g, r))], t0))
    return 0


def _mu_constructive(args: argparse.Namespace, graphs: list[Graph], t0: float) -> int:
    name = args.constructive
    if name in ("power", "power-comparability"):
        g, k = graphs[0], 2 if args.k is None else args.k
        if name == "power":
            d = decompose_power_k(g, k)
        else:
            classes = _parse_edge_classes(args.split, "--split", want=2)
            d = decompose_power_two_comparability(g, (classes[0], classes[1]), k)
    else:
        p = lex_product(graphs[0], graphs[1])
        if name == "product-two":
            d = decompose_product_two(p)
        elif name == "product-general":
            d1 = as_decomposition(graphs[0], mu_exact(graphs[0], args.budget))
            d2 = as_decomposition(graphs[1], mu_exact(graphs[1], args.budget))
            d = decompose_product_general(p, d1, d2)
        elif name == "product-tight":
            classes = _parse_edge_classes(args.split, "--split")
            d1 = as_decomposition(graphs[0], mu_exact(graphs[0], args.budget))
            d = decompose_product_tight(p, d1, classes)
        else:
            d = decompose_min_nonwr_product(p, r=0 if args.root is None else args.root)
    label = f"mu --constructive {name}"
    diags = decomposition_diagnostics(d)
    if diags:
        print(f"construction failed to verify: {diags[0]}", file=sys.stderr)
        _emit(_document(d.host, label, {"verified": False, "failures": diags}, [], t0))
        return 1
    ub, lb = len(d.parts), d.lower_bound
    result = {
        "construction": name,
        "parts": ub,
        "lower_bound": lb,
        "mu": ub if ub == lb else None,
        "mu_interval": [lb, ub],
        "verified": True,
    }
    _emit(_document(d.host, label, result, [_decomposition_record(d)], t0))
    return 0


def cmd_lex(args: argparse.Namespace) -> int:
    graphs = _mode_graphs(args, f"lex {args.op}", _LEX_READS, args.op)
    t0 = time.perf_counter()
    if args.op == "power":
        k = 2 if args.k is None else args.k
        p, chain = lex_power(graphs[0], k), [graphs[0].n] * k
    else:
        p = lex_product(graphs[0], graphs[1])
        chain = [p.outer.n, p.inner.n]
    st = p.structure
    structure: dict = {"outer_n": st.outer_n, "inner_n": st.inner_n, "chain": chain}
    graph = p.graph
    if args.op in ("map", "special"):
        m = lex_map(p, _parse_edge_list(args.edges, "--edges"))
        graph = m.graph
        structure["outer_edges"] = _sorted_edges(m.outer_edges)
        if args.op == "special":
            s = special_subgraph(m, _parse_edge_classes(args.fills, "--fills", want=st.outer_n))
            graph = s.graph
            structure["fills"] = [_sorted_edges(f) for f in s.fills]
    enc = encode_graph6(graph)
    if args.sidecar:
        Path(args.sidecar).write_text(_json(structure) + "\n")
    if args.format == "g6":
        print(enc)
    elif args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        result = {"graph6": enc, "structure": structure}
        _emit(_document(graph, f"lex {args.op}", result, [], t0))
    return 0


def cmd_eta(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    t0 = time.perf_counter()
    r = eta(g, blockers=args.blockers)
    result = {"eta": r.value, "witness": list(r.witness)}
    recs = [_cert_record(r.certificate, scope=r.witness)]
    if r.blockers is not None:
        result["blockers"] = [list(b) for b in r.blockers]
        recs += [{"kind": WITNESS, "vertices": list(b)} for b in r.blockers]
    label = "eta --blockers" if args.blockers else "eta"
    _emit(_document(g, label, result, recs, t0))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    t0 = time.perf_counter()
    rep = verify_power_bound(g, args.k, args.cap)
    result = {
        "k": rep.k,
        "cap": rep.cap,
        "bound": rep.bound,
        "eta_base": rep.eta_base,
        "supervertices_checked": rep.supervertices_checked,
    }
    _emit(_document(g, "bound", result, [], t0))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"document is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if doc.get("schema_version") != "1":
        raise InputError('document schema_version must be "1"')
    if not isinstance(doc.get("host"), str):
        raise InputError("document has no host graph")
    host = parse_graph(doc["host"])
    certs = doc.get("certificates", [])
    if not isinstance(certs, list):
        raise InputError("certificates must be a list")
    failures: list[str] = []
    cut: Optional[BudgetExceeded] = None
    for i, rec in enumerate(certs):
        if not isinstance(rec, dict):
            failures.append(f"certificate {i}: record is not an object")
            continue
        try:
            failures += [f"certificate {i}: {m}" for m in _check_record(host, rec)]
        except BudgetExceeded as e:
            cut = cut or e
    if cut and not failures:
        raise cut  # a definite failure in any record wins over a spent budget
    out: dict = {"valid": not failures}
    if failures:
        out["failures"] = failures
        print(_json(out))
        print(f"verification failure: {failures[0]}", file=sys.stderr)
        return 1
    print(_json(out))
    return 0


# ── argument parsing ──────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Certified recognition, covers, and lexicographic "
        "constructions for word-representable graphs. Graph inputs are "
        "graph6/sparse6 text, a file path, or - for stdin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a property and emit certificates")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--wr", action="store_true",
                     help="word-representability (the default)")
    grp.add_argument("--comparability", action="store_true",
                     help="existence of a transitive orientation")
    grp.add_argument("--minimal", action="store_true",
                     help="minimal non-representability")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mu", help="cover number: exact search or a verified construction")
    p.add_argument("inputs", nargs="*",
                   help="one graph, or two factors for product constructions")
    p.add_argument("--constructive", choices=[c for c in _MU_READS if c], default=None,
                   help="build a cover from the named construction instead of searching")
    p.add_argument("--k", type=int, default=None, help="power exponent (default 2)")
    p.add_argument("--split", default=None, metavar="JSON",
                   help="comparability edge classes, e.g. [[[0,1]],[[1,2]]]")
    p.add_argument("--root", type=int, default=None,
                   help="outer vertex whose block anchors the min-product cover (default 0)")
    p.add_argument("--budget", type=int, default=None, metavar="NODES",
                   help="search-node budget for the exact cover search")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("lex", help="construct a composition, power, map, or refilled map")
    p.add_argument("op", choices=list(_LEX_READS))
    # not "*": argparse binds an empty "*" when an option follows the op
    p.add_argument("inputs", nargs="+")
    p.add_argument("--k", type=int, default=None, help="power exponent (k >= 1, default 2)")
    p.add_argument("--edges", default=None, metavar="JSON",
                   help="outer edge list for map/special")
    p.add_argument("--fills", default=None, metavar="JSON",
                   help="per-supervertex inner edge lists for special")
    p.add_argument("--sidecar", default=None, metavar="PATH",
                   help="also write the structure JSON to this file")
    p.add_argument("--format", choices=("json", "g6", "dot"), default="json",
                   help="output format")
    p.set_defaults(func=cmd_lex)

    p = sub.add_parser("eta", help="maximum representable-set size with witness")
    p.add_argument("input")
    p.add_argument("--blockers", action="store_true",
                   help="also list every just-too-large subset")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("bound", help="check the power construction's representable-set cap")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True, help="power exponent")
    p.add_argument("--cap", type=int, required=True,
                   help="claimed representable-set cap of the base graph")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="re-check a certificate document without re-running search")
    p.add_argument("input", help="document JSON: path, literal, or - for stdin")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows up here
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush does not
        # raise again (the SIGPIPE note in Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:  # InternalError, RecursionError
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
