"""Command-line front end.

Exit codes: 0 for success or a decided verdict, 2 for an undecided
verdict, 1 for any error (including usage errors).
"""

from __future__ import annotations

import argparse
import sys

from .complexes import validate
from .documents import (
    complex_to_doc,
    dump_canonical,
    emit_complex,
    parse_complex,
    parse_precomplex,
    parse_sigma,
    sigma_to_doc,
)
from .dot import export_dot_complex, export_dot_link
from .errors import RotsysError
from .homology import euler_identity_report, homology_summary, integral_summary
from .tracing import link_graph, link_graphs
from .randgen import GenParams, generate_random_complex
from .rotation import canonical_rotation_system
from .search import search_generalized_prs, search_planar_rotation_system
from .surfaces import dual_complex, local_surfaces
from .verdict import UNKNOWN, verdict
from .words import klein_word_admissible


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_sigma(args, c):
    if getattr(args, "sigma", None):
        return parse_sigma(_read_input(args.sigma), c)
    return canonical_rotation_system(c)


def build_parser() -> _Parser:
    parser = _Parser(prog="rotsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", nargs="?", help="complex document (default: stdin)")
        return p

    with_input(sub.add_parser("validate", help="report invariant violations"))

    p = with_input(sub.add_parser("links", help="link graphs"))
    p.add_argument("--vertex")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("prs", help="planar rotation systems")
    p.add_argument("mode", choices=["find", "count"])
    with_input(p)
    p.add_argument("--cap", type=int, default=1_000_000)

    p = with_input(sub.add_parser("surfaces", help="local surfaces"))
    p.add_argument("--sigma")

    p = with_input(sub.add_parser("dual", help="dual complex"))
    p.add_argument("--sigma")

    p = with_input(sub.add_parser("homology", help="first homology"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int)
    group.add_argument("--integral", action="store_true")

    p = with_input(sub.add_parser("identities", help="Euler-type identity report"))
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--sigma")

    p = with_input(sub.add_parser("verdict", help="embeddability verdict"))
    p.add_argument("--primes", required=True)
    p.add_argument("--tietze-budget", type=int, default=100_000)

    p = sub.add_parser("gprs", help="generalized planar rotation systems")
    p.add_argument("mode", choices=["find"])
    with_input(p)
    p.add_argument("--cap", type=int, default=1_000_000)

    p = sub.add_parser("words", help="Klein-bottle crossing words")
    p.add_argument("--windings", required=True)
    p.add_argument("--linear", action="store_true")

    p = sub.add_parser("gen", help="seeded random complex")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--prob", type=float)

    with_input(sub.add_parser("dot", help="1-skeleton as DOT"))
    return parser


def _cmd_validate(args) -> int:
    pre = parse_precomplex(_read_input(args.input))
    violations = validate(pre)
    print(dump_canonical({"violations": [str(v) for v in violations]}), end="")
    return 0


def _cmd_links(args) -> int:
    c = parse_complex(_read_input(args.input))
    if args.dot and not args.vertex:
        raise _UsageError("--dot requires --vertex")
    if args.dot:
        print(export_dot_link(link_graph(c, args.vertex)), end="")
        return 0
    graphs = {args.vertex: link_graph(c, args.vertex)} if args.vertex else link_graphs(c)
    doc = {}
    for v, lg in sorted(graphs.items()):
        labels, uw = lg.vertex_labels(), lg.dart_vertex
        doc[v] = {
            "vertices": labels,
            "edges": [
                {"label": label, "endpoints": [labels[u], labels[w]]}
                for label, u, w in zip(lg.edge_labels(), uw[::2], uw[1::2])
            ],
        }
    print(dump_canonical(doc), end="")
    return 0


def _cmd_prs(args) -> int:
    c = parse_complex(_read_input(args.input))
    mode = "first" if args.mode == "find" else args.mode
    result = search_planar_rotation_system(c, mode, args.cap)
    doc = result.to_doc()
    if result.sigma is not None:
        doc["sigma"] = sigma_to_doc(result.sigma)["sigma"]
    print(dump_canonical(doc), end="")
    return 0


def _cmd_surfaces(args) -> int:
    c = parse_complex(_read_input(args.input))
    sigma = _load_sigma(args, c)
    doc = {"surfaces": []}
    for s in local_surfaces(c, sigma):
        doc["surfaces"].append(
            {
                "id": s.id,
                "chi": s.chi,
                "genus": s.genus,
                "faces": [m.label() for m in s.members],
                "complex": complex_to_doc(s.as_complex()),
            }
        )
    print(dump_canonical(doc), end="")
    return 0


def _cmd_dual(args) -> int:
    c = parse_complex(_read_input(args.input))
    sigma = _load_sigma(args, c)
    dual = dual_complex(c, sigma)
    annotations = {
        "sigma": sigma_to_doc(dual.sigma_c)["sigma"],
        "surfaces": {
            s.id: {"chi": s.chi, "genus": s.genus} for s in dual.surfaces
        },
    }
    print(emit_complex(dual.complex, annotations), end="")
    return 0


def _cmd_homology(args) -> int:
    pre = parse_precomplex(_read_input(args.input))
    summary = integral_summary(pre) if args.integral else homology_summary(pre, args.prime)
    print(dump_canonical(summary.to_doc()), end="")
    return 0


def _cmd_identities(args) -> int:
    c = parse_complex(_read_input(args.input))
    sigma = _load_sigma(args, c)
    report = euler_identity_report(c, sigma, args.prime)
    print(dump_canonical(report.to_doc()), end="")
    return 0


def _cmd_verdict(args) -> int:
    c = parse_complex(_read_input(args.input))
    primes = [int(x) for x in args.primes.split(",") if x]
    result = verdict(c, primes, args.tietze_budget)
    print(dump_canonical(result.to_doc()), end="")
    return 2 if result.sphere3 == UNKNOWN else 0


def _cmd_gprs(args) -> int:
    c = parse_complex(_read_input(args.input))
    result = search_generalized_prs(c, args.cap)
    doc = result.to_doc(c)
    if result.sigma is not None:
        doc["sigma"] = sigma_to_doc(result.sigma)["sigma"]
    print(dump_canonical(doc), end="")
    return 0


def _cmd_words(args) -> int:
    windings = [int(x) for x in args.windings.split(",") if x]
    word = klein_word_admissible(windings, cyclic=not args.linear)
    print(
        dump_canonical(
            {"windings": windings, "admissible": word is not None, "word": word}
        ),
        end="",
    )
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(args.seed, args.vertices, args.prob)
    c = generate_random_complex(params)
    print(emit_complex(c), end="")
    return 0


def _cmd_dot(args) -> int:
    c = parse_complex(_read_input(args.input))
    print(export_dot_complex(c), end="")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "links": _cmd_links,
    "prs": _cmd_prs,
    "surfaces": _cmd_surfaces,
    "dual": _cmd_dual,
    "homology": _cmd_homology,
    "identities": _cmd_identities,
    "verdict": _cmd_verdict,
    "gprs": _cmd_gprs,
    "words": _cmd_words,
    "gen": _cmd_gen,
    "dot": _cmd_dot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RotsysError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
