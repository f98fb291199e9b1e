"""Command-line interface: `tokens <subcommand>`.

Every subcommand emits machine-readable output (JSON unless stated). Exit
codes: 0 on success, 1 when a single-graph `planar` query answers
non-planar, 2 on usage or input errors, 130 when interrupted (Ctrl-C), and
141 when the reader of stdout has gone (a closed pipe, as after `| head`).
Neither of the last two prints a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .canon import canonical_form, canonical_graph6
from .classify import classify_planarity, classify_regularity
from .errors import TokenGraphError
from .graph6 import decode_graph6, encode_graph6, iter_graph6
from .graphs import Graph
from .minors import apply_and_verify, format_script, lift_script, parse_script
from .planarity import is_planar
from .search import edge_maximal_search
from .subsets import SubsetCodec
from .tokens import _neighbour_lists, _subset_label, build_token_graph


def _read_graphs(args) -> list[Graph]:
    # an empty --graph6 or --file is given, not absent: it must not read stdin
    if getattr(args, "graph6", None) is not None:
        return [decode_graph6(args.graph6)]
    if getattr(args, "file", None) is not None:
        with open(args.file, "r", encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    graphs = list(iter_graph6(text))
    if not graphs:
        raise TokenGraphError("no input graphs (use --graph6, --file, or stdin)")
    return graphs


def _read_one_graph(args) -> Graph:
    graphs = _read_graphs(args)
    if len(graphs) != 1:
        raise TokenGraphError(f"expected exactly one graph, got {len(graphs)}")
    return graphs[0]


def _print_dot(g: Graph, k: int) -> None:
    """Print F_k(g) as dot, line by line, from its neighbour lists (no rows):
    the vertices, then each vertex's higher neighbours in ascending order."""
    nbrs = _neighbour_lists(g, k)
    print("graph tokens {")
    for r, mask in enumerate(SubsetCodec(g.n, k).masks()):
        print(f'  v{r} [label="{_subset_label(mask)}"];')
    for u, row in enumerate(nbrs):
        for v in sorted(w for w in row if w > u):
            print(f"  v{u} -- v{v};")
    print("}")


def _cmd_build(args) -> int:
    for g in _read_graphs(args):
        if args.out == "dot":
            _print_dot(g, args.k)
            continue
        tg = build_token_graph(g, args.k)
        if args.out == "g6":
            print(encode_graph6(tg.graph))
        else:
            t = tg.graph
            # F_k(g) is connected iff g is, so no walk over the token vertices
            print(
                json.dumps(
                    {
                        "k": args.k,
                        "base_n": g.n,
                        "base_m": g.m,
                        "n": t.n,
                        "m": t.m,
                        "regular": t.is_regular(),
                        "connected": g.is_connected(),
                        "planar": is_planar(t).planar,
                        "graph6": encode_graph6(t),
                    }
                )
            )
    return 0


def _cmd_canon(args) -> int:
    for g in _read_graphs(args):
        if args.out == "json":
            form = canonical_form(g)
            print(
                json.dumps(
                    {
                        "canonical": form.graph6,
                        "permutation": list(form.permutation),
                        "automorphism_order": form.automorphism_order,
                    }
                )
            )
        else:
            print(canonical_graph6(g))
    return 0


def _cmd_planar(args) -> int:
    graphs = _read_graphs(args)
    worst = 0
    for g in graphs:
        verdict = is_planar(g)
        word = "planar" if verdict.planar else "non-planar"
        print(f"{encode_graph6(g)}\t{word}\t{verdict.method}")
        if not verdict.planar:
            worst = 1
    return worst if len(graphs) == 1 else 0


def _cmd_classify(args) -> int:
    g = _read_one_graph(args)
    classify = classify_regularity if args.what == "regularity" else classify_planarity
    print(json.dumps(classify(g, args.k).to_dict()))
    return 0


def _cmd_lift(args) -> int:
    g = _read_one_graph(args)
    with open(args.script, "r", encoding="ascii") as fh:
        ops = parse_script(fh.read())
    lifted = lift_script(g, args.k, ops)
    verified = apply_and_verify(g, lifted)
    print(
        json.dumps(
            {
                "k": args.k,
                "base": encode_graph6(g),
                "script": format_script(ops).splitlines(),
                "steps": [
                    {
                        "op": step.base_op.format(),
                        "lifted": [op.format() for op in step.ops],
                    }
                    for step in lifted.steps
                ],
                "verified": verified,
            }
        )
    )
    return 0


def _cmd_search(args) -> int:
    report = edge_maximal_search(
        args.k,
        range(2 * args.k if args.n_min is None else args.n_min, args.n_max + 1),
        budget_secs=args.budget_secs,
        prune=not args.verbatim,
    )
    payload = json.dumps(report.to_json(), indent=2)
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _add_input_flags(p, with_file=True):
    p.add_argument("--graph6", help="inline graph6 string")
    if with_file:
        p.add_argument("--file", help="file of graph6 lines (default: stdin)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokens", description="token graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the k-token graph of a base graph")
    p.add_argument("-k", type=int, required=True)
    _add_input_flags(p)
    p.add_argument("--out", choices=("json", "g6", "dot"), default="json")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("canon", help="canonical form of a graph")
    _add_input_flags(p)
    p.add_argument("--out", choices=("g6", "json"), default="g6")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("planar", help="planarity of a graph (not its token graph)")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_planar)

    p = sub.add_parser("classify", help="structural verdicts about F_k(g)")
    p.add_argument("what", choices=("regularity", "planarity"))
    p.add_argument("-k", type=int, required=True)
    _add_input_flags(p, with_file=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lift", help="lift a minor script to the token graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--script", required=True, help="script file: dv V | de U V | ce U V")
    _add_input_flags(p, with_file=False)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("search", help="edge-maximal planar-token-graph search")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--jobs", type=int, help="ignored: the search runs in one process")
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--verbatim",
        action="store_true",
        help="enumerate every connected class instead of pruning by planarity",
    )
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # 128 + SIGPIPE; stdout goes to devnull so that the interpreter's own
        # flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (TokenGraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
