"""Command-line front end.

Subcommands cover the library surface: admissibility checking, graph
export, the move and the relabelling maps, classification, orbit
exploration, greedy minimization, catalogue generation and the named
verification suites.  Exit codes: 0 success, 1 usage error, 2
validation failure (bad or inadmissible input, a tuple whose
complexity exceeds MAX_TUPLE_COMPLEXITY, a bound above its MAX_*
ceiling or below its floor), 3 suite failure.
"""

from __future__ import annotations

import argparse
import sys

from .catalogue import (
    SUITES,
    build_catalogue,
    records_to_tsv,
    run_suite,
)
from .graphs import to_dot
from .moves import canonical, delta, psi, sigma
from .orbits import OrbitGraph, explore, minimize
from .surgery import verify_sigma_constructively
from .tuples import (
    SixTuple,
    admissibility,
    build_graph,
    parse_tuple,
    zero_q_count,
)


# Largest complexity h0 + h1 + h2 a command accepts.  The graph has
# 2 * complexity vertices, so this bounds what one command allocates;
# it sits far above anything the library is exercised on (a few hundred).
MAX_TUPLE_COMPLEXITY = 100_000

# Largest `catalogue --max-complexity`.  Time grows about 2.5x and memory
# about 1.5x per 4 steps of complexity: on a 2-vCPU VM the bound 29 took
# 2.4 s and peaked at 29 MB, and the bound 33 took 6-7 s and 44 MB.
MAX_CATALOGUE_COMPLEXITY = 33

# Largest `orbit --max-nodes`: ten times the default.  On a 2-vCPU VM a
# walk of that many nodes took about 10 s and peaked near 110 MB, and
# 16,000 nodes took 1.5 s: the time is linear in the nodes.  `orbit
# --max-complexity` may be at most MAX_TUPLE_COMPLEXITY, since its nodes
# are tuples.
MAX_ORBIT_NODES = 100_000


def _within(value: int, limit: int, option: str, least: int = 1) -> int:
    """value, or a ValueError (exit 2) outside [least, limit]."""
    if value > limit:
        raise ValueError(f"{option} {value} exceeds the limit {limit}")
    if value < least:
        raise ValueError(f"{option} {value} is below {least}")
    return value


def tuple_from_args(parts: list[str]) -> SixTuple:
    """Accept one quoted "(h0,h1,h2;q0,q1,q2)" or six bare integers, of
    complexity at most MAX_TUPLE_COMPLEXITY."""
    if len(parts) == 1:
        f = parse_tuple(parts[0])
    elif len(parts) == 6:
        f = SixTuple(*(int(p) for p in parts))
    else:
        raise ValueError(
            f"expected one tuple string or six integers, got {len(parts)} arguments"
        )
    if f.upsilon > MAX_TUPLE_COMPLEXITY:
        raise ValueError(
            f"complexity {f.upsilon} of {f} exceeds the limit {MAX_TUPLE_COMPLEXITY}"
        )
    return f


def _add_tuple_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "tuple",
        nargs="+",
        help='6-tuple, either quoted like "(1,3,3;2,2,2)" or as six integers',
    )


def _cmd_check(args) -> int:
    f = tuple_from_args(args.tuple)
    report = admissibility(f)
    print(report)
    return 0 if report.ok else 2


def _cmd_graph(args) -> int:
    f = tuple_from_args(args.tuple)
    print(to_dot(build_graph(f), name=f"gem_{f.upsilon}"), end="")
    return 0


def _cmd_sigma(args) -> int:
    f = tuple_from_args(args.tuple)
    moved = sigma(f)
    print(moved)
    if args.trace:
        print(f"complexity: {f.upsilon} -> {moved.upsilon} (delta {delta(f)})")
        if f.q0 == 0:
            print("identity move: the first shift vanishes")
            return 0
        report = verify_sigma_constructively(f)
        if report.measured_row is not None:
            strip = dict(zip(("L", "p1", "p2", "r1", "r2"), report.measured_row))
            print("measured strip:", " ".join(f"{k}={v}" for k, v in strip.items()))
        if report.exact_block is not None:
            print(f"exact cancellation at the {report.exact_block} block;"
                  f" partner matches after colour swap {report.orientation_swap}")
        if not report.ok:
            print("surgery verification FAILED:", "; ".join(report.failures))
            return 2
    return 0


def _cmd_canonical(args) -> int:
    print(canonical(tuple_from_args(args.tuple)))
    return 0


def _cmd_psi(args) -> int:
    print(psi(tuple_from_args(args.tuple), args.k))
    return 0


def _cmd_classify(args) -> int:
    from .catalogue import classify_record

    f = canonical(tuple_from_args(args.tuple))
    record = classify_record(f)
    print(f"canonical: {record.tuple}")
    print(f"complexity: {record.upsilon}")
    if record.trap:
        w = record.trap
        print(f"trap: type ({w.r},{w.s}), base {w.base}, step {w.d}, "
              f"confined to {sorted(w.T)}")
    else:
        print("trap: no")
    print(f"minimal: {'yes' if record.minimal else 'no'}")
    print(f"root: {'yes' if record.root else 'no'}")
    print(f"h1: {record.h1}")
    for note in record.warnings:
        print(f"note: {note}")
    return 0


def _orbit_tsv(graph: OrbitGraph) -> str:
    lines = ["kind\ta\tb\tupsilon\tfrontier"]
    frontier = set(graph.frontier)
    for node in graph.nodes:
        flag = "true" if node in frontier else "false"
        lines.append(f"node\t{node}\t\t{node.upsilon}\t{flag}")
    for a, b in graph.edges:
        lines.append(f"edge\t{a}\t{b}\t\t")
    return "\n".join(lines) + "\n"


def _orbit_dot(graph: OrbitGraph) -> str:
    lines = ["graph orbit {", "  node [shape=box];"]
    frontier = set(graph.frontier)
    for node in graph.nodes:
        style = ', style=dashed' if node in frontier else ""
        lines.append(f'  "{node}" [label="{node}\\n{node.upsilon}"{style}];')
    for a, b in graph.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_orbit(args) -> int:
    f = tuple_from_args(args.tuple)
    max_complexity = _within(
        args.max_complexity, MAX_TUPLE_COMPLEXITY, "--max-complexity", f.upsilon
    )
    max_nodes = _within(args.max_nodes, MAX_ORBIT_NODES, "--max-nodes")
    graph = explore(f, max_complexity, max_nodes)
    out = _orbit_dot(graph) if args.format == "dot" else _orbit_tsv(graph)
    print(out, end="")
    status = "closed" if graph.closed else (
        "truncated" if graph.truncated else "bounded"
    )
    print(
        f"{len(graph.nodes)} nodes, {len(graph.edges)} edges, {status}",
        file=sys.stderr,
    )
    return 0


def _cmd_minimize(args) -> int:
    print(minimize(tuple_from_args(args.tuple)))
    return 0


def _cmd_catalogue(args) -> int:
    records = build_catalogue(
        _within(args.max_complexity, MAX_CATALOGUE_COMPLEXITY, "--max-complexity")
    )
    text = records_to_tsv(records)
    if args.out == "-":
        print(text, end="")
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    traps = [r for r in records if r.trap]
    lens_guarded = [r for r in records if zero_q_count(r.tuple) > 1]
    orbits = len({r.orbit_id for r in records})
    print(
        f"{len(records)} canonical tuples up to complexity {args.max_complexity}; "
        f"{len(traps)} traps ({sum(1 for r in traps if zero_q_count(r.tuple) <= 1)}"
        f" outside the two-vanishing-shift guard), "
        f"{len(lens_guarded)} lower-genus guarded, {orbits} visible orbits",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    print(report)
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosym",
        description="genus-two crystallizations from integer 6-tuples",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check", help="admissibility diagnosis")
    _add_tuple_argument(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = commands.add_parser("graph", help="export the coloured graph")
    _add_tuple_argument(sub)
    sub.add_argument("--format", choices=("dot",), default="dot")
    sub.set_defaults(handler=_cmd_graph)

    sub = commands.add_parser("sigma", help="apply the 2-symmetric move")
    _add_tuple_argument(sub)
    sub.add_argument(
        "--trace",
        action="store_true",
        help="also run the constructive surgery verification",
    )
    sub.set_defaults(handler=_cmd_sigma)

    sub = commands.add_parser("canonical", help="canonical orbit representative")
    _add_tuple_argument(sub)
    sub.set_defaults(handler=_cmd_canonical)

    sub = commands.add_parser("psi", help="apply a relabelling map")
    sub.add_argument("k", type=int, choices=(1, 2, 3))
    _add_tuple_argument(sub)
    sub.set_defaults(handler=_cmd_psi)

    sub = commands.add_parser("classify", help="trap/minimal/root/homology record")
    _add_tuple_argument(sub)
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("orbit", help="bounded orbit exploration")
    _add_tuple_argument(sub)
    sub.add_argument(
        "--max-complexity",
        type=int,
        required=True,
        help=f"at most {MAX_TUPLE_COMPLEXITY}",
    )
    sub.add_argument(
        "--max-nodes", type=int, default=10_000, help=f"at most {MAX_ORBIT_NODES}"
    )
    sub.add_argument("--format", choices=("tsv", "dot"), default="tsv")
    sub.set_defaults(handler=_cmd_orbit)

    sub = commands.add_parser("minimize", help="descend to a minimal tuple")
    _add_tuple_argument(sub)
    sub.set_defaults(handler=_cmd_minimize)

    sub = commands.add_parser("catalogue", help="classify all canonical tuples")
    sub.add_argument(
        "--max-complexity",
        type=int,
        required=True,
        help=f"at most {MAX_CATALOGUE_COMPLEXITY}",
    )
    sub.add_argument("--out", default="-", help="output file, - for stdout")
    sub.set_defaults(handler=_cmd_catalogue)

    sub = commands.add_parser("verify", help="run a named verification suite")
    sub.add_argument("suite", choices=sorted(SUITES))
    sub.set_defaults(handler=_cmd_verify)

    return parser


# Built on the first main() call and reused: building the parser costs
# far more than a parse.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 1
    try:
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
