"""Command-line surface.

Subcommands: bound, exact, competition, survey, gen (plus a hidden verify).
Exit codes are a stable contract: 0 success, 1 parse or I/O error, 2 usage
error, 3 node budget exhausted.  The COMPNUM_BUDGET_NODES environment
variable caps solver nodes when set; --budget overrides it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import json
import os
import sys
import time

from .bounds import general_bound, general_bound_term, opsut_edge_bound, opsut_vertex_bound
from .graphs import (
    GENERATOR_FAMILIES,
    MAX_ENUMERATION_VERTICES,
    Graph,
    GraphParseError,
    _graph6_rows,
    _graph6_text,
    _labeled_codes,
    _rows_graph,
    _rows_key,
    generate,
    parse_arc_list,
    parse_graph6,
    random_graphs,
    write_graph6,
)
from .realizer import BudgetExceededError, competition_number, competition_graph, verify_realization

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SURVEY_COLUMNS = ("graph6", "n", "edges", "theta_e", "opsut_e", "opsut_v", "general", "k_exact", "millis")


def _env_budget() -> int | None:
    raw = os.environ.get("COMPNUM_BUDGET_NODES")
    if raw is None:
        return None
    try:
        if (budget := int(raw)) >= 0:
            return budget
    except ValueError:
        pass
    raise GraphParseError(f"COMPNUM_BUDGET_NODES must be a nonnegative integer, got {raw!r}")


def _clamped(value: int) -> int:
    return max(0, value)


# -- bound --------------------------------------------------------------------


def cmd_bound(args) -> int:
    if args.m is not None and args.method != "general":
        _PARSER.error("--m is only valid with --method general")
    if args.m is not None and args.m < 1:
        _PARSER.error(f"--m must be at least 1, got {args.m}")
    skipped = 0
    for text in _graph_inputs(args):
        try:
            _bound_one(args, text)
        except ValueError as err:
            if not args.stdin:
                raise
            # one bad line in a batch is reported and skipped, like survey does
            print(f"bound: skipped {text!r}: {err}", file=sys.stderr)
            skipped += 1
    return EXIT_PARSE if skipped else EXIT_OK


def _bound_one(args, text: str) -> None:
    g = parse_graph6(text)
    if args.method == "opsut-e":
        _emit_single_bound(text, "opsut-e", opsut_edge_bound(g), args.json)
    elif args.method == "opsut-v":
        _emit_single_bound(text, "opsut-v", opsut_vertex_bound(g), args.json)
    elif args.m is not None:
        # in a batch, a graph with fewer than m vertices is one bad line; the
        # empty graph is refused as every other bound refuses it
        if not args.stdin and args.m > g.n and g.n:
            _PARSER.error(f"--m must be in 1..{g.n} for this graph")
        term = general_bound_term(g, args.m)
        _emit_single_bound(text, f"general[m={args.m}]", term.value, args.json)
    else:
        report = general_bound(g)
        if args.json:
            payload = {
                "graph6": text,
                "method": "general",
                "general_raw": report.general,
                "general": _clamped(report.general),
                "opsut_e_raw": report.opsut_edge,
                "opsut_e": _clamped(report.opsut_edge),
                "opsut_v_raw": report.opsut_vertex,
                "opsut_v": _clamped(report.opsut_vertex),
                "terms": [
                    {"m": t.m, "value": t.value, "subset": list(t.subset)}
                    for t in report.terms
                ],
                "truncated_ms": sorted(report.truncated_ms),
            }
            print(json.dumps(payload))
        else:
            print(f"general = {report.general}")
            for t in report.terms:
                subset = ",".join(str(v) for v in t.subset)
                print(f"  m={t.m}: {t.value}  (U={{{subset}}})")


def _emit_single_bound(graph6: str, method: str, value: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"graph6": graph6, "method": method, "value_raw": value, "value": _clamped(value)}))
    elif value < 0:
        print(f"{value} (clamped 0)")
    else:
        print(value)


def _graph_inputs(args) -> list[str]:
    if args.stdin:
        if args.graph6 is not None:
            _PARSER.error("give a graph6 argument or --stdin, not both")
        return [line.strip() for line in sys.stdin if line.strip()]
    if args.graph6 is None:
        _PARSER.error("missing graph6 argument (or use --stdin)")
    return [args.graph6]


# -- exact --------------------------------------------------------------------


def cmd_exact(args) -> int:
    for flag, value in (("--start-k", args.start_k), ("--budget", args.budget)):
        if value is not None and value < 0:
            _PARSER.error(f"{flag} must be nonnegative, got {value}")
    g = parse_graph6(args.graph6)
    budget = args.budget if args.budget is not None else _env_budget()
    try:
        k, witness = competition_number(g, start_k=args.start_k, budget=budget)
    except BudgetExceededError as err:
        print(f"k >= {err.lower_bound}; upper bound unknown (node budget exhausted)")
        return EXIT_BUDGET
    if args.witness:
        text = witness.to_dot() if args.witness.endswith(".dot") else witness.to_arc_list()
        with open(args.witness, "w") as fh:
            fh.write(text)
    if args.json:
        payload = {"graph6": args.graph6, "k": k}
        if args.witness:
            payload["witness"] = args.witness
        print(json.dumps(payload))
    else:
        print(f"k = {k}")
    return EXIT_OK


# -- competition --------------------------------------------------------------


def cmd_competition(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    d = parse_arc_list(text)
    print(write_graph6(competition_graph(d)))
    return EXIT_OK


# -- survey -------------------------------------------------------------------


# Survey row values by isomorphism class: {class key: the columns
# theta_e..k_exact}.  Every one of them is an invariant, so a row of an
# isomorphic input reuses them.  A row decodes its line to adjacency masks,
# reads n and edges off them and keys its class from them (graphs._rows_key),
# so it builds a Graph only to solve a class not yet here, or a graph with
# no key.  cmd_survey clears it, so --with-exact is fixed for its lifetime;
# each --jobs worker keeps its own.
_ROW_MEMO: dict[tuple[int, int], dict] = {}


def _survey_row(task: tuple[str, bool, int | None]) -> dict:
    text, with_exact, budget = task
    started = time.perf_counter()
    try:
        rows = _graph6_rows(text)
    except GraphParseError as err:
        return {"graph6": text, "error": str(err)}
    # Under a node budget the solver's node count, and so whether k_exact
    # is "?", depends on the labeling: such rows are solved as given.
    key = _rows_key(rows) if budget is None or not with_exact else None
    values = _ROW_MEMO.get(key)
    if values is None:
        values = _row_values(_rows_graph(rows), with_exact, budget)
        if key is not None:
            _ROW_MEMO[key] = values
    millis = int((time.perf_counter() - started) * 1000)
    edges = sum(map(int.bit_count, rows)) // 2
    return {"graph6": text, "n": len(rows), "edges": edges, **values, "millis": millis}


def _row_values(g: Graph, with_exact: bool, budget: int | None) -> dict:
    """The survey columns theta_e..k_exact of one graph, as labeled."""
    if not g.n:
        return {"theta_e": 0, "opsut_e": "", "opsut_v": "", "general": "", "k_exact": ""}
    report = general_bound(g, prune=True)
    k_exact: str | int = ""
    if with_exact:
        try:
            k_exact, _ = competition_number(g, start_k=_clamped(report.general), budget=budget)
        except BudgetExceededError:
            k_exact = "?"
    return {
        "theta_e": report.opsut_edge + g.n - 2,
        "opsut_e": _clamped(report.opsut_edge),
        "opsut_v": _clamped(report.opsut_vertex),
        "general": _clamped(report.general),
        "k_exact": k_exact,
    }


def cmd_survey(args) -> int:
    if args.jobs < 1:
        _PARSER.error(f"--jobs must be positive, got {args.jobs}")
    if args.all_labeled is not None:
        if not 0 <= args.all_labeled <= MAX_ENUMERATION_VERTICES:
            _PARSER.error(f"--all-labeled supports 0..{MAX_ENUMERATION_VERTICES} vertices")
        lines = [_graph6_text(args.all_labeled, code) for code in _labeled_codes(args.all_labeled)]
    else:
        with open(args.input) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    budget = _env_budget()
    tasks = [(text, args.with_exact, budget) for text in lines]
    _ROW_MEMO.clear()
    as_jsonl = args.output is not None and args.output.endswith(".jsonl")
    errors = 0
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
        if args.jobs > 1 and len(tasks) > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs))
            rows = pool.map(_survey_row, tasks, chunksize=16)  # lazy, in input order
        else:
            rows = map(_survey_row, tasks)
        writer = csv.writer(out, lineterminator="\n")
        if not as_jsonl:
            writer.writerow(SURVEY_COLUMNS)
        for row in rows:
            if "error" in row:
                errors += 1
                print(f"survey: skipped {row['graph6']!r}: {row['error']}", file=sys.stderr)
            if as_jsonl:
                out.write(json.dumps(row) + "\n")
            else:  # a skipped line's row is its graph6 and blanks
                writer.writerow([row.get(c, "") for c in SURVEY_COLUMNS])
    if errors:
        print(f"survey: {errors} malformed input line(s)", file=sys.stderr)
    return EXIT_OK


# -- gen ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.count < 0:
        _PARSER.error(f"--count must be nonnegative, got {args.count}")
    try:
        params = [float(p) if "." in p else int(p) for p in args.params.split(",") if p]
    except ValueError:
        _PARSER.error(f"cannot parse --params {args.params!r}")
    try:
        g = generate(args.family, params, seed=args.seed)
    except ValueError as err:
        _PARSER.error(str(err))
    # a random family's --count continues the stream g was the first draw of
    graphs = random_graphs(g.n, params[1], args.seed, args.count) if args.family == "random" else [g] * args.count
    for graph in graphs:
        print(write_graph6(graph))
    return EXIT_OK


# -- verify (hidden) ----------------------------------------------------------


def cmd_verify(args) -> int:
    if args.k < 0:
        _PARSER.error(f"--k must be nonnegative, got {args.k}")
    g = parse_graph6(args.graph)
    with open(args.witness) as fh:
        d = parse_arc_list(fh.read())
    result = verify_realization(g, args.k, d)
    if result.ok:
        print("OK")
        return EXIT_OK
    print(f"FAIL: {result.reason}")
    return EXIT_PARSE


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compnum",
        description="Exact competition-graph toolkit: bounds, covers, and competition numbers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{bound,exact,competition,survey,gen}")

    p = sub.add_parser("bound", help="lower bounds for the competition number")
    p.add_argument("--method", required=True, choices=["opsut-e", "opsut-v", "general"])
    p.add_argument("--m", type=int, default=None, help="single term of the general bound")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stdin", action="store_true", help="read graph6 lines from stdin")
    p.add_argument("graph6", nargs="?", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exact", help="exact competition number with witness")
    p.add_argument("--witness", metavar="PATH", help="write the witness digraph (.dot for DOT, else arc list)")
    p.add_argument(
        "--start-k", type=int, default=None, dest="start_k", metavar="K",
        help="first k to try; trusted as a proven lower bound, so a K above the competition number is printed as k",
    )
    p.add_argument("--budget", type=int, default=None, help="search node cap")
    p.add_argument("--json", action="store_true")
    p.add_argument("graph6")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("competition", help="competition graph of an arc-list digraph")
    p.add_argument("file", help="arc-list file, or - for stdin")
    p.set_defaults(func=cmd_competition)

    p = sub.add_parser("survey", help="per-graph invariant table over a corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="file of graph6 lines")
    src.add_argument("--all-labeled", type=int, metavar="N", help="all labeled graphs on N vertices")
    p.add_argument("--output", "-o", metavar="PATH", help="csv (default) or .jsonl by extension; stdout if omitted")
    p.add_argument("--with-exact", action="store_true", help="also solve each graph exactly")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("gen", help="generate family graphs as graph6 lines")
    p.add_argument("--family", required=True, choices=list(GENERATOR_FAMILIES))
    p.add_argument("--params", required=True, help="comma-separated family parameters")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify")  # hidden from the top-level metavar
    p.add_argument("--graph", required=True, help="graph6 of the original graph")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("witness", help="arc-list witness file")
    p.set_defaults(func=cmd_verify)

    return parser


# Built once, at import: main may be called many times in one process.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if not getattr(args, "func", None):
        _PARSER.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # covers format errors (GraphParseError) and domain errors such as
        # asking for a bound of the 0-vertex graph
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
