"""Command-line front end.

Exit codes are a stable scripting contract: 0 success, 1 semantic refusal
(query outside the class, repair space over the cap, mode mismatch),
2 input or output error (syntax, schema, I/O, bad flags, a value that
stdout cannot encode), 3 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .attacks import attack_graph
from .classify import fuxman_graph, in_cparsimony
from .errors import AnalysisRefusal, InputError, InternalError
from .evaluate import (
    cqacount_oracle,
    cqacount_parsimonious,
    range_answers_json,
    range_answers_tsv,
)
from .fds import fdset
from .instances import (
    DEFAULT_REPAIR_CAP,
    _count_text,
    _read_utf8,
    build_3dm_instance,
    enumerate_repairs,
    load_bundle,
    repair_count,
    save_bundle,
    threedm_query,
)
from .queries import (
    ConjunctiveQuery,
    QueryError,
    make_free,
    parse_query,
    query_graph,
    serialize_query,
)


def _load_query(path: str) -> ConjunctiveQuery:
    return parse_query(_read_utf8(Path(path)))


def _effective_cap(flag_value: int | None) -> int:
    env = os.environ.get("CQA_CAP", str(DEFAULT_REPAIR_CAP))
    try:
        cap = flag_value if flag_value is not None else int(env)
    except ValueError:
        raise InputError(f"CQA_CAP={env!r} is not an integer") from None
    if cap < 0:
        raise InputError(f"the repair cap (--cap or CQA_CAP) must not be negative, got {cap}")
    return cap


def cmd_classify(args: argparse.Namespace) -> int:
    report = in_cparsimony(_load_query(args.query))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return 0
    yesno = lambda b: "yes" if b else "no"  # noqa: E731
    print(f"acyclic: {yesno(report.acyclic)}")
    strong = ", ".join(f"{s} -> {t}" for s, t in report.strong_attacks)
    print(f"strong attacks: {strong or 'none'}")
    print(f"id-set: {' '.join(report.id_set) if report.id_set is not None else 'none'}")
    print(f"cparsimony: {yesno(report.in_cparsimony)}")
    print(f"cforest: {yesno(report.in_cforest)}")
    print(f"violation: {report.violation.describe() if report.violation else 'none'}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    q = _load_query(args.query)
    db = load_bundle(args.db)
    cap = None if args.mode == "parsimonious" else _effective_cap(args.cap)
    results = {}
    if args.mode in ("parsimonious", "both"):
        results["parsimonious"] = cqacount_parsimonious(q, db)
    if args.mode in ("oracle", "both"):
        full = make_free(q, q.bound_vars)
        results["oracle"] = cqacount_oracle(full, q.free_vars, db, cap)
    both = args.mode == "both"
    agree = not both or results["parsimonious"] == results["oracle"]
    # the whole text in one write: one that stdout cannot encode writes nothing
    if args.json:
        payload = {mode: range_answers_json(ans) for mode, ans in results.items()}
        text = json.dumps({**payload, "agree": agree} if both else payload[args.mode], indent=2)
        text += "\n"
    else:
        text = ""
        for mode, answers in results.items():
            body = range_answers_tsv(answers)
            text += (f"# {mode}\n" if both else "") + (f"{body}\n" if body else "")
    sys.stdout.write(text)
    if not agree:
        print("error: parsimonious and oracle results disagree", file=sys.stderr)
        return 1
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    # each line is written as it is made, never joined as `attack_graph_dot` does
    q = _load_query(args.query)
    if args.kind == "attack":
        g = attack_graph(q)
        lines = g.dot("attack_graph", g._strong)
    elif args.kind == "fuxman":
        lines = fuxman_graph(q).dot("fuxman_graph")
    else:
        lines = query_graph(q).dot("query_graph")
    sys.stdout.writelines(lines)
    return 0


def cmd_fd(args: argparse.Namespace) -> int:
    q = _load_query(args.query)
    lhs = tuple(v for v in (s.strip() for s in args.lhs.split(",")) if v)
    unknown = [v for v in lhs if v not in q.variables]
    if unknown:
        raise InputError(f"variable(s) {unknown} do not occur in the query")
    print(" ".join(sorted(fdset(q).closure(lhs))))
    return 0


def cmd_repairs(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must not be negative, got {args.limit}")
    cap = _effective_cap(args.cap)
    db = load_bundle(args.db)
    count = repair_count(db)
    shown = count if args.limit is None else min(args.limit, count)
    print(f"{_count_text(count)} repairs")
    # Enumeration is lazy, so the cap only guards a full dump.
    for i, repair in enumerate(enumerate_repairs(db, cap if args.limit is None else count), 1):
        if i > shown:
            break
        print(f"repair {i}:")
        for fact in repair.facts:
            print(f"  {fact}")
    return 0


def cmd_gen3dm(args: argparse.Namespace) -> int:
    triples = []
    for lineno, raw in enumerate(_read_utf8(Path(args.triples)).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{args.triples}:{lineno}: expected three tokens, got {len(parts)}")
        triples.append(tuple(parts))
    db = build_3dm_instance(triples)
    save_bundle(db, args.out)
    (Path(args.out) / "query.cq").write_text(
        serialize_query(threedm_query()) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}: {len(db.schema)} relations, {len(db.facts)} facts")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqa",
        description="Classify self-join-free conjunctive queries and compute "
        "range-consistent COUNT answers over inconsistent databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Cparsimony/Cforest membership report")
    p.add_argument("query", help="query file (.cq)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="range-consistent COUNT per head group")
    p.add_argument("--db", required=True, help="bundle directory (schema.txt + CSVs)")
    p.add_argument("--query", required=True)
    p.add_argument("--mode", choices=("parsimonious", "oracle", "both"), default="both")
    p.add_argument("--cap", type=int, default=None, help="repair-space cap for the oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("graph", help="emit a graph of the query as DOT")
    p.add_argument("query")
    p.add_argument("--kind", choices=("attack", "fuxman", "query"), default="attack")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("fd", help="closure of a variable set under the query's FDs")
    p.add_argument("query")
    p.add_argument("--lhs", default="", help="comma-separated variables (empty for {})")
    p.set_defaults(func=cmd_fd)

    p = sub.add_parser("repairs", help="count and dump the repairs of a bundle")
    p.add_argument("--db", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="repair-space cap for a full dump")
    p.set_defaults(func=cmd_repairs)

    p = sub.add_parser("gen3dm", help="build a matching-gadget bundle from a triples file")
    p.add_argument("triples", help="one 'a1 a2 a3' triple per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen3dm)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # a value the output's encoding lacks
        bad = exc.object[exc.start : exc.end]
        print(f"error: cannot write {bad!a} in the encoding {exc.encoding}", file=sys.stderr)
        return 2
    except AnalysisRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
