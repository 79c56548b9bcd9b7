"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails (a sequence is not
reddening, a cycle does not close, a catalog check fails), 2 on malformed
input, 141 (128 + SIGPIPE) when the reader closes the output pipe early.
``--json`` switches every report to a stable JSON document.

Every ``_cmd_*`` handler computes and returns a :data:`Report`, ``(status,
doc, lines)``: its exit status, its ``--json`` document and its text lines.
``mutate`` and ``export-dot`` write a file instead: their ``doc`` is None
and ``lines`` is the file's text.  :func:`main` alone writes, to stdout or
``--out``, and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from . import catalog
from .classify import DEFAULT_BUDGET, classify, forkless_explore
from .errors import (
    CycleConstructionError,
    FormatError,
    IntegerOverflowError,
    NonIdentityPermutationError,
    NotReddeningError,
    RedcycleError,
)
from .extcycles import (
    build_acyclic_cycle,
    build_cycle_equal,
    build_cycle_general,
    is_distinguishing,
    verify_cycle,
)
from .formats import (
    dump_quiver,
    load_matrix,
    load_quiver,
    parse_sequence,
    quiver_to_dict,
    to_dot,
)
from .framing import c_matrix
from .permutation import Permutation
from .quiver import reduce_sequence
from .reddening import is_maximal_green, is_reddening
from .search import enumerate_class, search_reddening

Report = tuple[int, dict | None, list[str] | str]


def _fmt_perm(sigma: Permutation | None) -> str:
    if sigma is None:
        return "none"
    if sigma.is_identity:
        return "id"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in sigma.cycles())


def _read_sequence(args: argparse.Namespace) -> tuple[int, ...]:
    seq = parse_sequence(args.seq)
    return reduce_sequence(seq) if args.reduce else seq


def _verdict(compute: Callable[[], dict], negative: dict) -> dict:
    """``compute()``, or else ``negative`` naming the step at which a legal
    walk left the 64-bit range; an overflow at no step (an input out of
    range) is malformed and propagates."""
    try:
        return compute()
    except IntegerOverflowError as exc:
        if exc.step is None:
            raise
        return {**negative, "overflow_step": exc.step, "overflow": str(exc)}


# -- command handlers -------------------------------------------------------

def _cmd_mutate(args) -> Report:
    q = load_quiver(args.infile)
    return 0, None, dump_quiver(q.mutate_seq(_read_sequence(args)))


def _cmd_cmatrix(args) -> Report:
    c = c_matrix(load_quiver(args.infile), _read_sequence(args))
    doc = {"labels": list(c.labels), "rows": [list(r) for r in c.rows]}
    return 0, doc, [f"labels: {list(c.labels)}"] + [str(list(r)) for r in c.rows]


def _cmd_reddening_verify(args) -> Report:
    q, seq = load_quiver(args.infile), _read_sequence(args)
    kind = "maximal green" if args.green else "reddening"
    check = is_maximal_green if args.green else is_reddening

    def report(sigma: Permutation | None) -> dict:
        return {"kind": kind, "ok": sigma is not None, "permutation": _fmt_perm(sigma)}

    doc = _verdict(lambda: report(check(q, seq)), report(None))
    head = f"{kind}: " + (f"yes (permutation {doc['permutation']})" if doc["ok"] else "no")
    tail = [f"{k}: {doc[k]}" for k in ("overflow_step", "overflow") if k in doc]
    return (0 if doc["ok"] else 1), doc, [head] + tail


def _cmd_search(args) -> Report:
    result = search_reddening(
        load_quiver(args.infile),
        max_len=args.max_len,
        reduced_only=args.reduced,
        green_only=args.green_only,
        first_only=args.first,
        prune_revisited=args.prune_revisited,
    )
    doc = {
        "count": len(result),
        "complete": result.complete,
        "overflow_branches": result.overflow_branches,
        "sequences": [
            {"sequence": list(s), "permutation": _fmt_perm(p)} for s, p in result
        ],
    }
    lines = [f"found {len(result)} sequence(s); complete={result.complete}"]
    lines += [f"  {','.join(map(str, s))}  ->  {_fmt_perm(p)}" for s, p in result]
    return 0, doc, lines


def _cmd_cycle_build(args) -> Report:
    t, h, a = load_quiver(args.t), load_quiver(args.h), load_matrix(args.a)
    if args.mode == "acyclic":
        q, seq = build_acyclic_cycle(t, parse_sequence(args.m), h, parse_sequence(args.n), a)
    else:
        build = build_cycle_equal if args.mode == "equal" else build_cycle_general
        q, seq = build(t, parse_sequence(args.mt), h, parse_sequence(args.mh), a)
    r = verify_cycle(q, seq)
    doc = {"quiver": quiver_to_dict(q), "sequence": list(seq), "length": r.length,
           "simple": r.simple, "closes_equal": r.closes_equal}
    seq_text = ",".join(map(str, seq))
    return 0, doc, [f"cycle of length {r.length} (simple={r.simple})", f"sequence: {seq_text}"]


def _cmd_cycle_verify(args) -> Report:
    q, seq = load_quiver(args.infile), _read_sequence(args)

    def report() -> dict:
        r = verify_cycle(q, seq)
        return {
            "length": r.length,
            "is_reduced": r.is_reduced,
            "closes_equal": r.closes_equal,
            "closes_iso": _fmt_perm(r.closes_iso),
            "simple": r.simple,
            "all_abundant": r.all_abundant,
        }

    doc = _verdict(report, {"length": len(seq), "closes_equal": False})
    return (0 if doc["closes_equal"] else 1), doc, [f"{k}: {v}" for k, v in doc.items()]


def _cmd_classify(args) -> Report:
    report = classify(load_quiver(args.infile))
    doc = {
        "acyclic": report.acyclic,
        "abundant": report.abundant,
        "fork_returns": sorted(report.fork_returns),
        "key_pairs": [[list(p), w] for p, w in report.key_pairs],
        "prefork_pairs": [[list(p), r] for p, r in report.prefork_pairs],
    }
    return 0, doc, [f"{k}: {v}" for k, v in doc.items()]


def _cmd_forkless(args) -> Report:
    report = forkless_explore(load_quiver(args.infile), args.budget)
    forms, keys, exhausted = len(report.forms), len(report.key_forms), report.exhausted
    doc = {"forms": forms, "keys": keys, "exhausted": exhausted}
    return 0, doc, [f"non-fork canonical forms: {forms}", f"keys among them: {keys}",
                    f"exhausted: {exhausted}"]


def _cmd_enumerate(args) -> Report:
    result = enumerate_class(load_quiver(args.infile), args.budget)
    doc = {"forms": len(result.forms), "exhausted": result.exhausted}
    return 0, doc, [f"canonical forms: {len(result.forms)}", f"exhausted: {result.exhausted}"]


def _cmd_distinguishing(args) -> Report:
    t, seq, a = load_quiver(args.infile), _read_sequence(args), load_matrix(args.a)
    doc = _verdict(
        lambda: {"distinguishing": is_distinguishing(t, seq, a)}, {"distinguishing": False}
    )
    return (0 if doc["distinguishing"] else 1), doc, [f"{k}: {v}" for k, v in doc.items()]


def _cmd_catalog(args) -> Report:
    if args.action == "list":
        names = list(catalog.catalog_names())
        return 0, {"items": names}, names
    names = catalog.catalog_names() if args.name == "all" else (args.name,)
    if args.action == "show":
        docs, lines = {}, []
        for item in map(catalog.catalog_item, names):
            docs[item.name] = {
                "name": item.name,
                "quivers": {k: quiver_to_dict(v) for k, v in item.quivers.items()},
                "sequences": {k: list(v) for k, v in item.sequences.items()},
                "permutations": {k: _fmt_perm(v) for k, v in item.permutations.items()},
            }
            lines += [f"name: {item.name}"]
            lines += [f"quiver {k}: {v!r}" for k, v in item.quivers.items()]
            lines += [f"sequence {k}: {','.join(map(str, v))}" for k, v in item.sequences.items()]
            lines += [f"permutation {k}: {_fmt_perm(v)}" for k, v in item.permutations.items()]
        return 0, (docs if args.name == "all" else docs[args.name]), lines
    doc = {
        name: [{"check": c, "ok": ok} for c, ok, _ in catalog.verify_item(name)]
        for name in names
    }
    checks = [(name, c) for name, cs in doc.items() for c in cs]
    lines = [f"[{'PASS' if c['ok'] else 'FAIL'}] {name}: {c['check']}" for name, c in checks]
    return (0 if all(c["ok"] for _, c in checks) else 1), doc, lines


def _cmd_export_dot(args) -> Report:
    return 0, None, to_dot(load_quiver(args.infile))


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redcycle",
        description="Quiver mutation, reddening sequences, and mutation cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="JSON report output")
    quiver_in = argparse.ArgumentParser(add_help=False, parents=[report])
    quiver_in.add_argument("--in", dest="infile", required=True)
    sequence_in = argparse.ArgumentParser(add_help=False, parents=[quiver_in])
    sequence_in.add_argument("--seq", required=True)
    sequence_in.add_argument("--reduce", action="store_true", help="reduce the sequence first")

    def add(name: str, handler, parent: argparse.ArgumentParser, help_text: str):
        p = sub.add_parser(name, parents=[parent], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("mutate", _cmd_mutate, sequence_in, "mutate a quiver along a sequence")
    p.add_argument("--out")

    add("cmatrix", _cmd_cmatrix, sequence_in, "C-matrix of a sequence")

    p = add("reddening-verify", _cmd_reddening_verify, sequence_in,
            "check a reddening (or maximal green) sequence")
    p.add_argument("--green", action="store_true", help="require maximal green")

    search = argparse.ArgumentParser(add_help=False, parents=[quiver_in])
    search.add_argument("--max-len", type=int, required=True)
    search.add_argument("--reduced", action="store_true")
    search.add_argument("--first", action="store_true")
    search.add_argument("--prune-revisited", action="store_true")
    p = add("reddening-search", _cmd_search, search, "enumerate reddening sequences up to a length")
    p.add_argument("--green", dest="green_only", action="store_true")
    p = add("mgs-search", _cmd_search, search, "enumerate maximal green sequences up to a length")
    p.set_defaults(green_only=True)

    p = add("cycle-build", _cmd_cycle_build, report, "build a mutation cycle from two factors")
    p.add_argument("mode", choices=["equal", "general", "acyclic"])
    p.add_argument("--t", required=True, help="T factor quiver file")
    p.add_argument("--h", required=True, help="H factor quiver file")
    p.add_argument("--a", required=True, help="extension matrix (file or inline JSON)")
    p.add_argument("--mt", default="", help="T reddening sequence (equal/general)")
    p.add_argument("--mh", default="", help="H reddening sequence (equal/general)")
    p.add_argument("--m", default="", help="T conjugator (acyclic mode)")
    p.add_argument("--n", default="", help="H conjugator (acyclic mode)")

    add("cycle-verify", _cmd_cycle_verify, sequence_in, "verify a candidate mutation cycle")
    add("classify", _cmd_classify, quiver_in, "structural predicates of a quiver")

    p = add("forkless", _cmd_forkless, quiver_in, "explore the forkless part")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add(
        "enumerate", _cmd_enumerate, quiver_in, "enumerate the mutation class up to isomorphism"
    )
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("distinguishing", _cmd_distinguishing, sequence_in, "test a distinguishing matrix")
    p.add_argument("--a", required=True)

    p = add("catalog", _cmd_catalog, report, "list, show, or verify catalog items")
    p.add_argument("action", choices=["list", "show", "verify"])
    p.add_argument("name", nargs="?", default="all")

    p = add("export-dot", _cmd_export_dot, quiver_in, "Graphviz DOT export")
    p.add_argument("--out")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status, doc, lines = args.handler(args)
        # A large write that a closed pipe cuts short raises nothing, so no
        # output goes out in one write: the next one raises.
        if doc is None and args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(lines)
            except OSError as exc:
                raise FormatError(f"cannot write {args.out}: {exc}") from None
        elif doc is None:
            sys.stdout.writelines(lines[i : i + 65536] for i in range(0, len(lines), 65536))
        elif args.json:
            print(json.dumps(doc, sort_keys=True))  # the newline is a second write
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at devnull so
        # the flush at exit cannot raise again, and exit as a shell reports
        # a process killed by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (NotReddeningError, NonIdentityPermutationError, CycleConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RedcycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
