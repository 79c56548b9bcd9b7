"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails (a sequence is not
reddening, a cycle does not close, a catalog check fails), 2 on malformed
input, 141 (128 + SIGPIPE) when the reader closes the output pipe early.
``--json`` switches every report to a stable JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from . import catalog
from .classify import classify, forkless_explore
from .errors import (
    CycleConstructionError,
    FormatError,
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
    load_quiver,
    parse_matrix,
    parse_sequence,
    quiver_to_dict,
    to_dot,
)
from .framing import c_matrix
from .permutation import Permutation
from .quiver import reduce_sequence
from .reddening import is_maximal_green, is_reddening
from .search import enumerate_class, search_reddening


def _fmt_perm(sigma: Permutation | None) -> str:
    if sigma is None:
        return "none"
    if sigma.is_identity:
        return "id"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in sigma.cycles())


def _read_sequence(args: argparse.Namespace) -> tuple[int, ...]:
    seq = parse_sequence(args.seq)
    return reduce_sequence(seq) if args.reduce else seq


def _load_matrix(arg: str) -> tuple[tuple[int, ...], ...]:
    try:
        if arg.lstrip().startswith("["):
            return parse_matrix(json.loads(arg))
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_matrix(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad extension matrix {arg!r}: {exc}") from None


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_out(args: argparse.Namespace, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- command handlers -------------------------------------------------------

def _cmd_mutate(args) -> int:
    q = load_quiver(args.infile)
    _write_out(args, dump_quiver(q.mutate_seq(_read_sequence(args))))
    return 0


def _cmd_cmatrix(args) -> int:
    q = load_quiver(args.infile)
    c = c_matrix(q, _read_sequence(args))
    doc = {"labels": list(c.labels), "rows": [list(r) for r in c.rows]}
    _emit(args, doc, [f"labels: {list(c.labels)}"] + [str(list(r)) for r in c.rows])
    return 0


def _cmd_reddening_verify(args) -> int:
    q = load_quiver(args.infile)
    seq = _read_sequence(args)
    sigma = is_maximal_green(q, seq) if args.green else is_reddening(q, seq)
    kind = "maximal green" if args.green else "reddening"
    ok = sigma is not None
    doc = {"kind": kind, "ok": ok, "permutation": _fmt_perm(sigma)}
    _emit(args, doc, [f"{kind}: {'yes' if ok else 'no'}"
                      + (f" (permutation {_fmt_perm(sigma)})" if ok else "")])
    return 0 if ok else 1


def _cmd_search(args) -> int:
    q = load_quiver(args.infile)
    result = search_reddening(
        q,
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
    _emit(args, doc, lines)
    return 0


def _cmd_cycle_build(args) -> int:
    t = load_quiver(args.t)
    h = load_quiver(args.h)
    a = _load_matrix(args.a)
    if args.mode == "equal":
        q, seq = build_cycle_equal(t, parse_sequence(args.mt), h, parse_sequence(args.mh), a)
    elif args.mode == "general":
        q, seq = build_cycle_general(t, parse_sequence(args.mt), h, parse_sequence(args.mh), a)
    else:
        q, seq = build_acyclic_cycle(t, parse_sequence(args.m), h, parse_sequence(args.n), a)
    report = verify_cycle(q, seq)
    doc = {
        "quiver": quiver_to_dict(q),
        "sequence": list(seq),
        "length": report.length,
        "simple": report.simple,
        "closes_equal": report.closes_equal,
    }
    _emit(args, doc, [
        f"cycle of length {report.length} (simple={report.simple})",
        "sequence: " + ",".join(map(str, seq)),
    ])
    return 0


def _cmd_cycle_verify(args) -> int:
    q = load_quiver(args.infile)
    report = verify_cycle(q, _read_sequence(args))
    doc = {
        "length": report.length,
        "is_reduced": report.is_reduced,
        "closes_equal": report.closes_equal,
        "closes_iso": _fmt_perm(report.closes_iso),
        "simple": report.simple,
        "all_abundant": report.all_abundant,
    }
    _emit(args, doc, [f"{k}: {v}" for k, v in doc.items()])
    return 0 if report.closes_equal else 1


def _cmd_classify(args) -> int:
    report = classify(load_quiver(args.infile))
    doc = {
        "acyclic": report.acyclic,
        "abundant": report.abundant,
        "fork_returns": sorted(report.fork_returns),
        "key_pairs": [[list(p), w] for p, w in report.key_pairs],
        "prefork_pairs": [[list(p), r] for p, r in report.prefork_pairs],
    }
    _emit(args, doc, [f"{k}: {v}" for k, v in doc.items()])
    return 0


def _cmd_forkless(args) -> int:
    q = load_quiver(args.infile)
    report = forkless_explore(q, args.budget)
    doc = {
        "forms": len(report.forms),
        "keys": len(report.key_forms),
        "exhausted": report.exhausted,
    }
    _emit(args, doc, [
        f"non-fork canonical forms: {len(report.forms)}",
        f"keys among them: {len(report.key_forms)}",
        f"exhausted: {report.exhausted}",
    ])
    return 0


def _cmd_enumerate(args) -> int:
    q = load_quiver(args.infile)
    result = enumerate_class(q, args.budget)
    doc = {"forms": len(result.forms), "exhausted": result.exhausted}
    _emit(args, doc, [
        f"canonical forms: {len(result.forms)}",
        f"exhausted: {result.exhausted}",
    ])
    return 0


def _cmd_distinguishing(args) -> int:
    t = load_quiver(args.infile)
    ok = is_distinguishing(t, _read_sequence(args), _load_matrix(args.a))
    _emit(args, {"distinguishing": ok}, [f"distinguishing: {ok}"])
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        names = catalog.catalog_names()
        _emit(args, {"items": list(names)}, list(names))
        return 0
    if args.action == "show":
        item = catalog.catalog_item(args.name)
        doc = {
            "name": item.name,
            "quivers": {k: quiver_to_dict(v) for k, v in item.quivers.items()},
            "sequences": {k: list(v) for k, v in item.sequences.items()},
            "permutations": {k: _fmt_perm(v) for k, v in item.permutations.items()},
        }
        lines = [f"name: {item.name}"]
        lines += [f"quiver {k}: {v!r}" for k, v in item.quivers.items()]
        lines += [f"sequence {k}: {','.join(map(str, v))}" for k, v in item.sequences.items()]
        lines += [f"permutation {k}: {_fmt_perm(v)}" for k, v in item.permutations.items()]
        _emit(args, doc, lines)
        return 0
    # verify
    names = catalog.catalog_names() if args.name == "all" else (args.name,)
    all_ok = True
    doc: dict[str, Any] = {}
    lines: list[str] = []
    for name in names:
        checks = catalog.verify_item(name)
        doc[name] = [{"check": c, "ok": ok} for c, ok, _ in checks]
        for check, ok, _ in checks:
            all_ok &= ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {check}")
    _emit(args, doc, lines)
    return 0 if all_ok else 1


def _cmd_export_dot(args) -> int:
    _write_out(args, to_dot(load_quiver(args.infile)))
    return 0


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
    p.add_argument("--budget", type=int)

    p = add("enumerate", _cmd_enumerate, quiver_in, "enumerate the mutation class up to isomorphism")
    p.add_argument("--budget", type=int)

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
        status = args.handler(args)
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
