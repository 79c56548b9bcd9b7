"""Quiver file formats and diagram export.

Two JSON shapes are accepted:

    {"vertices": [1, 2, 3],
     "frozen": [[1, 11], [2, 12]],          # optional (mutable, frozen) pairs
     "arrows": [[1, 2, 1], [2, 3, 4]]}      # [src, dst, mult], mult >= 1

    {"labels": [1, 2, 3],
     "b_matrix": [[0, 1, 5], [-1, 0, 4], [-5, -4, 0]],
     "frozen": [[...]]}                      # optional

The arrows form is canonical on output (sorted by source then target, no
pair listed in both directions).  All output is deterministic byte for byte.
The loaders hand a document's values to the constructors unconverted, so
each rule is written once, in ``quiver``; what they raise is a FormatError.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .quiver import MutationSequence, Quiver, _as_matrix


def quiver_from_dict(data: Any) -> Quiver:
    """Parse either accepted JSON shape into a quiver."""
    if not isinstance(data, dict):
        raise FormatError("quiver document must be a JSON object")
    try:
        pairs = data.get("frozen", [])
        if "arrows" in data or "vertices" in data:
            return Quiver.from_arrows(data["vertices"], data.get("arrows", []), pairs)
        if "b_matrix" in data:
            frozen = {f for _, f in pairs}
            mutable = [v for v in data["labels"] if v not in frozen]
            return Quiver(mutable, data["b_matrix"], data["labels"], pairs)
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from None
    except Exception as exc:
        raise FormatError(str(exc)) from None
    raise FormatError("expected 'vertices'/'arrows' or 'labels'/'b_matrix'")


def quiver_to_dict(q: Quiver) -> dict:
    """Canonical arrows-form document for a quiver."""
    doc: dict[str, Any] = {
        "vertices": list(q.labels),
        "arrows": [[s, d, m] for s, d, m in q.arrows()],
    }
    if q.frozen_pairs:
        doc["frozen"] = [[m, f] for m, f in q.frozen_pairs]
    return doc


def _read_json(name: str, source: str, inline: bool) -> Any:
    """The JSON document ``source``, or unless ``inline`` the one in the file
    ``source``.  Every way a read can fail (no file, bytes that are not UTF-8,
    bad JSON, nesting too deep) is one FormatError that names ``name``."""
    try:
        if not inline:
            with open(source, "r", encoding="utf-8") as fh:
                source = fh.read()
        return json.loads(source)
    except OSError as exc:
        raise FormatError(f"cannot read {name}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{name}: invalid JSON: {exc}") from None


def load_quiver(path: str) -> Quiver:
    return quiver_from_dict(_read_json(path, path, False))


def load_matrix(arg: str) -> tuple[tuple[int, ...], ...]:
    """An extension matrix: inline JSON when ``arg`` starts with ``[``, else
    the path of a file that holds it."""
    inline = arg.lstrip().startswith("[")
    name = "extension matrix" if inline else f"extension matrix {arg}"
    return parse_matrix(_read_json(name, arg, inline))


def dump_quiver(q: Quiver) -> str:
    return json.dumps(quiver_to_dict(q), indent=2, sort_keys=True) + "\n"


def integer(text: str) -> int:
    """``int(text)`` for ASCII digits after an optional ``-``, spaces around
    them allowed; ``int()`` alone would also read ``1_0``, ``+2`` and ``٣``."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_sequence(text: str) -> MutationSequence:
    """Comma-separated vertex labels, e.g. ``"2,3"``."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(map(integer, text.split(",")))
    except ValueError:
        raise FormatError(f"bad mutation sequence {text!r}") from None


def parse_matrix(data: Any) -> tuple[tuple[int, ...], ...]:
    """An integer matrix given as a JSON list of rows."""
    try:
        return _as_matrix(data)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix: {exc}") from None


def to_dot(q: Quiver) -> str:
    """Graphviz DOT export: frozen vertices boxed, one edge per arrow pair
    with a multiplicity label when above one."""
    lines = ["digraph quiver {"]
    frozen = set(q.frozen_labels)
    for v in q.labels:
        shape = "box" if v in frozen else "circle"
        lines.append(f'  v{v} [label="{v}", shape={shape}];')
    for s, d, m in q.arrows():
        attr = f' [label="{m}"]' if m > 1 else ""
        lines.append(f"  v{s} -> v{d}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
