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
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .quiver import MutationSequence, Quiver, _as_int


def quiver_from_dict(data: Any) -> Quiver:
    """Parse either accepted JSON shape into a quiver."""
    if not isinstance(data, dict):
        raise FormatError("quiver document must be a JSON object")
    frozen_pairs = data.get("frozen", [])
    try:
        pairs = [(_as_int(m), _as_int(f)) for m, f in frozen_pairs]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad frozen pairs: {exc}") from None
    try:
        if "arrows" in data or "vertices" in data:
            vertices = [_as_int(v) for v in data["vertices"]]
            arrows = [tuple(_as_int(x) for x in arrow) for arrow in data.get("arrows", [])]
            if any(len(a) not in (2, 3) for a in arrows):
                raise FormatError("arrows must be [src, dst] or [src, dst, mult]")
            return Quiver.from_arrows(vertices, arrows, frozen_pairs=pairs)
        if "b_matrix" in data:
            labels = [_as_int(v) for v in data["labels"]]
            rows = [[_as_int(x) for x in row] for row in data["b_matrix"]]
            mutable = [v for v in labels if v not in {f for _, f in pairs}]
            return Quiver(mutable, rows, labels, pairs)
    except FormatError:
        raise
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


def load_quiver(path: str) -> Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    return quiver_from_dict(data)


def dump_quiver(q: Quiver) -> str:
    return json.dumps(quiver_to_dict(q), indent=2, sort_keys=True) + "\n"


def parse_sequence(text: str) -> MutationSequence:
    """Comma-separated vertex labels, e.g. ``"2,3"``."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise FormatError(f"bad mutation sequence {text!r}") from None


def parse_matrix(data: Any) -> tuple[tuple[int, ...], ...]:
    """An integer matrix given as a JSON list of rows."""
    try:
        return tuple(tuple(_as_int(x) for x in row) for row in data)
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
