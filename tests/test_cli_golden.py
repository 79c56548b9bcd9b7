"""Golden CLI output: stdout and exit status of a fixed set of commands.

``cli_golden.json`` holds the expected stdout, byte for byte, and the exit
status of every command in ``COMMANDS``.  ``{name}`` placeholders in an
argument stand for the quiver files written by :func:`write_inputs`.
Regenerate the file only for an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

INPUTS = {
    "kprime": {"vertices": [1, 2, 3], "arrows": [[1, 2, 1], [2, 3, 4], [1, 3, 5]]},
    "a2": {"vertices": [1, 2], "arrows": [[1, 2, 2]]},
    "a3": {"vertices": [1, 2, 3], "arrows": [[1, 2], [3, 2]]},
    "single": {"vertices": [4], "arrows": []},
    "key": {"vertices": [1, 2, 3, 4],
            "arrows": [[1, 4, 2], [2, 1, 2], [2, 3, 4], [2, 4, 3], [3, 4, 4]]},
    "fork": {"vertices": [1, 2, 3], "arrows": [[1, 2, 2], [2, 3, 2], [3, 1, 5]]},
}

COMMANDS = (
    ("mutate", "--in", "{kprime}", "--seq", "2,3"),
    ("mutate", "--in", "{kprime}", "--seq", "2,2,3", "--reduce"),
    ("cmatrix", "--in", "{kprime}", "--seq", "1,2,3", "--json"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,2,3", "--json"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,2,3", "--green", "--json"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,1", "--reduce", "--json"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "4", "--reduced", "--json"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "4", "--green", "--first", "--json"),
    ("reddening-search", "--in", "{a3}", "--max-len", "4", "--prune-revisited", "--json"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "0", "--json"),
    ("mgs-search", "--in", "{kprime}", "--max-len", "4", "--json"),
    ("mgs-search", "--in", "{a3}", "--max-len", "6", "--reduced", "--json"),
    ("cycle-build", "acyclic", "--t", "{single}", "--h", "{kprime}",
     "--a", "[[2,4,3]]", "--n", "2,3", "--json"),
    ("cycle-verify", "--in", "{kprime}", "--seq", "1,2,3", "--json"),
    ("cycle-verify", "--in", "{kprime}", "--seq", "1,2", "--json"),
    ("classify", "--in", "{kprime}", "--json"),
    ("forkless", "--in", "{a2}", "--json"),
    ("forkless", "--in", "{a3}", "--budget", "3", "--json"),
    ("forkless", "--in", "{key}", "--budget", "15", "--json"),
    ("forkless", "--in", "{fork}", "--json"),
    ("enumerate", "--in", "{a3}", "--json"),
    ("enumerate", "--in", "{kprime}", "--budget", "1", "--json"),
    ("enumerate", "--in", "{kprime}", "--budget", "12", "--json"),
    ("distinguishing", "--in", "{a2}", "--seq", "1,2", "--a", "[[1],[1]]", "--json"),
    ("catalog", "list", "--json"),
    ("catalog", "show", "key_K_and_Kprime", "--json"),
    ("catalog", "verify", "all", "--json"),
    ("export-dot", "--in", "{kprime}"),
)


def write_inputs(directory: str) -> dict[str, str]:
    paths = {}
    for name, doc in INPUTS.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def run_all(directory: str) -> list[dict]:
    """Exit status and stdout of every command, in ``COMMANDS`` order."""
    from redcycle.cli import main

    paths = write_inputs(directory)
    out = []
    for command in COMMANDS:
        argv = [arg.format(**paths) for arg in command]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
        out.append({"argv": list(command), "exit": status, "stdout": stdout.getvalue()})
    return out


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("REDCYCLE_BUDGET", raising=False)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == [list(c) for c in COMMANDS]
    for got, want in zip(run_all(str(tmp_path)), golden):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
