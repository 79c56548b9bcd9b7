"""Golden CLI output: stdout and exit status of two fixed sets of commands.

``cli_golden.json`` holds the expected stdout, byte for byte, and the exit
status of every command in ``COMMANDS``, mostly ``--json`` reports.
``cli_golden_text.json`` holds the stdout, stderr and exit status of every
command in ``TEXT_COMMANDS``: each subcommand's text report, and the
overflow verdicts in both modes.  ``{name}`` placeholders in an argument
stand for the quiver files written by :func:`write_inputs`.  Regenerate the
files only for an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")
TEXT_GOLDEN = os.path.join(HERE, "cli_golden_text.json")

INPUTS = {
    "kprime": {"vertices": [1, 2, 3], "arrows": [[1, 2, 1], [2, 3, 4], [1, 3, 5]]},
    "a2": {"vertices": [1, 2], "arrows": [[1, 2, 2]]},
    "a3": {"vertices": [1, 2, 3], "arrows": [[1, 2], [3, 2]]},
    "single": {"vertices": [4], "arrows": []},
    "key": {"vertices": [1, 2, 3, 4],
            "arrows": [[1, 4, 2], [2, 1, 2], [2, 3, 4], [2, 4, 3], [3, 4, 4]]},
    "fork": {"vertices": [1, 2, 3], "arrows": [[1, 2, 2], [2, 3, 2], [3, 1, 5]]},
    "t": {"vertices": [1, 2], "arrows": [[1, 2]]},
    "h": {"vertices": [5, 6], "arrows": [[5, 6]]},
    # Mutating at 2 and then 1 leaves the 64-bit range at step 1.
    "wide": {"vertices": [1, 2, 3], "arrows": [[1, 2, 3 * 10**9], [2, 3, 3 * 10**9]]},
    # Out of range as given: malformed, whatever the sequence.
    "huge": {"vertices": [1, 2], "arrows": [[1, 2, 2**63]]},
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

TEXT_COMMANDS = (
    ("mutate", "--in", "{a3}", "--seq", "1,2"),
    ("cmatrix", "--in", "{kprime}", "--seq", "1,2,3"),
    ("cmatrix", "--in", "{kprime}", "--seq", "1,1", "--reduce"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,2,3"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,2,3", "--green"),
    ("reddening-verify", "--in", "{kprime}", "--seq", "1,2"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "4", "--reduced"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "4", "--green", "--first"),
    ("reddening-search", "--in", "{kprime}", "--max-len", "0"),
    ("mgs-search", "--in", "{a3}", "--max-len", "6", "--reduced"),
    ("cycle-build", "acyclic", "--t", "{single}", "--h", "{kprime}",
     "--a", "[[2,4,3]]", "--n", "2,3"),
    ("cycle-build", "equal", "--t", "{t}", "--h", "{h}", "--a", "[[1,0],[0,0]]",
     "--mt", "1,2", "--mh", "5,6"),
    ("cycle-build", "general", "--t", "{t}", "--h", "{h}", "--a", "[[1,0],[0,0]]",
     "--mt", "1,2", "--mh", "5,6", "--json"),
    ("cycle-build", "equal", "--t", "{t}", "--h", "{h}", "--a", "[[1,0],[0,0]]",
     "--mt", "1", "--mh", "5,6"),
    ("cycle-verify", "--in", "{kprime}", "--seq", "1,2,3"),
    ("cycle-verify", "--in", "{kprime}", "--seq", "1,2"),
    ("classify", "--in", "{kprime}"),
    ("classify", "--in", "{key}"),
    ("forkless", "--in", "{key}", "--budget", "15"),
    ("forkless", "--in", "{fork}"),
    ("enumerate", "--in", "{a3}"),
    ("enumerate", "--in", "{kprime}", "--budget", "12"),
    ("distinguishing", "--in", "{a2}", "--seq", "1,2", "--a", "[[1],[1]]"),
    ("distinguishing", "--in", "{a2}", "--seq", "1,1", "--a", "[[1],[1]]"),
    ("catalog", "list"),
    ("catalog", "show", "key_K_and_Kprime"),
    ("catalog", "verify", "key_K_and_Kprime"),
    ("catalog", "verify", "no_such_item"),
    ("export-dot", "--in", "{key}"),
    # A walk that leaves the 64-bit range is a negative verdict naming the step.
    ("reddening-verify", "--in", "{wide}", "--seq", "2,1,3"),
    ("reddening-verify", "--in", "{wide}", "--seq", "2,1,3", "--json"),
    ("reddening-verify", "--in", "{wide}", "--seq", "2,1,3", "--green"),
    ("reddening-verify", "--in", "{wide}", "--seq", "2,1,3", "--green", "--json"),
    ("cycle-verify", "--in", "{wide}", "--seq", "2,1,3,2"),
    ("cycle-verify", "--in", "{wide}", "--seq", "2,1,3,2", "--json"),
    ("distinguishing", "--in", "{wide}", "--seq", "2,1", "--a", "[[1],[1],[1]]"),
    ("distinguishing", "--in", "{wide}", "--seq", "2,1", "--a", "[[1],[1],[1]]", "--json"),
    # A walk without a verdict, or an input out of range, is an error.
    ("cmatrix", "--in", "{wide}", "--seq", "2,1"),
    ("reddening-verify", "--in", "{huge}", "--seq", "1", "--json"),
    ("cycle-verify", "--in", "{huge}", "--seq", "1"),
    ("distinguishing", "--in", "{huge}", "--seq", "1", "--a", "[[1],[1]]"),
)


def write_inputs(directory: str) -> dict[str, str]:
    paths = {}
    for name, doc in INPUTS.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def run_all(directory: str, commands=COMMANDS, stderr: bool = False) -> list[dict]:
    """Exit status and stdout of every command in ``commands``, in order;
    with ``stderr``, its standard error too."""
    from redcycle.cli import main

    paths = write_inputs(directory)
    out = []
    for command in commands:
        argv = [arg.format(**paths) for arg in command]
        stdout, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(errors):
            status = main(argv)
        out.append({"argv": list(command), "exit": status, "stdout": stdout.getvalue()})
        if stderr:
            out[-1]["stderr"] = errors.getvalue()
    return out


def _check(directory: str, path: str, commands, stderr: bool) -> None:
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == [list(c) for c in commands]
    for got, want in zip(run_all(directory, commands, stderr), golden):
        assert got == want, " ".join(want["argv"])


def test_cli_output_matches_golden(tmp_path):
    _check(str(tmp_path), GOLDEN, COMMANDS, stderr=False)


def test_cli_text_output_matches_golden(tmp_path):
    _check(str(tmp_path), TEXT_GOLDEN, TEXT_COMMANDS, stderr=True)


if __name__ == "__main__":
    for path, commands, stderr in ((GOLDEN, COMMANDS, False), (TEXT_GOLDEN, TEXT_COMMANDS, True)):
        with tempfile.TemporaryDirectory() as tmp:
            results = run_all(tmp, commands, stderr)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
