"""File formats and the command-line interface."""

import json
import random

import pytest

from redcycle import Quiver, catalog_item, catalog_names, framed
from redcycle.cli import main
from redcycle.errors import FormatError, UnknownVertexError
from redcycle.extcycles import is_distinguishing
from redcycle.formats import (
    dump_quiver,
    parse_matrix,
    parse_sequence,
    quiver_from_dict,
    quiver_to_dict,
    to_dot,
)

from conftest import random_quiver


def roundtrip(q: Quiver) -> Quiver:
    return quiver_from_dict(json.loads(dump_quiver(q)))


def test_roundtrip_random_quivers():
    rng = random.Random(157)
    for _ in range(200):
        q = random_quiver(rng, max_n=6)
        assert roundtrip(q) == q


def test_roundtrip_framed_quiver():
    q = framed(Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3, 4)]))
    assert roundtrip(q) == q


def test_b_matrix_form_accepted():
    doc = {"labels": [1, 2], "b_matrix": [[0, 3], [-3, 0]]}
    assert quiver_from_dict(doc) == Quiver.from_arrows([1, 2], [(1, 2, 3)])


def test_b_matrix_label_order_does_not_change_the_quiver():
    # The same quivers listed with their labels out of ascending order.
    cases = [
        ({"labels": [2, 1], "b_matrix": [[0, 1], [-1, 0]]}, Quiver.from_arrows([1, 2], [(2, 1)])),
        (
            {"labels": [12, 2, 1, 11], "b_matrix": [[0, 0, -1, 0], [0, 0, 1, 1], [1, -1, 0, 0], [0, -1, 0, 0]],
             "frozen": [[1, 11], [2, 12]]},
            Quiver.from_arrows([1, 2, 11, 12], [(2, 1), (1, 12), (2, 11)], frozen_pairs=[(1, 11), (2, 12)]),
        ),
    ]
    for doc, expected in cases:
        q = quiver_from_dict(doc)
        assert q == expected
        assert hash(q) == hash(expected)
        assert q.encode() == expected.encode()
        assert quiver_to_dict(q) == quiver_to_dict(expected)


def test_arrows_output_is_canonical_and_deterministic():
    q = Quiver.from_arrows([1, 2, 3], [(2, 3, 4), (1, 2), (1, 3, 5)])
    doc = quiver_to_dict(q)
    assert doc["arrows"] == sorted(doc["arrows"])
    assert dump_quiver(q) == dump_quiver(roundtrip(q))


def test_bad_documents_rejected():
    with pytest.raises(FormatError):
        quiver_from_dict({"vertices": [1, 2], "arrows": [[1]]})
    with pytest.raises(FormatError):
        quiver_from_dict({"nonsense": True})
    with pytest.raises(FormatError):
        quiver_from_dict([1, 2])
    with pytest.raises(FormatError):
        quiver_from_dict({"labels": [1, 2], "b_matrix": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("arrows", [[[1, 2, 1, 1]], [[1]], [[1, 1], [1]]])
def test_malformed_arrow_is_one_error_line(tmp_path, capsys, arrows):
    path = _write(tmp_path, "q.json", {"vertices": [1, 2], "arrows": arrows})
    assert main(["classify", "--in", path]) == 2
    _assert_one_error_line(capsys, "arrows must be [src, dst] or [src, dst, mult]")


def test_loops_rejected_on_load(tmp_path, capsys):
    doc = {"vertices": [1, 2], "arrows": [[1, 1]]}
    with pytest.raises(FormatError, match="loop at vertex 1"):
        quiver_from_dict(doc)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: loop at vertex 1: quivers have no loops\n"


@pytest.mark.parametrize("doc", [
    {"vertices": [1, 1, 2], "arrows": [[1, 2]]},
    {"vertices": [1, 2, 11, 11], "arrows": [[1, 2]], "frozen": [[1, 11]]},
    {"labels": [1, 1, 2], "b_matrix": [[0, 0, 1], [0, 0, 1], [-1, -1, 0]]},
], ids=["arrows", "arrows frozen", "b_matrix"])
def test_repeated_vertex_is_malformed_in_both_file_shapes(tmp_path, capsys, doc):
    # The arrows shape used to build its labels from a set, so a repeated
    # vertex was merged and the quiver loaded.
    with pytest.raises(FormatError, match="duplicate vertex labels"):
        quiver_from_dict(doc)
    assert main(["classify", "--in", _write(tmp_path, "q.json", doc)]) == 2
    _assert_one_error_line(capsys, "duplicate vertex labels")


def test_cli_cycle_verify_names_the_overflow_step(tmp_path, capsys):
    # A walk that leaves the 64-bit range gets a non-closing verdict (exit 1)
    # that names the step, not a malformed-input error.
    item = catalog_item("three_torus_extension")
    path = tmp_path / "q.json"
    path.write_text(dump_quiver(item.quivers["Q"]))
    seq = ",".join(map(str, item.sequences["stated_cycle"]))
    assert main(["cycle-verify", "--in", str(path), "--seq", seq, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["closes_equal"] is False and doc["length"] == 60
    assert doc["overflow_step"] == 49
    assert doc["overflow"].startswith("arrow multiplicity exceeds 64-bit range")
    assert doc["overflow"].endswith(", at sequence index 49")
    assert main(["cycle-verify", "--in", str(path), "--seq", seq]) == 1
    captured = capsys.readouterr()
    assert "overflow_step: 49\n" in captured.out
    assert captured.err == ""


def test_cli_reports_on_a_rank_1100_path(tmp_path, capsys):
    # All three commands order the 1,100 vertices canonically; a recursive
    # ordering raised RecursionError here.
    doc = {"vertices": list(range(1, 1101)), "arrows": [[v, v + 1] for v in range(1, 1100)]}
    path = _write(tmp_path, "path1100.json", doc)
    assert main(["enumerate", "--in", path, "--budget", "1", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"exhausted": False, "forms": 1}
    assert "Traceback" not in captured.err
    assert main(["cycle-verify", "--in", path, "--seq", "1", "--json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["length"] == 1 and report["closes_iso"] == "none"
    assert "Traceback" not in captured.err
    assert main(["forkless", "--in", path, "--budget", "1", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"exhausted": False, "forms": 1, "keys": 0}
    assert "Traceback" not in captured.err


def test_cli_cycle_verify_overflowing_input_is_malformed(tmp_path, capsys):
    # An overflow that is not a step of the walk is bad input: exit 2.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2, 2**63]]}))
    assert main(["cycle-verify", "--in", str(path), "--seq", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arrow multiplicity exceeds 64-bit range")


def test_cli_distinguishing_names_the_overflow_step(tmp_path, capsys):
    # A legal walk that leaves the 64-bit range is not distinguishing
    # (exit 1), and the verdict names the step; it is not malformed input.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2, 3]]}))
    argv = ["distinguishing", "--in", str(path), "--seq", ",".join(["1,2"] * 40),
            "--a", "[[1],[1]]"]
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "distinguishing": False,
        "overflow_step": 46,
        "overflow": "arrow multiplicity exceeds 64-bit range at (2, 3), at sequence index 46",
    }
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("distinguishing: False\noverflow_step: 46\n")
    assert captured.err == ""


@pytest.mark.parametrize("arrows, a", [
    ([[1, 2, 2**63]], "[[1],[1]]"),  # the input quiver
    ([[1, 2, 3]], f"[[{2**63}],[1]]"),  # the extension it builds
])
def test_cli_distinguishing_overflowing_input_is_malformed(tmp_path, capsys, arrows, a):
    # An overflow that is not a step of the walk is bad input: exit 2.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": arrows}))
    assert main(["distinguishing", "--in", str(path), "--seq", "1,2", "--a", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arrow multiplicity exceeds 64-bit range")


@pytest.mark.parametrize("green", [[], ["--green"]])
def test_cli_reddening_verify_names_the_overflow_step(tmp_path, capsys, green):
    # A legal walk that leaves the 64-bit range is a negative verdict
    # (exit 1) that names the step, with or without --green: every step of
    # 2,1,2,1,... is green here, so both walks overflow at the same step.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2, 3]]}))
    argv = ["reddening-verify", "--in", str(path), "--seq", ",".join(["2,1"] * 40)] + green
    kind = "maximal green" if green else "reddening"
    overflow = "arrow multiplicity exceeds 64-bit range at (2, 102), at sequence index 45"
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "kind": kind, "ok": False, "permutation": "none", "overflow_step": 45, "overflow": overflow,
    }
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"{kind}: no\noverflow_step: 45\noverflow: {overflow}\n"


def test_cli_reddening_verify_names_the_three_torus_splice_overflow(tmp_path, capsys):
    # The framed walk of the recorded splice leaves the 64-bit range at the
    # same step as the unframed one (acceptance criterion 7e).
    item = catalog_item("three_torus_extension")
    path = tmp_path / "q.json"
    path.write_text(dump_quiver(item.quivers["Q"]))
    seq = ",".join(map(str, item.sequences["stated_cycle"]))
    assert main(["reddening-verify", "--in", str(path), "--seq", seq, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False and doc["overflow_step"] == 49
    assert doc["overflow"].endswith(", at sequence index 49")


@pytest.mark.parametrize("command", ["cmatrix", "mutate"])
def test_cli_overflowing_walk_without_a_verdict_is_an_error_that_names_the_step(
    tmp_path, capsys, command
):
    # cmatrix and mutate give no verdict, so an overflow stays an error
    # (exit 2), and its message names the step.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2, 3], "arrows": [[1, 2, 2**32], [2, 3, 2**32]]}))
    assert main([command, "--in", str(path), "--seq", "1,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: arrow multiplicity exceeds 64-bit range at (1, 3), at sequence index 2\n"
    )


@pytest.mark.parametrize("command", ["cmatrix", "reddening-verify"])
def test_cli_frame_label_is_an_unknown_vertex(tmp_path, capsys, command):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2]]}))
    assert main([command, "--in", str(path), "--seq", "1,101"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown vertex 101\n"


@pytest.mark.parametrize("green", [[], ["--green"]])
def test_cli_unknown_label_after_a_red_step_is_malformed_in_both_modes(tmp_path, capsys, green):
    # Vertex 1 is red after the first step, so a green walk would stop at
    # step 1; the label 999 is checked before any step, in both modes.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2]]}))
    assert main(["reddening-verify", "--in", str(path), "--seq", "1,1,999"] + green) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown vertex 999\n"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"  # one line, no traceback


@pytest.mark.parametrize("a, message", [
    ("[[1,2],[1]]", "extension matrix must be 2x2: row 2 has length 1"),
    ("[]", "extension matrix must have 2 row(s): 0 given"),
])
def test_cli_distinguishing_bad_extension_matrix_is_malformed(tmp_path, capsys, a, message):
    a2 = _write(tmp_path, "a2.json", {"vertices": [1, 2], "arrows": [[1, 2]]})
    assert main(["distinguishing", "--in", a2, "--seq", "1", "--a", a]) == 2
    _assert_one_error_line(capsys, message)


def test_cli_distinguishing_framed_factor_is_malformed(tmp_path, capsys):
    doc = quiver_to_dict(framed(Quiver.from_arrows([1, 2], [(1, 2)])))
    path = _write(tmp_path, "framed.json", doc)
    assert main(["distinguishing", "--in", path, "--seq", "1", "--a", "[[1],[1]]"]) == 2
    _assert_one_error_line(capsys, "extension factors must be unframed")


@pytest.mark.parametrize("a, message", [
    ("[[1]]", "extension matrix must be 2x2: 1 row(s) given"),
    ("[[1,1],[1]]", "extension matrix must be 2x2: row 2 has length 1"),
])
def test_cli_cycle_build_bad_extension_matrix_is_malformed(tmp_path, capsys, a, message):
    t = _write(tmp_path, "t.json", {"vertices": [1, 2], "arrows": [[1, 2]]})
    h = _write(tmp_path, "h.json", {"vertices": [3, 4], "arrows": [[3, 4]]})
    argv = ["cycle-build", "equal", "--t", t, "--h", h, "--mt", "1,2", "--mh", "3,4", "--a", a]
    assert main(argv) == 2
    _assert_one_error_line(capsys, message)


@pytest.mark.parametrize("doc", [
    {"vertices": [1, 2.9], "arrows": [[1, 2]]},
    {"vertices": [1, 2], "arrows": [[1, 2, 1.7]]},
    {"labels": [1, 2], "b_matrix": [[0, 1.5], [-1.5, 0]]},
    {"vertices": [1, 2, 11], "arrows": [[1, 11]], "frozen": [[1, 11.0]]},
])
def test_non_integer_numbers_in_a_quiver_are_malformed(tmp_path, capsys, doc):
    # int() would truncate these to a different quiver and exit 0.
    with pytest.raises(FormatError):
        quiver_from_dict(doc)
    assert main(["classify", "--in", _write(tmp_path, "q.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_non_integer_extension_matrix_is_malformed(tmp_path, capsys):
    with pytest.raises(FormatError):
        parse_matrix([[1.9], [0.5]])
    a2 = _write(tmp_path, "a2.json", {"vertices": [1, 2], "arrows": [[1, 2]]})
    assert main(["distinguishing", "--in", a2, "--seq", "1", "--a", "[[1.9],[0.5]]"]) == 2
    _assert_one_error_line(capsys, "bad matrix: 'float' object cannot be interpreted as an integer")


def test_non_integer_exchange_matrix_is_refused():
    with pytest.raises(TypeError):
        Quiver([1, 2], [[0, 1.5], [-1.5, 0]])


BOOL_ERROR = "'bool' object cannot be interpreted as an integer"


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("doc", [
    {"vertices": [1, "B"], "arrows": [[1, 2]]},
    {"vertices": [1, 2], "arrows": [["B", 2]]},
    {"vertices": [1, 2], "arrows": [[1, "B"]]},
    {"vertices": [1, 2], "arrows": [[1, 2, "B"]]},
    {"labels": [1, "B"], "b_matrix": [[0, 1], [-1, 0]]},
    {"labels": [1, 2], "b_matrix": [[0, "B"], [0, 0]]},
    {"vertices": [1, 2, 11], "arrows": [[1, 11]], "frozen": [["B", 11]]},
    {"vertices": [1, 2, 11], "arrows": [[1, 11]], "frozen": [[1, "B"]]},
], ids=["vertex", "source", "target", "multiplicity", "label", "entry", "frozen pair", "frozen"])
def test_json_booleans_in_a_quiver_are_malformed(tmp_path, capsys, doc, value):
    # operator.index(True) == 1, so a JSON true used to load as the number 1.
    # "B" marks where the boolean goes.
    doc = json.loads(json.dumps(doc).replace('"B"', json.dumps(value)))
    with pytest.raises(FormatError):
        quiver_from_dict(doc)
    assert main(["mutate", "--in", _write(tmp_path, "q.json", doc), "--seq", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("a", ["[[true],[1]]", "[[1],[false]]"])
def test_json_booleans_in_an_extension_matrix_are_malformed(tmp_path, capsys, a):
    with pytest.raises(FormatError):
        parse_matrix(json.loads(a))
    a2 = _write(tmp_path, "a2.json", {"vertices": [1, 2], "arrows": [[1, 2]]})
    assert main(["distinguishing", "--in", a2, "--seq", "1", "--a", a]) == 2
    _assert_one_error_line(capsys, f"bad matrix: {BOOL_ERROR}")


def test_booleans_are_not_labels_or_entries():
    # True == 1 and hash(True) == hash(1), but it would encode as b"True".
    rows = [[0, 1], [-1, 0]]
    with pytest.raises(ValueError, match="labels must be positive integers"):
        Quiver([True, 2], rows)
    with pytest.raises(ValueError, match="labels must be positive integers"):
        Quiver([1, 2], rows, labels=[True, 2])
    with pytest.raises(TypeError, match=BOOL_ERROR):
        Quiver([1, 2], [[0, True], [-1, 0]])
    with pytest.raises(ValueError, match="labels must be positive integers"):
        Quiver.from_arrows([1, 2, 11], [(1, 11)], frozen_pairs=[(True, 11)])
    with pytest.raises(UnknownVertexError, match="arrow endpoint True is not a vertex"):
        Quiver.from_arrows([1, 2], [(True, 2)])
    with pytest.raises(UnknownVertexError, match="arrow endpoint True is not a vertex"):
        Quiver.from_arrows([1, 2], [(2, True)])
    with pytest.raises(ValueError, match="multiplicity"):
        Quiver.from_arrows([1, 2], [(1, 2, True)])
    with pytest.raises(ValueError, match="labels must be positive integers"):
        Quiver.from_arrows([1, 2], [(1, 2)]).relabeled({1: True})
    with pytest.raises(TypeError, match=BOOL_ERROR):
        is_distinguishing(Quiver.from_arrows([1, 2], [(1, 2)]), (1,), [[True], [1]])


def test_parse_sequence():
    assert parse_sequence("2,3") == (2, 3)
    assert parse_sequence(" 1, 2 ") == (1, 2)
    assert parse_sequence("") == ()
    with pytest.raises(FormatError):
        parse_sequence("2,x")


def test_dot_export_shapes_and_labels():
    q = framed(Quiver.from_arrows([1, 2], [(1, 2, 3)]))
    dot = to_dot(q)
    assert "shape=circle" in dot and "shape=box" in dot
    assert 'label="3"' in dot
    assert dot == to_dot(q)


@pytest.fixture
def kprime_file(tmp_path):
    path = tmp_path / "kprime.json"
    path.write_text(json.dumps(
        {"vertices": [1, 2, 3], "arrows": [[1, 2, 1], [2, 3, 4], [1, 3, 5]]}
    ))
    return str(path)


def test_cli_mutate_reduce_flag(kprime_file, capsys):
    assert main(["mutate", "--in", kprime_file, "--seq", "2,2", "--reduce"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["arrows"] == [[1, 2, 1], [1, 3, 5], [2, 3, 4]]


def test_cli_reddening_verify_exit_codes(kprime_file, capsys):
    assert main(["reddening-verify", "--in", kprime_file, "--seq", "1,2,3"]) == 0
    assert main(["reddening-verify", "--in", kprime_file, "--seq", "1,1"]) == 1
    capsys.readouterr()


def test_cli_search_and_mgs(kprime_file, capsys):
    assert main(["reddening-search", "--in", kprime_file, "--max-len", "3",
                 "--reduced", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {"sequence": [1, 2, 3], "permutation": "id"} in out["sequences"]
    assert main(["mgs-search", "--in", kprime_file, "--max-len", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] >= 1


def test_cli_cycle_build_rejects_bad_factors(tmp_path, capsys):
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"vertices": [4], "arrows": []}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2, 1]]}))
    code = main([
        "cycle-build", "equal", "--t", str(t), "--h", str(h),
        "--a", "[[1,1]]", "--mt", "4", "--mh", "1",
    ])
    assert code == 1
    capsys.readouterr()


def test_cli_classify_and_enumerate(kprime_file, capsys):
    assert main(["classify", "--in", kprime_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["acyclic"] is True
    assert main(["enumerate", "--in", kprime_file, "--budget", "50", "--json"]) == 0
    capsys.readouterr()


def test_cli_catalog_show_defaults_to_every_item(capsys):
    # "all" is the documented default name, for show as for verify.
    docs, text = {}, ""
    for name in catalog_names():
        assert main(["catalog", "show", name, "--json"]) == 0
        docs[name] = json.loads(capsys.readouterr().out)
        assert main(["catalog", "show", name]) == 0
        text += capsys.readouterr().out
    for argv in (["catalog", "show"], ["catalog", "show", "all"]):
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == docs
        assert main(argv) == 0
        assert capsys.readouterr().out == text


def test_cli_export_dot_refuses_json(kprime_file, capsys):
    # DOT is export-dot's only output: the flag is refused, not ignored.
    assert main(["export-dot", "--in", kprime_file, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --json" in err


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mutate", "--in", str(bad), "--seq", "1"]) == 2
    assert main(["mutate", "--in", str(tmp_path / "missing.json"), "--seq", "1"]) == 2
    assert main(["nonsense-command"]) == 2
    capsys.readouterr()


def test_cli_output_is_byte_deterministic(kprime_file, capsys):
    main(["catalog", "show", "R33", "--json"])
    first = capsys.readouterr().out
    main(["catalog", "show", "R33", "--json"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["reddening-search", "--in", "{q}", "--max-len", "-1"],
    ["mgs-search", "--in", "{q}", "--max-len", "-1", "--json"],
    ["enumerate", "--in", "{q}", "--budget", "-5"],
    ["enumerate", "--in", "{q}", "--budget", "0", "--json"],
    ["forkless", "--in", "{q}", "--budget", "-5"],
    ["reddening-verify", "--in", "{q}", "--seq", "1,9", "--green"],
])
def test_cli_out_of_range_arguments_exit_2(kprime_file, capsys, argv):
    assert main([arg.format(q=kprime_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+2"], ids=["underscore", "arabic", "plus"])
@pytest.mark.parametrize("argv", [
    ["mutate", "--in", "{q}", "--seq", "1,{v}"],
    ["reddening-search", "--in", "{q}", "--max-len", "{v}"],
    ["enumerate", "--in", "{q}", "--budget", "{v}"],
    ["forkless", "--in", "{q}", "--budget", "{v}"],
], ids=["seq", "max-len", "enumerate budget", "forkless budget"])
def test_cli_integers_are_ascii_digits_only(kprime_file, capsys, argv, value):
    # int() reads these as 10, 3 and 2; the JSON loader would refuse them all.
    assert main([arg.format(q=kprime_file, v=value) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert value in captured.err


def test_cli_rank_zero_quiver_gets_a_report(tmp_path, capsys):
    # The loader accepts the quiver with no vertices, so every command that
    # frames it or extends it must report on it, with or without --json.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [], "arrows": []}))
    commands = [
        ["cmatrix", "--seq", ""],
        ["reddening-verify", "--seq", ""],
        ["reddening-verify", "--green", "--seq", ""],
        ["reddening-search", "--max-len", "3"],
        ["mgs-search", "--max-len", "3"],
        ["distinguishing", "--seq", "", "--a", "[]"],
    ]
    for argv in commands:
        for json_flag in ([], ["--json"]):
            status = main(argv + ["--in", str(path)] + json_flag)
            captured = capsys.readouterr()
            assert status in (0, 1), argv
            assert "Traceback" not in captured.err
            if json_flag:
                json.loads(captured.out)


# -- malformed input: every command that reads a file or a matrix ------------

A2 = {"vertices": [1, 2], "arrows": [[1, 2]]}
A2_ON_5_6 = {"vertices": [5, 6], "arrows": [[5, 6]]}
DEEP = "[" * 100_000 + "]" * 100_000

# Each command that reads a quiver, with {q} in the slot under test.  Those
# marked True need an unframed quiver there.
READS_A_QUIVER = [
    (["mutate", "--in", "{q}", "--seq", "1"], False),
    (["cmatrix", "--in", "{q}", "--seq", "1"], True),
    (["reddening-verify", "--in", "{q}", "--seq", "1,2"], True),
    (["reddening-verify", "--in", "{q}", "--seq", "1,2", "--green"], True),
    (["reddening-search", "--in", "{q}", "--max-len", "2"], True),
    (["mgs-search", "--in", "{q}", "--max-len", "2"], True),
    (["cycle-verify", "--in", "{q}", "--seq", "1,2"], False),
    (["classify", "--in", "{q}"], True),
    (["forkless", "--in", "{q}"], True),
    (["enumerate", "--in", "{q}"], True),
    (["export-dot", "--in", "{q}"], False),
    (["distinguishing", "--in", "{q}", "--seq", "1", "--a", "[[1],[1]]"], True),
    (["cycle-build", "general", "--t", "{q}", "--h", "{h}", "--mt", "1,2", "--mh", "5,6",
      "--a", "[[0,0],[0,0]]"], True),
    (["cycle-build", "equal", "--t", "{h}", "--h", "{q}", "--mt", "5,6", "--mh", "1,2",
      "--a", "[[0,0],[0,0]]"], True),
]

# Each command that reads an extension matrix, with {a} in its slot.
READS_A_MATRIX = [
    ["distinguishing", "--in", "{t}", "--seq", "1", "--a", "{a}"],
    ["cycle-build", "general", "--t", "{t}", "--h", "{h}", "--mt", "1,2", "--mh", "5,6",
     "--a", "{a}"],
    ["cycle-build", "acyclic", "--t", "{t}", "--h", "{h}", "--a", "{a}"],
]

BAD_QUIVERS = {
    "not UTF-8": b"\xff\xfe{",
    "truncated": b'{"vertices": [1, 2], "arr',
    "deep": DEEP.encode(),
    "an array": b"[[0, 1], [-1, 0]]",
    "missing field": b'{"b_matrix": [[0]]}',
    "float": b'{"vertices": [1, 2], "arrows": [[1, 2, 1.5]]}',
    "boolean": b'{"labels": [1, 2], "b_matrix": [[0, true], [-1, 0]]}',
    "5,000 digits": b'{"vertices": [1, 2], "arrows": [[1, 2, 1' + b"0" * 5000 + b"]]}",
    "float vertex": b'{"vertices": [1, 2.0], "arrows": [[1, 2]]}',
    "boolean label": b'{"labels": [true, 2], "b_matrix": [[0, 1], [-1, 0]]}',
    "float frozen label": b'{"vertices": [1, 11], "frozen": [[1, 11.0]], "arrows": []}',
    "short frozen pair": b'{"vertices": [1, 11], "frozen": [[1]], "arrows": []}',
    "frozen not a list": b'{"vertices": [1, 11], "frozen": 5, "arrows": []}',
    "arrows not a list": b'{"vertices": [1, 2], "arrows": 5}',
    "arrow not a list": b'{"vertices": [1, 2], "arrows": [5]}',
    "null multiplicity": b'{"vertices": [1, 2], "arrows": [[1, 2, null]]}',
}

BAD_MATRICES = {
    "not UTF-8": b"\xff\xfe[",
    "truncated": b"[[1], [",
    "deep": DEEP.encode(),
    "an object": b'{"rows": [[1], [1]]}',
    "float": b"[[1.5], [1]]",
    "boolean": b"[[true], [1]]",
}


def test_cli_malformed_input_sweep(tmp_path, capsys):
    # Every way a quiver file or an extension matrix can be malformed exits
    # 2 with one error line, whichever command reads it.
    paths = {"missing file": str(tmp_path / "missing.json"), "directory": str(tmp_path)}
    for label, data in BAD_QUIVERS.items():
        (tmp_path / f"q {label}.json").write_bytes(data)
        paths[label] = str(tmp_path / f"q {label}.json")
    framed_a2 = _write(tmp_path, "framed.json", quiver_to_dict(framed(Quiver.from_arrows(
        [1, 2], [(1, 2)]))))
    good = {"t": _write(tmp_path, "a2.json", A2), "h": _write(tmp_path, "h.json", A2_ON_5_6)}
    cases = []
    for argv, unframed in READS_A_QUIVER:
        for label, path in paths.items():
            cases.append((label, [arg.format(q=path, **good) for arg in argv]))
        if unframed:
            cases.append(("framed", [arg.format(q=framed_a2, **good) for arg in argv]))
    matrices = {"missing file": paths["missing file"], "directory": paths["directory"],
                "inline deep": "[" * 100_000, "inline truncated": "[[1], [",
                "inline float": "[[1.5], [1]]", "inline boolean": "[[1], [false]]"}
    for label, data in BAD_MATRICES.items():
        (tmp_path / f"a {label}.json").write_bytes(data)
        matrices[label] = str(tmp_path / f"a {label}.json")
    for argv in READS_A_MATRIX:
        for label, a in matrices.items():
            cases.append((f"--a {label}", [arg.format(a=a, **good) for arg in argv]))
    for command in (["mutate", "--seq", "1"], ["export-dot"]):
        for out in (str(tmp_path / "missing" / "out.txt"), str(tmp_path)):
            cases.append(("--out", command + ["--in", good["t"], "--out", out]))

    wrong = []
    for label, argv in cases:
        status = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        if not (status == 2 and captured.out == "" and len(lines) == 1
                and lines[0].startswith("error: ") and "Traceback" not in captured.err):
            wrong.append((label, argv[0], status, captured.err[:200]))
    assert wrong == []


def test_cli_read_errors_name_what_was_read(tmp_path, capsys):
    a2 = _write(tmp_path, "a2.json", A2)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    missing = str(tmp_path / "missing.json")
    expected = [
        (["classify", "--in", str(bad)], f"error: {bad}: invalid JSON: 'utf-8' codec"),
        (["classify", "--in", str(deep)], f"error: {deep}: invalid JSON: maximum recursion"),
        (["classify", "--in", missing], f"error: cannot read {missing}: "),
        (["distinguishing", "--in", a2, "--seq", "1", "--a", str(bad)],
         f"error: extension matrix {bad}: invalid JSON: "),
        (["distinguishing", "--in", a2, "--seq", "1", "--a", missing],
         f"error: cannot read extension matrix {missing}: "),
        (["distinguishing", "--in", a2, "--seq", "1", "--a", "[" * 100_000],
         "error: extension matrix: invalid JSON: maximum recursion"),
        (["mutate", "--in", a2, "--seq", "1", "--out", str(tmp_path / "no" / "x.json")],
         f"error: cannot write {tmp_path / 'no' / 'x.json'}: "),
        (["export-dot", "--in", a2, "--out", str(tmp_path)], f"error: cannot write {tmp_path}: "),
    ]
    for argv, start in expected:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(start), (argv[0], captured.err)


@pytest.mark.parametrize("command", [["mutate", "--seq", "1,2"], ["export-dot"]])
def test_cli_out_writes_what_stdout_gets(kprime_file, tmp_path, capsys, command):
    assert main(command + ["--in", kprime_file]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(command + ["--in", kprime_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv, a", [
    (["distinguishing", "--in", "{t}", "--seq", "1,2", "--json"], "[[1], [1]]"),
    (["cycle-build", "general", "--t", "{t}", "--h", "{h}", "--mt", "1,2", "--mh", "5,6",
      "--json"], "[[1, 0], [2, 1]]"),
    (["cycle-build", "acyclic", "--t", "{t}", "--h", "{h}", "--m", "2", "--n", "5,6"],
     "[[0, 3], [1, 0]]"),
])
def test_cli_extension_matrix_file_reads_as_inline(tmp_path, capsys, argv, a):
    paths = {"t": _write(tmp_path, "t.json", A2), "h": _write(tmp_path, "h.json", A2_ON_5_6)}
    argv = [arg.format(**paths) for arg in argv]
    a_file = tmp_path / "a.json"
    a_file.write_text(a)
    assert main(argv + ["--a", a]) == 0
    inline = capsys.readouterr()
    assert main(argv + ["--a", str(a_file)]) == 0
    assert capsys.readouterr() == inline
    assert inline.out and inline.err == ""
