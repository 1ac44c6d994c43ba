import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab.chaincore import GradedMap
from pertlab.exactlin import IntMatrix
from pertlab.cli import main
from pertlab.cli_io import (
    DocumentError,
    parse_document,
    serialize_bundle,
    serialize_document,
)
from pertlab.fixtures import (
    fixture_generate,
    he_fixture,
    layered_she_fixture,
    obstructed_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.operad_sym import parse_element
from pertlab.sdr_bpl import Perturbation, perturbed_complex
from pertlab.she_obstruction import extend_to_she


# --- document round trips -----------------------------------------------------


def _objects(seed: int) -> tuple:
    """One object of every document kind, built from the seed's fixtures."""
    s, p = sdr_fixture(seed)
    he = he_fixture(seed)
    e = parse_element("f0 f1 - g1 f0", "rfake")
    return (s.M, s.F, s, p, he, extend_to_she(he, 1), e)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_every_kind(seed):
    for obj in _objects(seed):
        text = serialize_document(obj)
        again = parse_document(text)
        assert again == obj
        assert serialize_document(again) == text


@functools.cache
def _mutation_documents() -> list[str]:
    return [serialize_document(obj) for obj in _objects(2)]


def _parses_to_a_fixed_point(text: str) -> None:
    """Only DocumentError may escape parse_document, and whatever parses
    serializes to a document that parses back to the same object."""
    try:
        obj = parse_document(text)
    except DocumentError:
        return
    again = serialize_document(obj)
    assert parse_document(again) == obj
    assert serialize_document(parse_document(again)) == again


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_document_fuzz_text_edits(data):
    text = data.draw(st.sampled_from(_mutation_documents()))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + data.draw(st.text('{}[]",:-019 eE.\\fg+\n²٣', max_size=6)) + text[j:]
    _parses_to_a_fixed_point(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("-019fg+ ²", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["at", "rows", "degree", "blocks", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) pair of a decoded JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_document_fuzz_tree_edits(data):
    doc = json.loads(data.draw(st.sampled_from(_mutation_documents())))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        edit = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            node[key] = data.draw(_JSON_VALUES)
        elif edit == "delete":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, node[key])
        else:
            node["x"] = node[key]
    _parses_to_a_fixed_point(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_parse_document_refuses_hostile_text():
    # each of these once escaped as a plain ValueError, TypeError or RecursionError
    complex_doc = json.loads(serialize_document(sdr_fixture(2)[0].M))
    body = complex_doc["payload"]
    hostile = [
        ("weights", [5] + body["weights"][1:], "expected one list per degree"),
        ("weights", [[0, 0]] + body["weights"][1:], "weight list at degree 0 has wrong length"),
        ("max_weight", -1, "max_weight must be nonnegative"),
        ("ranks", [-1] + body["ranks"][1:], "ranks must be nonnegative"),
        ("diffs", [[["--5"] * len(body["diffs"][0][0])] * len(body["diffs"][0])],
         "decimal integer strings"),
        ("diffs", [[["²"] * len(body["diffs"][0][0])] * len(body["diffs"][0])],
         "decimal integer strings"),
        ("diffs", [[["7" * 5000] * len(body["diffs"][0][0])] * len(body["diffs"][0])],
         "too long"),
    ]
    for key, value, message in hostile:
        doc = json.loads(json.dumps(complex_doc))
        doc["payload"][key] = value
        with pytest.raises(DocumentError, match=message):
            parse_document(json.dumps(doc))
    with pytest.raises(DocumentError, match="unreadable JSON"):
        parse_document(json.dumps(complex_doc).replace('"max_weight": ', '"max_weight": ' + "7" * 5000))
    with pytest.raises(DocumentError, match="unreadable JSON"):
        parse_document("[" * 100_000)
    with pytest.raises(DocumentError, match="payload.element: empty term"):
        parse_document(json.dumps({"format_version": "1", "kind": "operad-element",
                                   "payload": {"ambient": "riso", "element": "f0 -"}}))


def test_serialization_is_canonical():
    s, _ = sdr_fixture(0)
    text = serialize_document(s)
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "sdr"
    # key order comes from the serializer, not dict construction order
    assert text == serialize_document(parse_document(text))


def test_float_literals_are_rejected_with_position():
    with pytest.raises(DocumentError, match=r"non-integer numeric literal '1.5' at line 3"):
        parse_document('{\n "format_version": "1",\n "kind": 1.5\n}')
    with pytest.raises(DocumentError, match="non-integer numeric literal '1e3'"):
        parse_document('{"format_version": "1", "kind": "complex", "payload": 1e3}')


def test_unknown_envelope_keys_are_rejected():
    with pytest.raises(DocumentError, match=r"envelope: unknown \['extra'\]"):
        parse_document(json.dumps(
            {"format_version": "1", "kind": "complex", "payload": {}, "extra": 1}
        ))


def test_unknown_kind_and_version():
    with pytest.raises(DocumentError, match="unknown kind"):
        parse_document(json.dumps(
            {"format_version": "1", "kind": "retract", "payload": {}}
        ))
    with pytest.raises(DocumentError, match="format_version"):
        parse_document(json.dumps(
            {"format_version": "2", "kind": "complex", "payload": {}}
        ))


def test_matrix_entries_must_be_strings():
    s, _ = sdr_fixture(0)
    doc = json.loads(serialize_document(s.M))
    rows = next(m for m in doc["payload"]["diffs"] if m and m[0])
    rows[0][0] = 1
    with pytest.raises(DocumentError, match="decimal integer strings"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("spelling", ["07", "-0", "-007", "00"])
def test_matrix_entries_must_be_canonical(spelling):
    doc = json.loads(serialize_document(sdr_fixture(2)[0].F))
    doc["payload"]["blocks"][0]["rows"][0][0] = spelling
    with pytest.raises(DocumentError, match="decimal integer strings"):
        parse_document(json.dumps(doc))


def test_zero_and_unordered_blocks_are_normalized():
    m = sdr_fixture(2)[0].M
    doc = json.loads(serialize_document(GradedMap.identity(m)))
    blocks = doc["payload"]["blocks"]
    assert [b["at"] for b in blocks] == [0, 1]
    blocks[0]["rows"] = [["0"]]
    blocks.reverse()
    kept = GradedMap.from_blocks(m, m, 0, {1: IntMatrix.identity(2)})
    assert serialize_document(parse_document(json.dumps(doc))) == serialize_document(kept)


def test_bundle_contains_named_documents():
    docs = fixture_generate(1)
    text = serialize_bundle(docs)
    data = json.loads(text)
    assert sorted(data) == ["he", "he_perturbation", "perturbation", "sdr"]
    # each named entry is a complete document on its own
    inner = json.dumps(data["sdr"], indent=2, sort_keys=True) + "\n"
    assert parse_document(inner) == docs["sdr"]


def test_bundle_golden_is_stable(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "goldens" / "fixture_seed0.json"
    assert serialize_bundle(fixture_generate(0)) == golden.read_text()


# --- command line ---------------------------------------------------------------


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize_document(obj))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    s, _ = sdr_fixture(1)
    path = write_doc(tmp_path, "sdr.json", s)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_cli_validate_reports_problems(tmp_path, capsys):
    s, _ = sdr_fixture(1)
    bad = type(s)(s.M, s.N, s.F, s.G, s.H + s.H)
    path = write_doc(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 1
    assert "d H + H d != G F - 1 on M" in capsys.readouterr().out


def test_cli_rejects_malformed_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1"}')
    assert main(["validate", str(path)]) == 1
    assert "envelope" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_cli_bpl_end_to_end(tmp_path, capsys):
    s, p = sdr_fixture(3)
    spath = write_doc(tmp_path, "sdr.json", s)
    ppath = write_doc(tmp_path, "delta.json", p)
    out = tmp_path / "out.json"
    assert main(["bpl", "--sdr", spath, "--delta", ppath, "-o", str(out)]) == 0
    transferred = parse_document(out.read_text())
    assert main(["validate", str(out)]) == 0
    assert transferred.M == perturbed_complex(p)


def test_cli_bpl_side_condition_exit(tmp_path, capsys):
    from tests.test_sdr_bpl import lazy_perturbation, lazy_retract

    spath = write_doc(tmp_path, "sdr.json", lazy_retract())
    ppath = write_doc(tmp_path, "delta.json", lazy_perturbation())
    code = main(["bpl", "--sdr", spath, "--delta", ppath, "-o", str(tmp_path / "o.json")])
    assert code == 2
    assert "side conditions required" in capsys.readouterr().err


def test_cli_obstruction_exit_code_signals_verdict(tmp_path, capsys):
    he = obstructed_he_fixture()
    path = write_doc(tmp_path, "he.json", he)
    assert main(["obstruction", "--he", path]) == 3
    assert "classes vanish: False" in capsys.readouterr().out
    good = he_fixture(0)
    path = write_doc(tmp_path, "good.json", good)
    assert main(["obstruction", "--he", path]) == 0
    assert "classes vanish: True" in capsys.readouterr().out


def test_cli_modify_then_extend(tmp_path, capsys):
    he = obstructed_he_fixture()
    path = write_doc(tmp_path, "he.json", he)
    fixed = tmp_path / "fixed.json"
    assert main(["modify", "--he", path, "--which", "h", "-o", str(fixed)]) == 0
    assert main(["extend", "--he", str(fixed), "--cap", "2", "-o", str(tmp_path / "t.json")]) == 0
    assert main(["validate", str(tmp_path / "t.json")]) == 0


def test_cli_extend_obstructed_exit(tmp_path, capsys):
    path = write_doc(tmp_path, "he.json", obstructed_he_fixture())
    assert main(["extend", "--he", path, "--cap", "1", "-o", str(tmp_path / "t.json")]) == 3
    assert "extension obstructed" in capsys.readouterr().err


def test_cli_ipl_and_pp(tmp_path, capsys):
    he, p = layered_she_fixture()
    tower = extend_to_she(he, 2)
    tpath = write_doc(tmp_path, "tower.json", tower)
    dpath = write_doc(tmp_path, "delta.json", p)
    out = tmp_path / "perturbed.json"
    assert main(["ipl", "--she", tpath, "--delta", dpath, "-o", str(out)]) == 0
    assert parse_document(out.read_text()).index_cap == 1

    hepath = write_doc(tmp_path, "he.json", he)
    pp_out = tmp_path / "pp.json"
    report = tmp_path / "report.json"
    code = main(["pp", "--he", hepath, "--delta", dpath, "--strategy", "modify-h",
                 "-o", str(pp_out), "--report", str(report)])
    assert code == 0
    assert main(["validate", str(pp_out)]) == 0
    rep = json.loads(report.read_text())
    assert rep["exit_code"] == 0
    assert all(v >= 1 for v in rep["shifts"].values())


def test_cli_pp_as_is_obstructed(tmp_path, capsys):
    he = obstructed_he_fixture()
    p = Perturbation(he.M, GradedMap.zero(he.M, he.M, -1))
    hepath = write_doc(tmp_path, "he.json", he)
    dpath = write_doc(tmp_path, "delta.json", p)
    code = main(["pp", "--he", hepath, "--delta", dpath, "--strategy", "as-is",
                 "-o", str(tmp_path / "o.json")])
    assert code == 3


def test_cli_internal_failure_exit_and_report(tmp_path, monkeypatch, capsys):
    import pertlab.cli as cli_mod
    from pertlab.sdr_bpl import InternalConsistencyError

    def broken(he, p, strategy):
        raise InternalConsistencyError("forced for the test")

    monkeypatch.setattr(cli_mod, "solve_pp", broken)
    he = obstructed_he_fixture()
    p = Perturbation(he.M, GradedMap.zero(he.M, he.M, -1))
    hepath = write_doc(tmp_path, "he.json", he)
    dpath = write_doc(tmp_path, "delta.json", p)
    report = tmp_path / "report.json"
    code = main(["pp", "--he", hepath, "--delta", dpath, "--report", str(report)])
    assert code == 5
    rep = json.loads(report.read_text())
    assert rep["exit_code"] == 5
    assert "InternalConsistencyError: forced for the test" in rep["error"]
    assert "Traceback" in capsys.readouterr().err


def test_cli_operad_verify(capsys):
    assert main(["operad", "verify", "--caps", "2,3,1,6"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10 and "FAIL" not in out


@pytest.mark.parametrize("caps, message", [
    ("a,b,c,d", "caps: index must be a nonnegative integer, got 'a'"),
    ("4,1_0,3,8", "caps: length must be a nonnegative integer, got '1_0'"),
])
def test_cli_operad_verify_refuses_malformed_caps(capsys, caps, message):
    assert main(["operad", "verify", "--caps", caps]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_operad_verify_refuses_malformed_caps_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("PERTLAB_CAPS", "4,5,\u0663,8")
    assert main(["operad", "verify"]) == 1
    assert "caps: fweight must be a nonnegative integer" in capsys.readouterr().err


def test_cli_operad_verify_failure_exit(monkeypatch, capsys):
    import pertlab.cli as cli_mod
    from pertlab.operad_sym import IdentityCheck

    monkeypatch.setattr(
        cli_mod, "verify_identity_suite",
        lambda caps: [IdentityCheck("square_zero_plain", False, "forced for the test")],
    )
    assert main(["operad", "verify"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_cli_operad_eval(capsys):
    # words stay distinct in the free normal form; only the sort order changes
    assert main(["operad", "eval", "--expr", "f0 g0 f0 + 2 f0", "--ambient", "riso"]) == 0
    assert capsys.readouterr().out.strip() == "2 f0 + f0 g0 f0"


@pytest.mark.parametrize("expr, token", [("\u0663 f1", "\u0663"), ("\u00b2 f1", "\u00b2")])
def test_cli_operad_eval_refuses_non_ascii_coefficients(capsys, expr, token):
    # an Arabic-Indic three or a superscript two is no coefficient
    assert main(["operad", "eval", "--expr", expr]) == 1
    assert capsys.readouterr().err == f"error: unrecognized token '{token}'\n"
    doc = {"format_version": "1", "kind": "operad-element",
           "payload": {"ambient": "riso", "element": expr}}
    with pytest.raises(DocumentError, match=f"payload.element: unrecognized token '{token}'"):
        parse_document(json.dumps(doc))


def test_cli_operad_eval_matrix(tmp_path, capsys):
    he, p = layered_she_fixture()
    tower = extend_to_she(he, 1)
    tpath = write_doc(tmp_path, "tower.json", tower)
    dpath = write_doc(tmp_path, "delta.json", p)
    assert main(["operad", "eval", "--expr", "f1 xb f1", "--ambient", "dif_riso",
                 "--she", tpath, "--delta", dpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"blocks", "degree"}
    assert data["degree"] == 1
    assert any(any(v != "0" for v in row) for m in data["blocks"].values() for row in m)


def test_cli_fixture_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["fixture", "--seed", "9", "-o", str(a)]) == 0
    assert main(["fixture", "--seed", "9", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["fixture", "--seed", "10", "-o", str(b)]) == 0
    assert a.read_text() != b.read_text()


@pytest.mark.parametrize("args, message", [
    (["--ranks=-1,2"], "core rank must be nonnegative, got -1"),
    (["--ranks=-2,-1"], "core rank must be nonnegative, got -2"),
    (["--ranks=2,-1"], "number of cone pairs must be nonnegative, got -1"),
    (["--filtration", "-1"], "filtration must be nonnegative, got -1"),
])
def test_cli_fixture_refuses_negative_sizes(tmp_path, capsys, args, message):
    out = tmp_path / "bundle.json"
    assert main(["fixture", *args, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["fixture", "--seed", "\u0663"], "argument --seed: invalid int value: '\u0663'"),
    (["fixture", "--filtration", "\u0663"], "argument --filtration: invalid int value: '\u0663'"),
    (["fixture", "--ranks", "\u0663,1"], "--ranks takes two comma-separated integers"),
    (["extend", "--cap", "\u0663"], "argument --cap: invalid int value: '\u0663'"),
])
def test_cli_integer_options_refuse_non_ascii_digits(tmp_path, capsys, args, message):
    # int() reads an Arabic-Indic three as 3; the options take ASCII only,
    # as --caps does
    out = tmp_path / "out.json"
    if args[0] == "extend":
        args = [*args, "--he", write_doc(tmp_path, "he.json", layered_she_fixture()[0])]
    assert main([*args, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_usage_error_exit_code(capsys):
    assert main(["bpl", "--sdr"]) == 1
    assert main(["nonsense"]) == 1
