import functools
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pertlab
from pertlab import cli_io
from pertlab.chaincore import GradedMap
from pertlab.cli import main
from pertlab.cli_io import (
    DocumentError,
    parse_document,
    serialize_bundle,
    serialize_document,
)
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    build_complex,
    fixture_generate,
    he_fixture,
    interval_complex,
    layered_she_fixture,
    obstructed_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.operad_sym import parse_element, render_element
from pertlab.sdr_bpl import Perturbation, perturbed_complex
from pertlab.she_obstruction import HeData, extend_to_she


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


def test_one_table_writes_reads_and_validates_every_kind(tmp_path, capsys):
    assert cli_io.KINDS == tuple(cli_io._KIND_TABLE)
    objects = _objects(3)
    kinds = [json.loads(serialize_document(obj))["kind"] for obj in objects]
    assert sorted(kinds) == sorted(cli_io.KINDS)
    for kind, obj in zip(kinds, objects):
        assert parse_document(serialize_document(obj)) == obj, kind
        assert cli_io.validate_document(obj) == [], kind
        assert main(["validate", write_doc(tmp_path, f"{kind}.json", obj)]) == 0
        assert capsys.readouterr() == ("valid\n", ""), kind
    for use in (serialize_document, cli_io.validate_document):
        with pytest.raises(TypeError, match="^no document kind for object$"):
            use(object())


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
    # in canonical layout, whatever parses is a canonical document
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        obj = parse_document(text)
    except DocumentError:
        return
    assert serialize_document(obj) == text


def _edits(doc):
    """Edits that keep a decoded document well shaped but not canonical:
    swap two map blocks, zero one block's entries, or write a key twice."""
    for node, key in _slots(doc):
        value = node[key]
        if isinstance(node, dict):
            yield "repeat", node, key
        if key == "blocks" and isinstance(value, list) and len(value) > 1:
            yield "swap", value, None
        if isinstance(value, dict) and set(value) == {"at", "rows"}:
            yield "zero", value, None


def _dumps_repeating(node, target: dict, key: str) -> str:
    """JSON text of ``node`` with ``key`` of the object ``target`` written
    twice, with the same value."""
    if isinstance(node, dict):
        keys = sorted(node)
        if node is target:
            keys.insert(keys.index(key), key)
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps_repeating(node[k], target, key)}" for k in keys) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps_repeating(v, target, key) for v in node) + "]"
    return json.dumps(node)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_document_fuzz_refuses_non_canonical_edits(data):
    doc = json.loads(data.draw(st.sampled_from(_mutation_documents())))
    edits = list(_edits(doc))
    kind = data.draw(st.sampled_from(sorted({edit for edit, _, _ in edits})))
    edit, node, key = data.draw(st.sampled_from([e for e in edits if e[0] == kind]))
    if edit == "swap":
        i = data.draw(st.integers(0, len(node) - 2))
        j = data.draw(st.integers(i + 1, len(node) - 1))
        node[i], node[j] = node[j], node[i]
    elif edit == "zero":
        node["rows"] = [["0"] * len(row) for row in node["rows"]]
    text = _dumps_repeating(doc, node, key) if edit == "repeat" else json.dumps(doc)
    with pytest.raises(DocumentError):
        parse_document(text)


def test_repeated_keys_are_refused():
    text = serialize_document(interval_complex())
    edits = [
        ('    "max_weight": 0,\n', '    "max_weight": 5,\n    "max_weight": 0,\n', "max_weight"),
        ('  "kind": "complex",\n', '  "kind": "complex",\n  "kind": "complex",\n', "kind"),
    ]
    for old, new, key in edits:
        assert text.count(old) == 1
        with pytest.raises(DocumentError) as caught:
            parse_document(text.replace(old, new))
        assert str(caught.value) == f"repeated key {key!r}"


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


def _float_scan_by_hand(text):
    """The character loop that ``cli_io._reject_float_literals`` replaced,
    kept as the reference for its pattern: strings are skipped with their
    escapes, and a run of digits and ".eE+-" holding ".", "e" or "E" is
    refused.  It reads a digit as ``str.isdigit`` does, any script's."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] in ".eE+-"):
                i += 1
            if any(c in text[start:i] for c in ".eE"):
                raise DocumentError(
                    f"non-integer numeric literal {text[start:i]!r} at {cli_io._position(text, start)}"
                )
        else:
            i += 1


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='"\\0123456789.eE+-xaz{}[]:, \n', max_size=40))
def test_float_scan_pattern_agrees_with_the_character_loop(text):
    def refusal(scan):
        try:
            scan(text)
        except DocumentError as e:
            return str(e)
        return None

    assert refusal(cli_io._reject_float_literals) == refusal(_float_scan_by_hand)


def test_non_ascii_digits_are_no_number_to_the_float_scan():
    # JSON reads only ASCII digits as a number, so an Arabic-Indic three
    # starts no literal: json.loads' own error is reported, not a float
    for text, column in (('{"a": \u0663.5}', 7), ('{"a": \u00b2e1}', 7), ('[1, -\u0663.0]', 5)):
        with pytest.raises(DocumentError) as caught:
            parse_document(text)
        assert str(caught.value) == f"Expecting value at line 1, column {column}"
        with pytest.raises(DocumentError, match="non-integer numeric literal"):
            _float_scan_by_hand(text)


def scan_first_error(text):
    """The error of the earlier JSON stage, which scanned every character
    for float literals before json.loads; None when the stage passes."""
    try:
        _float_scan_by_hand(text)
        try:
            json.loads(text, object_pairs_hook=cli_io._unique_keys)
        except json.JSONDecodeError as e:
            raise DocumentError(f"{e.msg} at line {e.lineno}, column {e.colno}") from None
        except DocumentError:
            raise
        except (ValueError, RecursionError) as e:
            raise DocumentError(f"unreadable JSON: {e}") from None
    except DocumentError as e:
        return str(e)
    return None


def _unquoted_positions(text):
    """The offsets where an insertion lands outside every string literal."""
    positions, inside, escaped = [], False, False
    for i, ch in enumerate(text):
        if not inside:
            positions.append(i)
            inside = ch == '"'
        elif escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            inside = False
    return positions if inside else positions + [len(text)]


_FLOAT_LITERALS = ("1.0", "1e5", "-2E-3")
_FLOAT_BASES = [serialize_document(obj) for obj in (interval_complex(), *sdr_fixture(0), obstructed_he_fixture())]
_INT_LITERAL = re.compile(r"-?\d+")
_SCALAR_KEY_LINE = re.compile(r'^ +"\w+": [^\[{\n]+$', re.M)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_literals_are_reported_as_by_the_scan_first_parser(data):
    # float literals at unquoted positions of valid documents, of documents
    # with a repeated key and of cut-off ones, inserted or in place of an
    # integer; json.loads meets them as floats, as broken JSON or after a
    # repeated key, and the error must be the one the scan gave first
    text = data.draw(st.sampled_from(_FLOAT_BASES))
    # json.loads meets a repeated key only when its object closes, so the
    # floats go after the repeated line, where some are met later
    after = 0
    if data.draw(st.booleans()):
        m = data.draw(st.sampled_from(list(_SCALAR_KEY_LINE.finditer(text))))
        text = text[:m.start()] + m.group().rstrip(",") + ",\n" + text[m.start():]
        after = m.end() + 1
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(after, len(text)))]
    for _ in range(data.draw(st.integers(1, 3))):
        literal = data.draw(st.sampled_from(_FLOAT_LITERALS))
        positions = [i for i in _unquoted_positions(text) if i >= after]
        integers = [m for m in _INT_LITERAL.finditer(text) if m.start() in positions]
        if integers and data.draw(st.booleans()):
            m = data.draw(st.sampled_from(integers))
            text = text[:m.start()] + literal + text[m.end():]
        else:
            i = data.draw(st.sampled_from(positions))
            text = text[:i] + literal + text[i:]
    want = scan_first_error(text)
    assert want is not None and want.startswith("non-integer numeric literal")
    with pytest.raises(DocumentError) as caught:
        parse_document(text)
    assert str(caught.value) == want


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


def _refusal(doc) -> str:
    with pytest.raises(DocumentError) as caught:
        parse_document(json.dumps(doc))
    return str(caught.value)


def test_misshapen_bodies_are_refused_with_their_paths():
    doc = json.loads(serialize_document(sdr_fixture(2)[0].F))
    for key, value, message in [("source", [], "payload.source: expected an object"),
                                ("blocks", {}, "payload.blocks: expected a list")]:
        edited = json.loads(json.dumps(doc))
        edited["payload"][key] = value
        assert _refusal(edited) == message
    assert _refusal([]) == "envelope: expected an object"
    with pytest.raises(TypeError) as caught:
        serialize_document(object())
    assert str(caught.value) == "no document kind for object"


def test_zero_and_unordered_blocks_are_refused():
    m = sdr_fixture(2)[0].M
    text = serialize_document(GradedMap.identity(m))
    assert [b["at"] for b in json.loads(text)["payload"]["blocks"]] == [0, 1]
    edits = [
        (lambda b: b[0].update(rows=[["0"]]), "payload.blocks[0]: zero block at degree 0"),
        (lambda b: b.insert(0, {"at": -1, "rows": []}), "payload.blocks[0]: zero block at degree -1"),
        (list.reverse, "payload.blocks[1]: degree 0 does not follow degree 1"),
        (lambda b: b.append(b[1]), "payload.blocks[2]: degree 1 does not follow degree 1"),
    ]
    for edit, message in edits:
        doc = json.loads(text)
        edit(doc["payload"]["blocks"])
        assert _refusal(doc) == message


@pytest.mark.parametrize("text, normal", [
    ("1 f1", "f1"), ("f1 + f1", "2 f1"), ("g0 + f0", "f0 + g0"), ("f0 - f0", "0"),
    ("", "0"), (" f1", "f1"), ("f1  - g1", "f1 - g1"), ("+ f1", "f1"), ("- 1 f1", "- f1"),
])
def test_operad_elements_must_be_in_normal_form(text, normal):
    doc = {"format_version": "1", "kind": "operad-element",
           "payload": {"ambient": "riso", "element": text}}
    assert _refusal(doc) == f"payload.element: not in normal form, which is {normal!r}"
    doc["payload"]["element"] = normal
    assert render_element(parse_document(json.dumps(doc))) == normal


def test_map_fields_are_refused_with_their_paths():
    he = he_fixture(2)  # M has ranks (2, 2, 0) and N (2, 3, 1), so the two ends differ
    docs = {
        "sdr": json.loads(serialize_document(sdr_fixture(0)[0])),
        "he": json.loads(serialize_document(he)),
        "she": json.loads(serialize_document(extend_to_she(he, 1))),
    }
    for kind, path in (("sdr", ("f",)), ("sdr", ("g",)), ("sdr", ("h",)), ("he", ("f",)),
                       ("he", ("l",)), ("she", ("f_even", 0)), ("she", ("g_even", 0)),
                       ("she", ("h_odd", 0)), ("she", ("l_odd", 0))):
        where = "payload." + path[0] + "".join(f"[{t}]" for t in path[1:])
        for edit in ("drop a row", "widen a row"):
            doc = json.loads(json.dumps(docs[kind]))
            body = doc["payload"]
            for key in path:
                body = body[key]
            # the last block, whose shape tells source and target apart here
            k = len(body["blocks"]) - 1
            rows = body["blocks"][k]["rows"]
            if edit == "drop a row":
                want = f"{where}.blocks[{k}]: expected {len(rows)} rows"
                rows.pop()
            else:
                want = f"{where}.blocks[{k}]: row 0 must have {len(rows[0])} entries"
                rows[0].append("0")
            assert _refusal(doc) == want
    she = docs["she"]["payload"]
    for key, t, expected in (("h_odd", 1, 3), ("f_even", 1, 2), ("l_odd", 1, 3), ("g_even", 1, 2)):
        doc = json.loads(json.dumps(docs["she"]))
        doc["payload"][key][t] = she[key][0]
        assert _refusal(doc) == f"payload.{key}[{t}]: degree {expected - 2}, expected {expected}"
    for key in ("f_even", "g_even", "h_odd", "l_odd"):
        doc = json.loads(json.dumps(docs["she"]))
        doc["payload"][key] = {}
        assert _refusal(doc) == f"payload.{key}: expected a list"


# refusals that no other test reaches; an index picks the document of
# _objects(2) to edit: the complex, the map, the perturbation, the operad element
@pytest.mark.parametrize("index, edit, message", [
    (0, lambda body: body.update(ranks=[]), "payload.ranks: expected a nonempty list"),
    (3, lambda body: body.update(delta=[]), "payload.delta: expected an object"),
    (1, lambda body: body["blocks"].insert(0, []), "payload.blocks[0]: expected an object"),
    (6, lambda body: body.update(ambient=1), "payload.ambient: expected a string"),
])
def test_refusals_of_empty_ranks_and_misshapen_bodies(tmp_path, capsys, index, edit, message):
    doc = json.loads(_mutation_documents()[index])
    edit(doc["payload"])
    assert _refusal(doc) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_cli_validate_checks_a_map_through_its_two_complexes(tmp_path, capsys):
    # d o d = 1 out of degree 2: parsing takes the map, its validator refuses it
    bad = build_complex(0, (1, 1, 1), ((0,), (0,), (0,)), {1: [[1]], 2: [[1]]}, 0)
    s, _ = sdr_fixture(1)
    problem = "d^2 != 0 out of degree 2, first entry (0, 0)"
    for f, problems in ((GradedMap.zero(bad, s.M, 0), [f"source: {problem}"]),
                        (GradedMap.zero(s.M, bad, 0), [f"target: {problem}"]),
                        (s.F, [])):
        path, report = write_doc(tmp_path, "map.json", f), tmp_path / "report.json"
        code = 1 if problems else 0
        assert main(["validate", path, "--report", str(report)]) == code
        assert capsys.readouterr() == ("".join(f"{p}\n" for p in problems or ["valid"]), "")
        rep = json.loads(report.read_text())
        assert (rep["kind"], rep["problems"], rep["exit_code"]) == ("GradedMap", problems, code)


def test_cli_validate_matches_its_golden():
    golden = pathlib.Path(__file__).parent / "goldens" / "cli" / "validate.txt"
    assert _REGEN["validate_output"]() == golden.read_text()


def test_cli_rejects_malformed_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1"}')
    assert main(["validate", str(path)]) == 1
    assert "envelope" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    path, report = str(tmp_path / "absent.json"), tmp_path / "report.json"
    assert main(["validate", path, "--report", str(report)]) == 1
    message = f"cannot read document file {path}: "
    assert capsys.readouterr().err.startswith(f"error: {message}")
    rep = json.loads(report.read_text())
    assert rep["exit_code"] == 1 and rep["error"].startswith(message)


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


@pytest.mark.parametrize("scale, code", [(1, 3), (2, 0)])
def test_cli_torsion_obstruction_exit_codes(tmp_path, capsys, scale, code):
    # an order-2 class: refused as it is, accepted once L is doubled
    from tests.test_she_obstruction import torsion_obstructed_he

    path = write_doc(tmp_path, "he.json", torsion_obstructed_he(scale))
    assert main(["obstruction", "--he", path]) == code
    assert f"classes vanish: {code == 0}" in capsys.readouterr().out
    assert main(["extend", "--he", path, "--cap", "1", "-o", str(tmp_path / "t.json")]) == code
    assert ("extension obstructed" in capsys.readouterr().err) == (code == 3)


def test_cli_modify_then_extend(tmp_path, capsys):
    he = obstructed_he_fixture()
    path = write_doc(tmp_path, "he.json", he)
    fixed = tmp_path / "fixed.json"
    assert main(["modify", "--he", path, "--which", "h", "-o", str(fixed)]) == 0
    assert main(["extend", "--he", str(fixed), "--cap", "2", "-o", str(tmp_path / "t.json")]) == 0
    assert main(["validate", str(tmp_path / "t.json")]) == 0


def test_cli_refuses_an_invalid_equivalence_alike_in_every_command(tmp_path, capsys):
    # modify reports the invalid input as obstruction and extend do, exit 1
    from tests.test_she_obstruction import unfiltered_he

    path = write_doc(tmp_path, "he.json", unfiltered_he())
    out = str(tmp_path / "o.json")
    for argv in (["modify", "--which", "h", "-o", out], ["modify", "--which", "l", "-o", out],
                 ["obstruction"], ["extend", "--cap", "1", "-o", out]):
        assert main([argv[0], "--he", path, *argv[1:]]) == 1, argv
        assert capsys.readouterr().err == (
            "error: invalid homotopy equivalence: H does not preserve the filtration (shift -1)\n")
    assert not os.path.exists(out)


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


def test_cli_pp_at_a_weight_spread_of_2000(tmp_path):
    # the interval complex with weights 2000 and 0, F = G = 1, H = L = 0,
    # perturbed across the whole spread; the symbolic series overflowed the
    # recursion limit here and the command exited 5
    c = build_complex(0, (1, 1), ((2000,), (0,)), {1: [[1]]}, 2000)
    one, zero = GradedMap.identity(c), GradedMap.zero(c, c, 1)
    hepath = write_doc(tmp_path, "he.json", HeData(c, c, one, one, zero, zero))
    delta = GradedMap.from_blocks(c, c, -1, {1: IntMatrix.from_rows([[1]])})
    dpath = write_doc(tmp_path, "delta.json", Perturbation(c, delta))
    out, report = tmp_path / "pp.json", tmp_path / "report.json"
    assert main(["pp", "--he", hepath, "--delta", dpath, "-o", str(out), "--report", str(report)]) == 0
    assert main(["validate", str(out)]) == 0
    assert json.loads(report.read_text())["exit_code"] == 0


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
    ("4,5,\u0663,8", "caps: fweight must be a nonnegative integer, got '\u0663'"),
    ("", "caps must be four comma-separated integers: index,length,fweight,degree"),
])
def test_cli_operad_verify_refuses_malformed_caps(capsys, caps, message):
    assert main(["operad", "verify", "--caps", caps]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("expr", ["1B 1W", "1B 1B 1B", "f0 1B", "1W f1"])
def test_cli_operad_eval_refuses_an_identity_beside_another_token(capsys, expr):
    assert main(["operad", "eval", "--expr", expr]) == 1
    assert capsys.readouterr() == ("", "error: identity token inside a factor word\n")


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


def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # set and dict order follow the hash seed; the documents and the suite
    # report must not, so each command runs under two seeds in a fresh
    # interpreter and the bytes are compared
    he, p = layered_she_fixture()
    hepath = write_doc(tmp_path, "he.json", he)
    dpath = write_doc(tmp_path, "delta.json", p)
    tpath = write_doc(tmp_path, "tower.json", extend_to_she(he, 2))
    s, q = sdr_fixture(3)
    spath = write_doc(tmp_path, "sdr.json", s)
    qpath = write_doc(tmp_path, "sdr-delta.json", q)
    src = str(pathlib.Path(pertlab.__file__).resolve().parent.parent)
    commands = {
        "extend": ["extend", "--he", hepath, "--cap", "2"],
        "pp": ["pp", "--he", hepath, "--delta", dpath, "--strategy", "modify-h"],
        "bpl": ["bpl", "--sdr", spath, "--delta", qpath],
        "ipl": ["ipl", "--she", tpath, "--delta", dpath],
        "verify": ["operad", "verify", "--caps", "3,4,2,6"],
        "eval": ["operad", "eval", "--expr", "f1 xb f1", "--ambient", "dif_riso", "--she", tpath, "--delta", dpath],
    }
    printed = {"verify", "eval"}  # these write no document
    outputs = {}
    for hash_seed in ("1", "2024"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        for name, args in commands.items():
            out = tmp_path / f"{name}-{hash_seed}.json"
            if name not in printed:
                args = [*args, "-o", str(out)]
            proc = subprocess.run([sys.executable, "-m", "pertlab", *args], env=env,
                                  capture_output=True, check=True)
            document = out.read_bytes() if name not in printed else b""
            outputs.setdefault(name, []).append((document, proc.stdout, proc.stderr))
    for name, (first, second) in outputs.items():
        assert first == second, name
    assert all(outputs[name][0][0] for name in commands.keys() - printed)
    assert outputs["verify"][0][1].count(b"PASS") == 10
    assert json.loads(outputs["eval"][0][1])["degree"] == 1


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


def test_cli_unwritable_report_is_an_error(tmp_path, capsys):
    report = str(tmp_path / "absent" / "r.json")
    assert main(["operad", "eval", "--expr", "f0", "--report", report]) == 1
    out, err = capsys.readouterr()
    assert out == "f0\n"
    assert err.startswith(f"error: cannot write report file {report}: ")
    # a command that had failed keeps its own exit code
    path = write_doc(tmp_path, "he.json", obstructed_he_fixture())
    assert main(["obstruction", "--he", path, "--report", report]) == 3
    assert "cannot write report file" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["obstruction", "--he", "{tmp}/absent.json"], "cannot read he file {tmp}/absent.json: "),
    (["obstruction", "--he", "{tmp}/sdr.json"], "he file {tmp}/sdr.json holds a different document kind"),
    (["operad", "eval", "--expr", "f0", "--she", "{tmp}/sdr.json"], "matrix evaluation needs both --she and --delta"),
    (["operad", "eval", "--expr", "f0", "--she", ""], "matrix evaluation needs both --she and --delta"),
    (["operad", "eval", "--expr", "f0", "--delta", ""], "matrix evaluation needs both --she and --delta"),
    (["operad", "eval", "--expr", "f0", "--ambient", "nosuch"], "unknown ambient 'nosuch'"),
])
def test_cli_load_refusals_exit_1_with_a_report(tmp_path, capsys, args, message):
    write_doc(tmp_path, "sdr.json", sdr_fixture(0)[0])
    report = tmp_path / "report.json"
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert main([*args, "--report", str(report)]) == 1
    message = message.replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err.startswith(f"error: {message}")
    rep = json.loads(report.read_text())
    assert rep["exit_code"] == 1 and rep["error"].startswith(message)


_REGEN = runpy.run_path(str(pathlib.Path(__file__).parent.parent / "scripts" / "regen_goldens.py"))


def test_cli_documents_match_the_goldens(tmp_path, capsys):
    # each command of the golden script writes its golden's bytes to stdout,
    # and with -o the same bytes to the file that later commands read
    for name, obj in fixture_generate(_REGEN["CLI_SEED"]).items():
        write_doc(tmp_path, f"{name}.json", obj)
    for name, argv in _REGEN["CLI_RUNS"]:
        golden = (pathlib.Path(__file__).parent / "goldens" / "cli" / name).read_text()
        argv = _REGEN["cli_argv"](argv, tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr() == (golden, ""), name
        if name.endswith(".json"):
            out = tmp_path / name
            assert main([*argv, "-o", str(out)]) == 0
            assert capsys.readouterr() == ("", ""), name
            assert out.read_bytes() == golden.encode(), name


def test_cli_usage_error_exit_code(capsys):
    assert main(["bpl", "--sdr"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("args, message", [
    (["extend", "--he", "x.json"], "the following arguments are required: --cap"),
    (["validate", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_cli_usage_error_writes_its_report(tmp_path, capsys, args, message):
    assert main(args) == 1
    plain = capsys.readouterr()
    report = tmp_path / "r.json"
    argv = [*args, "--report", str(report)]
    assert main(argv) == 1
    assert capsys.readouterr() == plain == ("", f"error: {message}\n")
    assert json.loads(report.read_text()) == {"argv": argv, "error": message, "exit_code": 1}


def test_cli_bare_report_is_a_usage_error_with_no_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["extend", "--he", "x.json", "--cap", "1", "--report"]) == 1
    assert capsys.readouterr().err == "error: argument --report: expected one argument\n"
    assert not any(tmp_path.iterdir())


def test_cli_report_before_the_operad_subcommand_is_written(tmp_path, capsys):
    # the nested parser's default used to hide a --report given to "operad"
    report = tmp_path / "r.json"
    assert main(["operad", "--report", str(report), "eval", "--expr", "f0"]) == 0
    assert capsys.readouterr().out == "f0\n"
    assert json.loads(report.read_text())["normal_form"] == "f0"
