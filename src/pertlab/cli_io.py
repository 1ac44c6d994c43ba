"""Versioned JSON document format for every object the tools exchange.

One envelope shape for everything: {"format_version", "kind", "payload"}.
Matrix entries travel as decimal integer strings so arbitrary precision
survives any JSON implementation; structural integers (ranks, degrees,
weights) stay plain.  Parsing is strict: unknown fields, wrong types,
float literals and version mismatches are all rejected, the first two
because silent tolerance hides author mistakes, the floats because this
package has no approximate numbers anywhere.  A literal number is
written in ASCII digits, the only digits JSON reads as a number.

Serialization is canonical (sorted keys, fixed indentation), so equal
objects produce byte-equal documents and golden files diff cleanly.

A kind is defined in one place, its row of ``_KIND_TABLE`` (type, payload
writer, payload reader, validator), which writing, parsing and
``validate_document`` all read.
"""

from __future__ import annotations

import json
import re

from .chaincore import ChainComplex, GradedMap, validate_complex
from .exactlin import IntMatrix
from .operad_sym import OperadElement, gen, parse_element, render_element
from .sdr_bpl import Perturbation, SdrData, _hom_space, tower_generators, validate_perturbation, validate_sdr
from .she_obstruction import _LAYOUT, HeData, SheData, validate_he, validate_she

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed document; message carries position info when available."""


def _position(text: str, offset: int) -> str:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return f"line {line}, column {col}"


# a JSON string literal (its closing quote may be missing at the end of the
# text), or an unquoted run of number characters that starts with a digit
# or with a minus sign before one
_LEXEME_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|(-?[0-9][0-9.eE+-]*)', re.S)


def _reject_float_literals(text: str) -> None:
    """Find unquoted numeric literals that are not plain integers.

    json.loads would accept them and lose exactness silently, and its
    parse_float hook sees no position, so this scan owns the error.  It
    runs only on a text that json.loads refused, and before any other
    error is reported, so a float literal is reported first."""
    for m in _LEXEME_RE.finditer(text):
        literal = m.group(1)
        if literal and any(c in literal for c in ".eE"):
            raise DocumentError(f"non-integer numeric literal {literal!r} at {_position(text, m.start())}")


def _refuse_float(literal: str):
    """json.loads's parse_float hook: a float literal never parses."""
    raise DocumentError(f"non-integer numeric literal {literal!r}")


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    got = set(obj)
    if got != keys:
        missing = sorted(keys - got)
        extra = sorted(got - keys)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unknown {extra}")
        raise DocumentError(f"{where}: " + ", ".join(parts))


def _int(v, where: str) -> int:
    if type(v) is not int:
        raise DocumentError(f"{where}: expected an integer, got {v!r}")
    return v


_ENTRY_RE = re.compile(r"0|-?[1-9][0-9]*")  # canonical spellings only: no "07", "-0"


def _entry(v, where: str) -> int:
    if type(v) is not str or not _ENTRY_RE.fullmatch(v):
        raise DocumentError(f"{where}: matrix entries are decimal integer strings, got {v!r}")
    try:
        return int(v)
    except ValueError:
        # past the interpreter's limit on digits in an integer string
        raise DocumentError(f"{where}: matrix entry of {len(v)} characters is too long") from None


def _rows_to_matrix(rows, nrows: int, ncols: int, where: str) -> IntMatrix:
    if type(rows) is not list or len(rows) != nrows:
        raise DocumentError(f"{where}: expected {nrows} rows")
    flat: list[int] = []
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != ncols:
            raise DocumentError(f"{where}: row {i} must have {ncols} entries")
        flat.extend(_entry(v, f"{where} row {i}") for v in row)
    return IntMatrix(nrows, ncols, tuple(flat))


def _matrix_to_rows(m: IntMatrix) -> list[list[str]]:
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


# complex


def _complex_body(c: ChainComplex) -> dict:
    return {
        "degree_lo": c.degree_lo,
        "ranks": list(c.ranks),
        "weights": [list(w) for w in c.weights],
        "diffs": [_matrix_to_rows(m) for m in c.diffs],
        "max_weight": c.max_weight,
    }


def _complex_from_body(body, where: str = "payload") -> ChainComplex:
    if type(body) is not dict:
        raise DocumentError(f"{where}: expected an object")
    _require_keys(body, {"degree_lo", "ranks", "weights", "diffs", "max_weight"}, where)
    lo = _int(body["degree_lo"], f"{where}.degree_lo")
    ranks = body["ranks"]
    if type(ranks) is not list or not ranks:
        raise DocumentError(f"{where}.ranks: expected a nonempty list")
    ranks = tuple(_int(r, f"{where}.ranks") for r in ranks)
    if min(ranks) < 0:
        raise DocumentError(f"{where}.ranks: ranks must be nonnegative")
    weights_raw = body["weights"]
    if (type(weights_raw) is not list or len(weights_raw) != len(ranks)
            or any(type(row) is not list for row in weights_raw)):
        raise DocumentError(f"{where}.weights: expected one list per degree")
    weights = tuple(
        tuple(_int(w, f"{where}.weights[{t}]") for w in row) for t, row in enumerate(weights_raw)
    )
    diffs_raw = body["diffs"]
    if type(diffs_raw) is not list or len(diffs_raw) != len(ranks) - 1:
        raise DocumentError(f"{where}.diffs: expected one block per adjacent degree pair")
    diffs = tuple(
        _rows_to_matrix(rows, ranks[t], ranks[t + 1], f"{where}.diffs[{t}]")
        for t, rows in enumerate(diffs_raw)
    )
    max_weight = _int(body["max_weight"], f"{where}.max_weight")
    try:
        return ChainComplex(lo, lo + len(ranks) - 1, ranks, weights, diffs, max_weight)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from None


# maps, bound to already-known complexes


def _map_body(f: GradedMap) -> dict:
    return {
        "degree": f.degree,
        "blocks": [{"at": n, "rows": _matrix_to_rows(m)} for n, m in f.blocks],
    }


def _map_from_body(body, src: ChainComplex, tgt: ChainComplex, where: str) -> GradedMap:
    """A map in canonical form only: nonzero blocks in increasing degree."""
    if type(body) is not dict:
        raise DocumentError(f"{where}: expected an object")
    _require_keys(body, {"degree", "blocks"}, where)
    degree = _int(body["degree"], f"{where}.degree")
    raw = body["blocks"]
    if type(raw) is not list:
        raise DocumentError(f"{where}.blocks: expected a list")
    blocks: dict[int, IntMatrix] = {}
    for t, item in enumerate(raw):
        if type(item) is not dict:
            raise DocumentError(f"{where}.blocks[{t}]: expected an object")
        _require_keys(item, {"at", "rows"}, f"{where}.blocks[{t}]")
        n = _int(item["at"], f"{where}.blocks[{t}].at")
        if blocks and n <= max(blocks):
            raise DocumentError(f"{where}.blocks[{t}]: degree {n} does not follow degree {max(blocks)}")
        m = _rows_to_matrix(item["rows"], tgt.rank_at(n + degree), src.rank_at(n), f"{where}.blocks[{t}]")
        if m.is_zero():
            raise DocumentError(f"{where}.blocks[{t}]: zero block at degree {n}")
        blocks[n] = m
    return GradedMap.from_blocks(src, tgt, degree, blocks)


# kind payloads.  The maps of sdr, he and she documents follow the tower
# layout of she_obstruction: an sdr holds f, g, h and an he also l, the
# components of f_0, g_0, f_1, g_1; a she list holds one (family, parity)
# of the layout, entry t being the generator of index 2t + parity.

_SHE_LISTS = {name.lower(): (name, layout) for layout, name in _LAYOUT.items()}


def _map_from_payload(body: dict) -> GradedMap:
    _require_keys(body, {"source", "target", "degree", "blocks"}, "payload")
    src = _complex_from_body(body["source"], "payload.source")
    tgt = _complex_from_body(body["target"], "payload.target")
    return _map_from_body({"degree": body["degree"], "blocks": body["blocks"]}, src, tgt, "payload")


def _map_problems(f: GradedMap) -> list[str]:
    """The problems of the map's two complexes: parsing checked its blocks' shapes."""
    return [f"{end}: {p}" for end, c in (("source", f.source), ("target", f.target)) for p in validate_complex(c)]


def _tower_body(obj, keys) -> dict:
    body = {"big": _complex_body(obj.M), "small": _complex_body(obj.N)}
    if type(obj) is SheData:
        body["index_cap"] = obj.index_cap
        body.update((key, [_map_body(f) for f in getattr(obj, name)])
                    for key, (name, _) in _SHE_LISTS.items())
    else:
        body.update((key, _map_body(getattr(obj, key.upper()))) for key in keys)
    return body


def _maps_list(raw, family: str, parity: int, big, small, where: str) -> tuple[GradedMap, ...]:
    if type(raw) is not list:
        raise DocumentError(f"{where}: expected a list")
    out = []
    for t, item in enumerate(raw):
        z = gen(family, 2 * t + parity)
        f = _map_from_body(item, *_hom_space(z, big, small), f"{where}[{t}]")
        if f.degree != z.degree:
            raise DocumentError(f"{where}[{t}]: degree {f.degree}, expected {z.degree}")
        out.append(f)
    return tuple(out)


def _tower_from_body(body: dict, cls, keys):
    _require_keys(body, {"big", "small", *keys}, "payload")
    big = _complex_from_body(body["big"], "payload.big")
    small = _complex_from_body(body["small"], "payload.small")
    if cls is SheData:
        cap = _int(body["index_cap"], "payload.index_cap")
        return SheData(big, small, cap, **{
            name: _maps_list(body[key], *layout, big, small, f"payload.{key}")
            for key, (name, layout) in _SHE_LISTS.items()})
    maps = (_map_from_body(body[key], *_hom_space(z, big, small), f"payload.{key}")
            for key, z in zip(keys, tower_generators(0)))
    return cls(big, small, *maps)


def _tower_row(cls, keys, validator) -> tuple:
    """A tower kind's row; keys are its payload's besides "big" and "small"."""
    return cls, lambda obj: _tower_body(obj, keys), lambda body: _tower_from_body(body, cls, keys), validator


def _perturbation_from_payload(body: dict) -> Perturbation:
    _require_keys(body, {"base", "delta"}, "payload")
    base = _complex_from_body(body["base"], "payload.base")
    return Perturbation(base, _map_from_body(body["delta"], base, base, "payload.delta"))


def _element_from_payload(body: dict) -> OperadElement:
    _require_keys(body, {"ambient", "element"}, "payload")
    ambient = body["ambient"]
    if type(ambient) is not str:
        raise DocumentError("payload.ambient: expected a string")
    element_text = body["element"]
    if type(element_text) is not str:
        raise DocumentError("payload.element: expected a string")
    try:
        elem = parse_element(element_text, ambient)
    except ValueError as e:
        raise DocumentError(f"payload.element: {e}") from None
    if render_element(elem) != element_text:
        raise DocumentError(f"payload.element: not in normal form, which is {render_element(elem)!r}")
    return elem


# kind -> (type, payload writer, payload reader, validator).  An object is
# written as the first kind whose type it is an instance of; a reader gets a
# payload known to be an object.  Parsing checks all of an operad element.
_KIND_TABLE = {
    "complex": (ChainComplex, _complex_body, _complex_from_body, validate_complex),
    "map": (GradedMap, lambda f: {"source": _complex_body(f.source), "target": _complex_body(f.target),
                                  **_map_body(f)}, _map_from_payload, _map_problems),
    "sdr": _tower_row(SdrData, "fgh", validate_sdr),
    "he": _tower_row(HeData, "fghl", validate_he),
    "she": _tower_row(SheData, ("index_cap", *_SHE_LISTS), validate_she),
    "perturbation": (Perturbation, lambda p: {"base": _complex_body(p.base), "delta": _map_body(p.delta)},
                     _perturbation_from_payload, validate_perturbation),
    "operad-element": (OperadElement, lambda e: {"ambient": e.ambient, "element": render_element(e)},
                       _element_from_payload, lambda e: []),
}
KINDS = tuple(_KIND_TABLE)


def _kind_of(obj) -> str:
    for kind, row in _KIND_TABLE.items():
        if isinstance(obj, row[0]):
            return kind
    raise TypeError(f"no document kind for {type(obj).__name__}")


def validate_document(obj) -> list[str]:
    """Every problem the validator of obj's kind finds (empty means valid)."""
    return _KIND_TABLE[_kind_of(obj)][3](obj)


def _envelope(obj) -> dict:
    kind = _kind_of(obj)
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": _KIND_TABLE[kind][1](obj)}


def serialize_document(obj) -> str:
    return json.dumps(_envelope(obj), indent=2, sort_keys=True) + "\n"


def serialize_bundle(documents: dict) -> str:
    """A named set of envelopes in one file (the fixture generator's output)."""
    body = {name: _envelope(obj) for name, obj in documents.items()}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct: json.loads would keep the
    last of a repeated key, and the document would not come back as written."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def parse_document(text: str):
    """Parse one envelope into its typed object (see KINDS).

    Only canonical content parses (no repeated keys, canonical matrix
    entries, nonzero map blocks in increasing degree, operad elements in
    normal form), so a document in the layout ``serialize_document``
    writes comes back byte for byte."""
    try:
        env = json.loads(text, object_pairs_hook=_unique_keys, parse_float=_refuse_float)
    except (ValueError, RecursionError) as e:
        _reject_float_literals(text)
        if isinstance(e, json.JSONDecodeError):
            raise DocumentError(f"{e.msg} at line {e.lineno}, column {e.colno}") from None
        if isinstance(e, DocumentError):
            raise
        # an integer literal past the interpreter's digit limit, or nesting
        # deeper than the decoder's recursion limit
        raise DocumentError(f"unreadable JSON: {e}") from None
    if type(env) is not dict:
        raise DocumentError("envelope: expected an object")
    _require_keys(env, {"format_version", "kind", "payload"}, "envelope")
    if env["format_version"] != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {env['format_version']!r}")
    kind = env["kind"]
    if kind not in KINDS:  # a tuple: a kind that is a list or an object is unknown, not unhashable
        raise DocumentError(f"unknown kind {kind!r}")
    body = env["payload"]
    if type(body) is not dict:
        raise DocumentError("payload: expected an object")
    return _KIND_TABLE[kind][2](body)
