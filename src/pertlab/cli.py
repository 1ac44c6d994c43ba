"""Command-line surface: one thin subcommand per library operation.

Exit codes are part of the interface: 0 success, 1 invalid input,
2 side-condition failure, 3 nonvanishing obstruction, 4 identity-suite
failure, 5 internal check failed (an ``InternalConsistencyError`` or any
other unexpected exception; the traceback goes to stderr and the
report).  ``--report FILE`` additionally writes a machine-readable JSON
summary of whatever the command did, on every exit code (usage errors
too); if that file cannot be written, a command that succeeded exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import traceback
from pathlib import Path

from . import fixtures
from .chaincore import GradedMap
from .cli_io import DocumentError, parse_document, serialize_bundle, serialize_document, validate_document
from .ipl_pipeline import action_from_she, evaluate, ipl_perturb, solve_pp
from .operad_sym import (
    TruncationCaps,
    parse_caps,
    parse_element,
    render_element,
    verify_identity_suite,
)
from .sdr_bpl import Perturbation, SdrData, SideConditionError, bpl_transfer
from .she_obstruction import (
    HeData,
    ObstructionError,
    SheData,
    extend_to_she,
    modification_witnesses,
    obstruction_cycles,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SIDE_CONDITIONS = 2
EXIT_OBSTRUCTED = 3
EXIT_IDENTITY = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits, as ``parse_caps`` reads them: int() alone takes any script's."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse contract
        raise _UsageError(message)


# every command's --report option, and alone the parser that reads it first
_COMMON = _Parser(add_help=False)
_COMMON.add_argument("--report", metavar="FILE", help="write a JSON run report")


def _load(path: str, want: type, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot read {what} file {path}: {e}") from None
    obj = parse_document(text)
    if not isinstance(obj, want):
        raise DocumentError(f"{what} file {path} holds a different document kind")
    return obj


def _write_out(path: str | None, text: str, report: dict) -> None:
    """Write text to the file at path (noted in the report), or to stdout."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
        report["output_file"] = path
    else:
        sys.stdout.write(text)


def _cmd_validate(args, report: dict) -> int:
    obj = _load(args.file, object, "document")
    problems = validate_document(obj)
    report["kind"] = type(obj).__name__
    report["problems"] = problems
    for line in problems:
        print(line)
    if problems:
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def _cmd_bpl(args, report: dict) -> int:
    s = _load(args.sdr, SdrData, "sdr")
    p = _load(args.delta, Perturbation, "perturbation")
    out = bpl_transfer(s, p)
    _write_out(args.out, serialize_document(out), report)
    return EXIT_OK


def _map_summary(f: GradedMap) -> dict:
    return {
        "degree": f.degree,
        "blocks": {str(n): [[str(v) for v in row] for row in m.to_rows()] for n, m in f.blocks},
    }


def _cmd_obstruction(args, report: dict) -> int:
    he = _load(args.he, HeData, "he")
    pair = obstruction_cycles(he)
    vanish = pair.class_m_vanishes and pair.class_n_vanishes
    print(f"o_M: {_map_summary(pair.cycle_m)}")
    print(f"o_N: {_map_summary(pair.cycle_n)}")
    print(f"classes vanish: {vanish}")
    report["class_m_vanishes"] = pair.class_m_vanishes
    report["class_n_vanishes"] = pair.class_n_vanishes
    if pair.witness_m is not None:
        print(f"witness for o_M: {_map_summary(pair.witness_m)}")
    if pair.witness_n is not None:
        print(f"witness for o_N: {_map_summary(pair.witness_n)}")
    return EXIT_OK if vanish else EXIT_OBSTRUCTED


def _cmd_modify(args, report: dict) -> int:
    he = _load(args.he, HeData, "he")
    modified, pair = modification_witnesses(he, args.which)
    _write_out(args.out, serialize_document(modified), report)
    report["cycle_m_zero"] = pair.cycle_m.is_zero()
    report["cycle_n_zero"] = pair.cycle_n.is_zero()
    return EXIT_OK


def _cmd_extend(args, report: dict) -> int:
    he = _load(args.he, HeData, "he")
    she = extend_to_she(he, args.cap)
    _write_out(args.out, serialize_document(she), report)
    return EXIT_OK


def _cmd_ipl(args, report: dict) -> int:
    she = _load(args.she, SheData, "she")
    p = _load(args.delta, Perturbation, "perturbation")
    out = ipl_perturb(she, p)
    _write_out(args.out, serialize_document(out.she), report)
    report["caps"] = dataclasses.asdict(out.provenance)
    return EXIT_OK


def _cmd_pp(args, report: dict) -> int:
    he = _load(args.he, HeData, "he")
    p = _load(args.delta, Perturbation, "perturbation")
    strategy = args.strategy.replace("-", "_")
    sol = solve_pp(he, p, strategy)
    quad = HeData(sol.m_perturbed, sol.n_perturbed, sol.f_tilde, sol.g_tilde, sol.h_tilde, sol.l_tilde)
    _write_out(args.out, serialize_document(quad), report)
    report["shifts"] = sol.shifts
    return EXIT_OK


def _cmd_operad_verify(args, report: dict) -> int:
    caps = parse_caps(args.caps) if args.caps is not None else TruncationCaps()
    checks = verify_identity_suite(caps)
    ok = True
    for c in checks:
        print(f"{c.name:32s} {'PASS' if c.passed else 'FAIL'}  {c.detail}")
        ok = ok and c.passed
    report["checks"] = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]
    return EXIT_OK if ok else EXIT_IDENTITY


def _cmd_operad_eval(args, report: dict) -> int:
    e = parse_element(args.expr, args.ambient)
    if args.she is not None or args.delta is not None:
        if args.she is None or args.delta is None:
            raise _UsageError("matrix evaluation needs both --she and --delta")
        she = _load(args.she, SheData, "she")
        p = _load(args.delta, Perturbation, "perturbation")
        act = action_from_she(she, p)
        value = evaluate(e, act)
        print(json.dumps(_map_summary(value), indent=2, sort_keys=True))
        report["value"] = _map_summary(value)
    else:
        print(render_element(e))
        report["normal_form"] = render_element(e)
    return EXIT_OK


def _cmd_fixture(args, report: dict) -> int:
    try:
        a, b = (_ascii_int(x) for x in args.ranks.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise _UsageError("--ranks takes two comma-separated integers") from None
    docs = fixtures.fixture_generate(args.seed, (a, b), args.filtration)
    _write_out(args.out, serialize_bundle(docs), report)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pertlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler, subs=sub, **kw):
        q = subs.add_parser(name, parents=[_COMMON], **kw)
        q.set_defaults(handler=handler)
        return q

    q = add("validate", _cmd_validate, help="run the kind-appropriate validator on a document")
    q.add_argument("file")

    q = add("bpl", _cmd_bpl, help="transfer a perturbation across a retract with side conditions")
    q.add_argument("--sdr", required=True)
    q.add_argument("--delta", required=True)
    q.add_argument("-o", "--out")

    q = add("obstruction", _cmd_obstruction, help="obstruction cycles, class verdicts and witnesses")
    q.add_argument("--he", required=True)

    q = add("modify", _cmd_modify, help="repair one homotopy so the obstruction cycles vanish")
    q.add_argument("--he", required=True)
    q.add_argument("--which", choices=("h", "l"), required=True)
    q.add_argument("-o", "--out")

    q = add("extend", _cmd_extend, help="extend a homotopy equivalence to a tower")
    q.add_argument("--he", required=True)
    q.add_argument("--cap", type=_ascii_int, required=True)
    q.add_argument("-o", "--out")

    q = add("ipl", _cmd_ipl, help="perturb a tower (cap drops by one)")
    q.add_argument("--she", required=True)
    q.add_argument("--delta", required=True)
    q.add_argument("-o", "--out")

    q = add("pp", _cmd_pp, help="perturb a homotopy equivalence end to end")
    q.add_argument("--he", required=True)
    q.add_argument("--delta", required=True)
    q.add_argument("--strategy", choices=("modify-h", "modify-l", "as-is"), default="modify-h")
    q.add_argument("-o", "--out")

    op = sub.add_parser("operad", parents=[_COMMON], help="symbolic engine commands")
    opsub = op.add_subparsers(dest="operad_command", required=True, parser_class=_Parser)

    q = add("verify", _cmd_operad_verify, opsub, help="run the symbolic identity suite")
    q.add_argument("--caps", help="index,length,fweight,degree")

    q = add("eval", _cmd_operad_eval, opsub, help="normal form of an expression, or its matrix value")
    q.add_argument("--expr", required=True)
    q.add_argument("--ambient", default="riso")
    q.add_argument("--she", help="tower document; with --delta, evaluate to a matrix")
    q.add_argument("--delta", help="perturbation document")

    q = add("fixture", _cmd_fixture, help="deterministic valid example documents")
    q.add_argument("--seed", type=_ascii_int, default=0)
    q.add_argument("--ranks", default="2,1", help="core rank, cone pairs")
    q.add_argument("--filtration", type=_ascii_int, default=2)
    q.add_argument("-o", "--out")

    return parser


# (exception kinds, exit code), first match wins: the ValueError subclasses
# come first; any other exception is an internal failure
_EXIT_CODES = (
    (SideConditionError, EXIT_SIDE_CONDITIONS),
    (ObstructionError, EXIT_OBSTRUCTED),
    ((_UsageError, ValueError, OSError), EXIT_INVALID),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    report: dict = {"argv": argv}
    try:  # the report path alone first, so that a usage error gets its report too
        report_path = _COMMON.parse_known_args(argv)[0].report
    except _UsageError:  # a bare --report: the full parse states the usage error, with no report
        report_path = None
    try:
        args = parser.parse_args(argv)
        code = args.handler(args, report)
    except Exception as e:  # every failure gets an exit code, a message and a report
        code = next((c for kinds, c in _EXIT_CODES if isinstance(e, kinds)), EXIT_INTERNAL)
        if code == EXIT_INTERNAL:  # InternalConsistencyError, or a fault nobody anticipated
            report["error"] = traceback.format_exc()
            print(report["error"], file=sys.stderr, end="")
        else:
            report["error"] = str(e)
            print(f"error: {e}", file=sys.stderr)
    report["exit_code"] = code
    if report_path:
        try:
            Path(report_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        except OSError as e:
            print(f"error: cannot write report file {report_path}: {e}", file=sys.stderr)
            if code == EXIT_OK:
                code = EXIT_INVALID
    return code


if __name__ == "__main__":
    raise SystemExit(main())
