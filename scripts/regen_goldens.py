"""Regenerate the frozen text fixtures under tests/goldens/.

Run from the repository root after an intentional change to the symbolic
engine's rendering or term order:

    python3 scripts/regen_goldens.py

The files are compared byte for byte by the tests, so regenerating them
is an explicit statement that the new output is the intended one.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

from pertlab.chaincore import GradedMap
from pertlab.cli import main as cli_main
from pertlab.cli_io import serialize_bundle, serialize_document
from pertlab.fixtures import build_complex, fixture_generate, he_fixture, sdr_fixture
from pertlab.operad_sym import (
    TruncationCaps,
    gen,
    kernel_Z,
    parse_element,
    render_element,
    render_generator_diff,
    render_retraction_line,
)
from pertlab.she_obstruction import extend_to_she

GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"

# the command-line goldens run on fixture seed 55: both of its perturbations
# are nonzero, the cap-2 tower of its repaired he has G_2 nonzero, and the
# three pp strategies write three different documents
CLI_SEED = 55
# (golden under cli/, argv): a .json argument names, in the work directory,
# a document of fixture_generate(CLI_SEED) or the golden of an earlier run;
# every run but obstruction's writes a document, and with -o writes it to a file
CLI_RUNS = (
    ("bpl.json", ["bpl", "--sdr", "sdr.json", "--delta", "perturbation.json"]),
    ("modify_h.json", ["modify", "--he", "he.json", "--which", "h"]),
    ("extend_cap2.json", ["extend", "--he", "modify_h.json", "--cap", "2"]),
    ("ipl.json", ["ipl", "--she", "extend_cap2.json", "--delta", "he_perturbation.json"]),
    *((f"pp_{s}.json", ["pp", "--he", "he.json", "--delta", "he_perturbation.json", "--strategy", s])
      for s in ("modify-h", "modify-l", "as-is")),
    ("obstruction.txt", ["obstruction", "--he", "he.json"]),
)


def cli_argv(argv: list[str], work: pathlib.Path) -> list[str]:
    return [str(work / a) if a.endswith(".json") else a for a in argv]


def cli_outputs() -> dict[str, str]:
    """What each of CLI_RUNS prints on stdout, keyed by its golden's name."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for name, obj in fixture_generate(CLI_SEED).items():
            (work / f"{name}.json").write_text(serialize_document(obj))
        for name, argv in CLI_RUNS:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main(cli_argv(argv, work))
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit code {code}")
            out[f"cli/{name}"] = printed.getvalue()
            (work / name).write_text(out[f"cli/{name}"])
    return out


def validate_documents() -> dict[str, object]:
    """cli/validate.txt's documents, by file stem: one valid document of each
    kind, in the order of cli_io.KINDS, then a map over a complex whose
    d o d is nonzero, which validate refuses."""
    s, p = sdr_fixture(CLI_SEED)
    he = he_fixture(CLI_SEED)
    bad = build_complex(0, (1, 1, 1), ((0,), (0,), (0,)), {1: [[1]], 2: [[1]]}, 0)
    return {"complex": s.M, "map": s.F, "sdr": s, "he": he, "she": extend_to_she(he, 1),
            "perturbation": p, "operad-element": parse_element("f0 f1 - g1 f0", "rfake"),
            "invalid_map": GradedMap.zero(bad, bad, 0)}


def validate_output() -> str:
    """What `pertlab validate` prints on each of validate_documents, with its exit code."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for stem, obj in validate_documents().items():
            path = pathlib.Path(tmp) / f"{stem}.json"
            path.write_text(serialize_document(obj))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main(["validate", str(path)])
            out.append(f"$ pertlab validate {stem}.json\n{printed.getvalue()}exit code {code}\n")
    return "".join(out)


def diff_lines_plain() -> str:
    zs = [gen(fam, i) for i in (2, 3, 4) for fam in ("f", "g")]
    return "".join(render_generator_diff(z) + "\n" for z in zs)


def diff_lines_extended() -> str:
    zs = [gen("xb"), gen("yb")]
    zs += [gen(fam, i) for i in (0, 1, 2) for fam in ("fb", "gb")]
    return "".join(render_generator_diff(z) + "\n" for z in zs)


def kernel_lines() -> str:
    caps = TruncationCaps(max_index=4, max_length=5, max_fweight=4, max_degree=8)
    out = []
    for r in (-1, 1, 3):
        out.append(f"Z{r} = " + render_element(kernel_Z(r, caps)) + "\n")
    return "".join(out)


def retraction_lines() -> str:
    zs = [gen("yb")]
    zs += [gen(fam, i) for i in range(4) for fam in ("fb", "gb")]
    return "".join(render_retraction_line(z) + "\n" for z in zs)


def main() -> None:
    (GOLDENS / "cli").mkdir(parents=True, exist_ok=True)
    targets = {
        "diff_riso.txt": diff_lines_plain(),
        "diff_riso_tilde.txt": diff_lines_extended(),
        "kernels.txt": kernel_lines(),
        "retraction.txt": retraction_lines(),
        "fixture_seed0.json": serialize_bundle(fixture_generate(0)),
        **cli_outputs(),
        "cli/validate.txt": validate_output(),
    }
    for name, text in targets.items():
        path = GOLDENS / name
        old = path.read_text() if path.exists() else None
        path.write_text(text)
        state = "unchanged" if old == text else ("rewritten" if old is not None else "created")
        print(f"{name}: {state} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
