"""Every module imports only from strictly lower layers of the package."""

import ast
import pathlib

import pertlab

LAYERS = {
    "exactlin": 0,
    "chaincore": 1,
    "operad_sym": 1,
    "sdr_bpl": 2,
    "she_obstruction": 3,
    "ipl_pipeline": 4,
    "fixtures": 4,
    "cli_io": 5,
    "cli": 6,
}

PACKAGE = pathlib.Path(pertlab.__file__).parent


def relative_imports(path):
    """Names of the sibling modules a file imports, at any nesting depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_imports_point_strictly_downward():
    upward = []
    for name, layer in LAYERS.items():
        for target in relative_imports(PACKAGE / f"{name}.py"):
            if LAYERS[target] >= layer:
                upward.append(f"{name} (layer {layer}) imports {target} (layer {LAYERS[target]})")
    assert upward == []


# The parity layout of a tower (F_even[i] is f_2i, H_odd[j] is f_2j+1, ...)
# is read only in she_obstruction, which defines it; every other module,
# cli_io's document format included, goes through tower_assignment or
# she_obstruction._LAYOUT.
PARITY_FIELDS = {"F_even", "G_even", "H_odd", "L_odd"}
LAYOUT_READERS = {"she_obstruction"}


def test_parity_layout_stays_behind_she_obstruction():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in LAYOUT_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in PARITY_FIELDS:
                readers.append(f"{path.stem}:{node.lineno} reads .{node.attr}")
    assert readers == []


# object.__new__ builds an object past its constructor's check; each place
# that does so says why its caller has already checked what it builds.
# Generator.__new__ is the checked constructor itself: it allocates only
# after its own checks, and only for a (family, index) not yet interned.
UNCHECKED_CONSTRUCTORS = {
    ("exactlin", "_closed"),
    ("operad_sym", "_chain"),
    ("operad_sym", "Generator.__new__"),
    ("ipl_pipeline", "OperadAction._checked_by_caller"),
}


def object_new_scopes(node, scope=""):
    """(enclosing function or class path, line) of each ``object.__new__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from object_new_scopes(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"):
            yield scope, child.lineno
        yield from object_new_scopes(child, scope)


def test_object_new_only_in_the_unchecked_constructors():
    found = {(path.stem, scope): line
             for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in object_new_scopes(ast.parse(path.read_text()))}
    assert set(found) == UNCHECKED_CONSTRUCTORS, found
