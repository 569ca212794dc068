"""Module layering: which afnd modules may reach the linear algebra layer."""

import ast
import pathlib

import afnd

PACKAGE = pathlib.Path(afnd.__file__).resolve().parent


def imported_afnd_modules(path):
    """The afnd modules that a source file imports, by dotted name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {n for n in names if n.startswith("afnd.")}


def test_only_affinoid_complexes_and_normed_import_linalg():
    # Matrices of maps between presentations are built in afnd.complexes
    # alone; affinoid (normal forms) and normed (strictness) eliminate
    # their own relation rows and morphisms.
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "linalg"
        and any(
            n == "afnd.linalg" or n.startswith("afnd.linalg.")
            for n in imported_afnd_modules(path)
        )
    }
    assert importers == {"affinoid", "complexes", "normed"}
