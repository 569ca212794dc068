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


def private_attributes(tree, class_name):
    """The single-underscore methods and `self._x` attributes of a class."""
    [cls] = [
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == class_name
    ]
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Store)
        ):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_presentation_and_tate_internals_stay_in_their_modules():
    # Only affinoid reads a presentation's private state; only tate builds
    # elements, and only scalar builds norm values, without validating them.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    private = private_attributes(trees["affinoid"], "AffinoidPresentation")
    assert {"_shape_basis", "_generic_elimination", "_pushed"} <= private
    assert "_trusted_exps" in private_attributes(trees["scalar"], "NormValue")
    reads, trusted, trusted_norms = set(), set(), set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if stem != "affinoid" and node.attr in private:
                reads.add((stem, node.attr))
            if stem != "tate" and node.attr == "_trusted":
                trusted.add(stem)
            if stem != "scalar" and node.attr == "_trusted_exps":
                trusted_norms.add(stem)
    assert reads == set()
    assert trusted == set()
    assert trusted_norms == set()


def test_linalg_has_one_pivot_loop():
    # Both pivot rules, fewest nonzeros (`sparse_rref`) and largest norm
    # (`NormAwareElimination`), run through `_pivot_loop`: it is the only
    # code in afnd.linalg that reads the heap or takes a Gauss-Jordan step.
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    shared = {"_clear_column", "heapq"}
    users = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "heapq"
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name == "_clear_column":
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in shared:
                users.add(node.name)
    assert users == {"_pivot_loop"}


def test_verdicts_and_homology_build_on_one_tensor_and_one_elimination():
    # Only `derived_tensor` decides which relations are a target's
    # relators, so homotopy builds no pushout or Koszul complex of its own;
    # complexes ranks its obstructions with `sparse_rref`, so
    # `_pivot_loop` is the only Gauss-Jordan step in afnd.
    imports = {
        stem: imported_afnd_modules(PACKAGE / f"{stem}.py")
        for stem in ("homotopy", "complexes")
    }
    for name in ("pushout", "tensor_over", "koszul_complex"):
        assert not any(n.endswith(f".{name}") for n in imports["homotopy"])
    assert "afnd.scalar.exact_div" not in imports["complexes"]


def unused_imports(tree):
    """The names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # Every name a module imports is read there; the package __init__
    # imports only to re-export.
    unused = {
        path.stem: unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    assert {stem: names for stem, names in unused.items() if names} == {}


def function_local_imports(tree):
    """The lines of the imports that are not statements of the module."""
    top = {id(node) for node in tree.body}
    imports = (ast.Import, ast.ImportFrom)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, imports) and id(node) not in top
    ]


def test_no_function_local_imports():
    # Every import in afnd is a statement of its module: one inside a
    # function hides a dependency, or an import cycle, until it runs.
    local = {
        path.stem: function_local_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        for path in PACKAGE.glob("*.py")
    }
    assert {stem: lines for stem, lines in local.items() if lines} == {}



def referenced_names(tree):
    """Every name a module imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_cli_proves_homotopy_epimorphisms():
    # Each (base, piece) verdict is proved once per run, by the scenario
    # runner, which hands the pieces' verdicts to `acyclicity_check`.
    provers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "homotopy"
        and "is_homotopy_epi" in referenced_names(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    }
    assert provers == {"cli"}


def test_cover_sampling_is_decided_in_spectrum():
    # The scenario runner hands a cover check's base and pieces to
    # `spectrum.cover_check`, which alone picks and filters the points.
    imports = imported_afnd_modules(PACKAGE / "cli.py")
    spectrum = {n for n in imports if n.startswith("afnd.spectrum.")}
    assert spectrum == {"afnd.spectrum.cover_check"}
    for name in ("default_sample", "member", "seminorm", "domain_of"):
        assert not any(n.endswith(f".{name}") for n in imports)
