"""Every public name of the package is reached by the package or the bench.

- Every name loewner/__init__.py exports is referred to by some code
  outside its defining module, in src/loewner or bench/, either as
  <module>.<name> or as a name imported from its module (or from the
  package) and then used.
- Every module-level public name of src/loewner (a function, a class or an
  assigned name with no leading underscore) is referred to by some code in
  src/loewner or bench/; a use inside its own module counts.

A docstring or a comment that names it does not count, and neither does
__init__.py's own import. Names are matched without scopes, so a local
variable that shares a public name counts as a use of it. A helper that only its unit tests call is not
part of the public surface."""

import ast
import pathlib

import loewner

SOURCES = pathlib.Path(loewner.__file__).resolve().parent
BENCH = SOURCES.parent.parent / "bench"

# Exports that no code outside their module names, each with its reason.
UNREFERENCED = {
    "Spectrum": "the type eigh returns, read through its fields",
    "unit_mobius": "selftest reaches it through mobius_apply",
    "identity_automorphism": "the identity element of the automorphism group",
    "sqrt_psd": "the public PSD square root; only linalg may call it "
                "(tests/test_decision_owners.py), as _definite_root_pair's Jacobi route",
}

# Module-level public names that no code in src/loewner or bench/ uses,
# each with its reason.
UNUSED = {
    "identity_automorphism": "the identity element of the automorphism group",
    "pinv_and_range": "test_certificate's spectral reference for strength",
}


def exports():
    """{exported name: short name of its defining module}."""
    tree = ast.parse((SOURCES / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def references(path, names):
    """The (module, name) pairs of `names` that the code of `path` refers to."""
    imported, used, found = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in names):
            found.add((node.value.id, node.attr))
    for module, name in names:
        if name in used and ({(module, name), ("loewner", name)} & imported):
            found.add((module, name))
    return found


def defined(path):
    """The public names that the module at `path` defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def loaded(path):
    """The names that the code of `path` reads."""
    return {node.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def modules():
    return [p for p in sorted(SOURCES.glob("*.py")) if p.name != "__init__.py"]


def code_paths():
    return modules() + sorted(BENCH.glob("*.py"))


def unused():
    names = {(path.stem, name) for path in modules() for name in defined(path)}
    reached = set()
    for path in code_paths():
        reached |= references(path, names)
        own = loaded(path)
        reached |= {(module, name) for module, name in names
                    if module == path.stem and name in own}
    return sorted(name for module, name in names - reached)


def unreferenced():
    names = {(module, name) for name, module in exports().items()}
    reached = set()
    for path in code_paths():
        reached |= {pair for pair in references(path, names) if pair[0] != path.stem}
    return sorted(name for module, name in names - reached)


def test_every_export_is_reached_outside_its_module():
    assert unreferenced() == sorted(UNREFERENCED)


def test_every_public_name_is_used_by_the_package_or_the_bench():
    assert unused() == sorted(UNUSED)


def test_the_export_list_is_read():
    found = exports()
    assert len(found) == 40
    assert found["SymMat"] == "linalg" and found["iso_between"] == "intervals"


def test_the_scan_sees_a_use_in_code_and_not_in_a_docstring(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""linalg.eigh and strength in prose."""\n'
                      "from .effects import strength\n"
                      "from .intervals import chain_of\n"
                      "x = linalg.inv(1)\n"
                      "y = other.sharp\n"
                      "z = strength\n", encoding="utf-8")
    names = {("linalg", "eigh"), ("linalg", "inv"), ("effects", "strength"),
             ("effects", "sharp"), ("intervals", "chain_of")}
    assert references(source, names) == {("linalg", "inv"), ("effects", "strength")}


def test_the_scan_sees_module_level_definitions_and_uses(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""spare in prose."""\n'
                      "LIMIT = 3\n"
                      "_private = 1\n"
                      "class Box:\n"
                      "    inner = 2\n"
                      "def helper():\n"
                      "    return LIMIT\n"
                      "def spare():\n"
                      "    pass\n", encoding="utf-8")
    assert defined(source) == {"LIMIT", "Box", "helper", "spare"}
    assert defined(source) & loaded(source) == {"LIMIT"}
