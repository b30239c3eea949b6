"""linalg owns each certificate-or-spectrum decision: the strength closed
form (linalg._strength), the direction of a strength witness
(linalg._witness_direction) and generator regularity
(linalg._require_regular) each run their certificate or factor and their
Jacobi route in one body, next to the proof that the two agree. The other
modules make one call per decision and reach none of the certificate
internals, so an edit outside linalg cannot split a route from its proof.
Docstrings may still name them."""

import ast
import pathlib

import loewner

SOURCES = pathlib.Path(loewner.__file__).resolve().parent
INTERNALS = {"_certificate", "_certify_regular", "_definite_ldl", "_negative_curvature",
             "_pivoted_strength", "_reciprocal_form", "_scaled_pinv", "_scaled_rows"}


def internal_uses(path):
    """(line, name) for each linalg.<name> attribute and each name imported
    from linalg that is a certificate internal."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in INTERNALS
                and isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            uses.extend((node.lineno, alias.name) for alias in node.names
                        if alias.name in INTERNALS)
    return uses


def test_no_module_but_linalg_reaches_a_certificate_internal():
    modules = sorted(p for p in SOURCES.glob("*.py") if p.name != "linalg.py")
    assert len(modules) >= 8
    found = {p.name: internal_uses(p) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_scan_sees_a_use_in_code_and_not_in_a_docstring(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""linalg._certificate in prose."""\n'
                      "from .linalg import _scaled_rows\n"
                      "x = linalg._pivoted_strength(1)\n", encoding="utf-8")
    assert internal_uses(source) == [(2, "_scaled_rows"), (3, "_pivoted_strength")]
