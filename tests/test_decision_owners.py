"""linalg owns each certificate-or-spectrum decision: the strength closed
form (linalg._strength) and the direction of a strength witness
(linalg._witness_direction) each run their certificate or factor and their
Jacobi route in one body, next to the proof that the two agree. So does
the square root of a definite matrix with its inverse
(linalg._definite_root_pair): its iteration, the checks that accept it,
and the Jacobi route sqrt_psd then inv. The other modules make one call
per decision and reach none of the certificate internals, and none calls
sqrt_psd, so an edit outside linalg cannot split a route from its proof.
No module, linalg included, forms inv(sqrt_psd(.)) in one expression.
Docstrings may still name them."""

import ast
import pathlib

import loewner

SOURCES = pathlib.Path(loewner.__file__).resolve().parent
INTERNALS = {"_certificate", "_definite_ldl", "_negative_curvature", "_pivoted_strength",
             "_reciprocal_form", "_scaled_pinv", "_scaled_rows"}


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


def root_calls(path):
    """(line, form) for each call of sqrt_psd, as linalg.sqrt_psd or as a
    bare name, with form "inv(sqrt_psd)" when it is the first argument of
    a call of inv, else "sqrt_psd"."""
    def named(node, name):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Name) and func.id == name
                or isinstance(func, ast.Attribute) and func.attr == name)

    calls = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if named(node, "sqrt_psd"):
            calls.setdefault(node.lineno, "sqrt_psd")
        elif named(node, "inv") and node.args and named(node.args[0], "sqrt_psd"):
            calls[node.lineno] = "inv(sqrt_psd)"
    return sorted(calls.items())


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


def test_only_linalg_calls_sqrt_psd_and_no_module_inverts_it():
    found = {p.name: root_calls(p) for p in sorted(SOURCES.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls and name != "linalg.py"} == {}
    assert [form for _, form in found["linalg.py"]] == ["sqrt_psd"]   # the pair's Jacobi route


def test_the_root_scan_sees_both_forms(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""inv(sqrt_psd(a)) in prose."""\n'
                      "r = linalg.sqrt_psd(a)\n"
                      "z = linalg.inv(linalg.sqrt_psd(a, tol), tol)\n"
                      "w = inv(sqrt_psd(a))\n", encoding="utf-8")
    assert root_calls(source) == [(2, "sqrt_psd"), (3, "inv(sqrt_psd)"), (4, "inv(sqrt_psd)")]
