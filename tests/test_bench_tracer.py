"""The benchmark's span tracer (bench/tracer.py) against the package: every
function it names is bound on install and every binding is restored on
uninstall, so a rename in the package shows here and not only in the
benchmark's traced run."""

import importlib
import pathlib
import sys

import pytest

from loewner import linalg

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def bound(tracing, name):
    """What the tracer's span name refers to right now."""
    if name in tracing._METHODS:
        owner, attr = tracing._METHODS[name]
        return owner.__dict__[attr]
    module, attr = name.split(".")
    return vars(tracing._MODULES[module])[attr]


def bindings():
    """Every name bound in a loewner module or class namespace."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "loewner" or module_name.startswith("loewner."):
            for key, value in vars(module).items():
                found[module_name, key] = value
                if isinstance(value, type) and value.__module__ == module_name:
                    for attr, member in vars(value).items():
                        found[module_name, key, attr] = member
    return found


def test_install_binds_every_name_and_uninstall_restores_all(tracing):
    originals = {name: bound(tracing, name) for name in tracing.GROUPS}
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            wrapper = bound(tracing, name)
            assert wrapper is not original and wrapper.__wrapped__ is original, name
        linalg.eigvalsh(linalg.SymMat([[2.0]]))
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert tracer.totals()["linalg.eigvalsh"][0] == 1
