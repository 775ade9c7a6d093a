"""Every package namespace resolves its public names on first use.

Each ``repro`` package ``__init__`` declares one ``{name: ".submodule"}``
table (``repro._attach``).  What must hold for each: the names in
``__all__`` are the very objects their submodules bind, ``dir()`` shows
them, an unknown name is an ``AttributeError`` naming the package, and
``import *`` still works.  The table is read from the source, so the
check cannot share a mistake with the code it checks.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro
import repro.distributed as distributed
from repro.distributed import (
    EXECUTORS,
    CoSimulation,
    MultiprocessCoSimulation,
    ThreadedCoSimulation,
    build,
)

SRC = Path(repro.__file__).resolve().parents[1]

#: Every package of the source tree that declares a table.  The native
#: shim chooses its backend at import time, so it stays eager.
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in SRC.joinpath("repro").rglob("__init__.py")
    if init.parent.name != "_native")


def declared_table(package):
    """The literal table ``package``'s ``__init__`` hands to ``_attach``."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    source = init.read_text()
    [call] = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_attach"]
    return eval(ast.get_source_segment(source, call.args[1]), {})


def test_every_package_is_covered():
    assert PACKAGES == [
        "repro", "repro.apps", "repro.bench", "repro.core", "repro.debug",
        "repro.distributed", "repro.distributed.multiprocess",
        "repro.faults", "repro.hw", "repro.loader", "repro.observability",
        "repro.processor", "repro.protocols", "repro.tools",
        "repro.transport"]


@pytest.mark.parametrize("package", PACKAGES)
def test_each_name_is_what_its_submodule_binds(package):
    module = importlib.import_module(package)
    table = declared_table(package)
    assert set(table) <= set(module.__all__)
    for name, target in table.items():
        where, __, attr = target.partition(":")
        source = importlib.import_module(where, package)
        if not attr and where.rsplit(".", 1)[-1] == name:
            expected = source
        else:
            expected = vars(source)[attr or name]
        assert getattr(module, name) is expected, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_covers_all(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError,
                       match=f"module '{package}' has no attribute "
                             f"'no_such_name'"):
        module.no_such_name


def test_star_import():
    namespace = {}
    exec("from repro.core import *", namespace)
    core = importlib.import_module("repro.core")
    assert {name: namespace[name] for name in core.__all__} == {
        name: getattr(core, name) for name in core.__all__}


def test_executors_by_name():
    assert sorted(EXECUTORS) == ["cosim", "multiprocess", "threaded"]
    assert dict(EXECUTORS) == {"cosim": CoSimulation,
                               "threaded": ThreadedCoSimulation,
                               "multiprocess": MultiprocessCoSimulation}
    assert "quantum" not in EXECUTORS
    assert {"EXECUTORS", "build"} <= set(distributed.__all__)


def test_unknown_executor():
    with pytest.raises(ValueError) as raised:
        build(None, "quantum")
    assert str(raised.value) == (
        "unknown executor 'quantum': use one of "
        "['cosim', 'multiprocess', 'threaded']")
