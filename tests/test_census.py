"""The line census (``benchmarks/census``) measures what it claims to.

A tiny package is run by a driver script in a subprocess, with the
census's call recorder installed the way the census installs it.  The
package has a called function, a never-called one, a decorated called
one, a decorated never-called one and a called method, and the driver
imports it through an ``x/../src`` path.  Exactly one plain and one
decorated function must come out never called: a recorder that matched
unresolved paths would report all five, and one that keyed a decorated
function on its ``def`` line rather than its first decorator's (where
``co_firstlineno`` points) would report the decorated called one too.
"""

import importlib.util
import os
import sys
import textwrap

import pytest

CENSUS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "census", "census.py")

MODULE = textwrap.dedent('''
    REGISTRY = []


    def register(fn):
        REGISTRY.append(fn)
        return fn


    def called():
        return 1


    def never():
        return 2


    @register
    def decorated_called():
        return 3


    @register
    def decorated_never():
        return 4


    class Thing:
        def method(self):
            return 5
''')

DRIVER = textwrap.dedent('''
    import os
    import sys

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))

    from fixpkg import mod

    mod.called()
    mod.decorated_called()
    mod.Thing().method()
''')


def _census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(tmp_path):
    package = tmp_path / "src" / "fixpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "x").mkdir()
    driver = tmp_path / "x" / "driver.py"
    driver.write_text(DRIVER)
    return tmp_path / "src", driver


def test_one_plain_and_one_decorated_function_are_never_called(tmp_path):
    census = _census()
    root, driver = _fixture(tmp_path)
    calls = census.record([("driver", [sys.executable, str(driver)])],
                          str(root), log=lambda line: None)
    missed = census.never_called(census.functions(str(root)), calls)
    assert sorted(d.key for d in missed) == [
        "fixpkg/mod.py::decorated_never", "fixpkg/mod.py::never"]
    decorated, = [d for d in missed if d.name == "decorated_never"]
    assert (decorated.first, decorated.lines) == (23, 3)   # from the @


def test_an_entry_covers_a_function_or_is_stale(tmp_path):
    census = _census()
    root, driver = _fixture(tmp_path)
    missed = census.never_called(census.functions(str(root)), set())
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "# comment\n"
        "fixpkg/mod.py::*called  hook  a pattern over two functions\n"
        "fixpkg/mod.py::gone  failure  reached by "
        "tests/test_census.py::test_an_entry_covers_a_function_or_is_stale"
        "\n")
    entries = census.load_allowlist(str(allow))
    by_group, unlisted, stale = census.sort_out(missed, entries)
    assert sorted(d.name for d in by_group["hook"]) == [
        "called", "decorated_called"]
    assert sorted(d.name for d in unlisted) == [
        "Thing.method", "decorated_never", "never", "register"]
    assert [entry.pattern for entry in stale] == ["fixpkg/mod.py::gone"]


@pytest.mark.parametrize("reason, refusal", [
    ("reached somewhere", "names the test"),
    ("tests/test_nowhere.py::test_y", "no test file"),
    ("tests/test_census.py::test_renamed_away", "defines no"),
])
def test_a_failure_entry_must_name_a_test_that_exists(tmp_path, reason,
                                                      refusal):
    census = _census()
    allow = tmp_path / "allow.txt"
    allow.write_text(f"fixpkg/mod.py::never  failure  {reason}\n")
    with pytest.raises(ValueError, match=refusal):
        census.load_allowlist(str(allow))


def test_the_committed_allow_list_parses():
    census = _census()
    entries = census.load_allowlist()
    assert entries and all(entry.group in census.GROUPS
                           for entry in entries)
