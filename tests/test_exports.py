"""Every name that the package and its modules list in ``__all__`` resolves,
so a class removed from a module but still listed fails here, not only on
a star import; and the package version is stated in one place."""

import importlib
import pkgutil
import tomllib
from pathlib import Path
from types import ModuleType

import pytest

import gossipsim

MODULES = ["gossipsim"]
MODULES += sorted(m.name for m in pkgutil.iter_modules(gossipsim.__path__, "gossipsim."))


def unresolved(module):
    """The names in `module`'s ``__all__`` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    assert unresolved(importlib.import_module(name)) == []


def test_a_stale_export_is_caught():
    stale = ModuleType("stale")
    stale.__all__ = ["kept", "removed"]
    stale.kept = object()
    assert unresolved(stale) == ["removed"]


def test_the_package_version_is_the_one_the_csvs_write():
    # pyproject.toml reads its version from gossipsim.version, the
    # tool_version of every result file, and states none of its own
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gossipsim.version.VERSION"
    }
