"""The top-level names are exactly the ones the README's library surface documents."""

import inspect
import pkgutil
import re
from pathlib import Path

import symquot
from symquot import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_names():
    """Names written as ``symquot.<name>`` in the Library-surface section, modules left out."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    modules = {m.name for m in pkgutil.iter_modules(symquot.__path__)}
    # a name followed by ".x" is a module path such as symquot.oracle.bruteforce_check
    names = set(re.findall(r"\bsymquot\.([A-Za-z_]\w*)(?!\.?\w)", section))
    return names - modules


def error_classes():
    return {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.DomainError)
    }


def test_every_documented_name_is_exported():
    documented = library_surface_names()
    assert "verdict" in documented and "analyze" in documented
    assert documented - set(symquot.__all__) == set()


def test_every_export_is_documented_or_an_error_class():
    allowed = library_surface_names() | error_classes() | {"__version__"}
    assert set(symquot.__all__) - allowed == set()
    assert error_classes() <= set(symquot.__all__)


def test_every_export_resolves():
    assert all(hasattr(symquot, name) for name in symquot.__all__)
