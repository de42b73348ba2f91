"""The top-level names are exactly the ones the README's library surface documents,
and every name and example the README gives still works."""

import argparse
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import symquot
from symquot import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(heading):
    return README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def library_surface_names():
    """Names written as ``symquot.<name>`` in the Library-surface section, modules left out."""
    section = readme_section("## Library surface")
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


def test_library_surface_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", readme_section("## Library surface"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_module_name_in_the_readme_resolves():
    named = set(re.findall(r"\bsymquot\.([a-z_]+)\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert ("sympower", "class_table") in named
    missing = [
        f"symquot.{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"symquot.{module}"), name)
    ]
    assert missing == []


def test_every_cap_appears_in_the_readme_caps_table():
    from symquot import monomial, oracle, plurigenera, sympower

    text = README.read_text(encoding="utf-8")
    table = text.split("The caps and their codes:", 1)[1].strip().split("\n\n", 1)[0]
    limits = " ".join(line.split("|")[1] for line in table.splitlines())  # the "cap" column
    caps = {
        "VERDICT_POINTS_CAP": sympower.VERDICT_POINTS_CAP,
        "TABLE_POINTS_CAP": sympower.TABLE_POINTS_CAP,
        "DIM_BITS_CAP": sympower.DIM_BITS_CAP,
        "DEFAULT_CLOSURE_CAP": monomial.DEFAULT_CLOSURE_CAP,
        "DIMENSION_CAP": monomial.DIMENSION_CAP,
        "ROOT_ORDER_BITS_CAP": monomial.ROOT_ORDER_BITS_CAP,
        "GENERATORS_CAP": monomial.GENERATORS_CAP,
        "REP_FILE_CHARS_CAP": monomial.REP_FILE_CHARS_CAP,
        "MATRIX_SIZE_CAP": oracle.MATRIX_SIZE_CAP,
        "PLURIGENUS_BITS_CAP": plurigenera.PLURIGENUS_BITS_CAP,
    }
    missing = [name for name, value in caps.items() if not re.search(rf"\b{value}\b", limits)]
    assert missing == []


def test_the_cli_synopsis_names_the_flags_of_every_subcommand():
    from symquot import cli

    (subcommands,) = (
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    synopsis = re.findall(r"```\n(.*?)```", readme_section("## CLI"), re.S)[0]
    documented = {}
    for line in synopsis.splitlines():
        program, name, rest = line.split(" ", 2)
        assert program == "symquot" and name not in documented
        documented[name] = set(re.findall(r"--[a-z][a-z-]*", rest))
    assert documented == defined


def cli_examples():
    """(argv, expected stdout) for every ``$ symquot ...`` line of the README's CLI section."""
    examples = []
    for block in re.findall(r"```\n(.*?)```", readme_section("## CLI"), re.S):
        for chunk in ("\n" + block).split("\n$ ")[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((shlex.split(command)[1:], output))
    return examples


def test_every_cli_example_prints_what_the_readme_shows(run_cli):
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["sympower", "genus-bound"]
    for argv, output in examples:
        assert run_cli(*argv) == (0, output, "")


def test_the_representation_file_example_is_what_the_readme_says(run_cli, tmp_path):
    section = readme_section("### Representation file format")
    (text,) = re.findall(r"```json\n(.*?)```", section, re.S)
    assert "`1/2(1,1,1)`: canonical, terminal,\nindex 2." in section
    rep = tmp_path / "rep.json"
    rep.write_text(text, encoding="utf-8")
    code, out, err = run_cli("analyze", "--rep", str(rep), "--format", "json")
    assert (code, err) == (0, "")
    verdict = json.loads(out)["verdict"]
    assert (verdict["canonical"], verdict["terminal"], verdict["index"]) == (True, True, 2)
