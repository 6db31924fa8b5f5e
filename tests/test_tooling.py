import argparse
import ast
from pathlib import Path

import uag.cli as cli

SRC = Path(__file__).resolve().parents[1] / "src" / "uag"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_unused_imports_detector():
    src = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nos.sep\nw()\n"
    assert unused_imports(src) == ["a (line 2)", "z (line 3)"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_cmd_function_is_bound_to_exactly_one_verb():
    [sub] = [a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bound = {verb: p.get_default("fn") for verb, p in sub.choices.items()}
    cmds = {fn for name, fn in vars(cli).items() if name.startswith("cmd_") and callable(fn)}
    assert list(bound) == list(cli.VERBS)
    assert len(set(bound.values())) == len(bound)
    assert set(bound.values()) == cmds
