"""Importing the package generates no code.

``dataclasses`` compiles every generated method from source when its class
is built, and loads ``inspect`` to do so; for this package that was most of
the cost of ``import spinorlab``.  The records are plain ``Record`` classes
instead (``spinorlab._record``), and this file keeps it that way:

- no module of the package imports ``dataclasses`` or ``typing``, checked on
  the syntax tree with the standard library, like ``test_unused_imports``;
- ``import spinorlab`` (and the CLI module) in an isolated interpreter
  without ``site`` leaves none of ``dataclasses``, ``inspect`` and ``typing``
  in ``sys.modules``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import spinorlab

SRC = Path(spinorlab.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
BANNED_IMPORTS = {"dataclasses", "typing"}
NOT_LOADED = ("dataclasses", "inspect", "typing")


def absolute_imports(source: str) -> set:
    """Top-level names of the modules a source imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_guard_flags_every_import_form():
    for source in (
        "import dataclasses\n",
        "from dataclasses import dataclass, field\n",
        "import typing as t\n",
        "import os, typing.re\n",
        "def f():\n    from typing import Iterable\n",
    ):
        assert absolute_imports(source) & BANNED_IMPORTS
    assert not absolute_imports("from .typing import x\nfrom collections.abc import Mapping\n") & BANNED_IMPORTS


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_code_generating_imports(path):
    assert sorted(absolute_imports(path.read_text()) & BANNED_IMPORTS) == []


def test_import_loads_no_code_generator():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import spinorlab, spinorlab.cli\n"
        f"print(sorted(m for m in {NOT_LOADED!r} if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
