"""Layering guard: the simulation stack never imports the front ends.

The contained executor lives in :mod:`repro.experiments.parallel` so the
CLI and the service share it; this pins the direction of that
dependency.  No module under the simulation and experiment packages may
import :mod:`repro.service` or the CLI (:mod:`repro.__main__`), at any
nesting level of the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_PACKAGES = (
    "experiments", "sim", "workloads", "dvi", "program", "rewrite", "isa",
    "analysis", "threads",
)
FORBIDDEN = ("repro.service", "repro.__main__")


def _imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _forbidden(name: str) -> bool:
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


@pytest.mark.parametrize("package", LOWER_PACKAGES)
def test_package_does_not_import_front_ends(package):
    modules = sorted((SRC / package).rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in modules
        for name in _imports(path)
        if _forbidden(name)
    ]
    assert offenders == []


def test_guard_detects_a_forbidden_import(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "def f():\n    from repro import service\n"
        "    from repro.__main__ import main\n",
        encoding="utf-8",
    )
    assert [name for name in _imports(module) if _forbidden(name)] == [
        "repro.service", "repro.__main__", "repro.__main__.main",
    ]
