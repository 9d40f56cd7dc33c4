"""Every third-party module the suite imports is a declared dev requirement.

``requirements-dev.txt`` is the only file CI installs (and its pip-cache
key), so a test, benchmark or example importing an undeclared package
collects on a developer machine and fails in CI.  The scan covers every
import statement under ``tests/``, ``benchmarks/`` and ``examples/``,
leaving out the standard library, ``repro`` itself and the repository's
own helper modules.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("tests", "benchmarks", "examples")


def declared_requirements() -> set[str]:
    names = set()
    for line in (ROOT / "requirements-dev.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            for separator in "<>=!~[; ":
                line = line.split(separator, 1)[0]
            names.add(line.lower().replace("-", "_"))
    return names


def imported_third_party() -> dict[str, set[str]]:
    files = [path for root in SCANNED for path in (ROOT / root).rglob("*.py")]
    local = {path.stem for path in files}
    local |= {path.parent.name for path in files}
    found: dict[str, set[str]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top == "repro" or top in local:
                    continue
                found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def test_every_imported_package_is_a_dev_requirement():
    declared = declared_requirements()
    missing = {
        module: sorted(paths)[:3]
        for module, paths in imported_third_party().items()
        if module.lower() not in declared
    }
    assert not missing, f"imported but not in requirements-dev.txt: {missing}"


def test_the_scan_sees_the_known_imports():
    imported = imported_third_party()
    assert {"pytest", "hypothesis"} <= set(imported)
    assert "repro" not in imported and "json" not in imported
