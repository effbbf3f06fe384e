"""The dependency between the core and the paper library runs one way:
`treefit.paper` imports the core, and the core never imports `treefit.paper`.
And `solve` is deterministic search alone: neither it nor the exact search
it calls can draw a random number."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_names(node: ast.AST) -> list[str]:
    """Absolute names an import statement in a `treefit/*.py` module loads."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "treefit" + ("." + base if base else "")
        return [base] + [f"{base}.{a.name}" for a in node.names]
    return []


def test_core_never_imports_paper():
    probe = "import sys, treefit, treefit.cli; print(sorted(m for m in sys.modules if m.startswith('treefit.paper')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"

    core = sorted((SRC / "treefit").glob("*.py"))
    assert core
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in core
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(name == "treefit.paper" or name.startswith("treefit.paper.") for name in imported_names(node))
    ]
    assert offenders == []


def test_solve_draws_no_random_numbers():
    offenders = [
        f"{module}:{node.lineno} {name}"
        for module in ("pipeline", "color_coding")
        for node in ast.walk(ast.parse((SRC / "treefit" / f"{module}.py").read_text(encoding="utf-8")))
        for name in imported_names(node)
        if name.split(".")[0] == "random" or name == "treefit.seeds" or name.startswith("treefit.seeds.")
    ]
    assert offenders == []
