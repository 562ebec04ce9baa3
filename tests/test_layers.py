"""The module layering, read from the sources: syntax sits below semantics,
and no source checks anything in an ``assert``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import polyeff

SOURCES = Path(polyeff.__file__).parent
CHAIN = ["kernel", "typecheck", "encodings", "surface"]  # each may import only those before it


def package_imports(module: str) -> set[str]:
    """The ``polyeff`` modules that ``module`` imports, at any depth of its source."""
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {a.name for a in node.names} if node.module is None else {node.module.split(".")[0]}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyeff"):
            out.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("polyeff.")}
    return out


def test_syntax_sits_below_semantics():
    # kernel <- typecheck <- encodings <- surface, and the interpreter
    # prints types through kernel, not through the parser's module
    for k, module in enumerate(CHAIN):
        assert package_imports(module) <= set(CHAIN[:k]), module
    assert "surface" not in package_imports("interp")
    assert "kernel" in package_imports("interp")


def test_the_model_layer_imports_only_the_kernel():
    # finmodel checks exception names against the keywords through kernel,
    # so loading the model loads none of the parser, encodings or typechecker
    assert package_imports("finmodel") <= {"kernel"}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, polyeff.finmodel; print(sorted(m for m in sys.modules if m.startswith('polyeff')))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SOURCES.parent)},
    ).stdout
    assert out.strip() == str(["polyeff", "polyeff.finmodel", "polyeff.kernel"])


def test_no_module_checks_anything_in_an_assert():
    # python -O strips every assert statement, so a semantic check written as
    # one would vanish there: the package raises typed errors instead
    found = [f"{path.relative_to(SOURCES)}:{node.lineno}" for path in sorted(SOURCES.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
