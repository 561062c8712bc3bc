"""Rules about the package source itself.

Every function and class the package defines is used by the package or by
the benchmark, and only the catalogue data builds Lie algebras, so the
per-algebra caches in acs and group hold the registry's algebras alone.
"""

import ast
import sys
from pathlib import Path

import nilcomplex

PACKAGE = Path(nilcomplex.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GENERATED = {"_families.py", "_chartsrc.py"}
# claim checks and an oracle that only the tests call
TEST_ONLY = {"apply_derivation", "translated_chart_is_holomorphic",
             "chi_depends_on_conjugate", "m10_equivalence_relation",
             "m5_case21_relation"}

sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _references() -> set:
    """Names, attributes and imported names in src/ and perfbench/, plus the
    parts of every tracer target path (tracing reaches them by string)."""
    refs = {part for _, path, _ in tracer.TARGETS for part in path.split(".")}
    for directory in (PACKAGE, PERFBENCH):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return refs


def test_every_definition_is_referenced():
    defs = [(f"{path.relative_to(PACKAGE)}:{node.lineno}", node.name)
            for path, tree in _trees(PACKAGE) if path.name not in GENERATED
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert TEST_ONLY <= {name for _, name in defs}
    refs = _references() | TEST_ONLY
    assert [f"{where} {name}" for where, name in defs if name not in refs] == []


def test_only_the_catalogue_data_builds_lie_algebras():
    offenders = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                 for path, tree in _trees(PACKAGE)
                 if path.relative_to(PACKAGE) != Path("catalogue", "_data.py")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and (getattr(node.func, "id", None) == "LieAlgebra"
                      or getattr(node.func, "attr", None) == "LieAlgebra")]
    assert offenders == []
