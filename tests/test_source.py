"""Rules about the package source itself.

Every function and class the package defines is used by the package or by
the benchmark, and only the catalogue data builds Lie algebras, so the
per-algebra caches in acs and group hold the registry's algebras alone.
Every other cache is bounded, except a few named ones whose keys are
source strings or small integers: sampled points come without end.  No
check is an assert, which python -O strips.  Only exactnum takes an lcm or
a gcd: every other module puts rationals over one denominator through it.  Only
exactnum (integer code) and expr (formula code) generate code.  Only moduli
imports numpy, for its one SVD.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import nilcomplex

PACKAGE = Path(nilcomplex.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GENERATED = {"_families.py", "_chartsrc.py"}
# claim checks and an oracle that only the tests call
TEST_ONLY = {"apply_derivation", "translated_chart_is_holomorphic",
             "chi_depends_on_conjugate", "m10_equivalence_relation",
             "m5_case21_relation"}
# unbounded caches whose first parameter is not a LieAlgebra
UNBOUNDED = {"expr._compile", "acs._square_forms", "group.m5_natural_fields"}

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


CACHES = ("cache", "lru_cache")


def _cache_name(node: ast.expr):
    """The node's name if it names a functools cache, else None."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in CACHES else None


def _bounded(deco: ast.expr) -> bool:
    """An lru_cache call that gives an integer maxsize."""
    if not isinstance(deco, ast.Call):
        return False
    sizes = deco.args[:1] + [k.value for k in deco.keywords if k.arg == "maxsize"]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
        and type(sizes[0].value) is int


def _on_an_algebra(fn: ast.FunctionDef) -> bool:
    args = fn.args.posonlyargs + fn.args.args
    return bool(args) and getattr(args[0].annotation, "id", None) == "LieAlgebra"


def cache_offenders(module: str, tree: ast.AST) -> list:
    """Caches in one module that break the rule, named module.function."""
    offenders, decorators = [], set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in fn.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            kind, name = _cache_name(target), f"{module}.{fn.name}"
            decorators.add(target)
            if kind == "lru_cache" and not _bounded(deco):
                offenders.append(f"{name}: lru_cache without an integer maxsize")
            elif kind == "cache" and not (_on_an_algebra(fn) or name in UNBOUNDED):
                offenders.append(f"{name}: unbounded cache off the allow-list")
    offenders += [f"{module}:{node.lineno}: a cache made other than by a decorator"
                  for node in ast.walk(tree)
                  if _cache_name(node) and node not in decorators]
    return offenders


def test_every_cache_is_bounded_or_per_algebra():
    offenders = []
    for path, tree in _trees(PACKAGE):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        offenders += cache_offenders(module, tree)
    assert offenders == []
    for name in UNBOUNDED:  # each allowed name is an unbounded cache today
        module, fn = name.rsplit(".", 1)
        cached = getattr(importlib.import_module(f"nilcomplex.{module}"), fn)
        assert cached.cache_info().maxsize is None, name


@pytest.mark.parametrize("source", [
    "@functools.lru_cache\ndef f(x): pass",
    "@lru_cache(maxsize=None)\ndef f(x): pass",
    "@functools.lru_cache(None)\ndef f(x): pass",
    "@functools.cache\ndef f(point: frozenset): pass",
    "@cache\ndef f(n, L: LieAlgebra): pass",
    "f = functools.lru_cache(maxsize=8)(g)",
], ids=["bare", "maxsize-none", "positional-none", "off-list", "algebra-second", "call"])
def test_the_cache_rule_refuses(source):
    assert len(cache_offenders("m", ast.parse(source))) == 1


def test_the_cache_rule_accepts():
    source = ("@functools.lru_cache(maxsize=256)\ndef f(point): pass\n"
              "@lru_cache(64)\ndef g(point): pass\n"
              "@cache\ndef h(L: LieAlgebra, n: int): pass\n"
              "@functools.cache\ndef _compile(s: str): pass\n")
    assert cache_offenders("expr", ast.parse(source)) == []


def assert_offenders(module: str, tree: ast.AST) -> list:
    """Assert statements in one module, named module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    # python -O strips an assert, and the check or verdict it held goes with it
    offenders = []
    for path, tree in _trees(PACKAGE):
        offenders += assert_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


def test_the_assert_rule_refuses():
    source = "def f(A):\n    assert len(A) == 6, A\n    return [assert_ for assert_ in A]\n"
    assert assert_offenders("m", ast.parse(source)) == ["m:2"]


def test_the_assert_rule_accepts():
    source = ("def f(A):\n    if len(A) != 6:\n        raise ValueError('assert len(A) == 6')\n"
              "    return [assert_ for assert_ in A]\n")
    assert assert_offenders("m", ast.parse(source)) == []


DENOMINATORS = {"lcm", "gcd"}


def lcm_offenders(module: str, tree: ast.AST) -> list:
    """Every import, call or other use of lcm or gcd in one module, named
    module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if getattr(node, "id", None) in DENOMINATORS
            or getattr(node, "attr", None) in DENOMINATORS
            or isinstance(node, ast.ImportFrom) and any(a.name in DENOMINATORS
                                                         for a in node.names)]


def test_only_exactnum_takes_an_lcm():
    offenders = []
    for path, tree in _trees(PACKAGE):
        if path.name not in GENERATED and path.relative_to(PACKAGE) != Path("exactnum.py"):
            offenders += lcm_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "from math import lcm\n",
    "import math\nD = math.lcm(*ds)\n",
    "D = functools.reduce(math.lcm, ds, 1)\n",
    "scope = {'F': Fraction, 'lcm': lcm}\n",
    "from math import gcd as g\n",
    "import math\ng = math.gcd(p, q)\n",
    "g = gcd(p, q)\n",
], ids=["import", "call", "reference", "scope", "gcd-import", "gcd-attribute", "gcd-call"])
def test_the_lcm_rule_refuses(source):
    assert len(lcm_offenders("m", ast.parse(source))) == 1


def test_the_lcm_rule_accepts():
    source = ('def f(J):\n    """M/D, D the lcm of the gcd-reduced denominators."""\n'
              "    lcm_, gcd_ = 'lcm', 'gcd'\n    return common_denominator(J.entries)\n")
    assert lcm_offenders("acs", ast.parse(source)) == []


CODEGEN = {"exec", "compile", "eval"}
CODEGEN_MODULES = {Path("exactnum.py"), Path("expr.py")}


def codegen_offenders(module: str, tree: ast.AST) -> list:
    """Every call of or other reference to the exec, compile or eval builtin
    in one module, named module:line; re.compile and p.eval are attributes."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in CODEGEN]


def test_only_exactnum_and_expr_generate_code():
    offenders = []
    for path, tree in _trees(PACKAGE):
        if path.relative_to(PACKAGE) not in CODEGEN_MODULES:
            offenders += codegen_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "exec(src, scope)\n",
    "code = compile(src, '<law>', 'exec')\n",
    "value = eval(code, scope, env)\n",
    "run = exec\n",
], ids=["exec", "compile", "eval", "reference"])
def test_the_codegen_rule_refuses(source):
    assert len(codegen_offenders("m", ast.parse(source))) == 1


def test_the_codegen_rule_accepts():
    source = ('def f(p, env):\n    """eval p; exec nothing."""\n'
              "    pattern = re.compile(r'\\d+')\n    return p.eval(env), 'exec'\n")
    assert codegen_offenders("group", ast.parse(source)) == []


NUMPY_MODULES = {Path("moduli.py")}


def numpy_offenders(module: str, tree: ast.AST) -> list:
    """Every import of numpy or of a numpy submodule in one module, named
    module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "numpy"]


def test_only_moduli_imports_numpy():
    offenders = []
    for path, tree in _trees(PACKAGE):
        if path.relative_to(PACKAGE) not in NUMPY_MODULES:
            offenders += numpy_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "import numpy as np\n",
    "import numpy.linalg\n",
    "from numpy import linalg\n",
    "def f(A):\n    from numpy.linalg import svd\n    return svd(A)\n",
], ids=["import", "submodule", "from", "local"])
def test_the_numpy_rule_refuses(source):
    assert len(numpy_offenders("m", ast.parse(source))) == 1


def test_the_numpy_rule_accepts():
    source = ('"""No numpy: import numpy is for moduli."""\nfrom . import linalg\n'
              "import numbers\nfrom .numpy_free import np\nnumpy = linalg.rank\n")
    assert numpy_offenders("linalg", ast.parse(source)) == []
