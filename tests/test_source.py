"""Rules about the package source itself.

Every function and class the package defines is used by the package or by
the benchmark, and only the catalogue data builds Lie algebras, so the
per-algebra caches in acs and group hold the registry's algebras alone.
Every other cache is bounded, except a few named ones whose keys are
source strings or small integers: sampled points come without end.  No
check is an assert, which python -O strips.  Only exactnum takes an lcm or
a gcd: every other module puts rationals over one denominator through it.  Only
exactnum (integer code) and expr (formula code) generate code, only expr
reads formula text (with ast.parse), and only exactnum sums the quadratic
forms of the constraint map and of the automorphism map.  Only moduli
imports numpy, for its one SVD.  The package reads no `.m`: that accessor
of AlmostComplexStructure hands out mutable rows and drops a member's
integer form, so the package reads `rows()`.  Only linalg eliminates rows
(no other module swaps rows or subtracts a multiple of one row from
another), and it imports no fractions: its one elimination runs in ints.
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
# claim checks, an oracle and the constraint map's exact values, which only
# the tests call
TEST_ONLY = {"apply_derivation", "translated_chart_is_holomorphic",
             "chi_depends_on_conjugate", "m10_equivalence_relation",
             "m5_case21_relation", "constraint_values"}
# unbounded caches whose first parameter is not a LieAlgebra
UNBOUNDED = {"expr._compile", "acs._square_code", "group.m5_natural_fields"}

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


def exec_sites(module: str, tree: ast.AST) -> list:
    """Every call of the exec builtin in one module, named module.function
    by the innermost function around it (module.<module> outside any)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "exec":
                sites.append(f"{module}.{owner}")
            visit(child, owner)

    visit(tree, "<module>")
    return sites


def test_the_only_exec_is_integer_codes():
    # one emitter: every compiled sum of integer terms is integer_code's
    sites = []
    for path, tree in _trees(PACKAGE):
        sites += exec_sites(path.relative_to(PACKAGE).with_suffix("").as_posix(), tree)
    assert sites == ["exactnum.integer_code"]


def test_the_exec_rule_names_each_call_by_its_function():
    source = ("exec(top)\n"
              "def emit(forms):\n    exec(src, scope)\n"
              "    def inner():\n        return exec(more)\n"
              "class C:\n    def m(self):\n        x.exec(s)\n        return eval(s)\n")
    assert exec_sites("m", ast.parse(source)) == ["m.<module>", "m.emit", "m.inner"]


def parse_offenders(module: str, tree: ast.AST) -> list:
    """Every use of ast.parse, or import of parse from ast, in one module,
    named module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "parse"
            and getattr(node.value, "id", None) == "ast"
            or isinstance(node, ast.ImportFrom) and node.module == "ast"
            and any(a.name == "parse" for a in node.names)]


def test_only_expr_reads_formula_text():
    # one reader: every formula goes through expr's whitelist of nodes
    offenders = []
    for path, tree in _trees(PACKAGE):
        if path.relative_to(PACKAGE) != Path("expr.py"):
            offenders += parse_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []
    assert parse_offenders("expr", ast.parse((PACKAGE / "expr.py").read_text()))


@pytest.mark.parametrize("source", [
    "tree = ast.parse(text, mode='eval')\n",
    "from ast import parse\n",
    "from ast import literal_eval, parse as read\n",
    "read = ast.parse\n",
], ids=["call", "import", "alias", "reference"])
def test_the_parse_rule_refuses(source):
    assert len(parse_offenders("m", ast.parse(source))) == 1


def test_the_parse_rule_accepts():
    source = ('def f(argv, s):\n    """ast.parse is for expr."""\n'
              "    args = build_parser().parse_args(argv)\n"
              "    return ast.literal_eval(s), json.parse, args.parse\n")
    assert parse_offenders("cli", ast.parse(source)) == []


def _unpacked_triple(target: ast.expr) -> set:
    """The three names a loop target (p, q, c) binds, or the empty set."""
    if isinstance(target, ast.Tuple) and len(target.elts) == 3 \
            and all(isinstance(t, ast.Name) for t in target.elts):
        return {t.id for t in target.elts}
    return set()


def _quadratic_terms(node: ast.AST, names: set) -> list:
    """Products under node with two factors subscripted by the names, as
    c*M[p]*M[q] reads one term of a quadratic form."""
    return [m for m in ast.walk(node)
            if isinstance(m, ast.BinOp) and isinstance(m.op, ast.Mult)
            and sum(isinstance(f, ast.Subscript) and getattr(f.slice, "id", None) in names
                    for f in ast.walk(m)) >= 2]


def form_sum_offenders(module: str, tree: ast.AST) -> list:
    """Every loop or comprehension over (p, q, c) terms whose body or element
    multiplies two values indexed by p and q, named module:line: a sum of
    the constraint map's or the automorphism map's forms outside the code
    exactnum.integer_code compiles."""
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loops = [(node.target, node.body)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            elt = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            loops = [(g.target, elt) for g in node.generators]
        else:
            continue
        for target, body in loops:
            names = _unpacked_triple(target)
            if names and any(_quadratic_terms(b, names) for b in body):
                offenders.append(f"{module}:{node.lineno}")
    return offenders


def test_only_exactnum_sums_the_forms():
    # one evaluator of both bracket maps: the code integer_code compiles
    offenders = []
    for path, tree in _trees(PACKAGE):
        if path.relative_to(PACKAGE) != Path("exactnum.py"):
            offenders += form_sum_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "def f(forms, M, D):\n    for const, terms in forms:\n        v = const * D * D\n"
    "        for p, q, c in terms:\n            v += c * M[p] * M[q]\n        yield v\n",
    "v = sum(c * M[p] * M[q] for p, q, c in terms)\n",
    "v = [M[q] * (M[p] * c) for (p, q, c) in terms]\n",
    "for p, q, c in constraint_map(L)[row][1]:\n    total = total + c * f[p] * f[q]\n",
    "ok = not any(sum(c * M[p] * M[q] for p, q, c in t) for _, t in automorphism_forms(L))\n",
], ids=["loop", "sum", "list", "terms-of-the-map", "automorphism-forms"])
def test_the_form_rule_refuses(source):
    assert len(form_sum_offenders("m", ast.parse(source))) == 1


def test_the_form_rule_accepts():
    # the gradient is linear in M: one factor per term is no form value
    source = ("def g(terms, M, row):\n    for p, q, c in terms:\n        row[p] += c * M[q]\n"
              "        row[q] += c * M[p]\n"
              "    return [M[i] * M[j] for i, j in pairs], code(M, D)\n")
    assert form_sum_offenders("moduli", ast.parse(source)) == []


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


def m_read_offenders(module: str, tree: ast.AST) -> list:
    """Every read of an attribute named m in one module, named module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "m"
            and isinstance(node.ctx, ast.Load)]


def test_the_package_reads_no_m():
    # .m is for a caller that changes J's entries (the tests, the benchmark)
    offenders = []
    for path, tree in _trees(PACKAGE):
        offenders += m_read_offenders(path.relative_to(PACKAGE).as_posix(), tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "rows = J.m\n",
    "J.m[0][3] += x\n",
    "def f(self, values):\n    return self.instantiate(values).m\n",
    "text = '\\n'.join(str(row) for row in J.m)\n",
], ids=["read", "changed-entry", "returned", "printed"])
def test_the_m_rule_refuses(source):
    assert len(m_read_offenders("m", ast.parse(source))) == 1


def test_the_m_rule_accepts():
    source = ("class A:\n    @property\n    def m(self):\n        return self.rows()\n\n"
              'def f(J, m, inv):\n    """J.m is not read here."""\n'
              "    m = J.rows()\n    return m, inv['m'], J.m_table, J.mul\n")
    assert m_read_offenders("acs", ast.parse(source)) == []


def _over_zip(loop: ast.AST) -> bool:
    """A for loop or comprehension that iterates over a zip(...)."""
    generators = loop.generators if isinstance(loop, (ast.ListComp, ast.GeneratorExp)) \
        else [loop] if isinstance(loop, ast.For) else []
    return any(isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "zip"
               for g in generators)


def _subtracts_a_multiple(node: ast.AST) -> bool:
    """Some x - f * y in node: one row less a multiple of another."""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
               and isinstance(n.right, ast.BinOp) and isinstance(n.right.op, ast.Mult)
               for n in ast.walk(node))


def _swaps_rows(node: ast.AST) -> bool:
    """a[i], a[j] = a[j], a[i]: two items of one sequence swapped."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple)):
        return False
    parts = node.targets[0].elts + node.value.elts
    if len(parts) != 4 or not all(isinstance(p, ast.Subscript) for p in parts):
        return False
    slices = [ast.dump(p.slice) for p in parts]
    return len({ast.dump(p.value) for p in parts}) == 1 \
        and slices[0] == slices[3] and slices[1] == slices[2]


def elimination_offenders(module: str, tree: ast.AST) -> list:
    """Every row swap, and every loop over a zip that takes one row less a
    multiple of another, in one module, named module:line."""
    lines = {node.lineno for node in ast.walk(tree)
             if _swaps_rows(node) or _over_zip(node) and _subtracts_a_multiple(node)}
    return [f"{module}:{line}" for line in sorted(lines)]


def fractions_imports(module: str, tree: ast.AST) -> list:
    """Every import of the fractions module in one module, named module:line."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "fractions"]


def test_only_linalg_eliminates_rows_and_it_imports_no_fractions():
    offenders = []
    for path, tree in _trees(PACKAGE):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "linalg.py":
            offenders += fractions_imports(module, tree)
            assert elimination_offenders(module, tree)  # the rule sees the one elimination
        elif path.name not in GENERATED:
            offenders += elimination_offenders(module, tree)
    assert offenders == []


@pytest.mark.parametrize("source", [
    "rows[r], rows[pr] = rows[pr], rows[r]\n",
    "def f(M, i, j):\n    M[i], M[j] = M[j], M[i]\n",
    "rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]\n",
    "new = list(pivot * a - f * b for a, b in zip(row, top))\n",
    "for a, b in zip(row, top):\n    new.append((p * a - f * b) // prev)\n",
], ids=["swap", "swap-in-function", "combination", "generator", "loop"])
def test_the_elimination_rule_refuses(source):
    assert len(elimination_offenders("m", ast.parse(source))) == 1


def test_the_elimination_rule_accepts():
    source = ("rhs = [r + c * g for r, g in zip(rhs, gen(k))]\n"
              "d = [a - b for a, b in zip(p, q)]\n"
              "a, b = b, a\nx[0], y[0] = y[0], x[0]\nm[0], m[1] = m[0], m[1]\n"
              "s = sum(p - c * q for p in ps)\n")
    assert elimination_offenders("charts", ast.parse(source)) == []


@pytest.mark.parametrize("source", [
    "from fractions import Fraction\n",
    "import fractions\n",
    "def f(x):\n    from fractions import Fraction as F\n    return F(x)\n",
], ids=["from", "module", "local"])
def test_the_fractions_rule_refuses(source):
    assert len(fractions_imports("linalg", ast.parse(source))) == 1


def test_the_fractions_rule_accepts():
    source = ('"""Rows of Fractions are put over ints."""\n'
              "from .exactnum import GaussianRational, common_denominator\n"
              "from .fractions_free import Fraction\n")
    assert fractions_imports("linalg", ast.parse(source)) == []
