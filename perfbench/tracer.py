"""In-memory span tracer for the traced benchmark pass.

The tracer wraps nilcomplex's public functions from outside the package:
every reference to a traced function held by a ``nilcomplex`` module (or a
class attribute such as ``MultiPoly.__rmul__ = __mul__``) is replaced by a
wrapper while the tracer is installed, and restored afterwards.  Nothing
under ``src/`` changes.

A span records name, start, end, parent and whether it raised.  A direct
self-call (``expr.evaluate`` recursing into itself, ``JFamily`` delegating to
``MatrixFamily.random_admissible``) opens no new span, so ``calls`` counts
the calls made from other functions.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from typing import Dict, List, Tuple

# (defining module, attribute path, span name)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("nilcomplex.group", "multiply", "group.multiply"),
    ("nilcomplex.group", "inverse", "group.inverse"),
    ("nilcomplex.group", "commutator_correction", "group.commutator_correction"),
    ("nilcomplex.group", "left_invariant_fields", "group.left_invariant_fields"),
    ("nilcomplex.liecore", "LieAlgebra.bracket", "liecore.bracket"),
    ("nilcomplex.catalogue", "MatrixFamily.random_admissible", "catalogue.random_admissible"),
    ("nilcomplex.catalogue", "JFamily.random_admissible", "catalogue.random_admissible"),
    ("nilcomplex.catalogue", "MatrixFamily.instantiate", "catalogue.instantiate"),
    ("nilcomplex.catalogue", "MatrixFamily.check_domain", "catalogue.check_domain"),
    ("nilcomplex.expr", "evaluate", "expr.evaluate"),
    ("nilcomplex.expr", "diff", "expr.diff"),
    ("nilcomplex.acs", "is_integrable", "acs.is_integrable"),
    ("nilcomplex.acs", "nijenhuis", "acs.nijenhuis"),
    ("nilcomplex.acs", "classify_m", "acs.classify_m"),
    ("nilcomplex.acs", "check_m_table", "acs.check_m_table"),
    ("nilcomplex.moduli", "family_rank", "moduli.family_rank"),
    ("nilcomplex.moduli", "constraint_polys", "moduli.constraint_polys"),
    ("nilcomplex.moduli", "constraint_eval", "moduli.constraint_eval"),
    ("nilcomplex.moduli", "jacobian_matrix", "moduli.jacobian_matrix"),
    ("nilcomplex.moduli", "jacobian_rank", "moduli.jacobian_rank"),
    ("nilcomplex.exactnum", "MultiPoly.eval", "exactnum.MultiPoly.eval"),
    ("nilcomplex.exactnum", "MultiPoly.partial", "exactnum.MultiPoly.partial"),
    ("nilcomplex.exactnum", "MultiPoly.__mul__", "exactnum.MultiPoly.__mul__"),
    ("nilcomplex.charts", "verify_chart", "charts.verify_chart"),
    ("nilcomplex.charts", "verify_chart_multiplication", "charts.verify_chart_multiplication"),
    ("nilcomplex.charts", "chi_corrections", "charts.chi_corrections"),
    ("nilcomplex.linalg", "rref", "linalg.rref"),
    ("nilcomplex.linalg", "det", "linalg.det"),
    ("nilcomplex.orbits", "is_automorphism", "orbits.is_automorphism"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in TARGETS))
ROOT = "bench.check"


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores."""

    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.errors: List[int] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (a direct self-call opens none)."""
        stack = self._stack
        if stack and self.names[stack[-1]] == name:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.errors.append(0)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[idx] = 1
            raise
        finally:
            self.ends[idx] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; a target the code no longer has is listed in
        ``missing`` and reads as zero calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nilcomplex" or n.startswith("nilcomplex."))]
        for modname, path, name in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and calls that raised.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (one thread).
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(self.names[i], {"calls": 0, "self_s": 0.0, "errors": 0})
            rec["calls"] += 1
            rec["self_s"] += (self.ends[i] - self.starts[i]) - child[i]
            rec["errors"] += self.errors[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip); ``trace`` is its root span."""
        root: List[int] = []
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i, name in enumerate(self.names):
                p = self.parents[i]
                root.append(i if p < 0 else root[p])
                f.write(json.dumps({"id": i, "trace": root[i], "parent": p, "name": name,
                                    "start": self.starts[i], "end": self.ends[i],
                                    "error": self.errors[i]}) + "\n")


def merge(summaries) -> Dict[str, Dict[str, float]]:
    """Sum per-name summaries (one per traced process)."""
    out: Dict[str, Dict[str, float]] = {}
    for s in summaries:
        for name, rec in s.items():
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            for k in acc:
                acc[k] += rec[k]
    return out
