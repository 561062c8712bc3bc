"""Registry of the eleven catalogued algebras.

Each entry carries the bracket table, the parametric families of complex
structures with their domain predicates, canonical representatives with
claimed bracket tables of m and holomorphic chart data, the automorphism
group as a parametric matrix family, the displayed left-invariant vector
fields, and the expected moduli dimension.

All formulas are expression strings (see nilcomplex.expr); instantiation
and admissible sampling happen here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exactnum import GaussianRational, rational_str
from ..expr import evaluate, free_symbols
from ..liecore import LieAlgebra
from ..acs import AlmostComplexStructure, is_integrable

CATALOGUE_VERSION = 1


class UnknownAlgebra(KeyError):
    pass


class UnknownMember(KeyError):
    """An algebra has no family or representative of the given name."""


class DomainViolation(ValueError):
    """A parameter assignment violates a family's domain predicate."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling failed to find an admissible point in budget."""


@dataclass(frozen=True)
class ParamSpec:
    """A named free parameter and how to sample it.

    kind: 'rational' (any small rational), 'pm_one' (either sign of 1),
    'unit' (rational in (0, 1]).
    """
    name: str
    kind: str = "rational"

    def sample(self, rng: random.Random) -> Fraction:
        if self.kind == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if self.kind == "pm_one":
            return Fraction(rng.choice((-1, 1)))
        if self.kind == "unit":
            den = rng.randint(1, 9)
            return Fraction(rng.randint(1, den), den)
        raise ValueError(f"unknown parameter kind {self.kind!r}")


def _as_real(v) -> Fraction:
    if isinstance(v, GaussianRational):
        if v.im != 0:
            raise ValueError("matrix entry evaluated to a non-real value")
        return v.re
    return Fraction(v)


@dataclass(frozen=True)
class MatrixFamily:
    """A 6x6 matrix template over named rational parameters.

    `defs` are dependent scalars evaluated in order; `entries` may
    reference parameters and defs.  `conditions` is a conjunction of
    expressions required to be nonzero on the domain.
    """
    name: str
    params: Tuple[ParamSpec, ...]
    entries: Tuple[Tuple[str, ...], ...]
    defs: Tuple[Tuple[str, str], ...] = ()
    conditions: Tuple[str, ...] = ()

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def continuous_params(self) -> List[str]:
        return [p.name for p in self.params if p.kind != "pm_one"]

    def check_domain(self, values: Mapping[str, Fraction],
                     extra_conditions: Sequence[str] = ()) -> Dict[str, Fraction]:
        """Kind checks, dependent definitions, then domain conditions.

        Returns the validated scope: the parameters and the defs.
        """
        missing = [p.name for p in self.params if p.name not in values]
        if missing:
            raise DomainViolation(f"{self.name}: unassigned parameters {missing}")
        for p in self.params:
            v = Fraction(values[p.name])
            if p.kind == "pm_one" and v * v != 1:
                raise DomainViolation(f"{self.name}: {p.name} = {v} must be +1 or -1")
            if p.kind == "unit" and not 0 < v <= 1:
                raise DomainViolation(f"{self.name}: {p.name} = {v} must lie in (0, 1]")
        env = {k: Fraction(v) for k, v in values.items()}
        conds = tuple(self.conditions) + tuple(extra_conditions)
        pnames = set(env)

        def check(cond):
            try:
                ok = _as_real(evaluate(cond, env)) != 0
            except ZeroDivisionError:
                ok = False
            if not ok:
                raise DomainViolation(f"{self.name}: condition {cond} != 0 violated")

        late = []
        for cond in conds:
            if free_symbols(cond) <= pnames:
                check(cond)
            else:
                late.append(cond)
        for nm, e in self.defs:
            try:
                env[nm] = evaluate(e, env)
            except ZeroDivisionError:
                raise DomainViolation(f"{self.name}: definition {nm} undefined here") from None
        for cond in late:
            check(cond)
        return env

    def _matrix(self, env: Mapping[str, Fraction]) -> AlmostComplexStructure:
        """The entries evaluated in a scope that check_domain returned."""
        rows = []
        for row in self.entries:
            out = []
            for cell in row:
                try:
                    out.append(_as_real(evaluate(cell, env)))
                except ZeroDivisionError:
                    raise DomainViolation(f"{self.name}: entry {cell} undefined here") from None
            rows.append(out)
        return AlmostComplexStructure(rows)

    def instantiate(self, values: Mapping[str, Fraction]) -> AlmostComplexStructure:
        return self._matrix(self.check_domain(values))

    def instantiate_matrix(self, values: Mapping[str, Fraction]) -> List[List[Fraction]]:
        return self.instantiate(values).m

    def random_admissible(self, rng, attempts: int = 400,
                          extra_conditions: Sequence[str] = ()) -> Dict[str, Fraction]:
        """Rejection-sample a rational parameter point in the domain."""
        if isinstance(rng, int):
            rng = random.Random(rng)
        for _ in range(attempts):
            values = {p.name: p.sample(rng) for p in self.params}
            try:
                self.check_domain(values, extra_conditions)
            except DomainViolation:
                continue
            return values
        raise SamplingExhausted(f"{self.name}: no admissible point in {attempts} attempts")


@dataclass(frozen=True)
class JFamily(MatrixFamily):
    expected_m: Optional[str] = None
    samplable: bool = True

    def random_admissible(self, rng, attempts: int = 400,
                          extra_conditions: Sequence[str] = ()):
        if not self.samplable:
            raise SamplingExhausted(f"{self.name}: family is catalogued metadata-only")
        return super().random_admissible(rng, attempts, extra_conditions)


@dataclass(frozen=True)
class AutomorphismFamily(MatrixFamily):
    pass


@dataclass(frozen=True)
class Chart:
    """Holomorphic chart data for one representative.

    phis are three expressions over `defs` (which introduce the complex
    combinations w1..w3 of the real coordinates) and the representative's
    parameters.  `relations` are the displayed constant-coefficient
    dependencies x~_j^- = sum_k c_k x~_k^-.  `chi` holds the closed-form
    multiplication corrections per chart component (missing component =
    plain additivity).
    """
    defs: Tuple[Tuple[str, str], ...]
    phis: Tuple[str, str, str]
    generators: Tuple[int, ...] = (1, 3, 5)
    relations: Tuple[Tuple[int, Tuple[Tuple[int, str], ...]], ...] = ()
    chi: Tuple[Tuple[int, str], ...] = ()
    chi_defs: Tuple[Tuple[str, str], ...] = ()
    coords: str = "secondkind"
    conditions: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Representative(MatrixFamily):
    """A canonical J, possibly with a few parameters, plus catalogued claims."""
    m_table: Tuple[Tuple[Tuple[int, int], Tuple[Tuple[int, str], ...]], ...] = ()
    expected_m: Optional[str] = None
    chart: Optional[Chart] = None
    recognize: Tuple[Tuple[str, Tuple[int, int, Optional[str]]], ...] = ()
    notes: str = ""

    def claimed_m_table(self, values: Mapping[str, Fraction]
                        ) -> Dict[Tuple[int, int], List[GaussianRational]]:
        """The catalogued bracket table of m at a parameter point, in the
        form acs.check_m_table takes: pair -> coefficients of x~_1..x~_n."""
        env = self.check_domain(values)
        out = {}
        for pair, co in self.m_table:
            coeffs = [GaussianRational(0)] * len(self.entries)
            for k, ce in co:
                coeffs[k - 1] = GaussianRational.coerce(evaluate(ce, env))
            out[pair] = coeffs
        return out


@dataclass(frozen=True)
class AlgebraEntry:
    name: str
    aliases: Tuple[str, ...]
    algebra: LieAlgebra
    families: Tuple[JFamily, ...]
    representatives: Tuple[Representative, ...]
    automorphisms: Tuple[AutomorphismFamily, ...]
    fields_display: Tuple[Tuple[int, Tuple[str, ...]], ...]
    expected_dim: int
    natural_chart: bool = False
    notes: str = ""

    def family(self, name: str) -> JFamily:
        for f in self.families:
            if f.name == name:
                return f
        raise UnknownMember(f"{self.name}: no family {name!r}")

    def representative(self, name: str) -> Representative:
        for r in self.representatives:
            if r.name == name:
                return r
        raise UnknownMember(f"{self.name}: no representative {name!r}")


def _norm(name: str) -> str:
    # "-" marks the gamma = -1 twins and must stay distinct from "_"/","
    return (name.upper().replace("-", "NEG").replace(" ", "")
            .replace("_", "").replace(",", "").replace(".", "")
            .replace("+", "P"))


_REGISTRY: Dict[str, AlgebraEntry] = {}
_LOOKUP: Dict[str, str] = {}


def _register(entry: AlgebraEntry) -> None:
    _REGISTRY[entry.name] = entry
    for nm in (entry.name,) + entry.aliases:
        _LOOKUP[_norm(nm)] = entry.name


def names() -> List[str]:
    return list(_REGISTRY)


def get(name: str) -> AlgebraEntry:
    key = _LOOKUP.get(_norm(name))
    if key is None:
        raise UnknownAlgebra(
            f"unknown algebra {name!r}; catalogued: {', '.join(_REGISTRY)}")
    return _REGISTRY[key]


def entries() -> List[AlgebraEntry]:
    return list(_REGISTRY.values())


# -- nonexistence spot-check targets ---------------------------------------

_SPOTCHECK: Dict[str, Tuple[LieAlgebra, str]] = {}


def _register_spotcheck(name: str, algebra: LieAlgebra, family_of: str) -> None:
    _SPOTCHECK[_norm(name)] = (algebra, family_of)


def is_spotcheck_target(name: str) -> bool:
    """Whether `name` (in any spelling `get` accepts) is a gamma = -1 twin."""
    return _norm(name) in _SPOTCHECK


def nonexistence_spotcheck(name: str, samples: int = 20, seed: int = 0):
    """Instantiate the gamma=+1 families against the gamma=-1 brackets.

    Reports, per sample, whether integrability fails (it must).  This is a
    consistency check of the catalogue, not a proof of nonexistence.
    """
    key = _norm(name)
    if key not in _SPOTCHECK:
        raise UnknownAlgebra(f"no spot-check target {name!r}")
    algebra, family_of = _SPOTCHECK[key]
    fam = get(family_of).families[0]
    rng = random.Random(seed)
    report = []
    for _ in range(samples):
        values = fam.random_admissible(rng)
        J = fam.instantiate(values)
        report.append({
            "params": {k: rational_str(v) for k, v in sorted(values.items())},
            "integrable": is_integrable(algebra, J),
        })
    return {"target": name, "borrowed_family": fam.name,
            "all_fail": all(not r["integrable"] for r in report),
            "samples": report}


def spotcheck_names() -> List[str]:
    return ["M14-1", "M18-1"]


# -- JSON dump/load ---------------------------------------------------------

def dump_json() -> dict:
    def fam(f):
        d = {"name": f.name,
             "params": [{"name": p.name, "kind": p.kind} for p in f.params],
             "defs": [[n, e] for n, e in f.defs],
             "entries": [list(r) for r in f.entries],
             "conditions": list(f.conditions)}
        if isinstance(f, JFamily):
            d["expected_m"] = f.expected_m
            d["samplable"] = f.samplable
        return d

    def rep(r):
        d = fam(r)
        d["expected_m"] = r.expected_m
        d["m_table"] = [[list(pair), [[k, c] for k, c in co]] for pair, co in r.m_table]
        d["recognize"] = [[p, list(loc)] for p, loc in r.recognize]
        d["has_chart"] = r.chart is not None
        return d

    out = {"version": CATALOGUE_VERSION, "algebras": []}
    for e in entries():
        out["algebras"].append({
            "name": e.name,
            "aliases": list(e.aliases),
            "algebra": e.algebra.to_json(),
            "expected_dim": e.expected_dim,
            "families": [fam(f) for f in e.families],
            "representatives": [rep(r) for r in e.representatives],
            "automorphisms": [fam(a) for a in e.automorphisms],
        })
    return out


def load_json(doc: dict) -> List[AlgebraEntry]:
    """Rebuild (family/automorphism) templates from a dumped document."""
    if doc.get("version") != CATALOGUE_VERSION:
        raise ValueError("unsupported catalogue version")
    out = []
    for a in doc["algebras"]:
        fams = tuple(
            JFamily(name=f["name"],
                    params=tuple(ParamSpec(p["name"], p["kind"]) for p in f["params"]),
                    entries=tuple(tuple(r) for r in f["entries"]),
                    defs=tuple((n, e) for n, e in f["defs"]),
                    conditions=tuple(f["conditions"]),
                    expected_m=f.get("expected_m"),
                    samplable=f.get("samplable", True))
            for f in a["families"])
        autos = tuple(
            AutomorphismFamily(name=f["name"],
                               params=tuple(ParamSpec(p["name"], p["kind"]) for p in f["params"]),
                               entries=tuple(tuple(r) for r in f["entries"]),
                               defs=tuple((n, e) for n, e in f["defs"]),
                               conditions=tuple(f["conditions"]))
            for f in a["automorphisms"])
        out.append(AlgebraEntry(
            name=a["name"], aliases=tuple(a["aliases"]),
            algebra=LieAlgebra.from_json(a["algebra"]),
            families=fams, representatives=(), automorphisms=autos,
            fields_display=(), expected_dim=a["expected_dim"]))
    return out


from . import _data  # noqa: E402  (populates the registry on import)

_data.populate(_register, _register_spotcheck)
