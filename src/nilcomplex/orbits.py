"""Automorphism action on complex structures: witnesses and invariants.

Deciding equivalence of two arbitrary structures is a polynomial-system
feasibility problem with no uniform exact algorithm at this scale; we
only verify explicit witnesses, compute orbit invariants, and implement
the two explicit parameter-level equivalence predicates (M10 and the M5
case-2.1 stratum).  A best-effort randomized search is available behind an
explicit call and returns "inconclusive" rather than "not equivalent".
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import linalg
from .acs import AlmostComplexStructure, classify_m
from .catalogue import AlgebraEntry, DomainViolation, SamplingExhausted
from .expr import evaluate
from .liecore import LieAlgebra


class NotAutomorphism(ValueError):
    pass


class NotInRepresentativeForm(ValueError):
    """J matches no catalogued representative template."""


def is_automorphism(L: LieAlgebra, phi: Sequence[Sequence[Fraction]]) -> bool:
    """Exact check: invertible and bracket-preserving on all basis pairs."""
    n = L.dim
    phi = [[Fraction(x) for x in row] for row in phi]
    if len(phi) != n or any(len(r) != n for r in phi):
        return False
    if linalg.det(phi) == 0:
        return False
    cols = [[phi[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = linalg.mat_vec(phi, L.bracket_basis(i + 1, j + 1))
            rhs = L.bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


def act(L: LieAlgebra, phi: Sequence[Sequence[Fraction]],
        J: AlmostComplexStructure) -> AlmostComplexStructure:
    """The action J -> phi^-1 J phi; requires phi in Aut(L)."""
    if not is_automorphism(L, phi):
        raise NotAutomorphism("matrix does not preserve the brackets")
    phi = [[Fraction(x) for x in row] for row in phi]
    inv = linalg.inverse(phi)
    return AlmostComplexStructure(linalg.mat_mul(inv, linalg.mat_mul(J.m, phi)))


def verify_witness(L: LieAlgebra, J1: AlmostComplexStructure,
                   J2: AlmostComplexStructure,
                   phi: Sequence[Sequence[Fraction]]) -> bool:
    """True iff phi is an automorphism carrying J1 to J2 exactly."""
    if not is_automorphism(L, phi):
        return False
    return act(L, phi, J1) == J2


def recognize_representative(entry: AlgebraEntry, J: AlmostComplexStructure):
    """Match J against the entry's representative templates.

    Returns (representative, params) for the first template whose
    recognized parameters reproduce J exactly, else None.
    """
    for rep in entry.representatives:
        if not rep.recognize and rep.params:
            continue
        try:
            values = {}
            for pname, (r, c, expr) in rep.recognize:
                v = J[r, c]
                if expr is not None:
                    v = evaluate(expr, {"v": v})
                values[pname] = Fraction(v)
            if rep.instantiate(values) == J:
                return rep, values
        except (DomainViolation, ZeroDivisionError):
            continue
    return None


def orbit_invariants_soft(entry: AlgebraEntry, J: AlmostComplexStructure) -> Dict:
    """The classify_m type of m, plus the representative and canonical
    parameters where J matches a catalogued template (else representative
    None).  A J that is not integrable raises BadSquare or NotClosed."""
    out: Dict = {"m": classify_m(entry.algebra, J), "representative": None}
    match = recognize_representative(entry, J)
    if match is not None:
        out["representative"], out["params"] = match[0].name, match[1]
    return out


def orbit_invariants(entry: AlgebraEntry, J: AlmostComplexStructure) -> Dict:
    """orbit_invariants_soft for a J that is in a representative form."""
    out = orbit_invariants_soft(entry, J)
    if out["representative"] is None:
        raise NotInRepresentativeForm(
            f"J matches no representative of {entry.name}; "
            f"invariants limited to m = {out['m']}")
    return out


# -- explicit equivalence predicates ----------------------------------------

def m10_equivalence_relation(p: Tuple[Fraction, Fraction, Fraction],
                             q: Tuple[Fraction, Fraction, Fraction]) -> bool:
    """Equivalence on the M10 case-1 canonical parameters (j21, j33, j43).

    On the canonical domain the parameters are a complete invariant:
    distinct triples are never equivalent.
    """
    p = tuple(Fraction(x) for x in p)
    q = tuple(Fraction(x) for x in q)
    for t in (p, q):
        j21, j33, j43 = t
        if not 0 < j21 <= 1:
            raise DomainViolation("need 0 < j21 <= 1")
        if j43 == 0 or j21 == j43:
            raise DomainViolation("need j21*j43*(j21 - j43) != 0")
        if (j43 * j21 - j21 * j21 - 1) * j43 + (j33 * j33 + 1) * j21 == 0:
            raise DomainViolation("canonical denominator vanishes")
    return p == q


def m5_case21_relation(p: Tuple[Fraction, Fraction],
                       q: Tuple[Fraction, Fraction]) -> bool:
    """Equivalence on the M5 case-2.1 parameters (j21, j43).

    (h21, h43) ~ (j21, j43) iff for some u = +-1 each of h21, h43 is
    u*x or u/x for x the corresponding (or the swapped) parameter.
    """
    p = tuple(Fraction(x) for x in p)
    q = tuple(Fraction(x) for x in q)
    for j21, j43 in (p, q):
        if j21 == 0 or j43 == 0:
            raise DomainViolation("need j21*j43 != 0")
        if j43 == j21 or j43 * j21 == 1:
            raise DomainViolation("need j43 != j21 and j43 != 1/j21")
    j21, j43 = p
    h21, h43 = q
    for u in (Fraction(1), Fraction(-1)):
        for a, b in ((j21, j43), (j43, j21)):
            if h21 in (u * a, u / a) and h43 in (u * b, u / b):
                return True
    return False


# -- randomized search (soundness over completeness) ------------------------

def randomized_equivalence_search(entry: AlgebraEntry,
                                  J1: AlmostComplexStructure,
                                  J2: AlmostComplexStructure,
                                  seed: int = 0,
                                  attempts: int = 200) -> Dict:
    """Try sampled catalogue automorphisms as witnesses J1 -> J2.

    Returns {"status": "equivalent", "witness": phi} on success and
    {"status": "inconclusive"} otherwise; it never claims inequivalence.
    """
    rng = random.Random(seed)
    L = entry.algebra
    for fam in entry.automorphisms:
        for _ in range(attempts):
            try:
                values = fam.random_admissible(rng)
            except SamplingExhausted:
                break
            phi = fam.instantiate_matrix(values)
            if act(L, phi, J1) == J2:
                return {"status": "equivalent",
                        "witness": [[str(x) for x in row] for row in phi]}
    return {"status": "inconclusive"}
