"""Automorphism action on complex structures: witnesses and invariants.

Deciding equivalence of two arbitrary structures is a polynomial-system
feasibility problem with no uniform exact algorithm at this scale; we only
verify explicit witnesses (`is_automorphism` runs in ints: acs's compiled
automorphism forms at phi = M/D, then linalg.rank of M; `act` solves
phi X = J phi by one linalg.rref, then runs the forms), compute orbit
invariants, and implement the two explicit parameter-level equivalence
predicates (M10 and the M5 case-2.1 stratum).  A best-effort randomized
search is available behind an explicit call and returns "inconclusive"
rather than "not equivalent".
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .acs import (AlmostComplexStructure, automorphism_code, classify_m, integer_point,
                  m_subalgebra)
from .catalogue import AlgebraEntry, DomainViolation, SamplingExhausted, get
from .expr import evaluate
from .liecore import LieAlgebra


class NotAutomorphism(ValueError):
    pass


def _point(phi, n: int):
    """(M, D) with phi = M/D, or None unless phi is n x n; phi is a family
    member as built, whose (M, D) acs.integer_point reads, or rational rows."""
    if not isinstance(phi, AlmostComplexStructure):
        if len(phi) != n or any(len(r) != n for r in phi):
            return None
        phi = AlmostComplexStructure(phi)
    return integer_point(phi, n) if phi.dim == n else None


def is_automorphism(L: LieAlgebra, phi) -> bool:
    """Exact, in ints: phi = M/D (see _point) has integer rank n and zeroes
    acs.automorphism_forms(L)."""
    n, point = L.dim, _point(phi, L.dim)
    if point is None:
        return False
    M, D = point
    return _preserves_brackets(L, M, D) and linalg.rank(_square(M, n)) == n


def _preserves_brackets(L: LieAlgebra, M: List[int], D: int) -> bool:
    """phi = M/D, M its entries row by row, zeroes acs.automorphism_forms(L)."""
    return not any(automorphism_code(L)(M + [D], D))


def _square(M: List[int], n: int) -> List[List[int]]:
    return [M[r:r + n] for r in range(0, n * n, n)]


def act(L: LieAlgebra, phi, J: AlmostComplexStructure) -> AlmostComplexStructure:
    """The action J -> phi^-1 J phi; requires J a complex structure on L
    (else BadSquare or NotClosed) and phi in Aut(L), a member as built or
    rational rows (see _point).  J and phi keep their (M, D).
    At phi = P/d and J = M/D, linalg.rref takes [P | M P] to
    [delta I | delta D X], X = phi^-1 J phi, unless its pivots show P singular."""
    m_subalgebra(L, J)
    n, point = L.dim, _point(phi, L.dim)
    if point is None:
        raise NotAutomorphism(f"matrix is not {n}x{n}")
    N, d = point
    P = _square(N, n)
    M, D = integer_point(J, n)
    red, pivots = linalg.rref([p + q for p, q in zip(P, linalg.mat_mul(_square(M, n), P))])
    if pivots != list(range(n)):
        raise NotAutomorphism("matrix is singular")
    if not _preserves_brackets(L, N, d):
        raise NotAutomorphism("matrix does not preserve the brackets")
    return AlmostComplexStructure([[Fraction(x, red[0][0] * D) for x in row[n:]] for row in red])


def verify_witness(L: LieAlgebra, J1: AlmostComplexStructure,
                   J2: AlmostComplexStructure,
                   phi: Sequence[Sequence[Fraction]]) -> bool:
    """True iff phi is an automorphism carrying J1 to J2 exactly."""
    try:
        return act(L, phi, J1) == J2
    except NotAutomorphism:
        return False


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


def orbit_invariants(entry: AlgebraEntry, J: AlmostComplexStructure) -> Dict:
    """The classify_m type of m, plus the representative and canonical
    parameters where J matches a catalogued template (else representative
    None).  A J that is not integrable raises BadSquare or NotClosed."""
    out: Dict = {"m": classify_m(entry.algebra, J), "representative": None}
    match = recognize_representative(entry, J)
    if match is not None:
        out["representative"], out["params"] = match[0].name, match[1]
    return out


# -- explicit equivalence predicates ----------------------------------------

def _in_domain(algebra: str, rep: str, names: Sequence[str], *points):
    """The points as tuples of Fractions, each after the domain check of the
    catalogued representative whose parameters they name (else DomainViolation)."""
    member = get(algebra).representative(rep)
    points = [tuple(Fraction(x) for x in t) for t in points]
    for t in points:
        member.check_domain(dict(zip(names, t, strict=True)))
    return points


def m10_equivalence_relation(p: Tuple[Fraction, Fraction, Fraction],
                             q: Tuple[Fraction, Fraction, Fraction]) -> bool:
    """Equivalence on the M10 case-1 canonical parameters (j21, j33, j43).

    On the canonical domain, that of the J_case1 representative, the
    parameters are a complete invariant: distinct triples are never
    equivalent.
    """
    p, q = _in_domain("M10", "J_case1", ("j21", "j33", "j43"), p, q)
    return p == q


def m5_case21_relation(p: Tuple[Fraction, Fraction],
                       q: Tuple[Fraction, Fraction]) -> bool:
    """Equivalence on the M5 case-2.1 parameters (j21, j43), on the domain
    of the J_case21 representative.

    (h21, h43) ~ (j21, j43) iff for some u = +-1 each of h21, h43 is
    u*x or u/x for x the corresponding (or the swapped) parameter.
    """
    (j21, j43), (h21, h43) = _in_domain("M5", "J_case21", ("j21", "j43"), p, q)
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
            phi = fam.instantiate(values)
            if act(L, phi, J1) == J2:
                return {"status": "equivalent",
                        "witness": [[str(x) for x in row] for row in phi.rows()]}
    return {"status": "inconclusive"}
