"""Holomorphic-chart verification.

A chart triple (phi1, phi2, phi3) is certified by (a) exact annihilation
under all six antiholomorphic fields X~_j^- = X_j + i J X_j, (b) an
invertible complex Jacobian at sampled points, and (c) exact agreement of
the closed-form chart multiplication with the normal-ordering engine.
Complex combinations are always eliminated into the real polynomial ring
before comparison.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

from . import group, linalg
from .acs import AlmostComplexStructure, BadSquare
from .catalogue import AlgebraEntry, Representative
from .exactnum import GaussianRational, MultiPoly
from .expr import ExprError, evaluate

class NotAnnihilated(AssertionError):
    """Some X~_j^- phi^k != 0; `failing` lists every such (j, k)."""

    def __init__(self, failing, residual):
        j, k = failing[0]
        super().__init__(f"X~_j^- phi^k != 0 for (j, k) in {failing} "
                         f"(residual of X~_{j}^- phi^{k}: {residual!r})")
        self.failing, self.residual = failing, residual


class DegenerateJacobian(AssertionError):
    def __init__(self, point):
        super().__init__(f"complex Jacobian is singular at {point}")
        self.point = point


class Mismatch(AssertionError):
    def __init__(self, pair, component, lhs, rhs):
        super().__init__(
            f"chart multiplication mismatch in phi^{component} at {pair}: "
            f"{lhs!r} != {rhs!r}")
        self.pair, self.component = pair, component


def fields_for(entry: AlgebraEntry) -> List[List[MultiPoly]]:
    """Left-invariant fields in the chart the entry's group data uses."""
    if entry.natural_chart:
        return group.m5_natural_fields()
    return group.left_invariant_fields(entry.algebra)


def apply_derivation(coeffs: Sequence[MultiPoly], p: MultiPoly) -> MultiPoly:
    out = MultiPoly.const(0)
    for m, c in enumerate(coeffs):
        if isinstance(c, MultiPoly) and c.is_zero():
            continue
        out = out + MultiPoly.coerce(c) * p.partial(group.COORDS[m])
    return out


def antiholo_fields(entry: AlgebraEntry, J: AlmostComplexStructure
                    ) -> List[List[MultiPoly]]:
    """All six X~_j^- = X_j + i*sum_k J^k_j X_k as polynomial derivations."""
    fields = fields_for(entry)
    i_unit = GaussianRational(0, 1)
    out = []
    for j in range(1, 7):
        coeffs = [MultiPoly.coerce(c) for c in fields[j - 1]]
        col = J.column(j)
        for k in range(6):
            if col[k] != 0:
                add = [MultiPoly.coerce(c) * (i_unit * col[k]) for c in fields[k]]
                coeffs = [a + b for a, b in zip(coeffs, add)]
        out.append(coeffs)
    return out


def build_antiholo(entry: AlgebraEntry, J: AlmostComplexStructure, j: int
                   ) -> List[MultiPoly]:
    if not J.square_check():
        raise BadSquare("J^2 != -1")
    return antiholo_fields(entry, J)[j - 1]


def chart_env(rep: Representative, values: Mapping[str, Fraction]) -> Dict:
    """Environment with parameters, chart definitions and formal coordinates."""
    chart = rep.chart
    env: Dict = {k: Fraction(v) for k, v in values.items()}
    for nm, e in rep.defs:
        env[nm] = evaluate(e, env)
    for c in group.COORDS:
        env[c] = MultiPoly.var(c)
    for nm, e in chart.defs:
        env[nm] = evaluate(e, env)
    return env


def _chi_env(rep: Representative, values: Mapping[str, Fraction]) -> Dict:
    """Parameters, representative defs and the chart defs that need no
    coordinates: the scope of the chi corrections."""
    env: Dict = {k: Fraction(v) for k, v in values.items()}
    for nm, e in rep.defs:
        env[nm] = evaluate(e, env)
    for nm, e in rep.chart.defs:
        try:
            env[nm] = evaluate(e, env)
        except ExprError:
            continue  # coordinate-dependent defs are not needed for chi
    return env


def chart_polys(rep: Representative, values: Mapping[str, Fraction]
                ) -> List[MultiPoly]:
    env = chart_env(rep, values)
    return [MultiPoly.coerce(evaluate(p, env)) for p in rep.chart.phis]


def verify_relations(entry: AlgebraEntry, rep: Representative,
                     values: Mapping[str, Fraction]) -> bool:
    """Displayed dependencies x~_j^- = sum c_k x~_k^- hold exactly."""
    chart = rep.chart
    if not chart.relations:
        return True
    J = rep.instantiate(values)
    env = chart_env(rep, values)
    i_unit = GaussianRational(0, 1)

    def gen(j):
        col = J.column(j)
        return [GaussianRational((1 if k == j - 1 else 0)) + i_unit * col[k]
                for k in range(6)]

    for j, combo in chart.relations:
        lhs = gen(j)
        rhs = [GaussianRational(0)] * 6
        for k, ce in combo:
            c = GaussianRational.coerce(evaluate(ce, env))
            rhs = [r + c * g for r, g in zip(rhs, gen(k))]
        if any(a != b for a, b in zip(lhs, rhs)):
            return False
    return True


def real_jacobian_det(phis: Sequence[MultiPoly], point: Mapping[str, Fraction]
                      ) -> Fraction:
    """det of the full real 6x6 Jacobian of (Re phi, Im phi).

    This is the convention-free invertibility certificate: the charts are
    holomorphic for J, not for the standard complex structure, so the
    3x3 matrix d(phi)/d(z) in standard z's can be singular for perfectly
    good charts.
    """
    rows = []
    for p in phis:
        d = [GaussianRational.coerce(p.partial(c).eval(point)) if c in p.vars
             else GaussianRational(0) for c in group.COORDS]
        rows.append([x.re for x in d])
        rows.append([x.im for x in d])
    return linalg.det(rows)


def verify_chart(entry: AlgebraEntry, rep: Representative,
                 values: Mapping[str, Fraction],
                 jacobian_points: int = 10, seed: int = 0,
                 phis: Sequence[MultiPoly] | None = None) -> Dict:
    """Exact holomorphy of the chart triple under all six fields, plus an
    invertibility spot-check of the complex Jacobian.  All 18 identities
    are checked before NotAnnihilated names the failing ones."""
    J = rep.instantiate(values)
    if phis is None:
        phis = chart_polys(rep, values)
    ahf = antiholo_fields(entry, J)
    residuals = {(j, k): apply_derivation(ahf[j - 1], phis[k - 1])
                 for j in range(1, 7) for k in range(1, 4)}
    failing = [jk for jk, res in residuals.items() if not res.is_zero()]
    if failing:
        raise NotAnnihilated(failing, residuals[failing[0]])
    if not verify_relations(entry, rep, values):
        raise AssertionError(f"{entry.name}/{rep.name}: displayed field "
                             "dependencies fail")
    rng = random.Random(seed)
    for _ in range(jacobian_points):
        point = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for c in group.COORDS}
        if real_jacobian_det(phis, point) == 0:
            raise DegenerateJacobian(point)
    return {"identities": len(residuals), "jacobian_points": jacobian_points,
            "generators": list(rep.chart.generators)}


def _phi_values(phis: Sequence[MultiPoly], coords: Sequence[Fraction]
                ) -> List[GaussianRational]:
    env = dict(zip(group.COORDS, [Fraction(c) for c in coords]))
    return [GaussianRational.coerce(p.eval(env)) for p in phis]


def chi_corrections(rep: Representative, values: Mapping[str, Fraction],
                    phi_a: Sequence[GaussianRational],
                    phi_x: Sequence[GaussianRational]) -> Dict[int, GaussianRational]:
    chart = rep.chart
    env = _chi_env(rep, values)
    for k in range(3):
        env[f"f{k+1}a"] = phi_a[k]
        env[f"f{k+1}x"] = phi_x[k]
    for nm, e in chart.chi_defs:
        env[nm] = evaluate(e, env)
    return {comp: GaussianRational.coerce(evaluate(e, env))
            for comp, e in chart.chi}


def multiply_coords(entry: AlgebraEntry, a, x):
    if entry.natural_chart:
        return group.m5_matrix_multiply(a, x)
    return group.multiply(entry.algebra, a, x)


def verify_chart_multiplication(entry: AlgebraEntry, rep: Representative,
                                values: Mapping[str, Fraction],
                                pairs: int = 50, seed: int = 0,
                                phis: Sequence[MultiPoly] | None = None) -> Dict:
    """phi(a*x) == phi(a) + phi(x) + chi(a, x), exactly, at random points."""
    if phis is None:
        phis = chart_polys(rep, values)
    rng = random.Random(seed)
    for n in range(pairs):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        prod = multiply_coords(entry, a, x)
        lhs = _phi_values(phis, prod)
        fa = _phi_values(phis, a)
        fx = _phi_values(phis, x)
        chi = chi_corrections(rep, values, fa, fx)
        for comp in range(1, 4):
            rhs = fa[comp - 1] + fx[comp - 1] + chi.get(comp, GaussianRational(0))
            if lhs[comp - 1] != rhs:
                raise Mismatch((a, x), comp, lhs[comp - 1], rhs)
    return {"pairs": pairs}


def translated_chart_is_holomorphic(entry: AlgebraEntry, rep: Representative,
                                    values: Mapping[str, Fraction],
                                    a: Sequence[Fraction],
                                    phis: Sequence[MultiPoly] | None = None) -> bool:
    """phi(a * x), as polynomials in the coordinates of x, is annihilated by
    the same antiholomorphic fields: left translations are holomorphic."""
    if phis is None:
        phis = chart_polys(rep, values)
    formal = [MultiPoly.var(c) for c in group.COORDS]
    prod = multiply_coords(entry, [Fraction(c) for c in a], formal)
    env = dict(zip(group.COORDS, prod))
    translated = [MultiPoly.coerce(p.eval(env)) for p in phis]
    J = rep.instantiate(values)
    ahf = antiholo_fields(entry, J)
    for j in range(6):
        for p in translated:
            if not apply_derivation(ahf[j], p).is_zero():
                return False
    return True


def chi_depends_on_conjugate(rep: Representative, values: Mapping[str, Fraction],
                             seed: int = 0) -> bool:
    """True iff some chi component genuinely involves conj(phi_a).

    The correction is expressed as a polynomial in the real and imaginary
    parts of phi_a (with phi_x held at a sampled value) and tested with
    exact Wirtinger derivatives.
    """
    chart = rep.chart
    rng = random.Random(seed)
    env = _chi_env(rep, values)
    i_unit = GaussianRational(0, 1)
    pairs = []
    for k in range(1, 4):
        u, v = MultiPoly.var(f"u{k}"), MultiPoly.var(f"v{k}")
        env[f"f{k}a"] = u + v * i_unit
        env[f"f{k}x"] = GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                                         Fraction(rng.randint(1, 5), 3))
        pairs.append((f"u{k}", f"v{k}"))
    for nm, e in chart.chi_defs:
        env[nm] = evaluate(e, env)
    for comp, e in chart.chi:
        p = MultiPoly.coerce(evaluate(e, env))
        for u, v in pairs:
            q = p.on_vars(tuple(sorted(set(p.vars) | {u, v})))
            if not q.wirtinger(u, v, conjugate=True).is_zero():
                return True
    return False
