"""Holomorphic-chart verification.

A chart triple (phi1, phi2, phi3) is certified by (a) exact annihilation
under all six antiholomorphic fields X~_j^- = X_j + i J X_j, (b) an
invertible real 6x6 Jacobian of (Re phi, Im phi) at sampled points, and
(c) exact agreement of the closed-form chart multiplication with the
normal-ordering engine at sampled pairs.  Every check reads one cached
derivation of the chart point (J, the validated scope and the chart
functions), and (a) and (b) both read one gradient of the chart functions;
for (b), its real and imaginary parts compile to one integer code per
check, whose int rows at each point linalg.rank reads as they are.  For
(c), chi is derived once per chart point as polynomials in the real and
imaginary parts of phi(a) and phi(x); at each rational pair, phi and chi
then run their integer code, compiled once per polynomial.  Complex
combinations are always eliminated into the real polynomial ring before
comparison.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import group, linalg
from .acs import AlmostComplexStructure, BadSquare
from .catalogue import AlgebraEntry, Chart, Representative
from .exactnum import GaussianRational, I, MultiPoly, polynomial_code
from .expr import evaluate, free_symbols


class NotAnnihilated(AssertionError):
    """Some X~_j^- phi^k != 0; `failing` lists every such (j, k)."""

    def __init__(self, failing, residual):
        j, k = failing[0]
        super().__init__(f"X~_j^- phi^k != 0 for (j, k) in {failing} "
                         f"(residual of X~_{j}^- phi^{k}: {residual!r})")
        self.failing, self.residual = failing, residual


class DegenerateJacobian(AssertionError):
    def __init__(self, point):
        super().__init__(f"real Jacobian is singular at {point}")
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
    """sum_m coeffs[m] d p / d coord_m: one field applied to one polynomial."""
    out = MultiPoly.const(0)
    for m, c in enumerate(coeffs):
        if not c:
            continue
        out = out + MultiPoly.coerce(c) * p.partial(group.COORDS[m])
    return out


def antiholo_fields(entry: AlgebraEntry, J: AlmostComplexStructure
                    ) -> List[List[MultiPoly]]:
    """All six X~_j^- = X_j + i*sum_k J^k_j X_k as polynomial derivations;
    a J with J^2 != -1 raises BadSquare."""
    if not J.square_check():
        raise BadSquare("J^2 != -1")
    fields = fields_for(entry)
    out = []
    for j in range(1, 7):
        coeffs = [MultiPoly.coerce(c) for c in fields[j - 1]]
        for k, x in enumerate(J.column(j)):
            if x:
                s = MultiPoly.const(I * x)
                coeffs = [a + MultiPoly.coerce(c) * s for a, c in zip(coeffs, fields[k])]
        out.append(coeffs)
    return out


@functools.lru_cache(maxsize=256)
def _chart_at(rep: Representative, point: frozenset
              ) -> Tuple[AlmostComplexStructure, Mapping, Tuple[MultiPoly, ...]]:
    """(J, scope, phis) at one chart point (the items of the parameter
    values), derived once; the scope is read-only, since callers share it.

    One `check_domain` under the chart's conditions gives the scope, and J
    is built from it before any chart def enters: some chart defs reuse the
    representative's def names.  The chart defs that name no coordinate,
    directly or through an earlier such def, are then evaluated into the
    scope; the others and the three chart functions become polynomials in
    the real coordinates.  The cache is bounded because sampling draws new
    points without end.
    """
    scope = rep.check_domain(dict(point), rep.chart.conditions)
    J = rep.matrix(scope)
    moving, coord_defs = set(group.COORDS), []
    for nm, e in rep.chart.defs:
        if free_symbols(e) & moving:
            moving.add(nm)
            coord_defs.append((nm, e))
        else:
            scope[nm] = evaluate(e, scope)
    env = {**scope, **{c: MultiPoly.var(c) for c in group.COORDS}}
    for nm, e in coord_defs:
        env[nm] = evaluate(e, env)
    phis = tuple(MultiPoly.coerce(evaluate(p, env)) for p in rep.chart.phis)
    return J, MappingProxyType(scope), phis


def chart_polys(rep: Representative, values: Mapping[str, Fraction]
                ) -> List[MultiPoly]:
    """The three chart functions as polynomials in the real coordinates,
    as a fresh list."""
    return list(_chart_at(rep, frozenset(values.items()))[2])


def gradient(phis: Sequence[MultiPoly]) -> List[List[MultiPoly]]:
    """grads[k][m] = d phi^(k+1) / d coord_m."""
    return [[p.partial(c) for c in group.COORDS] for p in phis]


def annihilation_residuals(entry: AlgebraEntry, J: AlmostComplexStructure,
                           grads: Sequence[Sequence[MultiPoly]]
                           ) -> Dict[Tuple[int, int], MultiPoly]:
    """X~_j^- phi^k for all six fields and every chart function, keyed
    (j, k) and read off the gradient of phi^k."""
    zero = MultiPoly.const(0)
    return {(j, k): sum((c * d for c, d in zip(field, grad)), zero)
            for j, field in enumerate(antiholo_fields(entry, J), 1)
            for k, grad in enumerate(grads, 1)}


def verify_relations(chart: Chart, J: AlmostComplexStructure, scope: Mapping) -> bool:
    """Displayed dependencies x~_j^- = sum c_k x~_k^- hold exactly; the
    coefficients are read in the scope of the chart point."""

    def gen(j):
        return [GaussianRational(k == j - 1) + I * c
                for k, c in enumerate(J.column(j))]

    for j, combo in chart.relations:
        rhs = [GaussianRational(0)] * 6
        for k, ce in combo:
            c = GaussianRational.coerce(evaluate(ce, scope))
            rhs = [r + c * g for r, g in zip(rhs, gen(k))]
        if gen(j) != rhs:
            return False
    return True


def real_jacobian(grads: Sequence[Sequence[MultiPoly]]
                  ) -> Callable[[Mapping[str, Fraction]], List[List[int]]]:
    """The full real 6x6 Jacobian of (Re phi, Im phi) as int rows, all 36
    entries over one denominator that no rank needs divided out, as a
    function of the point: the real and imaginary rows of the gradient
    compile once, to one integer code, which each point runs.

    Its rank is the convention-free invertibility certificate: the charts
    are holomorphic for J, not for the standard complex structure, so the
    3x3 matrix d(phi)/d(z) in standard z's can be singular for perfectly
    good charts.
    """
    code = polynomial_code([p for grad in grads for part in zip(*(g.parts() for g in grad))
                            for p in part], group.COORDS)
    width = len(group.COORDS)

    def at(point: Mapping[str, Fraction]) -> List[List[int]]:
        values = code([point[c] for c in group.COORDS])[0]
        return [list(values[k:k + width]) for k in range(0, len(values), width)]

    return at


def verify_chart(entry: AlgebraEntry, rep: Representative,
                 values: Mapping[str, Fraction],
                 jacobian_points: int = 10, seed: int = 0,
                 phis: Sequence[MultiPoly] | None = None) -> Dict:
    """Exact holomorphy of the chart triple under all six fields, plus an
    invertibility spot-check of the real Jacobian.  All 18 identities
    are checked before NotAnnihilated names the failing ones."""
    J, scope, own = _chart_at(rep, frozenset(values.items()))
    grads = gradient(own if phis is None else phis)
    residuals = annihilation_residuals(entry, J, grads)
    failing = [jk for jk, res in residuals.items() if res]
    if failing:
        raise NotAnnihilated(failing, residuals[failing[0]])
    if not verify_relations(rep.chart, J, scope):
        raise AssertionError(f"{entry.name}/{rep.name}: displayed field "
                             "dependencies fail")
    rng = random.Random(seed)
    jacobian = real_jacobian(grads)
    for _ in range(jacobian_points):
        point = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for c in group.COORDS}
        if linalg.rank(jacobian(point)) != 6:
            raise DegenerateJacobian(point)
    return {"identities": len(residuals), "jacobian_points": jacobian_points,
            "generators": list(rep.chart.generators)}


def _phi_values(phis: Sequence[MultiPoly], coords: Sequence[Fraction]
                ) -> List[GaussianRational]:
    env = dict(zip(group.COORDS, [Fraction(c) for c in coords]))
    return [GaussianRational.coerce(p.eval(env)) for p in phis]


def chi_corrections(chart: Chart, scope: Mapping, phi_a: Sequence, phi_x: Sequence
                    ) -> Dict[int, object]:
    """The closed-form corrections chi(a, x) per corrected component, in the
    scope of the chart point; phi_a and phi_x may be polynomials."""
    env = dict(scope)
    for k in range(3):
        env[f"f{k+1}a"] = phi_a[k]
        env[f"f{k+1}x"] = phi_x[k]
    for nm, e in chart.chi_defs:
        env[nm] = evaluate(e, env)
    return {comp: evaluate(e, env) for comp, e in chart.chi}


@functools.lru_cache(maxsize=256)
def _chi_polys(rep: Representative, point: frozenset) -> Dict[int, MultiPoly]:
    """chi at one chart point (keyed as `_chart_at`) as polynomials in the
    real and imaginary parts of phi(a)_k = u_k + i v_k and
    phi(x)_k = s_k + i t_k.  Derived once per point, and the dict is shared."""

    def formal(re, im):
        return [MultiPoly.var(f"{re}{k}") + MultiPoly.var(f"{im}{k}") * I for k in range(1, 4)]

    scope = _chart_at(rep, point)[1]
    chi = chi_corrections(rep.chart, scope, formal("u", "v"), formal("s", "t"))
    return {comp: MultiPoly.coerce(c) for comp, c in chi.items()}


def _chi_values(chi_polys: Mapping[int, MultiPoly], phi_a: Sequence[GaussianRational],
                phi_x: Sequence[GaussianRational]) -> Dict[int, GaussianRational]:
    """`_chi_polys` at the values phi(a), phi(x)."""
    env = {}
    for k, (za, zx) in enumerate(zip(phi_a, phi_x), 1):
        env.update({f"u{k}": za.re, f"v{k}": za.im, f"s{k}": zx.re, f"t{k}": zx.im})
    return {comp: p.eval(env) for comp, p in chi_polys.items()}


def multiply_coords(entry: AlgebraEntry, a, x):
    if entry.natural_chart:
        return group.m5_matrix_multiply(a, x)
    return group.multiply(entry.algebra, a, x)


def verify_chart_multiplication(entry: AlgebraEntry, rep: Representative,
                                values: Mapping[str, Fraction],
                                pairs: int = 50, seed: int = 0,
                                phis: Sequence[MultiPoly] | None = None) -> Dict:
    """phi(a*x) == phi(a) + phi(x) + chi(a, x), exactly, at random points."""
    point = frozenset(values.items())
    if phis is None:
        phis = _chart_at(rep, point)[2]
    chi_polys = _chi_polys(rep, point)
    rng = random.Random(seed)
    for n in range(pairs):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        prod = multiply_coords(entry, a, x)
        lhs = _phi_values(phis, prod)
        fa = _phi_values(phis, a)
        fx = _phi_values(phis, x)
        chi = _chi_values(chi_polys, fa, fx)
        for comp in range(1, 4):
            rhs = fa[comp - 1] + fx[comp - 1] + chi.get(comp, 0)
            if lhs[comp - 1] != rhs:
                raise Mismatch((a, x), comp, lhs[comp - 1], rhs)
    return {"pairs": pairs}


def translated_chart_is_holomorphic(entry: AlgebraEntry, rep: Representative,
                                    values: Mapping[str, Fraction],
                                    a: Sequence[Fraction]) -> bool:
    """phi(a * x), as polynomials in the coordinates of x, is annihilated by
    the same antiholomorphic fields: left translations are holomorphic."""
    J, _, phis = _chart_at(rep, frozenset(values.items()))
    formal = [MultiPoly.var(c) for c in group.COORDS]
    prod = multiply_coords(entry, [Fraction(c) for c in a], formal)
    env = dict(zip(group.COORDS, prod))
    translated = [MultiPoly.coerce(p.eval(env)) for p in phis]
    residuals = annihilation_residuals(entry, J, gradient(translated))
    return not any(residuals.values())


def chi_depends_on_conjugate(rep: Representative, values: Mapping[str, Fraction]) -> bool:
    """True iff some chi component genuinely involves conj(phi_a): an exact
    Wirtinger derivative in (u_k, v_k) of the derived chi is nonzero."""
    return any(p.wirtinger(f"u{k}", f"v{k}", conjugate=True)
               for p in _chi_polys(rep, frozenset(values.items())).values()
               for k in range(1, 4))
